"""Unit tests for incrementally-maintained hash indexes.

Includes the randomized ``Bag.patch`` / index consistency check: after
any sequence of patch-driven writes, an index lookup must return exactly
what a full-scan selection over the table returns.
"""

import random

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.exec.indexes import HashIndex, IndexManager


def bag_of(*rows):
    return Bag(rows)


class TestHashIndex:
    def test_build_and_lookup(self):
        bag = bag_of((1, "a"), (1, "b"), (2, "c"), (1, "a"))
        index = HashIndex.build((0,), bag)
        assert index.lookup((1,)) == {(1, "a"): 2, (1, "b"): 1}
        assert index.lookup((2,)) == {(2, "c"): 1}
        assert index.lookup((9,)) == {}
        assert len(index) == len(bag)

    def test_compound_key(self):
        bag = bag_of((1, "a", 5), (1, "b", 5), (1, "a", 6))
        index = HashIndex.build((0, 2), bag)
        assert index.lookup((1, 5)) == {(1, "a", 5): 1, (1, "b", 5): 1}

    def test_apply_delta_mirrors_patch(self):
        bag = bag_of((1, "a"), (2, "b"))
        index = HashIndex.build((0,), bag)
        delete, insert = bag_of((1, "a")), bag_of((3, "c"), (3, "c"))
        index.apply_delta(delete, insert)
        patched = bag.patch(delete, insert)
        assert index.lookup((1,)) == {}
        assert index.lookup((3,)) == {(3, "c"): 2}
        assert len(index) == len(patched)

    def test_delete_floors_at_zero(self):
        # Bag.patch floors multiplicities at zero; the index must agree.
        bag = bag_of((1, "a"))
        index = HashIndex.build((0,), bag)
        index.apply_delta(bag_of((1, "a"), (1, "a"), (1, "a")), Bag.empty())
        assert index.lookup((1,)) == {}
        assert index.bucket_count() == 0

    def test_delete_of_absent_row_is_noop(self):
        index = HashIndex.build((0,), bag_of((1, "a")))
        index.apply_delta(bag_of((7, "z")), Bag.empty())
        assert index.lookup((1,)) == {(1, "a"): 1}


class TestIndexManager:
    def test_lazy_build_charges_once(self):
        manager = IndexManager()
        counter = CostCounter()
        bag = bag_of((1,), (2,), (3,))
        first = manager.get("R", (0,), bag, counter=counter)
        second = manager.get("R", (0,), bag, counter=counter)
        assert first is second
        assert counter.by_operator["index_build"] == 3
        assert counter.by_operator.get("index_maint") is None

    def test_on_patch_defers_until_next_probe(self):
        manager = IndexManager()
        bag = bag_of((1, "a"), (2, "b"))
        manager.get("R", (0,), bag)
        manager.get("R", (1,), bag)
        counter = CostCounter()
        patched = bag.patch(bag_of((1, "a")), bag_of((1, "z")))
        manager.on_patch("R", bag_of((1, "a")), bag_of((1, "z")), counter=counter)
        # The write itself charges nothing — maintenance is deferred.
        assert counter.tuples_out == 0
        assert manager.pending_deltas("R") == 1
        by_key = manager.get("R", (0,), patched, counter=counter)
        assert by_key.lookup((1,)) == {(1, "z"): 1}
        # Draining one (delete, insert) pair costs O(|delta|) for one index.
        assert counter.by_operator["index_maint"] == 2
        by_val = manager.get("R", (1,), patched, counter=counter)
        assert by_val.lookup(("a",)) == {}
        assert by_val.lookup(("z",)) == {(1, "z"): 1}
        assert counter.by_operator["index_maint"] == 4
        # Both indexes drained: the queue is trimmed.
        assert manager.pending_deltas("R") == 0

    def test_on_patch_without_indexes_is_free(self):
        manager = IndexManager()
        counter = CostCounter()
        manager.on_patch("unindexed", bag_of((1,)), bag_of((2,)), counter=counter)
        assert counter.tuples_out == 0
        assert manager.pending_deltas("unindexed") == 0

    def test_churny_backlog_nets_to_nothing(self):
        manager = IndexManager()
        bag = bag_of((1, "a"))
        manager.get("R", (0,), bag)
        # Churn: many D/I pairs whose net effect is zero.
        for _ in range(10):
            manager.on_patch("R", Bag.empty(), bag_of((2, "b")))
            manager.on_patch("R", bag_of((2, "b")), Bag.empty())
        counter = CostCounter()
        index = manager.get("R", (0,), bag, counter=counter)
        # The queued run is netted before the rebuild-vs-drain decision:
        # 20 raw delta rows collapse to nothing, so the drain is free.
        assert "index_build" not in counter.by_operator
        assert "index_maint" not in counter.by_operator
        assert index.lookup((1,)) == {(1, "a"): 1}
        assert index.lookup((2,)) == {}

    def test_big_net_backlog_rebuilds_instead_of_draining(self):
        manager = IndexManager()
        bag = bag_of((1, "a"))
        manager.get("R", (0,), bag)
        # Net churn (3 distinct surviving rows) exceeds the table's
        # distinct size (1 row): rebuilding from the bag is cheaper.
        for value in ("b", "c", "d"):
            manager.on_patch("R", Bag.empty(), bag_of((2, value)))
        counter = CostCounter()
        index = manager.get("R", (0,), bag, counter=counter)
        assert counter.by_operator["index_build"] == 1
        assert "index_maint" not in counter.by_operator
        assert index.lookup((1,)) == {(1, "a"): 1}
        assert index.lookup((2,)) == {}

    def test_on_replace_rebuilds_lazily(self):
        manager = IndexManager()
        index = manager.get("R", (0,), bag_of((1, "a")))
        replaced = bag_of((5, "e"), (5, "f"))
        manager.on_replace("R", replaced)
        rebuilt = manager.get("R", (0,), replaced)
        assert rebuilt is not index
        assert rebuilt.lookup((5,)) == {(5, "e"): 1, (5, "f"): 1}
        # The cleared-log case: replacing with empty keeps the index alive.
        manager.on_replace("R", Bag.empty())
        assert manager.get("R", (0,), Bag.empty()).lookup((5,)) == {}
        assert manager.indexes_on("R") != ()

    def test_drop(self):
        manager = IndexManager()
        manager.get("R", (0,), bag_of((1,)))
        manager.drop("R")
        assert manager.indexes_on("R") == ()


class TestReasonCodedBuilds:
    """Every full build a live probe pays says why, when telemetry is on:
    one ``index_build`` span (``table``, ``rows``, ``reason``) and one
    ``index_builds{reason=…}`` count per build."""

    @staticmethod
    def builds(stack) -> list[dict]:
        return [span.attrs for span in stack.tracer.find("index_build")]

    @staticmethod
    def counted(stack, reason: str) -> int:
        metric = stack.metrics.snapshot().get(f'index_builds{{reason="{reason}"}}')
        return 0 if metric is None else metric["value"]

    def test_first_use(self):
        manager = IndexManager()
        bag = bag_of((1, "a"), (2, "b"), (2, "b"))
        with obs.observed() as stack:
            manager.get("R", (0,), bag)
            manager.get("R", (0,), bag)  # built already: no second span
        assert self.builds(stack) == [{"table": "R", "rows": 2, "reason": "first_use"}]
        assert self.counted(stack, "first_use") == 1

    def test_stale(self):
        manager = IndexManager()
        manager.get("R", (0,), bag_of((1, "a")))
        replaced = bag_of((5, "e"), (6, "f"), (7, "g"))
        manager.on_replace("R", replaced)
        with obs.observed() as stack:
            manager.get("R", (0,), replaced)
        assert self.builds(stack) == [{"table": "R", "rows": 3, "reason": "stale"}]
        assert self.counted(stack, "stale") == 1

    def test_cheaper_than_drain(self):
        manager = IndexManager()
        bag = bag_of((1, "a"))
        manager.get("R", (0,), bag)
        for value in ("b", "c", "d"):
            manager.on_patch("R", Bag.empty(), bag_of((2, value)))
        with obs.observed() as stack:
            manager.get("R", (0,), bag)
        assert self.builds(stack) == [{"table": "R", "rows": 1, "reason": "cheaper_than_drain"}]
        assert self.counted(stack, "cheaper_than_drain") == 1
        # The rebuild is what the drain turned into: it nests in index_sync.
        (sync,) = stack.tracer.find("index_sync")
        assert [child.name for child in sync.children] == ["index_build"]

    def test_counted_only_when_telemetry_is_on(self):
        manager = IndexManager()
        with obs.observed(tracer=False, metrics=False, accounting=False, sanitizer=True) as stack:
            manager.get("R", (0,), bag_of((1,)))
        assert stack.metrics.snapshot() == {}


    def test_an_overflowing_queue_is_dropped_and_counted(self):
        manager = IndexManager()
        manager.get("R", (0,), bag_of((1, "a")))
        with obs.observed() as stack:
            manager.on_patch("R", Bag.empty(), bag_of((2, "b"), (3, "c")), size=3)
            assert "index_queue_drops" not in stack.metrics.snapshot()
            # Four queued rows against a one-row table: dropped, marked stale.
            manager.on_patch("R", bag_of((2, "b"), (3, "c")), Bag.empty(), size=1)
            assert stack.metrics.snapshot()["index_queue_drops"]["value"] == 1
            manager.get("R", (0,), bag_of((1, "a")))
        assert self.builds(stack) == [{"table": "R", "rows": 1, "reason": "stale"}]


class TestRandomizedPatchConsistency:
    """Randomized patch sequences keep index lookups == full-scan selects."""

    def test_random_patch_sequences(self):
        rng = random.Random(1996)
        for trial in range(20):
            table = Bag((rng.randrange(6), rng.randrange(4)) for _ in range(rng.randrange(30)))
            manager = IndexManager()
            manager.get("T", (0,), table)
            for _ in range(15):
                delete = Bag(
                    (rng.randrange(6), rng.randrange(4)) for _ in range(rng.randrange(5))
                )
                insert = Bag(
                    (rng.randrange(6), rng.randrange(4)) for _ in range(rng.randrange(5))
                )
                table = table.patch(delete, insert)
                manager.on_patch("T", delete, insert)
                # A probe drains the deferred deltas and must then agree
                # with a full scan of the current table value.
                index = manager.get("T", (0,), table)
                for key in range(6):
                    scanned = table.select(lambda row, key=key: row[0] == key)
                    assert dict(index.lookup((key,))) == dict(scanned.items()), (
                        f"trial {trial}: index diverged from full scan for key {key}"
                    )
                assert len(index) == len(table)


class TestComposedDrain:
    """The net-composition drain of a queued patch run: composing the
    queue must be indistinguishable from applying it sequentially,
    including ``Bag.patch`` flooring."""

    def test_composition_matches_sequential_floored_patches(self):
        rng = random.Random(42)
        values = ["a", "b", "c"]
        for trial in range(30):
            table = Bag([(key, value) for key in range(3) for value in values])
            sequential = IndexManager()
            composed = IndexManager()
            sequential.get("R", (0,), table)
            composed.get("R", (0,), table)
            for _ in range(rng.randrange(1, 8)):
                delete = Bag(
                    [
                        (rng.randrange(4), rng.choice(values))
                        for _ in range(rng.randrange(0, 4))
                    ]
                )
                insert = Bag(
                    [
                        (rng.randrange(4), rng.choice(values))
                        for _ in range(rng.randrange(0, 4))
                    ]
                )
                table = table.patch(delete, insert)
                # Sequential oracle: drain after *every* patch (tail of
                # length one, so composition is the identity).
                sequential.on_patch("R", delete, insert)
                sequential.get("R", (0,), table)
                # Composed: just enqueue; one drain at the end.
                composed.on_patch("R", delete, insert)
            expected = sequential.get("R", (0,), table)
            # Force the drain path (not a rebuild) to test composition.
            counter = CostCounter()
            actual = composed.get("R", (0,), table, counter=counter)
            for key in range(5):
                assert actual.lookup((key,)) == expected.lookup((key,)), f"trial {trial}"
            assert len(actual) == len(table)

    def test_over_delete_is_floored_like_bag_patch(self):
        manager = IndexManager()
        table = bag_of((1, "a"), (1, "a"), (2, "b"))
        manager.get("R", (0,), table)
        # Delete 5 copies of a row present twice, then re-insert one.
        delete, insert = Bag(counts={(1, "a"): 5}), bag_of((1, "a"))
        patched = table.patch(delete, insert)
        manager.on_patch("R", delete, insert)
        index = manager.get("R", (0,), patched)
        assert index.lookup((1,)) == {(1, "a"): 1}
        assert len(index) == len(patched)

    def test_empty_replace_keeps_index_warm(self):
        manager = IndexManager()
        log = bag_of((1, "a"), (2, "b"), (3, "c"))
        manager.get("L", (0,), log)
        # Refresh truncates the log by assignment of the empty bag...
        manager.on_replace("L", Bag.empty())
        # ...then the next round of transactions appends to it.
        appended = Bag.empty()
        counter = CostCounter()
        for row in [(4, "d"), (5, "e")]:
            delete, insert = Bag.empty(), bag_of(row)
            appended = appended.patch(delete, insert)
            manager.on_patch("L", delete, insert)
        index = manager.get("L", (0,), appended, counter=counter)
        # The cleared index stayed warm and current: the probe pays an
        # O(|net delta|) drain, never an O(|log|) rebuild.
        assert "index_build" not in counter.by_operator
        assert counter.by_operator["index_maint"] == 2
        assert index.lookup((4,)) == {(4, "d"): 1}
        assert index.lookup((1,)) == {}

    def test_unprobed_index_does_not_retain_the_write_history(self):
        # A registered index that is never probed (its view was dropped,
        # or its plan always picks the other side) used to queue every
        # patch forever and pay for the whole history on its first probe.
        from repro.algebra.expr import Literal
        from repro.storage.database import Database

        db = Database(exec_mode="compiled")
        db.create_table("R", ("k", "v"), rows=[(k, 0) for k in range(50)])
        schema = db.schema_of("R")
        db.indexes.get("R", (0,), db["R"])  # primed, as define_view would
        rng = random.Random(96)
        high_water = 0
        for step in range(5000):
            victim = rng.choice(sorted(db["R"].support))
            # Two copies go, two come: the table stays at 50 distinct rows.
            delete = Literal(bag_of(victim, victim), schema)
            insert = Literal(bag_of((victim[0], step), (victim[0], step)), schema)
            db.apply(patches={"R": (delete, insert)})
            high_water = max(high_water, db.indexes.pending_deltas("R"))
        # Bounded by the table (two distinct rows a patch, twice its
        # distinct rows at most), not by the 5 000-patch history.
        assert db["R"].distinct_count() == 50
        assert high_water <= 50
        counter = CostCounter()
        index = db.indexes.get("R", (0,), db["R"], counter=counter)
        assert index._buckets == HashIndex.build((0,), db["R"])._buckets
        # Catching up cost one rebuild of the table, not the history.
        assert counter.tuples_out == len(db["R"])
        assert db.indexes.pending_deltas("R") == 0


class TestE7RefreshCounters:
    """E7-shaped regression: with priming at install time, the composed
    drain, and the warm empty-replace path, a refresh after a round of
    log appends performs **zero** index rebuilds — upkeep is bounded by
    the net log content (``index_maint``), never the table sizes."""

    def test_refresh_pays_no_index_build(self):
        from repro.core.scenarios import BaseLogScenario
        from repro.sqlfront import sql_to_view
        from repro.storage.database import Database
        from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

        config = RetailConfig(customers=30, initial_sales=90, txn_inserts=5, seed=96)
        workload = RetailWorkload(config)
        db = Database(exec_mode="compiled")
        workload.setup_database(db)
        scenario = BaseLogScenario(db, sql_to_view(VIEW_SQL, db))
        scenario.install()

        def refresh_counters():
            before = dict(scenario.counter.by_operator)
            scenario.refresh()
            return {
                op: count - before.get(op, 0)
                for op, count in scenario.counter.by_operator.items()
                if count != before.get(op, 0)
            }

        for round_index in range(3):
            for txn in workload.transactions(db, 4):
                scenario.execute(txn)
            net_log_rows = sum(
                len(db[name]) for name in db.table_names() if "__log" in name
            )
            ops = refresh_counters()
            assert scenario.is_consistent()
            # Install-time priming built every index once; refreshes
            # never rebuild, and the deferred sync they pay is bounded
            # by what the transactions actually appended to the logs.
            assert "index_build" not in ops, f"round {round_index}: {ops}"
            assert ops.get("index_maint", 0) <= 2 * net_log_rows, f"round {round_index}: {ops}"
