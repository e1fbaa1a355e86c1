"""Unit tests for incrementally-maintained hash indexes.

Includes the randomized ``Bag.patch`` / index consistency check: after
any sequence of patch-driven writes, an index lookup must return exactly
what a full-scan selection over the table returns.
"""

import random

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Literal
from repro.exec.indexes import HashIndex, IndexManager
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.storage.database import Database


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

    def test_on_patch_maintains_every_index_at_write_time(self):
        manager = IndexManager()
        bag = bag_of((1, "a"), (2, "b"))
        by_key = manager.get("R", (0,), bag)
        by_val = manager.get("R", (1,), bag)
        counter = CostCounter()
        manager.on_patch("R", bag_of((1, "a")), bag_of((1, "z")), counter=counter)
        # The write pays: one (delete, insert) pair of one row each, on
        # both indexes — O(|delta|) per index, charged to the writer.
        assert counter.by_operator == {"index_maint": 4}
        assert by_key.lookup((1,)) == {(1, "z"): 1}
        assert by_val.lookup(("a",)) == {}
        assert by_val.lookup(("z",)) == {(1, "z"): 1}
        # A probe afterwards finds them current and pays nothing.
        probe = CostCounter()
        patched = bag.patch(bag_of((1, "a")), bag_of((1, "z")))
        assert manager.get("R", (0,), patched, counter=probe) is by_key
        assert probe.tuples_out == 0

    def test_on_patch_without_indexes_is_free(self):
        manager = IndexManager()
        counter = CostCounter()
        manager.on_patch("unindexed", bag_of((1,)), bag_of((2,)), counter=counter)
        # A patch of an unindexed table records nothing: no charge, no
        # registration, nothing for a later probe to catch up on.
        assert counter.tuples_out == 0
        assert counter.by_operator == {}
        assert manager.indexes_on("unindexed") == ()
        assert manager.covering("unindexed", (0,)) is None

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
        # Each pair was applied as it was written; the probe finds the
        # index back where it started and pays nothing.
        assert "index_build" not in counter.by_operator
        assert "index_maint" not in counter.by_operator
        assert index.lookup((1,)) == {(1, "a"): 1}
        assert index.lookup((2,)) == {}

    def test_on_replace_rebuilds_from_the_new_bag(self):
        manager = IndexManager()
        index = manager.get("R", (0,), bag_of((1, "a")))
        replaced = bag_of((5, "e"), (5, "f"))
        counter = CostCounter()
        manager.on_replace("R", replaced, counter=counter)
        # The assignment pays the rebuild; the next probe pays nothing.
        assert counter.by_operator == {"index_build": 2}
        probe = CostCounter()
        rebuilt = manager.get("R", (0,), replaced, counter=probe)
        assert probe.tuples_out == 0
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
    """Every full build of a live index says why, when telemetry is on:
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

    def test_replace(self):
        manager = IndexManager()
        manager.get("R", (0,), bag_of((1, "a")))
        replaced = bag_of((5, "e"), (6, "f"), (7, "g"))
        with obs.observed() as stack:
            manager.on_replace("R", replaced)
            manager.get("R", (0,), replaced)  # current already: no build
            manager.on_replace("R", Bag.empty())  # truncation builds nothing
        assert self.builds(stack) == [{"table": "R", "rows": 3, "reason": "replace"}]
        assert self.counted(stack, "replace") == 1

    def test_counted_only_when_telemetry_is_on(self):
        manager = IndexManager()
        with obs.observed(tracer=False, metrics=False, accounting=False, sanitizer=True) as stack:
            manager.get("R", (0,), bag_of((1,)))
        assert stack.metrics.snapshot() == {}



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
                # The write kept the index current: it must agree with a
                # full scan of the current table value.
                index = manager.get("T", (0,), table)
                for key in range(6):
                    scanned = table.select(lambda row, key=key: row[0] == key)
                    assert dict(index.lookup((key,))) == dict(scanned.items()), (
                        f"trial {trial}: index diverged from full scan for key {key}"
                    )
                assert len(index) == len(table)


class TestComposedDrain:
    """A run of patches leaves the same index whether it is probed after
    every patch or only once at the end, ``Bag.patch`` flooring
    included: upkeep happens in the write, never in the probe."""

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
                # Probed after *every* patch ...
                sequential.on_patch("R", delete, insert)
                sequential.get("R", (0,), table)
                # ... or only once, at the end.
                composed.on_patch("R", delete, insert)
            expected = sequential.get("R", (0,), table)
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
        index = manager.get("L", (0,), log)
        # Refresh truncates the log by assignment of the empty bag: the
        # index stays registered, empty, and costs nothing to clear.
        truncate = CostCounter()
        manager.on_replace("L", Bag.empty(), counter=truncate)
        assert truncate.tuples_out == 0
        (cleared,) = manager.indexes_on("L")
        assert cleared.positions == index.positions
        assert cleared.bucket_count() == 0 and len(cleared) == 0
        # ...then the next round of transactions appends to it, each
        # append paying its own O(|delta|) upkeep.
        appended = Bag.empty()
        counter = CostCounter()
        for row in [(4, "d"), (5, "e")]:
            delete, insert = Bag.empty(), bag_of(row)
            appended = appended.patch(delete, insert)
            manager.on_patch("L", delete, insert, counter=counter)
        assert counter.by_operator == {"index_maint": 2}
        probe = CostCounter()
        index = manager.get("L", (0,), appended, counter=probe)
        assert probe.tuples_out == 0
        assert index.lookup((4,)) == {(4, "d"): 1}
        assert index.lookup((1,)) == {}


class TestFailedInstall:
    """A write that fails inside ``Database._install`` leaves every index
    of its targets equal to a fresh build of the restored table."""

    @staticmethod
    def database():
        db = Database(exec_mode="compiled")
        db.create_table("R", ("k", "v"), rows=[(k % 3, k) for k in range(9)])
        db.create_table("S", ("k", "v"), rows=[(k, -k) for k in range(4)])
        for name in ("R", "S"):
            db.indexes.get(name, (0,), db[name])
            db.indexes.get(name, (1,), db[name])
        return db

    @staticmethod
    def patches(db):
        return {
            name: (
                Literal(bag_of(next(iter(db[name].support))), db.schema_of(name)),
                Literal(bag_of((7, 70), (8, 80)), db.schema_of(name)),
            )
            for name in ("R", "S")
        }

    @staticmethod
    def assert_fresh(db, before):
        assert db.snapshot() == before
        for name in ("R", "S"):
            for index in db.indexes.indexes_on(name):
                assert index._buckets == HashIndex.build(index.positions, db[name])._buckets, name

    def test_crash_after_one_table_is_patched(self):
        db = self.database()
        before = db.snapshot()
        INJECTOR.reset()
        INJECTOR.arm("crash-mid-apply", hit=2)
        try:
            with pytest.raises(InjectedCrash):
                db.apply(patches=self.patches(db))
        finally:
            INJECTOR.reset()
        self.assert_fresh(db, before)

    def test_upkeep_failing_halfway_through_a_table(self, monkeypatch):
        db = self.database()
        before = db.snapshot()
        patches = self.patches(db)
        apply_delta = HashIndex.apply_delta
        calls = []

        def fails_on_second(index, delete, insert):
            calls.append(index)
            apply_delta(index, delete, insert)  # the first index is patched
            if len(calls) == 2:
                raise RuntimeError("index upkeep failed")

        monkeypatch.setattr(HashIndex, "apply_delta", fails_on_second)
        with pytest.raises(RuntimeError, match="index upkeep failed"):
            db.apply(patches=patches)
        monkeypatch.undo()
        self.assert_fresh(db, before)


class TestE7RefreshCounters:
    """E7-shaped regression: with priming at install time and the warm
    empty-replace path, a refresh after a round of log appends performs
    **zero** index rebuilds — its own upkeep is bounded by what it
    writes (``index_maint``), never the table sizes."""

    def test_refresh_pays_no_index_build(self):
        from repro.core.scenarios import BaseLogScenario
        from repro.sqlfront import sql_to_view
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
            # never rebuild, and the upkeep they pay is bounded by what
            # the transactions actually appended to the logs.
            assert "index_build" not in ops, f"round {round_index}: {ops}"
            assert ops.get("index_maint", 0) <= 2 * net_log_rows, f"round {round_index}: {ops}"
