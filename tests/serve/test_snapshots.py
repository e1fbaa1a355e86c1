"""Snapshot handles and the pin registry: lifecycle, GC, torn-read safety."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Literal
from repro.errors import SchemaError, UnknownTableError
from repro.robustness.journal import bag_digest
from repro.serve import SnapshotHandle, SnapshotRegistry
from repro.sqlfront.compiler import sql_to_expr
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase


def _db(rows=((1, 10), (2, 20))) -> Database:
    db = Database()
    db.create_table("t", ("a", "b"), rows=rows)
    return db


class TestSnapshotHandle:
    def test_table_is_frozen_against_later_writes(self):
        db = _db()
        registry = SnapshotRegistry()
        handle = registry.pin(db)
        before = bag_digest(handle.table("t"))
        db.load("t", [(3, 30)])
        assert bag_digest(handle.table("t")) == before
        assert bag_digest(db["t"]) != before

    def test_unknown_table_raises(self):
        registry = SnapshotRegistry()
        handle = registry.pin(_db())
        with pytest.raises(UnknownTableError):
            handle.table("nope")

    def test_version_and_names(self):
        db = _db()
        registry = SnapshotRegistry()
        handle = registry.pin(db)
        assert handle.table_names() == ("t",)
        assert handle.version_of("t") == db.version_of("t")
        assert handle.version_of("nope") == -1
        db.load("t", [(9, 90)])
        assert handle.version_of("t") != db.version_of("t")

    def test_evaluate_runs_against_pinned_state(self):
        db = _db()
        registry = SnapshotRegistry()
        handle = registry.pin(db)
        expr = db.ref("t")
        before = len(handle.evaluate(expr))
        db.load("t", [(3, 30)])
        assert len(handle.evaluate(expr)) == before
        assert len(db.evaluate(expr)) == before + 1

    def test_digest_and_total_rows(self):
        registry = SnapshotRegistry()
        handle = registry.pin(_db())
        assert handle.digest("t") == bag_digest(handle.table("t"))
        assert handle.total_rows() == 2

    def test_context_manager_releases(self):
        registry = SnapshotRegistry()
        with registry.pin(_db()) as handle:
            assert registry.pin_count(handle) == 1
        assert registry.pin_count(handle) == 0

    def test_release_is_idempotent_after_collection(self):
        registry = SnapshotRegistry()
        handle = registry.pin(_db())
        handle.release()
        handle.release()  # must not raise or corrupt counters
        assert registry.stats()["releases_total"] == 1


class TestSchemaDriftUnderAPin:
    """A query compiled against today's catalog must not read yesterday's rows.

    ``evaluate`` takes an expression built against *some* catalog; after
    ``DROP`` + ``CREATE`` under a live pin its positions no longer mean
    what they meant for the pinned rows.
    """

    def test_reordered_columns_are_refused_not_misread(self):
        db = _db()
        handle = SnapshotRegistry().pin(db)
        db.drop_table("t")
        db.create_table("t", ("b", "a"))
        query = sql_to_expr("SELECT b FROM t WHERE a = 1", db)
        with pytest.raises(SchemaError) as caught:
            handle.evaluate(query)  # was: Bag({}) out of pinned rows [(1, 10), (2, 20)]
        message = str(caught.value)
        assert "'t'" in message and "['a', 'b']" in message and "['b', 'a']" in message

    def test_widened_table_is_refused_with_a_coded_error(self):
        db = _db()
        handle = SnapshotRegistry().pin(db)
        db.drop_table("t")
        db.create_table("t", ("a", "b", "c"))
        with pytest.raises(SchemaError, match="'t'"):
            handle.evaluate(sql_to_expr("SELECT c FROM t WHERE a = 1", db))
        with pytest.raises(SchemaError, match="'t'"):
            handle.evaluate(sql_to_expr("SELECT c FROM t", db))

    def test_drift_anywhere_in_the_expression_is_refused(self):
        db = _db()
        db.create_table("u", ("a", "c"), rows=[(1, 7)])
        handle = SnapshotRegistry().pin(db)
        db.drop_table("u")
        db.create_table("u", ("c", "a"))
        query = sql_to_expr("SELECT t.b FROM t, u WHERE t.a = u.a", db)
        with pytest.raises(SchemaError, match="'u'"):
            handle.evaluate(query)

    def test_table_absent_from_the_cut_is_unknown(self):
        db = _db()
        handle = SnapshotRegistry().pin(db)
        db.create_table("later", ("x",), rows=[(1,)])
        with pytest.raises(UnknownTableError):
            handle.evaluate(db.ref("later"))
        # ...even where evaluation would short-circuit past it.
        db.create_table("nothing", ("y",))
        short_circuit = Literal(Bag(), db.schema_of("nothing")).product(db.ref("later"))
        assert evaluate(short_circuit, {}) == Bag()
        with pytest.raises(UnknownTableError):
            handle.evaluate(short_circuit)

    def test_same_schema_recreated_still_reads_the_pinned_rows(self):
        db = _db()
        handle = SnapshotRegistry().pin(db)
        db.drop_table("t")
        db.create_table("t", ("a", "b"), rows=[(1, 99)])
        query = sql_to_expr("SELECT b FROM t WHERE a = 1", db)
        assert handle.evaluate(query) == Bag([(10,)])
        assert db.evaluate(query) == Bag([(99,)])


class TestPinnedPlans:
    def test_handle_without_a_registry_evaluates_the_same_way(self):
        db = _db(rows=[(i % 5, i) for i in range(40)])
        shared = SnapshotRegistry().pin(db)
        alone = SnapshotHandle(1, *db.consistent_cut())
        for sql in ("SELECT b FROM t WHERE a = 3", "SELECT a FROM t WHERE b > 7", "SELECT * FROM t"):
            query = sql_to_expr(sql, db)
            counters = CostCounter(), CostCounter()
            expected = evaluate(query, {"t": db["t"]})
            assert shared.evaluate(query, counter=counters[0]) == expected
            assert alone.evaluate(query, counter=counters[1]) == expected
            # Same plan, same charges — except that the index the first
            # read built sits on the bag both cuts share.
            assert "index_build" not in counters[1].by_operator
            counters[0].by_operator.pop("index_build", None)
            assert counters[0].by_operator == counters[1].by_operator
        alone.release()  # no registry: a no-op

    def test_registry_refuses_a_second_database(self):
        """Plans carry version-stamped memos; stamps mean nothing across databases."""
        db = _db()
        registry = SnapshotRegistry()
        registry.pin(db)
        clone = db.clone()
        clone.load("t", [(3, 30)])
        db.load("t", [(4, 40)])
        assert clone.version_of("t") == db.version_of("t")  # equal stamps, different rows
        with pytest.raises(ValueError, match="one database"):
            registry.pin(clone)

    def test_pinned_evaluation_leaves_the_live_engine_alone(self):
        db = Database(exec_mode="compiled")
        db.create_table("t", ("a", "b"), rows=[(1, 10), (2, 20)])
        handle = SnapshotRegistry().pin(db)
        handle.evaluate(sql_to_expr("SELECT b FROM t WHERE a = 1", db))
        assert db.executor.cached_plans == 0
        assert db.indexes.indexes_on("t") == ()

    def test_reads_are_counted_by_access_path_when_telemetry_is_on(self):
        db = _db(rows=[(i % 5, i) for i in range(40)])
        registry = SnapshotRegistry()
        keyed = sql_to_expr("SELECT b FROM t WHERE a = 3", db)
        unkeyed = sql_to_expr("SELECT a FROM t WHERE b > 7", db)
        with obs.observed() as stack:
            first = registry.pin(db)
            second = registry.pin(db)  # same bag: shares the index
            for handle in (first, second, first):
                handle.evaluate(keyed)
            second.evaluate(unkeyed)
            schema = db.schema_of("t")
            db.apply(patches={"t": (Literal(Bag.empty(), schema), Literal(Bag([(3, 2000)]), schema))})
            registry.pin(db).evaluate(keyed)  # patched from an indexed version: inherits
            db.load("t", [(3, 1000)])
            registry.pin(db).evaluate(keyed)  # loaded wholesale: one more build
            counters = {
                name: metric["value"]
                for name, metric in stack.metrics.snapshot().items()
                if name.startswith("pinned_")
            }
        assert counters == {
            'pinned_reads{access="probe"}': 5,
            'pinned_reads{access="scan"}': 1,
            "pinned_index_builds": 2,
            "pinned_index_inherits": 1,
        }

    def test_a_wider_key_reuses_the_narrower_index_already_on_the_pinned_bag(self):
        db = _db(rows=[(i % 5, i % 3) for i in range(60)])
        with obs.observed() as stack:
            with SnapshotRegistry().pin(db) as handle:
                assert handle.evaluate(sql_to_expr("SELECT b FROM t WHERE a = 2", db)) == Bag([(2,), (0,), (1,)] * 4)
                both = sql_to_expr("SELECT a, b FROM t WHERE a = 2 AND b = 1", db)
                assert handle.evaluate(both) == evaluate(both, {"t": db["t"]}) == Bag([(2, 1)] * 4)
            # A version patched from that bag offers the narrower index to
            # inherit: the wider read's first use inherits it, builds nothing.
            schema = db.schema_of("t")
            db.apply(patches={"t": (Literal(Bag([(2, 1)]), schema), Literal(Bag([(2, 1), (2, 2)]), schema))})
            with SnapshotRegistry().pin(db) as handle:
                assert handle.evaluate(both) == evaluate(both, {"t": db["t"]}) == Bag([(2, 1)] * 4)
            metrics = stack.metrics.snapshot()
        assert metrics["pinned_index_builds"]["value"] == 1
        assert metrics["pinned_index_inherits"]["value"] == 1


class TestSnapshotRegistry:
    def test_refcount_collects_at_zero(self):
        db = _db()
        registry = SnapshotRegistry()
        handle = registry.pin(db)
        registry.repin(handle)
        assert registry.pin_count(handle) == 2
        handle.release()
        assert registry.live_count() == 1
        handle.release()
        assert registry.live_count() == 0
        assert registry.stats() == {
            "live": 0,
            "pins_total": 2,
            "releases_total": 2,
            "collected_total": 1,
        }

    def test_repin_collected_snapshot_rejected(self):
        registry = SnapshotRegistry()
        handle = registry.pin(_db())
        handle.release()
        with pytest.raises(ValueError):
            registry.repin(handle)

    def test_superseded_snapshots_survive_while_pinned(self):
        db = _db()
        registry = SnapshotRegistry()
        old = registry.pin(db)
        db.load("t", [(3, 30)])
        new = registry.pin(db)
        assert registry.live_count() == 2
        assert len(old.table("t")) == 2
        assert len(new.table("t")) == 3
        old.release()
        new.release()
        assert registry.live_count() == 0

    def test_retained_rows_counts_live_snapshots(self):
        db = _db()
        registry = SnapshotRegistry()
        handle = registry.pin(db)
        assert registry.retained_rows() == 2
        handle.release()
        assert registry.retained_rows() == 0


class TestConsistentCut:
    def test_cut_never_tears_a_multi_table_install(self):
        """Concurrent pins must see both tables of a txn or neither.

        The writer repeatedly applies a delta that keeps ``x`` and ``y``
        the same size; a torn cut (pinned between the two table
        installs) would show different sizes.
        """
        db = Database()
        db.create_table("x", ("a",), rows=[(0,)])
        db.create_table("y", ("a",), rows=[(0,)])
        registry = SnapshotRegistry()
        stop = threading.Event()
        torn: list[tuple[int, int]] = []

        def _insert(name: str, value: int):
            schema = db.schema_of(name)
            return (Literal(Bag.empty(), schema), Literal(Bag([(value,)]), schema))

        def _writer() -> None:
            value = 1
            while not stop.is_set():
                db.apply(patches={"x": _insert("x", value), "y": _insert("y", value)})
                value += 1

        def _pinner() -> None:
            while not stop.is_set():
                handle = registry.pin(db)
                sizes = (len(handle.table("x")), len(handle.table("y")))
                if sizes[0] != sizes[1]:
                    torn.append(sizes)
                handle.release()

        writer = threading.Thread(target=_writer, name="writer", daemon=True)
        pinners = [
            threading.Thread(target=_pinner, name=f"pinner-{i}", daemon=True)
            for i in range(3)
        ]
        writer.start()
        for pinner in pinners:
            pinner.start()
        import time

        time.sleep(0.25)
        stop.set()
        writer.join(timeout=5.0)
        for pinner in pinners:
            pinner.join(timeout=5.0)
        assert torn == []

    def test_cut_of_a_partitioned_database_holds_the_rows_its_stamps_describe(self):
        """A pin after ``apply_parts`` holds the rows its version stamps describe."""
        db = PartitionedDatabase()
        db.create_table("t", ("a", "b"), rows=[(i, i) for i in range(10)])
        db.declare_partitioning("t", "a", parts=4)
        db.apply_parts({"t": (Bag(), Bag([(100, 100)]))})
        handle = SnapshotRegistry().pin(db)
        assert handle.version_of("t") == db.version_of("t")
        assert (100, 100) in handle.table("t")  # was: the pre-patch bag under the post-patch stamp
        assert handle.evaluate(sql_to_expr("SELECT b FROM t WHERE a = 100", db)) == Bag([(100,)])

    def test_cut_during_a_partitioned_epoch_is_wholly_before_or_after_it(self):
        """``apply_parts`` commits the MV patch and the log clear under the
        commit mutex: a cut taken mid-commit waits for the whole epoch."""
        db = PartitionedDatabase()
        db.create_table("mv", ("a", "b"), rows=[(i, i) for i in range(10)])
        db.create_table("log", ("a", "b"), rows=[(100, 100)])
        db.declare_partitioning("mv", "a", parts=4)
        cuts: list = []
        threads: list[threading.Thread] = []

        class CutDuringPatch:
            def on_patch(self, name, delete, insert, before, after):
                thread = threading.Thread(target=lambda: cuts.append(db.consistent_cut()))
                threads.append(thread)
                thread.start()
                thread.join(timeout=0.5)

            def on_replace(self, name, bag):
                pass

            def on_drop(self, name):
                pass

        db.add_write_listener(CutDuringPatch())
        pre = {name: db.version_of(name) for name in ("mv", "log")}
        db.apply_parts({"mv": (Bag(), Bag([(100, 100)]))}, clears={"log": Bag.empty()})
        post = {name: db.version_of(name) for name in ("mv", "log")}
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(cuts) == 1
        tables, versions, _clock, _schemas = cuts[0]
        seen = {name: versions[name] for name in ("mv", "log")}
        assert seen in (pre, post)
        if seen == pre:
            assert (100, 100) not in tables["mv"] and len(tables["log"]) == 1
        else:
            assert (100, 100) in tables["mv"] and not tables["log"]

    def test_cut_matches_live_state_when_quiescent(self):
        db = _db()
        tables, versions, clock, schemas = db.consistent_cut()
        assert set(tables) == {"t"}
        assert schemas == {"t": db.schema_of("t")}
        assert bag_digest(tables["t"]) == bag_digest(db["t"])
        assert versions["t"] == db.version_of("t")
        assert clock >= versions["t"]
