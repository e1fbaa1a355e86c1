"""Plan cache and version-stamped cross-call memoization tests."""

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Literal
from repro.algebra.predicates import Attr, Comparison, Const
from repro.errors import ReproError
from repro.exec import COMPILED, INTERPRETED, SQLITE, Executor, resolve_exec_mode
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database(exec_mode="compiled")
    database.create_table("R", ["a", "b"], rows=[(1, 10), (2, 20), (3, 30)])
    database.create_table("S", ["c"], rows=[(1,), (3,)])
    return database


def delta(rows, schema):
    return Literal(Bag(rows), schema)


class TestModeResolution:
    def test_aliases(self):
        assert resolve_exec_mode(None) == COMPILED
        assert resolve_exec_mode("Compiled") == COMPILED
        assert resolve_exec_mode(" Interpreted ") == INTERPRETED
        assert resolve_exec_mode("SQLITE") == SQLITE

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            resolve_exec_mode("quantum")

    def test_the_deleted_tiers_name_selects_the_compiled_plans(self):
        # bench/pipeline's engine grid and saved REPRO_EXEC settings still
        # pass the name; its other spellings went with the tier.
        assert resolve_exec_mode("vectorized") == COMPILED
        assert type(Database(exec_mode="vectorized").executor) is Executor
        for spelling in ("columnar", "batch", "vector"):
            with pytest.raises(ReproError, match="unknown execution mode"):
                resolve_exec_mode(spelling)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "interpreted")
        assert Database().exec_mode == INTERPRETED
        monkeypatch.delenv("REPRO_EXEC")
        assert Database().exec_mode == COMPILED


class TestPlanCache:
    def test_hits_and_misses(self, db):
        expr = db.ref("R").project(["a"])
        counter = CostCounter()
        db.evaluate(expr, counter=counter)
        db.evaluate(expr, counter=counter)
        db.evaluate(expr, counter=counter)
        assert counter.plan_misses == 1
        assert counter.plan_hits == 2

    def test_structurally_equal_exprs_share_one_plan(self, db):
        counter = CostCounter()
        db.evaluate(db.ref("R").project(["a"]), counter=counter)
        db.evaluate(db.ref("R").project(["a"]), counter=counter)
        assert (counter.plan_misses, counter.plan_hits) == (1, 1)

    @pytest.mark.parametrize("mode", [COMPILED])
    def test_a_bare_literal_is_not_a_compile(self, mode):
        """A script's rows evaluated on their own have nothing to lower:
        no miss, no trip through the compiler — yet one memo with the
        same literal held as an operand, so it is charged once."""
        db = Database(exec_mode=mode)
        db.create_table("R", ["a", "b"], rows=[(1, 10), (2, 20)])
        rows = delta([(1, 10), (7, 70)], db.schema_of("R"))
        counter = CostCounter()
        assert db.evaluate(rows, counter=counter) == rows.bag
        assert (counter.plan_misses, counter.plan_hits) == (0, 0)
        assert counter.by_operator == {"literal": 2}
        # As an operand of the same transaction's log extension:
        db.evaluate(rows.monus(db.ref("R")), counter=counter)
        assert counter.plan_misses == 1
        assert counter.by_operator["literal"] == 2
        db.evaluate(rows, counter=counter)
        assert (counter.plan_misses, counter.plan_hits) == (1, 1)
        assert counter.by_operator["literal"] == 2


    def test_a_full_table_is_cleared_wholesale_and_counted(self, monkeypatch):
        db = Database(exec_mode=COMPILED)
        db.create_table("R", ["a", "b"], rows=[(1, 10), (2, 20)])
        monkeypatch.setattr(Executor, "MAX_NODES", 1)
        with obs.observed() as stack:
            for columns in (["a"], ["b"], ["b", "a"]):  # three shapes: the third overflows
                db.evaluate(db.ref("R").project(columns))
        assert stack.metrics.snapshot()["plan_table_clears"]["value"] >= 1
        assert db.executor.cached_plans <= 2


class TestVersionStampedMemo:
    def test_result_reused_until_table_changes(self, db):
        expr = db.ref("R").project(["a"])
        counter = CostCounter()
        first = db.evaluate(expr, counter=counter)
        tuples_after_first = counter.tuples_out
        second = db.evaluate(expr, counter=counter)
        assert second is first  # memo hit: same object, no recompute
        assert counter.tuples_out == tuples_after_first
        assert counter.memo_hits == 1

    def test_patch_invalidates(self, db):
        expr = db.ref("R").project(["a"])
        schema = db.schema_of("R")
        stale = db.evaluate(expr)
        db.apply(patches={"R": (delta([], schema), delta([(9, 90)], schema))})
        fresh = db.evaluate(expr)
        assert fresh != stale
        assert fresh == Bag([(1,), (2,), (3,), (9,)])

    def test_set_table_invalidates(self, db):
        expr = db.ref("S").project(["c"])
        db.evaluate(expr)
        db.set_table("S", Bag([(42,)]))
        assert db.evaluate(expr) == Bag([(42,)])

    def test_restore_invalidates(self, db):
        expr = db.ref("R").project(["a"])
        snap = db.snapshot()
        db.set_table("R", Bag([(7, 70)]))
        assert db.evaluate(expr) == Bag([(7,)])
        db.restore(snap)
        assert db.evaluate(expr) == Bag([(1,), (2,), (3,)])

    def test_unrelated_write_keeps_memo(self, db):
        expr = db.ref("R").project(["a"])
        counter = CostCounter()
        db.evaluate(expr, counter=counter)
        db.set_table("S", Bag([(5,)]))  # R untouched
        db.evaluate(expr, counter=counter)
        assert counter.memo_hits == 1

    def test_drop_and_recreate_invalidates(self, db):
        expr = db.ref("S")
        assert db.evaluate(expr) == Bag([(1,), (3,)])
        db.drop_table("S")
        db.create_table("S", ["c"], rows=[(99,)])
        assert db.evaluate(expr) == Bag([(99,)])

    def test_memo_shared_across_structurally_equal_subtrees(self, db):
        shared = db.ref("R").where(Comparison(">", Attr("b"), Const(15)))
        combined = shared.union_all(shared)
        counter = CostCounter()
        db.evaluate(shared, counter=counter)
        db.evaluate(combined, counter=counter)
        # The union's two children resolve to the already-memoized node.
        assert counter.memo_hits >= 1


class TestIndexMaintenanceThroughWrites:
    def test_patch_written_through_to_index(self, db):
        expr = db.ref("R").where(Comparison("=", Attr("a"), Const(2)))
        schema = db.schema_of("R")
        assert db.evaluate(expr) == Bag([(2, 20)])
        index = db.indexes.indexes_on("R")[0]
        db.apply(patches={"R": (delta([(2, 20)], schema), delta([(2, 99)], schema))})
        assert db.indexes.indexes_on("R")[0] is index  # maintained, not rebuilt
        assert db.evaluate(expr) == Bag([(2, 99)])

    def test_assignment_rebuilds_index(self, db):
        expr = db.ref("R").where(Comparison("=", Attr("a"), Const(1)))
        db.evaluate(expr)
        db.apply({"R": delta([(1, 5), (1, 5)], db.schema_of("R"))})
        assert db.evaluate(expr) == Bag([(1, 5), (1, 5)])


class TestClone:
    def test_clone_keeps_mode_and_diverges_cleanly(self, db):
        expr = db.ref("R").project(["a"])
        db.evaluate(expr)
        clone = db.clone()
        assert clone.exec_mode == COMPILED
        db.set_table("R", Bag([(8, 80)]))
        assert clone.evaluate(expr) == Bag([(1,), (2,), (3,)])
        assert db.evaluate(expr) == Bag([(8,)])
