"""The SQLite pushdown engine (``exec_mode="sqlite"``).

Covers the pieces the oracle grid cannot see: structural pushability
verdicts and their bounded memo, per-subtree fallback around
non-pushable nodes onto the compiled plans, the
MirrorUnsupported escape hatch for values SQLite cannot round-trip,
statements nested too deep for SQLite's parser,
incremental (UPSERT-canonical) mirror maintenance including NULL rows
and over-deletes, adoption of initially-empty tables, and the
version-stamped result memo.
"""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import DupElim, Literal, Monus, Project, UnionAll, join
from repro.algebra.predicates import Attr, Comparison, Const
from repro.algebra.schema import Schema
from repro.exec.pushdown import PushdownExecutor
from repro.robustness.journal import bag_digest
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database(exec_mode="sqlite")
    database.create_table("R", ["a", "b"], rows=[(1, 10), (2, 20), (3, 30), (1, 10)])
    database.create_table("S", ["c"], rows=[(1,), (3,), (3,)])
    return database


def oracle_for(db):
    other = Database(exec_mode="interpreted")
    for name in db.external_tables():
        other.create_table(name, db.schema_of(name).attributes, rows=[])
        other.set_table(name, db[name])
    return other


def delta(rows, schema):
    return Literal(Bag(rows), schema)


JOIN_EXPR = None  # built per-db in tests (TableRefs carry schemas)


def join_expr(db):
    return join(
        db.ref("R").where(Comparison(">", Attr("b"), Const(5))),
        db.ref("S"),
        on=Comparison("=", Attr("a"), Attr("c")),
    ).project(["a", "b"])


class TestPushability:
    def test_database_dispatches_pushdown(self, db):
        assert isinstance(db.executor, PushdownExecutor)

    def test_join_tree_is_pushable(self, db):
        assert db.executor._is_pushable(join_expr(db))

    def test_zero_arity_projection_is_not_pushable(self, db):
        expr = Project((), db.ref("S"), ())
        assert not db.executor._is_pushable(expr)

    def test_literal_with_unrepresentable_value_is_not_pushable(self, db):
        literal = Literal(Bag([((1, 2),)]), Schema(("x",)))
        assert not db.executor._is_pushable(literal)

    def test_pushed_join_matches_interpreted_and_counts(self, db):
        counter = CostCounter()
        expr = join_expr(db)
        result = db.evaluate(expr, counter=counter)
        assert result == oracle_for(db).evaluate(expr)
        assert counter.by_operator.get("pushdown", 0) > 0

    def test_every_per_expression_cache_has_the_same_ceiling(self, db, monkeypatch):
        # Per-transaction literals are distinct every time: a cache keyed
        # by expression with no ceiling grows with the workload's length.
        monkeypatch.setattr(PushdownExecutor, "MAX_NODES", 32)
        executor = db.executor
        schema = db.schema_of("S")
        for value in range(200):
            db.evaluate(UnionAll(db.ref("S"), delta([(value,)], schema)))
        for cache in (executor._pushable_memo, executor._sql_cache, executor._result_memo):
            assert len(cache) <= PushdownExecutor.MAX_NODES + 1


class TestFallback:
    def test_unpushable_top_runs_as_a_compiled_plan_over_the_sql_result(self, db):
        # SQL has no zero-column rows: the join below is one statement, the
        # empty projection above it is ``PNode.execute`` over its result.
        expr = Project((), join_expr(db), ())
        assert not db.executor._is_pushable(expr)
        assert db.executor._is_pushable(expr.child)
        counter = CostCounter()
        result = db.evaluate(expr, counter=counter)
        oracle = oracle_for(db)
        assert bag_digest(result) == bag_digest(oracle.evaluate(Project((), join_expr(oracle), ())))
        assert len(result) > 0
        assert counter.by_operator.get("pushdown", 0) > 0
        assert counter.by_operator.get("project", 0) > 0

    def test_maximal_subtrees_pushed_around_blocker(self, db):
        # The union's right leg holds a value SQLite cannot store, so the
        # top of the tree runs as a compiled plan — with the left leg still
        # evaluated in SQL and substituted back as a literal.
        blocked = Literal(Bag([((1, 2), 0)]), Schema(("a", "b")))
        expr = UnionAll(join_expr(db).project(["a", "b"]), blocked)
        counter = CostCounter()
        result = db.evaluate(expr, counter=counter)
        oracle = oracle_for(db)
        assert result == oracle.evaluate(UnionAll(join_expr(oracle), blocked))
        assert counter.by_operator.get("pushdown", 0) > 0

    def test_statement_too_deep_for_the_sqlite_parser_is_pushed_a_level_down(self, db):
        # Each ⊎ nests its right leg one subquery deeper; SQLite's parser
        # stack gives out after about a dozen levels.
        schema = db.schema_of("S")
        expr = db.ref("S")
        for value in range(40):
            expr = UnionAll(delta([(value,)], schema), expr)
        counter = CostCounter()
        assert db.evaluate(expr, counter=counter) == oracle_for(db).evaluate(expr)
        assert not db.executor._is_pushable(expr)
        assert counter.by_operator.get("pushdown", 0) > 0
        assert counter.by_operator.get("union_all", 0) > 0

    def test_table_with_unrepresentable_values_falls_back(self, db):
        db.create_table("T", ["x"], rows=[((1, 2),), ((3, 4),)])
        expr = DupElim(db.ref("T"))
        assert db.evaluate(expr) == Bag([((1, 2),), ((3, 4),)])
        assert not db.executor.mirror.is_mirrored("T")

    def test_unrepresentable_patch_unmirrors_table(self, db):
        expr = DupElim(db.ref("S"))
        db.evaluate(expr)
        assert db.executor.mirror.is_mirrored("S")
        schema = db.schema_of("S")
        db.apply(patches={"S": (delta([], schema), delta([((9, 9),)], schema))})
        assert not db.executor.mirror.is_mirrored("S")
        # Still correct, just no longer pushed for this table.
        assert db.evaluate(expr) == Bag([(1,), (3,), ((9, 9),)])


class TestMirrorMaintenance:
    def test_patch_is_incremental_not_reload(self, db):
        mirror = db.executor.mirror
        expr = DupElim(db.ref("R"))
        db.evaluate(expr)
        schema = db.schema_of("R")
        db.apply(patches={"R": (delta([], schema), delta([(4, 40)], schema))})
        # The mirror absorbed the delta without waiting for the next scan.
        assert mirror.physical_rows("R") == 4
        assert db.evaluate(expr) == Bag([(1, 10), (2, 20), (3, 30), (4, 40)])

    def test_mirror_stays_canonical_under_duplicate_churn(self, db):
        mirror = db.executor.mirror
        expr = DupElim(db.ref("R"))
        db.evaluate(expr)
        schema = db.schema_of("R")
        for __ in range(5):
            db.apply(patches={"R": (delta([], schema), delta([(1, 10), (1, 10)], schema))})
        # One physical row per distinct value tuple, whatever the churn.
        assert mirror.physical_rows("R") == db["R"].distinct_count()
        assert db.evaluate(expr) == Bag([(1, 10), (2, 20), (3, 30)])

    def test_over_delete_clamps_like_bag_patch(self, db):
        expr = DupElim(db.ref("R"))
        db.evaluate(expr)
        schema = db.schema_of("R")
        delete = Bag(counts={(1, 10): 99, (7, 70): 1})
        before = db["R"]
        db.apply(patches={"R": (Literal(delete, schema), delta([(5, 50)], schema))})
        assert db["R"] == before.patch(delete, Bag([(5, 50)]))
        assert db.evaluate(expr) == Bag([(2, 20), (3, 30), (5, 50)])
        assert db.executor.mirror.physical_rows("R") == db["R"].distinct_count()

    def test_null_rows_take_the_manual_path(self, db):
        db.create_table("N", ["x", "y"], rows=[(None, 1), (None, 1), (2, None)])
        expr = DupElim(db.ref("N"))
        assert db.evaluate(expr) == Bag([(None, 1), (2, None)])
        schema = db.schema_of("N")
        db.apply(patches={"N": (delta([(None, 1)], schema), delta([(None, 3)], schema))})
        assert db.evaluate(expr) == Bag([(None, 1), (2, None), (None, 3)])
        assert db.executor.mirror.physical_rows("N") == db["N"].distinct_count()

    def test_replace_with_empty_bag_truncates_in_place(self, db):
        mirror = db.executor.mirror
        db.evaluate(DupElim(db.ref("S")))
        db.set_table("S", Bag.empty())
        assert mirror.is_mirrored("S")
        assert mirror.physical_rows("S") == 0
        assert db.evaluate(DupElim(db.ref("S"))) == Bag.empty()

    def test_initially_empty_table_adopted_at_first_write(self, db):
        db.create_table("L", ["x"], rows=[])
        mirror = db.executor.mirror
        schema = db.schema_of("L")
        db.apply(patches={"L": (delta([], schema), delta([(1,), (2,)], schema))})
        # Adopted for free at the first patch: no reload needed later.
        assert mirror.is_mirrored("L")
        assert mirror.physical_rows("L") == 2
        assert db.evaluate(DupElim(db.ref("L"))) == Bag([(1,), (2,)])


class TestResultMemo:
    def test_unchanged_expression_hits_memo(self, db):
        expr = join_expr(db)
        counter = CostCounter()
        first = db.evaluate(expr, counter=counter)
        second = db.evaluate(expr, counter=counter)
        assert second is first
        assert counter.memo_hits >= 1

    def test_write_invalidates_memo(self, db):
        expr = DupElim(db.ref("S"))
        db.evaluate(expr)
        schema = db.schema_of("S")
        db.apply(patches={"S": (delta([], schema), delta([(7,)], schema))})
        assert db.evaluate(expr) == Bag([(1,), (3,), (7,)])

    def test_sql_plan_cache_reused_across_versions(self, db):
        expr = join_expr(db)
        counter = CostCounter()
        db.evaluate(expr, counter=counter)
        schema = db.schema_of("S")
        db.apply(patches={"S": (delta([], schema), delta([(2,)], schema))})
        db.evaluate(expr, counter=counter)
        assert counter.plan_hits >= 1


class TestMonusPushdown:
    def test_monus_clamps_multiplicities(self, db):
        schema = db.schema_of("S")
        left = Literal(Bag(counts={(1,): 2, (2,): 1}), schema)
        right = Literal(Bag(counts={(1,): 5, (3,): 1}), schema)
        assert db.evaluate(Monus(left, right)) == Bag([(2,)])

    def test_monus_over_tables_matches_interpreted(self, db):
        expr = Monus(db.ref("S"), DupElim(db.ref("S")))
        assert db.evaluate(expr) == oracle_for(db).evaluate(expr)
