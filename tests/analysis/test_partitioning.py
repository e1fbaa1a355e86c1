"""Static partition-pruning analysis and the RVM7xx lint diagnostics."""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.expr import KeyRestrict, Literal
from repro.analysis.lint import lint_view
from repro.analysis.partitioning import analyze_deltas, key_positions, prune_expr
from repro.core.differential import post_update_delta
from repro.core.logs import Log
from repro.errors import ReproError
from repro.sqlfront.compiler import sql_to_view
from repro.storage.partition import PartitionedDatabase

JOIN_SQL = "SELECT c.k, s.v FROM C c, S s WHERE c.k = s.k"
CROSS_SQL = "SELECT c.k, s.v FROM C c, S s WHERE c.k != s.k"
SINGLE_SQL = "SELECT k, v FROM S"


def make_db(*, c_parts=4, s_parts=4):
    db = PartitionedDatabase()
    db.create_table("C", ["k", "name"], rows=[(i, f"n{i}") for i in range(6)])
    db.create_table("S", ["k", "v"], rows=[(i % 6, f"v{i}") for i in range(12)])
    db.declare_partitioning("C", "k", parts=c_parts, domain="k")
    db.declare_partitioning("S", "k", parts=s_parts, domain="k")
    return db


def deltas_for(db, sql):
    view = sql_to_view(sql, db, name="V")
    base = sorted(view.base_tables())
    log = Log(db, base, owner="__test__")
    log.install()
    specs = {t: db.partition_spec(t) for t in base}
    log_map = {}
    for t in base:
        log_map[log.delete_ref(t).name] = t
        log_map[log.insert_ref(t).name] = t
    return view, log, specs, log_map, post_update_delta(log, view.query)


class TestAnalyzeDeltas:
    def test_equijoin_is_prunable(self):
        db = make_db()
        _, _, specs, log_map, deltas = deltas_for(db, JOIN_SQL)
        plan = analyze_deltas(deltas, specs, log_map)
        assert plan.prunable
        assert plan.fallbacks == ()
        assert plan.domains == ("k",)

    def test_non_equijoin_falls_back(self):
        db = make_db()
        _, _, specs, log_map, deltas = deltas_for(db, CROSS_SQL)
        plan = analyze_deltas(deltas, specs, log_map)
        assert not plan.prunable
        assert plan.fallbacks  # at least one table referenced whole

    def test_single_table_view_is_vacuously_prunable(self):
        # The deltas are log-only (delta-proportional already): nothing
        # to restrict, nothing falling back — partition-at-a-time apply
        # is sound.
        db = make_db()
        _, _, specs, log_map, deltas = deltas_for(db, SINGLE_SQL)
        specs = {"S": specs["S"]}
        plan = analyze_deltas(deltas, specs, log_map)
        assert plan.prunable

    def test_layout_drift_reported(self):
        db = make_db(c_parts=4, s_parts=8)
        _, _, specs, log_map, deltas = deltas_for(db, JOIN_SQL)
        plan = analyze_deltas(deltas, specs, log_map)
        assert ("C", "S") in plan.mismatched

    #: view -> (prunable, prunes, fallbacks) of its pruned pair.
    PRUNES = {
        JOIN_SQL: (True, 4, ()),
        SINGLE_SQL: (True, 0, ()),
        CROSS_SQL: (False, 0, ("C", "S")),
        "SELECT c.name, s.v FROM C c, S s WHERE c.k = s.k AND s.v != 'x'": (True, 4, ()),
        "SELECT a.k, b.v FROM S a, S b WHERE a.k = b.k": (True, 4, ()),
        "SELECT DISTINCT c.k FROM C c, S s WHERE c.k = s.k": (False, 8, ("C", "S")),
    }

    @pytest.mark.parametrize("sql", sorted(PRUNES))
    def test_log_leaves_stay_whole_and_prunes_are_unchanged(self, sql):
        # Only base tables are restricted: a log is delta-sized already,
        # so the pruned pair reads it whole.  Which base references prune
        # does not depend on that.
        db = make_db()
        _, _, specs, log_map, deltas = deltas_for(db, sql)
        plan = analyze_deltas(deltas, specs, log_map)
        restricted = {
            node.child.name for delta in plan.deltas for node in delta.walk() if isinstance(node, KeyRestrict)
        }
        assert not restricted & set(log_map)
        assert restricted <= set(specs)
        assert (plan.prunable, plan.prunes, plan.fallbacks) == self.PRUNES[sql]


class TestPruneExpr:
    def test_restricted_literals_substituted(self):
        # Since pruning became a plan-time property the substitute is a
        # key-restricted leaf, not a literal holding one epoch's rows.
        db = make_db()
        _, log, specs, log_map, (delete, insert) = deltas_for(db, JOIN_SQL)
        result = prune_expr(insert, specs, log_map)
        assert not result.fallbacks
        assert result.prunes > 0
        leaves = [node for node in result.expr.walk() if isinstance(node, KeyRestrict)]
        assert {leaf.child.name for leaf in leaves} == {"C", "S"}
        assert all(leaf.domain == "k" and leaf.position == 0 for leaf in leaves)
        assert not any(isinstance(node, Literal) for node in result.expr.walk())
        # The leaf means nothing without a binding: it fails closed.
        db.set_table(log.insert_ref("C").name, Bag([(1, "n1")]))
        with pytest.raises(ReproError, match="key binding"):
            db.evaluate(result.expr)

    def test_analyze_deltas_returns_the_plan_every_epoch_runs(self):
        db = make_db()
        _, _, specs, log_map, deltas = deltas_for(db, JOIN_SQL)
        plan = analyze_deltas(deltas, specs, log_map)
        assert len(plan.deltas) == 2 and plan.prunes == 4
        leaves = [node for delta in plan.deltas for node in delta.walk() if isinstance(node, KeyRestrict)]
        assert {leaf.child.name for leaf in leaves} == {"C", "S"}


class TestKeyPositions:
    def test_join_output_carries_key(self):
        db = make_db()
        view = sql_to_view(JOIN_SQL, db, name="V")
        specs = {t: db.partition_spec(t) for t in ("C", "S")}
        assert key_positions(view.query, specs) == {0: "k"}

    def test_projected_out_key_not_reported(self):
        db = make_db()
        view = sql_to_view("SELECT s.v FROM S s", db, name="V")
        assert key_positions(view.query, {"S": db.partition_spec("S")}) == {}


class TestPartitionLint:
    def test_clean_view_has_no_rvm7xx(self):
        db = make_db()
        view = sql_to_view(JOIN_SQL, db, name="V")
        report = lint_view(view, db, properties=False)
        codes = {d.code for d in report.errors + report.warnings}
        assert "RVM701" not in codes and "RVM702" not in codes

    def test_unprunable_view_warns_rvm701(self):
        db = make_db()
        view = sql_to_view(CROSS_SQL, db, name="V")
        report = lint_view(view, db, properties=False)
        assert "RVM701" in {d.code for d in report.warnings}

    def test_layout_drift_warns_rvm702(self):
        db = make_db(c_parts=4, s_parts=8)
        view = sql_to_view(JOIN_SQL, db, name="V")
        report = lint_view(view, db, properties=False)
        assert "RVM702" in {d.code for d in report.warnings}

    def test_unpartitioned_database_is_silent(self):
        from repro.storage.database import Database

        db = Database()
        db.create_table("S", ["k", "v"], rows=[(1, "a")])
        view = sql_to_view(SINGLE_SQL, db, name="V")
        report = lint_view(view, db, properties=False)
        codes = {d.code for d in report.errors + report.warnings}
        assert not codes & {"RVM701", "RVM702"}
