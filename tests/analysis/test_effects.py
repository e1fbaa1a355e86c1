"""Effect-set inference: footprints, plan effects, scenario protocols."""

import sqlite3

import pytest

from repro.analysis.effects import (
    REFRESH_OPS,
    EffectSet,
    OpEffects,
    Step,
    plan_effects,
    read_footprint,
)
from repro.core.naming import agg_name, mv_name
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
)
from repro.sqlfront import sql_to_view
from repro.storage.database import Database

VIEW_SQL = "CREATE VIEW {name} (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b"


def make_db(exec_mode="compiled"):
    db = Database(exec_mode=exec_mode)
    db.create_table("R", ["a", "b"], rows=[(1, 1), (1, 2), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    return db


def install(scenario_cls, exec_mode="compiled"):
    db = make_db(exec_mode)
    scenario = scenario_cls(db, sql_to_view(VIEW_SQL.format(name="V"), db))
    scenario.install()
    return scenario


class TestEffectSet:
    def test_union(self):
        a = EffectSet(reads=frozenset({"R"}), writes=frozenset({"X"}))
        b = EffectSet(reads=frozenset({"S"}), writes=frozenset({"X", "Y"}))
        merged = a | b
        assert merged.reads == {"R", "S"}
        assert merged.writes == {"X", "Y"}

    def test_covers(self):
        wide = EffectSet(reads=frozenset({"R", "S"}), writes=frozenset({"X"}))
        narrow = EffectSet(reads=frozenset({"R"}), writes=frozenset({"X"}))
        assert wide.covers(narrow)
        assert not narrow.covers(wide)

    def test_mv_filters(self):
        effects = EffectSet(
            reads=frozenset({"R", mv_name("V")}),
            writes=frozenset({mv_name("V"), "log"}),
        )
        assert effects.mv_reads() == {mv_name("V")}
        assert effects.mv_writes() == {mv_name("V")}

    def test_op_effects_aggregation(self):
        op = OpEffects(
            op="refresh",
            view="V",
            scenario="BL",
            steps=(
                Step("a", EffectSet(reads=frozenset({"R"}))),
                Step("b", EffectSet(writes=frozenset({"X"})), locks=frozenset({"X"})),
            ),
        )
        assert op.reads == {"R"}
        assert op.writes == {"X"}
        assert op.locks == {"X"}
        assert "refresh[BL]" in op.describe()


class TestReadFootprint:
    def test_compiled_footprint_matches_expression_tables(self):
        db = make_db("compiled")
        view = sql_to_view(VIEW_SQL.format(name="V"), db)
        assert read_footprint(db, view.query) == {"R", "S"}

    def test_interpreted_falls_back_to_syntactic_tables(self):
        db = make_db("interpreted")
        view = sql_to_view(VIEW_SQL.format(name="V"), db)
        assert read_footprint(db, view.query) == view.query.tables()

    def test_no_database_uses_syntactic_tables(self):
        db = make_db()
        view = sql_to_view(VIEW_SQL.format(name="V"), db)
        assert read_footprint(None, view.query) == view.query.tables()

    def test_sqlite_footprint_builds_no_mirror(self, monkeypatch):
        # Asking what a plan reads attaches no write listener and opens
        # no SQLite connection: the mirror is built by evaluation only.
        connects = []
        real_connect = sqlite3.connect
        monkeypatch.setattr(sqlite3, "connect", lambda *a, **k: connects.append(a) or real_connect(*a, **k))
        db = Database(exec_mode="sqlite")
        db.create_table("R", ["a"], rows=[(1,)])
        assert read_footprint(db, db.ref("R")) == {"R"}
        assert (db._listeners, connects) == ([], [])


class TestPlanEffects:
    def test_patch_target_is_read_and_written(self):
        db = make_db()
        plan = MaintenancePlan()
        plan.add_patch("T", db.ref("R"), db.ref("S"))
        effects = plan_effects(db, plan)
        # R := (R - del) + ins is a read-modify-write of the target.
        assert "T" in effects.reads
        assert effects.writes == {"T"}
        assert {"R", "S"} <= effects.reads

    def test_assignment_reads_rhs(self):
        db = make_db()
        plan = MaintenancePlan()
        plan.add_assignment("T", db.ref("R"))
        effects = plan_effects(db, plan)
        assert "R" in effects.reads
        assert effects.writes == {"T"}


class TestScenarioProtocols:
    @pytest.mark.parametrize(
        "scenario_cls", [ImmediateScenario, BaseLogScenario, DiffTableScenario, CombinedScenario]
    )
    def test_refresh_steps_lock_exactly_the_mv_table(self, scenario_cls):
        scenario = install(scenario_cls)
        mv = scenario.view.mv_table
        for op in scenario.maintenance_protocol():
            if op.op in REFRESH_OPS:
                for step in op.steps:
                    assert step.locks == {mv}

    def test_immediate_has_only_makesafe(self):
        scenario = install(ImmediateScenario)
        ops = {op.op for op in scenario.maintenance_protocol()}
        assert ops == {"makesafe"}

    def test_base_log_refresh_writes_mv_and_clears_log(self):
        scenario = install(BaseLogScenario)
        refresh = next(op for op in scenario.maintenance_protocol() if op.op == "refresh")
        assert scenario.view.mv_table in refresh.writes
        assert set(scenario.log.table_names()) <= refresh.writes

    def test_combined_propagate_is_lock_free_and_mv_free(self):
        scenario = install(CombinedScenario)
        propagate = next(op for op in scenario.maintenance_protocol() if op.op == "propagate")
        assert propagate.locks == frozenset()
        for step in propagate.steps:
            assert not step.effects.mv_reads()
            assert not step.effects.mv_writes()

    def test_combined_protocol_covers_all_four_ops(self):
        scenario = install(CombinedScenario)
        ops = {op.op for op in scenario.maintenance_protocol()}
        assert ops == {"makesafe", "propagate", "partial_refresh", "refresh"}

    def test_footprint_consistent_across_engines(self):
        protocols = {}
        for engine in ("interpreted", "compiled"):
            scenario = install(BaseLogScenario, engine)
            refresh = next(op for op in scenario.maintenance_protocol() if op.op == "refresh")
            protocols[engine] = (refresh.writes, refresh.locks)
        assert protocols["interpreted"] == protocols["compiled"]

    def test_aggregate_grouped_table_is_a_locked_mv_write(self):
        # Readers are served from the grouped table, so the derived
        # effects count it as MV state: the written-under-lock check of
        # tests/core/test_ops_table.py covers it like any MV table.
        from repro.warehouse import ViewManager

        manager = ViewManager(make_db())
        scenario = manager.define_view("A", "SELECT a, COUNT(*) FROM R GROUP BY a")
        tables = {scenario.view.mv_table, agg_name("A")}
        for op in scenario.maintenance_protocol():
            if op.op in REFRESH_OPS:
                patch = next(step for step in op.steps if step.name == "agg_patch")
                assert patch.effects.mv_writes() == {agg_name("A")}
                assert frozenset().union(*(step.effects.mv_writes() for step in op.steps)) == tables
                for step in op.steps:
                    assert step.locks == tables
