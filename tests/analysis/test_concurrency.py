"""Static concurrency checks (RVM601, RVM602) and the demo-stack lint."""

import pytest

from repro.analysis.concurrency_check import (
    check_protocol,
    check_scenario,
    check_stack,
    demo_stack_report,
)
from repro.analysis.mutations import apply_mutation
from repro.analysis.effects import EffectSet, OpEffects, Step
from repro.core.naming import mv_name
from repro.core.scenarios import BaseLogScenario
from repro.exec import ENV_VAR
from repro.sqlfront import sql_to_view
from repro.storage.database import Database

VIEW_SQL = "CREATE VIEW V (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b"


def make_scenario(exec_mode="compiled"):
    db = Database(exec_mode=exec_mode)
    db.create_table("R", ["a", "b"], rows=[(1, 1), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    scenario = BaseLogScenario(db, sql_to_view(VIEW_SQL, db))
    scenario.install()
    return scenario


class TestLockCoverage:
    def test_clean_scenario_has_no_findings(self):
        assert len(check_scenario(make_scenario())) == 0

    def test_unlocked_mv_read_fires_rvm601(self):
        mv = mv_name("V")
        op = OpEffects(
            op="refresh",
            view="V",
            scenario="BL",
            steps=(Step("apply", EffectSet(reads=frozenset({mv})), locks=frozenset()),),
        )
        codes = [d.code for d in check_protocol([op])]
        assert codes == ["RVM601"]

    def test_unlocked_mv_write_fires_rvm602(self):
        mv = mv_name("V")
        op = OpEffects(
            op="refresh",
            view="V",
            scenario="BL",
            steps=(Step("apply", EffectSet(writes=frozenset({mv})), locks=frozenset()),),
        )
        codes = [d.code for d in check_protocol([op])]
        assert codes == ["RVM602"]

    def test_makesafe_mv_access_is_not_judged(self):
        # makesafe runs inside the user transaction's atomicity.
        mv = mv_name("V")
        op = OpEffects(
            op="makesafe",
            view="V",
            scenario="IM",
            steps=(Step("patch", EffectSet(writes=frozenset({mv}))),),
        )
        assert len(check_protocol([op])) == 0

    def test_propagate_touching_mv_is_judged(self):
        # propagate is lock-free *because* it is MV-free; one that
        # touches MV state has lost that excuse.
        mv = mv_name("V")
        op = OpEffects(
            op="propagate",
            view="V",
            scenario="C",
            steps=(Step("fold", EffectSet(writes=frozenset({mv}))),),
        )
        codes = [d.code for d in check_protocol([op])]
        assert codes == ["RVM602"]

    def test_non_mv_tables_need_no_lock(self):
        op = OpEffects(
            op="refresh",
            view="V",
            scenario="BL",
            steps=(Step("delta", EffectSet(reads=frozenset({"R", "S"}))),),
        )
        assert len(check_protocol([op])) == 0


class TestStack:
    @pytest.mark.parametrize("exec_mode", ["compiled", "interpreted"])
    def test_demo_stack_is_clean(self, exec_mode, monkeypatch):
        monkeypatch.setenv(ENV_VAR, exec_mode)
        report = demo_stack_report()
        assert len(report) == 0, report.format()

    def test_check_stack_aggregates_scenario_checks(self):
        scenario = make_scenario()
        assert len(check_stack([scenario])) == 0
        with apply_mutation("dropped_lock"):
            assert {d.code for d in check_stack([scenario])} == {"RVM601", "RVM602"}
