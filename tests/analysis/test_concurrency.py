"""Static concurrency checks (RVM601, RVM602, RVM605) and the demo-stack lint."""

import pytest

from repro.analysis.concurrency_check import (
    check_journal_coverage,
    check_protocol,
    check_scenario,
    check_stack,
    demo_stack_report,
)
from repro.analysis.effects import EffectSet, OpEffects, Step
from repro.core.naming import mv_name
from repro.core.scenarios import BaseLogScenario
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


class TestJournalCoverage:
    def test_live_payload_seam_covers_everything(self):
        scenario = make_scenario()
        report = check_journal_coverage(scenario.db, scenario.maintenance_protocol())
        assert len(report) == 0

    def test_missing_digest_fires_rvm605(self):
        scenario = make_scenario()
        mv = scenario.view.mv_table
        payload = frozenset(scenario.db.table_names()) - {mv}
        report = check_journal_coverage(
            scenario.db, scenario.maintenance_protocol(), payload_tables=payload
        )
        codes = {d.code for d in report}
        assert codes == {"RVM605"}
        assert any(mv in d.message for d in report)


class TestStack:
    @pytest.mark.parametrize("exec_mode", ["compiled", "interpreted"])
    def test_demo_stack_is_clean(self, exec_mode):
        report = demo_stack_report(exec_mode=exec_mode)
        assert len(report) == 0, report.format()

    def test_check_stack_aggregates_scenario_and_journal(self, monkeypatch):
        import repro.robustness.durable as durable

        scenario = make_scenario()
        assert len(check_stack([scenario], db=scenario.db)) == 0
        payload = frozenset(scenario.db.table_names()) - {scenario.view.mv_table}
        monkeypatch.setattr(durable, "intent_payload_tables", lambda db: payload)
        assert {d.code for d in check_stack([scenario], db=scenario.db)} == {"RVM605"}
