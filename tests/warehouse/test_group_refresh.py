"""ViewManager-level group refresh: shared_log views, RVM501, mixed scenarios."""

import warnings

import pytest

from repro.analysis.diagnostics import AnalysisError, AnalysisWarning
from repro.core.policies import Policy1, Policy2, PeriodicRefresh
from repro.errors import PolicyError, ReproError
from repro.extensions.sharedlog import SharedLogScenario
from repro.serve import ServeConfig, ViewServer
from repro.warehouse import ViewManager
from repro.warehouse.persistence import load_warehouse, save_warehouse

JOIN_SQL = "SELECT R.a, S.b FROM R, S WHERE R.a = S.a"


@pytest.fixture
def manager():
    vm = ViewManager()
    vm.create_table("R", ["a"], rows=[(1,), (2,)])
    vm.create_table("S", ["a", "b"], rows=[(2, "x"), (3, "y")])
    return vm


def churn(manager):
    txn = manager.transaction()
    txn.delete("R", [(1,)])
    txn.insert("R", [(3,), (3,)])
    txn.insert("S", [(3, "z")])
    txn.run()


class TestSharedLogScenario:
    def test_define_and_refresh(self, manager):
        manager.define_view("V", JOIN_SQL, scenario="shared_log")
        churn(manager)
        assert manager.is_stale("V")
        manager.refresh("V")
        assert manager.query("V") == manager.sql(JOIN_SQL)
        assert not manager.is_stale("V")

    def test_views_share_one_group(self, manager):
        manager.define_view("V1", JOIN_SQL, scenario="shared_log")
        manager.define_view("V2", "SELECT a FROM R", scenario="shared_log")
        s1, s2 = manager.scenario("V1"), manager.scenario("V2")
        assert isinstance(s1, SharedLogScenario)
        assert s1.shared_log is s2.shared_log is manager.shared_log
        assert set(manager.shared_log.cursors) == {"V1", "V2"}

    def test_strong_minimality_rejected(self, manager):
        # The generic check every scenario without differentials gets.
        with pytest.raises(PolicyError, match="strong_minimality is not applicable to the 'shared_log'"):
            manager.define_view("V", JOIN_SQL, scenario="shared_log", strong_minimality=True)
        assert manager.views() == ()

    def test_running_the_op_table_refreshes_and_moves_the_cursor(self):
        def build():
            vm = ViewManager()
            vm.create_table("R", ["a"], rows=[(1,), (2,)])
            vm.create_table("S", ["a", "b"], rows=[(2, "x"), (3, "y")])
            vm.define_view("V", JOIN_SQL, scenario="shared_log")
            vm.define_view("W", "SELECT a FROM R", scenario="shared_log")
            churn(vm)
            return vm

        ran, refreshed = build(), build()
        scenario = ran.scenario("V")
        assert scenario.cursor < ran.shared_log.current_seq
        scenario.run("refresh")
        refreshed.refresh("V")
        assert ran.counter.snapshot() == refreshed.counter.snapshot()
        assert scenario.cursor == ran.shared_log.current_seq
        assert ran.query("V") == refreshed.query("V") == ran.sql(JOIN_SQL)
        for name in ("__mv__V", "__mv__W", *(f"__shared_log__{t}" for t in ran.shared_log.tables)):
            assert ran.db[name] == refreshed.db[name], name
        assert ran.is_stale("W")
        ran.check_invariants()

    def test_periodic_refresh_policy_is_driven_by_tick(self, manager):
        server = ViewServer(ServeConfig(policy=PeriodicRefresh(m=2)), manager=manager)
        server.define_view("V", JOIN_SQL, scenario="shared_log")
        churn(manager)
        assert server.tick() == []
        assert manager.is_stale("V")
        assert server.tick() == [("V", "refresh")]
        assert not manager.is_stale("V")
        assert manager.query("V") == manager.sql(JOIN_SQL)

    @pytest.mark.parametrize("policy", [Policy1(k=1, m=2), Policy2(k=1, m=2)], ids=["Policy1", "Policy2"])
    def test_propagating_policies_fail_closed(self, manager, policy):
        server = ViewServer(ServeConfig(policy=policy), manager=manager)
        with pytest.raises(PolicyError, match="under SharedLogScenario does not offer"):
            server.define_view("V", JOIN_SQL, scenario="shared_log")
        assert manager.views() == ()
        assert not manager.db.has_table("__mv__V")

    def test_unknown_scenario_lists_shared_log(self, manager):
        with pytest.raises(ReproError, match="shared_log"):
            manager.define_view("V", JOIN_SQL, scenario="bogus")

    def test_drop_view_detaches_from_group(self, manager):
        manager.define_view("V1", JOIN_SQL, scenario="shared_log")
        manager.define_view("V2", "SELECT a FROM R", scenario="shared_log")
        manager.drop_view("V1")
        assert manager.views() == ("V2",)
        assert set(manager.shared_log.cursors) == {"V2"}
        churn(manager)
        manager.refresh("V2")
        assert manager.query("V2") == manager.sql("SELECT a FROM R")


class TestGroupRefreshMixedScenarios:
    SCENARIOS = ("shared_log", "base_log", "combined", "immediate", "diff_table")

    def test_all_views_fresh_and_correct(self, manager):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AnalysisWarning)
            for index, scenario in enumerate(self.SCENARIOS):
                manager.define_view(f"V{index}", JOIN_SQL, scenario=scenario)
        churn(manager)
        manager.refresh_group(parallel=True)
        expected = manager.sql(JOIN_SQL)
        for index in range(len(self.SCENARIOS)):
            assert manager.query(f"V{index}") == expected, f"V{index}"
            assert not manager.is_stale(f"V{index}")
        manager.check_invariants()

    def test_shared_structure_hits_delta_cache(self, manager):
        for index in range(4):
            manager.define_view(f"V{index}", JOIN_SQL, scenario="shared_log")
        churn(manager)
        manager.refresh_group()
        assert manager.exec_stats()["delta_cache_hits"] >= 3

    @pytest.mark.parametrize("refreshed_alone, hits", [(None, 1), ("BL", 0), ("C", 0)])
    def test_equal_query_over_equal_logs_shares_one_evaluation(self, manager, refreshed_alone, hits):
        # A base-log and a combined view of one query record the same
        # changes under different log-table names: one evaluation serves
        # both — until one is refreshed alone and their pending logs differ.
        manager.define_view("BL", JOIN_SQL, scenario="base_log")
        manager.define_view("C", JOIN_SQL, scenario="combined")
        churn(manager)
        if refreshed_alone is not None:
            manager.refresh(refreshed_alone)
            manager.transaction().insert("S", [(2, "w")]).run()
        manager.refresh_group()
        assert manager.exec_stats()["delta_cache_hits"] == hits
        expected = manager.sql(JOIN_SQL)
        assert manager.query("BL") == expected
        assert manager.query("C") == expected
        manager.check_invariants()

    def test_aggregate_is_an_epoch_member(self, manager):
        # An aggregate is the combined view of its base query: it shares
        # that query's delta evaluation with a combined view of it.
        manager.define_view("Agg", "SELECT a, COUNT(*) AS n FROM R GROUP BY a")
        manager.define_view("Plain", "SELECT a FROM R")
        manager.define_view("Shared", JOIN_SQL, scenario="shared_log")
        churn(manager)
        manager.refresh_group(parallel=True)
        assert manager.exec_stats()["delta_cache_hits"] == 1
        for name in ("Agg", "Plain", "Shared"):
            assert not manager.is_stale(name), name
        assert manager.query("Agg") == manager.scenario("Agg").expected()
        manager.check_invariants()

    def test_subset_refresh_leaves_others_stale(self, manager):
        manager.define_view("A", JOIN_SQL, scenario="shared_log")
        manager.define_view("B", "SELECT a FROM R", scenario="shared_log")
        churn(manager)
        manager.refresh_group(["A"])
        assert not manager.is_stale("A")
        assert manager.is_stale("B")


class TestLintGroupOverlap:
    def test_warns_when_overlapping_view_outside_group(self, manager):
        manager.define_view("Grouped", JOIN_SQL, scenario="shared_log")
        with pytest.warns(AnalysisWarning, match="RVM501"):
            manager.define_view("Outside", JOIN_SQL, scenario="base_log")

    def test_strict_mode_raises(self, manager):
        manager.define_view("Grouped", JOIN_SQL, scenario="shared_log")
        with pytest.raises(AnalysisError, match="RVM501"):
            manager.define_view("Outside", JOIN_SQL, scenario="base_log", strict=True)

    def test_a_shared_join_alone_is_silent(self, manager):
        # H has G's join but not its query: SharedLog.register would give
        # it a pair of its own, so a group epoch shares nothing with G.
        manager.define_view("G", JOIN_SQL, scenario="shared_log")
        with warnings.catch_warnings():
            warnings.simplefilter("error", AnalysisWarning)
            manager.define_view("H", JOIN_SQL + " AND S.b = 'x'", scenario="base_log")
        churn(manager)
        manager.refresh_group()
        assert manager.exec_stats()["delta_cache_hits"] == 0
        assert manager.query("H") == manager.sql(JOIN_SQL + " AND S.b = 'x'")

    def test_disjoint_view_is_silent(self, manager):
        manager.define_view("Grouped", JOIN_SQL, scenario="shared_log")
        with warnings.catch_warnings():
            warnings.simplefilter("error", AnalysisWarning)
            manager.define_view("Outside", "SELECT a FROM R", scenario="base_log")

    def test_joining_the_group_is_silent(self, manager):
        manager.define_view("Grouped", JOIN_SQL, scenario="shared_log")
        with warnings.catch_warnings():
            warnings.simplefilter("error", AnalysisWarning)
            manager.define_view("Also", JOIN_SQL, scenario="shared_log")


class TestSharedLogPersistence:
    def test_round_trip_mid_deferral(self, manager, tmp_path):
        manager.define_view("V1", JOIN_SQL, scenario="shared_log")
        manager.define_view("V2", "SELECT a FROM R", scenario="shared_log")
        churn(manager)
        manager.refresh("V1")  # V1 caught up; V2 still behind
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)

        reloaded = load_warehouse(path)
        log = reloaded.shared_log
        assert set(log.cursors) == {"V1", "V2"}
        assert reloaded.scenario("V1").cursor > reloaded.scenario("V2").cursor
        assert not reloaded.is_stale("V1")
        assert reloaded.is_stale("V2")
        # The restored sequence keeps climbing past the saved head.
        seq_before = log.current_seq
        assert seq_before == manager.shared_log.current_seq
        txn = reloaded.transaction()
        txn.insert("R", [(7,)])
        txn.run()
        assert log.current_seq > seq_before
        reloaded.refresh_group(parallel=True)
        assert reloaded.query("V1") == reloaded.sql(JOIN_SQL)
        assert reloaded.query("V2") == reloaded.sql("SELECT a FROM R")
        reloaded.check_invariants()

    def test_exec_stats_reports_cache_hits(self, manager):
        assert manager.exec_stats()["delta_cache_hits"] == 0
        for index in range(3):
            manager.define_view(f"V{index}", JOIN_SQL, scenario="shared_log")
        churn(manager)
        manager.refresh_group()
        assert manager.exec_stats()["delta_cache_hits"] == 2


class TestGroupRefreshFallbacks:
    def test_empty_group_is_a_no_op(self, manager):
        manager.refresh_group()  # no views registered

    def test_unknown_member_rejected(self, manager):
        with pytest.raises(ReproError):
            manager.refresh_group(["Missing"])
