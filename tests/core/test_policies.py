"""Unit tests for refresh policies and the maintenance driver."""

import pytest

from repro.core.policies import (
    MaintenanceDriver,
    OnDemandPolicy,
    OnQueryPolicy,
    PeriodicRefresh,
    Policy1,
    Policy2,
)
from repro.core.scenarios import BaseLogScenario, CombinedScenario, ImmediateScenario
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import PolicyError
from repro.storage.database import Database


def make_scenario(scenario_cls=CombinedScenario):
    db = Database()
    db.create_table("R", ["a"], rows=[(1,), (2,)])
    scenario = scenario_cls(db, ViewDefinition("V", db.ref("R")))
    scenario.install()
    return scenario


def insert_txn(db, value):
    return UserTransaction(db).insert("R", [(value,)])


class TestPolicySchedules:
    def test_policy1_actions(self):
        policy = Policy1(k=2, m=6)
        assert policy.actions_at(1) == ()
        assert policy.actions_at(2) == ("propagate",)
        assert policy.actions_at(4) == ("propagate",)
        assert policy.actions_at(6) == ("refresh",)  # refresh subsumes propagate

    def test_policy2_actions(self):
        policy = Policy2(k=2, m=6)
        assert policy.actions_at(2) == ("propagate",)
        assert policy.actions_at(3) == ()
        assert policy.actions_at(6) == ("propagate", "partial_refresh")

    def test_policy2_partial_only_at_m_not_multiple_of_k(self):
        policy = Policy2(k=2, m=5)
        assert policy.actions_at(5) == ("partial_refresh",)

    def test_periodic(self):
        policy = PeriodicRefresh(m=3)
        assert policy.actions_at(3) == ("refresh",)
        assert policy.actions_at(4) == ()

    def test_on_demand_never_fires(self):
        policy = OnDemandPolicy()
        assert all(policy.actions_at(tick) == () for tick in range(1, 20))
        assert not policy.refresh_on_query()

    def test_on_query(self):
        policy = OnQueryPolicy()
        assert policy.actions_at(5) == ()
        assert policy.refresh_on_query()

    @pytest.mark.parametrize("k,m", [(0, 5), (5, 5), (6, 5), (-1, 3)])
    def test_policy1_validation(self, k, m):
        with pytest.raises(PolicyError):
            Policy1(k=k, m=m)

    @pytest.mark.parametrize("k,m", [(0, 5), (5, 5)])
    def test_policy2_validation(self, k, m):
        with pytest.raises(PolicyError):
            Policy2(k=k, m=m)

    def test_periodic_validation(self):
        with pytest.raises(PolicyError):
            PeriodicRefresh(m=0)


class TestLogThresholdPolicy:
    def test_validation(self):
        from repro.core.policies import LogThresholdPolicy

        with pytest.raises(PolicyError):
            LogThresholdPolicy(threshold=0, m=5)
        with pytest.raises(PolicyError):
            LogThresholdPolicy(threshold=5, m=0)

    def test_requires_combined(self):
        from repro.core.policies import LogThresholdPolicy

        scenario = make_scenario(BaseLogScenario)
        with pytest.raises(PolicyError):
            MaintenanceDriver(scenario, LogThresholdPolicy(threshold=5, m=4))

    def test_propagates_when_log_exceeds_threshold(self):
        from repro.core.policies import LogThresholdPolicy

        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, LogThresholdPolicy(threshold=3, m=100))
        # Two one-row transactions: below threshold, no propagation.
        driver.tick([insert_txn(scenario.db, 1)])
        driver.tick([insert_txn(scenario.db, 2)])
        assert driver.stats.propagates == 0
        assert scenario.log.recorded_changes() == 2
        # Third pushes the log to the threshold.
        driver.tick([insert_txn(scenario.db, 3)])
        assert driver.stats.propagates == 1
        assert scenario.log.is_empty()
        scenario.check_invariant()

    def test_partial_refresh_period_still_applies(self):
        from repro.core.policies import LogThresholdPolicy

        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, LogThresholdPolicy(threshold=1, m=2))
        driver.tick([insert_txn(scenario.db, 1)])
        driver.tick()
        assert driver.stats.partial_refreshes == 1
        assert scenario.is_consistent()


class TestDriverWiring:
    def test_combined_required_for_policy1(self):
        scenario = make_scenario(BaseLogScenario)
        with pytest.raises(PolicyError):
            MaintenanceDriver(scenario, Policy1(k=1, m=2))

    def test_periodic_works_for_base_log(self):
        scenario = make_scenario(BaseLogScenario)
        driver = MaintenanceDriver(scenario, PeriodicRefresh(m=2))
        driver.tick([insert_txn(scenario.db, 5)])
        driver.tick()
        assert scenario.is_consistent()

    def test_propagate_rejected_for_non_combined(self):
        scenario = make_scenario(BaseLogScenario)
        driver = MaintenanceDriver(scenario, OnDemandPolicy())
        with pytest.raises(PolicyError):
            driver._run_action("propagate")

    def test_unknown_action(self):
        driver = MaintenanceDriver(make_scenario(), OnDemandPolicy())
        with pytest.raises(PolicyError):
            driver._run_action("explode")


class TestDriverBehaviour:
    def test_policy2_staleness_bounded_by_k(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, Policy2(k=2, m=6))
        value = 10
        for __ in range(24):
            driver.tick([insert_txn(scenario.db, value)])
            value += 1
            if driver.now % 6 == 0:
                driver.query()
        # Right after a partial refresh at t=6n (propagate fired the same
        # tick), the view reflects t exactly: staleness 0.
        assert driver.stats.max_staleness() == 0
        scenario.check_invariant()

    def test_policy2_staleness_between_refreshes(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, Policy2(k=2, m=6))
        for __ in range(7):
            driver.tick([insert_txn(scenario.db, driver.now)])
        driver.query()  # at t=7, last partial refresh at 6 reflected t=6
        assert driver.stats.staleness_samples == [1]

    def test_policy1_refresh_fully_synchronizes(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, Policy1(k=2, m=4))
        for __ in range(4):
            driver.tick([insert_txn(scenario.db, driver.now)])
        assert scenario.is_consistent()
        assert driver.clock.mv_reflects == 4

    def test_immediate_scenario_never_stale(self):
        scenario = make_scenario(ImmediateScenario)
        driver = MaintenanceDriver(scenario, OnDemandPolicy())
        for __ in range(3):
            driver.tick([insert_txn(scenario.db, driver.now)])
            driver.query()
        assert driver.stats.max_staleness() == 0

    def test_on_query_policy_refreshes_before_read(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, OnQueryPolicy())
        driver.tick([insert_txn(scenario.db, 9)])
        result = driver.query()
        assert (9,) in result
        assert driver.stats.staleness_samples == [0]
        assert driver.stats.full_refreshes == 1

    def test_stats_counts(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, Policy2(k=1, m=3))
        for __ in range(6):
            driver.tick([insert_txn(scenario.db, driver.now)])
        stats = driver.stats
        assert stats.transactions == 6
        assert stats.propagates == 6
        assert stats.partial_refreshes == 2
        assert stats.full_refreshes == 0
        assert stats.transaction_cost > 0
        assert stats.propagate_cost > 0
        assert stats.refresh_cost > 0

    def test_refresh_now(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, OnDemandPolicy())
        driver.tick([insert_txn(scenario.db, 1)])
        assert not scenario.is_consistent()
        driver.refresh_now()
        assert scenario.is_consistent()
        assert driver.stats.full_refreshes == 1

    def test_mean_staleness(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, OnDemandPolicy())
        driver.tick([insert_txn(scenario.db, 1)])
        driver.query()
        driver.tick()
        driver.query()
        assert driver.stats.mean_staleness() == pytest.approx(1.5)

    def test_empty_stats(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, OnDemandPolicy())
        assert driver.stats.max_staleness() == 0
        assert driver.stats.mean_staleness() == 0.0


class TestRun:
    def test_run_with_schedule(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, Policy2(k=2, m=4))
        schedule = [(1, (insert_txn(scenario.db, 100),)), (3, (insert_txn(scenario.db, 101),))]
        stats = driver.run(schedule, horizon=8, query_every=4)
        assert stats.transactions == 2
        assert stats.queries == 2
        scenario.check_invariant()

    def test_run_without_queries(self):
        scenario = make_scenario()
        driver = MaintenanceDriver(scenario, PeriodicRefresh(m=2))
        stats = driver.run([], horizon=4)
        assert stats.queries == 0
        assert stats.full_refreshes == 2
