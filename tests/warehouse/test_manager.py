"""Unit tests for the user-facing ViewManager."""

import pytest

from repro.algebra.bag import Bag
from repro.core.policies import Policy2
from repro.core.scenarios import ImmediateScenario
from repro.core.views import ViewDefinition
from repro.errors import PolicyError, SchemaError, UnknownTableError
from repro.warehouse import ViewManager


@pytest.fixture
def manager():
    vm = ViewManager()
    vm.create_table("R", ["a"], rows=[(1,), (2,)])
    vm.create_table("S", ["a"], rows=[(2,), (3,)])
    return vm


class TestTables:
    def test_create_with_rows(self, manager):
        assert manager.db["R"] == Bag([(1,), (2,)])

    def test_load_before_views(self, manager):
        manager.load("R", [(9,)])
        assert (9,) in manager.db["R"]

    def test_load_after_views_rejected(self, manager):
        manager.define_view("V", manager.db.ref("R"))
        with pytest.raises(PolicyError):
            manager.load("R", [(9,)])


class TestDefineView:
    def test_from_sql(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="combined")
        assert manager.query("V") == Bag([(1,), (2,)])

    def test_from_create_view_sql(self, manager):
        manager.define_view("V", "CREATE VIEW V AS SELECT a FROM R")
        assert "V" in manager.views()

    def test_from_expr(self, manager):
        manager.define_view("V", manager.db.ref("R"))
        assert manager.query("V") == Bag([(1,), (2,)])

    def test_from_view_definition(self, manager):
        view = ViewDefinition("V", manager.db.ref("R"))
        manager.define_view("V", view)
        assert manager.query("V") == Bag([(1,), (2,)])

    def test_view_definition_renamed_to_requested_name(self, manager):
        view = ViewDefinition("other", manager.db.ref("R"))
        scenario = manager.define_view("V", view)
        assert scenario.view.name == "V"

    def test_duplicate_view_rejected(self, manager):
        manager.define_view("V", manager.db.ref("R"))
        with pytest.raises(SchemaError):
            manager.define_view("V", manager.db.ref("S"))

    @pytest.mark.parametrize("name", ["immediate", "base_log", "diff_table", "combined"])
    def test_all_scenarios_available(self, manager, name):
        scenario = manager.define_view(f"V_{name}", manager.db.ref("R"), scenario=name)
        assert scenario.tag in {"IM", "BL", "DT", "C"}

    def test_unknown_scenario(self, manager):
        with pytest.raises(PolicyError, match="unknown scenario"):
            manager.define_view("V", manager.db.ref("R"), scenario="wat")

    def test_strong_minimality_only_for_dt_scenarios(self, manager):
        with pytest.raises(PolicyError):
            manager.define_view("V", manager.db.ref("R"), scenario="immediate", strong_minimality=True)
        manager.define_view("W", manager.db.ref("R"), scenario="combined", strong_minimality=True)

    def test_scenario_accessor(self, manager):
        manager.define_view("V", manager.db.ref("R"), scenario="immediate")
        assert isinstance(manager.scenario("V"), ImmediateScenario)
        with pytest.raises(UnknownTableError):
            manager.scenario("missing")


class TestTransactions:
    def test_single_view_maintained(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="immediate")
        manager.transaction().insert("R", [(7,)]).run()
        assert (7,) in manager.query("V")

    def test_multiple_views_same_transaction(self, manager):
        manager.define_view("V_imm", "SELECT a FROM R", scenario="immediate")
        manager.define_view("V_bl", "SELECT a FROM R", scenario="base_log")
        manager.define_view("V_c", "SELECT a FROM R UNION ALL SELECT a FROM S", scenario="combined")
        manager.transaction().insert("R", [(7,)]).delete("S", [(3,)]).run()
        manager.check_invariants()
        assert (7,) in manager.query("V_imm")  # immediate: fresh
        assert (7,) not in manager.query("V_bl")  # deferred: stale
        manager.refresh_all()
        manager.check_invariants()
        assert (7,) in manager.query("V_bl")
        assert manager.query("V_c").multiplicity((2,)) == 2

    def test_delete_and_insert_combined(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="diff_table")
        manager.transaction().delete("R", [(1,)]).insert("R", [(4,)]).run()
        assert manager.query_fresh("V") == Bag([(2,), (4,)])

    def test_query_deltas_supported(self, manager):
        manager.define_view("V", "SELECT a FROM S", scenario="combined")
        txn = manager.transaction()
        txn.insert_query("S", manager.db.ref("R"))
        txn.delete_query("S", manager.db.ref("S"))
        txn.run()
        assert manager.query_fresh("V") == Bag([(1,), (2,)])


class TestMaintenanceOperations:
    def test_propagate_and_partial_refresh(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="combined")
        manager.transaction().insert("R", [(7,)]).run()
        manager.propagate("V")
        assert manager.is_stale("V")
        manager.partial_refresh("V")
        assert not manager.is_stale("V")

    def test_propagate_requires_combined(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="base_log")
        with pytest.raises(PolicyError):
            manager.propagate("V")
        with pytest.raises(PolicyError):
            manager.partial_refresh("V")

    def test_query_fresh(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="base_log")
        manager.transaction().insert("R", [(7,)]).run()
        assert (7,) in manager.query_fresh("V")

    def test_downtime_accounted(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="base_log")
        manager.transaction().insert("R", [(7,)]).run()
        manager.refresh("V")
        # Deterministic downtime evidence: the refresh held exactly one
        # exclusive section on MV and did tuple work inside it.  (Wall
        # seconds are clock-dependent and can round to zero on a coarse
        # timer, so the ops-counted signal is what we assert on.)
        mv = manager.scenario("V").view.mv_table
        sections = [s for s in manager.ledger.sections if s.resource == mv]
        assert len(sections) == 1
        assert sections[0].tuple_ops > 0
        assert manager.ledger.downtime_tuple_ops(mv) > 0
        assert manager.downtime_seconds("V") >= 0.0


class TestPolicies:
    def test_driver_attached(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="combined", policy=Policy2(k=1, m=2))
        driver = manager.driver("V")
        manager.tick([])
        manager.tick([])
        assert driver.now == 2
        assert driver.stats.partial_refreshes == 1

    def test_tick_applies_transactions(self, manager):
        manager.define_view("V", "SELECT a FROM R", scenario="combined", policy=Policy2(k=1, m=2))
        txn = manager.transaction()
        txn.insert("R", [(42,)])
        manager.tick([txn._txn])
        manager.tick([])
        assert (42,) in manager.query("V")

    def test_driver_missing(self, manager):
        manager.define_view("V", "SELECT a FROM R")
        with pytest.raises(PolicyError):
            manager.driver("V")

    def test_two_driven_views_see_each_transaction_once(self, manager):
        """tick() used to hand the txns to every driver: (5,) landed twice."""
        manager.define_view("V1", "SELECT a FROM R", scenario="combined", policy=Policy2(k=1, m=2))
        manager.define_view("V2", "SELECT a FROM R WHERE a > 1", scenario="combined", policy=Policy2(k=1, m=2))
        txn = manager.transaction().insert("R", [(5,)])
        manager.tick([txn._txn])
        assert manager.db["R"] == Bag([(1,), (2,), (5,)])
        manager.check_invariants()
        manager.tick([])
        assert manager.query("V1") == Bag([(1,), (2,), (5,)])
        assert manager.query("V2") == Bag([(2,), (5,)])
        for name in ("V1", "V2"):
            assert manager.driver(name).stats.transactions == 1

    def test_undriven_view_still_logs_ticked_transactions(self, manager):
        """A view without a policy must see tick()'s transactions too."""
        manager.define_view("driven", "SELECT a FROM R", scenario="combined", policy=Policy2(k=1, m=2))
        manager.define_view("manual", "SELECT a FROM R", scenario="base_log")
        txn = manager.transaction().insert("R", [(7,)])
        manager.tick([txn._txn])
        manager.check_invariants()
        assert manager.scenario("manual").log.recorded_changes() == 1
        manager.refresh("manual")
        assert (7,) in manager.query("manual")

    def test_unservable_policy_fails_before_install(self, manager):
        with pytest.raises(PolicyError):
            manager.define_view("V", "SELECT a FROM R", scenario="base_log", policy=Policy2(k=1, m=2))
        assert "V" not in manager.views()
        assert not manager.db.has_table("__mv__V")


class TestAdHocSQL:
    def test_sql_query(self, manager):
        result = manager.sql("SELECT a FROM R WHERE a > 1")
        assert result == Bag([(2,)])

    def test_sql_join(self, manager):
        result = manager.sql("SELECT r.a FROM R r, S s WHERE r.a = s.a")
        assert result == Bag([(2,)])
