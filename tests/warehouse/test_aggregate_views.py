"""ViewManager + SQL GROUP BY integration for aggregate views."""

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.core.policies import PeriodicRefresh
from repro.core.transactions import UserTransaction
from repro.errors import ParseError, PolicyError, SchemaError
from repro.serve import ServeConfig, ViewServer
from repro.sqlfront.compiler import sql_to_expr
from repro.warehouse import ViewManager


@pytest.fixture
def manager():
    vm = ViewManager()
    vm.create_table("orders", ["region", "amount"], rows=[("e", 10), ("e", 5), ("w", 7)])
    return vm


AGG_SQL = "SELECT region, COUNT(*), SUM(amount) AS total FROM orders GROUP BY region"


class TestDefinition:
    def test_group_by_sql_creates_aggregate_scenario(self, manager):
        scenario = manager.define_view("rev", AGG_SQL)
        assert scenario.tag == "AGG"
        assert manager.query("rev") == Bag([("e", 2, 15), ("w", 1, 7)])

    def test_create_view_form(self, manager):
        manager.define_view("rev", f"CREATE VIEW rev AS {AGG_SQL}")
        assert manager.query("rev") == Bag([("e", 2, 15), ("w", 1, 7)])

    def test_count_added_implicitly(self, manager):
        manager.define_view("rev", "SELECT region, SUM(amount) AS t FROM orders GROUP BY region")
        # implicit COUNT(*) comes first in the output schema
        assert manager.query("rev") == Bag([("e", 2, 15), ("w", 1, 7)])

    def test_global_aggregate_without_group_by(self, manager):
        manager.define_view("totals", "SELECT COUNT(*), SUM(amount) AS total FROM orders")
        assert manager.query("totals") == Bag([(3, 22)])

    def test_where_clause_respected(self, manager):
        manager.define_view(
            "big", "SELECT region, COUNT(*) FROM orders WHERE amount > 6 GROUP BY region"
        )
        assert manager.query("big") == Bag([("e", 1), ("w", 1)])

    def test_aggregates_over_join(self, manager):
        manager.create_table("names", ["region", "label"], rows=[("e", "east"), ("w", "west")])
        manager.define_view(
            "rev",
            """SELECT n.label, COUNT(*), SUM(o.amount) AS total
               FROM orders o, names n WHERE o.region = n.region
               GROUP BY n.label""",
        )
        assert manager.query("rev") == Bag([("east", 2, 15), ("west", 1, 7)])

    def test_non_group_column_rejected(self, manager):
        with pytest.raises(SchemaError, match="GROUP BY"):
            manager.define_view("bad", "SELECT amount, COUNT(*) FROM orders GROUP BY region")

    def test_options_rejected(self, manager):
        with pytest.raises(PolicyError):
            manager.define_view("bad", AGG_SQL, scenario="immediate")
        with pytest.raises(PolicyError):
            manager.define_view("bad2", AGG_SQL, scenario="shared_log")
        assert manager.views() == ()

    def test_strong_minimality_accepted(self, manager):
        scenario = manager.define_view("rev", AGG_SQL, strong_minimality=True)
        manager.execute_sql("DELETE FROM orders WHERE amount = 5")
        manager.propagate("rev")
        manager.execute_sql("INSERT INTO orders VALUES ('e', 5)")
        manager.propagate("rev")
        # The delete and the reinsert cancel in the differentials.
        assert scenario.staleness_entries() == 0
        manager.partial_refresh("rev")
        assert manager.query("rev") == Bag([("e", 2, 15), ("w", 1, 7)])
        manager.check_invariants()

    def test_adhoc_aggregate_query_rejected(self, manager):
        with pytest.raises(ParseError):
            sql_to_expr(AGG_SQL, manager.db)


class TestMaintenance:
    def test_deferred_updates_then_refresh(self, manager):
        manager.define_view("rev", AGG_SQL)
        manager.execute_sql("INSERT INTO orders VALUES ('e', 100), ('n', 1)")
        assert manager.is_stale("rev")
        manager.check_invariants()
        manager.refresh("rev")
        assert manager.query("rev") == Bag([("e", 3, 115), ("w", 1, 7), ("n", 1, 1)])

    def test_propagate_and_partial_refresh(self, manager):
        manager.define_view("rev", AGG_SQL)
        manager.execute_sql("DELETE FROM orders WHERE region = 'w'")
        manager.propagate("rev")
        manager.partial_refresh("rev")
        assert manager.query("rev") == Bag([("e", 2, 15)])
        assert not manager.is_stale("rev")

    def test_update_statement_flows_through(self, manager):
        manager.define_view("rev", AGG_SQL)
        manager.execute_sql("UPDATE orders SET amount = amount + 1 WHERE region = 'e'")
        manager.refresh("rev")
        assert manager.query("rev") == Bag([("e", 2, 17), ("w", 1, 7)])

    def test_mixed_with_plain_views(self, manager):
        manager.define_view("rev", AGG_SQL)
        manager.define_view("plain", "SELECT region FROM orders", scenario="combined")
        manager.execute_sql("INSERT INTO orders VALUES ('e', 1)")
        manager.check_invariants()
        manager.refresh_all()
        assert manager.query("rev").multiplicity(("e", 3, 16)) == 1
        assert manager.query("plain").multiplicity(("e",)) == 3

    def test_downtime_accounted(self, manager):
        manager.define_view("rev", AGG_SQL)
        manager.execute_sql("INSERT INTO orders VALUES ('e', 2)")
        manager.refresh("rev")
        # Ops-counted, not wall-clocked: a coarse timer can legally
        # measure a fast refresh as 0.0 seconds, but the exclusive
        # section and its tuple work are deterministic.
        mv = manager.scenario("rev").view.mv_table
        assert manager.ledger.downtime_tuple_ops(mv) > 0
        assert any(s.resource == mv for s in manager.ledger.sections)
        assert manager.downtime_seconds("rev") >= 0.0


class TestOneView:
    """An aggregate view is keyed by its own name everywhere."""

    def test_a_transaction_leaves_the_view_stale(self, manager):
        manager.define_view("rev", AGG_SQL)
        with obs.observed():
            manager.execute_sql("INSERT INTO orders VALUES ('e', 1)")
            views = manager.obs_snapshot()["views"]
        assert views["rev"]["staleness"]["pending_entries"] > 0

    def test_a_refresh_is_one_lock_section(self, manager):
        manager.define_view("rev", AGG_SQL)
        with obs.observed():
            manager.execute_sql("INSERT INTO orders VALUES ('e', 1)")
            manager.refresh("rev")
            views = manager.obs_snapshot()["views"]
        assert set(views) == {"rev"}
        assert views["rev"]["downtime"]["lock_sections"] == 1
        assert views["rev"]["staleness"]["pending_entries"] == 0
        assert len(manager.ledger.sections) == 1

    def test_partial_first_is_not_offered(self, manager):
        manager.define_view("rev", AGG_SQL)
        with pytest.raises(ValueError, match="partial_first"):
            manager.scenario("rev").refresh(order="partial_first")

    def test_a_policy_keeps_the_view_equal_to_a_recompute(self, manager):
        server = ViewServer(ServeConfig(policy=PeriodicRefresh(m=2)), manager=manager)
        server.define_view("rev", AGG_SQL)
        ran = []
        for tick in range(1, 7):
            txn = UserTransaction(manager.db).insert("orders", [("e", tick), ("n", tick)])
            if tick % 3 == 0:
                txn.delete("orders", [("w", 7)])
            ran += server.tick([txn])
            assert manager.is_stale("rev") == bool(tick % 2)
        assert manager.query("rev") == manager.scenario("rev").expected()
        assert ran == [("rev", "refresh")] * 3

    def test_served_under_policy_2(self, manager):
        server = ViewServer(manager=manager)  # default Policy2(k=2, m=7)
        server.define_view("rev", AGG_SQL)
        for tick in range(1, 8):  # writes at ticks 1-4; propagate at 6, partial refresh at 7
            txn = UserTransaction(manager.db).insert("orders", [("e", tick), ("n", tick)])
            server.tick([txn] if tick <= 4 else [])
            if tick == 6:
                assert server.read("rev") != manager.scenario("rev").expected()
        with server.pin() as handle:
            pinned = server.read_at(handle, "rev")
        assert pinned == manager.scenario("rev").expected()
        assert ("n", 4, 10) in pinned


class TestShell:
    def test_cli_aggregate_view(self):
        from repro.cli import WarehouseShell

        shell = WarehouseShell()
        shell.handle_line("CREATE TABLE orders (region, amount);")
        shell.handle_line("INSERT INTO orders VALUES ('e', 10), ('w', 7);")
        out = shell.handle_line(
            "CREATE VIEW rev AS SELECT region, COUNT(*), SUM(amount) AS total "
            "FROM orders GROUP BY region;"
        )
        assert "materialized" in out
        shell.handle_line("INSERT INTO orders VALUES ('e', 5);")
        shell.handle_line(".refresh rev")
        result = shell.handle_line("SELECT region, total FROM rev;")
        assert "15" in result

    def test_cli_aggregate_view_is_a_managed_combined_view(self):
        from repro.cli import WarehouseShell

        shell = WarehouseShell()
        shell.handle_line("CREATE TABLE orders (region, amount);")
        shell.handle_line("INSERT INTO orders VALUES ('e', 10), ('w', 7);")
        shell.handle_line("CREATE VIEW rev AS SELECT region, SUM(amount) FROM orders GROUP BY region;")
        assert shell.manager.scenario("rev").tag == "AGG"
        plan = shell.handle_line(".plan rev")
        assert plan.startswith("refresh plan for rev") and "▼" in plan and "▲" in plan
        shell.handle_line(".scenario immediate")
        out = shell.handle_line("CREATE VIEW other AS SELECT region, COUNT(*) FROM orders GROUP BY region;")
        assert out.startswith("error:") and "combined" in out
        assert shell.manager.views() == ("rev",)
