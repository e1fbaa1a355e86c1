"""Integration: a full warehouse lifecycle across every feature.

One simulated "business day" combines everything the library offers:
plain, computed, EXCEPT and aggregate views over two domains, SQL DML
(including UPDATE), a policy on the view server, mid-day persistence, view
drops, scoped refresh — with invariants checked continuously and final
contents validated against from-scratch recomputation and SQLite.
"""

import pytest

from repro.algebra.predicates import Comparison, attr, const
from repro.core.policies import Policy2
from repro.extensions.scoped import scoped_query
from repro.serve import ServeConfig, ViewServer
from repro.storage.persistence import load_database, save_database
from repro.storage.sqlite_backend import SQLiteBackend
from repro.warehouse import ViewManager
from repro.workloads.retail import RetailConfig, RetailWorkload


@pytest.fixture
def warehouse():
    workload = RetailWorkload(RetailConfig(customers=40, initial_sales=200, txn_inserts=6, seed=77))
    manager = ViewManager()
    manager.create_table("customer", ["custId", "name", "address", "score"])
    manager.create_table("sales", ["custId", "itemNo", "quantity", "salesPrice"])
    manager.load("customer", workload.customer_rows())
    manager.load("sales", workload.initial_sales_rows())
    return manager, workload


VIEWS = {
    "high_value": (
        """SELECT c.custId, s.itemNo, s.quantity FROM customer c, sales s
           WHERE c.custId = s.custId AND c.score = 'High' AND s.quantity != 0""",
        "combined",
    ),
    "revenue": (
        """SELECT s.custId, s.quantity * s.salesPrice AS amount FROM sales s
           WHERE s.quantity > 0""",
        "diff_table",
    ),
    "idle_customers": (
        "SELECT DISTINCT custId FROM customer EXCEPT SELECT DISTINCT custId FROM sales",
        "base_log",
    ),
}


def define_all(manager):
    for name, (sql, scenario) in VIEWS.items():
        manager.define_view(name, sql, scenario=scenario)
    manager.define_view(
        "qty_by_customer",
        "SELECT custId, COUNT(*), SUM(quantity) AS qty FROM sales GROUP BY custId",
    )


def verify_all(manager):
    manager.check_invariants()
    manager.refresh_all()
    for name, (sql, __) in VIEWS.items():
        from repro.sqlfront import sql_to_view

        expected = manager.db.evaluate(sql_to_view(sql, manager.db, name=name).query)
        assert manager.query(name) == expected, name
    agg = manager.scenario("qty_by_customer")
    assert agg.is_consistent()


def test_full_day(warehouse, tmp_path):
    manager, workload = warehouse
    define_all(manager)

    # Morning: a burst of point-of-sale transactions.
    for txn in workload.transactions(manager.db, 25):
        manager.execute(txn)
    manager.check_invariants()

    # Midday corrections via SQL, one simultaneous script.
    manager.execute_sql(
        "UPDATE sales SET quantity = quantity + 1 WHERE custId = 0;"
        "DELETE FROM sales WHERE quantity = 0;"
        "INSERT INTO sales VALUES (1, 999, 3, 12.5)"
    )
    manager.check_invariants()

    # An analyst needs just one customer's slice fresh, immediately.
    combined = manager.scenario("high_value")
    fresh_slice = scoped_query(combined, Comparison("=", attr("custId"), const(1)))
    assert all(row[0] == 1 for row in fresh_slice.support)
    manager.check_invariants()

    # Snapshot the warehouse to disk mid-day and restore it.
    path = tmp_path / "midday.db"
    save_database(manager.db, path)
    restored = load_database(path)
    assert restored.snapshot() == manager.db.snapshot()

    # Afternoon traffic, then full verification.
    for txn in workload.transactions(manager.db, 25):
        manager.execute(txn)
    verify_all(manager)

    # Cross-check one refreshed view against SQLite.
    from repro.sqlfront import sql_to_view

    view = sql_to_view(VIEWS["high_value"][0], manager.db, name="high_value")
    with SQLiteBackend() as backend:
        backend.sync_from(manager.db)
        assert backend.evaluate(view.query) == manager.query("high_value")

    # Evening: drop a view; traffic continues unaffected.
    manager.drop_view("idle_customers")
    for txn in workload.transactions(manager.db, 10):
        manager.execute(txn)
    manager.check_invariants()
    manager.refresh_all()
    assert not any(manager.is_stale(name) for name in manager.views())


def test_policy_driven_day(warehouse):
    manager, workload = warehouse
    server = ViewServer(ServeConfig(policy=Policy2(k=2, m=6)), manager=manager)
    server.define_view("high_value", VIEWS["high_value"][0], scenario="combined")
    ran = []
    for tick in range(1, 25):
        ran += server.tick([workload.next_transaction(manager.db)])
        manager.check_invariants()
    assert ran.count(("high_value", "partial_refresh")) == 4
    assert ran.count(("high_value", "propagate")) >= 12
    manager.refresh("high_value")
    assert not manager.is_stale("high_value")
