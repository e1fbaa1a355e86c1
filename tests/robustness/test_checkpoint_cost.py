"""A durable operation's checkpoint pays for its delta and nothing else.

* The view catalog (``__viewdefs__``) is described again only when it
  changes: at ``define_view``, at ``drop_view`` and when a shared-log
  refresh moves a cursor.  A transaction's checkpoint, or a ``combined``
  view's propagate or refresh, describes no view, and the file still
  reloads with the same views and cursors.
* A durable transaction applies its evaluated deltas through bound
  leaves, so transactions of one shape share one plan: the executor's
  node table does not grow with the number of transactions.
"""

import pytest

from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR
from repro.warehouse import persistence
from repro.warehouse.persistence import load_warehouse


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.fixture
def described(monkeypatch):
    """The number of ``_describe`` calls so far, as a one-element list."""
    calls = [0]

    def counting(scenario):
        calls[0] += 1
        return DESCRIBE(scenario)

    monkeypatch.setattr(persistence, "_describe", counting)
    return calls


DESCRIBE = persistence._describe


def catalog(manager) -> dict:
    return {name: DESCRIBE(manager.scenario(name)) for name in manager.views()}


def build(path, exec_mode=None) -> DurableWarehouse:
    warehouse = DurableWarehouse(path, exec_mode=exec_mode)
    warehouse.create_table("sales", ("custId", "qty"))
    warehouse.load("sales", [(i, i % 7) for i in range(50)])
    warehouse.define_view("C", "SELECT custId, qty FROM sales WHERE qty != 1", scenario="combined")
    warehouse.define_view("S", "SELECT custId FROM sales WHERE qty > 2", scenario="shared_log")
    return warehouse


def insert(warehouse, step) -> None:
    warehouse.execute_sql(f"INSERT INTO sales VALUES ({1000 + step}, {step % 5});")


def describes(described, warehouse, op) -> int:
    """``_describe`` calls ``op`` made; the file reloads with the live catalog."""
    before = described[0]
    op(warehouse)
    calls = described[0] - before
    assert catalog(load_warehouse(warehouse.path)) == catalog(warehouse.manager)
    return calls


def test_a_transaction_and_combined_maintenance_describe_no_view(tmp_path, described):
    warehouse = build(tmp_path / "wh.db")
    insert(warehouse, 0)
    assert describes(described, warehouse, lambda w: insert(w, 1)) == 0
    assert describes(described, warehouse, lambda w: w.propagate("C")) == 0
    assert describes(described, warehouse, lambda w: w.refresh("C")) == 0
    warehouse.close()


def test_ddl_and_a_moved_cursor_describe_the_catalog_again(tmp_path, described):
    warehouse = build(tmp_path / "wh.db")

    def define(w):
        w.define_view("D", "SELECT custId FROM sales WHERE qty = 3", scenario="combined")

    assert describes(described, warehouse, define) >= 1
    insert(warehouse, 0)
    cursor = warehouse.scenario("S").cursor
    assert describes(described, warehouse, lambda w: w.refresh("S")) >= 1
    assert warehouse.scenario("S").cursor > cursor
    assert load_warehouse(warehouse.path).scenario("S").cursor == warehouse.scenario("S").cursor
    # A refresh over an empty slice leaves the cursor, and the catalog, alone.
    assert describes(described, warehouse, lambda w: w.refresh("S")) == 0
    assert describes(described, warehouse, lambda w: w.drop_view("D")) >= 1
    assert set(load_warehouse(warehouse.path).views()) == {"C", "S"}
    warehouse.close()


@pytest.mark.parametrize("mode", ["compiled", "sqlite"])  # the engines that cache plans
def test_a_durable_transaction_adds_no_plan_node(tmp_path, mode):
    warehouse = build(tmp_path / "wh.db", mode)
    insert(warehouse, 0)

    def replace(step):
        # Each script deletes the row the one before inserted: one shape.
        warehouse.execute_sql(
            f"INSERT INTO sales VALUES ({1000 + step}, {step % 5}); DELETE FROM sales WHERE custId = {999 + step};"
        )

    for step in range(1, 4):
        replace(step)
    nodes = warehouse.db.executor.cached_plans
    for step in range(4, 204):
        replace(step)
    assert warehouse.db.executor.cached_plans == nodes
    warehouse.close()
