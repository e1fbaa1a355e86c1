"""Reason-coded durability events: a recovery counts what it did, a full
checkpoint rewrite why it was needed (``docs/recovery.md``) — one test
per label, each asserting its own event and no other."""

import pytest

from repro import obs
from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.recovery import recover
from repro.storage.database import Database
from repro.storage.persistence import save_database


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def build(path) -> DurableWarehouse:
    warehouse = DurableWarehouse(path)
    warehouse.create_table("sales", ("custId", "qty"))
    warehouse.load("sales", [(i, i % 3) for i in range(4)])
    warehouse.define_view("V", "SELECT custId FROM sales WHERE qty != 1", scenario="combined")
    return warehouse


def insert(warehouse) -> None:
    warehouse.transaction().insert("sales", [(100 + i, 2) for i in range(25)]).run()


def family(metrics: dict, name: str) -> dict:
    """The counts of one labelled counter family, by full metric name."""
    return {key: entry["value"] for key, entry in metrics.items() if key.startswith(name + "{")}


#: action -> (fault point, the operation it interrupts), or None: no crash.
CRASHES = {
    "none": None,
    "rolled_forward": ("crash-after-journal", insert),
    "already_applied": ("crash-after-checkpoint", insert),
    "rolled_back": ("crash-mid-checkpoint", lambda w: w.create_table("items", ("itemNo",))),
}


@pytest.mark.parametrize("action", sorted(CRASHES))
def test_each_recovery_counts_its_action(tmp_path, action):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    if CRASHES[action] is not None:
        point, op = CRASHES[action]
        INJECTOR.arm(point)
        with pytest.raises(InjectedCrash):
            op(warehouse)
        INJECTOR.reset()
    warehouse.close()
    with obs.observed() as stack:
        report = recover(path)
        metrics = stack.metrics.snapshot()
    assert report.action == action and report.green, report.format()
    assert family(metrics, "recoveries") == {f'recoveries{{action="{action}"}}': 1}


def test_a_ddl_checkpoint_counts_its_rewrite(tmp_path):
    warehouse = build(tmp_path / "wh.db")
    with obs.observed() as stack:
        warehouse.create_table("items", ("itemNo",))
        metrics = stack.metrics.snapshot()
    warehouse.close()
    assert family(metrics, "checkpoint_rewrites") == {'checkpoint_rewrites{reason="ddl"}': 1}


def test_a_ratio_checkpoint_counts_its_rewrite(tmp_path):
    warehouse = build(tmp_path / "wh.db")
    with obs.observed() as stack:
        insert(warehouse)  # 50 rows appended to a file of a dozen
        metrics = stack.metrics.snapshot()
    warehouse.close()
    assert family(metrics, "checkpoint_rewrites") == {'checkpoint_rewrites{reason="ratio"}': 1}


def test_a_reopened_warehouse_counts_its_recovery_rewrite(tmp_path):
    path = tmp_path / "wh.db"
    build(path).close()
    reopened = DurableWarehouse.open(path)
    with obs.observed() as stack:
        reopened.transaction().insert("sales", [(100, 2)]).run()
        metrics = stack.metrics.snapshot()
    reopened.close()
    assert family(metrics, "checkpoint_rewrites") == {'checkpoint_rewrites{reason="recovery"}': 1}


def test_an_untracked_save_counts_its_rewrite(tmp_path):
    db = Database()
    db.create_table("R", ["a"], rows=[(1,)])
    with obs.observed() as stack:
        save_database(db, tmp_path / "plain.db")
        metrics = stack.metrics.snapshot()
    assert family(metrics, "checkpoint_rewrites") == {'checkpoint_rewrites{reason="untracked"}': 1}
