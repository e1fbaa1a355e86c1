"""Recovery classifies by the op id a checkpoint is stamped with.

Every checkpoint stamps the snapshot, in its own transaction, with the
id of the journal intent it completes (0 for none).  Recovery calls a
pending intent ``already_applied`` exactly when the snapshot carries its
id — an identity operation included, which no comparison of table
contents can tell apart from its pre-state — and hashes no table to get
there.
"""

import sqlite3

import pytest

from repro import obs
from repro.errors import RecoveryError
from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import bag_digest, journal_path
from repro.robustness.recovery import recover
from repro.storage.persistence import checkpoint_op
from repro.warehouse.persistence import load_warehouse

VIEW_SQL = "SELECT custId, qty FROM sales WHERE qty != 1"


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def build(path) -> DurableWarehouse:
    warehouse = DurableWarehouse(path)
    warehouse.create_table("sales", ("custId", "qty"))
    warehouse.load("sales", [(i, i % 7) for i in range(60)])
    warehouse.define_view("V", VIEW_SQL, scenario="combined")
    return warehouse


def crash_during(warehouse, point, op) -> None:
    INJECTOR.arm(point)
    with pytest.raises(InjectedCrash):
        op(warehouse)
    INJECTOR.reset()
    warehouse.close()


def digests(db) -> dict[str, str]:
    return {name: bag_digest(db[name]) for name in db.table_names()}


def test_each_checkpoint_is_stamped_with_the_intent_it_completes(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    for op in (
        lambda: warehouse.transaction().insert("sales", [(8, 8)]).run(),  # appended
        lambda: warehouse.refresh("V"),
        lambda: warehouse.create_table("items", ("itemNo",)),  # rewritten
    ):
        op()
        assert checkpoint_op(path) == warehouse.journal.records()[-1].op_id
    warehouse.checkpoint()  # not journaled: completes no intent
    assert checkpoint_op(path) == 0
    warehouse.close()


def test_an_identity_refresh_crashed_after_its_checkpoint_is_already_applied(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    warehouse.refresh("V")  # the logs are empty from here on
    before = digests(warehouse.db)
    crash_during(warehouse, "crash-after-checkpoint", lambda w: w.refresh("V"))

    report = recover(path)
    assert report.action == "already_applied" and report.green, report.format()
    assert digests(load_warehouse(path).db) == before
    assert recover(path).action == "none"


def test_a_durable_stream_and_its_recovery_hash_no_row(tmp_path):
    path = tmp_path / "wh.db"
    with obs.observed() as stack:
        warehouse = build(path)
        for step in range(6):
            warehouse.execute_sql(f"INSERT INTO sales VALUES ({100 + step}, 3); DELETE FROM sales WHERE custId = {step};")
            warehouse.propagate("V") if step % 2 else warehouse.partial_refresh("V")
        warehouse.refresh_all()
        crash_during(warehouse, "crash-after-journal", lambda w: w.transaction().insert("sales", [(999, 2)]).run())
        report = recover(path)
        metrics = stack.metrics.snapshot()
    assert report.action == "rolled_forward" and report.green, report.format()
    assert metrics.get("digest_rows_hashed", {}).get("value", 0) == 0
    assert metrics["journal_fsyncs"]["value"] > 0  # telemetry was on


def test_an_unstamped_snapshot_under_a_pending_intent_fails_closed(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, "crash-after-checkpoint", lambda w: w.transaction().insert("sales", [(7, 3)]).run())
    # What a snapshot written without stamps looks like.
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA application_id = 0")
    conn.execute("PRAGMA user_version = 0")
    conn.close()
    assert checkpoint_op(path) is None
    files = (path, journal_path(path))
    before = [file.read_bytes() for file in files]

    with pytest.raises(RecoveryError, match=str(path)):
        recover(path)
    assert [file.read_bytes() for file in files] == before
    with pytest.raises(RecoveryError, match="pending intent"):
        DurableWarehouse.open(path, auto_recover=False)
