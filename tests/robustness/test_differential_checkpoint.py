"""Durability that tracks the delta: folded digests and appended checkpoints.

A :class:`DurableWarehouse` digests its tables once per operation, by
folding the operation's patches into cached digests, and checkpoints by
appending those patches to the snapshot file.  Recovery, in another
process, has neither cache nor queue: it digests the loaded file from
scratch.  These tests hold the two sides to each other.
"""

import sqlite3

import pytest

from repro import obs
from repro.robustness import durable
from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import bag_digest, table_digests
from repro.robustness.recovery import recover
from repro.storage.persistence import staging_path
from repro.warehouse.persistence import load_warehouse

VIEW_SQL = "SELECT custId, qty FROM sales WHERE qty != 1"


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def build(path, base_rows=200) -> DurableWarehouse:
    """A warehouse whose base is big enough that small ops append."""
    warehouse = DurableWarehouse(path)
    warehouse.create_table("sales", ("custId", "qty"))
    warehouse.load("sales", [(i, i % 7) for i in range(base_rows)])
    warehouse.define_view("V", VIEW_SQL, scenario="combined")
    return warehouse


def batch(start, count=25):
    return [(10_000 + start + i, 2 + i % 5) for i in range(count)]


def scratch_digests(db) -> dict[str, str]:
    return {name: bag_digest(db[name]) for name in db.table_names()}


def file_digests(path) -> dict[str, str]:
    """What a recovering process computes: load the file, digest from scratch."""
    return scratch_digests(load_warehouse(path).db)


def crash_during(warehouse, point, op) -> None:
    INJECTOR.arm(point)
    with pytest.raises(InjectedCrash):
        op(warehouse)
    INJECTOR.reset()
    warehouse.close()


def test_folded_digests_track_the_file_across_a_mixed_run(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    for step in range(6):
        warehouse.transaction().insert("sales", batch(100 * step)).delete("sales", [(step, step % 7)]).run()
        if step % 2:
            warehouse.propagate("V")
        if step == 3:
            warehouse.refresh("V")
        live = table_digests(warehouse.db)
        assert live == scratch_digests(warehouse.db) == file_digests(path)
    warehouse.close()


def test_each_operation_digests_once(tmp_path, monkeypatch):
    calls = []
    real = durable.table_digests
    monkeypatch.setattr(durable, "table_digests", lambda *args: calls.append(1) or real(*args))
    warehouse = build(tmp_path / "wh.db")
    ops = [
        lambda: warehouse.transaction().insert("sales", batch(0)).run(),
        lambda: warehouse.execute_sql("INSERT INTO sales VALUES (777, 3);"),
        lambda: warehouse.propagate("V"),
        lambda: warehouse.partial_refresh("V"),
        lambda: warehouse.refresh("V"),
        warehouse.refresh_all,
        warehouse.refresh_group,
        lambda: warehouse.create_table("other", ("a",)),
        lambda: warehouse.drop_view("V"),
    ]
    assert len(calls) == 3  # create_table, load, define_view
    for op in ops:
        calls.clear()
        op()
        assert len(calls) == 1, op
    warehouse.close()


def test_retry_of_a_committed_token_costs_one_journal_lookup(tmp_path, monkeypatch):
    warehouse = build(tmp_path / "wh.db")
    assert warehouse.transaction(token="once").insert("sales", batch(0)).run()
    records = len(warehouse.journal.records())

    def must_not_run(*args, **kwargs):
        raise AssertionError("a retried transaction was evaluated or digested")

    monkeypatch.setattr(warehouse.db, "evaluate", must_not_run)
    monkeypatch.setattr(durable, "table_digests", must_not_run)
    monkeypatch.setattr(durable, "serialize_bag", must_not_run)
    monkeypatch.setattr(warehouse.journal, "pending", must_not_run)
    assert not warehouse.transaction(token="once").insert("sales", batch(0)).run()
    assert not warehouse.execute_sql("INSERT INTO sales VALUES (1, 1);", token="once")
    assert len(warehouse.journal.records()) == records
    warehouse.close()


def test_crash_inside_the_append_transaction_leaves_the_pre_op_state(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    warehouse.transaction().insert("sales", batch(0)).run()
    pre_op = table_digests(warehouse.db)  # folded, as journaled in the next intent
    crash_during(
        warehouse, "crash-mid-checkpoint",
        lambda w: w.transaction(token="t").insert("sales", batch(500)).delete("sales", [(3, 3)]).run(),
    )
    assert not staging_path(path).exists()  # it died in the append path
    assert file_digests(path) == pre_op

    report = recover(path)
    assert report.action == "rolled_forward" and report.green, report.format()
    reopened = DurableWarehouse.open(path, auto_recover=False)
    sales = reopened.sql("SELECT custId, qty FROM sales")
    assert set(batch(500)) <= set(sales) and (3, 3) not in sales
    assert not reopened.transaction(token="t").insert("sales", batch(500)).run()
    reopened.check_invariants()
    reopened.close()


def test_crash_between_stage_and_replace_leaves_the_pre_op_state(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    warehouse.transaction().insert("sales", batch(0)).run()
    pre_op = table_digests(warehouse.db)
    crash_during(warehouse, "crash-mid-checkpoint", lambda w: w.create_table("items", ("itemNo",)))
    assert staging_path(path).exists()  # DDL takes the rewrite path
    assert file_digests(path) == pre_op

    report = recover(path)
    assert report.action == "rolled_back" and report.green, report.format()
    assert not staging_path(path).exists()
    assert file_digests(path) == pre_op


@pytest.mark.parametrize(
    "point, action",
    [
        ("crash-after-journal", "rolled_forward"),
        ("crash-mid-apply", "rolled_forward"),
        ("crash-mid-checkpoint", "rolled_forward"),
        ("crash-after-checkpoint", "already_applied"),
    ],
)
def test_recovery_classifies_against_incrementally_taken_digests(tmp_path, point, action):
    # The intent's pre-digests have been folded through a dozen patches
    # per table; recovery's side of the comparison is from scratch.
    path = tmp_path / "wh.db"
    oracle = build(tmp_path / "oracle.db")
    warehouse = build(path)
    for target in (oracle, warehouse):
        for step in range(4):
            target.transaction().insert("sales", batch(100 * step)).delete("sales", [(step, step % 7)]).run()
            target.propagate("V")
        target.partial_refresh("V")
    last = lambda w: w.transaction(token="last").insert("sales", batch(900)).delete("sales", batch(0, 3)).run()
    last(oracle)
    crash_during(warehouse, point, last)

    report = recover(path)
    assert report.action == action and report.green, report.format()
    assert file_digests(path) == scratch_digests(oracle.db)
    oracle.close()


def test_a_small_transaction_hashes_and_writes_rows_in_proportion_to_its_delta(tmp_path):
    """O(|Δ|) durability: the same 25-row transaction at a 150-row and a 15 000-row base."""
    readings = {}
    for base_rows in (150, 15_000):
        warehouse = build(tmp_path / f"wh{base_rows}.db", base_rows)
        warehouse.transaction().insert("sales", batch(0)).run()  # leaves the post-DDL rewrite behind
        with obs.observed() as stack:
            warehouse.transaction().insert("sales", batch(100)).run()
            metrics = stack.metrics.snapshot()
            assert not stack.tracer.find("checkpoint_rewrite")
        readings[base_rows] = (
            metrics["digest_rows_hashed"]["value"],
            metrics["checkpoint_rows_appended"]["value"],
        )
        assert not [name for name in metrics if name.startswith("checkpoint_rewrites")]
        warehouse.close()
    # 25 rows into ``sales`` and 25 into the view's insert log (the
    # hashing is the fold of the previous, equally sized transaction):
    # nothing that grows with the base.
    assert readings[150] == readings[15_000]
    hashed, appended = readings[150]
    assert 25 <= hashed <= 4 * 25 and 25 <= appended <= 4 * 25


def test_first_checkpoint_after_reopen_is_a_rewrite_for_recovery(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    warehouse.transaction().insert("sales", batch(0)).run()
    warehouse.close()
    reopened = DurableWarehouse.open(path)
    with obs.observed() as stack:
        reopened.transaction().insert("sales", batch(100)).run()
        reopened.transaction().insert("sales", batch(200)).run()
        reasons = [span.attrs["reason"] for span in stack.tracer.find("checkpoint_rewrite")]
    assert reasons == ["recovery"]  # then appends again
    assert table_digests(reopened.db) == file_digests(path)
    reopened.close()


def test_a_stream_of_checkpoints_opens_the_snapshot_once_per_rewrite(tmp_path, monkeypatch):
    """The count guard of the kept connection: 200 scripts, 20 refreshes,
    two ``ratio`` rewrites — three ``sqlite3.connect``\\ s on the snapshot
    path, not one per checkpoint; rows and fsyncs as they always were."""
    path = tmp_path / "wh.db"
    warehouse = build(path, base_rows=2000)  # ends on define_view: a rewrite, connection closed
    connects = []
    real_connect = sqlite3.connect
    monkeypatch.setattr(
        sqlite3, "connect", lambda database, *args, **kw: connects.append(str(database)) or real_connect(database, *args, **kw)
    )
    ops = 0
    with obs.observed() as stack:
        for step in range(200):
            rows = ", ".join(f"({10_000 + 25 * step + i}, {2 + i % 5})" for i in range(25))
            warehouse.execute_sql(f"INSERT INTO sales VALUES {rows}; DELETE FROM sales WHERE custId = {step};")
            ops += 1
            if step % 10 == 9:
                warehouse.refresh("V")
                ops += 1
        metrics = {name: entry.get("value") for name, entry in stack.metrics.snapshot().items()}
        reasons = [span.attrs["reason"] for span in stack.tracer.find("checkpoint_rewrite")]
    assert reasons == ["ratio", "ratio"]
    opens = connects.count(str(path))
    assert opens == metrics["snapshot_connections_opened"] == 1 + metrics['checkpoint_rewrites{reason="ratio"}'] == 3
    # Everything else that connected staged a rewrite.
    assert set(connects) == {str(path), str(staging_path(path))} and len(connects) == opens + 2
    assert metrics["journal_fsyncs"] == 2 * ops
    assert metrics["checkpoint_rows_appended"] == 15_054  # as before the connection was kept
    assert table_digests(warehouse.db) == file_digests(path)
    warehouse.close()
