"""Scripted crash/recovery tests: one scenario per fault point."""

import pytest

from repro.core.ops import ACTIONS
from repro.errors import RecoveryError
from repro.exec import COMPILED, ENV_VAR, SQLITE, Executor
from repro.exec.pushdown import PushdownExecutor
from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import IntentJournal, bag_digest, journal_path
from repro.robustness.recovery import main as recover_main
from repro.robustness.recovery import recover
from repro.storage.persistence import staging_path
from repro.warehouse.manager import ViewManager


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def build(path) -> DurableWarehouse:
    warehouse = DurableWarehouse(path)
    warehouse.create_table("sales", ("custId", "qty"))
    warehouse.load("sales", [(1, 2), (2, 5), (1, 1), (3, 4)])
    warehouse.define_view("V", "SELECT custId, qty FROM sales WHERE qty != 1", scenario="combined")
    warehouse.transaction(token="seed-txn").insert("sales", [(4, 6)]).delete("sales", [(1, 1)]).run()
    return warehouse


def crash_during(warehouse: DurableWarehouse, point: str, op) -> None:
    """Arm ``point``, run ``op``, and simulate the process death."""
    INJECTOR.arm(point)
    with pytest.raises(InjectedCrash):
        op(warehouse)
    INJECTOR.reset()
    warehouse.close()  # only the fds; in-memory state is abandoned


def oracle_view(tmp_path):
    """The view contents of an uninterrupted identical run."""
    warehouse = build(tmp_path / "oracle.db")
    warehouse.refresh("V")
    contents = warehouse.query("V")
    warehouse.close()
    return contents


#: fault point → recovery action expected when a *refresh* is interrupted.
REFRESH_CASES = {
    "crash-before-journal": "none",           # nothing journaled, nothing ran
    "crash-after-journal": "rolled_forward",  # intent only; snapshot pre-op
    "crash-mid-refresh": "rolled_forward",    # died inside the critical section
    "crash-mid-apply": "rolled_forward",      # died mid Database.apply commit
    "crash-mid-checkpoint": "rolled_forward", # temp written, os.replace lost
    "crash-after-checkpoint": "already_applied",  # snapshot post-op, mark lost
    "crash-after-commit": "none",             # fully durable before the death
}


@pytest.mark.parametrize("point", sorted(REFRESH_CASES))
def test_refresh_crash_recovers_green(tmp_path, point):
    expected_action = REFRESH_CASES[point]
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, point, lambda w: w.refresh("V"))

    report = recover(path)
    assert report.action == expected_action
    assert report.green, report.format()

    # After recovery the warehouse reopens and matches an uninterrupted run,
    # modulo ops that never started (the client would simply retry those).
    reopened = DurableWarehouse.open(path, auto_recover=False)
    reopened.refresh("V")
    assert reopened.query("V") == oracle_view(tmp_path)
    reopened.check_invariants()
    reopened.close()


@pytest.mark.parametrize("point", ["crash-mid-execute", "crash-after-journal"])
def test_transaction_crash_rolls_forward_from_journaled_deltas(tmp_path, point):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(
        warehouse, point,
        lambda w: w.transaction(token="t-crash").insert("sales", [(9, 9)]).run(),
    )

    report = recover(path)
    assert report.action == "rolled_forward"
    assert report.green, report.format()

    reopened = DurableWarehouse.open(path, auto_recover=False)
    assert (9, 9) in reopened.sql("SELECT custId, qty FROM sales")
    # The replayed token is committed: a client retry is a no-op.
    assert not reopened.transaction(token="t-crash").insert("sales", [(9, 9)]).run()
    reopened.check_invariants()
    reopened.close()


def test_propagate_crash_rolls_forward(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, "crash-mid-propagate", lambda w: w.propagate("V"))
    report = recover(path)
    assert report.action == "rolled_forward"
    assert report.green, report.format()


#: journal kind -> an operation that writes an intent of that kind.
JOURNALED = {
    "txn": lambda w: w.transaction(token="t-crash").insert("sales", [(9, 9)]).run(),
    "propagate": lambda w: w.propagate("V"),
    "partial_refresh": lambda w: w.partial_refresh("V"),
    "refresh": lambda w: w.refresh("V"),
    "refresh_all": lambda w: w.refresh_all(),
    "refresh_group": lambda w: w.refresh_group(["V"], compact=False),
    "ddl": lambda w: w.create_table("items", ("itemNo", "price")),
}


def build_mid_deferral(path) -> DurableWarehouse:
    """``build`` plus pending differentials *and* a pending log."""
    warehouse = build(path)
    warehouse.propagate("V")
    warehouse.transaction(token="second-txn").insert("sales", [(5, 7), (1, 1)]).run()
    return warehouse


def all_digests(warehouse: DurableWarehouse) -> dict[str, str]:
    return {name: bag_digest(warehouse.db[name]) for name in warehouse.db.table_names()}


def test_every_replayable_kind_is_covered():
    assert set(JOURNALED) == set(ACTIONS) | {"ddl"}


@pytest.mark.parametrize("kind", sorted(JOURNALED))
def test_crash_after_intent_recovers_to_the_uninterrupted_state(tmp_path, kind):
    """Whatever the journal kind: intent on disk, op never ran, ``recover()``
    rebuilds the action and runs it — every table digest equals the
    uninterrupted run's.  DDL names no action and rolls back instead."""
    operation = JOURNALED[kind]
    oracle = build_mid_deferral(tmp_path / "oracle.db")
    if kind != "ddl":
        operation(oracle)
    expected = all_digests(oracle)
    oracle.close()

    path = tmp_path / "wh.db"
    warehouse = build_mid_deferral(path)
    crash_during(warehouse, "crash-after-journal", operation)
    journal = IntentJournal(journal_path(path))
    assert journal.pending().kind == kind
    journal.close()

    report = recover(path)
    assert report.action == ("rolled_back" if kind == "ddl" else "rolled_forward")
    assert report.green, report.format()
    reopened = DurableWarehouse.open(path, auto_recover=False)
    assert all_digests(reopened) == expected
    reopened.check_invariants()
    reopened.close()


def test_ddl_crash_rolls_back(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(
        warehouse, "crash-after-journal",
        lambda w: w.create_table("items", ("itemNo", "price")),
    )
    report = recover(path)
    assert report.action == "rolled_back"
    assert report.green, report.format()
    reopened = DurableWarehouse.open(path, auto_recover=False)
    assert not reopened.db.has_table("items")  # the DDL was undone
    reopened.close()


def test_ddl_that_reached_disk_is_kept(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(
        warehouse, "crash-after-checkpoint",
        lambda w: w.create_table("items", ("itemNo", "price")),
    )
    report = recover(path)
    assert report.action == "already_applied"
    reopened = DurableWarehouse.open(path, auto_recover=False)
    assert reopened.db.has_table("items")
    reopened.close()


def test_recovery_is_idempotent(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, "crash-mid-refresh", lambda w: w.refresh("V"))
    first = recover(path)
    assert first.action == "rolled_forward"
    second = recover(path)
    assert second.action == "none" and second.pending is None
    assert second.green


def test_crash_during_recovery_then_recover_again(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, "crash-mid-refresh", lambda w: w.refresh("V"))
    # Recovery itself dies inside the re-run refresh...
    INJECTOR.arm("crash-mid-refresh")
    with pytest.raises(InjectedCrash):
        recover(path)
    INJECTOR.reset()
    # ...and a second recovery still converges.
    report = recover(path)
    assert report.action == "rolled_forward"
    assert report.green, report.format()


def test_stray_staging_file_is_discarded(tmp_path):
    path = tmp_path / "wh.db"
    build(path).close()
    staged = staging_path(path)
    staged.write_bytes(b"torn half-written snapshot")
    staged.with_name(staged.name + "-journal").write_bytes(b"its rollback journal")
    report = recover(path)
    assert report.green
    # Recovery closes what it opens: the two durable files, no sidecars.
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["wh.db", "wh.db.journal"]


def test_close_is_idempotent_and_leaves_two_self_contained_files(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    warehouse.transaction(token="appended").insert("sales", [(5, 7)]).run()
    assert (tmp_path / "wh.db-wal").stat().st_size > 0  # the append lives in the log
    expected = warehouse.db.snapshot()
    warehouse.close()
    warehouse.close()
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["wh.db", "wh.db.journal"]
    # "Copy the files": the pair alone is the whole warehouse.
    copy = tmp_path / "copy" / "wh.db"
    copy.parent.mkdir()
    copy.write_bytes(path.read_bytes())
    journal_path(copy).write_bytes(journal_path(path).read_bytes())
    with DurableWarehouse.open(copy) as reopened:
        assert reopened.db.snapshot() == expected
        assert reopened.journal.has_committed("appended")


def test_open_auto_recovers(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, "crash-after-journal", lambda w: w.refresh("V"))
    reopened = DurableWarehouse.open(path)  # auto_recover=True resolves the intent
    assert reopened.journal.pending() is None
    reopened.check_invariants()
    reopened.close()


@pytest.mark.parametrize(
    "engine, process_default",
    [(COMPILED, SQLITE), (SQLITE, COMPILED)],
    ids=["compiled", "sqlite"],
)
def test_roll_forward_runs_on_the_engine_the_warehouse_is_opened_with(
    tmp_path, monkeypatch, engine, process_default
):
    path = tmp_path / "wh.db"
    warehouse = build(path)
    crash_during(warehouse, "crash-after-journal", lambda w: w.refresh("V"))
    expected = oracle_view(tmp_path)
    # The process default names the other engine: a roll-forward that
    # ignored the caller's exec_mode would run there.
    monkeypatch.setenv(ENV_VAR, process_default)
    rolled_forward_on = []
    run = ViewManager.run

    def spy(manager, action):
        rolled_forward_on.append(type(manager.db.executor))
        return run(manager, action)

    monkeypatch.setattr(ViewManager, "run", spy)
    with DurableWarehouse.open(path, exec_mode=engine) as reopened:
        assert reopened.journal.pending() is None
        reopened.check_invariants()
        assert reopened.query("V") == expected
    assert rolled_forward_on == [PushdownExecutor if engine == SQLITE else Executor]


def test_recover_missing_snapshot_raises(tmp_path):
    with pytest.raises(RecoveryError, match="nothing to recover"):
        recover(tmp_path / "absent.db")


def test_audit_reports_invariant_names(tmp_path):
    path = tmp_path / "wh.db"
    build(path).close()
    report = recover(path)
    assert [audit.invariant for audit in report.audits] == ["INV_C"]
    assert "INV_C holds" in report.format()


class TestCli:
    def test_green_recovery_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "wh.db"
        warehouse = build(path)
        crash_during(warehouse, "crash-mid-refresh", lambda w: w.refresh("V"))
        assert recover_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "rolled forward" in out and "GREEN" in out

    def test_usage(self, capsys):
        assert recover_main([]) == 2
        assert recover_main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_dispatch_through_repro_main(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "wh.db"
        build(path).close()
        assert main(["recover", str(path)]) == 0
        assert "journal clean" in capsys.readouterr().out


def test_pending_intent_blocks_new_ops_until_recovered(tmp_path):
    path = tmp_path / "wh.db"
    build(path).close()
    with IntentJournal(journal_path(path)) as journal:
        journal.begin("refresh", view="V")
    with pytest.raises(RecoveryError, match="pending intent"):
        DurableWarehouse.open(path, auto_recover=False)
    recover(path)
    reopened = DurableWarehouse.open(path, auto_recover=False)
    reopened.check_invariants()
    reopened.close()
