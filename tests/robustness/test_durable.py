"""Tests for the durable warehouse wrapper (the write-ahead protocol)."""

import pytest

from repro.algebra.bag import Bag
from repro.errors import RecoveryError, SchemaError
from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import IntentJournal, journal_path
from repro.storage.persistence import holds_snapshot


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def make_warehouse(path) -> DurableWarehouse:
    warehouse = DurableWarehouse(path)
    warehouse.create_table("sales", ("custId", "qty"))
    warehouse.load("sales", [(1, 2), (2, 5), (1, 1)])
    warehouse.define_view("V", "SELECT custId, qty FROM sales WHERE qty != 1", scenario="combined")
    return warehouse


class TestConstruction:
    def test_fresh_path_writes_baseline_snapshot_and_journal(self, tmp_path):
        path = tmp_path / "wh.db"
        with DurableWarehouse(path) as warehouse:
            assert path.exists()
            assert journal_path(path).exists()
            assert warehouse.db.journaled
            assert warehouse.db.durable_origin == path

    def test_existing_path_requires_open(self, tmp_path):
        path = tmp_path / "wh.db"
        DurableWarehouse(path).close()
        with pytest.raises(RecoveryError, match="use DurableWarehouse.open"):
            DurableWarehouse(path)

    def test_a_baseline_that_died_before_commit_is_started_afresh(self, tmp_path):
        path = tmp_path / "wh.db"
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            DurableWarehouse(path)
        INJECTOR.reset()
        # The baseline's transaction created the file and rolled back.
        assert path.exists() and not holds_snapshot(path)
        with make_warehouse(path) as warehouse:
            expected = warehouse.query("V")
        with DurableWarehouse.open(path) as reopened:
            assert reopened.query("V") == expected

    def test_refuses_pending_intent(self, tmp_path):
        path = tmp_path / "wh.db"
        make_warehouse(path).close()
        with IntentJournal(journal_path(path)) as journal:
            journal.begin("refresh", view="V")
        with pytest.raises(RecoveryError, match="pending intent"):
            DurableWarehouse.open(path, auto_recover=False)

    def test_open_round_trips_state(self, tmp_path):
        path = tmp_path / "wh.db"
        warehouse = make_warehouse(path)
        expected = warehouse.query("V")
        warehouse.close()
        with DurableWarehouse.open(path) as reopened:
            assert reopened.views() == ("V",)
            assert reopened.query("V") == expected
            reopened.check_invariants()


class TestJournaledOps:
    def test_every_mutation_leaves_a_committed_record(self, tmp_path):
        path = tmp_path / "wh.db"
        warehouse = make_warehouse(path)
        warehouse.transaction().insert("sales", [(3, 9)]).run()
        warehouse.propagate("V")
        warehouse.partial_refresh("V")
        warehouse.refresh("V")
        warehouse.refresh_all()
        kinds = [record.kind for record in warehouse.journal.records()]
        statuses = {record.status for record in warehouse.journal.records()}
        assert kinds == [
            "ddl", "ddl", "ddl",  # create_table, load, define_view
            "txn", "propagate", "partial_refresh", "refresh", "refresh_all",
        ]
        assert statuses == {"committed"}
        warehouse.close()

    def test_transaction_journals_literal_deltas(self, tmp_path):
        warehouse = make_warehouse(tmp_path / "wh.db")
        warehouse.transaction().insert("sales", [(7, 7)]).delete("sales", [(1, 1)]).run()
        record = warehouse.journal.records()[-1]
        assert record.kind == "txn"
        assert record.payload["deltas"]["sales"]["insert"] == [[7, 7, 1]]
        assert record.payload["deltas"]["sales"]["delete"] == [[1, 1, 1]]
        warehouse.close()

    def test_token_gives_exactly_once(self, tmp_path):
        warehouse = make_warehouse(tmp_path / "wh.db")
        before = warehouse.sql("SELECT custId, qty FROM sales")
        assert warehouse.transaction(token="once").insert("sales", [(9, 9)]).run()
        after_first = warehouse.sql("SELECT custId, qty FROM sales")
        # A client retry of the same token is a no-op, not a double apply.
        assert not warehouse.transaction(token="once").insert("sales", [(9, 9)]).run()
        assert warehouse.sql("SELECT custId, qty FROM sales") == after_first
        assert len(after_first) == len(before) + 1
        warehouse.close()

    def test_execute_sql_and_query_fresh(self, tmp_path):
        warehouse = make_warehouse(tmp_path / "wh.db")
        warehouse.execute_sql("INSERT INTO sales VALUES (4, 40);")
        assert (4, 40) in warehouse.query_fresh("V")
        assert not warehouse.is_stale("V")
        warehouse.close()

    def test_checkpoint_persists_without_journal_record(self, tmp_path):
        path = tmp_path / "wh.db"
        warehouse = make_warehouse(path)
        count = len(warehouse.journal.records())
        warehouse.checkpoint()
        assert len(warehouse.journal.records()) == count
        warehouse.close()

    def test_drop_view_journaled_as_ddl(self, tmp_path):
        warehouse = make_warehouse(tmp_path / "wh.db")
        warehouse.drop_view("V")
        assert warehouse.views() == ()
        assert warehouse.journal.records()[-1].kind == "ddl"
        warehouse.close()


class TestRejectedOps:
    @pytest.mark.parametrize(
        "definition", ["SELECT nosuch FROM sales", "SELECT custId FROM __mv__V"]
    )
    def test_rejected_define_view_does_not_wedge_the_warehouse(self, tmp_path, definition):
        path = tmp_path / "wh.db"
        warehouse = make_warehouse(path)
        with pytest.raises(SchemaError):
            warehouse.define_view("W", definition)
        assert warehouse.journal.pending() is None
        assert warehouse.journal.records()[-1].status == "aborted"
        warehouse.execute_sql("INSERT INTO sales VALUES (4, 40);")
        assert warehouse.journal.records()[-1].status == "committed"
        warehouse.close()
        with DurableWarehouse.open(path) as reopened:
            assert reopened.views() == ("V",)
            assert (4, 40) in reopened.sql("SELECT custId, qty FROM sales")
            reopened.check_invariants()


class TestWatermarks:
    def test_maintenance_intents_record_log_watermark(self, tmp_path):
        warehouse = make_warehouse(tmp_path / "wh.db")
        warehouse.transaction().insert("sales", [(5, 3), (6, 4)]).run()
        warehouse.refresh("V")
        refresh_record = warehouse.journal.records()[-1]
        assert refresh_record.kind == "refresh"
        assert refresh_record.watermark is not None and refresh_record.watermark > 0
        warehouse.close()


def test_query_returns_bag(tmp_path):
    warehouse = make_warehouse(tmp_path / "wh.db")
    assert isinstance(warehouse.query("V"), Bag)
    warehouse.close()
