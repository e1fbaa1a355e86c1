"""Unit tests for the write-ahead intent journal."""

import sqlite3

import pytest

from repro.algebra.bag import Bag
from repro.errors import RecoveryError
from repro.robustness import journal as journal_module
from repro.robustness.journal import (
    IntentJournal,
    bag_digest,
    deserialize_bag,
    journal_path,
    serialize_bag,
    table_digests,
)
from repro.storage.database import Database


@pytest.fixture
def journal(tmp_path):
    with IntentJournal(tmp_path / "wh.db.journal") as journal:
        yield journal


class TestDigests:
    def test_bag_digest_is_content_addressed(self):
        a = Bag([(1, "x"), (2, "y"), (1, "x")])
        b = Bag([(2, "y"), (1, "x"), (1, "x")])
        assert bag_digest(a) == bag_digest(b)

    def test_multiplicity_matters(self):
        assert bag_digest(Bag([(1,)])) != bag_digest(Bag([(1,), (1,)]))

    def test_table_digests_cover_all_tables(self):
        db = Database()
        db.create_table("R", ("a",), rows=[(1,)])
        db.create_table("S", ("b",), rows=[(2,)])
        digests = table_digests(db)
        assert set(digests) == {"R", "S"}
        assert digests["R"] == bag_digest(db["R"])

    def test_table_digests_subset(self):
        db = Database()
        db.create_table("R", ("a",))
        db.create_table("S", ("b",))
        assert set(table_digests(db, ["S"])) == {"S"}


class TestBagSerialization:
    def test_round_trip(self):
        bag = Bag([(1, "x", 2.5), (1, "x", 2.5), (3, "y", 0.0)])
        assert deserialize_bag(serialize_bag(bag)) == bag

    def test_empty(self):
        assert serialize_bag(Bag()) == []
        assert deserialize_bag([]) == Bag()

    def test_json_lists_become_rows(self):
        # JSON turns tuples into lists; decoding must restore tuples.
        assert deserialize_bag([[1, "x", 2]]) == Bag([(1, "x"), (1, "x")])


class TestJournalPath:
    def test_sibling_file(self, tmp_path):
        assert journal_path(tmp_path / "wh.db") == tmp_path / "wh.db.journal"


class TestLifecycle:
    def test_begin_commit(self, journal):
        op_id = journal.begin("refresh", view="V", payload={"watermark": 3})
        pending = journal.pending()
        assert pending is not None
        assert (pending.op_id, pending.kind, pending.view) == (op_id, "refresh", "V")
        assert pending.watermark == 3
        journal.commit_op(op_id)
        assert journal.pending() is None
        assert journal.records()[-1].status == "committed"

    def test_begin_abort(self, journal):
        op_id = journal.begin("ddl")
        journal.abort_op(op_id)
        assert journal.pending() is None
        assert journal.records()[-1].status == "aborted"

    def test_refuses_second_intent_while_pending(self, journal):
        journal.begin("refresh", view="V")
        with pytest.raises(RecoveryError, match="pending intent"):
            journal.begin("txn")

    def test_commit_requires_pending(self, journal):
        op_id = journal.begin("txn")
        journal.commit_op(op_id)
        with pytest.raises(RecoveryError, match="not pending"):
            journal.commit_op(op_id)
        with pytest.raises(RecoveryError, match="not pending"):
            journal.abort_op(op_id)

    def test_payload_round_trips(self, journal):
        payload = {"deltas": {"sales": {"insert": [[1, 2, 3]], "delete": []}}, "pre_digests": {"sales": "00"}}
        op_id = journal.begin("txn", payload=payload)
        assert journal.pending().payload == payload
        assert journal.pending().pre_digests == {"sales": "00"}
        journal.commit_op(op_id)

    def test_describe_mentions_view_and_watermark(self, journal):
        journal.begin("propagate", view="V", payload={"watermark": 7})
        text = journal.pending().describe()
        assert "propagate" in text and "'V'" in text and "watermark 7" in text


class TestDurability:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "wh.db.journal"
        with IntentJournal(path) as journal:
            committed = journal.begin("txn", token="t0")
            journal.commit_op(committed)
            journal.begin("refresh", view="V")
        with IntentJournal(path) as journal:
            assert journal.has_committed("t0")
            pending = journal.pending()
            assert pending is not None and pending.kind == "refresh"
            assert len(journal.records()) == 2


class TestTokens:
    def test_has_committed_only_after_commit(self, journal):
        op_id = journal.begin("txn", token="t1")
        assert not journal.has_committed("t1")
        journal.commit_op(op_id)
        assert journal.has_committed("t1")

    def test_aborted_token_not_committed(self, journal):
        op_id = journal.begin("txn", token="t2")
        journal.abort_op(op_id)
        assert not journal.has_committed("t2")

    def test_duplicate_committed_token_refused(self, journal):
        op_id = journal.begin("txn", token="t3")
        journal.commit_op(op_id)
        with pytest.raises(RecoveryError, match="already committed"):
            journal.begin("txn", token="t3")


class TestHistoryIndependence:
    """``begin``'s guards and ``has_committed`` probe indexes: an
    operation's journal cost must not grow with the journal's history."""

    @staticmethod
    def plan(journal, sql, params):
        rows = journal._conn.execute("EXPLAIN QUERY PLAN " + sql, params).fetchall()
        return [detail for *_ids, detail in rows]

    def test_begin_guards_search_the_partial_indexes(self, journal):
        plan = self.plan(journal, journal_module._BEGIN, ("txn", None, "t", "{}", "t"))
        assert not [step for step in plan if step.startswith("SCAN") and "CONSTANT ROW" not in step], plan
        assert any(journal_module._PENDING_INDEX in step for step in plan), plan
        assert any(journal_module._TOKEN_INDEX in step and "token=?" in step for step in plan), plan

    def test_has_committed_searches_the_token_index(self, journal):
        (step,) = self.plan(journal, journal_module._HAS_COMMITTED, ("t",))
        assert step.startswith("SEARCH") and journal_module._TOKEN_INDEX in step and "token=?" in step

    def test_pending_searches_the_pending_index(self, journal):
        journal.begin("refresh", view="V")
        executed = []
        journal._conn.set_trace_callback(executed.append)
        assert journal.pending().view == "V"
        journal._conn.set_trace_callback(None)
        (step,) = self.plan(journal, executed[-1], ())
        assert step.startswith("SEARCH") and journal_module._PENDING_INDEX in step

    def test_indexes_are_added_to_a_journal_written_without_them(self, tmp_path):
        path = tmp_path / "old.journal"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE __journal__ (op_id INTEGER PRIMARY KEY AUTOINCREMENT, kind TEXT NOT NULL,"
            " view TEXT, token TEXT, status TEXT NOT NULL, payload TEXT NOT NULL)"
        )
        conn.execute("INSERT INTO __journal__ (kind, token, status, payload) VALUES ('txn', 't-1', 'committed', '{}')")
        conn.commit()
        conn.close()
        with IntentJournal(path) as journal:
            names = {name for (name,) in journal._conn.execute("SELECT name FROM sqlite_master WHERE type = 'index'")}
            assert {journal_module._PENDING_INDEX, journal_module._TOKEN_INDEX} <= names
            assert journal._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert journal.has_committed("t-1") and not journal.has_committed("t-2")
            with pytest.raises(RecoveryError, match="already committed"):
                journal.begin("txn", token="t-1")


class TestConnection:
    def test_every_commit_is_synchronous_full_on_a_wal_connection(self, journal):
        assert journal._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert journal._conn.execute("PRAGMA synchronous").fetchone() == (2,)  # FULL

    def test_close_is_idempotent_and_leaves_one_file(self, tmp_path):
        journal = IntentJournal(tmp_path / "wh.db.journal")
        journal.commit_op(journal.begin("txn", token="t"))
        assert (tmp_path / "wh.db.journal-wal").stat().st_size > 0
        journal.close()
        journal.close()
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["wh.db.journal"]
        with IntentJournal(tmp_path / "wh.db.journal") as reopened:
            assert reopened.has_committed("t")
