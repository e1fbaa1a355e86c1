"""Atomic snapshot writes and the retry-with-backoff helper."""

import random
import sqlite3

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.expr import Literal
from repro.errors import SnapshotError
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.storage.database import Database
from repro.storage.persistence import (
    RETRY_POLICY,
    RetryPolicy,
    holds_snapshot,
    load_database,
    save_database,
    track_deltas,
    with_retry,
)


def wal_path(path):
    """The write-ahead log SQLite keeps next to a file open in WAL mode."""
    return path.with_name(path.name + "-wal")


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.fixture
def db():
    database = Database()
    database.create_table("R", ["a"], rows=[(1,), (2,)])
    return database


class TestWithRetry:
    def test_passes_through_result(self):
        assert with_retry(lambda: 42) == 42

    def test_retries_locked_errors_with_exponential_backoff(self):
        delays = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 4:
                raise sqlite3.OperationalError("database is locked")
            return "done"

        assert with_retry(flaky, base_delay=0.01, sleep=delays.append) == "done"
        # Exponential base with bounded jitter: base * 2**k, stretched
        # by at most the policy's jitter fraction (decorrelates a herd
        # of writers retrying against one locked file).
        assert len(delays) == 3
        for attempt, delay in enumerate(delays):
            floor = 0.01 * 2**attempt
            assert floor <= delay <= floor * 1.25, delays

    def test_gives_up_after_attempts(self):
        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            with_retry(always_locked, attempts=3, sleep=lambda _s: None)

    def test_non_transient_operational_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise sqlite3.OperationalError("no such table: x")

        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            with_retry(broken, sleep=lambda _s: None)
        assert len(attempts) == 1

    def test_other_exceptions_propagate(self):
        with pytest.raises(ValueError):
            with_retry(lambda: (_ for _ in ()).throw(ValueError("nope")), sleep=lambda _s: None)

    def test_first_try_success_builds_no_rng(self, monkeypatch):
        import repro.storage.persistence as persistence

        def refuse(*args):
            raise AssertionError("a first-try success seeded an rng")

        monkeypatch.setattr(persistence.random, "Random", refuse)
        assert RETRY_POLICY.run(lambda: "done") == "done"

    def test_injected_rng_sets_the_jitter(self):
        class Fixed(random.Random):
            def random(self):
                return 0.5

        attempts, delays = [], []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "done"

        policy = RetryPolicy(base_delay=0.01, jitter=0.25)
        assert policy.run(flaky, sleep=delays.append, rng=Fixed()) == "done"
        assert delays == [0.01 * 1.125, 0.02 * 1.125]


class TestAtomicSave:
    def test_crash_before_replace_keeps_old_snapshot(self, db, tmp_path):
        path = tmp_path / "wh.db"
        save_database(db, path)
        db.load("R", [(3,)])
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(db, path)
        INJECTOR.reset()
        # The file is still *exactly* the previous snapshot: the
        # half-finished transaction rolled back with the connection.
        assert load_database(path)["R"] == Bag([(1,), (2,)])
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["wh.db"]

    def test_interrupted_save_can_be_repeated(self, db, tmp_path):
        path = tmp_path / "wh.db"
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(db, path)
        INJECTOR.reset()
        # The first transaction on a new file died: SQLite made the file,
        # no table reached it.
        assert path.exists() and not holds_snapshot(path)
        with pytest.raises(SnapshotError, match="no-catalog"):
            load_database(path)
        save_database(db, path)  # a file with no tables is started afresh
        assert load_database(path).snapshot() == db.snapshot()

    def test_transient_save_failures_are_retried(self, db, tmp_path):
        path = tmp_path / "wh.db"
        INJECTOR.arm_transient("flaky-save", times=2)
        save_database(db, path)  # two locked errors, then success
        assert not INJECTOR.armed()
        assert load_database(path).snapshot() == db.snapshot()

    def test_a_save_without_a_queue_drops_the_tables_db_lacks(self, db, tmp_path):
        path = tmp_path / "wh.db"
        save_database(db, path)
        other = Database()
        other.create_table("R", ["a", "b"], rows=[(1, 1)])  # same name, another schema
        other.create_table("T", ["a"], rows=[(3,)])
        save_database(other, path)
        assert load_database(path).snapshot() == other.snapshot()
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["wh.db"]  # folded and closed

    def test_load_records_durable_origin(self, db, tmp_path):
        path = tmp_path / "wh.db"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.durable_origin == path
        assert not loaded.journaled


class TestDifferentialSave:
    """Saves of a database that carries a delta queue for the file."""

    @staticmethod
    def tracked(tmp_path, rows=20):
        database = Database()
        database.create_table("R", ["a", "b"], rows=[(i, i % 3) for i in range(rows)])
        database.create_table("S", ["a"], rows=[(0,)])
        path = tmp_path / "wh.db"
        queue = track_deltas(database, path)
        save_database(database, path)  # first save of a queue: a full write
        return database, path, queue

    @staticmethod
    def patch(database, name, delete, insert):
        schema = database.schema_of(name)
        database.apply(patches={name: (Literal(Bag(delete), schema), Literal(Bag(insert), schema))})

    @staticmethod
    def stored_rows(path, name):
        conn = sqlite3.connect(path)
        try:
            return conn.execute(f'SELECT * FROM "{name}" ORDER BY rowid').fetchall()
        finally:
            conn.close()

    def test_patch_is_appended_with_signed_multiplicities(self, tmp_path):
        database, path, queue = self.tracked(tmp_path)
        before = self.stored_rows(path, "R")
        # (99, 9) is not there: the over-delete is clamped away, not written.
        self.patch(database, "R", [(0, 0), (99, 9)], [(50, 5), (50, 5)])
        save_database(database, path)
        assert self.stored_rows(path, "R") == before + [(0, 0, -1), (50, 5, 2)]
        assert (queue.rows_written, queue.rows_appended) == (21, 2)
        assert load_database(path).snapshot() == database.snapshot()

    def test_appended_file_loads_like_a_rewritten_one(self, tmp_path):
        database, path, _queue = self.tracked(tmp_path)
        self.patch(database, "R", [(1, 1), (2, 2)], [(7, 7)])
        self.patch(database, "R", [(7, 7)], [(1, 1)])  # nets to zero in the file
        database.set_table("S", database["S"].union_all(database["S"]))  # wholesale: swapped in
        save_database(database, path)
        rewritten = tmp_path / "full.db"
        save_database(database, rewritten)  # another path: always a full write
        assert load_database(path).snapshot() == load_database(rewritten).snapshot() == database.snapshot()
        assert self.stored_rows(rewritten, "S") == self.stored_rows(path, "S") == [(0, 2)]

    def test_crash_inside_the_append_transaction_keeps_pre_op_file(self, tmp_path):
        database, path, _queue = self.tracked(tmp_path)
        pre_op = database.snapshot()
        self.patch(database, "R", [(0, 0)], [(50, 5)])
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(database, path)
        INJECTOR.reset()
        assert load_database(path).snapshot() == pre_op
        save_database(database, path)  # the queue was not consumed: the retry lands
        assert load_database(path).snapshot() == database.snapshot()

    def test_crash_between_stage_and_replace_keeps_pre_op_file(self, tmp_path):
        database, path, _queue = self.tracked(tmp_path)
        pre_op = database.snapshot()
        database.create_table("T", ["a"], rows=[(1,)])  # catalog change: CREATE TABLE in the transaction
        self.patch(database, "R", [(0, 0)], [(50, 5)])
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(database, path)
        INJECTOR.reset()
        assert load_database(path).snapshot() == pre_op
        save_database(database, path)
        assert load_database(path).snapshot() == database.snapshot()

    def test_transient_append_failures_are_retried(self, tmp_path):
        database, path, _queue = self.tracked(tmp_path)
        self.patch(database, "R", [(0, 0)], [(50, 5)])
        INJECTOR.arm_transient("flaky-save", times=2)
        save_database(database, path)
        assert not INJECTOR.armed()
        assert load_database(path).snapshot() == database.snapshot()

    def test_rewrite_reasons(self, tmp_path):
        """Only the compaction rule rewrites: an untracked save and DDL
        are transactions like any other."""

        def reasons_of(action):
            with obs.observed() as stack:
                action()
                spans = stack.tracer.find("checkpoint_rewrite")
                return [span.attrs["reason"] for span in spans], stack.metrics.snapshot()

        database, path, queue = self.tracked(tmp_path, rows=4)
        untracked = Database()
        untracked.create_table("R", ["a"])
        assert reasons_of(lambda: save_database(untracked, tmp_path / "plain.db"))[0] == []

        self.patch(database, "R", [], [(50, 5)])
        reasons, metrics = reasons_of(lambda: save_database(database, path))
        assert reasons == [] and metrics["checkpoint_rows_appended"]["value"] == 1

        database.create_table("T", ["a"], rows=[(7,)])
        reasons, metrics = reasons_of(lambda: save_database(database, path))
        assert reasons == [] and metrics["checkpoint_rows_appended"]["value"] == 1
        assert (queue.rows_written, queue.rows_appended) == (5, 2)

        # Five rows were written whole, two appended since: the fourth
        # appended row past them tips the 2x rule.
        for value in range(3):
            self.patch(database, "R", [], [(value, 100)])
            assert reasons_of(lambda: save_database(database, path))[0] == []
        self.patch(database, "R", [], [(3, 100)])
        reasons, metrics = reasons_of(lambda: save_database(database, path))
        assert reasons == ["ratio"] and metrics['checkpoint_rewrites{reason="ratio"}']["value"] == 1
        assert (queue.rows_written, queue.rows_appended) == (11, 0)
        assert load_database(path).snapshot() == database.snapshot()


class TestSnapshotConnection:
    """The queue owns the snapshot file's one connection: WAL, ``synchronous=FULL``."""

    tracked = staticmethod(TestDifferentialSave.tracked)
    patch = staticmethod(TestDifferentialSave.patch)

    @staticmethod
    def files(tmp_path):
        return sorted(entry.name for entry in tmp_path.iterdir())

    def append(self, database, path, value):
        self.patch(database, "R", [], [(value, 100)])
        save_database(database, path)

    def test_appends_go_through_one_wal_connection_with_full_sync(self, tmp_path):
        database, path, queue = self.tracked(tmp_path)
        self.append(database, path, 50)
        conn = queue.connection()
        self.append(database, path, 51)
        assert queue.connection() is conn
        assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert conn.execute("PRAGMA synchronous").fetchone() == (2,)  # FULL
        assert not conn.in_transaction
        # Between checkpoints the last commits live in the log, and a
        # reader on another connection sees them.
        assert wal_path(path).stat().st_size > 0
        assert load_database(path).snapshot() == database.snapshot()

    def test_close_is_idempotent_and_leaves_one_self_contained_file(self, tmp_path):
        database, path, queue = self.tracked(tmp_path)
        self.append(database, path, 50)
        queue.close()
        queue.close()
        assert self.files(tmp_path) == ["wh.db"]
        copy = tmp_path / "copy.db"
        copy.write_bytes(path.read_bytes())
        assert load_database(copy).snapshot() == database.snapshot()
        self.append(database, path, 51)  # reopens on the next append
        queue.close()
        assert load_database(path).snapshot() == database.snapshot()

    def test_ddl_and_compaction_go_through_the_kept_connection(self, tmp_path):
        database, path, queue = self.tracked(tmp_path, rows=2)
        self.append(database, path, 50)
        conn = queue.connection()
        database.create_table("T", ["a"])
        database.drop_table("S")
        save_database(database, path)  # CREATE TABLE / DROP TABLE in place
        for value in range(51, 54):
            self.append(database, path, value)  # three rows written whole: the third append compacts
        assert (queue.rows_written, queue.rows_appended) == (6, 0)
        assert queue.connection() is conn and not conn.in_transaction
        # Still the one WAL file: bytes 18-19 of the header are 2 for WAL.
        assert path.read_bytes()[18:20] == b"\x02\x02"
        assert load_database(path).snapshot() == database.snapshot()
        queue.close()
        assert self.files(tmp_path) == ["wh.db"]

    def test_a_save_beside_a_live_reader_lands_and_the_reader_keeps_its_snapshot(self, tmp_path):
        database, path, queue = self.tracked(tmp_path)
        self.append(database, path, 50)
        reader = sqlite3.connect(path)
        try:
            reader.execute("BEGIN")
            rows = reader.execute('SELECT COUNT(*) FROM "R"').fetchone()
            database.create_table("T", ["a"], rows=[(1,)])
            self.patch(database, "R", [], [(value, 7) for value in range(100, 140)])  # compacts
            save_database(database, path)
            assert queue.rows_appended == 0
            # The reader's transaction still reads the snapshot it began on.
            assert reader.execute('SELECT COUNT(*) FROM "R"').fetchone() == rows
            assert reader.execute("SELECT COUNT(*) FROM __catalog__ WHERE name = 'T'").fetchone() == (0,)
            reader.execute("COMMIT")
        finally:
            reader.close()
        assert load_database(path).snapshot() == database.snapshot()
        queue.close()

    def test_a_full_write_folds_the_log_a_killed_process_left(self, tmp_path):
        database, path, queue = self.tracked(tmp_path)
        self.append(database, path, 50)
        # What a kill leaves: the main file plus a log holding the append.
        main, log = path.read_bytes(), wal_path(path).read_bytes()
        queue.close()
        killed = tmp_path / "killed.db"

        def kill_again():
            killed.write_bytes(main)
            wal_path(killed).write_bytes(log)

        kill_again()
        assert load_database(killed).snapshot() == database.snapshot()  # a reader replays the log
        kill_again()
        other = Database()
        other.create_table("Z", ["a"], rows=[(1,)])
        save_database(other, killed)  # replays the log, then drops what it held
        assert not wal_path(killed).exists()
        assert load_database(killed).snapshot() == other.snapshot()

    @pytest.mark.parametrize("point", ["flaky-save", "crash-mid-checkpoint"])
    def test_transient_errors_retry_without_a_dangling_transaction(self, tmp_path, point):
        """``crash-mid-checkpoint`` sits inside ``BEGIN``: a retry on a
        connection left there would raise "cannot start a transaction
        within a transaction"."""
        database, path, queue = self.tracked(tmp_path)
        self.append(database, path, 50)
        conn = queue.connection()
        self.patch(database, "R", [(0, 0)], [(51, 100)])
        INJECTOR.arm_transient(point, times=2)
        save_database(database, path)
        assert not INJECTOR.armed() and not queue.connection().in_transaction
        # Before the transaction the connection is kept; inside it, dropped.
        assert (queue.connection() is conn) == (point == "flaky-save")
        self.append(database, path, 52)
        assert load_database(path).snapshot() == database.snapshot()
        queue.close()

    def test_crash_inside_the_append_drops_the_connection(self, tmp_path):
        database, path, queue = self.tracked(tmp_path)
        self.append(database, path, 50)
        pre_op = database.snapshot()
        self.patch(database, "R", [(0, 0)], [(51, 100)])
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(database, path)
        INJECTOR.reset()
        assert load_database(path).snapshot() == pre_op
        save_database(database, path)
        assert not queue.connection().in_transaction
        assert load_database(path).snapshot() == database.snapshot()
        queue.close()
