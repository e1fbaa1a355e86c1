"""Atomic snapshot writes and the retry-with-backoff helper."""

import sqlite3

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.expr import Literal
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.storage.database import Database
from repro.storage.persistence import (
    load_database,
    save_database,
    staging_path,
    track_deltas,
    with_retry,
)


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


class TestAtomicSave:
    def test_staging_path_is_a_sibling(self, tmp_path):
        assert staging_path(tmp_path / "wh.db") == tmp_path / "wh.db.saving"

    def test_crash_before_replace_keeps_old_snapshot(self, db, tmp_path):
        path = tmp_path / "wh.db"
        save_database(db, path)
        db.load("R", [(3,)])
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(db, path)
        INJECTOR.reset()
        # The visible file is still *exactly* the previous snapshot; the
        # half-finished write only ever touched the staging file.
        assert load_database(path)["R"] == Bag([(1,), (2,)])
        assert staging_path(path).exists()

    def test_interrupted_save_can_be_repeated(self, db, tmp_path):
        path = tmp_path / "wh.db"
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(db, path)
        INJECTOR.reset()
        save_database(db, path)  # stale staging file is overwritten
        assert load_database(path).snapshot() == db.snapshot()
        assert not staging_path(path).exists()

    def test_transient_save_failures_are_retried(self, db, tmp_path):
        path = tmp_path / "wh.db"
        INJECTOR.arm_transient("flaky-save", times=2)
        save_database(db, path)  # two locked errors, then success
        assert not INJECTOR.armed()
        assert load_database(path).snapshot() == db.snapshot()

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
        assert not staging_path(path).exists()
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
        assert not staging_path(path).exists()  # it was the append path that died
        assert load_database(path).snapshot() == pre_op
        save_database(database, path)  # the queue was not consumed: the retry lands
        assert load_database(path).snapshot() == database.snapshot()

    def test_crash_between_stage_and_replace_keeps_pre_op_file(self, tmp_path):
        database, path, _queue = self.tracked(tmp_path)
        pre_op = database.snapshot()
        database.create_table("T", ["a"], rows=[(1,)])  # catalog change: rewrite path
        self.patch(database, "R", [(0, 0)], [(50, 5)])
        INJECTOR.arm("crash-mid-checkpoint")
        with pytest.raises(InjectedCrash):
            save_database(database, path)
        INJECTOR.reset()
        assert staging_path(path).exists()
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
        def reasons_of(action):
            with obs.observed() as stack:
                action()
                spans = stack.tracer.find("checkpoint_rewrite")
                return [span.attrs["reason"] for span in spans], stack.metrics.snapshot()

        database, path, queue = self.tracked(tmp_path, rows=4)
        untracked = Database()
        untracked.create_table("R", ["a"])
        assert reasons_of(lambda: save_database(untracked, tmp_path / "plain.db"))[0] == ["untracked"]

        self.patch(database, "R", [], [(50, 5)])
        reasons, metrics = reasons_of(lambda: save_database(database, path))
        assert reasons == [] and metrics["checkpoint_rows_appended"]["value"] == 1

        database.create_table("T", ["a"])
        assert reasons_of(lambda: save_database(database, path))[0] == ["ddl"]
        assert queue.rows_appended == 0

        # Six rows are in the file; the seventh appended row tips the 2x rule.
        for value in range(6):
            self.patch(database, "R", [], [(value, 100)])
            assert reasons_of(lambda: save_database(database, path))[0] == []
        self.patch(database, "R", [], [(6, 100)])
        reasons, metrics = reasons_of(lambda: save_database(database, path))
        assert reasons == ["ratio"] and metrics["checkpoint_rewrites"]["value"] == 1
        assert (queue.rows_written, queue.rows_appended) == (13, 0)
        assert load_database(path).snapshot() == database.snapshot()
