"""Durable storage: save and load :class:`Database` states to SQLite files.

A warehouse that defers maintenance holds real state between refreshes —
the materialized views, logs, and differential tables.  This module
persists a complete database (schemas, external/internal partition,
multiplicity-encoded contents) into a single SQLite file and restores it
bit-for-bit, so maintenance can resume after a restart.

The file is a **differential** one, in the paper's sense of the
``∇MV``/``△MV`` tables: a data table holds the rows of the last full
write with positive ``mult`` plus, for every patch checkpointed since,
its (clamped) delete rows with *negative* ``mult`` and its insert rows
with positive ``mult``.  A table's contents are the per-row sums, so a
saved file is read with::

    SELECT c0, …, SUM(mult) FROM "t" GROUP BY c0, … HAVING SUM(mult) > 0

A :class:`Database` that carries a :class:`DeltaQueue` for the file
(:func:`track_deltas`; :class:`~repro.robustness.DurableWarehouse`
registers one) is saved by *appending* what the queue holds — a cost
that tracks the delta, not the base.  Everything else, and a tracked
save whenever the catalog changed or the rows appended since the last
full write would exceed the rows written then, rewrites the whole file.

Crash safety (see :mod:`repro.robustness`): either way the snapshot on
disk is always exactly the old state or exactly the new one.  A rewrite
stages the file in a temporary sibling in a **single SQLite
transaction** and installs it with :func:`os.replace`; an append is one
``synchronous=FULL`` SQLite transaction on the file itself, which
SQLite's write-ahead log (``<file>-wal``) makes all-or-nothing across a
crash.  The queue owns the **one** connection appends go through: it is
opened on the first append, kept open between checkpoints, and closed —
the log folded back into the file — by :meth:`DeltaQueue.close` and
around every rewrite.  Transient ``OperationalError: database is
locked`` failures are absorbed by :func:`with_retry` (exponential
backoff).

File layout:

* ``__catalog__(name, attrs, internal)`` — one row per table; ``attrs``
  is the JSON-encoded attribute list;
* one data table per stored table (mangled name), with columns
  ``c0 … c{n-1}, mult`` — the same encoding as the SQLite evaluation
  backend, so saved files are also directly queryable with the
  ``sqlite3`` CLI (summing ``mult`` as above).

Values must be SQLite-storable (int, float, str, bool, None); bools are
stored as tagged strings so they round-trip exactly.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sqlite3
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, TypeVar

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.schema import Schema
from repro.errors import ReproError, SnapshotError
from repro.robustness.faults import fault_point
from repro.storage.database import Database

__all__ = [
    "save_database",
    "load_database",
    "DeltaQueue",
    "Patch",
    "StoredTable",
    "track_deltas",
    "delta_queue",
    "with_retry",
    "staging_path",
    "wal_path",
    "fold_and_close",
    "RetryPolicy",
    "RETRY_POLICY",
    "transient_sqlite_error",
]

_CATALOG = "__catalog__"
_TRUE_TAG = "\x00bool:1"
_FALSE_TAG = "\x00bool:0"

_T = TypeVar("_T")

#: Substrings of ``sqlite3.OperationalError`` messages that mark a
#: *transient* condition — another connection holds the file, or the OS
#: hiccuped — as opposed to permanent failures (corruption, missing
#: table, bad SQL), which no amount of retrying fixes.
_TRANSIENT_MARKERS = ("locked", "busy", "disk i/o error")


def transient_sqlite_error(exc: BaseException) -> bool:
    """The default retry classifier: transient SQLite contention errors."""
    return isinstance(exc, sqlite3.OperationalError) and any(
        marker in str(exc).lower() for marker in _TRANSIENT_MARKERS
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff under a total-deadline cap.

    ``classifier`` decides which exceptions are worth retrying; anything
    it rejects propagates immediately.  Per-attempt delay grows as
    ``base_delay * 2**attempt`` (capped at ``max_delay``), stretched by
    a random factor in ``[1, 1 + jitter]`` so independent retriers do
    not thunder in lockstep.  The policy gives up — re-raising the last
    transient error — after ``attempts`` tries *or* once the attempts
    plus the pending sleep would exceed ``deadline`` seconds, whichever
    comes first.
    """

    attempts: int = 5
    base_delay: float = 0.01
    max_delay: float = 1.0
    deadline: float | None = 10.0
    jitter: float = 0.25
    classifier: Callable[[BaseException], bool] = transient_sqlite_error

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        delay = min(self.base_delay * (2**attempt), self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def run(
        self,
        action: Callable[[], _T],
        *,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> _T:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        rng = rng if rng is not None else random.Random()
        start = clock()
        for attempt in range(self.attempts):
            try:
                return action()
            except Exception as exc:
                if not self.classifier(exc) or attempt == self.attempts - 1:
                    raise
                delay = self.delay_for(attempt, rng)
                if self.deadline is not None and clock() - start + delay > self.deadline:
                    raise
                obs.metric_inc("lock_retries")
                sleep(delay)
        raise AssertionError("unreachable")


#: The shared default policy: snapshot writes, journal connections, and
#: the sqlite tier's push-down reads all run under it.
RETRY_POLICY = RetryPolicy()


def with_retry(
    action: Callable[[], _T],
    *,
    attempts: int = 5,
    base_delay: float = 0.01,
    sleep: Callable[[float], None] = time.sleep,
    classifier: Callable[[BaseException], bool] | None = None,
    policy: RetryPolicy | None = None,
) -> _T:
    """Run ``action``, retrying transient errors with jittered backoff.

    The classifier (default :func:`transient_sqlite_error`) decides what
    counts as transient — anything else (corruption, missing file,
    syntax) propagates immediately, as does the transient error itself
    once ``attempts`` or the policy's total deadline are exhausted.
    Pass ``policy`` to override every knob at once.
    """
    if policy is None:
        policy = replace(
            RETRY_POLICY,
            attempts=attempts,
            base_delay=base_delay,
            classifier=classifier if classifier is not None else transient_sqlite_error,
        )
    return policy.run(action, sleep=sleep)


def staging_path(path: str | Path) -> Path:
    """The temporary file a snapshot is staged in before ``os.replace``."""
    path = Path(path)
    return path.with_name(path.name + ".saving")


def _mangle(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _encode(value: Any) -> Any:
    if value is True:
        return _TRUE_TAG
    if value is False:
        return _FALSE_TAG
    if value is None or isinstance(value, (int, float, str)):
        return value
    raise ReproError(f"cannot persist value of type {type(value).__name__}")


def _decode(value: Any) -> Any:
    if value == _TRUE_TAG:
        return True
    if value == _FALSE_TAG:
        return False
    return value


# ----------------------------------------------------------------------
# The delta queue: what changed since the last fold / checkpoint
# ----------------------------------------------------------------------


class StoredTable(NamedTuple):
    """One table as a snapshot file holds it."""

    name: str
    attrs: tuple[str, ...]
    internal: bool
    bag: Bag


class Patch(NamedTuple):
    """One installed ``R := (R ∸ delete) ⊎ insert``, as a write listener saw it."""

    #: The table's version stamp once the patch was installed.
    stamp: int
    delete: Bag
    insert: Bag
    #: The pre-patch value; only ``multiplicity`` of delta rows is read
    #: (a partitioned database hands listeners a window, not a bag).
    before: Any

    def removed(self) -> Iterator[tuple[Row, int]]:
        """The delete rows clamped to what was there (``∸`` floors at zero)."""
        multiplicity = self.before.multiplicity
        for row, count in self.delete.items():
            count = min(count, multiplicity(row))
            if count:
                yield row, count


class DeltaQueue:
    """Write listener that keeps the patches two consumers have yet to see.

    ``Database.apply`` hands every installed patch to its write
    listeners; this one only *queues* it — no hashing, no I/O, O(1) —
    so nothing is added to a lock section.  The consumers run later,
    outside ``apply``:

    * :func:`repro.robustness.journal.table_digests` folds
      :attr:`undigested` into the per-table digests it caches in
      :attr:`digests`;
    * :func:`save_database` appends :attr:`unsaved` (and rewrites the
      tables in :attr:`replaced`) to the snapshot file at :attr:`path`.

    A wholesale replacement — ``set_table``, an assignment, ``restore``,
    the rollback of a failed ``apply`` — or a drop discards the table's
    queued patches: the digest is then recomputed from the table, and
    the checkpoint writes the table whole.

    The queue also owns the snapshot file's one long-lived connection
    (:meth:`connection`): whoever called :func:`track_deltas` calls
    :meth:`close` when it is done with the file.
    """

    def __init__(self, db: Database, path: Path) -> None:
        self._db = db
        #: The snapshot file the ``unsaved`` side is relative to.
        self.path = path
        self._conn: sqlite3.Connection | None = None
        self.undigested: dict[str, list[Patch]] = {}
        #: ``table -> (version stamp, additive digest)`` as of the last fold.
        self.digests: dict[str, tuple[int, int]] = {}
        self.unsaved: dict[str, list[Patch]] = {}
        self.replaced: set[str] = set()
        #: What the file holds: its catalog (``None`` until this queue has
        #: seen a full write: a new file, or one just reopened), the extra
        #: tables last written, and the row counts behind the rewrite rule.
        self.saved_catalog: dict[str, tuple[tuple[str, ...], bool]] | None = None
        self.saved_extras: dict[str, Bag] = {}
        self.rows_written = 0
        self.rows_appended = 0

    def on_patch(self, name: str, delete: Bag, insert: Bag, before: Any, after: Any) -> None:
        patch = Patch(self._db.version_of(name), delete, insert, before)
        self.undigested.setdefault(name, []).append(patch)
        if name not in self.replaced:
            self.unsaved.setdefault(name, []).append(patch)

    def on_replace(self, name: str, bag: Bag) -> None:
        self.undigested.pop(name, None)
        self.unsaved.pop(name, None)
        self.replaced.add(name)
        # A rollback restores the old stamp along with the old value, so
        # a digest taken at that stamp is still the table's digest.
        entry = self.digests.get(name)
        if entry is not None and entry[0] != self._db.version_of(name):
            del self.digests[name]

    def on_drop(self, name: str) -> None:
        self.on_replace(name, Bag())

    def connection(self) -> sqlite3.Connection:
        """The open WAL connection to :attr:`path`, opened on first use.

        Explicit transaction control (``isolation_level=None``): the
        sqlite3 module's implicit transactions differ across Python
        versions.  ``check_same_thread=False`` because the checkpoint
        runs on whichever thread holds the server's write mutex — a
        maintenance worker as often as the caller — and only ever under
        that mutex.
        """
        if self._conn is None:
            conn = sqlite3.connect(self.path, isolation_level=None, check_same_thread=False)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=FULL")
            except BaseException:
                conn.close()
                raise
            obs.metric_inc("snapshot_connections_opened")
            self._conn = conn
        return self._conn

    def close(self) -> None:
        """Fold the write-ahead log into the file and close the connection.

        Afterwards the snapshot is one self-contained file — safe to
        copy, and safe to ``os.replace``.  Idempotent.  A failed append
        closes mid-transaction: closing rolls the transaction back, as
        the death of the process would.
        """
        conn, self._conn = self._conn, None
        if conn is not None:
            fold_and_close(conn)


def track_deltas(db: Database, path: str | Path) -> DeltaQueue:
    """Start queueing ``db``'s writes against the snapshot file at ``path``."""
    queue = DeltaQueue(db, Path(path))
    db.add_write_listener(queue)
    return queue


def delta_queue(db: Database) -> DeltaQueue | None:
    """The queue :func:`track_deltas` registered on ``db``, if any."""
    for listener in db._listeners:
        if isinstance(listener, DeltaQueue):
            return listener
    return None


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


def _insert_rows(conn: sqlite3.Connection, name: str, arity: int, rows: Iterable[tuple[Row, int]]) -> int:
    placeholders = ", ".join(["?"] * (arity + 1))
    cursor = conn.executemany(
        f"INSERT INTO {_mangle(name)} VALUES ({placeholders})",
        ((*(_encode(value) for value in row), mult) for row, mult in rows),
    )
    return cursor.rowcount


def _write_snapshot(tables: list[StoredTable], target: Path) -> int:
    """Write ``tables`` into ``target`` as one SQLite transaction; rows written."""
    fault_point("flaky-save")
    if target.exists():
        target.unlink()
    conn = sqlite3.connect(target)
    try:
        conn.execute("PRAGMA synchronous=FULL")
        # Explicit transaction control: the sqlite3 module's implicit
        # transaction handling differs across Python versions around
        # DDL, and the whole snapshot must be one all-or-nothing unit.
        conn.isolation_level = None
        conn.execute("BEGIN")
        conn.execute(f"CREATE TABLE {_CATALOG} (name TEXT PRIMARY KEY, attrs TEXT, internal INTEGER)")
        rows = 0
        for name, attrs, internal, bag in tables:
            conn.execute(
                f"INSERT INTO {_CATALOG} VALUES (?, ?, ?)", (name, json.dumps(list(attrs)), int(internal))
            )
            columns = "".join(f"c{index}, " for index in range(len(attrs)))
            conn.execute(f"CREATE TABLE {_mangle(name)} ({columns}mult INTEGER)")
            rows += _insert_rows(conn, name, len(attrs), bag.items())
        conn.execute("COMMIT")
        return rows
    finally:
        conn.close()


def wal_path(path: str | Path) -> Path:
    """The write-ahead log SQLite keeps next to a file it has open in WAL mode."""
    path = Path(path)
    return path.with_name(path.name + "-wal")


def fold_and_close(conn: sqlite3.Connection) -> None:
    """Fold ``conn``'s write-ahead log into its file, then close it.

    Inside a transaction only the close happens, which rolls it back.
    """
    try:
        if not conn.in_transaction:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        conn.close()


def _fold_wal(path: Path) -> None:
    """Leave ``path`` with no frames in its write-ahead log, or raise.

    Renaming a new file over ``path`` while ``<path>-wal`` still holds
    frames would replay the *old* file's pages into the new one on the
    next open.  A killed process leaves such a log; so does a connection
    that is still reading.
    """
    wal = wal_path(path)
    if not wal.exists() or not wal.stat().st_size:
        return
    fold_and_close(sqlite3.connect(path))
    if wal.exists() and wal.stat().st_size:
        raise SnapshotError(
            "live-wal", None, f"{wal} is held by another connection; refusing to replace {path}"
        )


def _rewrite(tables: list[StoredTable], path: Path, reason: str, queue: DeltaQueue | None = None) -> int:
    """Replace the file at ``path`` with a full write of ``tables``.

    The staged file stays in rollback-journal mode, so it is a single
    file when it is renamed — no ``-wal`` sibling to orphan; ``queue``'s
    connection is closed first and reopens on the next append.
    """
    staged = staging_path(path)
    with obs.span("checkpoint_rewrite", reason=reason, path=str(path)):
        rows = with_retry(lambda: _write_snapshot(tables, staged))
        fault_point("crash-mid-checkpoint")
        if queue is not None:
            queue.close()
        _fold_wal(path)
        os.replace(staged, path)
    obs.metric_inc(f'checkpoint_rewrites{{reason="{reason}"}}')
    return rows


def _append_snapshot(
    queue: DeltaQueue,
    replaced: Iterable[StoredTable],
    catalog: Mapping[str, tuple[tuple[str, ...], bool]],
) -> int:
    """Append ``queue.unsaved`` and swap in ``replaced`` as one transaction; rows written."""
    fault_point("flaky-save")
    conn = queue.connection()
    try:
        conn.execute("BEGIN IMMEDIATE")
        rows = 0
        for name, attrs, _internal, bag in replaced:
            conn.execute(f"DELETE FROM {_mangle(name)}")
            rows += _insert_rows(conn, name, len(attrs), bag.items())
        for name, queued in queue.unsaved.items():
            for patch in queued:
                signed = itertools.chain(
                    ((row, -count) for row, count in patch.removed()), patch.insert.items()
                )
                rows += _insert_rows(conn, name, len(catalog[name][0]), signed)
        fault_point("crash-mid-checkpoint")
        conn.execute("COMMIT")
        return rows
    except BaseException:
        # Never keep a connection that may be inside ``BEGIN``: a crash or
        # an error above leaves the file exactly as it was, and the next
        # attempt starts on a fresh connection.
        queue.close()
        raise


def save_database(db: Database, path: str | Path, *, extra: Iterable[StoredTable] = ()) -> None:
    """Atomically bring the snapshot at ``path`` to ``db``'s current state.

    ``extra`` tables are stored alongside ``db``'s own (the warehouse's
    view catalog travels this way, without ever entering the live
    database).  Readers — and a recovering process — see either the
    complete old snapshot or the complete new one, even if this process
    dies mid-save.

    Without a :class:`DeltaQueue` for ``path`` the whole file is staged
    in a sibling temp file and installed with ``os.replace``
    (``untracked``).  With one, only what the queue holds is appended,
    in place and through the queue's open connection, unless the
    catalog changed or the file is new (``ddl``),
    the rows appended since the last full write would exceed the rows
    written then (``ratio``), or this queue has not seen a full write of
    the file it resumed yet (``recovery``); the ``checkpoint_rewrite``
    span carries that reason.
    """
    path = Path(path)
    extras = {table.name: table for table in extra}
    catalog = {
        name: (tuple(db.schema_of(name).attributes), db.is_internal(name))
        for name in db.table_names()
        if name not in extras
    }
    catalog.update((name, (table.attrs, table.internal)) for name, table in extras.items())

    def stored(name: str) -> StoredTable:
        return extras[name] if name in extras else StoredTable(name, *catalog[name], db[name])

    queue = delta_queue(db)
    if queue is None or queue.path != path:
        _rewrite([stored(name) for name in catalog], path, "untracked")
        return
    replaced = [
        stored(name)
        for name in catalog
        if name in queue.replaced or (name in extras and queue.saved_extras.get(name) != extras[name].bag)
    ]
    pending = sum(table.bag.distinct_count() for table in replaced) + sum(
        patch.delete.distinct_count() + patch.insert.distinct_count()
        for queued in queue.unsaved.values()
        for patch in queued
    )
    if queue.saved_catalog is None:
        reason = "recovery" if path.exists() else "ddl"
    elif queue.saved_catalog != catalog:
        reason = "ddl"
    elif queue.rows_appended + pending > queue.rows_written:
        reason = "ratio"
    else:
        reason = None
    if reason is None:
        rows = with_retry(lambda: _append_snapshot(queue, replaced, catalog))
        queue.rows_appended += rows
        obs.metric_inc("checkpoint_rows_appended", rows)
    else:
        queue.rows_written = _rewrite([stored(name) for name in catalog], path, reason, queue)
        queue.rows_appended = 0
    queue.saved_catalog = catalog
    queue.saved_extras = {name: table.bag for name, table in extras.items()}
    queue.unsaved.clear()
    queue.replaced.clear()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def load_database(path: str | Path, *, exec_mode: str | None = None) -> Database:
    """Reconstruct a database previously written by :func:`save_database`.

    A table's contents are the per-row sums of ``mult``; rows that net
    to zero are gone.  The loader fails closed (:class:`SnapshotError`)
    on a file no checkpoint could have written: a negative net
    multiplicity, a data table the catalog does not list, or a catalog
    row without its data table.

    ``exec_mode`` selects the execution engine of the reconstructed
    database (the snapshot file stores no engine choice — it is a
    runtime property, not data).
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no database file at {path}")

    def read() -> Database:
        conn = sqlite3.connect(path)
        try:
            db = Database(exec_mode=exec_mode)
            catalog = conn.execute(
                f"SELECT name, attrs, internal FROM {_CATALOG} ORDER BY name"
            ).fetchall()
            present = {
                name
                for (name,) in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
                )
            }
            for name in sorted(present - {_CATALOG} - {name for name, _, _ in catalog}):
                raise SnapshotError("uncatalogued-table", name, f"not listed in {_CATALOG}")
            for name, attrs_json, internal in catalog:
                if name not in present:
                    raise SnapshotError("missing-table", name, f"listed in {_CATALOG} but not in the file")
                schema = Schema(json.loads(attrs_json))
                counts: dict[Row, int] = {}
                for *values, mult in conn.execute(f"SELECT * FROM {_mangle(name)}"):
                    row = tuple(_decode(value) for value in values)
                    counts[row] = counts.get(row, 0) + int(mult)
                for row, count in counts.items():
                    if count < 0:
                        raise SnapshotError(
                            "negative-multiplicity", name, f"row {row!r} nets to multiplicity {count}"
                        )
                db.create_table(name, schema, internal=bool(internal))
                db.set_table(name, Bag.from_counts(counts))
            return db
        finally:
            conn.close()

    db = with_retry(read)
    # Stamp the provenance so install-time lint (RVM401) can warn when
    # views are defined on persistent state without journaling.
    db.durable_origin = path
    return db
