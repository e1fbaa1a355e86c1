"""Durable storage: save and load :class:`Database` states to SQLite files.

A warehouse that defers maintenance holds real state between refreshes —
the materialized views, logs, and differential tables.  This module
persists a complete database (schemas, external/internal partition,
multiplicity-encoded contents) into a single SQLite file and restores it
bit-for-bit, so maintenance can resume after a restart.

The file is a **differential** one, in the paper's sense of the
``∇MV``/``△MV`` tables: a data table holds the rows it was last written
whole with, positive ``mult``, plus, for every patch checkpointed since,
its (clamped) delete rows with *negative* ``mult`` and its insert rows
with positive ``mult``.  A table's contents are the per-row sums, so a
saved file is read with::

    SELECT c0, …, SUM(mult) FROM "t" GROUP BY c0, … HAVING SUM(mult) > 0

Every save is **one transaction** on the file, as the paper brings
``MV`` up to date by applying its deltas in one short transaction rather
than by recomputing it and swapping it in: :func:`save_database` creates
and drops tables to match the catalog, writes created and replaced
tables whole (``DELETE`` + insert), and appends the patches a
:class:`DeltaQueue` queued for the rest (:func:`track_deltas`;
:class:`~repro.robustness.DurableWarehouse` registers one), so a save
pays for the delta, not the base.  Once the rows appended would exceed
the rows last written whole, the same transaction compacts every table
in place.  The transaction is ``synchronous=FULL`` on the file's
write-ahead log, so the snapshot on disk is always exactly the old
state or exactly the new one, and it stamps the header with the id of
the journaled operation it completes (``op_id``, 0 for none: ``PRAGMA
user_version`` under a marking ``application_id``), which recovery
reads back with :func:`checkpoint_op` to tell a pre-op snapshot from a
post-op one (see :mod:`repro.robustness`).

The queue owns the file's **one** connection: opened on the first save
(which reads the file's catalog and row count), kept open between
checkpoints, and closed — the log folded back into the file — by
:meth:`DeltaQueue.close`; a save without a queue opens and closes its
own.  Transient ``database is locked`` failures are absorbed by
:func:`with_retry` (exponential backoff).

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
import random
import sqlite3
import time
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, TypeVar

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.schema import Schema
from repro.algebra.serialize import decode_value, encode_value
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
    "checkpoint_op",
    "holds_snapshot",
    "with_retry",
    "fold_and_close",
    "RetryPolicy",
    "RETRY_POLICY",
    "transient_sqlite_error",
]

_CATALOG = "__catalog__"
#: ``PRAGMA application_id`` of a file whose ``user_version`` is a
#: checkpoint stamp ("RVMC"); a file written without one reads 0.
_STAMPED = 0x52564D43

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
        start = clock()
        for attempt in range(self.attempts):
            try:
                return action()
            except Exception as exc:
                if not self.classifier(exc) or attempt == self.attempts - 1:
                    raise
                if rng is None:
                    # Seeding from os.urandom is dear; a first try rarely fails.
                    rng = random.Random()
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


def _mangle(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


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
    """Write listener that keeps the patches the next checkpoint has yet to see.

    ``Database.apply`` hands every installed patch to its write
    listeners; this one only *queues* it — no hashing, no I/O, O(1) —
    so nothing is added to a lock section.  :func:`save_database`
    consumes it later, outside ``apply``: it appends :attr:`unsaved`
    (and rewrites the tables in :attr:`replaced`) to the snapshot file
    at :attr:`path`.

    A wholesale replacement — ``set_table``, an assignment, ``restore``,
    the rollback of a failed ``apply`` — or a drop discards the table's
    queued patches: the checkpoint writes the table whole.

    The queue also owns the snapshot file's one long-lived connection
    (:meth:`connection`): whoever called :func:`track_deltas` calls
    :meth:`close` when it is done with the file.
    """

    def __init__(self, path: Path) -> None:
        #: The snapshot file the ``unsaved`` side is relative to.
        self.path = path
        self._conn: sqlite3.Connection | None = None
        self.unsaved: dict[str, list[Patch]] = {}
        self.replaced: set[str] = set()
        #: What the file holds: its catalog (``None`` until the first
        #: connection reads it off the file), the extra tables last
        #: written, and the row counts behind the compaction rule.
        self.saved_catalog: dict[str, tuple[tuple[str, ...], bool]] | None = None
        self.saved_extras: dict[str, Bag] = {}
        self.rows_written = 0
        self.rows_appended = 0

    def on_patch(self, name: str, delete: Bag, insert: Bag, before: Any, after: Any) -> None:
        if name not in self.replaced:
            self.unsaved.setdefault(name, []).append(Patch(delete, insert, before))

    def on_replace(self, name: str, bag: Bag) -> None:
        self.unsaved.pop(name, None)
        self.replaced.add(name)

    def on_drop(self, name: str) -> None:
        self.on_replace(name, Bag())

    def connection(self) -> sqlite3.Connection:
        """The open WAL connection to :attr:`path`, opened on first use.

        The first one also reads the file's catalog (empty for a file
        with no tables) and its row count, which counts as written
        whole: the first checkpoint after a reopen appends.

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
                with _fail_closed(self.path):
                    if self.saved_catalog is None:
                        catalog = _read_catalog(conn, self.path) or {}
                        self.rows_written = sum(
                            conn.execute(f"SELECT COUNT(*) FROM {_mangle(name)}").fetchone()[0] for name in catalog
                        )
                        self.saved_catalog = catalog
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

        Afterwards the snapshot is one self-contained file, safe to copy.
        Idempotent.  A failed checkpoint closes mid-transaction: closing
        rolls the transaction back, as the death of the process would.
        """
        conn, self._conn = self._conn, None
        if conn is not None:
            fold_and_close(conn)


def track_deltas(db: Database, path: str | Path) -> DeltaQueue:
    """Start queueing ``db``'s writes against the snapshot file at ``path``."""
    queue = DeltaQueue(Path(path))
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


#: The value types SQLite stores as they are.  A bool is not among them:
#: SQLite would store it as an integer, so it goes in tagged.
_BINDABLE = frozenset({int, float, str, type(None)})


def _insert_rows(conn: sqlite3.Connection, name: str, arity: int, rows: Iterable[tuple[Row, int]]) -> int:
    """Insert the ``(row, mult)`` pairs into table ``name`` with one ``executemany``.

    One type scan at C level checks the whole batch.  A batch of ints,
    floats, strings and NULLs is bound as it is, with no Python call per
    value.  Otherwise every value goes through :func:`encode_value`, which
    tags bools and refuses what SQLite cannot store.  Both write the same
    bytes.
    """
    placeholders = ", ".join(["?"] * (arity + 1))
    params = [row + (mult,) for row, mult in rows]
    if not _BINDABLE.issuperset(map(type, itertools.chain.from_iterable(params))):
        params = [tuple(map(encode_value, values)) for values in params]
    cursor = conn.executemany(f"INSERT INTO {_mangle(name)} VALUES ({placeholders})", params)
    return cursor.rowcount


def fold_and_close(conn: sqlite3.Connection) -> None:
    """Fold ``conn``'s write-ahead log into its file, then close it.

    Inside a transaction only the close happens, which rolls it back.
    """
    try:
        if not conn.in_transaction:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        conn.close()


def _checkpoint(
    queue: DeltaQueue, tables: dict[str, StoredTable], extras: Mapping[str, StoredTable], op_id: int
) -> None:
    """Bring the file at ``queue.path`` to ``tables``, stamped ``op_id``, in one transaction.

    Tables the file lacks, or holds under another schema, are created;
    tables it holds that ``tables`` lacks are dropped.  Created tables,
    the queue's replaced ones and changed ``extras`` are written whole;
    the others get the patches the queue holds appended — unless the
    compaction rule fires, and every table is written whole in place.
    The queue's bookkeeping moves only once the transaction committed.
    """
    fault_point("flaky-save")
    conn = queue.connection()
    saved = queue.saved_catalog
    schemas = {name: (table.attrs, table.internal) for name, table in tables.items()}
    created = [name for name in tables if saved.get(name) != schemas[name]]
    whole = set(created) | {name for name in queue.replaced if name in tables}
    whole.update(name for name, table in extras.items() if queue.saved_extras.get(name) != table.bag)
    appended = {name: queued for name, queued in queue.unsaved.items() if name not in whole}
    pending = sum(tables[name].bag.distinct_count() for name in whole) + sum(
        patch.delete.distinct_count() + patch.insert.distinct_count()
        for queued in appended.values()
        for patch in queued
    )
    compact = len(whole) < len(tables) and queue.rows_appended + pending > queue.rows_written
    if compact:
        whole, appended = set(tables), {}
    try:
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(f"PRAGMA application_id = {_STAMPED}")
        conn.execute(f"PRAGMA user_version = {int(op_id)}")
        if not saved:
            conn.execute(f"CREATE TABLE IF NOT EXISTS {_CATALOG} (name TEXT PRIMARY KEY, attrs TEXT, internal INTEGER)")
        for name in saved:
            if schemas.get(name) != saved[name]:
                conn.execute(f"DROP TABLE {_mangle(name)}")
                conn.execute(f"DELETE FROM {_CATALOG} WHERE name = ?", (name,))
        for name in created:
            attrs, internal = schemas[name]
            conn.execute(f"INSERT INTO {_CATALOG} VALUES (?, ?, ?)", (name, json.dumps(list(attrs)), int(internal)))
            columns = "".join(f"c{index}, " for index in range(len(attrs)))
            conn.execute(f"CREATE TABLE {_mangle(name)} ({columns}mult INTEGER)")
        rows = 0
        with obs.span("checkpoint_rewrite", reason="ratio", path=str(queue.path)) if compact else nullcontext():
            for name, attrs, _internal, bag in tables.values():
                if name in whole:
                    if name not in created:
                        conn.execute(f"DELETE FROM {_mangle(name)}")
                    rows += _insert_rows(conn, name, len(attrs), bag.items())
        for name, queued in appended.items():
            # One batch per table: each patch's deletes, then its inserts,
            # in the order the patches were installed.
            signed = itertools.chain.from_iterable(
                itertools.chain(((row, -count) for row, count in patch.removed()), patch.insert.items())
                for patch in queued
            )
            rows += _insert_rows(conn, name, len(schemas[name][0]), signed)
        fault_point("crash-mid-checkpoint")
        conn.execute("COMMIT")
    except BaseException:
        # Never keep a connection that may be inside ``BEGIN``: a crash or
        # an error above leaves the file exactly as it was, and the next
        # attempt starts on a fresh connection.
        queue.close()
        raise
    if len(whole) == len(tables):
        queue.rows_written, queue.rows_appended = rows, 0
    else:
        queue.rows_appended += rows
        obs.metric_inc("checkpoint_rows_appended", rows)
    if compact:
        obs.metric_inc('checkpoint_rewrites{reason="ratio"}')
    queue.saved_catalog = schemas
    queue.saved_extras = {name: table.bag for name, table in extras.items()}
    queue.unsaved.clear()
    queue.replaced.clear()


def save_database(
    db: Database, path: str | Path, *, extra: Iterable[StoredTable] = (), op_id: int = 0
) -> None:
    """Bring the snapshot at ``path`` to ``db``'s current state in one transaction.

    ``extra`` tables are stored alongside ``db``'s own (the warehouse's
    view catalog travels this way, without ever entering the live
    database).  ``op_id`` is the stamp the same transaction writes into
    the file header (:func:`checkpoint_op` reads it back): the journaled
    operation this checkpoint completes, 0 for none.  Readers — and a
    recovering process — see either the complete old snapshot or the
    complete new one, stamp included, even if this process dies
    mid-save.

    With a :class:`DeltaQueue` for ``path`` the save runs on the queue's
    connection and writes what the queue holds.  Without one it opens a
    connection of its own, writes every table whole (dropping the tables
    the file has and ``db`` lacks), and folds and closes it again.  When
    the rows appended since the file was last written whole would exceed
    the rows written then, the transaction compacts every table in place
    (a ``checkpoint_rewrite`` span, ``reason="ratio"``).
    """
    path = Path(path)
    tables = {
        name: StoredTable(name, tuple(db.schema_of(name).attributes), db.is_internal(name), db[name])
        for name in db.table_names()
    }
    extras = {table.name: table for table in extra}
    tables.update(extras)
    queue = delta_queue(db)
    if queue is not None and queue.path == path:
        with_retry(lambda: _checkpoint(queue, tables, extras, op_id))
        return
    queue = DeltaQueue(path)
    queue.replaced.update(tables)
    try:
        with_retry(lambda: _checkpoint(queue, tables, extras, op_id))
    finally:
        queue.close()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


@contextmanager
def _fail_closed(path: Path) -> Iterator[None]:
    """Turn SQLite's refusal to read ``path`` at all into ``SnapshotError`` ``not-a-database``."""
    try:
        yield
    except sqlite3.DatabaseError as exc:
        if type(exc) is not sqlite3.DatabaseError:  # locked, busy, a bad statement: not the file
            raise
        raise SnapshotError("not-a-database", None, f"{path}: {exc}") from exc


def _read_catalog(conn: sqlite3.Connection, path: Path) -> dict[str, tuple[tuple[str, ...], bool]] | None:
    """The catalog of the snapshot ``conn`` is open on; ``None`` for a file with no tables.

    A file with no tables is what SQLite makes of a new path, and what a
    first checkpoint that died before ``COMMIT`` leaves behind.  Any
    other file fails closed (:class:`SnapshotError`) unless a checkpoint
    could have written it: tables but no ``__catalog__``
    (``no-catalog``), a data table the catalog does not list
    (``uncatalogued-table``), or a catalog row without its data table
    (``missing-table``).
    """
    present = {
        name
        for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        )
    }
    if not present:
        return None
    if _CATALOG not in present:
        raise SnapshotError("no-catalog", None, f"{path} has tables but no {_CATALOG}")
    catalog = {
        name: (tuple(json.loads(attrs)), bool(internal))
        for name, attrs, internal in conn.execute(f"SELECT name, attrs, internal FROM {_CATALOG} ORDER BY name")
    }
    for name in sorted(present - {_CATALOG} - catalog.keys()):
        raise SnapshotError("uncatalogued-table", name, f"not listed in {_CATALOG}")
    for name in catalog:
        if name not in present:
            raise SnapshotError("missing-table", name, f"listed in {_CATALOG} but not in the file")
    return catalog


def _read(path: Path, read: Callable[[sqlite3.Connection], _T]) -> _T:
    """``read`` on a connection of its own to ``path``, retried and failing closed."""

    def attempt() -> _T:
        conn = sqlite3.connect(path)
        try:
            with _fail_closed(path):
                return read(conn)
        finally:
            conn.close()

    return with_retry(attempt)


def holds_snapshot(path: str | Path) -> bool:
    """Whether a checkpoint has ever committed to the file at ``path``.

    False for no file, and for an SQLite file with no tables — a new
    one, or one whose first checkpoint died before ``COMMIT``: a save
    starts either afresh.  Raises :class:`SnapshotError` for a file no
    checkpoint could have written.
    """
    path = Path(path)
    return path.exists() and _read(path, lambda conn: _read_catalog(conn, path) is not None)


def checkpoint_op(path: str | Path) -> int | None:
    """The op id the snapshot at ``path`` was last saved with.

    ``None`` for a file that carries no stamp (one written before saves
    stamped their file): it cannot say which operation it completes.
    """

    def read(conn: sqlite3.Connection) -> int | None:
        (application_id,) = conn.execute("PRAGMA application_id").fetchone()
        (op_id,) = conn.execute("PRAGMA user_version").fetchone()
        return op_id if application_id == _STAMPED else None

    return _read(Path(path), read)


def load_database(path: str | Path, *, exec_mode: str | None = None) -> Database:
    """Reconstruct a database previously written by :func:`save_database`.

    A table's contents are the per-row sums of ``mult``; rows that net
    to zero are gone.  The loader fails closed (:class:`SnapshotError`)
    on a file no checkpoint could have written: one SQLite cannot read
    (``not-a-database``), one without a catalog — an empty file among
    them (``no-catalog``) — a negative net multiplicity, a data table
    the catalog does not list, or a catalog row without its data table.

    ``exec_mode`` selects the execution engine of the reconstructed
    database (the snapshot file stores no engine choice — it is a
    runtime property, not data).
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no database file at {path}")

    def read(conn: sqlite3.Connection) -> Database:
        catalog = _read_catalog(conn, path)
        if catalog is None:
            raise SnapshotError("no-catalog", None, f"{path} holds no tables: no checkpoint committed to it")
        db = Database(exec_mode=exec_mode)
        for name, (attrs, internal) in catalog.items():
            counts: dict[Row, int] = {}
            for *values, mult in conn.execute(f"SELECT * FROM {_mangle(name)}"):
                row = tuple(decode_value(value) for value in values)
                counts[row] = counts.get(row, 0) + int(mult)
            for row, count in counts.items():
                if count < 0:
                    raise SnapshotError(
                        "negative-multiplicity", name, f"row {row!r} nets to multiplicity {count}"
                    )
            db.create_table(name, Schema(attrs), internal=internal)
            db.set_table(name, Bag.from_counts(counts))
        return db

    db = _read(path, read)
    # Stamp the provenance so install-time lint (RVM401) can warn when
    # views are defined on persistent state without journaling.
    db.durable_origin = path
    return db
