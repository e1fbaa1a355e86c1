"""The write-ahead intent journal.

Crash safety for a deferred-maintenance warehouse rests on two pieces:
an **atomic checkpoint** (``save_database`` writes the operation's
deltas to the snapshot file in one SQLite transaction, so the snapshot
on disk is always entirely pre-op or entirely post-op, and stamped with
the id of the intent it completes) and this **intent journal**, an fsync'd
SQLite file sitting next to the snapshot that records what operation
was *about* to run before any state mutates.

Each journal record carries:

* ``kind`` — ``"txn"``, ``"refresh"``, ``"propagate"``,
  ``"partial_refresh"``, ``"refresh_all"``, or ``"ddl"``;
* ``view`` — the target view, when the operation has one;
* ``token`` — an optional client-supplied idempotency token for user
  transactions (exactly-once replay: a committed token is never
  re-applied);
* ``status`` — ``intent`` → ``committed`` / ``aborted``;
* ``payload`` — JSON: the log **watermark** (recorded log tuples at
  intent time), a maintenance action's options, and — for user
  transactions — the fully evaluated per-table ``(delete, insert)``
  **delta bags**, which make the operation replayable from the journal
  alone.

Recovery needs no digest to tell whether an intent's checkpoint landed:
the checkpoint stamps the snapshot with the intent's ``op_id``.

Durability: the journal holds one connection for its whole life, in
``journal_mode=WAL`` with ``PRAGMA synchronous=FULL``, so every
``begin``/``commit_op`` is one fsync'd append to ``<journal>-wal``
before the caller proceeds — the write-ahead property the recovery
protocol depends on.  :meth:`IntentJournal.close` folds that log back
into the journal file.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.errors import RecoveryError
from repro.storage.database import Database
from repro.storage.persistence import RETRY_POLICY, fold_and_close, with_retry

__all__ = [
    "IntentJournal",
    "OpIntent",
    "bag_digest",
    "table_digests",
    "journal_path",
    "serialize_bag",
    "deserialize_bag",
]

_TABLE = "__journal__"
_PENDING_INDEX = "__journal_pending__"
_TOKEN_INDEX = "__journal_committed_token__"

#: Journal record lifecycle.
INTENT = "intent"
COMMITTED = "committed"
ABORTED = "aborted"

#: ``has_committed``'s lookup and ``begin``'s guarded insert.  The
#: statuses are literals, not parameters: SQLite only uses a partial
#: index whose ``WHERE`` it can match against the statement's text.
_HAS_COMMITTED = f"SELECT 1 FROM {_TABLE} WHERE token = ? AND status = '{COMMITTED}' LIMIT 1"
_BEGIN = (
    f"INSERT INTO {_TABLE} (kind, view, token, status, payload) "
    f"SELECT ?, ?, ?, '{INTENT}', ? "
    f"WHERE NOT EXISTS (SELECT 1 FROM {_TABLE} WHERE status = '{INTENT}') "
    f"AND NOT EXISTS ({_HAS_COMMITTED})"
)


def journal_path(snapshot_path: str | Path) -> Path:
    """The journal file co-located with a snapshot file."""
    snapshot_path = Path(snapshot_path)
    return snapshot_path.with_name(snapshot_path.name + ".journal")


# ----------------------------------------------------------------------
# Digests and delta serialization
# ----------------------------------------------------------------------


#: Digests are sums modulo ``2**128`` of 128-bit keyed row hashes.
_DIGEST_MASK = (1 << 128) - 1
_ROW_HASHER = hashlib.blake2b(digest_size=16, key=b"repro.bag-digest.v1")
_INT_EQUAL_TYPES = frozenset((float, bool))


def _canonical(row: Row) -> Row:
    """``row`` with each value that equals an integer replaced by that integer.

    ``1 == 1.0 == True`` name one bag element, whichever spelling the
    bag happens to hold, so they must hash alike.
    """
    return tuple(
        int(value) if value.__class__ in _INT_EQUAL_TYPES and value % 1 == 0 else value
        for value in row
    )


def bag_digest(bag: Bag) -> str:
    """A content digest of a bag — equal bags digest equal.

    The digest is an *additive multiset hash*: ``Σ multiplicity ·
    H(row) mod 2**128`` over a keyed, process-stable row hash.  It does
    not depend on the order rows are visited in (no sort).  Two given
    different bags collide with probability ``2**-128``; an adversary
    choosing rows can do better (the sum is linear), which a checksum
    against crashes does not need to resist.
    """
    total = rows = 0
    fresh = _ROW_HASHER.copy
    for row, count in bag.items():
        if not _INT_EQUAL_TYPES.isdisjoint(map(type, row)):
            row = _canonical(row)
        hasher = fresh()
        hasher.update(repr(row).encode())
        total += count * int.from_bytes(hasher.digest(), "big")
        rows += 1
    obs.metric_inc("digest_rows_hashed", rows)
    return format(total & _DIGEST_MASK, "032x")


def table_digests(db: Database, tables: Iterable[str] | None = None) -> dict[str, str]:
    """:func:`bag_digest` of every (or each named) table in ``db``."""
    names = db.table_names() if tables is None else tuple(tables)
    return {name: bag_digest(db[name]) for name in names}


def serialize_bag(bag: Bag) -> list[list[Any]]:
    """A JSON-safe encoding of a bag: ``[[*row, count], ...]``, in the
    bag's own order (:func:`deserialize_bag` sums, so order is immaterial)."""
    return [[*row, count] for row, count in bag.items()]


def deserialize_bag(encoded: Iterable[Iterable[Any]]) -> Bag:
    """Inverse of :func:`serialize_bag` (JSON lists become row tuples)."""
    counts: dict[tuple, int] = {}
    for entry in encoded:
        *values, count = entry
        row = tuple(values)
        counts[row] = counts.get(row, 0) + int(count)
    return Bag.from_counts(counts)


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpIntent:
    """One journal record."""

    op_id: int
    kind: str
    view: str | None
    token: str | None
    status: str
    payload: dict[str, Any]

    @property
    def watermark(self) -> int | None:
        return self.payload.get("watermark")

    def describe(self) -> str:
        target = f" on view {self.view!r}" if self.view else ""
        watermark = self.watermark
        extra = f", log watermark {watermark}" if watermark is not None else ""
        return f"op #{self.op_id} {self.kind}{target} ({self.status}{extra})"


class IntentJournal:
    """An fsync'd, SQLite-backed write-ahead journal of maintenance intents."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # The shared retry policy (jittered backoff + deadline): opening
        # the journal races checkpoint writers and concurrent recoveries
        # for the same file, so connect/DDL must absorb lock contention.
        # ``check_same_thread=False``: a journaled action runs on
        # whichever thread holds the server's write mutex — a maintenance
        # worker as often as the caller — and only ever under that mutex.
        self._conn = with_retry(
            lambda: sqlite3.connect(self.path, check_same_thread=False), policy=RETRY_POLICY
        )
        self._closed = False
        with_retry(self._create, policy=RETRY_POLICY)

    def _create(self) -> None:
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        with self._conn:
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_TABLE} ("
                "  op_id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  kind TEXT NOT NULL,"
                "  view TEXT,"
                "  token TEXT,"
                "  status TEXT NOT NULL,"
                "  payload TEXT NOT NULL)"
            )
            # ``begin``'s two guards and ``has_committed`` probe these, so
            # an operation's journal cost does not grow with the history.
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS {_PENDING_INDEX} ON {_TABLE} (status) "
                f"WHERE status = '{INTENT}'"
            )
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS {_TOKEN_INDEX} ON {_TABLE} (token) "
                f"WHERE status = '{COMMITTED}' AND token IS NOT NULL"
            )

    def close(self) -> None:
        """Fold the write-ahead log into the journal file and close.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        fold_and_close(self._conn)

    def __enter__(self) -> IntentJournal:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def begin(
        self,
        kind: str,
        *,
        view: str | None = None,
        token: str | None = None,
        payload: Mapping[str, Any] | None = None,
    ) -> int:
        """Durably record the intent to run an operation; returns its id.

        Refuses to start a new intent while another is pending — a
        pending intent means a crash happened and recovery has not run —
        or under a ``token`` that was already committed.
        """
        encoded = json.dumps(dict(payload or {}), sort_keys=True)

        def insert() -> int | None:
            # Both guards ride on the INSERT itself: one statement, and
            # nothing can slip in between the check and the write.
            with self._conn:
                cursor = self._conn.execute(_BEGIN, (kind, view, token, encoded, token))
            return int(cursor.lastrowid) if cursor.rowcount == 1 else None

        op_id = with_retry(insert)
        if op_id is None:
            pending = self.pending()
            if pending is not None:
                raise RecoveryError(
                    f"journal {self.path} has a pending intent ({pending.describe()}); "
                    "run recovery before issuing new operations"
                )
            raise RecoveryError(f"token {token!r} was already committed; refusing duplicate intent")
        obs.metric_inc("journal_fsyncs")
        return op_id

    def _set_status(self, op_id: int, status: str) -> None:
        def update() -> None:
            with self._conn:
                cursor = self._conn.execute(
                    f"UPDATE {_TABLE} SET status = ? WHERE op_id = ? AND status = ?",
                    (status, op_id, INTENT),
                )
                if cursor.rowcount != 1:
                    raise RecoveryError(f"journal op #{op_id} is not pending; cannot mark it {status}")

        with_retry(update)
        obs.metric_inc("journal_fsyncs")

    def commit_op(self, op_id: int) -> None:
        """Durably mark a pending intent as completed."""
        self._set_status(op_id, COMMITTED)

    def abort_op(self, op_id: int) -> None:
        """Durably mark a pending intent as rolled back."""
        self._set_status(op_id, ABORTED)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _row_to_intent(self, row: tuple) -> OpIntent:
        op_id, kind, view, token, status, payload = row
        return OpIntent(int(op_id), kind, view, token, status, json.loads(payload))

    def records(self) -> list[OpIntent]:
        """All journal records, oldest first."""
        rows = with_retry(
            lambda: self._conn.execute(
                f"SELECT op_id, kind, view, token, status, payload FROM {_TABLE} ORDER BY op_id"
            ).fetchall()
        )
        return [self._row_to_intent(row) for row in rows]

    def pending(self) -> OpIntent | None:
        """The in-flight intent a crash left behind, if any."""
        rows = with_retry(
            lambda: self._conn.execute(
                f"SELECT op_id, kind, view, token, status, payload FROM {_TABLE} "
                f"WHERE status = '{INTENT}' ORDER BY op_id DESC LIMIT 1"
            ).fetchall()
        )
        return self._row_to_intent(rows[0]) if rows else None

    def has_committed(self, token: str) -> bool:
        """Whether a client token was already applied (exactly-once replay)."""
        rows = with_retry(
            lambda: self._conn.execute(_HAS_COMMITTED, (token,)).fetchall()
        )
        return bool(rows)
