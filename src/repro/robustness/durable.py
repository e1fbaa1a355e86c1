"""The crash-safe warehouse: journaled ops over an atomic checkpoint.

:class:`DurableWarehouse` wraps a :class:`~repro.warehouse.ViewManager`
bound to a snapshot file and makes every state-changing operation follow
the write-ahead protocol::

    intent journaled (fsync)  →  op runs in memory  →
    atomic checkpoint (one SQLite transaction on the snapshot file,
    stamped with the intent's op id)  →  intent committed

The per-operation durability cost tracks the *delta*, not the base: a
:class:`~repro.storage.persistence.DeltaQueue` registered on the
database queues every installed patch, and the checkpoint appends it to
the snapshot file — DDL, the first checkpoint after a reopen and the
occasional in-place compaction included.
Each of the two files has one owner holding one open connection for the
warehouse's life (the journal its own, the queue the snapshot's), both
in ``journal_mode=WAL`` with ``synchronous=FULL``; :meth:`DurableWarehouse.close`
closes them.

A crash at *any* instant leaves the disk in one of exactly three
states, all of which :func:`repro.robustness.recovery.recover` resolves:

* no pending intent — nothing was in flight; the snapshot is consistent;
* pending intent + pre-op snapshot (stamped with an earlier op id) —
  the operation never reached disk;
  recovery **rolls it forward** from the journal payload (user
  transactions carry their fully evaluated delta bags; maintenance
  operations re-run from the snapshot's surviving logs/differentials —
  the paper's refresh/propagate idempotence), or **rolls it back** when
  the intent is not replayable (DDL);
* pending intent + post-op snapshot (stamped with the intent's op id)
  — the checkpoint landed but the commit mark didn't; recovery verifies
  the invariants and marks the intent committed.

User transactions accept an optional idempotency ``token``; a token the
journal has already committed is skipped, so a client retrying after a
crash gets exactly-once semantics.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.expr import Expr
from repro.core.ops import MaintenanceAction
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import RecoveryError, ReproError
from repro.robustness.faults import fault_point
from repro.robustness.journal import IntentJournal, journal_path, serialize_bag
from repro.storage.persistence import holds_snapshot, track_deltas
from repro.warehouse.manager import ManagedTransaction, ViewManager
from repro.warehouse.persistence import load_warehouse, save_warehouse

__all__ = ["DurableWarehouse", "DurableTransaction"]


#: Manager reads a durable warehouse forwards as they are.
_UNJOURNALED = frozenset({"query", "sql", "views", "scenario", "is_stale", "check_invariants"})

#: The one fluent builder; a durable warehouse binds it with a ``token``
#: and its ``run()`` returns False when that token was already committed.
DurableTransaction = ManagedTransaction


class DurableWarehouse:
    """A :class:`ViewManager` whose every mutation survives a crash."""

    def __init__(
        self,
        path: str | Path,
        *,
        exec_mode: str | None = None,
        _manager: ViewManager | None = None,
        _skip_baseline: bool = False,
    ) -> None:
        self.path = Path(path)
        if _manager is None:
            if holds_snapshot(self.path):
                raise RecoveryError(
                    f"snapshot {self.path} already exists; use DurableWarehouse.open() to resume it"
                )
            _manager = ViewManager(exec_mode=exec_mode)
        self.manager = _manager
        self.db = self.manager.db
        self.db.journaled = True
        self.db.durable_origin = self.path
        self._queue = track_deltas(self.db, self.path)
        self.journal = IntentJournal(journal_path(self.path))
        pending = self.journal.pending()
        if pending is not None:
            self.journal.close()
            raise RecoveryError(
                f"journal has a pending intent ({pending.describe()}); "
                f"run `python -m repro recover {self.path}` (or recovery.recover) first"
            )
        if not _skip_baseline and not holds_snapshot(self.path):
            # Establish a baseline snapshot so recovery always has a
            # well-defined pre-state, even for a crash in the first op
            # (or start afresh a file whose baseline died before COMMIT).
            self.checkpoint()

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        auto_recover: bool = True,
        exec_mode: str | None = None,
    ) -> DurableWarehouse:
        """Resume a durable warehouse from its snapshot (+ journal).

        With ``auto_recover`` (the default) any interrupted operation is
        resolved first, exactly as ``python -m repro recover`` would.
        ``exec_mode`` re-establishes the runtime engine — the snapshot
        file stores none, so a caller that ran a sqlite warehouse must
        say so again here to resume (and roll forward) on the same
        engine.
        """
        path = Path(path)
        if auto_recover:
            from repro.robustness.recovery import recover

            recover(path, exec_mode=exec_mode)
        manager = load_warehouse(path, exec_mode=exec_mode)
        return cls(path, _manager=manager, _skip_baseline=True)

    def close(self) -> None:
        """Close both files' connections; each is left one self-contained file.

        Idempotent.  Until then the last commits may live in the
        ``-wal`` file next to the snapshot and next to the journal.
        """
        try:
            self._queue.close()
        finally:
            self.journal.close()

    def __enter__(self) -> DurableWarehouse:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The write-ahead protocol
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Force a snapshot of the current state (not itself journaled: stamped 0)."""
        save_warehouse(self.manager, self.path)

    def _run_journaled(
        self,
        kind: str,
        action: Callable[[], Any],
        *,
        view: str | None = None,
        token: str | None = None,
        payload: dict[str, Any] | None = None,
    ) -> None:
        fault_point("crash-before-journal")
        with obs.span("journal_op", kind=kind, view=view or "", counter=self.manager.counter):
            op_id = self.journal.begin(kind, view=view, token=token, payload=payload)
            fault_point("crash-after-journal")
            before = (self.db.clock, self.db.table_names())
            try:
                action()
            except ReproError:
                if (self.db.clock, self.db.table_names()) == before:
                    # Rejected before it wrote anything: there is nothing
                    # for recovery to resolve, so the intent is closed.
                    self.journal.abort_op(op_id)
                raise
            with obs.span("checkpoint", path=str(self.path)):
                save_warehouse(self.manager, self.path, op_id=op_id)
            fault_point("crash-after-checkpoint")
            with obs.span("journal_commit", op_id=op_id):
                self.journal.commit_op(op_id)
            fault_point("crash-after-commit")
            # The checkpoint just committed contains the current shared-log
            # cursors; any future replay starts from it, so entries every
            # cursor has passed become prunable exactly now.
            self.manager.shared_log.commit_watermark()

    # ------------------------------------------------------------------
    # Catalog (journaled as non-replayable intents: rolled back on crash)
    # ------------------------------------------------------------------

    def create_table(self, name: str, attrs: Iterable[str], *, rows: Iterable[Row] = ()) -> None:
        self._run_journaled("ddl", lambda: self.manager.create_table(name, attrs, rows=rows))

    def load(self, name: str, rows: Iterable[Row]) -> None:
        rows = list(rows)
        self._run_journaled("ddl", lambda: self.manager.load(name, rows))

    def define_view(
        self,
        name: str,
        definition: str | ViewDefinition | Expr,
        *,
        scenario: str = "combined",
        strong_minimality: bool = False,
        strict: bool = False,
    ) -> None:
        """:meth:`ViewManager.define_view`, journaled; its options are
        spelled out so an unknown one raises before the intent is begun."""
        options = {"scenario": scenario, "strong_minimality": strong_minimality, "strict": strict}
        self._run_journaled("ddl", lambda: self.manager.define_view(name, definition, **options), view=name)

    def drop_view(self, name: str) -> None:
        self._run_journaled("ddl", lambda: self.manager.drop_view(name), view=name)

    # ------------------------------------------------------------------
    # Transactions (journaled with evaluated deltas: rolled forward)
    # ------------------------------------------------------------------

    def transaction(self, *, token: str | None = None) -> DurableTransaction:
        return DurableTransaction(self, token=token)

    def execute(self, txn: UserTransaction, *, token: str | None = None) -> bool:
        """Run a user transaction under the write-ahead protocol.

        The transaction's delete/insert expressions are evaluated against
        the pre-state *once*, journaled as literal delta bags (making the
        intent replayable from the journal alone), and applied as a
        literal transaction — so a recovery replay is bit-identical to
        the original application.

        Returns ``False`` without doing anything — one journal lookup,
        nothing evaluated — when ``token`` was already committed (a
        client retry of an applied transaction).
        """
        if token is not None and self.journal.has_committed(token):
            return False
        deltas: dict[str, dict[str, list[list[Any]]]] = {}
        literal = UserTransaction(self.db)
        for name in sorted(txn.tables):
            delete = self.db.evaluate(txn.delete_expr(name), binding=txn.binding)
            insert = self.db.evaluate(txn.insert_expr(name), binding=txn.binding)
            deltas[name] = {"delete": serialize_bag(delete), "insert": serialize_bag(insert)}
            if delete:
                literal.delete(name, delete)
            if insert:
                literal.insert(name, insert)
        self._run_journaled(
            "txn", lambda: self.manager.execute(literal), token=token, payload={"deltas": deltas}
        )
        return True

    def execute_sql(self, script: str, *, token: str | None = None) -> bool:
        from repro.sqlfront.compiler import script_to_transaction

        txn = UserTransaction(self.db)
        script_to_transaction(script, self.db, txn)
        return self.execute(txn, token=token)

    # ------------------------------------------------------------------
    # Maintenance (journaled with watermark: re-run to completion)
    # ------------------------------------------------------------------

    def run(self, action: MaintenanceAction):
        """Run one reified action under the write-ahead protocol."""
        return action.run_on(self)

    def _journal(self, action: MaintenanceAction) -> None:
        """Journal *any* maintenance action, then run it on the manager.

        Kind, view, group options and log watermark are read off the
        value; recovery rebuilds the same value from the intent and
        hands it to the same :meth:`ViewManager.run`.
        """
        payload = action.journal_payload()
        payload["watermark"] = sum(self.manager.scenario(name).log_watermark() for name in action.targets(self.views()))
        self._run_journaled(
            action.kind, lambda: self.manager.run(action), view=action.view, payload=payload
        )

    def refresh(self, name: str) -> None:
        self._journal(MaintenanceAction("refresh", name))

    def refresh_all(self) -> None:
        self._journal(MaintenanceAction("refresh_all"))

    def refresh_group(
        self,
        names: Iterable[str] | None = None,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> None:
        """Group refresh under the write-ahead protocol.

        Journaled as one intent for the whole epoch: a crash anywhere in
        the group (including between two views' patches) is rolled
        forward by re-running the group refresh from the pre-op snapshot,
        whose logs and cursors recovery never prunes past (see
        :meth:`~repro.extensions.sharedlog.SharedLog.commit_watermark`).
        ``parallel`` and ``max_workers`` are accepted and ignored, as by
        :meth:`ViewManager.refresh_group`.
        """
        names = list(names) if names is not None else list(self.views())
        self._journal(MaintenanceAction("refresh_group", options={"names": names}))

    def propagate(self, name: str) -> None:
        self._journal(MaintenanceAction("propagate", name))

    def partial_refresh(self, name: str) -> None:
        self._journal(MaintenanceAction("partial_refresh", name))

    # ------------------------------------------------------------------
    # Reads and introspection (not journaled)
    # ------------------------------------------------------------------

    def query_fresh(self, name: str) -> Bag:
        self.refresh(name)
        return self.manager.query(name)

    def __getattr__(self, name: str):
        # query / sql / views / scenario / is_stale / check_invariants:
        # the manager answers reads directly.
        if name in _UNJOURNALED:
            return getattr(self.manager, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
