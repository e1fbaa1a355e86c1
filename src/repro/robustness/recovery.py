"""Invariant-driven recovery: restart a warehouse into a green state.

The paper's invariants (Figure 1) are the recovery oracle: after a
restart every scenario's invariant — ``INV_IM``, ``INV_BL``,
``INV_DT``, ``INV_C`` — must hold *exactly* over the reloaded snapshot.
:func:`recover` makes that true:

1. **Classify.**  Load the journal; if an intent is pending, read the
   op id the snapshot was stamped with
   (:func:`~repro.storage.persistence.checkpoint_op`).  A checkpoint is
   one SQLite transaction on the snapshot file and the stamp commits
   with it, so the snapshot is the completed post-op state exactly when
   its stamp is the pending intent's id, and otherwise exactly the
   pre-op state — a torn intermediate is impossible by construction.
   A snapshot with no stamp at all cannot answer, and recovery refuses
   to guess.
2. **Resolve.**  Pre-op snapshot: rebuild the journaled
   :class:`~repro.core.ops.MaintenanceAction` from the intent and hand
   it to the same :meth:`~repro.warehouse.manager.ViewManager.run` seam
   the live system uses (user transactions from their recorded delta
   bags; the refresh family simply re-runs against the surviving logs
   and differential tables — Figure 3's operations are deterministic
   functions of that state, which is what makes roll-forward sound),
   checkpoint (stamped with the intent's id, so a crash during recovery
   resolves exactly on the next run), and commit the intent.  Intents
   that name no action (DDL) are rolled back.  Post-op snapshot: the
   work is already durable; just commit the intent.
3. **Heal.**  Validate the engine-derived state against the recovered
   tables (:func:`heal_engine_state`): hash
   indexes are drained and audited bucket-for-bucket, and a pushdown
   executor's SQLite mirror is digest-compared per table — anything a
   crash left corrupted is rebuilt or resynced before the warehouse
   answers queries again.
4. **Audit.**  Recompute every view's scenario invariant from scratch
   and report.  ``recover`` is idempotent: a second run finds no
   pending intent and changes nothing.

``python -m repro recover <file>`` is the CLI front end (exit status 1
when any invariant is violated).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import obs
from repro.core.ops import MaintenanceAction
from repro.core.transactions import UserTransaction
from repro.errors import RecoveryError
from repro.robustness.journal import (
    IntentJournal,
    OpIntent,
    deserialize_bag,
    journal_path,
)
from repro.storage.persistence import checkpoint_op, track_deltas
from repro.warehouse.manager import ViewManager
from repro.warehouse.persistence import load_warehouse, save_warehouse

__all__ = ["ViewAudit", "RecoveryReport", "audit_manager", "heal_engine_state", "recover", "main"]

#: Scenario tag → the Figure 1 invariant it maintains.
INVARIANT_NAMES = {
    "IM": "INV_IM",
    "BL": "INV_BL",
    "DT": "INV_DT",
    "C": "INV_C",
}


@dataclass(frozen=True)
class ViewAudit:
    """The outcome of checking one view's scenario invariant."""

    view: str
    tag: str
    invariant: str
    holds: bool

    def format(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return f"view {self.view!r} [{self.tag}]: {self.invariant} {verdict}"


@dataclass
class RecoveryReport:
    """What :func:`recover` found and did."""

    path: Path
    pending: OpIntent | None
    #: ``"none"`` (clean journal), ``"rolled_forward"``,
    #: ``"already_applied"``, or ``"rolled_back"``.
    action: str
    audits: list[ViewAudit] = field(default_factory=list)
    #: Engine-derived state repaired by the heal step:
    #: ``{"indexes": [...], "mirror": [...]}`` (usually both empty).
    healed: dict = field(default_factory=lambda: {"indexes": [], "mirror": []})

    @property
    def green(self) -> bool:
        """Every view's invariant holds after recovery."""
        return all(audit.holds for audit in self.audits)

    def format(self) -> str:
        lines = [f"recover {self.path}:"]
        if self.pending is None:
            lines.append("  journal clean — no operation was in flight")
        else:
            lines.append(f"  pending: {self.pending.describe()}")
            lines.append(f"  action: {self.action.replace('_', ' ')}")
        repaired = [item for items in self.healed.values() for item in items]
        if repaired:
            lines.append(f"  healed engine state: {', '.join(sorted(repaired))}")
        if not self.audits:
            lines.append("  no views registered")
        for audit in self.audits:
            lines.append(f"  {audit.format()}")
        lines.append("  state: " + ("GREEN" if self.green else "RED"))
        return "\n".join(lines)


def invariant_name(tag: str) -> str:
    return INVARIANT_NAMES.get(tag, f"INV_{tag}")


def audit_manager(manager: ViewManager) -> list[ViewAudit]:
    """Recompute every registered view's scenario invariant from scratch."""
    audits = []
    for name in manager.views():
        scenario = manager.scenario(name)
        audits.append(
            ViewAudit(name, scenario.tag, invariant_name(scenario.tag), scenario.invariant_holds())
        )
    return audits


def heal_engine_state(db) -> dict[str, list[str]]:
    """Validate and repair all engine-derived state against the tables.

    Crash recovery's last step: hash indexes are drained and audited
    bucket-for-bucket (:meth:`~repro.exec.indexes.IndexManager.verify`,
    rebuilding any an interrupted maintenance step corrupted), and a
    pushdown executor's SQLite mirror is digest-compared per table and
    resynced where diverged.  Derived state that was never built (the
    common case right after a fresh load) audits clean for free.
    Returns ``{"indexes": [...], "mirror": [...]}`` naming what was
    healed.
    """
    return {"indexes": db.indexes.verify(db.state), "mirror": db.heal_engine()}


def _journaled_action(manager: ViewManager, intent: OpIntent) -> MaintenanceAction | None:
    """The action ``intent`` recorded, or ``None`` when it only rolls back.

    A group epoch comes back sequential: compaction and sequential
    scheduling are functions of the snapshot's logs and cursors, and
    parallel vs sequential execution is bag-equal by design.
    """
    action = MaintenanceAction.from_journal(intent.kind, intent.view, intent.payload)
    if action is None or "deltas" not in intent.payload:
        return action
    txn = UserTransaction(manager.db)
    for table, delta in sorted(intent.payload["deltas"].items()):
        delete = deserialize_bag(delta["delete"])
        insert = deserialize_bag(delta["insert"])
        if delete:
            txn.delete(table, delete)
        if insert:
            txn.insert(table, insert)
    return replace(action, options={"txn": txn})


def recover(path: str | Path, *, exec_mode: str | None = None) -> RecoveryReport:
    """Resolve any interrupted operation at ``path`` and audit invariants.

    The snapshot stores no engine choice: ``exec_mode`` is the
    warehouse's own (what
    :meth:`~repro.robustness.durable.DurableWarehouse.open` is given), so
    the roll-forward runs on the engine the warehouse resumes on.

    Idempotent: running it again (or crashing *during* recovery and
    running it once more) converges to the same green state.  Raises
    :class:`RecoveryError`, having changed nothing, when an intent is
    pending over a snapshot that carries no checkpoint stamp.
    """
    path = Path(path)
    if not path.exists():
        raise RecoveryError(f"no snapshot at {path}; nothing to recover")
    with obs.span("recovery", path=str(path)) as recovery_span:
        journal = IntentJournal(journal_path(path))
        queue = None
        try:
            pending = journal.pending()
            if pending is not None:
                stamp = checkpoint_op(path)
                if stamp is None:
                    raise RecoveryError(
                        f"snapshot {path} carries no checkpoint stamp, so it cannot say whether "
                        f"{pending.describe()} landed; refusing to guess (a wrong guess would "
                        "replay an applied operation or drop a lost one)"
                    )
            manager = load_warehouse(path, exec_mode=exec_mode)
            # The roll-forward checkpoint below appends what the replay
            # queued, like any other checkpoint.
            queue = track_deltas(manager.db, path)
            action = "none"
            if pending is not None:
                if stamp != pending.op_id:
                    journaled = _journaled_action(manager, pending)
                    if journaled is not None:
                        manager.run(journaled)
                        save_warehouse(manager, path, op_id=pending.op_id)
                        journal.commit_op(pending.op_id)
                        action = "rolled_forward"
                    else:
                        journal.abort_op(pending.op_id)
                        action = "rolled_back"
                else:
                    # The atomic checkpoint landed, so the snapshot *is* the
                    # completed post-state; only the commit mark was lost.
                    journal.commit_op(pending.op_id)
                    action = "already_applied"
            healed = heal_engine_state(manager.db)
            audits = audit_manager(manager)
            recovery_span.set(action=action, pending=pending.describe() if pending else "")
            obs.metric_inc(f'recoveries{{action="{action}"}}')
            return RecoveryReport(path, pending, action, audits, healed)
        finally:
            if queue is not None:
                queue.close()
            journal.close()


def main(argv: list[str]) -> int:
    """CLI front end: ``python -m repro recover <file>``."""
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro recover <warehouse.db>")
        return 0 if argv else 2
    report = recover(argv[0])
    print(report.format())
    return 0 if report.green else 1
