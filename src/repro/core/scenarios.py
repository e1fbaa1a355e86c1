"""The view-maintenance scenarios and their algorithms (Figure 3).

Four scenario classes, one per invariant of Figure 1:

* :class:`ImmediateScenario` — ``INV_IM``; every user transaction is
  extended with the incremental view update (pre-update deltas).
* :class:`BaseLogScenario` — ``INV_BL``; transactions only extend the
  log, ``refresh`` applies post-update deltas and clears the log.
* :class:`DiffTableScenario` — ``INV_DT``; transactions fold pre-update
  deltas into the view differential tables, ``refresh`` just applies
  them (minimal work under the view's write lock).
* :class:`CombinedScenario` — ``INV_C``; transactions only extend the
  log, ``propagate`` moves log contents into the differential tables
  *without locking the view*, and ``partial_refresh`` applies the
  differential tables under the lock.  This combination achieves both
  low per-transaction overhead and low view downtime (Section 5.3).

Each operation is declared **once**, as a
:class:`~repro.core.ops.MaintenanceOp` (one row of Figure 3), and
executed by the single runner :meth:`Scenario.run`, which owns the span,
the lock, the crash point and the freshness bookkeeping.  The same
values feed the group scheduler, partitioned maintenance and the effect
analyzer (:meth:`Scenario.maintenance_protocol`).

Table updates run as *patches* — delta-proportional indexed updates — so
the cost accounting matches the paper's argument: log extension costs
O(|ΔT|), applying differential tables costs O(|∇MV| + |ΔMV|), and only
the computation of incremental queries pays join-shaped costs.

All maintenance work is accounted in a
:class:`~repro.algebra.evaluation.CostCounter` and all view-locking
critical sections in a :class:`~repro.storage.locks.LockLedger`, so the
experiments can compare overhead and downtime across scenarios.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from contextlib import nullcontext
from functools import cached_property, partial

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr, Literal, Monus, min_expr
from repro.core import invariants
from repro.core.differential import post_update_delta, pre_update_delta
from repro.core.logs import Log
from repro.core.ops import MaintenanceOp, OpStep
from repro.core.plan import MaintenancePlan
from repro.core.substitution import bound_pair, pair_binding
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import InvariantViolation, PolicyError
from repro.robustness.faults import fault_point
from repro.storage.database import Database
from repro.storage.locks import LockLedger

__all__ = [
    "Scenario",
    "ImmediateScenario",
    "BaseLogScenario",
    "DiffTableScenario",
    "CombinedScenario",
]


class Scenario(ABC):
    """Common machinery for one materialized view under one scenario."""

    #: Short scenario tag matching the paper's invariant subscripts.
    tag: str = "?"
    #: Effect-step label of this scenario's ``makesafe`` extension.
    makesafe_step: str = "makesafe"
    #: The shared-log group the view belongs to (shared-log views only).
    group = None

    def __init__(
        self,
        db: Database,
        view: ViewDefinition,
        *,
        counter: CostCounter | None = None,
        ledger: LockLedger | None = None,
        strict: bool = False,
    ) -> None:
        self.db = db
        self.view = view
        self.counter = counter if counter is not None else CostCounter()
        self.ledger = ledger if ledger is not None else LockLedger()
        #: When True, install-time lint findings raise instead of warn.
        self.strict = strict
        self._installed = False
        #: Partition-pruned fast path (see :mod:`repro.core.partition_refresh`);
        #: set at install time by the log-keeping scenarios when the database
        #: is partitioned and the maintenance plan is prunable.
        self._pmaint = None
        #: The install-time probe's verdict (``PROBE_OUTCOMES``), once asked.
        self.partition_probe: str | None = None
        #: Operation kind -> the one definition of that operation.
        self.ops: dict[str, MaintenanceOp] = self._declare_ops()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _lint_on_install(self) -> None:
        """Run the static analyzer over the view definition.

        Warn-by-default: findings are emitted as
        :class:`~repro.analysis.diagnostics.AnalysisWarning`; with
        ``strict=True`` they raise :class:`~repro.errors.AnalysisError`.
        """
        from repro.analysis.diagnostics import AnalysisWarning
        from repro.analysis.lint import lint_view

        report = lint_view(self.view, self.db, properties=False)
        # RVM401: maintenance state on this database is persistent, but
        # no write-ahead journal guards it — a crash inside refresh /
        # propagate / makesafe can leave MV, logs, and differentials
        # mutually inconsistent on disk (see repro.robustness).
        if getattr(self.db, "durable_origin", None) is not None and not getattr(self.db, "journaled", False):
            from repro.analysis.diagnostics import Severity

            report.add(
                "RVM401",
                Severity.WARNING,
                f"view {self.view.name!r} is installed on persistent database "
                f"{self.db.durable_origin} without journaling; use "
                "repro.robustness.DurableWarehouse (or accept that a crash during "
                "maintenance leaves the snapshot unrecoverable)",
                path=self.view.name,
            )
        if self.strict:
            report.raise_if_failed(context=f"install of view {self.view.name!r}")
        else:
            for diagnostic in report.errors + report.warnings:
                warnings.warn(diagnostic.format(), AnalysisWarning, stacklevel=4)

    def install(self) -> None:
        """Create and initialize ``MV`` and the scenario's auxiliary tables."""
        if self._installed:
            return
        self._lint_on_install()
        # Compile the view query and pre-build the indexes its plan can
        # use, so every later delta evaluation probes instead of scans
        # (a no-op under the interpreted oracle).
        self.db.prime(self.view.query, counter=self.counter)
        initial = self.db.evaluate(self.view.query, counter=self.counter)
        self.db.create_table(self.view.mv_table, self.view.schema, rows=initial, internal=True)
        self._install_auxiliary()
        self._installed = True

    def _install_auxiliary(self) -> None:
        """Create scenario-specific auxiliary tables (default: none)."""

    def uninstall(self) -> None:
        """Drop ``MV`` and every auxiliary table this scenario created."""
        if not self._installed:
            return
        self._uninstall_auxiliary()
        self.db.drop_table(self.view.mv_table)
        self._installed = False

    def _uninstall_auxiliary(self) -> None:
        """Drop scenario-specific auxiliary tables (default: none)."""

    # ------------------------------------------------------------------
    # The operation table (Figure 3, one row per entry)
    # ------------------------------------------------------------------

    def _op(self, kind: str, *steps: OpStep, **attrs) -> MaintenanceOp:
        if self._pmaint is not None:
            attrs = {"partitioned": True, **attrs}
        return MaintenanceOp(kind, self.view.name, steps, tuple(attrs.items()))

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        """This scenario's operations; subclasses add their refresh family.

        ``makesafe`` runs inside the user transaction's own atomicity,
        so it holds no maintenance lock — and needs none.
        """
        makesafe = OpStep(self.makesafe_step, plan=self._makesafe_extension)
        return {"makesafe": self._op("makesafe", makesafe), "refresh": self._op("refresh")}

    def op(self, kind: str) -> MaintenanceOp:
        """The definition of operation ``kind`` for this view."""
        try:
            return self.ops[kind]
        except KeyError:
            raise PolicyError(
                f"view {self.view.name!r} is maintained under {type(self).__name__}, which has "
                f"no {kind!r} operation (it offers {sorted(self.ops)})"
            ) from None

    def run(self, kind: str | MaintenanceOp, deltas: tuple[Bag, Bag] | None = None) -> None:
        """Execute one maintenance operation — the only place that does.

        A compute step yields the symbolic ``(delete, insert)`` pair; the
        apply steps' plans evaluate it inside their one simultaneous
        transaction.  The view's exclusive lock is taken before the first
        apply step of an op with locked steps and held to the end (a
        leading compute step only *builds* expressions); the crash point
        fires right after.  ``deltas`` is the group path: the epoch's
        delta cache supplies the evaluated pair, compute steps are
        skipped, and the apply steps run over the view's bound pair with
        the bags bound to it — the same plans every epoch.
        """
        op = kind if isinstance(kind, MaintenanceOp) else self.op(kind)
        if not op.steps:
            return  # immediate maintenance: nothing is ever pending
        telemetry = obs.telemetry_enabled()
        attrs = dict(op.attrs)
        pair: tuple = ()
        binding = None
        if deltas is not None:
            pair = bound_pair(self.view.mv_table, self.view.schema)
            binding = pair_binding({self.view.mv_table: deltas})
            attrs.update(group=True, delta_rows=len(deltas[0]) + len(deltas[1]))
        elif any(step.deltas is not None for step in op.steps):
            attrs["log_watermark"] = self.log_watermark() if telemetry else 0
        else:
            attrs["delta_rows"] = self._pending_dt_rows() if telemetry else 0
        steps = op.steps
        with obs.span(op.kind, view=self.view.name, scenario=self.tag, counter=self.counter, **attrs):
            if steps[0].deltas is not None:
                # A leading compute step only builds expressions: outside the lock.
                if deltas is None:
                    pair = (steps[0].via or steps[0].deltas)()
                steps = steps[1:]
            if pair is not None:  # None: nothing recorded — nothing to apply, no lock
                lock = self._refresh_lock(f"{op.kind}_{self.tag}") if op.locked else nullcontext()
                with lock:
                    fault_point(op.fault)
                    for step in steps:
                        if step.deltas is not None:
                            if deltas is None:
                                pair = (step.via or step.deltas)()
                        elif step.via is not None:
                            step.via(*pair, binding=binding)
                        else:
                            self._execute(step.plan(*pair), pair, binding)
        if op.locked:
            # After a partial refresh the still-unpropagated log stays
            # behind: the view is a bounded k ticks out of date.
            self._note_fresh()
        elif telemetry:
            obs.metric_inc("propagations")

    def _execute(self, plan: MaintenancePlan, pair: tuple, binding) -> None:
        counter = self.counter
        if binding is not None and plan.patches.get(self.view.mv_table) == pair:
            # The bound bags were evaluated (and counted) by the epoch's
            # compute; patching MV with them only re-emits them, which
            # must not be counted a second time.
            counter = None
        plan.execute(self.db, counter=counter, binding=binding)

    def maintenance_protocol(self) -> tuple:
        """This scenario's operations as inferred effect sets.

        Derived from :attr:`ops` — the very values :meth:`run` executes —
        for the Section 5.3 lock-discipline checks in
        :mod:`repro.analysis.concurrency_check`.
        """
        from repro.analysis.effects import op_effects

        return tuple(op_effects(self, op) for op in self.ops.values() if op.steps)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def make_safe(self, txn: UserTransaction) -> MaintenancePlan:
        """``makesafe[T]``: the plan combining T with auxiliary updates."""
        txn = txn.weakly_minimal()
        plan = MaintenancePlan(patches=txn.patches(), binding=txn.binding)
        self._extend(plan, txn)
        return plan

    @abstractmethod
    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """Add this scenario's auxiliary updates for weakly minimal ``txn``."""

    def _makesafe_extension(self) -> MaintenancePlan:
        """``makesafe``'s auxiliary half for effect inference: the runtime's
        own :meth:`_extend` over a stand-in transaction touching every
        base table (never executed — only its footprint is read)."""
        stand_in = UserTransaction(self.db)
        for table in sorted(self.view.base_tables()):
            ref = self.db.ref(table)
            stand_in.delete_query(table, ref).insert_query(table, ref)
        plan = MaintenancePlan()
        self._extend(plan, stand_in.weakly_minimal())
        return plan

    def execute(self, txn: UserTransaction) -> None:
        """Run ``makesafe[T]`` against the database."""
        with obs.span("makesafe", view=self.view.name, scenario=self.tag, counter=self.counter):
            self.make_safe(txn).execute(self.db, counter=self.counter)
            self.post_execute()
        self._note_stale()

    def post_execute(self) -> None:
        """Optional normalization run after each transaction (default: none)."""

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Bring ``MV`` up to date: afterwards :math:`Q \\equiv MV`."""
        self.run("refresh")

    def epoch_tasks(self, *, order: int, compact: bool) -> list | None:
        """This view's tasks in a group-refresh epoch.

        ``None`` (the default) means the scenario has no group form; the
        group falls back to its own :meth:`refresh` after the epoch.
        """
        return None

    def _refresh_lock(self, label: str):
        """The exclusive section guarding reader-visible ``MV`` state.

        :meth:`run` takes this lock around every locked step;
        :meth:`_refresh_lock_resources` is the static declaration of the
        same fact, consumed by ``maintenance_protocol()``.  Keeping
        acquisition and declaration on one seam means the concurrency
        analyzer and the runtime code cannot silently drift apart.
        """
        return self.ledger.exclusive(self.view.mv_table, label=label, counter=self.counter)

    def _refresh_lock_resources(self) -> frozenset[str]:
        """Resources :meth:`_refresh_lock` holds exclusively."""
        return frozenset((self.view.mv_table,))

    def read_view(self) -> Bag:
        """The current contents of ``MV`` (what a reader sees)."""
        return self.db[self.view.mv_table]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @abstractmethod
    def invariant_holds(self) -> bool:
        """Check this scenario's Figure 1 invariant (full recomputation)."""

    def check_invariant(self) -> None:
        """Raise :class:`InvariantViolation` when the invariant is broken."""
        if not self.invariant_holds():
            raise InvariantViolation(
                f"scenario {self.tag}: invariant violated for view {self.view.name!r}"
            )

    def is_consistent(self) -> bool:
        """Whether ``MV`` currently equals ``Q`` (i.e. no refresh pending)."""
        return invariants.immediate_invariant(self.db, self.view)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def staleness_entries(self) -> int:
        """Unabsorbed update entries pending for ``MV`` right now.

        The staleness unit of Section 5.3's second axis: recorded log
        tuples plus pending differential rows, depending on the
        invariant.  Immediate maintenance is never stale.
        """
        return self.log_watermark() + self._pending_dt_rows()

    def log_watermark(self) -> int:
        """Recorded log changes not yet absorbed (0 without a log)."""
        return 0

    def _pending_dt_rows(self) -> int:
        """Rows waiting in the differential tables (0 without them)."""
        return 0

    def _note_stale(self) -> None:
        """Record post-transaction staleness on the active accountant."""
        if obs.telemetry_enabled():
            obs.accountant().mark_stale(self.view.name, pending_entries=self.staleness_entries())

    def _note_fresh(self) -> None:
        """Record a completed refresh and whatever it left behind."""
        if obs.telemetry_enabled():
            obs.accountant().mark_fresh(self.view.name, residual_entries=self.staleness_entries())
            obs.metric_inc("refreshes")


class ImmediateScenario(Scenario):
    """Immediate maintenance: ``INV_IM`` (Section 3.2).

    ``makesafe_IM[T]`` augments ``T`` with
    :math:`MV := (MV \\dot{-} \\nabla(T,Q)) \\uplus \\Delta(T,Q)`, the
    incremental queries being evaluated in the pre-update state — which
    is exactly what simultaneous-assignment execution provides.
    """

    tag = "IM"
    makesafe_step = "mv_patch"

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        nabla, delta = pre_update_delta(txn, self.db, self.view.query)
        plan.add_patch(self.view.mv_table, nabla, delta)

    def refresh(self) -> None:
        """No-op: the view is consistent after every transaction."""

    def invariant_holds(self) -> bool:
        return invariants.immediate_invariant(self.db, self.view)


class LoggedScenario(Scenario):
    """What ``INV_BL`` and ``INV_C`` share: a per-view base-table log.

    ``makesafe`` only extends the log; the post-update deltas of Figure 2
    are computed over it later, by ``refresh_BL`` / ``propagate_C`` /
    ``refresh_C`` — pruned to the affected partitions when the database
    is partitioned (:mod:`repro.core.partition_refresh`).
    """

    makesafe_step = "log_extend"

    def __init__(self, db, view, **options) -> None:
        super().__init__(db, view, **options)
        self.log = Log(db, view.base_tables(), owner=view.name)

    def _install_auxiliary(self) -> None:
        super()._install_auxiliary()
        self.log.install()
        # Compile the refresh deltas and pre-build their indexes *now*:
        # the log tables are still empty, so the one-time ``index_build``
        # scans are free; each log index is then maintained incrementally
        # through the per-transaction log patches, and every refresh
        # finds a current index to probe.
        self.db.prime(*self._log_deltas(), counter=self.counter)
        from repro.core.partition_refresh import PartitionedMaintenance

        self._pmaint = PartitionedMaintenance.probe(self)
        if self._pmaint is not None:
            # Same operations, routed: the install-time pruned pair,
            # bound to each epoch's keys; apply_parts apply.
            self.ops = self._declare_ops()

    def _uninstall_auxiliary(self) -> None:
        super()._uninstall_auxiliary()
        self.log.uninstall()

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """``makesafe_BL[T]`` = ``makesafe_C[T]``: the weakly-minimal log extension."""
        for table, (delete, insert) in self.log.extend_patches(txn).items():
            plan.add_patch(table, delete, insert)

    def _log_deltas(self) -> tuple[Expr, Expr]:
        return self._log_pair

    @cached_property
    def _log_pair(self) -> tuple[Expr, Expr]:
        """Figure 2's post-update pair over the log: a function of the view
        and its log only, so differentiated once and the same expressions
        (plans, memos, cached table sets) every refresh."""
        return post_update_delta(self.log, self.view.query)

    def _compute_step(self, *, locked: bool, skip_idle: bool = False) -> OpStep:
        """Compute the post-update deltas over the log (on a partitioned
        database: the pair pruned at install).  ``skip_idle``: there, an
        empty log ends the op before it takes the lock (only sound for an
        op that just installs this pair)."""
        via = None
        if self._pmaint is not None:
            pruned = self._pmaint.epoch_deltas_if_pending if skip_idle else self._pmaint.epoch_deltas
            via = partial(pruned, self)
        return OpStep("delta_compute", locked, deltas=self._log_deltas, via=via)

    def _log_refresh_plan(self, delete: Expr, insert: Expr) -> MaintenancePlan:
        """``refresh_BL``'s assignments: patch ``MV``, clear the log."""
        plan = MaintenancePlan(assignments=self.log.clear_assignments())
        plan.add_patch(self.view.mv_table, delete, insert)
        return plan

    def compact_log(self) -> None:
        """Net-effect log compaction before a (group) refresh.

        Cancels :math:`\\blacktriangledown R \\min \\blacktriangle R` from
        both log sides (sound under Lemma 4's weak minimality; preserves
        ``PAST(L, Q)`` exactly), so the refresh deltas scale with the net
        change rather than the raw churn.
        """
        self.log.compact(counter=self.counter)

    def epoch_tasks(self, *, order: int, compact: bool) -> list:
        if compact:
            self.compact_log()
        return [self.group_refresh_task(order=order)]

    def group_refresh_task(self, *, order: int):
        """This view's contribution to a group-refresh epoch.

        The shareable *compute* half evaluates the post-update deltas of
        Figure 2; the cache key renames the per-view log tables to
        canonical placeholders and digests their contents, so
        structurally identical views over identical recorded changes — a
        BL view and a C view with the same query included — share one
        evaluation per epoch.  The *apply* half is this scenario's own
        ``refresh`` op with the computed pair supplied.  What no epoch
        changes (the pair, its fingerprints, the inferred footprint) is
        built with the first task and kept (:meth:`_group_parts`).
        """
        from repro.exec.group import GroupTask, evaluate_delta_pair

        view_delete, view_insert, fingerprints, inferred = self._group_parts
        base = tuple(sorted(self.view.base_tables()))

        def key():
            stamps = tuple((table, self.db.version_of(table)) for table in base)
            return ("log", *fingerprints, stamps, self.log.content_digests())

        return GroupTask(
            name=self.view.name,
            order=order,
            key=key,
            compute=lambda counter: evaluate_delta_pair(self.db, view_delete, view_insert, counter),
            apply=partial(self.run, "refresh"),
            reads=frozenset(base) | frozenset(self.log.table_names()),
            writes=self._group_writes(),
            inferred_reads=inferred.reads,
            inferred_writes=inferred.writes,
        )

    @cached_property
    def _group_parts(self):
        """``(▼, ▲, their fingerprints, the refresh op's inferred effects)``.

        A function of the view definition and the installed op table
        only.  Priming here — on the scheduling thread, before any
        epoch computes — is what lets pool workers only ever *execute*
        (install primes the same pair; a reloaded scenario was never
        installed in this process).
        """
        from repro.analysis.effects import op_effects
        from repro.exec.group import subplan_fingerprint

        view_delete, view_insert = self._log_deltas()
        self.db.prime(view_delete, view_insert, counter=self.counter)
        rename = self.log.canonical_rename()
        fingerprints = (
            subplan_fingerprint(view_delete, rename),
            subplan_fingerprint(view_insert, rename),
        )
        # Independently inferred footprint, read off the refresh op —
        # *not* the declared reads/writes of the task, so a drifted
        # declaration is detectable (RVM604).
        inferred = op_effects(self, self.ops["refresh"])
        return view_delete, view_insert, fingerprints, inferred

    def _group_writes(self) -> frozenset[str]:
        """The write set a group task *declares* (checked against inference)."""
        return frozenset((self.view.mv_table, *self.log.table_names()))

    def log_watermark(self) -> int:
        return self.log.recorded_changes()


class BaseLogScenario(LoggedScenario):
    """Deferred maintenance with base logs: ``INV_BL`` (Section 3.3).

    ``refresh_BL`` applies the post-update deltas to ``MV`` and clears
    the log.  The incremental queries are computed under the view's
    exclusive lock — this is why refresh time can be high in this
    scenario (motivating ``INV_C``).
    """

    tag = "BL"

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        ops = super()._declare_ops()
        parts = self._pmaint
        ops["refresh"] = self._op(
            "refresh",
            self._compute_step(locked=True, skip_idle=True),
            OpStep(
                "apply",
                locked=True,
                plan=self._log_refresh_plan,
                via=parts and partial(parts.refresh_log, self),
            ),
        )
        return ops

    def invariant_holds(self) -> bool:
        return invariants.base_log_invariant(self.db, self.view, self.log) and self.log.is_weakly_minimal()


class DiffTableScenario(Scenario):
    """Deferred maintenance with view differential tables: ``INV_DT`` (Section 3.4).

    ``refresh_DT`` just applies the precomputed differentials — minimal
    downtime.  With ``strong_minimality=True``, a normalization step
    after each fold removes the common part of :math:`\\triangledown MV`
    and :math:`\\triangle MV` (no tuple both deleted and reinserted),
    shrinking refresh work further (Section 5.3).
    """

    tag = "DT"
    makesafe_step = "dt_fold"

    def __init__(self, db, view, *, strong_minimality: bool = False, **options) -> None:
        self.strong_minimality = strong_minimality
        super().__init__(db, view, **options)

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        ops = super()._declare_ops()
        ops["refresh"] = self._op("refresh", self._apply_dt_step())
        return ops

    def _install_auxiliary(self) -> None:
        self.db.create_table(self.view.dt_delete_table, self.view.schema, internal=True)
        self.db.create_table(self.view.dt_insert_table, self.view.schema, internal=True)

    def _uninstall_auxiliary(self) -> None:
        self.db.drop_table(self.view.dt_delete_table)
        self.db.drop_table(self.view.dt_insert_table)

    def _empty_literal(self) -> Literal:
        return Literal(Bag.empty(), self.view.schema)

    def _fold_into_dt(self, plan: MaintenancePlan, delete: Expr, insert: Expr) -> None:
        """Fold a ``(delete, insert)`` view delta into ∇MV/ΔMV (Lemma 3).

        .. math::

            \\triangledown MV := \\triangledown MV \\uplus
                (del \\dot{-} \\triangle MV), \\qquad
            \\triangle MV := (\\triangle MV \\dot{-} del) \\uplus ins
        """
        dt_insert = self.db.ref(self.view.dt_insert_table)
        plan.add_patch(self.view.dt_delete_table, self._empty_literal(), Monus(delete, dt_insert))
        plan.add_patch(self.view.dt_insert_table, delete, insert)

    def _normalize_plan(self, *_pair: Expr) -> MaintenancePlan:
        """Strong-minimality normalization: cancel ∇MV ∩ ΔMV (Section 4.1)."""
        common = min_expr(self.db.ref(self.view.dt_delete_table), self.db.ref(self.view.dt_insert_table))
        plan = MaintenancePlan()
        plan.add_patch(self.view.dt_delete_table, common, self._empty_literal())
        plan.add_patch(self.view.dt_insert_table, common, self._empty_literal())
        return plan

    def post_execute(self) -> None:
        if self.strong_minimality:
            self._normalize_plan().execute(self.db, counter=self.counter)

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """``makesafe_DT[T]``: fold the pre-update deltas into ∇MV/ΔMV."""
        nabla, delta = pre_update_delta(txn, self.db, self.view.query)
        self._fold_into_dt(plan, nabla, delta)

    def _apply_dt_plan(self, *_pair: Expr) -> MaintenancePlan:
        """``refresh_DT``'s plan: apply and clear the differentials."""
        dt_delete = self.db.ref(self.view.dt_delete_table)
        dt_insert = self.db.ref(self.view.dt_insert_table)
        plan = MaintenancePlan()
        plan.add_patch(self.view.mv_table, dt_delete, dt_insert)
        plan.add_assignment(self.view.dt_delete_table, self._empty_literal())
        plan.add_assignment(self.view.dt_insert_table, self._empty_literal())
        return plan

    def _apply_dt_step(self) -> OpStep:
        """``refresh_DT`` = ``partial_refresh_C``, partition-at-a-time when possible."""
        parts = self._pmaint
        return OpStep(
            "apply",
            locked=True,
            plan=self._apply_dt_plan,
            via=parts and partial(parts.apply_differentials, self),
        )

    def _pending_dt_rows(self) -> int:
        return len(self.db[self.view.dt_delete_table]) + len(self.db[self.view.dt_insert_table])

    def invariant_holds(self) -> bool:
        holds = invariants.diff_table_invariant(self.db, self.view)
        return holds and invariants.dt_minimality_invariant(self.db, self.view)


class CombinedScenario(LoggedScenario, DiffTableScenario):
    """Deferred maintenance with logs *and* differential tables: ``INV_C`` (Section 3.5).

    * ``makesafe_C[T] = makesafe_BL[T]`` — per-transaction overhead is just
      the log extension.
    * ``propagate_C`` moves the log's changes into ∇MV/ΔMV (computing the
      post-update deltas *outside* any view lock) and clears the log.
    * ``partial_refresh_C = refresh_DT`` — applies the differentials under
      the lock; afterwards ``MV`` equals ``PAST(L, Q)``.
    * ``refresh_C`` is either propagate-then-partial-refresh or
      partial-refresh-then-``refresh_BL``.
    """

    tag = "C"

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        ops = super()._declare_ops()
        del ops["refresh"]  # re-declared below, after the ops it composes
        parts = self._pmaint
        fold = partial(
            OpStep,
            "dt_fold",
            plan=self._fold_plan,
            via=parts and partial(parts.execute_plan, self, self._fold_plan),
        )
        apply = self._apply_dt_step()
        # propagate_C holds no lock by design: it reads base/log tables
        # and writes only maintenance-private differentials — never MV.
        normalize = (OpStep("dt_normalize", plan=self._normalize_plan),) if self.strong_minimality else ()
        ops["propagate"] = self._op("propagate", self._compute_step(locked=False), fold(), *normalize)
        ops["partial_refresh"] = self._op("partial_refresh", apply)
        # refresh_C, both compositions of Figure 3.  The *entire*
        # composed refresh runs under the view's exclusive lock — this
        # is the downtime Policy 1 pays.  Its advantage over refresh_BL
        # is that periodic (unlocked) propagation already absorbed all
        # but the last k time units of the log, so the in-lock delta
        # computation covers a short log only.
        compute = self._compute_step(locked=True)
        tail = OpStep(
            "log_apply",
            locked=True,
            plan=self._log_refresh_plan,
            via=parts and partial(parts.execute_plan, self, self._log_refresh_plan),
        )
        self._refresh_orders = {
            "propagate_first": self._op(
                "refresh", compute, fold(locked=True), apply, order="propagate_first"
            ),
            "partial_first": self._op("refresh", apply, compute, tail, order="partial_first"),
        }
        ops["refresh"] = self._refresh_orders["propagate_first"]
        return ops

    def post_execute(self) -> None:
        """Transactions only touch the log; differentials are untouched."""

    def _fold_plan(self, delete: Expr, insert: Expr) -> MaintenancePlan:
        """``propagate_C``'s assignments: fold into ∇MV/ΔMV, clear the log."""
        plan = MaintenancePlan(assignments=self.log.clear_assignments())
        self._fold_into_dt(plan, delete, insert)
        return plan

    def propagate(self) -> None:
        """``propagate_C``: log → differential tables, no view lock taken."""
        self.run("propagate")

    def partial_refresh(self) -> None:
        """``partial_refresh_C``: apply differentials; ``MV`` becomes ``PAST(L,Q)``."""
        self.run("partial_refresh")

    def refresh(self, *, order: str = "propagate_first") -> None:
        """``refresh_C``: full refresh via either composition of Figure 3."""
        try:
            op = self._refresh_orders[order]
        except KeyError:
            raise ValueError(f"unknown refresh order: {order!r}") from None
        self.run(op)

    def _group_writes(self) -> frozenset[str]:
        return super()._group_writes() | {self.view.dt_delete_table, self.view.dt_insert_table}

    def invariant_holds(self) -> bool:
        holds = invariants.combined_invariant(self.db, self.view, self.log)
        holds = holds and invariants.dt_minimality_invariant(self.db, self.view)
        return holds and self.log.is_weakly_minimal()
