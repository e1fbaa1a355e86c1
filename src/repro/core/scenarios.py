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
import weakref
from abc import ABC, abstractmethod
from collections.abc import Callable
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
        #: Apply step -> its plan over the bound pair (:meth:`step_plan`).
        self._plans: weakref.WeakKeyDictionary[OpStep, MaintenancePlan] = weakref.WeakKeyDictionary()
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
        self.view.require_external_inputs(self.db)
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

    def _op(self, kind: str, *steps: OpStep, idle=None, **attrs) -> MaintenanceOp:
        if self._pmaint is not None:
            attrs = {"partitioned": True, **attrs}
        return MaintenanceOp(kind, self.view.name, steps, tuple(attrs.items()), idle)

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

    def run(self, kind: str | MaintenanceOp, lend: Callable | None = None) -> None:
        """Execute one maintenance operation — the only place that does.

        One rule, whoever asks: every step runs inside or outside the
        view's exclusive lock as its ``locked`` flag says (the lock is
        taken before the first locked step and released after the last);
        a compute step evaluates the op's ``(delete, insert)`` delta
        bags, and each later apply step patches with them, bound to the
        view's bound pair — the same plans every run.  The crash point
        fires just before the first apply step.  ``lend`` is a group
        epoch's: handed the compute step's evaluation, it returns the
        bags of the epoch's leader for this view's key (evaluating them
        only when this view leads).
        """
        op = kind if isinstance(kind, MaintenanceOp) else self.op(kind)
        if not op.steps:
            return  # immediate maintenance: nothing is ever pending
        telemetry = obs.telemetry_enabled()
        attrs = dict(op.attrs)
        if lend is not None:
            attrs["group"] = True
        if op.computes:
            attrs["log_watermark"] = self.log_watermark() if telemetry else 0
        else:
            attrs["delta_rows"] = self._pending_dt_rows() if telemetry else 0
        start, stop = op.section
        with obs.span(op.kind, view=self.view.name, scenario=self.tag, counter=self.counter, **attrs) as span:
            if op.idle is None or not op.idle():
                run = partial(self._run_steps, op, lend=lend, span=span if telemetry else None)
                bags = run(0, start, ())
                if start < stop:
                    with self._refresh_lock(f"{op.kind}_{self.tag}"):
                        bags = run(start, stop, bags)
                run(stop, len(op.steps), bags)
        if op.locked:
            # After a partial refresh the still-unpropagated log stays
            # behind: the view is a bounded k ticks out of date.
            self._note_fresh()
        elif telemetry:
            obs.metric_inc("propagations")

    def _run_steps(self, op: MaintenanceOp, start: int, stop: int, bags: tuple, *, lend, span) -> tuple:
        """Steps ``start:stop`` of ``op``; returns the delta bags (``()``
        before a compute step).  ``span``: the op's, under telemetry."""
        for index in range(start, stop):
            step = op.steps[index]
            if step.deltas is not None:
                evaluate = partial(self._evaluate, step)
                bags = evaluate() if lend is None else lend(evaluate)
                if span is not None:
                    span.set(delta_rows=len(bags[0]) + len(bags[1]))
                continue
            if index == op.first_write:
                fault_point(op.fault)
            if step.via is not None:
                step.via(*bags)
            else:
                binding = pair_binding({self.view.mv_table: bags}) if bags else None
                self.step_plan(step).execute(self.db, counter=self.counter, binding=binding)
        return bags

    def step_plan(self, step: OpStep) -> MaintenancePlan:
        """An apply step's plan over the view's bound pair, built once per
        step: its inputs (the bound pair, the log's clear assignments, the
        differential-table refs) are the same objects every run, and so the
        plan is too; it is shared, so it is executed, never changed.  Keyed
        weakly, so a one-off op's steps (``scoped_partial_refresh`` builds
        one per call) leave with it."""
        plan = self._plans.get(step)
        if plan is None:
            plan = self._plans[step] = step.plan(*self._bound_pair)
        return plan

    def _evaluate(self, step: OpStep) -> tuple[Bag, Bag]:
        """A compute step's delta bags: ``step.via()``, or its pair batch-evaluated."""
        with obs.span("delta_compute", view=self.view.name, counter=self.counter):
            if step.via is not None:
                return step.via()
            run = self.db.batch(counter=self.counter)
            delete, insert = step.deltas()
            return run(delete), run(insert)

    @cached_property
    def _bound_pair(self) -> tuple[Expr, Expr]:
        """The leaves every apply plan reads the computed bags through
        (counted by the compute step, so read for free)."""
        return bound_pair(self.view.mv_table, self.view.schema, counted=True)

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

    def _makesafe_extension(self, *_pair: Expr) -> MaintenancePlan:
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

    def epoch_tasks(self):
        """This view's :class:`~repro.exec.group.GroupTask` in a
        group-refresh epoch.

        ``None`` (the default) means the scenario has no group form; the
        group falls back to its own :meth:`refresh` after the epoch.
        """
        return None

    def _refresh_lock(self, label: str):
        """The exclusive section guarding the view's reader-visible state.

        :meth:`run` takes this lock around every locked step;
        :meth:`_refresh_lock_resources` is the static declaration of the
        same fact, consumed by ``maintenance_protocol()``.  Keeping
        acquisition and declaration on one seam means the concurrency
        analyzer and the runtime code cannot silently drift apart.
        """
        return self.ledger.exclusive(self.view.mv_table, label=label, counter=self.counter)

    def _refresh_lock_resources(self) -> frozenset[str]:
        """Resources :meth:`_refresh_lock` holds exclusively: ``MV`` and
        the table readers are served from."""
        return frozenset((self.view.mv_table, self.read_table))

    @property
    def read_table(self) -> str:
        """The table readers are served from (``MV`` unless a scenario
        derives another reader-visible table from it)."""
        return self.view.mv_table

    def read_view(self) -> Bag:
        """The current contents of :attr:`read_table` (what a reader sees)."""
        return self.db[self.read_table]

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

    def _compute_step(self, *, locked: bool) -> OpStep:
        """Evaluate the post-update deltas over the log (on a partitioned
        database: the pair pruned at install, under the epoch's keys)."""
        via = self._pmaint and partial(self._pmaint.epoch_deltas, self)
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

    def epoch_tasks(self):
        """This view's task in a group-refresh epoch, after compacting its log.

        The task runs this scenario's own ``refresh`` op; the key is the
        view's query and the bags of its log tables, so equal queries over
        equal recorded changes — a BL view and a C view with the same
        query included — share one evaluation of the post-update deltas
        per epoch, whatever their log tables are called.
        """
        from repro.exec.group import GroupTask

        self.compact_log()
        return GroupTask(
            name=self.view.name,
            key=(self.view.query, *(self.db[name] for name in self.log.table_names())),
            run=partial(self.run, "refresh"),
        )

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
            self._compute_step(locked=True),
            OpStep(
                "apply",
                locked=True,
                plan=self._log_refresh_plan,
                via=parts and partial(parts.refresh_log, self),
            ),
            # On a partitioned database an empty log ends the refresh
            # before it takes the lock.
            idle=parts and self.log.is_empty,
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

    @cached_property
    def _normalize_step(self) -> OpStep:
        """The normalization as an apply step, so that :meth:`post_execute`
        and ``propagate_C`` share the one plan :meth:`step_plan` keeps."""
        return OpStep("dt_normalize", plan=self._normalize_plan)

    def post_execute(self) -> None:
        if self.strong_minimality:
            self.step_plan(self._normalize_step).execute(self.db, counter=self.counter)

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
        fold = partial(OpStep, "dt_fold", plan=self._fold_plan)
        apply = self._apply_dt_step()
        # propagate_C holds no lock by design: it reads base/log tables
        # and writes only maintenance-private differentials — never MV.
        normalize = (self._normalize_step,) if self.strong_minimality else ()
        ops["propagate"] = self._op("propagate", self._compute_step(locked=False), fold(), *normalize)
        ops["partial_refresh"] = self._op("partial_refresh", apply)
        # refresh_C, both compositions of Figure 3.  The *entire*
        # composed refresh runs under the view's exclusive lock — this
        # is the downtime Policy 1 pays.  Its advantage over refresh_BL
        # is that periodic (unlocked) propagation already absorbed all
        # but the last k time units of the log, so the in-lock delta
        # computation covers a short log only.
        compute = self._compute_step(locked=True)
        tail = OpStep("log_apply", locked=True, plan=self._log_refresh_plan)
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
            raise ValueError(f"unknown refresh order: {order!r} (offered: {sorted(self._refresh_orders)})") from None
        self.run(op)

    def invariant_holds(self) -> bool:
        holds = invariants.combined_invariant(self.db, self.view, self.log)
        holds = holds and invariants.dt_minimality_invariant(self.db, self.view)
        return holds and self.log.is_weakly_minimal()
