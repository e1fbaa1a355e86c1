"""Effect-set inference for maintenance operations (Section 5.3).

The paper's deferred-maintenance protocols are, implicitly, *effect
typed*: each phase of ``makesafe`` / ``propagate`` / ``refresh`` may
read and write a specific slice of the state (base tables, logs,
differential tables, the ``MV`` table) under a specific lock.  This
module makes those effects explicit:

* an :class:`EffectSet` is a read set plus a write set over table names;
* a :class:`Step` is one phase of an operation — its effects plus the
  exclusive locks held while it runs;
* an :class:`OpEffects` is a whole maintenance operation (``refresh``,
  ``propagate``, …) for one view, as a sequence of steps.

Footprints are **inferred, not declared**: read sets come from the
compiled plans of the very delta expressions the operation will
evaluate (:meth:`repro.exec.executor.Executor.footprint`, falling back
to ``Expr.tables()`` under the interpreted oracle), and write sets from
the structure of the :class:`~repro.core.plan.MaintenancePlan` the
operation builds.  Protocols are *derived from* the executed operation,
not rebuilt beside it: ``Scenario.maintenance_protocol()`` maps each
:class:`~repro.core.ops.MaintenanceOp` in the scenario's op table — the
very values ``Scenario.run`` executes — through :func:`op_effects`, so
the static picture and the executed code are one object, and
:mod:`repro.analysis.concurrency_check` can hold the picture against
the Section 5.3 lock discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.expr import Expr
from repro.core.naming import is_mv_table
from repro.core.plan import MaintenancePlan

__all__ = [
    "EffectSet",
    "Step",
    "OpEffects",
    "REFRESH_OPS",
    "read_footprint",
    "plan_effects",
    "op_effects",
]

#: Operations that touch reader-visible ``MV`` state outside a user
#: transaction — the ops the Section 5.3 lock discipline applies to.
#: (``makesafe`` runs inside the user transaction's own atomicity and
#: ``propagate`` is lock-free *by design*: it only touches
#: maintenance-private log/differential tables.)
REFRESH_OPS = frozenset({"refresh", "partial_refresh"})


@dataclass(frozen=True)
class EffectSet:
    """A read set and a write set over table names."""

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()

    def __or__(self, other: EffectSet) -> EffectSet:
        return EffectSet(self.reads | other.reads, self.writes | other.writes)

    def covers(self, other: EffectSet) -> bool:
        """Whether this effect set is at least as wide as ``other``."""
        return self.reads >= other.reads and self.writes >= other.writes

    def mv_reads(self) -> frozenset[str]:
        """The reader-visible (``MV``) tables in the read set."""
        return frozenset(t for t in self.reads if is_mv_table(t))

    def mv_writes(self) -> frozenset[str]:
        """The reader-visible (``MV``) tables in the write set."""
        return frozenset(t for t in self.writes if is_mv_table(t))


@dataclass(frozen=True)
class Step:
    """One phase of a maintenance operation.

    ``locks`` is the set of resources whose exclusive lock the runtime
    code holds while this step executes (from the scenario's lock
    seam, :meth:`~repro.core.scenarios.Scenario._refresh_lock_resources`).
    """

    name: str
    effects: EffectSet
    locks: frozenset[str] = frozenset()


@dataclass(frozen=True)
class OpEffects:
    """The inferred effects of one maintenance operation on one view."""

    op: str
    view: str
    scenario: str
    steps: tuple[Step, ...] = ()

    @property
    def reads(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for step in self.steps:
            out |= step.effects.reads
        return out

    @property
    def writes(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for step in self.steps:
            out |= step.effects.writes
        return out

    @property
    def locks(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for step in self.steps:
            out |= step.locks
        return out

    def describe(self) -> str:
        return f"{self.op}[{self.scenario}] of view {self.view!r}"


# ----------------------------------------------------------------------
# Inference
# ----------------------------------------------------------------------


def read_footprint(db, *exprs: Expr) -> frozenset[str]:
    """The tables the compiled plans of ``exprs`` read.

    Uses the executor's plan footprint when the database runs a
    compiled-family engine (the plan may read *fewer* tables than the
    source expression mentions, e.g. after provably-empty subtree
    folding); falls back to the syntactic ``Expr.tables()`` under the
    interpreted oracle or when no database is at hand.
    """
    tables: set[str] = set()
    for expr in exprs:
        footprint = None
        if db is not None and getattr(db, "exec_mode", "interpreted") != "interpreted":
            plan_footprint = getattr(db.executor, "footprint", None)
            if plan_footprint is not None:
                footprint = plan_footprint(expr)
        tables |= footprint if footprint is not None else expr.tables()
    return frozenset(tables)


def plan_effects(db, plan: MaintenancePlan) -> EffectSet:
    """The effect set of executing a maintenance plan.

    Reads: the footprints of every right-hand side, plus every *patch
    target* — ``R := (R ∸ delete) ⊎ insert`` is a read-modify-write of
    ``R``.  Writes: every assigned or patched table.
    """
    exprs: list[Expr] = list(plan.assignments.values())
    for delete, insert in plan.patches.values():
        exprs.append(delete)
        exprs.append(insert)
    reads = set(read_footprint(db, *exprs))
    reads.update(plan.patches)
    return EffectSet(reads=frozenset(reads), writes=plan.tables())


def op_effects(scenario, op) -> OpEffects:
    """The effects of one :class:`~repro.core.ops.MaintenanceOp`, step by step:
    a compute step reads the footprint of the pair it builds, an apply
    step has the effects of the plan built *from that pair* (symbolic: a
    superset of any pruned or pre-evaluated run), a ``locked`` step holds
    what the lock seam (``_refresh_lock_resources``) says the lock covers."""
    held = scenario._refresh_lock_resources()
    pair: tuple = ()
    steps = []
    for step in op.steps:
        if step.deltas is not None:
            pair = step.deltas()
            effects = EffectSet(reads=read_footprint(scenario.db, *pair))
        else:
            effects = plan_effects(scenario.db, step.plan(*pair))
        steps.append(Step(step.name, effects, locks=held if step.locked else frozenset()))
    return OpEffects(op=op.kind, view=op.view, scenario=scenario.tag, steps=tuple(steps))
