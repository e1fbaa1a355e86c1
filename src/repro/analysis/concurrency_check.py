"""Concurrency checks: the Section 5.3 lock discipline, statically.

The paper's downtime analysis (Section 5.3) rests on a lock discipline
it never states as a checkable rule: reader-visible ``MV`` state may
only be read or written by a refresh-family operation while that view's
exclusive lock is held; ``propagate`` stays lock-free precisely because
it touches only maintenance-private log and differential tables.  This
module checks that discipline against the *inferred* effects of
:mod:`repro.analysis.effects`, not against what the code claims about
itself:

* **RVM601** — a refresh-family step reads an ``MV`` table outside any
  lock section (a reader could observe a half-applied state).
* **RVM602** — a write to an ``MV`` table is not covered by an
  exclusive lock.

Both checks consume the same objects the runtime uses (scenario
protocols built from real delta expressions), so a seeded fault in the
runtime shows up here without any parallel model to keep in sync.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.effects import OpEffects
from repro.core.ops import OP_KINDS
from repro.analysis.statebug import check_log_polarity

__all__ = [
    "check_scenario",
    "check_stack",
    "demo_stack_report",
]


# ----------------------------------------------------------------------
# RVM601 / RVM602: lock coverage of refresh-family effects
# ----------------------------------------------------------------------


def check_protocol(ops: Iterable[OpEffects]) -> AnalysisReport:
    """Check a maintenance protocol's refresh-family steps for lock coverage."""
    report = AnalysisReport()
    for op in ops:
        # makesafe runs inside the user transaction's atomicity; every
        # Figure 3 operation outside it is judged step by step.  That
        # includes propagate: it is lock-free by design (no MV effects),
        # and one that *does* touch MV state has lost that excuse.
        if op.op in OP_KINDS:
            for step in op.steps:
                _check_step_locks(report, op, step)
    return report


def _check_step_locks(report: AnalysisReport, op: OpEffects, step) -> None:
    location = f"{op.view}.{op.op}.{step.name}"
    for table in sorted(step.effects.mv_reads() - step.locks):
        report.add(
            "RVM601",
            Severity.ERROR,
            f"{op.describe()} reads reader-visible table {table!r} in step "
            f"{step.name!r} outside any lock section; Section 5.3 requires "
            "the view's exclusive lock around MV access during refresh",
            path=location,
        )
    for table in sorted(step.effects.mv_writes() - step.locks):
        report.add(
            "RVM602",
            Severity.ERROR,
            f"{op.describe()} writes reader-visible table {table!r} in step "
            f"{step.name!r} without holding its exclusive lock; a concurrent "
            "reader could observe a half-applied refresh",
            path=location,
        )


def check_scenario(scenario) -> AnalysisReport:
    """All concurrency checks that apply to one installed scenario.

    Lock coverage of the scenario's inferred protocol (RVM601/RVM602),
    plus the Lemma 1 polarity cross-check on its log substitution: a
    stale-polarity read (RVM301) makes the locked apply install deltas
    computed against the pre-update image, which the lock never
    protected — reported as a companion RVM601.
    """
    report = check_protocol(scenario.maintenance_protocol())
    log = getattr(scenario, "log", None)
    if log is not None:
        polarity = check_log_polarity(log.substitution(), log)
        report.extend(polarity)
        if polarity.errors:
            report.add(
                "RVM601",
                Severity.ERROR,
                f"refresh of view {scenario.view.name!r} derives its MV patch "
                "from a stale-polarity log read: the exclusive section applies "
                "deltas computed against a pre-update image the lock never "
                "covered",
                path=f"{scenario.view.name}.refresh",
            )
    return report


# ----------------------------------------------------------------------
# Whole-stack entry points
# ----------------------------------------------------------------------


def check_stack(scenarios: Sequence = ()) -> AnalysisReport:
    """Run every concurrency check over a set of scenarios."""
    report = AnalysisReport()
    for scenario in scenarios:
        report.extend(check_scenario(scenario))
    return report


def demo_stack_report() -> AnalysisReport:
    """Lint a canonical in-memory maintenance stack (used by ``repro lint``).

    Installs all four Figure 3 scenarios over a small join schema and
    runs the full concurrency suite — with no seeded mutation this
    reports zero RVM6xx findings.
    """
    from repro.core.scenarios import (
        BaseLogScenario,
        CombinedScenario,
        DiffTableScenario,
        ImmediateScenario,
    )
    from repro.sqlfront import sql_to_view
    from repro.storage.database import Database

    db = Database()
    db.create_table("R", ["a", "b"], rows=[(1, 1), (1, 2), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20), (2, 20)])

    def view(name: str) -> object:
        return sql_to_view(
            f"CREATE VIEW {name} (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b",
            db,
        )

    scenarios = [
        ImmediateScenario(db, view("v_im")),
        BaseLogScenario(db, view("v_bl")),
        DiffTableScenario(db, view("v_dt")),
        CombinedScenario(db, view("v_c")),
    ]
    for scenario in scenarios:
        scenario.install()
    return check_stack(scenarios)
