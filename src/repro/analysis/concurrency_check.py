"""Concurrency checks: the Section 5.3 lock discipline, statically.

The paper's downtime analysis (Section 5.3) rests on a lock discipline
it never states as a checkable rule: reader-visible ``MV`` state may
only be read or written by a refresh-family operation while that view's
exclusive lock is held; ``propagate`` stays lock-free precisely because
it touches only maintenance-private log and differential tables.  This
module checks that discipline — and three adjacent safety properties —
against the *inferred* effects of :mod:`repro.analysis.effects`, not
against what the code claims about itself:

* **RVM601** — a refresh-family step reads an ``MV`` table outside any
  lock section (a reader could observe a half-applied state).
* **RVM602** — a write to an ``MV`` table is not covered by an
  exclusive lock.
* **RVM603** — a group schedule orders conflicting refreshes against
  registration order, or co-batches them: the lock sections of the two
  views would interleave (a lock-order cycle in the two-phase reading
  of the batch sequence).
* **RVM604** — a scheduler task *declares* a narrower read/write set
  than its inferred footprint: conflict batching would under-serialize.
  Coverage is asymmetric on purpose — a declared **write** covers
  inferred reads of the same table, because :func:`~repro.exec.group._conflicts`
  serializes writer-vs-anything; only a table in *neither* declared set
  is invisible to the scheduler.
* **RVM605** — a maintenance operation writes a table the journal's
  intent payload does not digest, so crash recovery could neither
  verify nor roll that table back.

All checks consume the same objects the runtime uses (scenario
protocols built from real delta expressions, live
:class:`~repro.exec.group.GroupTask` instances, the journal's actual
payload-coverage seam), so a seeded fault in the runtime shows up here
without any parallel model to keep in sync.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.effects import OpEffects
from repro.core.ops import OP_KINDS
from repro.analysis.statebug import check_log_polarity

__all__ = [
    "check_scenario",
    "check_tasks",
    "check_schedule",
    "check_journal_coverage",
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
# RVM604: declared vs. inferred group-task footprints
# ----------------------------------------------------------------------


def check_tasks(tasks: Iterable) -> AnalysisReport:
    """Check each group task's declared read/write sets against inference."""
    report = AnalysisReport()
    for task in tasks:
        declared_writes = task.writes
        declared_cover = task.reads | task.writes
        if task.inferred_writes is not None:
            missing = sorted(task.inferred_writes - declared_writes)
            if missing:
                report.add(
                    "RVM604",
                    Severity.ERROR,
                    f"group task {task.name!r} writes {missing} per its "
                    "inferred footprint but does not declare them; conflict "
                    "batching would let another task read or write these "
                    "tables concurrently",
                    path=task.name,
                )
        if task.inferred_reads is not None:
            missing = sorted(task.inferred_reads - declared_cover)
            if missing:
                report.add(
                    "RVM604",
                    Severity.ERROR,
                    f"group task {task.name!r} reads {missing} per its "
                    "inferred footprint but declares them in neither its read "
                    "nor its write set; a same-batch writer would not be "
                    "serialized against it",
                    path=task.name,
                )
    return report


# ----------------------------------------------------------------------
# RVM603: schedule/lock-order consistency
# ----------------------------------------------------------------------


def _find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """First cycle in a digraph, as a node path ``[a, b, ..., a]``."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GREY
        path.append(node)
        for succ in sorted(edges.get(node, ())):
            if color.get(succ, WHITE) == GREY:
                return path[path.index(succ):] + [succ]
            if color.get(succ, WHITE) == WHITE:
                found = visit(succ)
                if found:
                    return found
        path.pop()
        color[node] = BLACK
        return None

    for node in sorted(edges):
        if color[node] == WHITE:
            found = visit(node)
            if found:
                return found
    return None


def check_schedule(tasks: Sequence, *, batches: Sequence[Sequence] | None = None) -> AnalysisReport:
    """Check a group schedule for conflicting co-batched or mis-ordered tasks.

    The batch sequence is a two-phase schedule: every task's lock
    section must come after those of all earlier conflicting tasks.
    Two violations are possible — a batch containing a conflicting pair
    (their apply sections interleave inside one barrier), and a batch
    order that contradicts registration order for a conflicting pair
    (a lock-order cycle between the schedule edge and the registration
    edge).  Sequential applies make registration order the serialization
    oracle, so both are schedule-construction bugs, not data races.
    """
    from repro.exec.group import GroupScheduler, _conflicts

    report = AnalysisReport()
    tasks = list(tasks)
    if batches is None:
        batches = GroupScheduler().batches(tasks)
    batch_of: dict[str, int] = {}
    for index, batch in enumerate(batches):
        for task in batch:
            batch_of[task.name] = index

    for index, batch in enumerate(batches):
        ordered = list(batch)
        for i, left in enumerate(ordered):
            for right in ordered[i + 1:]:
                if _conflicts(left, right):
                    shared = sorted(
                        (left.writes & (right.writes | right.reads))
                        | (right.writes & left.reads)
                    )
                    report.add(
                        "RVM603",
                        Severity.ERROR,
                        f"tasks {left.name!r} and {right.name!r} conflict on "
                        f"{shared} but share batch {index}; their lock "
                        "sections would interleave within one barrier",
                        path=f"batch[{index}]",
                    )

    edges: dict[str, set[str]] = {task.name: set() for task in tasks}
    for i, left in enumerate(tasks):
        for right in tasks[i + 1:]:
            if not _conflicts(left, right):
                continue
            first, second = (left, right) if left.order <= right.order else (right, left)
            edges[first.name].add(second.name)
            left_batch = batch_of.get(left.name)
            right_batch = batch_of.get(right.name)
            if left_batch is None or right_batch is None or left_batch == right_batch:
                continue
            if left_batch < right_batch:
                edges[left.name].add(right.name)
            else:
                edges[right.name].add(left.name)
    cycle = _find_cycle(edges)
    if cycle:
        report.add(
            "RVM603",
            Severity.ERROR,
            "schedule orders conflicting refreshes against registration "
            f"order, closing a lock-order cycle: {' -> '.join(cycle)}",
            path="schedule",
        )
    return report


# ----------------------------------------------------------------------
# RVM605: journal intent payload coverage
# ----------------------------------------------------------------------


def check_journal_coverage(
    db, ops: Iterable[OpEffects], *, payload_tables: frozenset[str] | None = None
) -> AnalysisReport:
    """Check that every op's written tables are digested by the journal.

    ``payload_tables`` defaults to the live payload seam
    (:func:`repro.robustness.durable.intent_payload_tables`), so the
    static picture tracks exactly what recovery will see.
    """
    report = AnalysisReport()
    if payload_tables is None:
        from repro.robustness.durable import intent_payload_tables

        payload_tables = intent_payload_tables(db)
    for op in ops:
        missing = sorted(op.writes - payload_tables)
        if missing:
            report.add(
                "RVM605",
                Severity.ERROR,
                f"{op.describe()} writes {missing} but the journal intent "
                "payload does not digest them; crash recovery could neither "
                "verify nor roll those tables back",
                path=f"{op.view}.{op.op}",
            )
    return report


# ----------------------------------------------------------------------
# Whole-stack entry points
# ----------------------------------------------------------------------


def check_stack(
    scenarios: Sequence = (),
    *,
    tasks: Sequence = (),
    db=None,
    journal: bool = True,
) -> AnalysisReport:
    """Run every concurrency check over a set of scenarios and group tasks."""
    report = AnalysisReport()
    for scenario in scenarios:
        report.extend(check_scenario(scenario))
    if tasks:
        tasks = list(tasks)
        report.extend(check_tasks(tasks))
        report.extend(check_schedule(tasks))
    if journal and db is not None and scenarios:
        ops = [op for scenario in scenarios for op in scenario.maintenance_protocol()]
        report.extend(check_journal_coverage(db, ops))
    return report


def demo_stack_report(*, exec_mode: str = "compiled") -> AnalysisReport:
    """Lint a canonical in-memory maintenance stack (used by ``repro lint``).

    Installs all four Figure 3 scenarios plus a two-view group over a
    small join schema and runs the full concurrency suite — with no
    seeded mutation this reports zero RVM6xx findings.
    """
    from repro.core.scenarios import (
        BaseLogScenario,
        CombinedScenario,
        DiffTableScenario,
        ImmediateScenario,
    )
    from repro.sqlfront import sql_to_view
    from repro.storage.database import Database

    db = Database(exec_mode=exec_mode)
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
    tasks = [
        scenario.group_refresh_task(order=order)
        for order, scenario in enumerate(s for s in scenarios if hasattr(s, "group_refresh_task"))
    ]
    return check_stack(scenarios, tasks=tasks, db=db)
