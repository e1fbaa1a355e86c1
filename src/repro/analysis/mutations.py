"""Seeded concurrency mutations: the analyzer's regression harness.

A static analyzer is only as credible as the bugs it provably catches.
This module seeds three concrete faults into the maintenance stack — each
one a realistic way the Section 5.3 lock discipline or its supporting
machinery can rot — and runs the concurrency suite
(:mod:`repro.analysis.concurrency_check` + the dynamic lockset
sanitizer) against the canonical demo stack under each fault:

============================ ==========================================
mutation                     caught by
============================ ==========================================
``dropped_lock``             RVM601 + RVM602 (static) and the lockset
                             sanitizer (dynamic)
``stale_polarity``           RVM301 + companion RVM601 (static)
``overlapping_view``         RVM501 (group-membership lint)
============================ ==========================================

Each mutation is a context manager that monkeypatches exactly the seam
the real code runs through (``Scenario._refresh_lock``,
``Log.substitution``) — so a caught mutation demonstrates the checks
see the *executed* protocol, not a parallel model.  The clean stack
(:func:`run_clean`) must produce zero findings; the CI lint gate and
:mod:`tests.analysis.test_mutations` pin both directions.
"""

from __future__ import annotations

import contextlib
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager

from repro.analysis.diagnostics import AnalysisReport, Severity

__all__ = ["MUTATIONS", "apply_mutation", "run_mutation", "run_clean"]

_DEMO_SQL = "CREATE VIEW {name} (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b"


# ----------------------------------------------------------------------
# The mutations (context managers patching one seam each)
# ----------------------------------------------------------------------


@contextmanager
def _dropped_lock() -> Iterator[None]:
    """Refresh runs without the view's exclusive lock (both seams)."""
    from repro.core.scenarios import Scenario

    orig_lock = Scenario._refresh_lock
    orig_resources = Scenario._refresh_lock_resources
    Scenario._refresh_lock = lambda self, label: contextlib.nullcontext()
    Scenario._refresh_lock_resources = lambda self: frozenset()
    try:
        yield
    finally:
        Scenario._refresh_lock = orig_lock
        Scenario._refresh_lock_resources = orig_resources


@contextmanager
def _stale_polarity() -> Iterator[None]:
    """The log substitution reads with pre-update polarity (Section 1.2)."""
    from repro.core.logs import Log
    from repro.core.substitution import FactoredSubstitution

    orig = Log.substitution

    def swapped(self):
        eta = orig(self)
        return FactoredSubstitution(
            {name: (eta.insert_of(name), eta.delete_of(name)) for name in eta},
            {name: eta.schema_of(name) for name in eta},
        )

    Log.substitution = swapped
    try:
        yield
    finally:
        Log.substitution = orig


@contextmanager
def _overlapping_view() -> Iterator[None]:
    """No patch: the runner registers an overlapping non-group view."""
    yield


MUTATIONS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "dropped_lock": _dropped_lock,
    "stale_polarity": _stale_polarity,
    "overlapping_view": _overlapping_view,
}


def apply_mutation(name: str) -> contextlib.AbstractContextManager:
    """The named mutation as a context manager (raises on unknown names)."""
    try:
        factory = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown concurrency mutation {name!r}; pick one of {sorted(MUTATIONS)}"
        ) from None
    return factory()


# ----------------------------------------------------------------------
# Runners: build the demo stack under a mutation, collect findings
# ----------------------------------------------------------------------


def _demo_scenario():
    from repro.core.scenarios import BaseLogScenario
    from repro.sqlfront import sql_to_view
    from repro.storage.database import Database

    db = Database()
    db.create_table("R", ["a", "b"], rows=[(1, 1), (1, 2), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    view = sql_to_view(_DEMO_SQL.format(name="V"), db)
    scenario = BaseLogScenario(db, view)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario.install()
    return scenario


def _sanitized_cycle(scenario) -> AnalysisReport:
    """One transaction + refresh under the lockset sanitizer."""
    from repro import obs
    from repro.core.transactions import UserTransaction

    with obs.observed(sanitizer=True) as stack:
        scenario.execute(UserTransaction(scenario.db).insert("R", [(5, 1)]))
        scenario.refresh()
    return stack.sanitizer.report()


def _run_dropped_lock() -> AnalysisReport:
    from repro.analysis.concurrency_check import check_scenario

    scenario = _demo_scenario()
    report = check_scenario(scenario)
    report.extend(_sanitized_cycle(scenario))
    return report


def _run_stale_polarity() -> AnalysisReport:
    from repro.analysis.concurrency_check import check_scenario

    return check_scenario(_demo_scenario())


def _run_overlapping_view() -> AnalysisReport:
    from repro.warehouse.manager import ViewManager

    manager = ViewManager()
    manager.create_table("R", ["a", "b"], rows=[(1, 1)])
    manager.create_table("S", ["b", "c"], rows=[(1, 10)])
    report = AnalysisReport()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        manager.define_view("grouped", _DEMO_SQL.format(name="grouped"), scenario="shared_log")
        manager.define_view("solo", _DEMO_SQL.format(name="solo"), scenario="base_log")
    for entry in caught:
        message = str(entry.message)
        if message.startswith("RVM501"):
            report.add("RVM501", Severity.WARNING, message, path="solo")
    return report


_RUNNERS: dict[str, Callable[[], AnalysisReport]] = {
    "dropped_lock": _run_dropped_lock,
    "stale_polarity": _run_stale_polarity,
    "overlapping_view": _run_overlapping_view,
}


def run_mutation(name: str) -> AnalysisReport:
    """Seed one mutation and run its static + dynamic probes.

    Returns the combined report; a healthy analyzer returns a non-empty
    report for every registered mutation, and :func:`run_clean` (same
    probes, no mutation) returns an empty one.
    """
    runner = _RUNNERS[name] if name in _RUNNERS else None
    if runner is None:
        raise ValueError(
            f"unknown concurrency mutation {name!r}; pick one of {sorted(MUTATIONS)}"
        )
    with apply_mutation(name):
        return runner()


def run_clean() -> AnalysisReport:
    """Run every mutation's probes with *no* mutation seeded.

    The union of all probe paths over the healthy stack — the
    zero-findings baseline the mutation results are judged against.
    """
    report = AnalysisReport()
    for name, runner in _RUNNERS.items():
        if name == "overlapping_view":
            # The probe itself registers the overlapping view; its
            # healthy counterpart is two disjoint registrations, which
            # every other runner's stack already covers.
            continue
        report.extend(runner())
    return report
