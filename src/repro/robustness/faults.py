"""Named fault-injection points for crash-safety testing.

The crash-safety layer (:mod:`repro.robustness`) is only trustworthy if
every claim about "a crash at point X recovers to a green invariant" is
actually exercised.  This module provides the machinery: a catalog of
*named injection points* threaded through the maintenance hot path
(``scenarios.py``, ``warehouse/manager.py``, ``storage/persistence.py``,
``storage/database.py``, and the durable wrapper itself), and a process
wide :class:`FaultInjector` that can be armed to

* **crash** at the *n*-th visit of a point — raising
  :class:`InjectedCrash`, a ``BaseException`` subclass so ordinary
  ``except Exception`` handlers cannot accidentally swallow the
  simulated process death; or
* raise a **transient** error (by default SQLite's
  ``OperationalError: database is locked``) for a bounded number of
  visits, to exercise retry-with-backoff paths.

When nothing is armed, :func:`fault_point` is a single attribute check —
cheap enough to leave compiled into production code paths.

The catalog (see :data:`FAULT_POINTS`):

======================= =========================================================
point                   where it fires
======================= =========================================================
crash-before-journal    durable op, before the intent record is written
crash-after-journal     durable op, intent journaled, before any state mutation
crash-mid-apply         ``Database.apply`` commit phase, between table installs
crash-mid-execute       ``ViewManager.execute``, after planning, before applying
crash-mid-refresh       inside a refresh critical section, before the plan runs
crash-mid-propagate     ``propagate_C``, before the propagation plan runs
crash-mid-checkpoint    ``save_database``: inside the checkpoint transaction, before ``COMMIT``
crash-after-checkpoint  durable op, checkpoint durable, before the journal commit
crash-after-commit      durable op, journal committed, before returning
crash-mid-delta-cache   ``GroupScheduler.run``, before a shared delta installs
crash-mid-partition-apply ``PartitionedDatabase.apply_parts``, between partitions
flaky-save              ``save_database``, start of a (retried) write attempt
flaky-mirror-upsert     ``SQLiteMirror._apply_net``, before the UPSERT batch
flaky-mirror-adopt      ``SQLiteMirror._adopt``, before the eager table create
flaky-mirror-reload     ``SQLiteMirror._reload``, before the wholesale re-insert
flaky-index-create      ``SQLiteMirror._create_index``, before the CREATE INDEX
flaky-pushdown-execute  ``PushdownExecutor._sql_eval``, before the compiled SELECT
flaky-pushdown-probe    ``PushdownExecutor._probe``, before the cross-check
======================= =========================================================

``crash-*`` points simulate process death (:class:`InjectedCrash`);
``flaky-*`` points sit on retryable backend seams and are the targets
of :meth:`FaultInjector.arm_storm`'s probabilistic transient storms.
"""

from __future__ import annotations

import random
import sqlite3

from repro import obs
from typing import Callable

__all__ = [
    "CRASH_POINTS",
    "FAULT_POINTS",
    "STORM_POINTS",
    "FaultInjector",
    "InjectedCrash",
    "INJECTOR",
    "fault_point",
]


class InjectedCrash(BaseException):
    """A simulated process death at a named fault point.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    library code catching ``Exception`` treats it the way a real crash
    would behave: nothing downstream of the raise point runs except
    ``finally`` blocks.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at fault point {point!r}")
        self.point = point


#: Every injection point the codebase is instrumented with.
FAULT_POINTS: frozenset[str] = frozenset(
    {
        "crash-before-journal",
        "crash-after-journal",
        "crash-mid-apply",
        "crash-mid-execute",
        "crash-mid-refresh",
        "crash-mid-propagate",
        "crash-mid-checkpoint",
        "crash-after-checkpoint",
        "crash-after-commit",
        "crash-mid-delta-cache",
        "crash-mid-partition-apply",
        "flaky-save",
        "flaky-mirror-upsert",
        "flaky-mirror-adopt",
        "flaky-mirror-reload",
        "flaky-index-create",
        "flaky-pushdown-execute",
        "flaky-pushdown-probe",
    }
)

#: Transient-only points: retryable backend seams where a real deployment
#: sees contention/IO errors, never a process death.
STORM_POINTS: frozenset[str] = frozenset(
    point for point in FAULT_POINTS if point.startswith("flaky-")
)

#: Points where crash schedules may kill the process.
CRASH_POINTS: frozenset[str] = FAULT_POINTS - STORM_POINTS


def _locked_error() -> Exception:
    return sqlite3.OperationalError("database is locked")


class FaultInjector:
    """Process-wide registry of armed faults and visit counters."""

    def __init__(self) -> None:
        self.active = False
        self.tracing = False
        self.hits: dict[str, int] = {}
        self._crashes: dict[str, list[int]] = {}
        self._transients: dict[str, tuple[int, Callable[[], Exception]]] = {}
        #: Probabilistic transient storm: (points, probability, rng, factory).
        self._storm: tuple[frozenset[str], float, random.Random, Callable[[], Exception]] | None = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Disarm everything and forget visit counts."""
        self.active = False
        self.tracing = False
        self.hits.clear()
        self._crashes.clear()
        self._transients.clear()
        self._storm = None

    def arm(self, point: str, *, hit: int = 1) -> None:
        """Crash at the ``hit``-th visit of ``point`` (1-based, one-shot)."""
        self._require(point)
        if hit < 1:
            raise ValueError("hit numbers are 1-based")
        self._crashes.setdefault(point, []).append(self.hits.get(point, 0) + hit)
        self.active = True

    def arm_transient(
        self,
        point: str,
        *,
        times: int = 1,
        exc_factory: Callable[[], Exception] = _locked_error,
    ) -> None:
        """Raise a transient error at the next ``times`` visits of ``point``."""
        self._require(point)
        self._transients[point] = (times, exc_factory)
        self.active = True

    def arm_storm(
        self,
        *,
        seed: int,
        probability: float = 0.05,
        points: frozenset[str] | None = None,
        exc_factory: Callable[[], Exception] = _locked_error,
    ) -> None:
        """Rain seeded transient errors on the retryable backend seams.

        Every visit of a storm point independently raises with the given
        ``probability`` — modeling sustained backend contention rather
        than the one-shot schedules of :meth:`arm_transient`.  Only
        :data:`STORM_POINTS` (the ``flaky-*`` seams) are eligible;
        crashes never rain, they are scheduled.  Cleared by
        :meth:`reset`.
        """
        points = STORM_POINTS if points is None else points
        unknown = points - STORM_POINTS
        if unknown:
            raise ValueError(f"not transient storm points: {sorted(unknown)}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError("storm probability must be in [0, 1]")
        self._storm = (frozenset(points), probability, random.Random(seed), exc_factory)
        self.active = True

    def trace(self) -> None:
        """Count visits without raising (for reachability checks)."""
        self.tracing = True

    def _require(self, point: str) -> None:
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}; catalog: {sorted(FAULT_POINTS)}")

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def fire(self, point: str) -> None:
        """Record a visit of ``point`` and raise if a fault is armed for it."""
        self._require(point)
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        transient = self._transients.get(point)
        if transient is not None:
            remaining, factory = transient
            if remaining > 1:
                self._transients[point] = (remaining - 1, factory)
            else:
                del self._transients[point]
            obs.metric_inc("faults_injected")
            raise factory()
        scheduled = self._crashes.get(point)
        if scheduled and count in scheduled:
            scheduled.remove(count)
            if not scheduled:
                del self._crashes[point]
            obs.metric_inc("faults_injected")
            raise InjectedCrash(point)
        storm = self._storm
        if storm is not None:
            points, probability, rng, factory = storm
            if point in points and rng.random() < probability:
                obs.metric_inc("faults_injected")
                raise factory()

    def armed(self) -> bool:
        """Whether any crash, transient, or storm fault is still pending."""
        return bool(self._crashes or self._transients or self._storm)


#: The process-wide injector used by :func:`fault_point`.
INJECTOR = FaultInjector()


def fault_point(name: str) -> None:
    """Visit a named injection point (no-op unless the injector is live)."""
    if INJECTOR.active or INJECTOR.tracing:
        INJECTOR.fire(name)
