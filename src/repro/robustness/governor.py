"""The engine governor: a graceful-degradation ladder over the three engines.

The execution tiers (:mod:`repro.exec`) trade robustness for speed: the
interpreted oracle touches nothing but Python dicts, while the sqlite
pushdown tier leans on a live SQLite connection that can refuse service
transiently (``database is locked``, ``disk I/O error``) or durably.  A
deferred-maintenance warehouse cannot let a backend hiccup surface as a
failed refresh — the whole point of deferral is that maintenance runs at
*our* chosen moment, so it is the maintenance machinery's job to absorb
backend trouble and degrade, not the client's job to retry.

The :class:`EngineGovernor` wraps every evaluation a
:class:`~repro.storage.database.Database` performs (both
``Database.evaluate`` and the transaction executor's right-hand sides)
in a fallback ladder ordered fastest-first::

    sqlite  →  compiled  →  interpreted

anchored at the database's configured ``exec_mode`` (a ``compiled``
database ladders ``compiled → interpreted``).  Both non-floor tiers are
strategies over the database's *single* executor — a
:class:`~repro.exec.pushdown.PushdownExecutor` IS an
:class:`~repro.exec.executor.Executor`, so the tiers share one plan
cache and one set of maintained hash indexes; demotion never duplicates
listener state, it just enters the executor at its base-class method.

Per evaluation, the governor:

1. runs the highest healthy tier under the shared
   :data:`~repro.storage.persistence.RETRY_POLICY` — transient backend
   errors (as judged by the policy's classifier) are retried with
   jittered exponential backoff under a total-deadline cap;
2. on retry exhaustion or a permanent ``sqlite3.Error``, **trips that
   tier's circuit breaker** and falls to the next tier — the client
   sees a correct answer from the lower tier, never the error
   (``engine_demotions`` counts it; an ``engine_demotion`` span traces
   it);
3. while a breaker is **open**, the tier is skipped outright for
   ``cooldown_ops`` evaluations (no per-call retry storm against a
   down backend);
4. after the cooldown the breaker goes **half-open** and the next
   evaluation runs a *digest-cross-checked probe*: the suspect tier is
   first healed (the sqlite tier resyncs its mirror —
   :meth:`~repro.storage.sqlite_backend.SQLiteMirror.resync`), then
   evaluates the live expression, and its result digest must match the
   next healthy tier's before the breaker closes again
   (``engine_repromotions``).  A probe that errors or mismatches
   re-opens the breaker for another cooldown, and the client still
   gets the reference tier's answer.

Injected crashes (:class:`~repro.robustness.faults.InjectedCrash`)
derive from ``BaseException`` and are never absorbed — the governor
handles *backend* failure, not simulated process death; that is the
recovery layer's jurisdiction (:mod:`repro.robustness.recovery`, whose
post-crash audit calls :func:`heal_engine_state` below).

Genuine user errors (unknown tables, schema violations —
:class:`~repro.errors.ReproError`) propagate untouched: every tier
would fail identically, and demoting over them would mask bugs.
"""

from __future__ import annotations

import random
import sqlite3
import time
from typing import Callable

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.evaluation import evaluate as interpret
from repro.algebra.expr import Expr
from repro.exec import INTERPRETED, MODES, SQLITE, Executor
from repro.robustness.faults import fault_point
from repro.storage.persistence import RETRY_POLICY, RetryPolicy
from repro.storage.sqlite_backend import mirror_digest

__all__ = [
    "CircuitBreaker",
    "EngineGovernor",
    "GOVERNOR_LADDERS",
    "heal_engine_state",
]

#: The degradation ladder anchored at each configured execution mode:
#: ``sqlite → compiled → interpreted``, ``compiled → interpreted``, and
#: the floor alone.
GOVERNOR_LADDERS: dict[str, tuple[str, ...]] = {
    mode: MODES[rung:] for rung, mode in enumerate(MODES)
}

#: Evaluations an open breaker skips before probing for re-promotion.
#: Counted in operations, not wall time, so chaos tests are
#: deterministic and an idle warehouse never probes behind the
#: client's back.
DEFAULT_COOLDOWN_OPS = 32


class CircuitBreaker:
    """A per-tier breaker: ``closed → open → half-open → closed``.

    ``closed``: the tier runs normally.  ``open``: the tier is skipped
    for ``cooldown_ops`` gate checks.  ``half-open``: the next gate
    check asks for a probe; a successful cross-checked probe closes the
    breaker, a failed one re-opens it for a fresh cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("cooldown_ops", "state", "trips", "_remaining")

    def __init__(self, cooldown_ops: int = DEFAULT_COOLDOWN_OPS) -> None:
        if cooldown_ops < 1:
            raise ValueError("cooldown_ops must be at least 1")
        self.cooldown_ops = cooldown_ops
        self.state = self.CLOSED
        self.trips = 0
        self._remaining = 0

    def trip(self) -> None:
        """Open (or re-open) the breaker for a fresh cooldown."""
        self.state = self.OPEN
        self.trips += 1
        self._remaining = self.cooldown_ops

    def close(self) -> None:
        self.state = self.CLOSED
        self._remaining = 0

    def allow(self) -> str:
        """Gate one evaluation: ``"run"`` | ``"skip"`` | ``"probe"``."""
        if self.state == self.CLOSED:
            return "run"
        if self.state == self.OPEN:
            self._remaining -= 1
            if self._remaining > 0:
                return "skip"
            self.state = self.HALF_OPEN
        return "probe"


class EngineGovernor:
    """Routes one database's evaluations down the degradation ladder."""

    def __init__(
        self,
        database,
        *,
        policy: RetryPolicy | None = None,
        cooldown_ops: int = DEFAULT_COOLDOWN_OPS,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._db = database
        self.ladder = GOVERNOR_LADDERS[database.exec_mode]
        #: One breaker per demotable tier; the interpreted floor has
        #: none — it must always answer, and it has no backend to fail.
        self.breakers = {tier: CircuitBreaker(cooldown_ops) for tier in self.ladder[:-1]}
        self._policy = policy if policy is not None else RETRY_POLICY
        self._sleep = sleep
        # One jitter source for the governor's lifetime: letting the
        # policy build a fresh OS-seeded Random per evaluation would
        # put an entropy syscall on the happy path of every query.
        self._rng = random.Random()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def active_tier(self) -> str:
        """The highest tier a call right now would attempt (no side effects)."""
        for tier in self.ladder:
            breaker = self.breakers.get(tier)
            if breaker is None or breaker.state != CircuitBreaker.OPEN:
                return tier
        return self.ladder[-1]

    def snapshot(self) -> dict:
        """Breaker states and trip counts, for the CLI and tests."""
        return {
            "mode": self._db.exec_mode,
            "active_tier": self.active_tier(),
            "breakers": {
                tier: {"state": breaker.state, "trips": breaker.trips}
                for tier, breaker in self.breakers.items()
            },
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        expr: Expr,
        *,
        counter: CostCounter | None = None,
        memo: dict | None = None,
        binding=None,
    ) -> Bag:
        """Evaluate ``expr`` on the highest healthy tier; never let a
        backend error reach the caller.

        ``memo`` is the caller's interpreter memo (a transaction passes
        one scoped to its pre-state) — the governed interpreted tier must
        share work across a transaction's right-hand sides exactly like
        the ungoverned path, or the governor would change tuple-op
        accounting (``tests/test_free_bookkeeping.py`` pins this down).
        ``binding`` is what the call supplies for its restricted and
        bound leaves, handed to whichever tier answers.
        """
        return self._evaluate_from(0, expr, counter, memo, binding)

    def _evaluate_from(
        self, start: int, expr: Expr, counter: CostCounter | None, memo: dict | None, binding=None
    ) -> Bag:
        ladder = self.ladder
        for position in range(start, len(ladder)):
            tier = ladder[position]
            breaker = self.breakers.get(tier)
            if breaker is None:
                return self._run_tier(tier, expr, counter, memo, binding)
            gate = breaker.allow()
            if gate == "skip":
                continue
            if gate == "probe":
                return self._probe(position, expr, counter, memo, binding)
            try:
                return self._policy.run(
                    lambda: self._run_tier(tier, expr, counter, memo, binding),
                    sleep=self._sleep,
                    rng=self._rng,
                )
            except sqlite3.Error as exc:
                self._demote(position, exc)
        return self._run_tier(ladder[-1], expr, counter, memo, binding)

    def _run_tier(
        self, tier: str, expr: Expr, counter: CostCounter | None, memo: dict | None = None, binding=None
    ) -> Bag:
        """Evaluate on one specific tier of the shared executor.

        The unbound-method call is deliberate: ``Executor.evaluate``
        runs the compiled plans *on the same executor instance* the
        sqlite tier pushes down from, so both see the one plan cache.
        """
        if tier == INTERPRETED:
            return interpret(expr, self._db.state, counter=counter, memo=memo, binding=binding)
        executor = self._db.executor
        if tier == SQLITE:
            return executor.evaluate(expr, counter=counter, binding=binding)
        return Executor.evaluate(executor, expr, counter=counter, binding=binding)

    # ------------------------------------------------------------------
    # Demotion / re-promotion
    # ------------------------------------------------------------------

    def _demote(self, position: int, exc: BaseException) -> None:
        tier = self.ladder[position]
        fallback = self.ladder[position + 1]
        self.breakers[tier].trip()
        obs.metric_inc("engine_demotions")
        with obs.span(
            "engine_demotion", tier=tier, fallback=fallback, error=type(exc).__name__
        ):
            pass

    def _probe(
        self, position: int, expr: Expr, counter: CostCounter | None, memo: dict | None, binding=None
    ) -> Bag:
        """The half-open cross-check: heal, re-run, compare digests.

        The reference answer is computed first, from the remainder of
        the ladder — so whatever the probe does, the caller gets a
        healthy tier's result.  The suspect tier is then healed (the
        sqlite tier resyncs exactly its diverged mirror tables) and
        asked for the same expression; only a digest match re-closes
        the breaker.  Digests go through
        :func:`~repro.storage.sqlite_backend.mirror_digest`, so
        SQLite's bool→int round trip cannot fake a divergence.
        """
        tier = self.ladder[position]
        breaker = self.breakers[tier]
        reference = self._evaluate_from(position + 1, expr, counter, memo, binding)
        try:
            with obs.span("governor_probe", tier=tier):
                fault_point("flaky-governor-probe")
                self._heal_tier(tier)
                candidate = self._run_tier(tier, expr, counter, memo, binding)
        except sqlite3.Error:
            breaker.trip()
            obs.metric_inc("governor_probe_failures")
            return reference
        if mirror_digest(candidate) != mirror_digest(reference):
            breaker.trip()
            obs.metric_inc("governor_probe_failures")
            return reference
        breaker.close()
        obs.metric_inc("engine_repromotions")
        return reference

    def _heal_tier(self, tier: str) -> None:
        if tier == SQLITE:
            mirror = getattr(self._db.executor, "mirror", None)
            if mirror is not None:
                mirror.resync(self._db)


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
    healed = {"indexes": db.indexes.verify(db.state), "mirror": []}
    executor = db._executor
    mirror = getattr(executor, "mirror", None) if executor is not None else None
    if mirror is not None:
        healed["mirror"] = mirror.resync(db)
    return healed
