"""Refresh policies and the simulated-time maintenance driver (Section 5.3).

A *policy* is a scheme by which propagate/refresh operations are invoked
for a view.  The paper presents two for the ``INV_C`` scenario:

* **Policy 1** — every ``k`` time units run ``propagate_C``; every ``m``
  (``m > k``) bring the view fully up to date with ``refresh_C``.
* **Policy 2** — every ``k`` run ``propagate_C``; every ``m`` run only
  ``partial_refresh_C``.  Downtime is minimal (just applying the
  precomputed differentials) and the view is at most ``k`` out of date.

We add the obvious companions: periodic full refresh (for ``BL``/``DT``),
refresh-on-query, and on-demand.  :class:`MaintenanceDriver` advances an
integer simulated clock, feeds user transactions to the scenario,
invokes the policy's actions at each tick, and records staleness and
operation counts — the raw material for the downtime experiments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.ops import OP_KINDS
from repro.core.scenarios import Scenario
from repro.core.transactions import UserTransaction
from repro.errors import PolicyError

__all__ = [
    "MaintenancePolicy",
    "StalenessClock",
    "check_policy",
    "LogThresholdPolicy",
    "Policy1",
    "Policy2",
    "PeriodicRefresh",
    "OnDemandPolicy",
    "OnQueryPolicy",
    "MaintenanceDriver",
    "DriverStats",
]


class MaintenancePolicy(ABC):
    """Decides which maintenance actions run at each simulated tick."""

    #: Action names understood by the driver.
    ACTIONS = tuple(OP_KINDS)
    #: The operation kinds this policy schedules; a scenario whose op
    #: table lacks one cannot be driven by it (see :func:`check_policy`).
    requires: frozenset[str] = frozenset({"refresh"})

    @abstractmethod
    def actions_at(self, tick: int) -> tuple[str, ...]:
        """The ordered maintenance actions to run at integer time ``tick``."""

    def actions_for(self, tick: int, scenario: Scenario) -> tuple[str, ...]:
        """Like :meth:`actions_at`, but may inspect the scenario's state.

        The default ignores the scenario; *adaptive* policies (the
        paper's "whenever any free cycles are available" variation)
        override this to react to log volume.
        """
        return self.actions_at(tick)

    def refresh_on_query(self) -> bool:
        """Whether the view must be refreshed before serving a query."""
        return False


@dataclass(frozen=True)
class Policy1(MaintenancePolicy):
    """Propagate every ``k``; full ``refresh`` every ``m`` (``m > k``)."""

    k: int
    m: int
    requires = frozenset({"propagate", "refresh"})

    def __post_init__(self) -> None:
        if not (0 < self.k < self.m):
            raise PolicyError(f"Policy 1 requires 0 < k < m, got k={self.k}, m={self.m}")

    def actions_at(self, tick: int) -> tuple[str, ...]:
        if tick % self.m == 0:
            return ("refresh",)  # refresh_C subsumes the propagation
        if tick % self.k == 0:
            return ("propagate",)
        return ()


@dataclass(frozen=True)
class Policy2(MaintenancePolicy):
    """Propagate every ``k``; only ``partial_refresh`` every ``m`` (``m > k``).

    The view is refreshed to a state at most ``k`` time units old, with
    the minimal possible downtime.
    """

    k: int
    m: int
    requires = frozenset({"propagate", "partial_refresh"})

    def __post_init__(self) -> None:
        if not (0 < self.k < self.m):
            raise PolicyError(f"Policy 2 requires 0 < k < m, got k={self.k}, m={self.m}")

    def actions_at(self, tick: int) -> tuple[str, ...]:
        actions: list[str] = []
        if tick % self.k == 0:
            actions.append("propagate")
        if tick % self.m == 0:
            actions.append("partial_refresh")
        return tuple(actions)


@dataclass(frozen=True)
class PeriodicRefresh(MaintenancePolicy):
    """Full refresh every ``m`` ticks (the natural policy for BL and DT)."""

    m: int

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise PolicyError(f"PeriodicRefresh requires m > 0, got {self.m}")

    def actions_at(self, tick: int) -> tuple[str, ...]:
        return ("refresh",) if tick % self.m == 0 else ()


@dataclass(frozen=True)
class OnDemandPolicy(MaintenancePolicy):
    """No scheduled maintenance; the application calls ``refresh`` itself."""

    def actions_at(self, tick: int) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class OnQueryPolicy(MaintenancePolicy):
    """Refresh lazily, immediately before each query against the view."""

    def actions_at(self, tick: int) -> tuple[str, ...]:
        return ()

    def refresh_on_query(self) -> bool:
        return True


@dataclass(frozen=True)
class LogThresholdPolicy(MaintenancePolicy):
    """Adaptive propagation (Section 5.3's closing remark).

    Rather than propagating on a fixed interval ``k``, propagate
    whenever the log has accumulated at least ``threshold`` recorded
    changes — a stand-in for "whenever any free cycles are available" —
    and partially refresh the view every ``m`` ticks.  Requires the
    combined (``INV_C``) scenario.
    """

    threshold: int
    m: int
    requires = frozenset({"propagate", "partial_refresh"})

    def __post_init__(self) -> None:
        if self.threshold <= 0 or self.m <= 0:
            raise PolicyError("LogThresholdPolicy needs threshold > 0 and m > 0")

    def actions_at(self, tick: int) -> tuple[str, ...]:
        return ("partial_refresh",) if tick % self.m == 0 else ()

    def actions_for(self, tick: int, scenario: Scenario) -> tuple[str, ...]:
        actions: list[str] = []
        if scenario.log_watermark() >= self.threshold:
            actions.append("propagate")
        actions.extend(self.actions_at(tick))
        return tuple(actions)


@dataclass
class DriverStats:
    """Counters and samples accumulated by a :class:`MaintenanceDriver` run."""

    transactions: int = 0
    propagates: int = 0
    partial_refreshes: int = 0
    full_refreshes: int = 0
    queries: int = 0
    #: ``tick - mv_reflects`` sampled at each query.
    staleness_samples: list[int] = field(default_factory=list)
    #: Tuple-operation cost of user transactions (maintenance overhead included).
    transaction_cost: int = 0
    #: Tuple-operation cost of propagate operations.
    propagate_cost: int = 0
    #: Tuple-operation cost of refresh/partial-refresh operations.
    refresh_cost: int = 0

    def max_staleness(self) -> int:
        return max(self.staleness_samples, default=0)

    def mean_staleness(self) -> float:
        if not self.staleness_samples:
            return 0.0
        return sum(self.staleness_samples) / len(self.staleness_samples)


def check_policy(policy: MaintenancePolicy, scenario: Scenario) -> None:
    """Fail closed when ``policy`` schedules an op ``scenario`` does not have."""
    missing = sorted(policy.requires - scenario.ops.keys())
    if missing:
        raise PolicyError(
            f"policy {type(policy).__name__} schedules {missing}, which view "
            f"{scenario.view.name!r} under {type(scenario).__name__} does not offer "
            f"(it has {sorted(scenario.ops)}); Policy 1/2 need the combined (INV_C) scenario"
        )


@dataclass
class StalenessClock:
    """Section 5.3's two logical timestamps for one view.

    * ``mv_reflects`` — the simulated time of the database state the view
      table currently equals (staleness = now − this);
    * ``dt_reflects`` — the time through which base-table changes have
      been propagated into the differential tables (``INV_C`` only).
    """

    mv_reflects: int = 0
    dt_reflects: int = 0

    def ran(self, kind: str, now: int) -> None:
        """An operation of ``kind`` completed at ``now``: absorbing the log
        stamps the differentials with *run* time; applying brings ``MV``
        to wherever the differentials are."""
        absorbs_log, applies = OP_KINDS[kind]
        if absorbs_log:
            self.dt_reflects = now
        if applies:
            self.mv_reflects = self.dt_reflects

    def staleness(self, now: int) -> int:
        return now - self.mv_reflects


#: Operation kind -> the ``DriverStats`` fields that count and cost it.
_STAT_FIELDS = {
    "propagate": ("propagates", "propagate_cost"),
    "partial_refresh": ("partial_refreshes", "refresh_cost"),
    "refresh": ("full_refreshes", "refresh_cost"),
}


class MaintenanceDriver:
    """Advances simulated time, applying transactions and policy actions."""

    def __init__(self, scenario: Scenario, policy: MaintenancePolicy) -> None:
        check_policy(policy, scenario)
        self.scenario = scenario
        self.policy = policy
        self.stats = DriverStats()
        self.now = 0
        self.clock = StalenessClock()

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def _cost(self) -> int:
        return self.scenario.counter.tuples_out

    def submit(self, txn: UserTransaction) -> None:
        """Apply one user transaction (with maintenance extensions) now."""
        before = self._cost()
        self.scenario.execute(txn)
        self.note_transactions(1, self._cost() - before)

    def note_transactions(self, count: int, cost: int) -> None:
        """Record ``count`` transactions executed this tick (by whomever)."""
        self.stats.transactions += count
        self.stats.transaction_cost += cost
        if count and self.scenario.tag == "IM":
            self.clock.mv_reflects = self.now

    def _on_scenario(self, kind: str) -> None:
        self.scenario.op(kind)  # PolicyError for a kind this scenario lacks
        getattr(self.scenario, kind)()

    def account(self, action: str, run: Callable[[str], None]) -> None:
        """Run one policy action through ``run(kind)`` and account it (the
        standalone driver runs it on its bare scenario, a
        :class:`~repro.warehouse.manager.ViewManager` through its ``run``)."""
        before = self._cost()
        run(action)
        try:
            count_field, cost_field = _STAT_FIELDS[action]
        except KeyError:
            raise PolicyError(f"unknown maintenance action {action!r}") from None
        setattr(self.stats, count_field, getattr(self.stats, count_field) + 1)
        setattr(self.stats, cost_field, getattr(self.stats, cost_field) + self._cost() - before)
        self.clock.ran(action, self.now)

    def _run_action(self, action: str) -> None:
        self.account(action, self._on_scenario)

    def run_due(self, run: Callable[[str], None]) -> None:
        """Run the policy's actions due at the current tick through ``run``."""
        for action in self.policy.actions_for(self.now, self.scenario):
            self.account(action, run)

    def tick(self, txns: Sequence[UserTransaction] = ()) -> None:
        """Advance the clock one unit: apply ``txns``, then policy actions."""
        self.now += 1
        for txn in txns:
            self.submit(txn)
        self.run_due(self._on_scenario)

    def query(self):
        """Read the view as an application would, recording staleness."""
        if self.policy.refresh_on_query():
            self._run_action("refresh")
        self.stats.queries += 1
        self.stats.staleness_samples.append(self.clock.staleness(self.now))
        return self.scenario.read_view()

    def refresh_now(self) -> None:
        """Explicit on-demand refresh."""
        self._run_action("refresh")

    def run(
        self,
        schedule: Iterable[tuple[int, Sequence[UserTransaction]]],
        *,
        horizon: int,
        query_every: int | None = None,
    ) -> DriverStats:
        """Run to ``horizon`` ticks with transactions from ``schedule``.

        ``schedule`` yields ``(tick, transactions)`` pairs in increasing
        tick order; ticks not mentioned carry no transactions.  When
        ``query_every`` is given, the view is queried at that period.
        """
        pending = dict(schedule)
        for _ in range(horizon):
            txns = pending.get(self.now + 1, ())
            self.tick(txns)
            if query_every and self.now % query_every == 0:
                self.query()
        return self.stats
