"""The online view server: snapshot-isolated reads over background maintenance.

:class:`ViewServer` turns the library into a serving system shaped by the
paper's Section 5.3 argument.  Writers and maintenance serialize on one
write mutex (the :class:`~repro.warehouse.ViewManager` underneath is not
thread-safe); readers never touch it.  Every committed write republishes
an immutable :class:`~repro.serve.snapshots.SnapshotHandle`, and a read
is one volatile attribute load plus a dict lookup against that handle —
so the exclusive lock every refresh-family operation takes on ``MV``
(the paper's downtime) is simply *never on the read path*:

* **Policy 2 online.**  The server schedules the configured
  :class:`~repro.core.policies.MaintenancePolicy` (default
  ``Policy2(k, m)``) itself: :meth:`tick` advances simulated time,
  applies user transactions, and queues the due propagate /
  partial_refresh / refresh actions.  With no worker pool the queue
  drains synchronously (deterministic for tests and benchmarks); with
  :meth:`start_workers` a background pool drains it off the caller's
  thread.
* **Staleness is bounded, measured, and visible.**  The server keeps one
  :class:`~repro.core.policies.StalenessClock` per view — the same
  class the simulation driver uses — stamps every published snapshot
  from them, and samples per-read staleness into the metrics registry;
  under Policy 2 a view is at most ``k`` ticks stale at each partial
  refresh.
* **Fails closed.**  A view whose scenario cannot run what the policy
  schedules is refused at :meth:`ViewServer.define_view`; a queued action
  that fails deterministically is dropped and raised once.
* **Durability composes.**  Pass ``durable_path`` to run every mutation
  through the :class:`~repro.robustness.DurableWarehouse` write-ahead
  journal; on ``exec_mode="sqlite"`` the engine absorbs its own backend
  errors underneath (see :mod:`repro.exec.pushdown`).
* **Crash containment.**  A maintenance action that dies mid-epoch
  (:class:`~repro.robustness.faults.InjectedCrash`) leaves the database
  rolled back by the storage layer's all-or-nothing install and the
  published snapshot untouched — pinned readers never notice.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.core.ops import MaintenanceAction
from repro.core.policies import MaintenancePolicy, Policy2, StalenessClock, check_policy
from repro.core.transactions import UserTransaction
from repro.errors import PolicyError, ReproError, UnknownTableError
from repro.serve.snapshots import SnapshotHandle, SnapshotRegistry

__all__ = ["ServeConfig", "ViewServer"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for a :class:`ViewServer`."""

    #: Policy-2 cadence: propagate every ``k`` ticks, partial refresh
    #: every ``m`` (``0 < k < m``); ignored when ``policy`` is given.
    k: int = 2
    m: int = 7
    policy: MaintenancePolicy | None = None
    #: Execution engine for a fresh database (None = session default).
    exec_mode: str | None = None
    #: When set, all mutations run through the write-ahead journal of a
    #: :class:`~repro.robustness.DurableWarehouse` at this path.
    durable_path: str | None = None

    def resolved_policy(self) -> MaintenancePolicy:
        return self.policy if self.policy is not None else Policy2(k=self.k, m=self.m)


class ViewServer:
    """Serves concurrent readers from pinned snapshots; maintains off-path."""

    def __init__(self, config: ServeConfig | None = None, *, manager=None) -> None:
        self.config = config if config is not None else ServeConfig()
        if manager is None:
            if self.config.durable_path is not None:
                from repro.robustness.durable import DurableWarehouse

                manager = DurableWarehouse(self.config.durable_path, exec_mode=self.config.exec_mode)
            else:
                from repro.warehouse.manager import ViewManager

                manager = ViewManager(exec_mode=self.config.exec_mode)
        self.manager = manager
        # DurableWarehouse wraps a ViewManager on .manager; plain managers
        # are their own inner manager.  Ledger/counter live on the inner.
        inner = getattr(manager, "manager", manager)
        self.db = inner.db
        self.ledger = inner.ledger
        self.counter = inner.counter
        self.policy = self.config.resolved_policy()
        self.registry = SnapshotRegistry()
        self._write_mutex = threading.RLock()
        self._due: deque[tuple[int, str, str]] = deque()
        self._mv_tables: dict[str, str] = {}
        self._clocks: dict[str, StalenessClock] = {}
        self.now = 0
        self.reads_served = 0
        self.actions_run = 0
        self.actions_failed = 0
        self._pool = None
        self._current: SnapshotHandle = self.registry.pin(self.db)

    # ------------------------------------------------------------------
    # Catalog (writer path)
    # ------------------------------------------------------------------

    def create_table(self, name: str, attrs: Iterable[str], *, rows: Iterable[Row] = ()) -> None:
        with self._write_mutex:
            self.manager.create_table(name, attrs, rows=rows)
            self._publish()

    def load(self, name: str, rows: Iterable[Row]) -> None:
        with self._write_mutex:
            self.manager.load(name, rows)
            self._publish()

    def define_view(self, name: str, definition, **options) -> None:
        """Define a maintained view (scenario options as on the manager).

        Fails closed: a scenario whose op table lacks what the server's
        policy schedules is dropped again and :class:`PolicyError`
        raised — rather than queueing actions that can never run.
        """
        with self._write_mutex:
            self.manager.define_view(name, definition, **options)
            scenario = self.manager.scenario(name)
            try:
                check_policy(self.policy, scenario)
            except PolicyError:
                self.manager.drop_view(name)
                raise
            self._mv_tables[name] = scenario.read_table
            self._clocks[name] = StalenessClock(self.now, self.now)
            self._publish()

    def views(self) -> tuple[str, ...]:
        return tuple(self._mv_tables)

    # ------------------------------------------------------------------
    # Writes and simulated time (writer path)
    # ------------------------------------------------------------------

    def execute(self, txn: UserTransaction, **options) -> None:
        """Run one user transaction (all views' makesafe extensions) now."""
        with self._write_mutex:
            self.manager.execute(txn, **options)
            self._publish()

    def execute_sql(self, script: str, **options) -> None:
        with self._write_mutex:
            self.manager.execute_sql(script, **options)
            self._publish()

    def tick(self, txns: Iterable[UserTransaction] = ()) -> list[tuple[str, str]]:
        """Advance one simulated time unit: apply ``txns``, queue policy work.

        Returns the queued ``(view, action)`` pairs.  Without a worker
        pool the queue drains synchronously before returning; with one,
        the workers are kicked and drain it in the background.
        """
        queued: list[tuple[str, str]] = []
        with self._write_mutex:
            self.now += 1
            for txn in txns:
                self.manager.execute(txn)
            for name in self._mv_tables:
                scenario = self.manager.scenario(name)
                for action in self.policy.actions_for(self.now, scenario):
                    self._due.append((self.now, name, action))
                    queued.append((name, action))
            self._publish()
        if self._pool is not None:
            self._pool.kick()
        else:
            self.drain_maintenance()
        return queued

    def run(self, horizon: int, schedule=None) -> None:
        """Tick to ``horizon``; ``schedule`` maps tick -> transactions."""
        pending = dict(schedule) if schedule is not None else {}
        for _ in range(horizon):
            self.tick(pending.get(self.now + 1, ()))

    # ------------------------------------------------------------------
    # Maintenance (worker path)
    # ------------------------------------------------------------------

    def pending_maintenance(self) -> int:
        with self._write_mutex:
            return len(self._due)

    def drain_maintenance(self, max_actions: int | None = None) -> list[tuple[str, str]]:
        """Run queued maintenance actions until the queue is empty.

        Each action commits and republishes individually, so readers see
        propagate and refresh results as distinct snapshot versions and
        are never gated on the whole epoch.  Only what a retry can fix
        is re-queued: an :class:`~repro.robustness.faults.InjectedCrash`
        propagates with the action back at the front of the queue and
        the published snapshot unchanged.  A deterministic
        :class:`~repro.errors.ReproError` is dropped, counted
        (``maintenance_actions_failed``) and raised once.
        """
        ran: list[tuple[str, str]] = []
        while max_actions is None or len(ran) < max_actions:
            with self._write_mutex:
                if not self._due:
                    break
                queued_tick, name, action = self._due.popleft()
                try:
                    self._run_action(name, action)
                except ReproError:
                    self.actions_failed += 1
                    obs.metric_inc("maintenance_actions_failed")
                    raise
                except BaseException:
                    # Put the interrupted action back: a restarted worker
                    # (or a recovery pass) retries it; refresh-family
                    # operations are idempotent, which makes retry safe.
                    self._due.appendleft((queued_tick, name, action))
                    raise
                self._publish()
            ran.append((name, action))
            if obs.telemetry_enabled():
                obs.metric_inc("maintenance_actions")
                obs.metric_observe("maintenance_queue_lag_ticks", self.now - queued_tick)
        return ran

    def _run_action(self, name: str, action: str) -> None:
        """One maintenance action, with driver-equivalent clock tracking.

        ``propagate`` absorbs the log as of *run* time (not queue time),
        so the clocks advance to ``self.now`` — Policy 2's residual
        handling holds across snapshot boundaries because the reflects
        stamps describe what the operation actually absorbed.
        """
        self.manager.run(MaintenanceAction(action, name))
        self._clocks[name].ran(action, self.now)
        self.actions_run += 1

    def start_workers(self, count: int = 1, *, poll_interval_s: float = 0.005):
        """Attach a background worker pool draining the maintenance queue."""
        from repro.serve.workers import WorkerPool

        if self._pool is not None:
            raise PolicyError("worker pool already started")
        self._pool = WorkerPool(self, count, poll_interval_s=poll_interval_s)
        self._pool.start()
        return self._pool

    def stop_workers(self, *, drain: bool = True) -> None:
        """Stop the pool; optionally drain remaining work synchronously."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        pool.stop()
        if drain and not pool.crashes():
            self.drain_maintenance()

    def wait_idle(self, timeout_s: float = 5.0) -> bool:
        """Block until the maintenance queue is empty (or a worker died)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._pool is not None and self._pool.crashes():
                return False
            if self.pending_maintenance() == 0:
                return True
            time.sleep(0.001)
        return self.pending_maintenance() == 0

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def _publish(self) -> None:
        """Pin a fresh cut and atomically swap it in as the served state."""
        reflects = min((clock.mv_reflects for clock in self._clocks.values()), default=self.now)
        handle = self.registry.pin(self.db, tick=self.now, reflects=reflects)
        previous, self._current = self._current, handle
        previous.release()

    @property
    def current(self) -> SnapshotHandle:
        """The currently served snapshot (do not release; use :meth:`pin`)."""
        return self._current

    def pin(self) -> SnapshotHandle:
        """Pin the served snapshot for a multi-read consistent session."""
        while True:
            handle = self._current
            try:
                return self.registry.repin(handle)
            except ValueError:
                # Lost the race with a concurrent republish that released
                # the handle's last pin; the fresh current is pinnable.
                continue

    # ------------------------------------------------------------------
    # Reads (never acquire the write mutex or any exclusive lock)
    # ------------------------------------------------------------------

    def _mv_table(self, name: str) -> str:
        try:
            return self._mv_tables[name]
        except KeyError:
            raise UnknownTableError(f"no such view: {name!r}") from None

    def read(self, name: str) -> Bag:
        """Read a view from the served snapshot (lock-free, maybe stale)."""
        telemetry = obs.telemetry_enabled()
        started = time.perf_counter() if telemetry else 0.0
        snapshot = self._current
        value = snapshot.table(self._mv_table(name))
        self.reads_served += 1
        if telemetry:
            obs.metric_inc("reads_served")
            obs.metric_observe(
                "read_latency_s", time.perf_counter() - started, buckets=obs.LATENCY_BUCKETS_S
            )
            obs.metric_observe("read_staleness_ticks", self.now - snapshot.reflects)
            obs.metric_set("snapshots_live", self.registry.live_count())
        return value

    def read_at(self, handle: SnapshotHandle, name: str) -> Bag:
        """Read a view from an explicitly pinned snapshot."""
        return handle.table(self._mv_table(name))

    def read_fresh(self, name: str) -> Bag:
        """The synchronous comparison path: refresh under the lock, then read.

        This is what serving *without* deferred maintenance looks like —
        the reader's own thread takes the exclusive ``MV`` section, so
        reader-observable downtime is nonzero.  E22 benchmarks this arm
        against :meth:`read`.
        """
        with self._write_mutex:
            value = self.manager.query_fresh(name)
            self._clocks[name].ran("refresh", self.now)
            self._publish()
        self.reads_served += 1
        return value

    async def read_async(self, name: str) -> Bag:
        """Async facade over :meth:`read` for event-loop front ends."""
        return await asyncio.to_thread(self.read, name)

    # ------------------------------------------------------------------
    # SLO introspection
    # ------------------------------------------------------------------

    def staleness_ticks(self, name: str) -> int:
        """How many ticks behind the served snapshot of ``name`` is."""
        self._mv_table(name)
        return self._clocks[name].staleness(self.now)

    def reader_lock_sections(self, prefix: str = "reader") -> int:
        """Exclusive sections attributed to reader threads (must stay 0)."""
        return len(self.ledger.sections_for_thread(prefix))

    def stats(self) -> dict:
        return {
            "now": self.now,
            "reads_served": self.reads_served,
            "actions_run": self.actions_run,
            "actions_failed": self.actions_failed,
            "pending_maintenance": self.pending_maintenance(),
            "staleness_ticks": {name: self.staleness_ticks(name) for name in self._mv_tables},
            "snapshots": self.registry.stats(),
            # Counted only while telemetry is on (empty otherwise):
            # pinned_reads{access="probe"|"scan"}, pinned_index_builds.
            "pinned": {
                name: metric["value"]
                for name, metric in obs.current().metrics.snapshot().items()
                if name.startswith("pinned_")
            },
        }
