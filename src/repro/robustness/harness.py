"""Randomized crash-schedule driver for the fault-injection suite.

:class:`RetailCrashHarness` drives a deterministic retail workload
(Example 1.1's customer/sales join view under the combined scenario)
through a :class:`~repro.robustness.durable.DurableWarehouse`, with a
*crash schedule* — a set of ``(fault point, visit number)`` pairs — armed
on the process-wide injector.  Whenever an
:class:`~repro.robustness.faults.InjectedCrash` fires, the harness does
exactly what a restarted process would do:

1. abandon the in-memory warehouse entirely (the simulated death);
2. run :func:`repro.robustness.recovery.recover` — retrying if the
   schedule crashes *recovery itself*, which must therefore be
   idempotent;
3. reopen the warehouse from the snapshot and resume the workload at
   the interrupted step.

User transactions carry idempotency tokens, so a step whose intent
committed before the crash is skipped on resume — the workload applies
exactly once no matter where the schedule kills it.  The final state of
any schedule must be bag-equal to an uninterrupted run and leave every
invariant green; :meth:`RetailCrashHarness.run` asserts neither and
returns both so tests can.

An :class:`InjectedCrash` abandons Python objects; it never leaves the
files as a dead process does (a ``-wal`` with frames in it, a half
written staging file).  :meth:`RetailCrashHarness.resume` is the other
half of that test: the body of a child process that a parent kills
with ``SIGKILL`` at arbitrary instants and restarts
(``tests/robustness/test_real_kill.py``).
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.algebra.bag import Bag
from repro.core.ops import MaintenanceAction
from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import CRASH_POINTS, INJECTOR, InjectedCrash
from repro.robustness.journal import journal_path
from repro.robustness.recovery import RecoveryReport, recover
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

__all__ = ["CrashEvent", "HarnessResult", "RetailCrashHarness", "random_schedule"]


@dataclass(frozen=True)
class CrashEvent:
    """Kill the process at the ``hit``-th visit of ``point``."""

    point: str
    hit: int


@dataclass
class HarnessResult:
    """Outcome of one (possibly crash-ridden) workload run."""

    contents: dict[str, Bag]
    crashes: int
    recoveries: list[RecoveryReport] = field(default_factory=list)

    @property
    def green(self) -> bool:
        return all(report.green for report in self.recoveries)


def random_schedule(rng: random.Random, *, max_events: int = 3, max_hit: int = 30) -> list[CrashEvent]:
    """A random crash schedule: 1–``max_events`` kills at random visits.

    Draws from :data:`~repro.robustness.faults.CRASH_POINTS` only — the
    ``flaky-*`` seams model transient backend trouble, which storms
    (:meth:`~repro.robustness.faults.FaultInjector.arm_storm`) rain on
    instead of scheduling.
    """
    points = sorted(CRASH_POINTS)
    events = []
    for __ in range(rng.randint(1, max_events)):
        events.append(CrashEvent(rng.choice(points), rng.randint(1, max_hit)))
    return events


class RetailCrashHarness:
    """Deterministic retail workload, killable at any fault point."""

    def __init__(
        self,
        path: str | Path,
        *,
        seed: int = 96,
        txns: int = 6,
        exec_mode: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.seed = seed
        self.txns = txns
        self.exec_mode = exec_mode
        self.config = RetailConfig(
            customers=24, items=10, initial_sales=60, txn_inserts=4, seed=seed
        )
        self._txn_specs = self._plan_transactions()

    # ------------------------------------------------------------------
    # Deterministic workload plan
    # ------------------------------------------------------------------

    def _plan_transactions(self) -> list[tuple[list, list]]:
        """Precompute every transaction's literal (inserts, deletes).

        Planned once, up front, from the seeded generator — so the same
        rows are applied no matter how many times the run is interrupted
        and resumed.
        """
        workload = RetailWorkload(self.config)
        # Materialize initial data through the same generator state the
        # setup step will use, then derive the update stream.
        self._customer_rows = workload.customer_rows()
        self._sales_rows = workload.initial_sales_rows()
        rng = random.Random(self.seed + 1)
        live = list(self._sales_rows)
        specs: list[tuple[list, list]] = []
        for __ in range(self.txns):
            inserts = [workload._sale_row() for __ in range(self.config.txn_inserts)]
            live.extend(inserts)
            deletes = []
            if rng.random() < 0.5 and live:
                for __ in range(rng.randint(1, 2)):
                    deletes.append(live.pop(rng.randrange(len(live))))
            specs.append((inserts, deletes))
        return specs

    def _ops(self) -> list[tuple[str, str | None]]:
        ops: list[tuple[str, str | None]] = [("setup", None), ("view", None)]
        for index in range(self.txns):
            ops.append(("txn", f"txn-{self.seed}-{index}"))
            if index % 2 == 1:
                ops.append(("propagate", None))
            if index % 3 == 2:
                ops.append(("partial_refresh", None))
        ops.append(("refresh", None))
        return ops

    # ------------------------------------------------------------------
    # Step application (each step idempotent under resume)
    # ------------------------------------------------------------------

    def _apply(self, warehouse: DurableWarehouse, kind: str, arg: str | None) -> None:
        if kind == "setup":
            if not warehouse.db.has_table("customer"):
                warehouse.create_table("customer", ("custId", "name", "address", "score"))
            if not warehouse.db["customer"]:
                warehouse.load("customer", self._customer_rows)
            if not warehouse.db.has_table("sales"):
                warehouse.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
            if not warehouse.db["sales"]:
                warehouse.load("sales", self._sales_rows)
        elif kind == "view":
            if "V" not in warehouse.views():
                warehouse.define_view("V", VIEW_SQL, scenario="combined")
        elif kind == "txn":
            index = int(arg.rsplit("-", 1)[1])
            inserts, deletes = self._txn_specs[index]
            txn = warehouse.transaction(token=arg)
            if inserts:
                txn.insert("sales", inserts)
            if deletes:
                txn.delete("sales", deletes)
            txn.run()
        else:
            # A maintenance step: dispatched as the same reified action
            # the journal records (unknown kinds raise PolicyError).
            warehouse.run(MaintenanceAction(kind, "V"))

    # ------------------------------------------------------------------
    # Driving with crashes
    # ------------------------------------------------------------------

    def _attach(self) -> DurableWarehouse:
        # The snapshot stores no engine choice, so the harness passes its
        # exec_mode to every recovery and reopen — a sqlite chaos run stays
        # on sqlite across every simulated process death.
        if self.path.exists():
            return DurableWarehouse.open(self.path, auto_recover=False, exec_mode=self.exec_mode)
        return DurableWarehouse(self.path, exec_mode=self.exec_mode)

    def resume(self) -> Iterator[int]:
        """What a restarted process does after a *real* kill: recover,
        reopen, finish the workload.

        Yields each step's index once the step is durable.  Every step
        is idempotent under resume (tokens, existence checks, the
        refresh family), so the workload is re-driven from its first
        step whatever prefix the files already hold — and a process
        killed anywhere in here is resumed the same way.
        """
        if self.path.exists():
            recover(self.path, exec_mode=self.exec_mode)
        warehouse = self._attach()
        try:
            for index, (kind, arg) in enumerate(self._ops()):
                self._apply(warehouse, kind, arg)
                yield index
        finally:
            warehouse.close()

    def _recover_until_done(self, result: HarnessResult) -> None:
        """Recovery must survive crashes of its own (idempotence)."""
        while True:
            try:
                result.recoveries.append(recover(self.path, exec_mode=self.exec_mode))
                return
            except InjectedCrash:
                result.crashes += 1

    def run(
        self,
        schedule: list[CrashEvent] | None = None,
        *,
        trace: bool = False,
        storm_seed: int | None = None,
        storm_probability: float = 0.05,
        storm_points: frozenset[str] | None = None,
    ) -> HarnessResult:
        """Drive the full workload, crashing and recovering per schedule.

        With ``trace`` the injector counts fault-point visits (in
        ``INJECTOR.hits``) without the run crashing — used to verify the
        point catalog is actually reachable.  ``storm_seed`` arms a
        seeded transient-fault storm on every ``flaky-*`` seam for the
        whole run (independently of, and composable with, the crash
        schedule); the storm must stay invisible to the workload.
        """
        for stale in (self.path, journal_path(self.path), self.path.with_name(self.path.name + ".saving")):
            if stale.exists():
                stale.unlink()
        INJECTOR.reset()
        if trace:
            INJECTOR.trace()
        for event in schedule or []:
            INJECTOR.arm(event.point, hit=event.hit)
        if storm_seed is not None:
            INJECTOR.arm_storm(
                seed=storm_seed, probability=storm_probability, points=storm_points
            )
        result = HarnessResult(contents={}, crashes=0)
        warehouse: DurableWarehouse | None = None
        ops = self._ops()
        index = 0
        while index < len(ops):
            if warehouse is None:
                try:
                    warehouse = self._attach()
                except InjectedCrash:
                    result.crashes += 1
                    if self.path.exists():
                        self._recover_until_done(result)
                    continue
            kind, arg = ops[index]
            try:
                self._apply(warehouse, kind, arg)
            except InjectedCrash:
                result.crashes += 1
                warehouse.close()
                warehouse = None
                self._recover_until_done(result)
                continue
            index += 1
        if not trace:  # tracing callers read INJECTOR.hits before resetting
            INJECTOR.reset()
        assert warehouse is not None
        result.contents = {name: warehouse.query(name) for name in warehouse.views()}
        warehouse.close()
        return result
