"""The lockset sanitizer and telemetry are free bookkeeping.

Each of the two may watch maintenance but never change it.  The table
below runs three maintenance workloads — a retail propagate/refresh
stream (Figure 3's Combined scenario), one group epoch over eight
shared-log views, and a base-log refresh over hash-partitioned tables —
on every engine in :data:`repro.exec.MODES`, once with the toggle off
and once with it on.  On every row:

* the cost counter (tuple-ops per operator, cache and partition counts)
  and every view's digest equal the toggle-off run's;
* every view equals its query recomputed by the interpreted evaluator
  over the final state ("MV after refresh ≡ Q");
* the sqlite tier trips no breaker, the sanitizer reports no finding,
  partition pruning never falls back to a whole-table plan, and each
  partitioned epoch touches at most ``min(parts, affected keys)``
  partitions.

What each toggle costs in wall time is measured elsewhere: the
sanitizer's in ``benchmarks/test_e19_obs_downtime.py``, telemetry's as
the pipeline benchmark's ``obs.overhead_ratio``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import pytest

from repro import obs
from repro.algebra.evaluation import CostCounter, evaluate
from repro.core.scenarios import BaseLogScenario
from repro.exec import INTERPRETED, MODES, SQLITE
from repro.robustness.faults import INJECTOR
from repro.robustness.journal import bag_digest
from repro.sqlfront import sql_to_view
from repro.storage.partition import PartitionedDatabase
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

TOGGLES = ("sanitizer", "telemetry")

#: A second query for the group, so its eight views hold two structures.
HIGH_CUSTOMERS_SQL = "SELECT custId, name FROM customer WHERE score = 'High'"

#: Partitions per base table in the partitioned workload.
PARTS = 32


@dataclass(frozen=True)
class Run:
    counter: dict
    digests: tuple[str, ...]
    oracle_digests: tuple[str, ...]
    breaker_trips: int
    findings: int
    epochs: tuple[tuple[int, int], ...] = ()  # (partitions touched, affected keys)
    probe: str | None = None


def oracle(db, scenario) -> str:
    """Digest of the view's query recomputed by the interpreted evaluator."""
    return bag_digest(evaluate(scenario.view.query, db.state))


def breaker_trips(db) -> int:
    return db.executor.trips if db.exec_mode == SQLITE else 0


def retail_stream(mode: str) -> dict:
    config = RetailConfig(customers=16, items=8, initial_sales=48, txn_inserts=4, seed=96)
    workload = RetailWorkload(config)
    manager = ViewManager(exec_mode=mode)
    workload.setup_database(manager.db)
    manager.define_view("V", VIEW_SQL, scenario="combined")
    for index, txn in enumerate(workload.transactions(manager.db, 6)):
        manager.execute(txn)
        if index % 2:
            manager.propagate("V")
        if index % 3 == 2:
            manager.partial_refresh("V")
    manager.refresh("V")
    return managed_result(manager)


def group_epoch(mode: str) -> dict:
    config = RetailConfig(customers=30, initial_sales=120, txn_inserts=6, delete_fraction=0.4, seed=18)
    workload = RetailWorkload(config)
    manager = ViewManager(exec_mode=mode)
    workload.setup_database(manager.db)
    for index in range(8):
        query = (VIEW_SQL, HIGH_CUSTOMERS_SQL)[index % 2]
        manager.define_view(f"V{index}", query, scenario="shared_log")
    for txn in workload.transactions(manager.db, 8):
        manager.execute(txn)
    manager.refresh_group(parallel=False)
    return managed_result(manager)


def managed_result(manager: ViewManager) -> dict:
    views = manager.views()
    return {
        "counter": manager.counter.snapshot(),
        "digests": tuple(bag_digest(manager.query(name)) for name in views),
        "oracle_digests": tuple(oracle(manager.db, manager.scenario(name)) for name in views),
        "breaker_trips": breaker_trips(manager.db),
    }


def partitioned_refresh(mode: str) -> dict:
    config = RetailConfig(
        customers=200,
        items=50,
        initial_sales=2000,
        txn_inserts=10,
        delete_fraction=0.3,
        promotion_fraction=0.2,
        seed=21,
    )
    workload = RetailWorkload(config)
    db = PartitionedDatabase(exec_mode=mode)
    workload.setup_database(db)
    for table in ("customer", "sales"):
        db.declare_partitioning(table, "custId", parts=PARTS, domain="custId")
    counter = CostCounter()
    scenario = BaseLogScenario(db, sql_to_view(VIEW_SQL, db), counter=counter)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario.install()
    epochs = []
    for _ in range(3):
        for txn in workload.transactions(db, 2):
            scenario.execute(txn)
        affected = set()
        for table in ("sales", "customer"):  # custId is column 0 in both
            for delta in (scenario.log.delete_ref(table), scenario.log.insert_ref(table)):
                affected.update(row[0] for row in db[delta.name].support)
        touched = counter.partitions_touched
        scenario.refresh()
        epochs.append((counter.partitions_touched - touched, len(affected)))
    return {
        "counter": counter.snapshot(),
        "digests": (bag_digest(scenario.read_view()),),
        "oracle_digests": (oracle(db, scenario),),
        "breaker_trips": breaker_trips(db),
        "epochs": tuple(epochs),
        "probe": scenario.partition_probe,
    }


WORKLOADS = {
    "retail_stream": retail_stream,
    "group_epoch": group_epoch,
    "partitioned_refresh": partitioned_refresh,
}


def run(workload: str, mode: str, toggle: str | None = None) -> Run:
    """``workload`` on ``mode``, with ``toggle`` on (or nothing on)."""
    assert not INJECTOR.armed(), "free bookkeeping is judged with no faults armed"
    with obs.observed(
        tracer=toggle == "telemetry",
        metrics=toggle == "telemetry",
        accounting=toggle == "telemetry",
        sanitizer=toggle == "sanitizer",
    ) as stack:
        result = WORKLOADS[workload](mode)
    return Run(findings=len(stack.sanitizer.findings) if toggle == "sanitizer" else 0, **result)


@functools.cache
def baseline(workload: str, mode: str) -> Run:
    return run(workload, mode)


@pytest.mark.parametrize("toggle", TOGGLES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_toggle_changes_no_count_and_no_view(workload, mode, toggle):
    plain = baseline(workload, mode)
    watched = run(workload, mode, toggle)

    assert watched.counter == plain.counter
    assert watched.digests == plain.digests
    assert watched.digests == watched.oracle_digests
    assert watched.breaker_trips == 0
    assert watched.findings == 0

    assert watched.epochs == plain.epochs
    assert watched.counter["partition_fallbacks"] == 0
    for touched, affected in watched.epochs:
        assert touched <= min(PARTS, affected)
    if workload == "partitioned_refresh":
        # The interpreted oracle never prunes; every other engine must.
        assert watched.probe == ("interpreted" if mode == INTERPRETED else "accepted")
