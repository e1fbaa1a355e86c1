"""Randomized crash schedules: every schedule must converge to the oracle.

The acceptance bar of the crash-safety layer: for >= 50 seeded random
crash schedules over the retail workload, restarting and recovering
after every injected death leaves

* every scenario invariant green (the recovery audit),
* the final view contents bag-equal to an uninterrupted run, and
* recovery idempotent (re-running it changes nothing).
"""

import random

import pytest

from repro.robustness.faults import CRASH_POINTS, FAULT_POINTS, INJECTOR
from repro.robustness.harness import CrashEvent, RetailCrashHarness, random_schedule
from repro.robustness.recovery import recover

SEED = 1996  # pinned: the year of the paper
SCHEDULES = 50


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    harness = RetailCrashHarness(tmp_path_factory.mktemp("oracle") / "wh.db")
    result = harness.run()
    assert result.crashes == 0
    return result.contents


def test_uninterrupted_run_is_green(tmp_path):
    result = RetailCrashHarness(tmp_path / "wh.db").run()
    assert result.crashes == 0
    assert result.green
    assert result.contents["V"]


@pytest.mark.parametrize("batch", range(5))
def test_randomized_crash_schedules_converge(tmp_path, oracle, batch):
    rng = random.Random(SEED + batch)
    harness = RetailCrashHarness(tmp_path / "wh.db")
    for index in range(SCHEDULES // 5):
        schedule = random_schedule(rng)
        result = harness.run(schedule)
        context = f"batch {batch} schedule {index}: {schedule}"
        assert result.green, context
        assert result.contents == oracle, context
        # Recovery after the dust settles is a no-op (idempotence).
        report = recover(harness.path)
        assert report.action == "none" and report.green, context


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_single_crash_at_every_point_converges(tmp_path, oracle, point):
    harness = RetailCrashHarness(tmp_path / "wh.db")
    for hit in (1, 2, 5):
        result = harness.run([CrashEvent(point, hit)])
        context = f"{point} hit {hit}"
        assert result.green, context
        assert result.contents == oracle, context


def test_every_fault_point_is_reachable(tmp_path):
    """The catalog is honest: some driver visits every injection point.

    The default-engine workload covers the classic journal/checkpoint
    points; the sqlite engine adds the mirror and pushdown seams.  Three
    points need targeted drivers: the epoch delta cache only fills under
    a *group* refresh, the probe seam only fires while the sqlite
    tier's breaker is half-open, and the partition-apply seam only
    exists on a `PartitionedDatabase` — each is exercised below.
    """
    harness = RetailCrashHarness(tmp_path / "wh1.db")
    harness.run(trace=True)
    visited = set(INJECTOR.hits)
    INJECTOR.reset()
    sqlite_harness = RetailCrashHarness(tmp_path / "wh2.db", exec_mode="sqlite")
    sqlite_harness.run(trace=True)
    visited |= set(INJECTOR.hits)
    INJECTOR.reset()
    targeted = {
        "crash-mid-delta-cache",
        "flaky-pushdown-probe",
        "crash-mid-partition-apply",
    }
    assert FAULT_POINTS - targeted <= visited


def test_delta_cache_point_is_reachable():
    from repro.warehouse.manager import ViewManager
    from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

    workload = RetailWorkload(RetailConfig(customers=6, items=4, initial_sales=12))
    manager = ViewManager()
    manager.create_table("customer", ("custId", "name", "address", "score"))
    manager.load("customer", workload.customer_rows())
    manager.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
    manager.load("sales", workload.initial_sales_rows())
    # Two views over the same plan: the group refresh shares one
    # delta-cache entry between them — store() is the seam.
    manager.define_view("V1", VIEW_SQL, scenario="combined")
    manager.define_view("V2", VIEW_SQL, scenario="combined")
    txn = manager.transaction()
    txn.insert("sales", [workload._sale_row() for __ in range(3)])
    txn.run()
    INJECTOR.trace()
    manager.refresh_group()
    visits = INJECTOR.hits.get("crash-mid-delta-cache", 0)
    INJECTOR.reset()
    assert visits >= 1


def test_pushdown_probe_point_is_reachable(monkeypatch):
    from repro.exec import pushdown
    from repro.storage.database import Database

    monkeypatch.setattr(pushdown, "sleep", lambda delay: None)
    monkeypatch.setattr(pushdown.PushdownExecutor, "COOLDOWN_OPS", 1)
    db = Database(exec_mode="sqlite")
    db.create_table("t", ("a",), rows=[(1,)])
    ref = db.ref("t")
    db.evaluate(ref)
    INJECTOR.trace()
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    db.load("t", [(2,)])
    db.evaluate(ref)  # trips: retry budget exhausted
    db.load("t", [(3,)])
    db.evaluate(ref)  # cooldown of 1 expires; half-open probe fires
    visits = INJECTOR.hits.get("flaky-pushdown-probe", 0)
    INJECTOR.reset()
    assert visits >= 1


def test_partition_apply_point_is_reachable():
    from repro.algebra.bag import Bag
    from repro.storage.partition import PartitionedDatabase

    db = PartitionedDatabase()
    db.create_table("R", ("k", "v"), rows=[(i, "x") for i in range(8)])
    db.declare_partitioning("R", "k", parts=8)
    INJECTOR.trace()
    db.apply_parts({"R": (Bag(), Bag([(i, "y") for i in range(8)]))})
    visits = INJECTOR.hits.get("crash-mid-partition-apply", 0)
    INJECTOR.reset()
    assert visits >= 1


def test_back_to_back_crashes_in_one_run(tmp_path, oracle):
    harness = RetailCrashHarness(tmp_path / "wh.db")
    schedule = [
        CrashEvent("crash-after-journal", 2),
        CrashEvent("crash-mid-apply", 3),
        CrashEvent("crash-mid-checkpoint", 4),
        CrashEvent("crash-after-checkpoint", 5),
    ]
    result = harness.run(schedule)
    assert result.crashes == len(schedule)
    assert result.green
    assert result.contents == oracle
