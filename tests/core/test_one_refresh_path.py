"""One refresh path: ``refresh(V)`` and a group epoch of ``V`` alone agree.

A compute step evaluates the view's delta bags inside or outside the view
lock as its ``OpStep.locked`` flag says, whoever runs the op; a group
epoch only lends a leader's bags.  So for every scenario and layout the
same state and backlog, refreshed once through ``refresh(V)`` and once
through ``refresh_group([V])``, must leave

* equal reader-visible bags (and equal to the query recomputed);
* equal ``LockLedger`` sections — count, labels and tuple-ops (the
  deterministic downtime proxy; wall time is never compared);
* only sections whose label names an op with a ``locked`` step.

The backlog inserts fresh rows and deletes existing ones, never a row it
inserted: a group epoch compacts its logs first (by design, single
refresh does not), and cancelling churn would give the two arms
different logs to evaluate.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from functools import partial

import pytest

from repro.exec.group import GroupScheduler
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase
from repro.warehouse import ViewManager

JOIN_SQL = (
    "SELECT c.custId, c.name, s.itemNo FROM customer c, sales s "
    "WHERE c.custId = s.custId AND c.score = 'High'"
)
AGG_SQL = "SELECT custId, COUNT(*), SUM(quantity) AS total FROM sales GROUP BY custId"

#: case -> (scenario, SQL, refresh order, partitioned)
CASES = {
    "base_log": ("base_log", JOIN_SQL, None, False),
    "combined/propagate_first": ("combined", JOIN_SQL, "propagate_first", False),
    "combined/partial_first": ("combined", JOIN_SQL, "partial_first", False),
    "shared_log": ("shared_log", JOIN_SQL, None, False),
    "aggregate": (None, AGG_SQL, None, False),
    "partitioned/base_log": ("base_log", JOIN_SQL, None, True),
    "partitioned/combined": ("combined", JOIN_SQL, "propagate_first", True),
}

BACKLOG = (
    "INSERT INTO sales VALUES (1, 900, 2); INSERT INTO sales VALUES (3, 901, 1); "
    "INSERT INTO sales VALUES (6, 902, 4)",
    "DELETE FROM sales WHERE custId = 5 AND itemNo = 5",
    "UPDATE customer SET score = 'High' WHERE custId = 4",
    "INSERT INTO sales VALUES (7, 903, 3); DELETE FROM sales WHERE itemNo = 11",
    "UPDATE customer SET score = 'Low' WHERE custId = 1",
)


def build(case: str) -> tuple[ViewManager, str | None]:
    scenario, sql, order, partitioned = CASES[case]
    # Partition pruning is a compiled-engine path; the interpreted oracle
    # refuses it by design.
    db = PartitionedDatabase(exec_mode="compiled") if partitioned else Database()
    db.create_table("customer", ("custId", "name", "score"), rows=[(i, f"n{i}", "High" if i % 2 else "Low") for i in range(10)])
    db.create_table("sales", ("custId", "itemNo", "quantity"), rows=[(i % 10, i, 1 + i % 3) for i in range(40)])
    if partitioned:
        db.declare_partitioning("customer", "custId", parts=4, domain="custId")
        db.declare_partitioning("sales", "custId", parts=4, domain="custId")
    manager = ViewManager(db)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if scenario is None:
            manager.define_view("V", sql)
        else:
            manager.define_view("V", sql, scenario=scenario)
    if partitioned:
        assert manager.scenario("V").partition_probe == "accepted"
    for script in BACKLOG:
        manager.execute_sql(script)
    if CASES[case][0] == "combined":
        # Part of the backlog already propagated: the refresh applies
        # differentials *and* computes over the rest of the log.
        manager.propagate("V")
        manager.execute_sql("INSERT INTO sales VALUES (2, 904, 5)")
    manager.ledger.reset()
    return manager, order


def single(manager: ViewManager, order: str | None) -> None:
    scenario = manager.scenario("V")
    if order is None:
        manager.refresh("V")
    else:
        scenario.refresh(order=order)


def group(manager: ViewManager, order: str | None) -> None:
    if order in (None, "propagate_first"):
        manager.refresh_group(["V"])
        return
    # refresh_group runs a view's default order; any other order is the
    # same epoch over that op.
    scenario = manager.scenario("V")
    task = scenario.epoch_tasks()
    op = scenario._refresh_orders[order]
    GroupScheduler(counter=manager.counter).run([replace(task, run=partial(scenario.run, op))])


def sections(manager: ViewManager) -> list[tuple[str, str, int]]:
    return [(section.resource, section.label, section.tuple_ops) for section in manager.ledger.sections]


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_and_group_refresh_agree(case):
    alone, order = build(case)
    grouped, _ = build(case)
    single(alone, order)
    group(grouped, order)

    fresh = alone.scenario("V")
    assert fresh.read_view() == grouped.scenario("V").read_view()
    assert fresh.is_consistent()
    assert not alone.is_stale("V") and not grouped.is_stale("V")

    assert sections(alone) == sections(grouped)
    assert sections(alone), "a refresh holds the view lock at least once"
    for manager in (alone, grouped):
        scenario = manager.scenario("V")
        for section in manager.ledger.sections:
            kind = section.label.rsplit("_", 1)[0]
            assert scenario.ops[kind].locked, section.label


def test_a_base_log_refresh_computes_inside_its_lock():
    """Figure 3's ``refresh_BL``: the delta evaluation is downtime, on
    either path — its section holds more than the patch it installs."""
    for run in (single, group):
        manager, order = build("base_log")
        patch_before = manager.counter.by_operator.get("patch", 0)
        run(manager, order)
        (section,) = manager.ledger.sections
        assert section.tuple_ops > manager.counter.by_operator["patch"] - patch_before > 0
