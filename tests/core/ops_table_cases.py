"""Shared fixtures for the "static picture ≡ executed code" table test.

One seeded workload per (scenario, layout) cell, driven through public
entry points only, so the very same driver recorded the tuple-op counts
pinned in ``ops_table_counts.json`` at the commit *before* the
operations became values (``python tests/core/ops_table_cases.py`` prints
a fresh recording).
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.scenarios import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
)
from repro.core.transactions import UserTransaction
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.storage.locks import LockLedger
from repro.storage.partition import PartitionedDatabase
from repro.warehouse.manager import ViewManager

COUNTS_PATH = Path(__file__).with_name("ops_table_counts.json")

VIEW_SQL = (
    "CREATE VIEW V (custId, item) AS "
    "SELECT c.custId, s.item FROM C c, S s WHERE c.custId = s.custId"
)
AGG_SQL = "SELECT custId, COUNT(*), SUM(qty) AS total FROM S GROUP BY custId"

CORE = {
    "IM": ImmediateScenario,
    "BL": BaseLogScenario,
    "DT": DiffTableScenario,
    "C": CombinedScenario,
    "C_partial_first": CombinedScenario,
}
CASES = (*CORE, "shared_log", "aggregate")
LAYOUTS = ("plain", "hash")
KINDS = ("makesafe", "propagate", "partial_refresh", "refresh")
COUNTED = ("tuples_out", "evaluations", "partitions_touched", "partition_prunes", "partition_fallbacks")


class RecordingLedger(LockLedger):
    """A ledger that also notes which tables each exclusive section wrote."""

    def __init__(self, db) -> None:
        super().__init__()
        self._db = db
        self.written_locked: set[str] = set()

    @contextmanager
    def exclusive(self, resource, *, label="", counter=None):
        before = stamps(self._db)
        with super().exclusive(resource, label=label, counter=counter):
            try:
                yield
            finally:
                self.written_locked |= written_since(self._db, before)


def stamps(db) -> dict[str, int]:
    return {name: db.version_of(name) for name in db.table_names()}


def written_since(db, before: dict[str, int]) -> set[str]:
    return {name for name, stamp in stamps(db).items() if before.get(name) != stamp}


@dataclass
class Observation:
    """What one executed operation did."""

    written: set[str]
    written_locked: set[str]
    counts: dict[str, int]


@dataclass
class Cell:
    """One installed (scenario, layout) pair and its seeded driver."""

    case: str
    layout: str
    db: object
    scenario: object
    ledger: RecordingLedger
    execute: object  # callable(txn)
    step: int = 0
    observed: dict[str, Observation] = field(default_factory=dict)

    def txn(self) -> None:
        """The next seeded transaction: two inserts and one delete on S."""
        index = self.step
        self.step += 1
        txn = UserTransaction(self.db)
        txn.insert("S", [(index % 6, f"i{index % 3}", index + 1), (index + 1, "fresh", 2)])
        txn.delete("S", [(index % 6, f"i{index % 3}", 1)])
        self.execute(txn)

    def observe(self, kind: str, call) -> None:
        counter = self.scenario.counter
        before_counts = {name: getattr(counter, name) for name in COUNTED}
        before = stamps(self.db)
        self.ledger.written_locked = set()
        call()
        self.observed[kind] = Observation(
            written=written_since(self.db, before),
            written_locked=set(self.ledger.written_locked),
            counts={name: getattr(counter, name) - before_counts[name] for name in COUNTED},
        )


def build(case: str, layout: str) -> Cell:
    """Install ``case`` over a plain or hash-partitioned compiled database."""
    db = (PartitionedDatabase if layout == "hash" else Database)(exec_mode="compiled")
    db.create_table("C", ["custId", "name"], rows=[(i, f"n{i}") for i in range(8)])
    db.create_table(
        "S", ["custId", "item", "qty"], rows=[(i % 6, f"i{i % 3}", 1) for i in range(20)]
    )
    if layout == "hash":
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
    ledger = RecordingLedger(db)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if case in CORE:
            scenario = CORE[case](db, sql_to_view(VIEW_SQL, db), ledger=ledger)
            scenario.install()
            return Cell(case, layout, db, scenario, ledger, scenario.execute)
        manager = ViewManager(db)
        manager.ledger = ledger
        if case == "shared_log":
            manager.define_view("V", VIEW_SQL, scenario="shared_log")
        else:
            manager.define_view("V", AGG_SQL)
    return Cell(case, layout, db, manager.scenario("V"), ledger, manager.execute)


def drive(cell: Cell) -> None:
    """Run every operation kind the cell's scenario has, each after fresh work."""
    scenario = cell.scenario
    refresh = scenario.refresh
    if cell.case == "C_partial_first":
        refresh = lambda: scenario.refresh(order="partial_first")  # noqa: E731
    cell.observe("makesafe", cell.txn)
    if hasattr(scenario, "propagate"):
        cell.observe("propagate", scenario.propagate)
        cell.txn()
        scenario.propagate()
        cell.txn()
        cell.observe("partial_refresh", scenario.partial_refresh)
    cell.txn()
    cell.observe("refresh", refresh)


def record() -> dict[str, dict[str, dict[str, int]]]:
    out: dict[str, dict[str, dict[str, int]]] = {}
    for case in CASES:
        for layout in LAYOUTS:
            cell = build(case, layout)
            drive(cell)
            out[f"{case}/{layout}"] = {kind: seen.counts for kind, seen in cell.observed.items()}
    return out


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
