"""E13 — extension: shared-log scaling with the number of views.

Section 7 asks how log information should be stored so per-transaction
work is "minimal, and independent of the number of views supported".
The per-view logs of ``makesafe_BL`` scale linearly with the view count;
the shared sequenced log (`repro.extensions.sharedlog`) appends once per
transaction regardless.

Sweep the number of maintained views over the same base table and
measure per-transaction tuple-ops under both designs.
"""

from benchmarks.common import ExperimentResult, write_report
from repro.core.scenarios import BaseLogScenario
from repro.core.views import ViewDefinition
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import RetailConfig, RetailWorkload

VIEW_COUNTS = (1, 2, 4, 8, 16)
TXNS = 30


def setup_db():
    config = RetailConfig(customers=80, initial_sales=800, txn_inserts=8, seed=5)
    workload = RetailWorkload(config)
    db = Database()
    workload.setup_database(db)
    return db, workload


def view_for(db, index: int) -> ViewDefinition:
    return ViewDefinition(f"V{index}", db.ref("sales"))


def per_view_logs_cost(views: int) -> int:
    db, workload = setup_db()
    scenarios = []
    for index in range(views):
        scenario = BaseLogScenario(db, view_for(db, index))
        scenario.install()
        scenarios.append(scenario)
    counter = scenarios[0].counter
    for scenario in scenarios[1:]:
        scenario.counter = counter
    before = counter.tuples_out
    for txn in workload.transactions(db, TXNS):
        from repro.core.plan import MaintenancePlan

        plan = MaintenancePlan(patches=txn.weakly_minimal().patches())
        for scenario in scenarios:
            plan = plan.merge(scenario.make_safe(txn))
        plan.execute(db, counter=counter)
    return (counter.tuples_out - before) // TXNS


def shared_log_cost(views: int) -> int:
    db, workload = setup_db()
    manager = ViewManager(db)
    for index in range(views):
        manager.define_view(f"V{index}", view_for(db, index), scenario="shared_log")
    before = manager.counter.tuples_out
    for txn in workload.transactions(db, TXNS):
        manager.execute(txn)
    return (manager.counter.tuples_out - before) // TXNS


def run_experiment():
    rows = []
    for views in VIEW_COUNTS:
        rows.append(
            {
                "views": views,
                "per_view_logs_ops": per_view_logs_cost(views),
                "shared_log_ops": shared_log_cost(views),
            }
        )
    return rows


def test_e13_shared_log_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    result = ExperimentResult("E13", "per-transaction ops vs number of views: per-view vs shared log")
    for row in rows:
        result.add(**row)
    write_report(result)

    # Per-view logs grow with the view count...
    assert rows[-1]["per_view_logs_ops"] > 4 * rows[0]["per_view_logs_ops"]
    # ...while the shared log's per-transaction cost is flat.
    shared = [row["shared_log_ops"] for row in rows]
    assert max(shared) <= min(shared) + 2
