"""Shared infrastructure for the experiment benchmarks (E1–E22).

Each experiment writes its report table to ``benchmarks/reports/`` so
``EXPERIMENTS.md`` can quote the measured output, and asserts the
paper's qualitative claims so regressions fail loudly.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.harness import ExperimentResult
from repro.core.policies import MaintenanceDriver, MaintenancePolicy
from repro.core.scenarios import Scenario
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

REPORTS_DIR = Path(__file__).parent / "reports"

__all__ = [
    "write_report",
    "retail_setup",
    "drive_retail",
    "group_manager",
    "ExperimentResult",
]

#: The pool of defining queries a group of shared-log views cycles
#: through, so ``n`` views hold ``n / 4`` structurally identical copies
#: of each (E18, E19).
GROUP_TEMPLATES = (
    VIEW_SQL,
    """
    SELECT c.custId, c.name, s.itemNo
    FROM customer c, sales s
    WHERE c.custId = s.custId AND c.score = 'High'
    """,
    "SELECT custId, itemNo, quantity FROM sales WHERE quantity != 0",
    "SELECT custId, name FROM customer WHERE score = 'High'",
)


def write_report(result: ExperimentResult) -> str:
    """Persist the experiment's table and echo it to stdout."""
    REPORTS_DIR.mkdir(exist_ok=True)
    text = result.report()
    (REPORTS_DIR / f"{result.experiment}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def retail_setup(
    *,
    customers: int = 150,
    initial_sales: int = 3000,
    txn_inserts: int = 12,
    seed: int = 96,
    **config_overrides,
):
    """A retail database plus the Example 1.1 view definition."""
    config = RetailConfig(
        customers=customers,
        initial_sales=initial_sales,
        txn_inserts=txn_inserts,
        seed=seed,
        **config_overrides,
    )
    workload = RetailWorkload(config)
    db = Database()
    workload.setup_database(db)
    view = sql_to_view(VIEW_SQL, db)
    return db, view, workload


def drive_retail(
    scenario: Scenario,
    policy: MaintenancePolicy,
    workload: RetailWorkload,
    *,
    horizon: int = 24,
    txns_per_tick: int = 5,
) -> MaintenanceDriver:
    """Install the scenario and run a full simulated day."""
    scenario.install()
    driver = MaintenanceDriver(scenario, policy)
    schedule = workload.schedule(scenario.db, horizon=horizon, txns_per_tick=txns_per_tick)
    driver.run(schedule, horizon=horizon)
    return driver


def group_manager(mode: str | None, views: int, *, smoke: bool = False) -> ViewManager:
    """``views`` shared-log views over the retail base, a churny stream pending."""
    config = RetailConfig(
        customers=60,
        initial_sales=120 if smoke else 600,
        txn_inserts=6,
        delete_fraction=0.4,  # returns/corrections: material D/I churn
        seed=18,
    )
    workload = RetailWorkload(config)
    manager = ViewManager(exec_mode=mode)
    workload.setup_database(manager.db)
    for index in range(views):
        manager.define_view(
            f"V{index}", GROUP_TEMPLATES[index % len(GROUP_TEMPLATES)], scenario="shared_log"
        )
    for txn in workload.transactions(manager.db, 8 if smoke else 30):
        manager.execute(txn)
    return manager
