"""Engine-vs-interpreted oracle: identical end states on every scenario.

Runs the same retail workload (the shape behind the E1–E16 experiments:
the Example 1.1 join view, scenario grid IM/BL/DT/C with and without
strong minimality, maintenance policies, the shared-log extension, and
the recompute baseline) once under each execution engine — sqlite,
compiled, interpreted — and asserts the full database state —
base tables, MV, logs, and differential tables — is bag-identical after
every phase.  The interpreted engine is the oracle; every other engine
must match it checkpoint for checkpoint.
"""

import pytest

from repro.baselines.recompute import RecomputeScenario
from repro.core.policies import MaintenanceDriver, Policy1, Policy2
from repro.core.scenarios import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
)
from repro.core.views import ViewDefinition
from repro.exec import MODES
from repro.extensions.sharedlog import SharedLogScenario
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

ENGINES = tuple(mode for mode in MODES if mode != "interpreted")


def fresh(mode, **overrides):
    config = RetailConfig(
        customers=20, initial_sales=60, txn_inserts=5, seed=13, **overrides
    )
    workload = RetailWorkload(config)
    db = Database(exec_mode=mode)
    workload.setup_database(db)
    view = sql_to_view(VIEW_SQL, db)
    return db, view, workload


def checkpoints_for_scenario(scenario_factory, *, txns=6, refresh_every=3):
    """Run one maintenance lifecycle, snapshotting after every phase."""
    states = {}
    for mode in MODES:
        db, view, workload = fresh(mode)
        scenario = scenario_factory(db, view)
        scenario.install()
        snaps = [db.snapshot()]
        for index, txn in enumerate(workload.transactions(db, txns), start=1):
            scenario.execute(txn)
            snaps.append(db.snapshot())
            if index % refresh_every == 0:
                if hasattr(scenario, "propagate"):
                    scenario.propagate()
                    snaps.append(db.snapshot())
                    scenario.partial_refresh()
                else:
                    scenario.refresh()
                snaps.append(db.snapshot())
        scenario.refresh()
        scenario.check_invariant()
        assert scenario.is_consistent()
        snaps.append(db.snapshot())
        states[mode] = snaps
    return states


SCENARIOS = {
    "immediate": ImmediateScenario,
    "base_log": BaseLogScenario,
    "diff_table": DiffTableScenario,
    "diff_table_strong": lambda db, view: DiffTableScenario(db, view, strong_minimality=True),
    "combined": CombinedScenario,
    "combined_strong": lambda db, view: CombinedScenario(db, view, strong_minimality=True),
    "recompute": RecomputeScenario,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_states_identical(name):
    states = checkpoints_for_scenario(SCENARIOS[name])
    oracle = states["interpreted"]
    for mode in ENGINES:
        subject = states[mode]
        assert len(oracle) == len(subject)
        for step, (expected, actual) in enumerate(zip(oracle, subject)):
            assert actual == expected, (
                f"{name}: {mode} state diverged at checkpoint {step}"
            )


@pytest.mark.parametrize("policy_factory", [lambda: Policy1(k=2, m=4), lambda: Policy2(k=2, m=4)])
def test_policy_driven_maintenance_identical(policy_factory):
    states = {}
    for mode in MODES:
        db, view, workload = fresh(mode)
        scenario = CombinedScenario(db, view)
        scenario.install()
        driver = MaintenanceDriver(scenario, policy_factory())
        snaps = []
        for tick in range(6):
            driver.tick([workload.next_transaction(db)])
            snaps.append(db.snapshot())
        states[mode] = snaps
    for mode in ENGINES:
        assert states[mode] == states["interpreted"], mode


def test_shared_log_scenario_identical():
    states = {}
    for mode in MODES:
        db, view, workload = fresh(mode)
        scenario = SharedLogScenario(db)
        scenario.add_view(ViewDefinition("V0", view.query))
        scenario.add_view(ViewDefinition("V1", db.ref("sales")))
        snaps = []
        for index, txn in enumerate(workload.transactions(db, 6), start=1):
            scenario.execute(txn)
            if index % 2 == 0:
                scenario.refresh_all()
            snaps.append(db.snapshot())
        states[mode] = snaps
    for mode in ENGINES:
        assert states[mode] == states["interpreted"], mode


def test_compiled_engine_attributes_its_work():
    db, view, workload = fresh("compiled")
    scenario = CombinedScenario(db, view)
    scenario.install()
    for txn in workload.transactions(db, 4):
        scenario.execute(txn)
    scenario.refresh()
    counter = scenario.counter
    assert counter.plan_hits > 0
    assert counter.memo_hits > 0
    assert counter.index_probes > 0
