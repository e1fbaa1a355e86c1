"""Integration: all maintenance paths converge to identical views.

The strongest end-to-end statement in the paper is implicit in
Theorem 5: whatever scenario maintains a view, after a full refresh the
materialized table equals ``Q`` — so *every* maintenance strategy
(immediate, deferred in all three flavors, shared-log, Hanson, plain
recomputation) must agree exactly, duplicates included, on any workload.
"""

import pytest

from repro.baselines.hanson import HansonDifferentialFiles
from repro.baselines.recompute import RecomputeScenario
from repro.core.scenarios import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
)
from repro.core.views import ViewDefinition
from repro.warehouse.manager import ViewManager
from repro.workloads.randgen import RandomExpressionGenerator

SCENARIO_CLASSES = [
    ImmediateScenario,
    BaseLogScenario,
    DiffTableScenario,
    CombinedScenario,
    RecomputeScenario,
]


def run_standard(scenario_cls, seed, *, strong=False):
    generator = RandomExpressionGenerator(seed)
    db = generator.database()
    view = ViewDefinition("V", generator.query(db, depth=3))
    kwargs = {"strong_minimality": True} if strong else {}
    scenario = scenario_cls(db, view, **kwargs)
    scenario.install()
    for __ in range(5):
        scenario.execute(generator.transaction(db, allow_over_delete=True))
    scenario.refresh()
    return db[view.mv_table], db.snapshot()


def run_shared_log(seed):
    generator = RandomExpressionGenerator(seed)
    db = generator.database()
    view = ViewDefinition("V", generator.query(db, depth=3))
    manager = ViewManager(db)
    manager.define_view("V", view, scenario="shared_log")
    for __ in range(5):
        manager.execute(generator.transaction(db, allow_over_delete=True))
    manager.refresh("V")
    return db[view.mv_table], db.snapshot()


def run_hanson(seed):
    generator = RandomExpressionGenerator(seed)
    db = generator.database()
    view = ViewDefinition("V", generator.query(db, depth=3))
    system = HansonDifferentialFiles(db, view)
    system.install()
    for __ in range(5):
        system.execute(generator.transaction(db, allow_over_delete=True))
    system.refresh()
    return db[view.mv_table], db.snapshot()


@pytest.mark.parametrize("seed", range(8))
def test_all_paths_agree(seed):
    results = {}
    base_states = {}
    for scenario_cls in SCENARIO_CLASSES:
        results[scenario_cls.tag], base_states[scenario_cls.tag] = run_standard(scenario_cls, seed)
    results["C-strong"], base_states["C-strong"] = run_standard(CombinedScenario, seed, strong=True)
    results["SL"], base_states["SL"] = run_shared_log(seed)
    results["HAN"], base_states["HAN"] = run_hanson(seed)

    # Identical base-table end states (external tables only — auxiliary
    # bookkeeping legitimately differs per path).
    reference_tag = "IM"
    external = [name for name in base_states[reference_tag] if not name.startswith("__")]
    for tag, state in base_states.items():
        for table in external:
            assert state[table] == base_states[reference_tag][table], f"{tag}:{table}"

    # Identical view contents, duplicates included.
    reference = results[reference_tag]
    for tag, value in results.items():
        assert value == reference, f"scenario {tag} disagrees at seed {seed}"


@pytest.mark.parametrize("seed", range(4))
def test_sqlite_backend_agrees_on_final_views(seed):
    """The deferred-maintenance result matches SQLite evaluating Q directly."""
    from repro.storage.sqlite_backend import SQLiteBackend

    generator = RandomExpressionGenerator(seed)
    db = generator.database()
    view = ViewDefinition("V", generator.query(db, depth=3))
    scenario = CombinedScenario(db, view)
    scenario.install()
    for __ in range(4):
        scenario.execute(generator.transaction(db, allow_over_delete=True))
    scenario.refresh()
    with SQLiteBackend() as backend:
        backend.sync_from(db)
        assert backend.evaluate(view.query) == db[view.mv_table]
