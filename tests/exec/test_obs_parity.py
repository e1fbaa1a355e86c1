"""Observability parity on the compiled-vs-interpreted grid.

Two guarantees, on the same seeded retail lifecycle the oracle tests
use:

1. **Tracing is free, per engine** — running with the full
   observability stack enabled must leave the :class:`CostCounter`
   byte-identical to a disabled run.  Spans *absorb* counter deltas;
   they never produce them, and the accountant/metrics never evaluate
   anything.

2. **Traces and metrics agree across engines** — modulo timing
   (``TIMING_FIELDS``) and engine-internal spans (``plan_compile``,
   ``index_sync``, ``index_build`` exist only under the compiled engine), the span
   forest and the deterministic metrics (transactions, refreshes,
   propagations, delta-row histogram) are structurally identical:
   both engines run the same maintenance algorithm.
"""

import pytest

from repro import obs
from repro.core.scenarios import CombinedScenario
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

MODES = ("interpreted", "compiled")

#: Spans only one engine emits (compiled-engine cache/index internals).
ENGINE_INTERNAL_SPANS = frozenset({"plan_compile", "index_sync", "index_build"})

def lifecycle(mode: str, *, enabled: bool):
    """One deterministic maintenance lifetime; returns (counter, obs stack)."""
    config = RetailConfig(customers=15, initial_sales=50, txn_inserts=5, seed=7)
    workload = RetailWorkload(config)
    db = Database(exec_mode=mode)
    workload.setup_database(db)
    scenario = CombinedScenario(db, sql_to_view(VIEW_SQL, db))
    scenario.install()

    def drive():
        for index, txn in enumerate(workload.transactions(db, 6), start=1):
            scenario.execute(txn)
            if index % 2 == 0:
                scenario.propagate()
            if index % 3 == 0:
                scenario.partial_refresh()
        scenario.refresh()

    if enabled:
        with obs.observed() as stack:
            drive()
        return scenario.counter, stack
    obs.disable()
    drive()
    return scenario.counter, None


def prune(structure: dict, drop: frozenset) -> dict:
    """A span-structure tree with engine-internal spans removed."""
    return {
        "name": structure["name"],
        "attrs": structure["attrs"],
        "children": [
            prune(child, drop) for child in structure["children"] if child["name"] not in drop
        ],
    }


@pytest.mark.parametrize("mode", MODES)
def test_observability_does_not_move_the_cost_counter(mode):
    baseline, _ = lifecycle(mode, enabled=False)
    observed, _ = lifecycle(mode, enabled=True)
    assert observed.snapshot() == baseline.snapshot()


def test_span_forest_identical_across_engines():
    forests = {}
    for mode in MODES:
        _, stack = lifecycle(mode, enabled=True)
        forests[mode] = [
            prune(root.structure(), ENGINE_INTERNAL_SPANS) for root in stack.tracer.roots
        ]
    assert forests["interpreted"], "tracer collected nothing"
    assert forests["interpreted"] == forests["compiled"]


def test_compiled_engine_emits_its_internal_spans():
    _, stack = lifecycle("compiled", enabled=True)
    assert stack.tracer.find("plan_compile"), "compiled engine should trace plan compiles"
    _, interpreted_stack = lifecycle("interpreted", enabled=True)
    assert not interpreted_stack.tracer.find("plan_compile")


#: Metrics both engines must report identically: pure counts of
#: maintenance events and the delta-size distribution, none of which
#: depend on wall time or on engine cache behavior.
DETERMINISTIC_METRICS = ("transactions", "refreshes", "propagations", "lock_sections", "delta_rows")


def test_deterministic_metrics_identical_across_engines():
    snapshots = {}
    for mode in MODES:
        _, stack = lifecycle(mode, enabled=True)
        full = stack.metrics.snapshot()
        snapshots[mode] = {name: full.get(name) for name in DETERMINISTIC_METRICS}
    assert snapshots["interpreted"]["transactions"] is not None
    assert snapshots["interpreted"] == snapshots["compiled"]


# ----------------------------------------------------------------------
# The group epoch: why it was slow, readable from the trace, for free
# ----------------------------------------------------------------------


def group_lifecycle(mode: str, *, enabled: bool):
    """Three epochs over four shared-log views, one joining before the last."""
    from repro.warehouse.manager import ViewManager

    manager = ViewManager(exec_mode=mode)
    manager.create_table("R", ("a", "b"), rows=[(i % 3, i) for i in range(9)])
    for index in range(3):
        manager.define_view(f"V{index}", "SELECT a, b FROM R WHERE b != 4", scenario="shared_log")

    def drive():
        for epoch in range(3):
            manager.execute_sql(f"INSERT INTO R VALUES (1, {100 + epoch}); DELETE FROM R WHERE b = {epoch}")
            if epoch == 2:
                manager.define_view("late", "SELECT a FROM R WHERE a = 1", scenario="shared_log")
            manager.refresh_group(parallel=(epoch == 1))

    if enabled:
        with obs.observed() as stack:
            drive()
        return manager.counter, stack
    obs.disable()
    drive()
    return manager.counter, None


@pytest.mark.parametrize("mode", MODES)
def test_group_epoch_span_says_what_the_epoch_built(mode):
    baseline, _ = group_lifecycle(mode, enabled=False)
    observed, stack = group_lifecycle(mode, enabled=True)
    assert observed.snapshot() == baseline.snapshot()
    epochs = [span.attrs for span in stack.tracer.find("group_epoch")]
    assert [attrs["schedule"] for attrs in epochs] == ["rebuilt", "reused", "rebuilt"]
    # The three equal queries share one pair; a pair is built where its
    # view is defined and reported by the next epoch.
    assert [attrs["pairs_built"] for attrs in epochs] == [1, 0, 1]
    # One insert and one delete recorded per epoch, one slice of R.
    assert [attrs["bound_rows"] for attrs in epochs] == [2, 2, 2]
    metrics = stack.metrics.snapshot()
    assert metrics['group_schedule{outcome="rebuilt"}']["value"] == 2
    assert metrics['group_schedule{outcome="reused"}']["value"] == 1
