"""Execution-engine benchmark: ``python -m repro.bench.exec_bench``.

Runs the E7 (incremental-vs-recompute), E13 (shared-view scaling), and
E18 (group-refresh) workloads under every execution engine —
sqlite, compiled, interpreted — and writes a
machine-readable ``BENCH_exec.json`` so future changes have a perf
trajectory to compare against.

The E1–E16 experiment suite itself is pinned to the interpreted engine
(see ``benchmarks/conftest.py``) because it reproduces the *paper's*
cost model; this module measures the *system-level* win of the engine
tiers on the same workloads:

* **E7_refresh** — the ``refresh_BL`` call after a heavy backlog of
  pending changes (three times the initial ``sales`` table, so deferral
  has something to defer), with ``--scale`` growing base and backlog
  together while the *view* stays small: the high-score segment is a
  fixed number of customers at every scale.  The update stream also
  re-scores customers (``promotion_fraction``), so refresh deltas join
  customer changes against the full sales history — the paper's
  newly-valued-customer scenario.  The interpreted engine pays Python
  per intermediate row of that backlog; the sqlite engine pays C per
  row and Python only per *output* row, which is what the pushdown is
  for.
* **E13_shared_views** — sixteen join views over one base, a transaction
  stream, then ``refresh`` of every view.  Reported per phase: install
  (plan/memo sharing across structurally identical view queries),
  transactions (maintenance is deferred, so this phase matches the
  interpreted engine op-for-op — the whole point of deferral), and the
  refresh phase, which pays the deferred sync exactly once.
* **E18_group_refresh** — one group-refresh epoch over a pool of
  shared-log views (log compaction + cross-view delta sharing + the
  parallel scheduler), which exercises every engine from worker threads.

Every run digests its final view contents; ``run_all`` asserts each
engine's digest is bit-identical to the interpreted oracle's, so a
reported speedup can never come from computing something different.

Usage::

    python -m repro.bench.exec_bench [--smoke] [--scale N]
        [--engines sqlite,compiled,interpreted] [--output PATH]

``--smoke`` shrinks the workloads for CI; ``--scale N`` multiplies the
base-data sizes and the pending-change backlog together
(``--scale 10`` is the headline configuration).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import BaseLogScenario
from repro.core.views import ViewDefinition
from repro.exec import COMPILED, INTERPRETED, MODES, resolve_exec_mode
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

__all__ = ["main", "run_all", "run_e7_refresh", "run_e13_shared_views", "run_e18_group_refresh"]


def _digest(*bags: Bag) -> str:
    """A deterministic content digest of view bags (order-insensitive)."""
    payload = repr([sorted(bag.items(), key=repr) for bag in bags]).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _counter_summary(counter: CostCounter) -> dict[str, object]:
    return {
        "plan_hits": counter.plan_hits,
        "plan_misses": counter.plan_misses,
        "memo_hits": counter.memo_hits,
        "index_probes": counter.index_probes,
        "delta_cache_hits": counter.delta_cache_hits,
        "operators": dict(counter.by_operator),
    }


def _ratio(baseline: float, subject: float) -> float | None:
    if not subject:
        return None
    return round(baseline / subject, 2)


# ----------------------------------------------------------------------
# E7: refresh_BL at the largest pending-change volume
# ----------------------------------------------------------------------


def run_e7_refresh(mode: str, *, smoke: bool = False, scale: int = 1) -> dict[str, object]:
    """One E7-shaped run; returns the refresh-phase cost under ``mode``."""
    initial_sales = (300 if smoke else 1500) * scale
    # The backlog is three times the base and scales with it, while the
    # High segment is a *fixed* customer count at every scale: refresh
    # output stays small and constant, so the engines differ purely in
    # what they pay per intermediate row (Python vs. pushed-down C).
    pending = 3 * initial_sales
    customers = (50 if smoke else 150) * scale
    config = RetailConfig(
        customers=customers,
        initial_sales=initial_sales,
        txn_inserts=25,
        promotion_fraction=0.02,
        high_score_fraction=(10 if smoke else 30) / customers,
        seed=96,
    )
    workload = RetailWorkload(config)
    db = Database(exec_mode=mode)
    workload.setup_database(db)
    view = sql_to_view(VIEW_SQL, db)
    scenario = BaseLogScenario(db, view)
    scenario.install()
    applied = 0
    while applied < pending:
        scenario.execute(workload.next_transaction(db))
        applied += config.txn_inserts
    before = scenario.counter.tuples_out
    start = time.perf_counter()
    scenario.refresh()
    wall = time.perf_counter() - start
    assert scenario.is_consistent()
    return {
        "pending_rows": pending,
        "refresh_ops": scenario.counter.tuples_out - before,
        "refresh_wall_s": round(wall, 6),
        "view_digest": _digest(db[view.mv_table]),
        "counters": _counter_summary(scenario.counter),
    }


# ----------------------------------------------------------------------
# E13: many views over one base — install, transactions, refresh_all
# ----------------------------------------------------------------------


def run_e13_shared_views(mode: str, *, smoke: bool = False, scale: int = 1) -> dict[str, object]:
    """E13's scaling shape at its largest size (16 views), per phase."""
    views = 4 if smoke else 16
    txns = (10 if smoke else 30) * scale
    customers = (40 if smoke else 80) * scale
    config = RetailConfig(
        customers=customers,
        initial_sales=(200 if smoke else 800) * scale,
        txn_inserts=25,
        promotion_fraction=0.02,
        high_score_fraction=(8 if smoke else 16) / customers,
        seed=5,
    )
    workload = RetailWorkload(config)
    db = Database(exec_mode=mode)
    workload.setup_database(db)
    base_view = sql_to_view(VIEW_SQL, db)

    phases: dict[str, dict[str, object]] = {}
    scenarios: list[BaseLogScenario] = []

    start = time.perf_counter()
    for index in range(views):
        scenario = BaseLogScenario(db, ViewDefinition(f"V{index}", base_view.query))
        scenario.install()
        scenarios.append(scenario)
    counter = scenarios[0].counter
    for scenario in scenarios[1:]:
        scenario.counter = counter
    phases["install"] = {"ops": counter.tuples_out, "wall_s": round(time.perf_counter() - start, 6)}

    marker = counter.tuples_out
    start = time.perf_counter()
    for txn in workload.transactions(db, txns):
        plan = MaintenancePlan(patches=txn.weakly_minimal().patches())
        for scenario in scenarios:
            plan = plan.merge(scenario.make_safe(txn))
        plan.execute(db, counter=counter)
    phases["transactions"] = {
        "ops": counter.tuples_out - marker,
        "wall_s": round(time.perf_counter() - start, 6),
    }

    marker = counter.tuples_out
    start = time.perf_counter()
    for scenario in scenarios:
        scenario.refresh()
    phases["refresh_all"] = {
        "ops": counter.tuples_out - marker,
        "wall_s": round(time.perf_counter() - start, 6),
    }
    for scenario in scenarios:
        assert scenario.is_consistent()
    return {
        "views": views,
        "txns": txns,
        "phases": phases,
        "total_ops": counter.tuples_out,
        "view_digest": _digest(*(db[scenario.view.mv_table] for scenario in scenarios)),
        "counters": _counter_summary(counter),
    }


# ----------------------------------------------------------------------
# E18: one group-refresh epoch over a pool of shared-log views
# ----------------------------------------------------------------------


def run_e18_group_refresh(mode: str, *, smoke: bool = False, scale: int = 1) -> dict[str, object]:
    """One group-refresh epoch (compaction + delta sharing + parallel
    leaders) at the E18 sweep's large view count, under ``mode``."""
    from repro.bench.group_bench import TEMPLATES

    views = 4 if smoke else 16
    txns = 8 if smoke else 30
    config = RetailConfig(
        customers=60,
        initial_sales=(120 if smoke else 600) * scale,
        txn_inserts=6,
        delete_fraction=0.4,
        seed=18,
    )
    workload = RetailWorkload(config)
    manager = ViewManager(exec_mode=mode)
    workload.setup_database(manager.db)
    for index in range(views):
        manager.define_view(f"V{index}", TEMPLATES[index % len(TEMPLATES)], scenario="shared_log")
    for txn in workload.transactions(manager.db, txns):
        manager.execute(txn)

    marker = manager.counter.tuples_out
    start = time.perf_counter()
    manager.refresh_group(parallel=True)
    wall = time.perf_counter() - start
    names = sorted(manager.views())
    for name in names:
        assert not manager.is_stale(name), name
    return {
        "views": views,
        "txns": txns,
        "refresh_ops": manager.counter.tuples_out - marker,
        "refresh_wall_s": round(wall, 6),
        "view_digest": _digest(*(manager.query(name) for name in names)),
        "counters": _counter_summary(manager.counter),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def _speedups(runs: dict[str, dict[str, object]], key: str) -> dict[str, float | None]:
    baseline = runs.get(INTERPRETED)
    if baseline is None:
        return {}
    return {
        mode: _ratio(baseline[key], runs[mode][key]) for mode in runs if mode != INTERPRETED
    }


def _check_digests(experiment: str, runs: dict[str, dict[str, object]]) -> None:
    baseline = runs.get(INTERPRETED)
    if baseline is None:
        return
    for mode, run in runs.items():
        if run["view_digest"] != baseline["view_digest"]:
            raise AssertionError(
                f"{experiment}: {mode} produced view contents differing from the "
                f"interpreted oracle ({run['view_digest']} != {baseline['view_digest']})"
            )


def run_all(
    *, smoke: bool = False, scale: int = 1, engines: tuple[str, ...] = MODES
) -> dict[str, object]:
    e7 = {mode: run_e7_refresh(mode, smoke=smoke, scale=scale) for mode in engines}
    e13 = {mode: run_e13_shared_views(mode, smoke=smoke, scale=scale) for mode in engines}
    e18 = {mode: run_e18_group_refresh(mode, smoke=smoke, scale=scale) for mode in engines}
    _check_digests("E7_refresh", e7)
    _check_digests("E13_shared_views", e13)
    _check_digests("E18_group_refresh", e18)
    e13_refresh = {mode: e13[mode]["phases"]["refresh_all"] for mode in engines}
    results: dict[str, object] = {
        "benchmark": "repro.bench.exec_bench",
        "smoke": smoke,
        "scale": scale,
        "engines": list(engines),
        "experiments": {
            "E7_refresh": {
                **{mode: e7[mode] for mode in engines},
                "wall_speedup_vs_interpreted": _speedups(e7, "refresh_wall_s"),
            },
            "E13_shared_views": {
                **{mode: e13[mode] for mode in engines},
                "refresh_wall_speedup_vs_interpreted": {
                    mode: _ratio(
                        e13_refresh[INTERPRETED]["wall_s"], e13_refresh[mode]["wall_s"]
                    )
                    for mode in engines
                    if mode != INTERPRETED
                }
                if INTERPRETED in engines
                else {},
            },
            "E18_group_refresh": {
                **{mode: e18[mode] for mode in engines},
                "wall_speedup_vs_interpreted": _speedups(e18, "refresh_wall_s"),
            },
        },
    }
    if INTERPRETED in engines and COMPILED in engines:
        experiments = results["experiments"]
        experiments["E7_refresh"]["tuple_op_reduction"] = _ratio(
            e7[INTERPRETED]["refresh_ops"], e7[COMPILED]["refresh_ops"]
        )
        experiments["E7_refresh"]["wall_speedup"] = _ratio(
            e7[INTERPRETED]["refresh_wall_s"], e7[COMPILED]["refresh_wall_s"]
        )
        experiments["E13_shared_views"]["refresh_tuple_op_reduction"] = _ratio(
            e13_refresh[INTERPRETED]["ops"], e13_refresh[COMPILED]["ops"]
        )
        experiments["E13_shared_views"]["refresh_wall_speedup"] = _ratio(
            e13_refresh[INTERPRETED]["wall_s"], e13_refresh[COMPILED]["wall_s"]
        )
        experiments["E13_shared_views"]["total_tuple_op_reduction"] = _ratio(
            e13[INTERPRETED]["total_ops"], e13[COMPILED]["total_ops"]
        )
    return results


def _parse_engines(spec: str) -> tuple[str, ...]:
    engines = tuple(resolve_exec_mode(part) for part in spec.split(",") if part.strip())
    if not engines:
        raise argparse.ArgumentTypeError("at least one engine is required")
    return engines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="shrunk workloads (for CI)")
    parser.add_argument(
        "--scale", type=int, default=1, help="multiply base-data sizes (10 = headline run)"
    )
    parser.add_argument(
        "--engines",
        type=_parse_engines,
        default=MODES,
        help="comma-separated engine list (default: all three)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON (default: BENCH_exec.json at the repo root)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = Path(__file__).resolve().parents[3] / "BENCH_exec.json"

    results = run_all(smoke=args.smoke, scale=args.scale, engines=tuple(args.engines))
    output.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")

    experiments = results["experiments"]
    print(f"wrote {output}")
    for name, wall_key, speedup_key in (
        ("E7_refresh", "refresh_wall_s", "wall_speedup_vs_interpreted"),
        ("E18_group_refresh", "refresh_wall_s", "wall_speedup_vs_interpreted"),
    ):
        runs = experiments[name]
        walls = ", ".join(
            f"{mode}={runs[mode][wall_key]}s" for mode in results["engines"] if mode in runs
        )
        print(f"{name}: {walls}")
        if runs.get(speedup_key):
            print(f"  wall speedup vs interpreted: {runs[speedup_key]}")
    e13 = experiments["E13_shared_views"]
    walls = ", ".join(
        f"{mode}={e13[mode]['phases']['refresh_all']['wall_s']}s"
        for mode in results["engines"]
    )
    print(f"E13_shared_views refresh_all: {walls}")
    if e13.get("refresh_wall_speedup_vs_interpreted"):
        print(f"  wall speedup vs interpreted: {e13['refresh_wall_speedup_vs_interpreted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
