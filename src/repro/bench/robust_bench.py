"""E20 — robustness benchmark: ``python -m repro.bench.robust_bench``.

Prices the self-healing layer, and writes a machine-readable
``BENCH_robust.json``: the retail maintenance workload (transactions,
propagates, partial refreshes, full refreshes) runs under a seeded
p = 0.05 transient-fault storm on every ``flaky-*`` backend seam, once
*without* the engine governor and once *with* it, on each of the three
execution engines.  Per cell:

* **refresh success rate** — the fraction of maintenance operations
  that completed without a client-visible error.  Ungoverned, a storm
  hit on the sqlite tier's pushdown seam surfaces as a raw
  ``sqlite3.OperationalError`` to whoever asked for the refresh;
  governed, the ladder retries, demotes, and re-promotes, so the
  acceptance bar is a success rate of exactly 1.0 on every engine.
* **wall-clock overhead** — governed-vs-ungoverned wall time on the
  same storm, and a no-storm governed/ungoverned baseline pair that
  prices the ladder's bookkeeping alone (one gate check per
  evaluation when every breaker is closed).

Engines whose seams the storm cannot reach (the in-process tiers) show
1.0 success on both arms — the grid localizes the exposure to the
sqlite tier and shows the ladder closing exactly that gap.

Usage::

    python -m repro.bench.robust_bench [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.exec import MODES as ENGINES
from repro.robustness.faults import INJECTOR
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

__all__ = ["main", "run_storm_grid", "ENGINES"]


STORM_SEED = 1996
STORM_PROBABILITY = 0.05


def _build_manager(engine: str, *, governed: bool, config: RetailConfig) -> tuple[ViewManager, RetailWorkload]:
    workload = RetailWorkload(config)
    manager = ViewManager(
        exec_mode=engine,
        governed=governed,
        governor_opts={"sleep": lambda delay: None} if governed else None,
    )
    manager.create_table("customer", ("custId", "name", "address", "score"))
    manager.load("customer", workload.customer_rows())
    manager.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
    manager.load("sales", workload.initial_sales_rows())
    manager.define_view("V", VIEW_SQL, scenario="combined")
    return manager, workload


def _drive(
    engine: str,
    *,
    governed: bool,
    txns: int,
    storm: bool,
    config: RetailConfig,
) -> dict[str, object]:
    """One full workload run; every maintenance op individually scored.

    The storm is armed *after* setup so both arms rain on the same
    phase of the run, and each op catches client-visible errors
    (anything a caller of ``refresh`` would have to handle) instead of
    aborting the run — the success rate is the metric.
    """
    manager, workload = _build_manager(engine, governed=governed, config=config)
    INJECTOR.reset()
    if storm:
        INJECTOR.arm_storm(seed=STORM_SEED, probability=STORM_PROBABILITY)
    ops: list = []
    for index in range(txns):
        txn = manager.transaction()
        txn.insert("sales", [workload._sale_row() for __ in range(config.txn_inserts)])
        ops.append(("txn", txn.run))
        if index % 2 == 1:
            ops.append(("propagate", lambda: manager.propagate("V")))
        if index % 3 == 2:
            ops.append(("partial_refresh", lambda: manager.partial_refresh("V")))
        if index % 4 == 3:
            ops.append(("refresh", lambda: manager.refresh("V")))
    ops.append(("refresh", lambda: manager.refresh("V")))
    attempted = 0
    failed: dict[str, int] = {}
    last_error = None
    start = time.perf_counter()
    for kind, op in ops:
        attempted += 1
        try:
            op()
        except Exception as exc:  # the client-visible seam being priced
            failed[kind] = failed.get(kind, 0) + 1
            last_error = type(exc).__name__
    wall = time.perf_counter() - start
    INJECTOR.reset()
    failures = sum(failed.values())
    result = {
        "ops_attempted": attempted,
        "ops_failed": failures,
        "success_rate": round((attempted - failures) / attempted, 4),
        "wall_s": round(wall, 6),
    }
    if failures:
        result["failed_by_kind"] = dict(sorted(failed.items()))
        result["last_error"] = last_error
    return result


def run_storm_grid(*, smoke: bool = False) -> dict[str, object]:
    """The 3-engine × {ungoverned, governed} grid, stormy and calm."""
    txns = 8 if smoke else 24
    config = RetailConfig(
        customers=24 if smoke else 60,
        items=10,
        initial_sales=60 if smoke else 240,
        txn_inserts=4 if smoke else 8,
        seed=96,
    )
    grid: dict[str, object] = {}
    for engine in ENGINES:
        governed_counters: dict[str, int] = {}
        stack = obs.enable(tracer=False, accounting=False)
        try:
            with_ladder = _drive(engine, governed=True, txns=txns, storm=True, config=config)
            governed_counters = {
                name: snap["value"]
                for name, snap in stack.metrics.snapshot().items()
                if snap.get("type") == "counter"
                and name in ("engine_demotions", "engine_repromotions", "faults_injected", "mirror_resyncs")
            }
        finally:
            obs.disable()
        without_ladder = _drive(engine, governed=False, txns=txns, storm=True, config=config)
        calm_with = _drive(engine, governed=True, txns=txns, storm=False, config=config)
        calm_without = _drive(engine, governed=False, txns=txns, storm=False, config=config)
        grid[engine] = {
            "storm": {
                "without_ladder": without_ladder,
                "with_ladder": with_ladder,
                "ladder_wall_ratio": (
                    round(with_ladder["wall_s"] / without_ladder["wall_s"], 4)
                    if without_ladder["wall_s"]
                    else None
                ),
                "governor_counters": governed_counters,
            },
            "calm": {
                "without_ladder": {"wall_s": calm_without["wall_s"]},
                "with_ladder": {"wall_s": calm_with["wall_s"]},
                "ladder_wall_ratio": (
                    round(calm_with["wall_s"] / calm_without["wall_s"], 4)
                    if calm_without["wall_s"]
                    else None
                ),
            },
        }
    return {
        "config": {
            "storm_seed": STORM_SEED,
            "storm_probability": STORM_PROBABILITY,
            "txns": txns,
            "engines": list(ENGINES),
        },
        "grid": grid,
        "claims": {
            # The acceptance bar: governed, every engine absorbs the
            # storm completely — no maintenance op errors to the client.
            "governed_success_all_engines": all(
                grid[engine]["storm"]["with_ladder"]["success_rate"] == 1.0
                for engine in ENGINES
            ),
        },
    }


def run_all(*, smoke: bool = False) -> dict[str, object]:
    return {
        "benchmark": "repro.bench.robust_bench",
        "smoke": smoke,
        "experiments": {"E20_storm_grid": run_storm_grid(smoke=smoke)},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="shrunk workloads (for CI)")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON (default: BENCH_robust.json at the repo root)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = Path(__file__).resolve().parents[3] / "BENCH_robust.json"

    results = run_all(smoke=args.smoke)
    output.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")

    grid = results["experiments"]["E20_storm_grid"]
    print(f"wrote {output}")
    for engine in ENGINES:
        cell = grid["grid"][engine]["storm"]
        print(
            f"{engine:>12}: storm success "
            f"{cell['without_ladder']['success_rate']:.2%} ungoverned → "
            f"{cell['with_ladder']['success_rate']:.2%} governed "
            f"(wall ratio {cell['ladder_wall_ratio']})"
        )
    print(f"governed success on all engines: {grid['claims']['governed_success_all_engines']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
