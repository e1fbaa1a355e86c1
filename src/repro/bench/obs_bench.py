"""E19 — observability benchmark: ``python -m repro.bench.obs_bench``.

Measures two things the observability layer exists for, and writes a
machine-readable ``BENCH_obs.json``:

* **E19_downtime_staleness** — Policy 1 vs Policy 2 at equal ``(k, m)``
  over the retail workload, measured with the
  :class:`~repro.obs.accounting.DowntimeAccountant`'s per-view clocks:
  per-refresh downtime (seconds *and* tuple-ops per exclusive-lock
  section) and staleness (wall-clock seconds *and* unpropagated log
  entries at each refresh).  The Section 5.3 ordering must reproduce:
  Policy 2's per-refresh downtime is strictly lower — its
  ``partial_refresh`` only applies precomputed differentials — while
  it serves answers a bounded ``k`` ticks stale.
* **overhead** — the same E7-shaped refresh workload run with
  observability disabled and enabled.  The tuple-op counts must be
  *identical* (spans absorb the cost counter, never add to it; the
  disabled path is a function call and a dict literal per site), and
  the enabled/disabled wall-clock ratio quantifies what turning the
  full stack on costs.

Usage::

    python -m repro.bench.obs_bench [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.policies import MaintenanceDriver, Policy1, Policy2
from repro.core.scenarios import BaseLogScenario, CombinedScenario
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

__all__ = ["main", "run_policy_comparison", "run_overhead_check"]


def _retail(*, smoke: bool, seed: int = 96):
    config = RetailConfig(
        customers=80 if smoke else 150,
        initial_sales=400 if smoke else 1500,
        txn_inserts=8 if smoke else 12,
        seed=seed,
    )
    workload = RetailWorkload(config)
    db = Database()
    workload.setup_database(db)
    view = sql_to_view(VIEW_SQL, db)
    return db, view, workload


# ----------------------------------------------------------------------
# E19: Policy 1 vs Policy 2 through the downtime accountant
# ----------------------------------------------------------------------


def _run_policy(policy, *, smoke: bool, horizon: int, txns_per_tick: int) -> dict[str, object]:
    """One full simulated day under ``policy``, observed.

    ``query_every=1`` reads the view at every tick, so the driver's
    staleness samples measure how out-of-date *served answers* were in
    simulated ticks, alongside the accountant's wall-clock/log-entry
    samples taken at each refresh.
    """
    db, view, workload = _retail(smoke=smoke)
    with obs.observed() as observability:
        scenario = CombinedScenario(db, view)
        scenario.install()
        driver = MaintenanceDriver(scenario, policy)
        driver.run(
            workload.schedule(db, horizon=horizon, txns_per_tick=txns_per_tick),
            horizon=horizon,
            query_every=1,
        )
        clock = observability.accounting.clock(view.name)
        spans = {
            name: len(observability.tracer.find(name))
            for name in ("propagate", "partial_refresh", "refresh", "makesafe")
            if observability.tracer.find(name)
        }
        # Staleness at each refresh completion, in both units.
        samples = [{"wall_s": round(wall, 6), "entries": entries} for wall, entries in clock.staleness_samples]
        return {
            "policy": f"{type(policy).__name__}(k={policy.k}, m={policy.m})",
            "downtime": {
                "lock_sections": clock.lock_sections,
                "total_seconds": round(clock.locked_seconds, 6),
                "total_ops": clock.locked_ops,
                "mean_section_seconds": round(clock.mean_section_seconds(), 6),
                "mean_section_ops": round(clock.mean_section_ops(), 2),
                "max_section_seconds": round(clock.max_section_seconds, 6),
                "max_section_ops": clock.max_section_ops,
            },
            "staleness": {
                "samples": samples,
                "max_wall_s": round(clock.max_staleness_seconds(), 6),
                "max_entries": clock.max_staleness_entries(),
                "residual_entries_after_run": clock.pending_entries,
                "max_ticks_served": driver.stats.max_staleness(),
                "mean_ticks_served": round(driver.stats.mean_staleness(), 3),
                "ticks_behind_after_run": driver.clock.staleness(driver.now),
            },
            "driver": {
                "transactions": driver.stats.transactions,
                "propagates": driver.stats.propagates,
                "partial_refreshes": driver.stats.partial_refreshes,
                "full_refreshes": driver.stats.full_refreshes,
            },
            "spans": spans,
        }


def run_policy_comparison(*, smoke: bool = False, k: int = 2, m: int = 7) -> dict[str, object]:
    """Policy 1 vs Policy 2 at equal ``(k, m)`` — the Section 5.3 trade.

    The default ``m = 7`` is deliberately not a multiple of ``k``: when
    ``k`` divides ``m``, every ``partial_refresh`` tick also carries a
    ``propagate``, and Policy 2 comes out fully fresh at each refresh —
    hiding exactly the bounded-``k`` residual staleness the policy
    trades for its lower downtime.
    """
    # An odd multiple of the (odd) m: the run ends on a partial_refresh
    # tick that does NOT coincide with a propagate, so Policy 2's
    # residual staleness is visible in the end-of-run clocks.
    horizon = m if smoke else 3 * m
    txns_per_tick = 2 if smoke else 5
    policy1 = _run_policy(Policy1(k=k, m=m), smoke=smoke, horizon=horizon, txns_per_tick=txns_per_tick)
    policy2 = _run_policy(Policy2(k=k, m=m), smoke=smoke, horizon=horizon, txns_per_tick=txns_per_tick)
    return {
        "config": {"k": k, "m": m, "horizon": horizon, "txns_per_tick": txns_per_tick},
        "policy1": policy1,
        "policy2": policy2,
        "ordering": {
            # The paper's claim at equal (k, m): Policy 2 refreshes with
            # strictly less work under the lock (it never computes deltas
            # there), at the price of a bounded-k residual staleness.
            "policy2_lower_max_section_ops": (
                policy2["downtime"]["max_section_ops"] < policy1["downtime"]["max_section_ops"]
            ),
            "policy2_lower_mean_section_ops": (
                policy2["downtime"]["mean_section_ops"] < policy1["downtime"]["mean_section_ops"]
            ),
            "policy2_residual_staleness": policy2["staleness"]["residual_entries_after_run"] > 0,
            "policy2_staleness_bounded_by_k": policy2["staleness"]["ticks_behind_after_run"] <= k,
            # horizon is a multiple of m, so Policy 1 ends on refresh_C.
            "policy1_fresh_after_full_refresh": policy1["staleness"]["ticks_behind_after_run"] == 0,
        },
    }


# ----------------------------------------------------------------------
# Overhead: the no-op path must not move the cost model (or the clock)
# ----------------------------------------------------------------------


def _e7_shaped_run(*, smoke: bool, enabled: bool, sanitizer: bool = False) -> dict[str, object]:
    """An E7-shaped transaction stream + refresh, observed or not.

    ``sanitizer=True`` runs under the dynamic lockset sanitizer *only*
    (tracer/metrics/accounting stay as ``enabled`` says) — the
    regression gate's ``--sanitizer-guard`` uses this to price the
    sanitizer's overhead in isolation.
    """
    initial_sales = 200 if smoke else 800
    pending = initial_sales
    config = RetailConfig(customers=80, initial_sales=initial_sales, txn_inserts=20, seed=96)
    workload = RetailWorkload(config)
    db = Database()
    workload.setup_database(db)

    def run() -> tuple[int, float]:
        scenario = BaseLogScenario(db, sql_to_view(VIEW_SQL, db))
        scenario.install()
        applied = 0
        start = time.perf_counter()
        while applied < pending:
            scenario.execute(workload.next_transaction(db))
            applied += config.txn_inserts
        scenario.refresh()
        wall = time.perf_counter() - start
        ops = scenario.counter.tuples_out
        scenario.uninstall()
        return ops, wall

    if enabled or sanitizer:
        with obs.observed(
            tracer=enabled, metrics=enabled, accounting=enabled, sanitizer=sanitizer
        ) as stack:
            ops, wall = run()
            findings = len(stack.sanitizer.findings) if sanitizer else 0
    else:
        obs.disable()
        ops, wall = run()
        findings = 0
    result = {"ops": ops, "wall_s": round(wall, 6)}
    if sanitizer:
        result["sanitizer_findings"] = findings
    return result


def run_overhead_check(*, smoke: bool = False, repeats: int = 3) -> dict[str, object]:
    """Tuple-op identity and wall-clock overhead, disabled vs enabled.

    Wall times take the *minimum* over ``repeats`` runs to damp noise;
    the tuple-op counts must match exactly on every run.
    """
    disabled = [_e7_shaped_run(smoke=smoke, enabled=False) for _ in range(repeats)]
    enabled = [_e7_shaped_run(smoke=smoke, enabled=True) for _ in range(repeats)]
    ops_disabled = {run["ops"] for run in disabled}
    ops_enabled = {run["ops"] for run in enabled}
    wall_disabled = min(run["wall_s"] for run in disabled)
    wall_enabled = min(run["wall_s"] for run in enabled)
    return {
        "repeats": repeats,
        "disabled": {"ops": sorted(ops_disabled), "best_wall_s": wall_disabled},
        "enabled": {"ops": sorted(ops_enabled), "best_wall_s": wall_enabled},
        "tuple_ops_identical": ops_disabled == ops_enabled and len(ops_disabled) == 1,
        "wall_overhead_ratio": round(wall_enabled / wall_disabled, 4) if wall_disabled else None,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_all(*, smoke: bool = False) -> dict[str, object]:
    return {
        "benchmark": "repro.bench.obs_bench",
        "smoke": smoke,
        "experiments": {
            "E19_downtime_staleness": run_policy_comparison(smoke=smoke),
            "overhead": run_overhead_check(smoke=smoke),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="shrunk workloads (for CI)")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON (default: BENCH_obs.json at the repo root)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = Path(__file__).resolve().parents[3] / "BENCH_obs.json"

    results = run_all(smoke=args.smoke)
    output.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")

    e19 = results["experiments"]["E19_downtime_staleness"]
    overhead = results["experiments"]["overhead"]
    print(f"wrote {output}")
    print(
        "E19 per-refresh downtime (max section ops): "
        f"Policy 1 {e19['policy1']['downtime']['max_section_ops']} vs "
        f"Policy 2 {e19['policy2']['downtime']['max_section_ops']} "
        f"(Policy 2 lower: {e19['ordering']['policy2_lower_max_section_ops']})"
    )
    print(
        "E19 staleness: Policy 2 max "
        f"{e19['policy2']['staleness']['max_entries']} log entries, "
        f"{e19['policy2']['staleness']['ticks_behind_after_run']} ticks behind after run "
        f"(bounded by k={e19['config']['k']})"
    )
    print(
        f"overhead: tuple-ops identical={overhead['tuple_ops_identical']}, "
        f"wall ratio={overhead['wall_overhead_ratio']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
