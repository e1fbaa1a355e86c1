"""E22 — online serving benchmark: ``python -m repro.bench.serve_bench``.

Drives the :class:`~repro.serve.ViewServer` over the seeded retail
workload and writes a machine-readable ``BENCH_serve.json`` with the
Section 5.3 claim, restated for a serving system:

* **E22_serving** — Policy 2 as the online path.  A deterministic
  lockstep run pairs the server with an interpreted-oracle twin fed the
  byte-identical seeded schedule: every served read must digest
  bit-identically to the oracle, reader-observable exclusive-lock
  downtime must be exactly zero (no lock section is ever attributed to
  a reader thread), staleness must stay bounded by the configured
  ``(k, m)``, and p50/p99 read latency is reported from the raw
  open-loop samples alongside the `MetricsRegistry` histograms.
* **synchronous arm** — the same workload with readers calling
  ``read_fresh`` (refresh under the exclusive lock, then read): the
  pre-snapshot serving model.  Its reader threads *do* acquire the
  ``MV`` lock, giving the nonzero reader-observable downtime the
  deferred path removes.
* **concurrent arm** — N real reader threads against a background
  worker pool, checking snapshot isolation under actual concurrency:
  every digest observed by any reader must be one of the states the
  deterministic run published.

Usage::

    python -m repro.bench.serve_bench [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from repro import obs
from repro.core.ops import OP_KINDS
from repro.robustness.journal import bag_digest
from repro.serve import ServeConfig, ViewServer
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

__all__ = ["main", "run_serving_comparison", "run_concurrent_isolation", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _build_server(
    exec_mode: str | None, *, smoke: bool, k: int, m: int, policy=None, seed: int = 96
):
    config = RetailConfig(
        customers=60 if smoke else 120,
        initial_sales=300 if smoke else 1200,
        txn_inserts=6 if smoke else 10,
        seed=seed,
    )
    workload = RetailWorkload(config)
    db = Database(exec_mode=exec_mode) if exec_mode is not None else Database()
    workload.setup_database(db)
    server = ViewServer(ServeConfig(k=k, m=m, policy=policy), manager=ViewManager(db))
    server.define_view("V", VIEW_SQL, scenario="combined")
    return server, workload, config


def _latency_summary(samples: list[float]) -> dict[str, float]:
    return {
        "reads": len(samples),
        "p50_s": round(percentile(samples, 0.50), 9),
        "p99_s": round(percentile(samples, 0.99), 9),
        "max_s": round(max(samples, default=0.0), 9),
    }


# ----------------------------------------------------------------------
# E22: deterministic lockstep vs the interpreted oracle
# ----------------------------------------------------------------------


def run_serving_comparison(
    *, smoke: bool = False, k: int = 2, m: int = 7, reads_per_tick: int = 16
) -> dict[str, object]:
    """Policy-2 serving vs the synchronous read-fresh path, oracle-checked.

    Both arms and the interpreted oracle replay the identical seeded
    schedule, so every comparison below is digest-for-digest
    deterministic; only the wall-clock latency numbers vary run to run.
    """
    horizon = 3 * m if smoke else 6 * m
    txns_per_tick = 2 if smoke else 4

    server, workload, _ = _build_server(None, smoke=smoke, k=k, m=m)
    oracle, oracle_workload, _ = _build_server("interpreted", smoke=smoke, k=k, m=m)

    latencies: list[float] = []
    staleness_samples: list[int] = []
    post_refresh_staleness: list[int] = []
    digest_matches = 0
    digest_mismatches = 0

    with obs.observed() as stack:
        for _ in range(horizon):
            txns = [workload.next_transaction(server.db) for _ in range(txns_per_tick)]
            oracle_txns = [
                oracle_workload.next_transaction(oracle.db) for _ in range(txns_per_tick)
            ]
            ran = server.tick(txns)
            oracle.tick(oracle_txns)
            for _ in range(reads_per_tick):
                started = time.perf_counter()
                value = server.read("V")
                latencies.append(time.perf_counter() - started)
                staleness_samples.append(server.staleness_ticks("V"))
            digest = bag_digest(server.read("V"))
            if digest == bag_digest(oracle.read("V")):
                digest_matches += 1
            else:
                digest_mismatches += 1
            if any(OP_KINDS[action][1] for _, action in ran):  # an op that applies to MV ran
                post_refresh_staleness.append(server.staleness_ticks("V"))
        clock = stack.accounting.clock("V")
        metrics = stack.metrics.snapshot()

    reader_sections = server.ledger.sections_for_thread("reader")
    serving = {
        "latency_s": _latency_summary(latencies),
        "staleness_ticks": {
            "max": max(staleness_samples, default=0),
            "mean": round(sum(staleness_samples) / max(1, len(staleness_samples)), 3),
            "post_refresh_max": max(post_refresh_staleness, default=0),
            "bound_post_refresh": k,
            "bound_overall": k + m,
        },
        "digests": {"matches": digest_matches, "mismatches": digest_mismatches},
        "reader_observable": {
            "lock_sections": len(reader_sections),
            "lock_ops": sum(section.tuple_ops for section in reader_sections),
            "lock_seconds": round(sum(s.wall_seconds for s in reader_sections), 9),
        },
        "maintenance_downtime": {
            "lock_sections": clock.lock_sections,
            "total_ops": clock.locked_ops,
            "mean_section_ops": round(clock.mean_section_ops(), 2),
            "max_section_ops": clock.max_section_ops,
        },
        "snapshots": server.registry.stats(),
        "metrics": {
            "reads_served": metrics.get("reads_served"),
            "read_latency_s": metrics.get("read_latency_s"),
            "read_staleness_ticks": metrics.get("read_staleness_ticks"),
        },
    }

    # Synchronous arm: a dedicated reader thread calls read_fresh once per
    # tick — refresh-under-lock on the reader's own thread, the pre-MVCC
    # serving model.  Joined per tick, so the run stays deterministic.
    sync_server, sync_workload, _ = _build_server(None, smoke=smoke, k=k, m=m)
    sync_latencies: list[float] = []

    def _sync_read() -> None:
        started = time.perf_counter()
        sync_server.read_fresh("V")
        sync_latencies.append(time.perf_counter() - started)

    for _ in range(horizon):
        txns = [sync_workload.next_transaction(sync_server.db) for _ in range(txns_per_tick)]
        sync_server.tick(txns)
        reader = threading.Thread(name="reader-sync", target=_sync_read)
        reader.start()
        reader.join()
    sync_sections = sync_server.ledger.sections_for_thread("reader")
    synchronous = {
        "latency_s": _latency_summary(sync_latencies),
        "reader_observable": {
            "lock_sections": len(sync_sections),
            "lock_ops": sum(section.tuple_ops for section in sync_sections),
            "lock_seconds": round(sum(s.wall_seconds for s in sync_sections), 9),
        },
    }

    return {
        "config": {
            "k": k,
            "m": m,
            "horizon": horizon,
            "txns_per_tick": txns_per_tick,
            "reads_per_tick": reads_per_tick,
        },
        "serving": serving,
        "synchronous": synchronous,
        "ordering": {
            "reader_downtime_zero_when_serving": serving["reader_observable"]["lock_sections"] == 0,
            "reader_downtime_nonzero_when_synchronous": (
                synchronous["reader_observable"]["lock_ops"] > 0
            ),
            "digests_identical_to_oracle": digest_mismatches == 0 and digest_matches == horizon,
            "staleness_bounded_by_k_at_refresh": (
                serving["staleness_ticks"]["post_refresh_max"] <= k
            ),
            "staleness_bounded_by_k_plus_m": serving["staleness_ticks"]["max"] <= k + m,
        },
    }


# ----------------------------------------------------------------------
# Concurrent isolation: real reader threads vs a background worker pool
# ----------------------------------------------------------------------


def run_concurrent_isolation(
    *,
    smoke: bool = False,
    k: int = 2,
    m: int = 7,
    readers: int = 4,
    reads_per_reader: int = 10_000,
) -> dict[str, object]:
    """N reader threads + a worker pool; every observed state must be real.

    With background workers, a propagate may lag its queueing tick and
    absorb later transactions, so the legitimate MV states are exactly
    ``V`` evaluated at the tick-boundary prefixes of the seeded schedule
    (transactions commit only inside ``tick``'s mutex hold).  An
    interpreted twin refreshing every tick enumerates that prefix-state
    digest set; any read outside it is a torn or mid-epoch leak.
    """
    from repro.core.policies import PeriodicRefresh

    horizon = 3 * m if smoke else 6 * m
    txns_per_tick = 2 if smoke else 4
    server, workload, _ = _build_server(None, smoke=smoke, k=k, m=m)
    oracle, oracle_workload, _ = _build_server(
        "interpreted", smoke=smoke, k=k, m=m, policy=PeriodicRefresh(m=1)
    )
    server.start_workers(2)
    known = {bag_digest(oracle.read("V"))}

    stop = threading.Event()
    latencies: dict[str, list[float]] = {}
    observed: dict[str, set[str]] = {}

    def _reader(name: str) -> None:
        mine_lat: list[float] = []
        mine_digests: set[str] = set()
        index = 0
        # Open-loop: keep reading (with a small think time) until the
        # writer finishes its epochs, up to a hard per-reader cap.
        while not stop.is_set() and index < reads_per_reader:
            started = time.perf_counter()
            if index % 5 == 4:
                # Every fifth read runs a pinned multi-read session: both
                # reads must come from the same immutable cut.
                with server.pin() as handle:
                    first = server.read_at(handle, "V")
                    second = server.read_at(handle, "V")
                    assert first is second
                    value = first
            else:
                value = server.read("V")
            mine_lat.append(time.perf_counter() - started)
            mine_digests.add(bag_digest(value))
            index += 1
            time.sleep(0.0005)
        latencies[name] = mine_lat
        observed[name] = mine_digests

    threads = [
        threading.Thread(name=f"reader-{index}", target=_reader, args=(f"reader-{index}",))
        for index in range(readers)
    ]
    for thread in threads:
        thread.start()
    for _ in range(horizon):
        txns = [workload.next_transaction(server.db) for _ in range(txns_per_tick)]
        server.tick(txns)
        oracle_txns = [
            oracle_workload.next_transaction(oracle.db) for _ in range(txns_per_tick)
        ]
        oracle.tick(oracle_txns)
        known.add(bag_digest(oracle.read("V")))
    server.wait_idle()
    stop.set()
    for thread in threads:
        thread.join()
    server.stop_workers()

    all_latencies = [sample for samples in latencies.values() for sample in samples]
    seen = set().union(*observed.values()) if observed else set()
    unknown = seen - known
    reader_sections = server.ledger.sections_for_thread("reader")
    return {
        "config": {
            "k": k,
            "m": m,
            "horizon": horizon,
            "readers": readers,
            "reads_per_reader": reads_per_reader,
        },
        "latency_s": _latency_summary(all_latencies),
        "reader_lock_sections": len(reader_sections),
        "distinct_states_observed": len(seen),
        "isolation_violations": len(unknown),
        "worker_actions": server.actions_run,
        "snapshots": server.registry.stats(),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_all(*, smoke: bool = False) -> dict[str, object]:
    comparison = run_serving_comparison(smoke=smoke)
    concurrent = run_concurrent_isolation(smoke=smoke)
    return {
        "benchmark": "repro.bench.serve_bench",
        "smoke": smoke,
        "experiments": {
            "E22_serving": comparison,
            "E22_concurrent_isolation": concurrent,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="shrunk workloads (for CI)")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON (default: BENCH_serve.json at the repo root)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = Path(__file__).resolve().parents[3] / "BENCH_serve.json"

    results = run_all(smoke=args.smoke)
    output.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")

    e22 = results["experiments"]["E22_serving"]
    concurrent = results["experiments"]["E22_concurrent_isolation"]
    print(f"wrote {output}")
    print(
        "E22 reader-observable downtime: serving "
        f"{e22['serving']['reader_observable']['lock_ops']} lock ops vs synchronous "
        f"{e22['synchronous']['reader_observable']['lock_ops']} "
        f"(zero when serving: {e22['ordering']['reader_downtime_zero_when_serving']})"
    )
    print(
        "E22 read latency: serving p50 "
        f"{e22['serving']['latency_s']['p50_s'] * 1e6:.1f}us / p99 "
        f"{e22['serving']['latency_s']['p99_s'] * 1e6:.1f}us over "
        f"{e22['serving']['latency_s']['reads']} reads; synchronous p99 "
        f"{e22['synchronous']['latency_s']['p99_s'] * 1e6:.1f}us"
    )
    print(
        "E22 staleness: max "
        f"{e22['serving']['staleness_ticks']['max']} ticks (bound {e22['config']['k'] + e22['config']['m']}), "
        f"post-refresh max {e22['serving']['staleness_ticks']['post_refresh_max']} "
        f"(bound k={e22['config']['k']}); digests identical to oracle: "
        f"{e22['ordering']['digests_identical_to_oracle']}"
    )
    print(
        "E22 concurrency: "
        f"{concurrent['latency_s']['reads']} threaded reads, "
        f"{concurrent['distinct_states_observed']} states observed, "
        f"{concurrent['isolation_violations']} isolation violations, "
        f"{concurrent['reader_lock_sections']} reader lock sections"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
