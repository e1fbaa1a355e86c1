"""E22 — online serving: snapshot reads vs synchronous refresh-then-read.

The Section 5.3 downtime claim, restated for a serving system: with
Policy 2 running behind snapshot publication, the exclusive lock refresh
takes on ``MV`` is never on the read path, so **reader-observable**
downtime is exactly zero — proven by lock-section thread attribution,
not wall-clock overlap — while the synchronous ``read_fresh`` arm (the
pre-snapshot serving model) acquires it on every read.  In exchange the
served view is stale by at most ``k`` ticks at each partial refresh and
``k + m`` overall, and every served read digests bit-identically to an
interpreted-oracle twin fed the byte-identical seeded schedule.

Paper claims reproduced:

* Reader-observable exclusive-lock downtime: zero when serving from
  snapshots, nonzero on the synchronous arm.
* Staleness bounded by the configured ``(k, m)``: at most ``k`` at each
  partial refresh, at most ``k + m`` between refreshes.
* Snapshot reads are bit-identical to the interpreted oracle, including
  under real reader/worker concurrency (isolation violations = 0).
* p99 read latency within ``SLO_TOLERANCE`` × ``P99_READ_SLO_S``.
"""

import threading
import time

from benchmarks.common import ExperimentResult, write_report
from repro import obs
from repro.core.ops import OP_KINDS
from repro.core.policies import PeriodicRefresh
from repro.robustness.journal import bag_digest
from repro.serve import ServeConfig, ViewServer
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

#: The p99 snapshot-read SLO.  It carries orders of magnitude of headroom
#: over a quiet run's p99 so shared runners never fail it on scheduler
#: jitter; the correctness checks carry none.
P99_READ_SLO_S = 0.005
#: Headroom over the SLO (CI runners are noisy).
SLO_TOLERANCE = 1.2


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def _latency_summary(samples: list[float]) -> dict[str, float]:
    return {
        "reads": len(samples),
        "p50_s": round(percentile(samples, 0.50), 9),
        "p99_s": round(percentile(samples, 0.99), 9),
    }


def _build_server(exec_mode: str | None, *, smoke: bool, k: int, m: int, policy=None):
    config = RetailConfig(
        customers=60 if smoke else 120,
        initial_sales=300 if smoke else 1200,
        txn_inserts=6 if smoke else 10,
        seed=96,
    )
    workload = RetailWorkload(config)
    db = Database(exec_mode=exec_mode) if exec_mode is not None else Database()
    workload.setup_database(db)
    server = ViewServer(ServeConfig(k=k, m=m, policy=policy), manager=ViewManager(db))
    server.define_view("V", VIEW_SQL, scenario="combined")
    return server, workload


def _reader_observable(server) -> dict[str, int]:
    sections = server.ledger.sections_for_thread("reader")
    return {
        "lock_sections": len(sections),
        "lock_ops": sum(section.tuple_ops for section in sections),
    }


def run_serving_comparison(*, smoke: bool = False, k: int = 2, m: int = 7, reads_per_tick: int = 16):
    """Policy-2 serving vs the synchronous read-fresh path, oracle-checked.

    Both arms and the interpreted oracle replay the identical seeded
    schedule, so every comparison below is digest-for-digest
    deterministic; only the wall-clock latency numbers vary run to run.
    """
    horizon = 3 * m if smoke else 6 * m
    txns_per_tick = 2 if smoke else 4

    server, workload = _build_server(None, smoke=smoke, k=k, m=m)
    oracle, oracle_workload = _build_server("interpreted", smoke=smoke, k=k, m=m)

    latencies: list[float] = []
    staleness_samples: list[int] = []
    post_refresh_staleness: list[int] = []
    digest_matches = digest_mismatches = 0

    with obs.observed():
        for _ in range(horizon):
            txns = [workload.next_transaction(server.db) for _ in range(txns_per_tick)]
            oracle_txns = [
                oracle_workload.next_transaction(oracle.db) for _ in range(txns_per_tick)
            ]
            ran = server.tick(txns)
            oracle.tick(oracle_txns)
            for _ in range(reads_per_tick):
                started = time.perf_counter()
                server.read("V")
                latencies.append(time.perf_counter() - started)
                staleness_samples.append(server.staleness_ticks("V"))
            if bag_digest(server.read("V")) == bag_digest(oracle.read("V")):
                digest_matches += 1
            else:
                digest_mismatches += 1
            if any(OP_KINDS[action][1] for _, action in ran):  # an op that applies to MV ran
                post_refresh_staleness.append(server.staleness_ticks("V"))

    serving = {
        "latency_s": _latency_summary(latencies),
        "staleness_ticks": {
            "max": max(staleness_samples, default=0),
            "post_refresh_max": max(post_refresh_staleness, default=0),
            "bound_post_refresh": k,
            "bound_overall": k + m,
        },
        "digests": {"matches": digest_matches, "mismatches": digest_mismatches},
        "reader_observable": _reader_observable(server),
    }

    # Synchronous arm: a dedicated reader thread calls read_fresh once per
    # tick — refresh-under-lock on the reader's own thread, the pre-MVCC
    # serving model.  Joined per tick, so the run stays deterministic.
    sync_server, sync_workload = _build_server(None, smoke=smoke, k=k, m=m)
    sync_latencies: list[float] = []

    def _sync_read() -> None:
        started = time.perf_counter()
        sync_server.read_fresh("V")
        sync_latencies.append(time.perf_counter() - started)

    for _ in range(horizon):
        sync_server.tick([sync_workload.next_transaction(sync_server.db) for _ in range(txns_per_tick)])
        reader = threading.Thread(name="reader-sync", target=_sync_read)
        reader.start()
        reader.join()
    synchronous = {
        "latency_s": _latency_summary(sync_latencies),
        "reader_observable": _reader_observable(sync_server),
    }

    return {
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


def run_concurrent_isolation(
    *, smoke: bool = False, k: int = 2, m: int = 7, readers: int = 4, reads_per_reader: int = 10_000
):
    """N reader threads + a worker pool; every observed state must be real.

    With background workers, a propagate may lag its queueing tick and
    absorb later transactions, so the legitimate MV states are exactly
    ``V`` evaluated at the tick-boundary prefixes of the seeded schedule
    (transactions commit only inside ``tick``'s mutex hold).  An
    interpreted twin refreshing every tick enumerates that prefix-state
    digest set; any read outside it is a torn or mid-epoch leak.
    """
    horizon = 3 * m if smoke else 6 * m
    txns_per_tick = 2 if smoke else 4
    server, workload = _build_server(None, smoke=smoke, k=k, m=m)
    oracle, oracle_workload = _build_server(
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
        server.tick([workload.next_transaction(server.db) for _ in range(txns_per_tick)])
        oracle.tick([oracle_workload.next_transaction(oracle.db) for _ in range(txns_per_tick)])
        known.add(bag_digest(oracle.read("V")))
    server.wait_idle()
    stop.set()
    for thread in threads:
        thread.join()
    server.stop_workers()

    seen = set().union(*observed.values()) if observed else set()
    return {
        "latency_s": _latency_summary([sample for samples in latencies.values() for sample in samples]),
        "reader_lock_sections": len(server.ledger.sections_for_thread("reader")),
        "distinct_states_observed": len(seen),
        "isolation_violations": len(seen - known),
    }


def run_experiment():
    serving = run_serving_comparison(smoke=False, k=2, m=7)
    concurrent = run_concurrent_isolation(smoke=True, k=2, m=7)
    return serving, concurrent


def test_e22_serving(benchmark):
    serving, concurrent = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    result = ExperimentResult(
        "E22", "online serving: snapshot reads vs synchronous, Policy 2 at (k=2, m=7)"
    )
    result.add(
        arm="serving",
        reader_lock_sections=serving["serving"]["reader_observable"]["lock_sections"],
        reader_lock_ops=serving["serving"]["reader_observable"]["lock_ops"],
        p50_read_latency_s=serving["serving"]["latency_s"]["p50_s"],
        p99_read_latency_s=serving["serving"]["latency_s"]["p99_s"],
        max_staleness_ticks=serving["serving"]["staleness_ticks"]["max"],
        post_refresh_staleness=serving["serving"]["staleness_ticks"]["post_refresh_max"],
        digest_mismatches=serving["serving"]["digests"]["mismatches"],
    )
    result.add(
        arm="synchronous",
        reader_lock_sections=serving["synchronous"]["reader_observable"]["lock_sections"],
        reader_lock_ops=serving["synchronous"]["reader_observable"]["lock_ops"],
        p99_read_latency_s=serving["synchronous"]["latency_s"]["p99_s"],
    )
    # How many reads the reader threads got in, and how many states they
    # saw, depend on thread scheduling: asserted below, not reported.
    result.add(
        arm="concurrent",
        isolation_violations=concurrent["isolation_violations"],
        reader_lock_sections=concurrent["reader_lock_sections"],
    )
    write_report(result)

    # Reader-observable downtime: zero when serving, nonzero synchronous.
    assert serving["serving"]["reader_observable"]["lock_sections"] == 0
    assert serving["serving"]["reader_observable"]["lock_ops"] == 0
    assert serving["synchronous"]["reader_observable"]["lock_sections"] > 0
    assert serving["synchronous"]["reader_observable"]["lock_ops"] > 0

    # Correctness: every served read digested identically to the oracle.
    assert serving["serving"]["digests"]["mismatches"] == 0
    assert serving["serving"]["digests"]["matches"] > 0

    # Staleness stays within Policy 2's bounds, in both forms.
    staleness = serving["serving"]["staleness_ticks"]
    assert staleness["post_refresh_max"] <= staleness["bound_post_refresh"]
    assert staleness["max"] <= staleness["bound_overall"]
    for flag, value in serving["ordering"].items():
        assert value, flag

    # Latency: reported, and within the SLO's headroom.
    latency = serving["serving"]["latency_s"]
    assert latency["reads"] > 0
    assert latency["p99_s"] >= latency["p50_s"]
    assert latency["p99_s"] <= SLO_TOLERANCE * P99_READ_SLO_S, latency

    # Under real concurrency: no reader saw a state outside the
    # legitimate prefix-state set, and none acquired an exclusive lock.
    assert concurrent["isolation_violations"] == 0
    assert concurrent["reader_lock_sections"] == 0
    assert concurrent["latency_s"]["reads"] > 0
    assert concurrent["distinct_states_observed"] >= 1
