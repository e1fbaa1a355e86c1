#!/usr/bin/env python3
"""The pipeline benchmark: SQL text -> journal -> maintenance -> snapshot read.

Two ways to run it (both from the root of a checkout)::

    python3 bench/pipeline/run.py [--seed 96] [--workload NAME] [--repeats N]
    python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

The first is for people: every workload (or one), each measurement in a
fresh subprocess, workloads interleaved across repeats, every metric
printed by name with its unit, the noise report, and
``results/latest.json``.  The second is one measurement in this process
— what the first form spawns and what a driver calls directly; its last
line of output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).

Also: ``--selfcheck`` (every workload at 1/20 length with all checks,
metric names against ``BENCHMARK.json``, a sabotaged view must fail),
``--compare A.json B.json``, ``--markdown REPORT.json``.

Names, units, bounds and the run length come from ``BENCHMARK.json`` at
the root of the checkout; what each workload does is in ``workloads.py``
and which call belongs to which layer is in ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

from report import (
    compare,
    format_table,
    layer_markdown,
    noise_report,
    percentile,
    summarize,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: Engines of the grid, oracle first: speed-ups are against ``interpreted``.
ENGINES = ("interpreted", "compiled", "vectorized", "sqlite")
#: The workloads the engine-ladder decision rests on (re-run per engine).
GRID_WORKLOADS = ("backlog_refresh", "multiview_group")
GRID_LENGTH = 1 / 3
WARMUP_LENGTH = 0.1
MIN_PASSES = 3


def budget_spent(started: float, done: int, seconds: float, minimum: int) -> bool:
    """Whether another unit of work (pass or round) no longer fits ``seconds``.

    At least ``minimum`` units run whatever the budget; after that one
    more is started only if about half of it still fits, so the measured
    time lands on ``seconds`` rather than always beyond it.
    """
    elapsed = time.perf_counter() - started
    return done >= minimum and elapsed + 0.5 * elapsed / done > seconds


def bootstrap() -> None:
    """Make the program importable from the checkout; pin the default engine."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"{ROOT}/src/repro not found: run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    # The "default engine" is the program's, not the caller's shell's.
    os.environ.pop("REPRO_EXEC", None)
    from repro.analysis.diagnostics import AnalysisWarning

    # Install-time lint findings on the generated views are not results.
    warnings.simplefilter("ignore", AnalysisWarning)


# ----------------------------------------------------------------------
# One measurement, in this process
# ----------------------------------------------------------------------


def end_to_end(passes) -> dict[str, float]:
    """The end-to-end metrics of some passes (times at the reference machine speed).

    Percentiles are over the samples of all the passes together, so that
    a tail percentile has enough samples beyond it (one ``stream_durable``
    pass holds 56 scripts: three beyond its p95); what a pass has one of
    — set-up, rate, downtime — is the median over the passes.
    """
    txn_s = [seconds for result in passes for seconds in result.txn_s]
    maint_s = [seconds for result in passes for seconds in result.maint_s]
    read_s = [seconds for result in passes for seconds in result.read_s]
    median = statistics.median
    return {
        "setup_s": median(result.setup_s for result in passes),
        "txn_p50_ms": 1e3 * percentile(txn_s, 0.50),
        "txn_p95_ms": 1e3 * percentile(txn_s, 0.95),
        "txn_per_s": median(len(result.txn_s) / result.phase_s for result in passes),
        "maint_p50_ms": 1e3 * percentile(maint_s, 0.50),
        "downtime_total_ms": 1e3 * median(result.downtime_s for result in passes),
        "read_p50_ms": 1e3 * percentile(read_s, 0.50),
        "read_p99_ms": 1e3 * percentile(read_s, 0.99),
    }


def measure_end_to_end(workload, seed: int, seconds: float, *, length: float = 1.0) -> dict:
    """Untraced passes for ``seconds`` (at least three), summarised together.

    Each pass sets up its own warehouse from its own inputs (``seed``
    and the pass number), so ``setup_s`` is a median of several set-ups
    and every percentile is over several independent streams.
    ``seconds=0`` is the self-check's single cold pass: not a measurement.
    """
    from workloads import run_pass

    passes = []
    if seconds:
        # Imports, interpreter specialisation and sqlite's lazy set-up are
        # paid once per process, not once per warehouse: keep them out.
        run_pass(workload, seed, -1, length=WARMUP_LENGTH * length)
    started = time.perf_counter()
    while not budget_spent(started, len(passes), seconds, MIN_PASSES if seconds else 1):
        passes.append(run_pass(workload, seed, len(passes), length=length))
    metrics = end_to_end(passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "metrics": metrics,
        "attempted": sum(result.attempted for result in passes),
        "failed": sum(result.failed for result in passes),
        "detail": {
            "passes": len(passes),
            "per_pass": [end_to_end([result]) for result in passes],
            "speed_factor_per_pass": [result.speed_factor for result in passes],
            "samples_per_pass": {
                "txn": len(passes[0].txn_s),
                "maint": len(passes[0].maint_s),
                "read": len(passes[0].read_s),
            },
        },
    }


def engine_grid(workload, seed: int, length: float) -> dict:
    """``workload`` at a third of its length under every engine.

    Returns the speed-ups against the interpreted oracle, the absolute
    medians, the sqlite cell's mirror-upkeep share (from one more,
    traced, sqlite pass), and the pass results for accounting.
    """
    from layers import Tracer
    from workloads import run_pass

    cells = {
        mode: run_pass(workload, seed, 0, length=GRID_LENGTH * length, exec_mode=mode)
        for mode in ENGINES
    }
    with Tracer(workload.clock) as tracer:
        traced = run_pass(
            workload, seed, 0, length=GRID_LENGTH * length, exec_mode="sqlite", tracer=tracer
        )
    mirror = tracer.totals()["storage.mirror_upkeep"]
    p50 = {
        mode: {
            "maint_p50_ms": 1e3 * percentile(cell.maint_s, 0.5),
            "txn_p50_ms": 1e3 * percentile(cell.txn_s, 0.5),
        }
        for mode, cell in cells.items()
    }
    metrics = {}
    for mode in ENGINES[1:]:
        for what in ("maint", "txn"):
            metrics[f"exec.{mode}.{what}_speedup"] = (
                p50["interpreted"][f"{what}_p50_ms"] / p50[mode][f"{what}_p50_ms"]
            )
    metrics["storage.mirror_upkeep_share"] = (
        None
        if mirror is None
        else 100 * traced.speed_factor * mirror.self_s / (traced.setup_s + traced.phase_s)
    )
    return {
        "metrics": metrics,
        "p50": p50,
        "results": [*cells.values(), traced],
        "digests_agree": all(cell.digests == cells["interpreted"].digests for cell in cells.values()),
    }


def layer_metrics(traced, tracer) -> tuple[dict[str, float | None], dict]:
    """Per-layer metrics of one traced pass, and the absolute layer table."""
    wall = traced.setup_s + traced.phase_s + traced.reopen_s
    factor = traced.speed_factor  # spans are as timed; the pass is at reference speed
    totals = tracer.totals()
    metrics: dict[str, float | None] = {}
    table = {}
    attributed = 0.0
    for name, layer in totals.items():
        if layer is None:
            metrics[f"{name}_share"] = None
            table[name] = {"self_ms": None, "share": None, "calls": None}
            continue
        share = 100 * factor * layer.self_s / wall
        attributed += share
        metrics[f"{name}_share"] = share
        table[name] = {"self_ms": 1e3 * factor * layer.self_s, "share": share, "calls": layer.calls}

    def calls(name: str) -> int | None:
        return None if totals[name] is None else totals[name].calls

    metrics["exec.evaluate_calls"] = calls("exec.evaluate")
    metrics["storage.apply_calls"] = calls("storage.apply")
    metrics["serve.publish_calls"] = calls("serve.publish")
    counters = traced.counters
    metrics["exec.tuple_ops"] = counters["tuples_out"]
    for name in ("plan_hits", "plan_misses", "memo_hits", "index_probes", "delta_cache_hits"):
        metrics[f"exec.{name}"] = counters[name]
    for name in ("partitions_touched", "partition_prunes", "partition_fallbacks"):
        metrics[f"core.{name}"] = counters[name]
    metrics["core.log_rows_max"] = traced.gauges["log_rows"]
    for name in ("snapshots_live", "retained_rows", "queue_depth"):
        metrics[f"serve.{name}_max"] = traced.gauges[name]
    journaled = calls("robustness.journal_begin")
    digests = calls("robustness.digest")
    metrics["robustness.digest_calls_per_op"] = (
        None if journaled is None or digests is None else (digests / journaled if journaled else 0.0)
    )
    metrics["robustness.checkpoint_bytes_per_txn"] = tracer.counts.get("checkpoint_bytes", 0) / len(
        traced.txn_s
    )
    metrics["robustness.journal_bytes"] = traced.file_bytes.get("journal", 0)
    metrics["trace.wall_ms"] = 1e3 * wall
    metrics["trace.probe_ms"] = 1e3 * traced.probe_s
    metrics["trace.unattributed_share"] = 100 - attributed
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, table


def measure_layers(workload, seed: int, seconds: float, *, length: float = 1.0) -> dict:
    """The traced run: per-layer shares, counts, overhead ratios, engine grid.

    Rounds of (untraced, traced, observed) passes over the *same* inputs
    fill ``seconds``; shares and ratios are medians over the rounds,
    counts come from the first.  The untraced pass is the base of both
    overhead ratios, so they compare like with like in one process.
    ``seconds=0`` is the self-check's single cold round.
    """
    from layers import Tracer
    from repro import obs
    from workloads import run_pass

    results = [run_pass(workload, seed, -1, length=WARMUP_LENGTH * length)] if seconds else []
    started = time.perf_counter()
    grid = None
    if workload.name in GRID_WORKLOADS:
        grid = engine_grid(workload, seed, length)
        results += grid["results"]
    rounds: list[dict[str, float | None]] = []
    table: dict = {}
    unresolved: list[str] = []
    while not budget_spent(started, len(rounds), seconds, 1):
        tracer = Tracer(workload.clock)
        arms = [("plain", nullcontext()), ("traced", tracer), ("observed", obs.observed())]
        # Alternate the order so that drift within a round (allocator and
        # cache warmth) does not always favour the same arm.
        if len(rounds) % 2:
            arms.reverse()
        done = {}
        for arm, context in arms:
            with context:
                done[arm] = run_pass(
                    workload, seed, 0, length=length, tracer=tracer if arm == "traced" else None
                )
        plain, traced, observed = done["plain"], done["traced"], done["observed"]
        results += [plain, traced, observed]
        metrics, round_table = layer_metrics(traced, tracer)
        metrics["trace.overhead_ratio"] = traced.phase_s / plain.phase_s
        metrics["obs.overhead_ratio"] = observed.phase_s / plain.phase_s
        if not rounds:
            table, unresolved = round_table, tracer.unresolved
        rounds.append(metrics)
    metrics = dict(rounds[0])
    for name, first in rounds[0].items():
        if isinstance(first, float):
            metrics[name] = statistics.median(r[name] for r in rounds)
    grid_names = [f"exec.{mode}.{what}_speedup" for mode in ENGINES[1:] for what in ("maint", "txn")]
    metrics.update(dict.fromkeys(grid_names, 0.0))
    failed = sum(result.failed for result in results)
    attempted = sum(result.attempted for result in results)
    if grid is not None:
        metrics.update(grid["metrics"])
        attempted += 1
        if not grid["digests_agree"]:
            failed += 1
            print("FAIL check failed: view digests differ between engines", file=sys.stderr)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "rounds": len(rounds),
            "layers": table,
            "unresolved": unresolved,
            "engine_grid_p50_ms": grid["p50"] if grid is not None else None,
        },
    }


def run_one(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, *, length: float = 1.0
) -> dict:
    """One measurement of one workload, checked against ``BENCHMARK.json``.

    Returns the driver's result object plus a ``detail`` entry.  A
    metric the spec does not declare (or a declared one that is
    missing) is an error here, not something to find out later.
    """
    from workloads import WORKLOADS

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measure = measure_layers if trace else measure_end_to_end
    measured = measure(WORKLOADS[name], seed, seconds, length=length)
    if set(measured["metrics"]) != set(declared):
        odd = sorted(set(measured["metrics"]) ^ set(declared))
        raise SystemExit(f"metrics measured and metrics declared in BENCHMARK.json differ: {odd}")
    return {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            metric: {"value": value, "unit": declared[metric]}
            for metric, value in measured["metrics"].items()
        },
        "detail": measured["detail"],
    }


# ----------------------------------------------------------------------
# The whole benchmark, one subprocess per measurement
# ----------------------------------------------------------------------


def fingerprint() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
    }


def spawn(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measurement in a fresh interpreter; its result object."""
    detail_path = RESULTS / f".detail-{os.getpid()}.json"
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--detail", str(detail_path),
    ]  # fmt: skip
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        # Exit code 1 with a result object is a failed output check: it
        # is reported (and fails the whole command) with the rest.
        if not detail_path.exists():
            raise SystemExit(f"{name}: measurement exited with code {done.returncode}, no result")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["detail"] = json.loads(detail_path.read_text())
    finally:
        detail_path.unlink(missing_ok=True)
    return result


def run_all(names: list[str], seed: int, seconds: float, repeats: int) -> dict:
    """Every workload ``repeats`` times (A B C, A B C, ...), then traced once."""
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    report = {
        "benchmark": "bench/pipeline",
        "machine": fingerprint(),
        "seed": seed,
        "run_seconds": seconds,
        "repeats": repeats,
        "sizes": {name: asdict(WORKLOADS[name].shape) for name in names},
        "workloads": {
            name: {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0} for name in names
        },
    }
    runs: dict[str, list[dict]] = {name: [] for name in names}
    # Interleaved, so that a slow minute of the machine lands on every
    # workload's spread instead of on one workload's median.
    for repeat in range(repeats):
        for name in names:
            print(f"[{repeat + 1}/{repeats}] {name} ...", file=sys.stderr, flush=True)
            runs[name].append(spawn(name, seed, seconds, trace=False))
    for name in names:
        print(f"[traced] {name} ...", file=sys.stderr, flush=True)
        entry = report["workloads"][name]
        traced = spawn(name, seed, seconds, trace=True)
        for metric in runs[name][0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs[name]]
            entry["end_to_end"][metric] = {
                "unit": runs[name][0]["metrics"][metric]["unit"],
                "values": values,
                **summarize(values),
            }
        entry["per_layer"] = traced["metrics"]
        entry["layers"] = traced["detail"]["layers"]
        entry["engine_grid_p50_ms"] = traced["detail"]["engine_grid_p50_ms"]
        entry["unresolved_targets"] = traced["detail"]["unresolved"]
        entry["passes_per_run"] = [run["detail"]["passes"] for run in runs[name]]
        entry["samples_per_pass"] = runs[name][0]["detail"]["samples_per_pass"]
        entry["attempted"] = traced["attempted"] + sum(run["attempted"] for run in runs[name])
        entry["failed"] = traced["failed"] + sum(run["failed"] for run in runs[name])
        entry["fail_share"] = entry["failed"] / entry["attempted"]
    return report


def print_report(report: dict, spec: dict) -> bool:
    """Every metric by name with its unit; True when nothing failed."""
    text, resolved = noise_report(report, spec)
    print(text)
    if report["repeats"] < 2:
        print("(one repeat: no spread; use --repeats N for the noise report)")
    elif not resolved:
        print("UNRESOLVED rows: spread wider than the bound; draw no verdict from them")
    ok = True
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: per-layer metrics (traced run) ==")
        rows = [(metric, m["unit"], m["value"]) for metric, m in entry["per_layer"].items()]
        print(format_table(rows, ("metric", "unit", "value")))
        if entry["engine_grid_p50_ms"]:
            rows = [(mode, p["maint_p50_ms"], p["txn_p50_ms"]) for mode, p in entry["engine_grid_p50_ms"].items()]
            print(format_table(rows, ("engine (1/3 length)", "maint_p50_ms", "txn_p50_ms")))
        print(
            f"fail_share {entry['fail_share']:.6f} ratio "
            f"({entry['failed']} failed of {entry['attempted']} operations and checks)"
        )
        ok = ok and entry["failed"] == 0 and not entry["unresolved_targets"]
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=96)
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload, interleaved")
    parser.add_argument("--trace", choices=("0", "1"), help="measure once in this process; print one JSON object")
    parser.add_argument("--detail", type=Path, help="with --trace: also write the run's detail here")
    parser.add_argument("--output", type=Path, default=RESULTS / "latest.json")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--markdown", type=Path, metavar="REPORT.json")
    args = parser.parse_args(argv)

    if args.markdown:
        print(layer_markdown(json.loads(args.markdown.read_text())))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        base, other = (json.loads(path.read_text()) for path in args.compare)
        text, fine = compare(base, other, spec)
        print(text)
        return 0 if fine else 1

    bootstrap()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; pick one of {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.selfcheck:
        from selfcheck import selfcheck

        return selfcheck(spec, run_one)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_one(spec, args.workload, args.seed, seconds, args.trace == "1")
        detail = result.pop("detail")
        if args.detail is not None:
            args.detail.write_text(json.dumps(detail))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    report = run_all(names, args.seed, seconds, args.repeats)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    ok = print_report(report, spec)
    print(f"\nwrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
