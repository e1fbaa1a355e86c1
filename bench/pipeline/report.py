"""Statistics and tables for the pipeline benchmark's reports.

Everything here works on the plain dicts ``run.py`` writes to
``results/*.json``; nothing imports the program under test.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = [
    "compare",
    "format_table",
    "layer_markdown",
    "noise_report",
    "percentile",
    "summarize",
    "worse_by",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest rank."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, min, max and interquartile range of repeated measurements."""
    summary = {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": 0.0,
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["iqr"] = q3 - q1
    return summary


def spread(summary: dict[str, float]) -> float:
    """Interquartile range as a share of the median."""
    return summary["iqr"] / summary["median"] if summary["median"] else 0.0


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if better == "lower" else -change


def format_table(rows: Sequence[Sequence[object]], header: Sequence[str]) -> str:
    """A plain-text table; floats are shown with four significant digits."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return "-" if value is None else str(value)

    table = [list(header)] + [[cell(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = ["  ".join(text.ljust(width) for text, width in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def noise_report(report: dict, spec: dict) -> tuple[str, bool]:
    """Per workload x end-to-end metric: median / min / max / IQR over the
    repeats, and whether the spread stays inside the metric's bound.

    A metric whose spread exceeds its bound is flagged *unresolved*: the
    benchmark cannot tell a change of that size from noise on this run,
    so no verdict may be drawn from it.  Returns the text and whether
    every metric resolved.
    """
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    rows = []
    resolved = True
    for workload, entry in report["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            share = spread(metric)
            ok = share <= bounds[name]["bound"]
            resolved = resolved and ok
            rows.append(
                (
                    workload,
                    name,
                    metric["unit"],
                    metric["median"],
                    metric["min"],
                    metric["max"],
                    f"{share:.1%}",
                    f"{bounds[name]['bound']:.0%}",
                    "ok" if ok else "UNRESOLVED",
                )
            )
    header = ("workload", "metric", "unit", "median", "min", "max", "iqr/med", "bound", "spread")
    return format_table(rows, header), resolved


#: Counts that must repeat exactly between two runs of the same inputs;
#: ``multiview_group`` is exempt (its delta evaluations run on pool threads).
EXACT_COUNTS = (
    "exec.tuple_ops",
    "exec.plan_hits",
    "exec.plan_misses",
    "exec.memo_hits",
    "exec.index_probes",
    "exec.delta_cache_hits",
    "exec.evaluate_calls",
    "storage.apply_calls",
)
THREADED_WORKLOADS = ("multiview_group",)


def compare(base: dict, other: dict, spec: dict) -> tuple[str, bool]:
    """``base`` vs ``other`` (two ``results/*.json`` reports).

    One row per workload x end-to-end metric: both medians, the ratio
    ``other / base``, the bound, and a verdict — *better*, *worse*,
    *within-bound*, or *unresolved* when either side's own spread is
    wider than the bound.  Exact-repeat counts are compared for
    equality.  Returns the text and whether nothing got worse.
    """
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    rows = []
    fine = True
    for workload, base_entry in base["workloads"].items():
        other_entry = other["workloads"].get(workload)
        if other_entry is None:
            continue
        for name, a in base_entry["end_to_end"].items():
            b = other_entry["end_to_end"].get(name)
            if b is None:
                continue
            bound = bounds[name]["bound"]
            change = worse_by(a["median"], b["median"], bounds[name]["better"])
            if max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "WORSE"
                fine = False
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "within-bound"
            rows.append(
                (
                    workload,
                    name,
                    a["unit"],
                    a["median"],
                    b["median"],
                    f"{b['median'] / a['median']:.3f}x of {a['median']:.4g}",
                    f"{bound:.0%}",
                    verdict,
                )
            )
    header = ("workload", "metric", "unit", "base", "other", "other/base", "bound", "verdict")
    text = format_table(rows, header)
    count_rows = []
    for workload, base_entry in base["workloads"].items():
        other_entry = other["workloads"].get(workload, {})
        if workload in THREADED_WORKLOADS or base.get("seed") != other.get("seed"):
            continue
        for name in EXACT_COUNTS:
            a = base_entry.get("per_layer", {}).get(name)
            b = other_entry.get("per_layer", {}).get(name)
            if a is None or b is None:
                continue
            same = a["value"] == b["value"]
            fine = fine and same
            count_rows.append((workload, name, a["value"], b["value"], "equal" if same else "DIFFERENT"))
    if count_rows:
        text += "\n\nexact-repeat counts\n"
        text += format_table(count_rows, ("workload", "count", "base", "other", "verdict"))
    return text, fine


def layer_markdown(report: dict) -> str:
    """The "where a millisecond goes" tables of a report, as markdown."""
    parts = []
    for workload, entry in report["workloads"].items():
        layers = entry.get("layers")
        if not layers:
            continue
        wall = entry["per_layer"]["trace.wall_ms"]["value"]
        parts.append(f"#### `{workload}` — traced wall {wall:.0f} ms\n")
        parts.append("| layer | self ms | share | calls |")
        parts.append("|---|---:|---:|---:|")
        ranked = sorted(layers.items(), key=lambda item: -(item[1]["self_ms"] or 0.0))
        for name, layer in ranked:
            if not layer["calls"]:
                continue
            parts.append(
                f"| `{name}` | {layer['self_ms']:.1f} | {layer['share']:.1f} % | {layer['calls']} |"
            )
        unattributed = entry["per_layer"]["trace.unattributed_share"]["value"]
        parts.append(f"| *(not under any span)* | {wall * unattributed / 100:.1f} | {unattributed:.1f} % | |")
        parts.append("")
    return "\n".join(parts)
