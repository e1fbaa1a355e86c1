"""Trace rendering: ``python -m repro trace`` and friends.

Renders a trace file (or a live :class:`~repro.obs.tracer.Tracer`) as an
indented span tree with durations, absorbed tuple-ops, and the
structured attributes that matter for reading a maintenance epoch::

    group_epoch views=16 ........................ 12.41ms  9120 ops
    ├─ delta_compute view=V0 ....................  2.03ms  570 ops
    ├─ refresh view=V0 scenario=BL ..............  0.31ms  38 ops
    ...
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

__all__ = ["render_span", "render_trace", "render_trace_file", "main"]

#: Attributes hidden from the one-line rendering (too noisy inline).
_HIDDEN = frozenset({"tuple_ops"})


def _format_attrs(attrs: dict[str, Any]) -> str:
    parts = []
    for key in sorted(attrs):
        if key in _HIDDEN:
            continue
        value = attrs[key]
        if isinstance(value, float):
            value = f"{value:g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _format_cost(span: dict[str, Any]) -> str:
    duration_ms = span.get("duration_s", 0.0) * 1000.0
    ops = span.get("attrs", {}).get("tuple_ops")
    cost = f"{duration_ms:8.3f}ms"
    if ops is not None:
        cost += f"  {ops} ops"
    return cost


def render_span(span: dict[str, Any], *, prefix: str = "", is_last: bool = True, is_root: bool = True) -> list[str]:
    """Render one span dict (the trace-file format) and its subtree."""
    attrs = _format_attrs(span.get("attrs", {}))
    label = span["name"] + (f" {attrs}" if attrs else "")
    connector = "" if is_root else ("└─ " if is_last else "├─ ")
    line = f"{prefix}{connector}{label}"
    pad = max(1, 54 - len(line))
    lines = [f"{line} {'.' * pad} {_format_cost(span)}"]
    children = span.get("children", [])
    child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(children):
        lines.extend(
            render_span(
                child,
                prefix=child_prefix,
                is_last=index == len(children) - 1,
                is_root=False,
            )
        )
    return lines


def render_trace(trace: dict[str, Any]) -> str:
    """Render a whole trace document (``{"spans": [...]}``)."""
    spans = trace.get("spans", [])
    if not spans:
        return "(empty trace)"
    lines: list[str] = []
    for span in spans:
        lines.extend(render_span(span))
    return "\n".join(lines)


def render_trace_file(path: str | Path) -> str:
    document = json.loads(Path(path).read_text())
    return render_trace(document)


def _demo_trace() -> dict[str, Any]:
    """A real traced group-refresh epoch over a tiny shared workload."""
    from repro import obs
    from repro.warehouse import ViewManager

    with obs.observed() as observability:
        manager = ViewManager()
        manager.create_table("sales", ["custId", "itemNo", "quantity"])
        manager.load("sales", [(c, i, 1) for c in range(4) for i in range(3)])
        for index in range(3):
            manager.define_view(
                f"V{index}",
                f"SELECT custId, itemNo FROM sales WHERE quantity != {index + 10}",
                scenario="combined" if index % 2 else "base_log",
            )
        manager.transaction().insert("sales", [(9, 9, 1), (8, 8, 1)]).run()
        manager.refresh_group()
        return observability.tracer.to_dict()


def main(argv: list[str] | None = None) -> int:
    """``python -m repro trace [FILE.json | --demo] [--json]``"""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Render a repro trace file as a nested span tree.",
    )
    parser.add_argument("file", nargs="?", help="trace JSON written by Tracer.write()")
    parser.add_argument(
        "--demo",
        action="store_true",
        help="trace a small group-refresh epoch in-process and render it",
    )
    parser.add_argument("--json", action="store_true", help="emit the raw trace JSON instead")
    args = parser.parse_args(argv)
    if args.demo:
        document = _demo_trace()
    elif args.file:
        document = json.loads(Path(args.file).read_text())
    else:
        parser.error("pass a trace file or --demo")
        return 2
    try:
        if args.json:
            print(json.dumps(document, indent=2))
        else:
            print(render_trace(document))
    except BrokenPipeError:  # e.g. `python -m repro trace t.json | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
