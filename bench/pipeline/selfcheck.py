"""``run.py --selfcheck``: the benchmark checking itself, in under 20 s.

* every workload at 1/20 length, untraced and traced, all output checks
  on, no operation or check failing;
* every metric ``BENCHMARK.json`` declares is emitted and every metric
  emitted is declared (``run_one`` enforces both directions);
* every target of the layer table resolves on the current tree (no
  ``null`` layer), and the layer self-times account for the traced wall;
* a view table with one corrupted row makes a run *fail* — the output
  checks are live, not decorative.
"""

from __future__ import annotations

import sys
import time

LENGTH = 1 / 20
SEED = 96


def _corrupt_one_row(target) -> None:
    """Change one row of a materialised view behind the program's back."""
    from repro.algebra.bag import Bag

    db = target.manager.db
    table = target.manager.scenario("V").view.mv_table
    row = next(iter(db[table].support))
    forged = (*row[:-1], -1)
    db.set_table(table, db[table].patch(Bag([row]), Bag([forged])))


def selfcheck(spec: dict, run_one) -> int:
    """``run_one`` is ``run.run_one`` (passed in: ``run.py`` is ``__main__``)."""
    from workloads import WORKLOADS, run_pass

    started = time.perf_counter()
    problems: list[str] = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in WORKLOADS:
            problems.append(f"{name}: declared in BENCHMARK.json, not defined in workloads.py")
            continue
        for trace in (False, True):
            result = run_one(spec, name, SEED, 0, trace, length=LENGTH)
            label = f"{name} (trace {int(trace)})"
            if not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            missing = [m for m, v in result["metrics"].items() if v["value"] is None]
            if missing:
                problems.append(f"{label}: layers with unresolved targets: {missing}")
            if trace:
                left = result["metrics"]["trace.unattributed_share"]["value"]
                if not -10 <= left <= 10:
                    problems.append(f"{label}: layer self-times miss the traced wall by {left:.1f} %")
            print(f"ok  {label}: {result['attempted']} operations and checks", flush=True)
    undeclared = sorted(set(WORKLOADS) - {w["name"] for w in spec["workloads"]})
    if undeclared:
        problems.append(f"defined in workloads.py, not declared in BENCHMARK.json: {undeclared}")

    sabotaged = run_pass(WORKLOADS["stream_mem"], SEED, 0, length=LENGTH, before_checks=_corrupt_one_row)
    if sabotaged.failed == 0:
        problems.append("a corrupted view row went unnoticed by the output checks")
    else:
        print(f"ok  corrupted view row counted: {sabotaged.failed} of {sabotaged.attempted} failed")

    for problem in problems:
        print(f"SELFCHECK FAILED  {problem}", file=sys.stderr)
    print(f"selfcheck {'FAILED' if problems else 'passed'} in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0
