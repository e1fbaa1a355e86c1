"""Architecture gates: names and signatures a change deleted stay deleted.

One table, one row per deleted surface: the forbidden pattern (a regular
expression matched line by line), the paths it applies to, the change
that removed it (named as in ``CHANGES.md``), and what to do instead.
Each row also carries a line of the code it removed, so a pattern that
no longer matches what it was written against fails here instead of
passing vacuously.

Run alone with ``PYTHONPATH=src python -m pytest tests/test_architecture.py -q``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EVERYWHERE = ("src", "tests", "benchmarks", "examples")
ONE_REFRESH_PATH = "one refresh path: a compute step evaluates where OpStep.locked says"


@dataclass(frozen=True)
class Gate:
    name: str
    pattern: str
    paths: tuple[str, ...]
    removed_by: str
    message: str
    #: A line of the removed code the pattern must match.
    removed_line: str


GATES = (
    Gate(
        "scenario-run-deltas",
        r"def run\(self, kind[^)]*\bdeltas\b|\.run\([^)]*\bdeltas=",
        EVERYWHERE,
        ONE_REFRESH_PATH,
        "Scenario.run has one path: its compute step evaluates the bags where "
        "OpStep.locked says, and a group epoch lends a leader's bags through run(kind, lend)",
        "    def run(self, kind: str | MaintenanceOp, deltas: tuple[Bag, Bag] | None = None) -> None:",
    ),
    Gate(
        "epoch-binding",
        r"\bepoch_binding\b",
        EVERYWHERE,
        ONE_REFRESH_PATH,
        "a partitioned compute step evaluates the pruned pair under epoch_keys(); "
        "apply steps patch with the computed bags",
        "        binding = self.epoch_binding(binding)",
    ),
    Gate(
        "apply-via-binding",
        r"def (refresh_log|execute_plan|apply_differentials|_apply_slice|_agg_patch)\([^)]*\bbinding\b"
        r"|\.via\([^)]*\bbinding=",
        ("src",),
        ONE_REFRESH_PATH,
        "an apply step's via takes the computed (delete, insert) bags, never a binding",
        "                step.via(*pair, binding=binding)",
    ),
)


def _lines(paths: tuple[str, ...]):
    this = Path(__file__).resolve()
    for top in paths:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == this:
                continue
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
                yield path.relative_to(ROOT), number, line


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_deleted_surface_stays_deleted(gate):
    pattern = re.compile(gate.pattern)
    hits = [f"{path}:{number}: {line.strip()}" for path, number, line in _lines(gate.paths) if pattern.search(line)]
    assert not hits, f"{gate.name} (removed by {gate.removed_by!r}) is back: {gate.message}\n" + "\n".join(hits)


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_gate_matches_what_it_removed(gate):
    assert re.search(gate.pattern, gate.removed_line), gate.name
