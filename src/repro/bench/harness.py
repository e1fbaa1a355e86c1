"""The report table every experiment (``benchmarks/test_e*.py``) writes.

Experiments report tuple-operation counts — deterministic, so the
comparative *shape* of results is reproducible across machines — and,
where the claim is about time, wall-clock seconds on the machine that
ran them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Accumulates the rows of one experiment's report table."""

    experiment: str
    description: str = ""
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add(self, **cells: Any) -> None:
        self.rows.append(cells)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def report(self) -> str:
        from repro.bench.report import format_table

        header = f"== {self.experiment} ==" + (f"  {self.description}" if self.description else "")
        return header + "\n" + format_table(self.rows)
