"""Structured diagnostics for the bag-algebra static analyzer.

Every finding the analyzer produces is a :class:`Diagnostic` carrying a
stable ``RVM###`` code, a severity, a human-readable message, the *path*
of the offending node inside the analyzed expression (``Q.left.child``
style), and — when the expression came from the SQL front end — the
character offset into the source text.

Code ranges:

* ``RVM0xx`` — front-end (parse) problems surfaced through the linter;
* ``RVM1xx`` — schema/typing problems (Section 2.1 well-formedness);
* ``RVM2xx`` — derived-property and minimality findings (Lemmas 2–4);
* ``RVM3xx`` — state-bug findings (Section 1.2 / Lemma 1 duality);
* ``RVM4xx`` — robustness/durability findings (crash safety of the
  maintenance state; see :mod:`repro.robustness`);
* ``RVM5xx`` — group-refresh configuration findings;
* ``RVM6xx`` — concurrency/effect findings (Section 5.3 lock discipline;
  see :mod:`repro.analysis.concurrency_check`);
* ``RVM7xx`` — partitioned-maintenance findings (pruning fallbacks and
  partition-layout drift; see :mod:`repro.analysis.partitioning`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import AnalysisError

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "AnalysisWarning",
    "CODES",
]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


#: Registry of every diagnostic code the analyzer can emit.  RVM603 and
#: RVM604 (group-schedule checks) and RVM605 (journal payload digest
#: coverage) are retired and must not be reused.
CODES: dict[str, str] = {
    "RVM001": "SQL statement does not parse",
    "RVM002": "statement kind not allowed here",
    "RVM101": "unknown attribute reference",
    "RVM102": "ambiguous attribute reference",
    "RVM103": "union/monus/min operands have different arities",
    "RVM104": "union/monus/min operands have different attribute names",
    "RVM105": "projection position out of range",
    "RVM106": "duplicate attribute names in result schema",
    "RVM107": "unknown table reference",
    "RVM108": "table reference schema disagrees with catalog",
    "RVM109": "malformed expression node",
    "RVM201": "substitution not provably weakly minimal; min-guard retained",
    "RVM202": "min-guard provably redundant; simplified per Lemma 2",
    "RVM203": "subexpression provably empty",
    "RVM204": "derived properties",
    "RVM301": "state bug: log substitution has pre-update polarity",
    "RVM302": "state bug: refresh pair disagrees with PAST-state oracle",
    "RVM401": "scenario installed on persistent database without journaling",
    "RVM501": "view shares subplans with a shared-log view but is maintained outside the shared log",
    "RVM601": "table read during refresh outside any lock section",
    "RVM602": "write effect not covered by exclusive lock",
    "RVM701": "partition-key drift: maintenance plan falls back to whole-table scans",
    "RVM702": "same-domain tables have drifted partition layouts (not co-partitioned)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    #: Dotted path of the offending node inside the analyzed expression
    #: (root is ``Q``), or a symbolic location such as a table name.
    path: str | None = None
    #: Character offset into the originating SQL source, when known.
    position: int | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def format(self) -> str:
        where = []
        if self.path:
            where.append(f"at {self.path}")
        if self.position is not None:
            where.append(f"offset {self.position}")
        location = f" [{', '.join(where)}]" if where else ""
        return f"{self.code} {self.severity.label()}{location}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready form (``repro lint --json``, CI gates)."""
        return {
            "code": self.code,
            "severity": self.severity.label(),
            "message": self.message,
            "path": self.path,
            "position": self.position,
        }

    def __str__(self) -> str:
        return self.format()


class AnalysisWarning(UserWarning):
    """Category used when install-time lint runs in warn-by-default mode."""


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics with convenience accessors.

    Identical ``(code, path, message)`` findings are reported once per
    report: re-traversals of shared subtrees (plan caches, repeated
    property queries) collapse onto the first occurrence instead of
    repeating it per visit.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def _seen(self, diagnostic: Diagnostic) -> bool:
        key = (diagnostic.code, diagnostic.path, diagnostic.message)
        return any((d.code, d.path, d.message) == key for d in self.diagnostics)

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        *,
        path: str | None = None,
        position: int | None = None,
    ) -> Diagnostic:
        diagnostic = Diagnostic(code, severity, message, path=path, position=position)
        if not self._seen(diagnostic):
            self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: AnalysisReport) -> AnalysisReport:
        for diagnostic in other.diagnostics:
            if not self._seen(diagnostic):
                self.diagnostics.append(diagnostic)
        return self

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.INFO)

    def ok(self) -> bool:
        """True when the report carries no errors and no warnings."""
        return not self.errors and not self.warnings

    def raise_if_failed(self, *, context: str = "analysis") -> None:
        """Raise :class:`~repro.errors.AnalysisError` on errors/warnings."""
        flagged = self.errors + self.warnings
        if flagged:
            summary = "; ".join(d.format() for d in flagged)
            raise AnalysisError(f"{context} failed: {summary}", diagnostics=flagged)

    def format(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.format() for d in self.diagnostics)

    def to_dict(self) -> dict:
        """JSON-ready form: diagnostics plus severity tallies."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
        }

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)
