"""Static analysis for bag-algebra expressions and maintenance plans.

Three pillars (see ``docs/analysis.md``):

* **schema checking** (:mod:`repro.analysis.schema_check`) — structured
  ``RVM1xx`` diagnostics with expression paths and SQL positions;
* **property derivation** (:mod:`repro.analysis.properties`) —
  duplicate-freeness, emptiness, per-table linearity, and the
  weak-minimality classifier behind the Lemma 2 simplification
  :math:`Q \\min \\mathrm{Del}(\\widehat{L},Q) \\to
  \\mathrm{Del}(\\widehat{L},Q)`;
* **state-bug detection** (:mod:`repro.analysis.statebug`) —
  ``RVM3xx`` findings for refresh machinery that mixes pre- and
  post-update state (Section 1.2);
* **concurrency effects** (:mod:`repro.analysis.effects` +
  :mod:`repro.analysis.concurrency_check`) — inferred read/write/lock
  footprints of the maintenance protocols checked against the Section
  5.3 lock discipline (``RVM6xx``), with a dynamic lockset sanitizer
  counterpart in :mod:`repro.obs.sanitizer`.

The :mod:`repro.analysis.lint` driver ties them together behind
``python -m repro lint``.
"""

from repro.analysis.concurrency_check import check_scenario, check_stack, demo_stack_report
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    AnalysisWarning,
    Diagnostic,
    Severity,
)
from repro.analysis.properties import (
    Minimality,
    always_empty,
    classify_substitution,
    degrees,
    duplicate_free,
    empty_when_empty,
    is_linear,
    redundant_min_guard,
    subsumed_by,
)
from repro.analysis.effects import EffectSet, OpEffects, Step, plan_effects, read_footprint
from repro.analysis.schema_check import check_expr
from repro.analysis.statebug import audit_refresh_pair, check_log_polarity

__all__ = [
    "EffectSet",
    "OpEffects",
    "Step",
    "plan_effects",
    "read_footprint",
    "check_scenario",
    "check_stack",
    "demo_stack_report",
    "CODES",
    "AnalysisReport",
    "AnalysisWarning",
    "Diagnostic",
    "Severity",
    "Minimality",
    "always_empty",
    "classify_substitution",
    "degrees",
    "duplicate_free",
    "empty_when_empty",
    "is_linear",
    "redundant_min_guard",
    "subsumed_by",
    "check_expr",
    "audit_refresh_pair",
    "check_log_polarity",
]
