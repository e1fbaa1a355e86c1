"""Extensions: the paper's Section 7 future-work items, implemented.

* :mod:`repro.extensions.sharedlog` — *"How should log information be
  stored so that the work done by makesafe_BL[T] is minimal, and
  independent of the number of views supported?"*  A single sequenced
  change log per base table, shared by all views via per-view cursors.
* :mod:`repro.extensions.scoped` — *"Are there algorithms to refresh
  only those parts of a view needed by a given query?"*  Query-scoped
  partial refresh: apply only the differential-table rows a selection
  predicate needs.
* :mod:`repro.extensions.concurrency` — *"What are the problems related
  to concurrency control in the presence of materialized views?"*  A
  reader/refresh blocking simulation quantifying how refresh critical
  sections delay concurrent view readers.
* :mod:`repro.extensions.aggregates` — the aggregation the paper sets
  aside as orthogonal (Example 1.1): a COUNT/SUM view is the combined
  scenario of its base query plus one locked step patching the grouped
  table from the differentials it applies.
"""

from repro.extensions.aggregates import AggregateScenario, AggregateSpec, AggregateView
from repro.extensions.concurrency import BlockingSimulation, ReaderStats
from repro.extensions.scoped import scoped_partial_refresh, scoped_query
from repro.extensions.sharedlog import SharedLog, SharedLogScenario

__all__ = [
    "SharedLog",
    "SharedLogScenario",
    "scoped_partial_refresh",
    "scoped_query",
    "BlockingSimulation",
    "ReaderStats",
    "AggregateSpec",
    "AggregateView",
    "AggregateScenario",
]
