"""Group refresh: cross-view delta sharing in one epoch.

Section 7 of the paper asks how refresh work can be made independent of
the number of installed views.  The shared sequenced log
(:mod:`repro.extensions.sharedlog`) answers the *transaction* half; this
module answers the *refresh* half for a whole group of views brought up
to date in one epoch:

* **Sharing by value.**  Each view's :class:`GroupTask` carries the key
  of what its delta evaluation reads: a shared-log view's pair (views
  with equal queries share one pair object, compared by identity) and
  its cursor; a per-view-log view's query and the bags of its ▼R/▲R
  tables, whatever those tables are called.  Base tables do not change
  inside an epoch, so equal keys mean equal ``(Del, Add)`` pairs: each
  distinct key is evaluated once, and every further view is a
  ``delta_cache_hits`` counter bump and a delta-proportional patch.

* **Scheduler** (:class:`GroupScheduler`).  A view reads only external
  base tables (checked at definition), and no apply writes one, so no
  task's apply changes anything another task's compute reads: an epoch
  is one phase.  The leaders' deltas are evaluated on the calling
  thread, in leader order, then every patch applies in registration
  order, so the result state is bag-equal to refreshing every view one
  at a time.  The evaluations are pure Python under the GIL: a thread
  pool ran them one after the other anyway and paid for the hand-offs
  (``docs/scheduler.md``).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.robustness.faults import fault_point

__all__ = ["GroupTask", "GroupScheduler"]


@dataclass
class GroupTask:
    """One view's refresh, split into a shareable compute and an apply.

    ``key`` is the value of everything ``compute`` reads that can differ
    between views in one epoch (``None``: never shared).  ``compute``
    evaluates the view's ``(delete, insert)`` delta bags reading the
    current state only; ``apply`` installs them (and any per-view
    bookkeeping) under the view's lock.  Plans a ``compute`` runs are
    compiled by whoever builds the task (at install or on first use).
    """

    name: str
    key: Hashable | None
    compute: Callable[[CostCounter | None], tuple[Bag, Bag]]
    apply: Callable[[tuple[Bag, Bag]], None]


class GroupScheduler:
    """Runs a group of refresh tasks: compute leaders, apply in order."""

    def __init__(self, *, counter: CostCounter | None = None) -> None:
        self.counter = counter

    def run(self, tasks: Sequence[GroupTask]) -> None:
        """Compute each distinct key's deltas once, then apply every task in order.

        The tasks' keys were built before this epoch's first apply, and no
        apply writes what a compute reads, so the epoch's deltas live in
        one dict for the length of the call.
        """
        leaders: list[GroupTask] = []
        claimed: set[Hashable] = set()
        for task in tasks:
            if task.key is None or task.key not in claimed:
                leaders.append(task)
                if task.key is not None:
                    claimed.add(task.key)

        results: dict[str, tuple[Bag, Bag]] = {}
        for task in leaders:
            with obs.span("delta_compute", view=task.name, counter=self.counter):
                results[task.name] = task.compute(self.counter)

        shared: dict[Hashable, tuple[Bag, Bag]] = {}
        for task in leaders:
            if task.key is not None:
                # The install seam: a crash here loses only a shared
                # entry — followers never read a torn pair.
                fault_point("crash-mid-delta-cache")
                shared[task.key] = results[task.name]

        # Applies run in registration order: the output is bag-equal to
        # refreshing each view in turn.
        for task in tasks:
            deltas = results.get(task.name)
            if deltas is None:
                deltas = shared[task.key]
                if self.counter is not None:
                    self.counter.delta_cache_hits += 1
                obs.metric_inc("delta_cache_hits_total")
            task.apply(deltas)
