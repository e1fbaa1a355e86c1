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

* **Scheduler** (:class:`GroupScheduler`).  An epoch is one loop: each
  task runs its view's own ``refresh`` op, in registration order, on
  the calling thread — the op's compute step evaluated where its
  ``locked`` flag says, as for a single refresh.  The scheduler only
  *lends* bags: the first view of a key (its leader) evaluates them and
  leaves them in the epoch's dict, and every later view of that key
  reads them from it.  A view reads only external base tables (checked
  at definition), and no refresh writes one, so a follower's bags equal
  what its own evaluation would return, and the result state is
  bag-equal to refreshing every view one at a time
  (``docs/scheduler.md``).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass
from functools import partial

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.robustness.faults import fault_point

__all__ = ["GroupTask", "GroupScheduler"]

#: A compute step's evaluation: the view's delta bags.
Evaluate = Callable[[], "tuple[Bag, Bag]"]
#: What a task's refresh asks for its bags: the scheduler's lender.
Lend = Callable[[Evaluate], "tuple[Bag, Bag]"]


@dataclass
class GroupTask:
    """One view's refresh in an epoch.

    ``key`` is the value of everything the view's delta evaluation reads
    that can differ between views in one epoch (``None``: never shared).
    ``run(lend)`` runs the view's ``refresh`` op, its compute step asking
    ``lend`` for the bags (:meth:`~repro.core.scenarios.Scenario.run`).
    """

    name: str
    key: Hashable | None
    run: Callable[[Lend], None]


class GroupScheduler:
    """Runs a group of refresh tasks in order, lending each key's bags."""

    def __init__(self, *, counter: CostCounter | None = None) -> None:
        self.counter = counter

    def run(self, tasks: Sequence[GroupTask]) -> None:
        """Run every task in registration order; each distinct key is evaluated once.

        The tasks' keys were built before this epoch's first refresh, and
        no refresh writes what an evaluation reads, so the epoch's bags
        live in one dict for the length of the call.  Keys are hashed and
        compared here, before any view lock is taken: inside the loop a
        view only looks its leader up by position.
        """
        first: dict[Hashable, int] = {}
        leaders = [None if task.key is None else first.setdefault(task.key, index) for index, task in enumerate(tasks)]
        lent: dict[int, tuple[Bag, Bag]] = {}
        for task, leader in zip(tasks, leaders):
            task.run(partial(self._lend, lent, leader))

    def _lend(self, lent: dict[int, tuple[Bag, Bag]], leader: int | None, evaluate: Evaluate) -> tuple[Bag, Bag]:
        if leader is None:
            return evaluate()
        bags = lent.get(leader)
        if bags is not None:
            if self.counter is not None:
                self.counter.delta_cache_hits += 1
            obs.metric_inc("delta_cache_hits_total")
            return bags
        bags = evaluate()
        # The install seam: a crash here loses only this entry — a
        # follower never reads a torn pair.
        fault_point("crash-mid-delta-cache")
        lent[leader] = bags
        return bags
