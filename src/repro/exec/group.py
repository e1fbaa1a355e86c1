"""Group refresh: cross-view delta sharing and a parallel scheduler.

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
  is one phase.  The leaders' deltas may be evaluated concurrently
  on a thread pool (evaluation is read-only against immutable bags);
  patch application always runs sequentially in registration order, so
  the result state is bag-equal to refreshing every view one at a time
  — sequential execution remains the deterministic oracle, and
  parallelism only changes wall-clock time, never results.  The pool
  stands: one per worker count, its threads started when it is first
  needed and reused by every later epoch (:func:`_standing_pool`).
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr, Literal, MapProject, Select, TableRef
from repro.robustness.faults import fault_point

__all__ = [
    "view_fingerprints",
    "GroupTask",
    "GroupScheduler",
]


def view_fingerprints(expr: Expr) -> frozenset[Expr]:
    """The root and every operator subtree of ``expr``.

    Two views "overlap" when these sets intersect — they share at least
    one join/selection subplan (or the whole query), which is exactly
    when a group refresh could serve one view's delta work to the other.
    Trivial one-operator wrappers (e.g. the identity projection the SQL
    front-end places over every table reference) are excluded: sharing a
    bare table scan is not sharing a subplan.  A selection or a computed
    projection is never trivial: its predicate or terms are work of its own.
    """
    return frozenset(
        node
        for node in expr.walk()
        if node is expr
        or isinstance(node, (Select, MapProject))
        or any(not isinstance(child, (TableRef, Literal)) for child in node.children())
    )


_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _standing_pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, created on first use.

    Every worker is started at creation — a lazily grown executor may
    start one in a later epoch instead — so an epoch on an existing pool
    starts no thread.  The threads idle between epochs and are joined at
    interpreter exit.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="group-epoch")
            # Each warm-up job waits for all the others, so each holds its own thread.
            barrier = threading.Barrier(workers)
            wait([pool.submit(barrier.wait) for _ in range(workers)])
        return pool


@dataclass
class GroupTask:
    """One view's refresh, split into a shareable compute and an apply.

    ``key`` is the value of everything ``compute`` reads that can differ
    between views in one epoch (``None``: never shared).  ``compute``
    evaluates the view's ``(delete, insert)`` delta bags reading the
    current state only; ``apply`` installs them (and any per-view
    bookkeeping) under the view's lock.  Plans a ``compute`` runs are
    compiled by whoever builds the task (at install or on first use), so
    parallel computes never race the compiler.
    """

    name: str
    key: Hashable | None
    compute: Callable[[CostCounter | None], tuple[Bag, Bag]]
    apply: Callable[[tuple[Bag, Bag]], None]


class GroupScheduler:
    """Runs a group of refresh tasks: compute leaders, apply in order."""

    def __init__(
        self,
        *,
        counter: CostCounter | None = None,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> None:
        self.counter = counter
        self.parallel = parallel
        self.max_workers = max_workers

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
        if self.parallel and len(leaders) > 1:
            counters = [CostCounter() for _ in leaders]
            pool = _standing_pool(self.max_workers or max(2, (os.cpu_count() or 4) - 1))
            # Thread-local span stacks don't cross into pool workers:
            # hand each worker the caller's span as an explicit parent.
            parent = obs.current().tracer.active()

            def traced_compute(task: GroupTask, counter: CostCounter) -> tuple[Bag, Bag]:
                with obs.span("delta_compute", view=task.name, parent=parent, counter=counter):
                    return task.compute(counter)

            futures = [pool.submit(traced_compute, task, counter) for task, counter in zip(leaders, counters)]
            # Every compute ends before any result (or failure) is used.
            wait(futures)
            for task, future in zip(leaders, futures):
                results[task.name] = future.result()
            if self.counter is not None:
                for counter in counters:
                    self.counter.absorb(counter)
        else:
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

        # Applies are strictly sequential in registration order — this is
        # what makes the scheduler's output bag-equal to the sequential
        # oracle regardless of how the compute phase was parallelized.
        for task in tasks:
            deltas = results.get(task.name)
            if deltas is None:
                deltas = shared[task.key]
                if self.counter is not None:
                    self.counter.delta_cache_hits += 1
                obs.metric_inc("delta_cache_hits_total")
            task.apply(deltas)
