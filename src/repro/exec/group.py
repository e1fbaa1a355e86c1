"""Group refresh: cross-view delta sharing and a parallel scheduler.

Section 7 of the paper asks how refresh work can be made independent of
the number of installed views.  The shared sequenced log
(:mod:`repro.extensions.sharedlog`) answers the *transaction* half; this
module answers the *refresh* half for a whole group of views brought up
to date in one epoch:

* **Epoch-scoped delta cache** (:class:`EpochDeltaCache`).  During one
  ``refresh_group`` epoch, evaluated view deltas are keyed by
  (canonical subplan fingerprint, log-cursor range, base-table version
  stamps, log-content digests).  Views sharing the same joins and
  selections over the same log slice compute each ``(Del, Add)`` pair
  once; every further view is a ``delta_cache_hits`` counter bump and a
  delta-proportional patch.

* **Dependency-aware scheduler** (:class:`GroupScheduler`).  Views are
  batched so that no view's inputs are written by another view in the
  same batch (per their declared read/write sets — the same resources
  the :class:`~repro.storage.locks.LockLedger` serializes).  Within a
  batch the cache-leader deltas may be evaluated concurrently on a
  thread pool (evaluation is read-only against immutable bags); patch
  application always runs sequentially in registration order, so the
  result state is bag-equal to refreshing every view one at a time —
  sequential execution remains the deterministic oracle, and parallelism
  only changes wall-clock time, never results.

Fingerprints are computed over the canonical JSON serialization of an
expression (:mod:`repro.algebra.serialize`) with per-view table names
(logs, MV) rewritten to group-canonical placeholders, so two views that
differ only in their private auxiliary-table names fingerprint equal.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Expr
from repro.algebra.serialize import expr_to_dict
from repro.robustness.faults import fault_point

__all__ = [
    "subplan_fingerprint",
    "view_fingerprints",
    "evaluate_delta_pair",
    "EpochDeltaCache",
    "GroupTask",
    "GroupScheduler",
]

#: Serialized node kinds that carry no operator structure of their own.
_LEAF_KINDS = frozenset({"table", "literal"})


def _canonicalize(node: object, rename: Mapping[str, str] | None) -> object:
    """Rewrite table names in a serialized expression tree."""
    if isinstance(node, dict):
        out = {key: _canonicalize(value, rename) for key, value in node.items()}
        if rename and out.get("kind") == "table" and out.get("name") in rename:
            out["name"] = rename[out["name"]]
        return out
    if isinstance(node, list):
        return [_canonicalize(item, rename) for item in node]
    return node


def _digest(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def subplan_fingerprint(expr: Expr, rename: Mapping[str, str] | None = None) -> str:
    """A structural fingerprint of ``expr``; equal plans fingerprint equal.

    ``rename`` maps concrete (per-view) table names to canonical
    placeholders, so views differing only in their private log/MV table
    names produce the same fingerprint.
    """
    return _digest(_canonicalize(expr_to_dict(expr), rename))


def view_fingerprints(expr: Expr, rename: Mapping[str, str] | None = None) -> frozenset[str]:
    """Fingerprints of the root and every operator subtree of ``expr``.

    Two views "overlap" when these sets intersect — they share at least
    one join/selection subplan (or the whole query), which is exactly
    when a group refresh could serve one view's delta work to the other.
    Trivial one-operator wrappers (e.g. the identity projection the SQL
    front-end places over every table reference) are excluded: sharing a
    bare table scan is not sharing a subplan.
    """
    root = _canonicalize(expr_to_dict(expr), rename)
    found: set[str] = {_digest(root)}

    def is_operator(node: object) -> bool:
        return isinstance(node, dict) and bool(node.get("kind")) and node["kind"] not in _LEAF_KINDS

    def has_operator_child(node: dict) -> bool:
        for value in node.values():
            if is_operator(value):
                return True
            if isinstance(value, list) and any(is_operator(item) for item in value):
                return True
        return False

    def walk(node: object) -> None:
        if isinstance(node, dict):
            if is_operator(node) and has_operator_child(node):
                found.add(_digest(node))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(root)
    return frozenset(found)


def evaluate_delta_pair(
    db, delete_expr: Expr, insert_expr: Expr, counter: CostCounter | None = None, binding=None
) -> tuple[Bag, Bag]:
    """Evaluate a view's ``(delete, insert)`` delta pair, sharing subresults.

    In interpreted mode the two expressions share one memo dict — the
    same sharing a single refresh plan gets when it evaluates all
    right-hand sides simultaneously.  In compiled mode the executor's
    cross-call result memo (stamped with table versions and ``binding``)
    provides the sharing.  ``binding`` supplies the pair's bound leaves,
    as in :meth:`Database.evaluate`.
    """
    from repro.exec import INTERPRETED

    if db.exec_mode == INTERPRETED:
        memo: dict[Expr, Bag] = {}
        state = db.state
        return (
            evaluate(delete_expr, state, counter=counter, memo=memo, binding=binding),
            evaluate(insert_expr, state, counter=counter, memo=memo, binding=binding),
        )
    return (
        db.evaluate(delete_expr, counter=counter, binding=binding),
        db.evaluate(insert_expr, counter=counter, binding=binding),
    )


class EpochDeltaCache:
    """Evaluated ``(delete, insert)`` view-delta pairs for one refresh epoch.

    Keys are built by the scenarios from (subplan fingerprint, cursor
    range, version stamps, log digests) — they encode *all* inputs of the
    delta evaluation, so an entry can never be served stale.  A lookup
    that finds an entry another view computed counts one
    ``delta_cache_hits``.
    """

    def __init__(self, counter: CostCounter | None = None) -> None:
        self.counter = counter
        self._entries: dict[object, tuple[Bag, Bag]] = {}

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, key: object, deltas: tuple[Bag, Bag]) -> None:
        # The install seam: a crash here loses only a *cache entry* —
        # followers recompute their deltas, never read a torn pair.
        fault_point("crash-mid-delta-cache")
        self._entries[key] = deltas

    def hit(self, key: object) -> tuple[Bag, Bag]:
        """A shared lookup — counts toward ``delta_cache_hits``."""
        deltas = self._entries[key]
        if self.counter is not None:
            self.counter.delta_cache_hits += 1
        obs.metric_inc("delta_cache_hits_total")
        return deltas


@dataclass
class GroupTask:
    """One view's refresh, split into a shareable compute and an apply.

    ``key`` is evaluated lazily (at batch start, after any conflicting
    earlier batch has applied) and returns either a delta-cache key or
    ``None`` for an uncacheable task.  ``compute`` evaluates the view's
    ``(delete, insert)`` delta bags reading the current state only;
    ``apply`` installs them (and any per-view bookkeeping) under the
    view's lock.  ``reads``/``writes`` drive conflict batching.  Plans a
    ``compute`` runs are compiled by whoever builds the task (at install
    or on first use), so parallel computes never race the compiler.
    """

    name: str
    order: int
    key: Callable[[], object | None]
    compute: Callable[[CostCounter | None], tuple[Bag, Bag]]
    apply: Callable[[tuple[Bag, Bag]], None]
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    #: Independently inferred footprint (compiled delta plans + apply-plan
    #: structure), consumed by the concurrency analyzer's RVM604 check of
    #: declared vs. inferred sets.  ``None`` = no inference available.
    inferred_reads: frozenset[str] | None = None
    inferred_writes: frozenset[str] | None = None


def _conflicts(a: GroupTask, b: GroupTask) -> bool:
    return bool(a.writes & (b.writes | b.reads) or b.writes & a.reads)


class GroupScheduler:
    """Runs a group of refresh tasks: batch, compute leaders, apply in order."""

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

    # -- batching ------------------------------------------------------

    def batches(self, tasks: Sequence[GroupTask]) -> list[list[GroupTask]]:
        """Greedy conflict-free batching that preserves registration order.

        Each task lands one batch after the last earlier task it
        conflicts with, so dependent refreshes stay ordered while
        independent ones (the normal case — views write disjoint MV and
        auxiliary tables) share a single batch.
        """
        batches: list[list[GroupTask]] = []
        for task in sorted(tasks, key=lambda t: t.order):
            slot = 0
            for index, batch in enumerate(batches):
                if any(_conflicts(task, other) for other in batch):
                    slot = index + 1
            while len(batches) <= slot:
                batches.append([])
            batches[slot].append(task)
        return batches

    # -- execution -----------------------------------------------------

    def run(
        self,
        tasks: Sequence[GroupTask],
        cache: EpochDeltaCache,
        batches: Sequence[Sequence[GroupTask]] | None = None,
    ) -> None:
        """Run ``tasks`` batch by batch (``batches``: a layout of exactly
        these tasks the caller already holds; default :meth:`batches`)."""
        for index, batch in enumerate(self.batches(tasks) if batches is None else batches):
            with obs.span("batch", index=index, tasks=len(batch), counter=self.counter):
                self._run_batch(batch, cache)

    def _run_batch(self, batch: list[GroupTask], cache: EpochDeltaCache) -> None:
        # Keys are computed now — earlier batches have fully applied, so
        # every input a key digests is at its final pre-batch value.
        keys = {task.name: task.key() for task in batch}
        leaders: list[GroupTask] = []
        claimed: set[object] = set()
        for task in batch:
            key = keys[task.name]
            if key is None or (key not in cache and key not in claimed):
                leaders.append(task)
                if key is not None:
                    claimed.add(key)

        results: dict[str, tuple[Bag, Bag]] = {}
        if self.parallel and len(leaders) > 1:
            counters = [CostCounter() for _ in leaders]
            workers = self.max_workers or min(len(leaders), max(2, (os.cpu_count() or 4) - 1))
            # Thread-local span stacks don't cross into pool workers:
            # hand each worker the batch span as an explicit parent.
            batch_span = obs.current().tracer.active()

            def traced_compute(task: GroupTask, counter: CostCounter) -> tuple[Bag, Bag]:
                with obs.span(
                    "delta_compute", view=task.name, parent=batch_span, counter=counter
                ):
                    return task.compute(counter)

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(traced_compute, task, counter)
                    for task, counter in zip(leaders, counters)
                ]
                for task, future in zip(leaders, futures):
                    results[task.name] = future.result()
            if self.counter is not None:
                for counter in counters:
                    self.counter.absorb(counter)
        else:
            for task in leaders:
                with obs.span("delta_compute", view=task.name, counter=self.counter):
                    results[task.name] = task.compute(self.counter)

        for task in leaders:
            key = keys[task.name]
            if key is not None:
                cache.store(key, results[task.name])

        # Applies are strictly sequential in registration order — this is
        # what makes the scheduler's output bag-equal to the sequential
        # oracle regardless of how the compute phase was parallelized.
        for task in batch:
            if task.name in results:
                deltas = results[task.name]
            else:
                deltas = cache.hit(keys[task.name])
            task.apply(deltas)
