"""Batch-at-a-time execution of compiled physical plans.

The :class:`VectorizedExecutor` reuses the :class:`~repro.exec.compiler.Compiler`
lowering unchanged — equi-join detection, source-access fusion, index
selection, static pruning, and the shared plan cache are identical to
the tuple-at-a-time engine — but walks the resulting ``PNode`` tree
with *columnar kernels* over :class:`~repro.algebra.columnar.ColumnBatch`
values instead of calling ``PNode.execute``:

* stored tables are cached as column batches and maintained
  **incrementally**: the executor registers a write listener with its
  database, so a ``Bag.patch``-driven write appends ``O(|delta|)``
  physical rows (inserts as-is, clamped deletes with negated
  multiplicities) instead of re-decomposing the table, consolidating
  lazily when the appended tail outgrows the table's support;
* projection is a column gather, union-all a column append;
* selections and maps run over the batch in one pass, carrying signed
  multiplicities through untouched (linear operators distribute over
  the net — see :mod:`repro.algebra.columnar`);
* equi-joins and index selections run the tuple engine's own routines
  (one probe loop, one hash loop — generators on the plan node) over
  batch rows read through :class:`_BatchContext`: lookups into the same
  maintained hash indexes, or both sides hashed classically, with
  multiplicities multiplying (bilinear, so signed batches join without
  consolidation; only the ``D`` of a ``chain(R) ∸ D`` operand is netted);
* the nonlinear operators — ε, ∸, min — consolidate their inputs at
  the kernel boundary, the only places canonicalization is paid;
* every node keeps a version-stamped batch memo (same stamp discipline
  as ``PNode.execute``), and the final ``Bag`` materialization is
  memoized per node as well, so an unchanged expression re-evaluates
  in O(1).

Cost accounting: batch kernels charge the physical rows they touch
under the same operator names as the tuple engine; pure structural
kernels (gather, append) touch no rows and charge nothing — that gap
*is* the measured win.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.algebra.bag import Bag, Row
from repro.algebra.columnar import ColumnBatch
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr
from repro.errors import ReproError
from repro.exec.compiler import (
    PDedup,
    PEquiJoin,
    PFilter,
    PIndexSelect,
    PBound,
    PLiteral,
    PMap,
    PMonus,
    PNode,
    PPipeline,
    PProduct,
    PProject,
    PScan,
    PUnionAll,
)
from repro.exec.executor import ExecutionContext, Executor, plan_for
from repro.robustness.faults import fault_point

__all__ = ["VectorizedExecutor", "TableBatchCache"]

#: Consolidate a delta-appended table batch once its physical rows
#: exceed this multiple of the table's distinct-row support.
_COMPACT_FACTOR = 2


def _filter_project_shape(
    steps: list[tuple[str, object]],
) -> tuple[list, tuple[int, ...] | None] | None:
    """Recognize a fused chain of filters with at most one trailing project.

    Returns ``(predicates, positions)`` when the chain is columnar-safe
    (``positions`` is ``None`` for a pure filter chain), else ``None``.
    """
    predicates = []
    positions: tuple[int, ...] | None = None
    for index, (kind, payload) in enumerate(steps):
        if kind == "filter":
            predicates.append(payload)
        elif kind == "project" and index == len(steps) - 1:
            positions = payload  # type: ignore[assignment]
        else:
            return None
    return predicates, positions


class TableBatchCache:
    """Column batches for stored tables, maintained through writes.

    Registered as a write listener on the owning database: patches
    append delta rows in place (the batch stays netting-exact because
    deletes are clamped against the pre-patch value), wholesale
    replacements just drop the entry so the next scan re-decomposes.
    """

    def __init__(self) -> None:
        self._batches: dict[str, ColumnBatch] = {}

    # -- write-listener protocol ---------------------------------------

    def on_patch(self, name: str, delete: Bag, insert: Bag, before: Bag, after: Bag) -> None:
        batch = self._batches.get(name)
        if batch is None:
            return
        batch.append_patch(delete, insert, before)

    def on_replace(self, name: str, bag: Bag) -> None:
        self._batches.pop(name, None)

    def on_drop(self, name: str) -> None:
        self._batches.pop(name, None)

    # -- reads ---------------------------------------------------------

    def get(self, name: str, bag: Bag, arity: int) -> ColumnBatch:
        """The batch for ``name``, decomposed on first use and compacted
        when the appended delta tail outgrows the table's support.

        ``arity`` is the table's *schema* arity — an empty bag cannot
        supply it, and a batch decomposed without columns could never
        absorb appended deltas.
        """
        batch = self._batches.get(name)
        if batch is None:
            batch = ColumnBatch.from_pairs(bag.items(), arity)
            self._batches[name] = batch
        elif len(batch) > _COMPACT_FACTOR * max(bag.distinct_count(), 16):
            # ``consolidate`` is pure, so the swap below is the whole
            # commit: a fault raised before it leaves the (larger but
            # correct) delta-appended batch in place, never a torn one.
            consolidated = batch.consolidate()
            fault_point("crash-mid-consolidate")
            batch = consolidated
            self._batches[name] = batch
        return batch


class _BatchContext(ExecutionContext):
    """Feeds the shared join routines from the batch kernels and their memo."""

    __slots__ = ("_executor",)

    def __init__(self, state, counter, indexes, version_of, binding, executor: VectorizedExecutor) -> None:
        super().__init__(state, counter, indexes, version_of, binding)
        self._executor = executor

    def rows(self, node: PNode):
        batch = self._executor._batch(node, self)
        return batch.rows(), len(batch)

    def bag(self, node: PNode) -> Bag:
        return self._executor._bag(node, self)


class VectorizedExecutor(Executor):
    """Run compiled plans with columnar kernels (``exec_mode="vectorized"``)."""

    def __init__(self, database) -> None:
        super().__init__(database)
        self._table_cache = TableBatchCache()
        database.add_write_listener(self._table_cache)
        #: node -> [stamp, batch, bag-or-None]; nodes hash by identity.
        self._batch_memo: dict[PNode, list] = {}

    # -- entry points --------------------------------------------------

    def evaluate(self, expr: Expr, *, counter: CostCounter | None = None, binding=None) -> Bag:
        node = plan_for(self._nodes, expr, counter, self._drop_plans)
        # Built here rather than by overriding ``_context``: the governor
        # runs ``Executor.evaluate`` on this same instance as its compiled
        # tier, which must keep reading children through ``PNode.execute``.
        database = self._database
        ctx = _BatchContext(database.state, counter, database.indexes, database.version_of, binding, self)
        return self._bag(ctx.admit(node), ctx)

    def _drop_plans(self) -> None:
        self._nodes.clear()
        self._batch_memo.clear()

    # -- the batch interpreter -----------------------------------------

    def _run(self, node: PNode, ctx: ExecutionContext) -> list:
        """Execute ``node`` to a memo entry ``[stamp, batch, bag|None]``."""
        stamp = ctx.stamp_for(node)
        entry = self._batch_memo.get(node)
        if entry is not None and entry[0] == stamp:
            if ctx.counter is not None:
                ctx.counter.memo_hits += 1
            return entry
        if node.check_empty and node.runtime_empty(ctx):
            batch = ColumnBatch.empty()
        else:
            batch = self._kernel(node, ctx)
        # Build the entry fully before publishing (same value-before-
        # stamp discipline as PNode.execute for parallel readers).
        entry = [stamp, batch, None]
        self._batch_memo[node] = entry
        return entry

    def _batch(self, node: PNode, ctx: ExecutionContext) -> ColumnBatch:
        return self._run(node, ctx)[1]

    def _bag(self, node: PNode, ctx: ExecutionContext) -> Bag:
        """``node``'s result netted to a bag, memoized beside its batch."""
        entry = self._run(node, ctx)
        if entry[2] is None:
            entry[2] = entry[1].to_bag()
        return entry[2]

    def _kernel(self, node: PNode, ctx: ExecutionContext) -> ColumnBatch:
        kernel = _KERNELS.get(type(node))
        if kernel is None:
            raise ReproError(f"no vectorized kernel for {type(node).__name__}")
        return kernel(self, node, ctx)

    # -- table access --------------------------------------------------

    def _scan_batch(self, name: str, ctx: ExecutionContext) -> ColumnBatch:
        return self._table_cache.get(name, ctx.table(name), self._database.schema_of(name).arity)

    # -- kernels -------------------------------------------------------

    def _k_scan(self, node: PScan, ctx) -> ColumnBatch:
        batch = self._scan_batch(node.name, ctx)
        if ctx.counter is not None:
            ctx.counter.record("scan", len(batch))
        return batch

    def _k_literal(self, node: PLiteral, ctx) -> ColumnBatch:
        if ctx.counter is not None:
            ctx.counter.record("literal", len(node.bag))
        return ColumnBatch.from_bag(node.bag)

    def _k_bound(self, node: PBound, ctx) -> ColumnBatch:
        bag = ctx.bound(node.leaf)
        if ctx.counter is not None:
            ctx.counter.record("literal", len(bag))
        return ColumnBatch.from_pairs(bag.items(), node.leaf.bound_schema.arity)

    def _k_pipeline(self, node: PPipeline, ctx) -> ColumnBatch:
        out_arity = len(node.access.out_map)
        if node.access.restrict is not None:
            return ColumnBatch.from_pairs(node.restricted(ctx), out_arity)
        base = self._scan_batch(node.access.table, ctx)
        fast = _filter_project_shape(node.access.steps)
        if fast is not None and base.arity:
            # Columnar fast path for the dominant σ*→Π chain: predicates
            # run once per physical row to build a mask, then values move
            # column-wise — no per-row output tuples, no pair transpose.
            predicates, positions = fast
            read = len(base)
            if predicates:
                if len(predicates) == 1:
                    predicate = predicates[0]
                    mask = [predicate(row) for row in zip(*base.columns)]
                else:
                    mask = [
                        all(predicate(row) for predicate in predicates)
                        for row in zip(*base.columns)
                    ]
                columns = tuple(
                    [value for value, keep in zip(column, mask) if keep]
                    for column in base.columns
                )
                mults = [count for count, keep in zip(base.mults, mask) if keep]
                batch = ColumnBatch(columns, mults, base.arity)
            else:
                batch = base
            if positions is not None:
                batch = batch.gather(positions)
            if ctx.counter is not None:
                ctx.counter.record("scan", read)
            return batch
        apply = node.access.apply
        pairs = []
        read = 0
        for row, count in base.rows():
            read += 1
            image = apply(row)
            if image is not None:
                pairs.append((image, count))
        if ctx.counter is not None:
            ctx.counter.record("scan", read)
        return ColumnBatch.from_pairs(pairs, out_arity)

    def _k_index_select(self, node: PIndexSelect, ctx) -> ColumnBatch:
        return ColumnBatch.from_pairs(node.matches(ctx), len(node.access.out_map))

    def _k_filter(self, node: PFilter, ctx) -> ColumnBatch:
        child = self._batch(node.child, ctx)
        predicate = node.predicate
        mask = [predicate(row) for row, _count in child.rows()]
        columns = tuple(
            [value for value, keep in zip(column, mask) if keep] for column in child.columns
        )
        mults = [count for count, keep in zip(child.mults, mask) if keep]
        if ctx.counter is not None:
            ctx.counter.record("select", len(mults))
        return ColumnBatch(columns, mults, child.arity)

    def _k_project(self, node: PProject, ctx) -> ColumnBatch:
        child = self._batch(node.child, ctx)
        # The columnar win: a gather shares columns and touches no rows.
        return child.gather(node.positions)

    def _k_map(self, node: PMap, ctx) -> ColumnBatch:
        child = self._batch(node.child, ctx)
        functions = node.functions
        pairs = [
            (tuple(function(row) for function in functions), count) for row, count in child.rows()
        ]
        if ctx.counter is not None:
            ctx.counter.record("map", len(pairs))
        return ColumnBatch.from_pairs(pairs, len(functions))

    def _k_dedup(self, node: PDedup, ctx) -> ColumnBatch:
        child = self._batch(node.child, ctx)
        pairs = [(row, 1) for row, count in child.net_counts().items() if count > 0]
        if ctx.counter is not None:
            ctx.counter.record("dedup", len(pairs))
        return ColumnBatch.from_pairs(pairs, child.arity)

    def _k_union_all(self, node: PUnionAll, ctx) -> ColumnBatch:
        left = self._batch(node.left, ctx)
        right = self._batch(node.right, ctx)
        # Structural append; no per-row work, nothing charged.
        return left.concat(right)

    def _k_monus(self, node: PMonus, ctx) -> ColumnBatch:
        if node.right.runtime_empty(ctx):
            return self._batch(node.left, ctx)
        left = self._batch(node.left, ctx)
        counts = left.net_counts()
        left_arity = left.arity
        if node.probe_table is not None:
            lookup = ctx.table(node.probe_table).multiplicity
            if ctx.counter is not None:
                ctx.counter.record_probes("probe", len(counts))
        else:
            right_counts: Mapping[Row, int] = self._batch(node.right, ctx).net_counts()
            lookup = lambda row: right_counts.get(row, 0)  # noqa: E731
        pairs = []
        for row, count in counts.items():
            remaining = count - lookup(row)
            if remaining > 0:
                pairs.append((row, remaining))
        if ctx.counter is not None:
            ctx.counter.record("monus", len(pairs))
        return ColumnBatch.from_pairs(pairs, left_arity)

    def _k_product(self, node: PProduct, ctx) -> ColumnBatch:
        left = self._batch(node.left, ctx)
        right = self._batch(node.right, ctx)
        pairs = []
        right_rows = list(right.rows())
        for lrow, lcount in left.rows():
            for rrow, rcount in right_rows:
                pairs.append((lrow + rrow, lcount * rcount))
        if ctx.counter is not None:
            ctx.counter.record("product", len(pairs))
        return ColumnBatch.from_pairs(pairs, left.arity + right.arity)

    def _k_equijoin(self, node: PEquiJoin, ctx) -> ColumnBatch:
        # The join routines are the compiled tier's own; ``ctx`` feeds
        # them this tier's batches (signed multiplicities multiply
        # through: both strategies are linear in the probing operand).
        indexed = node._index_side(ctx)
        if indexed is not None:
            return ColumnBatch.from_pairs(node.probe_join(ctx, indexed), node.arity)
        pairs = list(node.hash_join(ctx))
        if ctx.counter is not None:
            ctx.counter.record("hash_join", len(pairs))
        return ColumnBatch.from_pairs(pairs, node.arity)


_KERNELS = {
    PScan: VectorizedExecutor._k_scan,
    PLiteral: VectorizedExecutor._k_literal,
    PBound: VectorizedExecutor._k_bound,
    PPipeline: VectorizedExecutor._k_pipeline,
    PIndexSelect: VectorizedExecutor._k_index_select,
    PFilter: VectorizedExecutor._k_filter,
    PProject: VectorizedExecutor._k_project,
    PMap: VectorizedExecutor._k_map,
    PDedup: VectorizedExecutor._k_dedup,
    PUnionAll: VectorizedExecutor._k_union_all,
    PMonus: VectorizedExecutor._k_monus,
    PProduct: VectorizedExecutor._k_product,
    PEquiJoin: VectorizedExecutor._k_equijoin,
}
