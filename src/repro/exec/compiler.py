"""Compilation of bag-algebra expressions into physical plans.

A physical plan is a tree of :class:`PNode` operators produced once per
distinct expression and then reused across ``evaluate`` calls.  Lowering
does, at compile time, all the work the interpreted evaluator repeats on
every call:

* every predicate and map term is **bound** against its input schema
  exactly once;
* ``σ_p(E × F)`` with cross-operand equality conjuncts becomes an
  **equi-join** node with the key positions chosen and the residual
  predicate split into probe-side, build-side, and cross parts;
* a chain of ``σ``/``Π``/``map`` over a stored table becomes a fused
  :class:`SourceAccess`, which an equi-join or constant-equality
  selection can serve from a maintained **hash index** (O(|delta| +
  |output|) probes instead of O(|table|) scans) — and so can the
  ``chain(R) ∸ D`` operand Figure 2's Product rule joins every delta
  with: the bucket's chain images, less ``D``'s copies of them.  An
  ``attr = const`` conjunct on the served side joins the index key, so
  a probe examines only rows that conjunct keeps;
* ``E ∸ R`` against a stored table becomes a **monus-probe** node;
* a key-restricted leaf ``σ_{key ∈ K}(R)`` (partition pruning; ``K`` is
  bound per call) fuses into its chain's :class:`SourceAccess`: joined
  on the key it *is* the index-probe join, anywhere else it gathers
  ``K``'s buckets from ``R``'s key index — ``R`` is never scanned;
* a bound leaf (a delta the caller supplies per call) is a delta-sized
  source read off the call's binding: like a log table it drives the
  index-probe joins from the probing side, and bound empty it
  short-circuits everything a statically empty literal would have
  folded away;
* a parameter (:class:`~repro.algebra.predicates.Param`, a prepared
  query's literal) is read off the call's binding too: ``attr = ?`` pins
  its column like ``attr = const`` does, and the index probe looks up
  the value the call binds, so one plan serves every key;
* adjacent projections compose into one.

Cost accounting mirrors the interpreted evaluator's conventions: every
row an operator touches is one tuple-op, recorded under the operator's
name.  Index-backed operators charge their probes (also tallied in
:attr:`CostCounter.index_probes`) and the bucket rows they examine,
never the table rows they skip — that difference is the measured win.

Each node carries the sorted tuple of table names it reads; the executor
stamps results with the tables' current version numbers so a memoized
result is reused exactly as long as none of its inputs changed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextvars import ContextVar
from typing import Any

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import _conjuncts, _equijoin_keys
from repro.algebra.expr import (
    Bound,
    DupElim,
    Expr,
    KeyRestrict,
    Literal,
    MapProject,
    Monus,
    Parameterized,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
)
from repro.algebra.predicates import And, Attr, Comparison, Const, Param, Predicate, is_param_name, param_names
from repro.algebra.schema import Schema
from repro.errors import ReproError
from repro.exec.kernels import row_getter, row_mapper

__all__ = ["Compiler", "PNode", "SourceAccess"]

#: The bound leaves the current :meth:`~repro.exec.executor.Executor.batch`
#: call has charged (``None`` outside a batch).
CHARGED: ContextVar[set[str] | None] = ContextVar("charged_bound_leaves", default=None)


def charge_bound(counter, leaf: Bound, bag: Bag) -> None:
    """Charge ``leaf``'s bag as a ``literal``: once per batch, however many
    of its evaluations read the leaf (bare or inside a plan), and on every
    call outside one."""
    if counter is None:
        return
    charged = CHARGED.get()
    if charged is not None:
        if leaf.name in charged:
            return
        charged.add(leaf.name)
    counter.record("literal", len(bag))


def _adopt(counts: dict[Row, int]) -> Bag:
    """The bag of ``counts`` an operator just built, adopted as it is.

    Its rows are tuples of one width and its counts positive sums by
    construction, so ``Bag(counts=…)``'s validating copy would only
    repeat the pass.
    """
    return Bag._from_clean(counts, len(next(iter(counts))) if counts else None)


# ----------------------------------------------------------------------
# Fused access paths over stored tables
# ----------------------------------------------------------------------


class SourceAccess:
    """A ``σ``/``Π``/``map`` chain over one stored table, fused.

    ``steps`` transform a base-table row into the chain's output row (or
    drop it); ``out_map`` maps each output position back to the base
    column it carries, or ``None`` for computed columns.  Join keys whose
    output positions all map to base columns can be served by a hash
    index on the base table.  ``const_eq`` collects, while the chain is
    fused, every base column one of its filters pins to a constant
    (``attr = const``) or to a parameter (``attr = ?``, a
    :class:`~repro.algebra.predicates.Param` held as such): each row the
    chain lets through carries exactly those values, so a hash index on
    any subset of the columns narrows the chain's input to one bucket.
    ``params`` names the parameters the chain's filters and maps read.
    ``restrict`` is the :class:`~repro.algebra.expr.KeyRestrict` leaf
    when the chain reads ``σ_{key ∈ K(domain)}(table)`` rather than the
    table: its input is then the buckets of the call's bound keys in the
    index on the key column.

    ``apply`` is the whole chain compiled to one callable — base row to
    output row, or ``None`` when a filter drops it — built once, when
    the chain is fused (:func:`_fuse`): no per-row dispatch on step
    kind, and a projection-only chain is a
    :func:`~repro.exec.kernels.row_getter` itself.  A chain of renames
    only has no steps at all (:attr:`identity`): its rows are the
    table's.
    """

    __slots__ = ("table", "out_map", "steps", "const_eq", "restrict", "params", "apply")

    def __init__(
        self, table: str, out_map: tuple[int | None, ...], restrict: KeyRestrict | None = None
    ) -> None:
        self.table = table
        self.out_map = out_map
        self.steps: list[tuple[str, Any]] = []
        self.const_eq: dict[int, Any] = {}
        self.restrict = restrict
        self.params: tuple[str, ...] = ()
        self.apply: Callable[[Row], Row | None] = _same

    @property
    def identity(self) -> bool:
        """Whether the chain passes every base row through unchanged."""
        return not self.steps

    def base_positions(self, out_positions: tuple[int, ...]) -> tuple[int, ...] | None:
        """Map output positions to base columns (``None`` if any is computed)."""
        mapped = tuple(self.out_map[position] for position in out_positions)
        if any(position is None for position in mapped):
            return None
        return mapped  # type: ignore[return-value]


def _same(row: Row) -> Row:
    return row


def _fuse(steps: list[tuple[str, Any]]) -> Callable[[Row], Row | None]:
    """A chain's steps as one callable, built back to front.

    Adjacent projections compose, and a projection after a map keeps
    only the map terms it selects, so what is left alternates filters
    with single row kernels.  A filter feeds the rest of the chain only
    the rows it keeps; a chain that ends in a projection returns that
    projection's getter call.
    """
    stages: list[tuple[str, Any]] = []
    for kind, payload in steps:
        if kind == "project" and stages and stages[-1][0] != "filter":
            previous, inner = stages.pop()
            kind, payload = previous, tuple(inner[position] for position in payload)
        stages.append((kind, payload))
    fused: Callable[[Row], Row | None] | None = None
    for kind, payload in reversed(stages):
        fused = _stage(kind, payload, fused)
    return fused or _same


def _stage(kind: str, payload: Any, then: Callable[[Row], Row | None] | None) -> Callable[[Row], Row | None]:
    """One fused step feeding ``then`` (the rest of the chain; ``None`` = the end)."""
    if kind == "filter":
        keep = payload
        if then is None:
            return lambda row: row if keep(row) else None
        return lambda row: then(row) if keep(row) else None
    step = row_getter(payload) if kind == "project" else row_mapper(payload)
    if then is None:
        return step
    return lambda row: then(step(row))


def _const_equality(conjunct: Predicate) -> tuple[str, Any] | None:
    """``(attribute, constant)`` when ``conjunct`` is ``attr = const``, and
    ``(attribute, param)`` when it is ``attr = ?``.

    A ``NULL`` constant never qualifies: a comparison with it is false
    for every row, which the chain's own filter already enforces (a
    parameter bound to ``NULL`` is answered empty at run time).
    """
    if isinstance(conjunct, Comparison) and conjunct.op == "=":
        left, right = conjunct.left, conjunct.right
        if isinstance(right, Attr):
            left, right = right, left
        if isinstance(left, Attr):
            if isinstance(right, Param):
                return left.name, right
            if isinstance(right, Const) and right.value is not None:
                return left.name, right.value
    return None


def _with_params(access: SourceAccess, *nodes) -> None:
    names = param_names(*nodes)
    if names:
        access.params += tuple(name for name in names if name not in access.params)


def source_access(expr: Expr) -> SourceAccess | None:
    """Build a :class:`SourceAccess` for ``expr`` when it is a fusable chain."""
    access = _chain(expr)
    if access is not None:
        access.apply = _fuse(access.steps)
    return access


def _chain(expr: Expr) -> SourceAccess | None:
    """The steps of a fusable chain, innermost first (not yet fused)."""
    if isinstance(expr, TableRef):
        return SourceAccess(expr.name, tuple(range(expr.table_schema.arity)))
    if isinstance(expr, KeyRestrict):
        table = expr.child
        return SourceAccess(table.name, tuple(range(table.table_schema.arity)), expr)
    if isinstance(expr, Select):
        access = _chain(expr.child)
        if access is None:
            return None
        child_schema = expr.child.schema()
        for conjunct in _conjuncts(expr.predicate):
            pinned = _const_equality(conjunct)
            if pinned is not None:
                base_column = access.out_map[child_schema.index_of(pinned[0])]
                if base_column is not None:
                    access.const_eq.setdefault(base_column, pinned[1])
        _with_params(access, expr.predicate)
        access.steps.append(("filter", expr.predicate.bind(child_schema)))
        return access
    if isinstance(expr, Project):
        access = _chain(expr.child)
        if access is None:
            return None
        return _project(access, expr.positions())
    if isinstance(expr, MapProject):
        access = _chain(expr.child)
        if access is None:
            return None
        child_schema = expr.child.schema()
        if all(isinstance(term, Attr) for term in expr.terms):
            # Column references only: a projection (a rename, often).
            return _project(access, tuple(child_schema.index_of(term.name) for term in expr.terms))
        out_map: list[int | None] = []
        for term in expr.terms:
            if isinstance(term, Attr):
                out_map.append(access.out_map[child_schema.index_of(term.name)])
            else:
                out_map.append(None)
        access.out_map = tuple(out_map)
        _with_params(access, *expr.terms)
        access.steps.append(("map", tuple(term.bind(child_schema) for term in expr.terms)))
        return access
    return None


def _project(access: SourceAccess, positions: tuple[int, ...]) -> SourceAccess:
    """``access`` followed by a projection; one that keeps every column in
    order (a rename) is no step at all."""
    if positions != tuple(range(len(access.out_map))):
        access.steps.append(("project", positions))
    access.out_map = tuple(access.out_map[position] for position in positions)
    return access


# ----------------------------------------------------------------------
# Physical operators
# ----------------------------------------------------------------------


class PNode:
    """A physical operator with a version-stamped cross-call result memo."""

    __slots__ = ("tables", "binds", "leaves", "by_value", "_memo")

    #: Whether execute() may short-circuit to φ via runtime_empty().
    check_empty = True

    #: How many results a :attr:`by_value` node keeps at one version
    #: (then it starts over).
    MAX_VALUE_MEMO = 4096

    def __init__(self, tables: frozenset[str]) -> None:
        self.tables = tuple(sorted(tables))
        #: What the call's binding supplies to the leaves at or below this
        #: node — the domains of key-restricted leaves, the names of bound
        #: ones and of parameters: the result depends on those entries,
        #: which join the table versions in the memo stamp (set by
        #: ``Compiler.compile``).
        self.binds: tuple[str, ...] = ()
        #: The bound leaves at or below this node — what a call's
        #: binding is held against before anything executes.
        self.leaves: tuple[Bound, ...] = ()
        #: Whether every entry in :attr:`binds` is a parameter: the node of
        #: a prepared query, one plan for all its keys.  Its memo then
        #: keeps a result per parameter value at the current table
        #: versions, so reads that interleave keys hit it as one plan per
        #: key used to.
        self.by_value = False
        #: ``(stamp, value)`` of the last execution, or None; for a
        #: :attr:`by_value` node, ``(versions, {values: value})``.
        self._memo: tuple[tuple, Bag | dict[tuple, Bag]] | None = None

    def children(self) -> tuple[PNode, ...]:
        return ()

    def runtime_empty(self, ctx) -> bool:
        """Conservatively decide emptiness from table sizes and bound bags
        (False = unknown)."""
        return False

    def execute(self, ctx) -> Bag:
        stamp = ctx.stamp_for(self)
        memo = self._memo
        if self.by_value:
            split = len(self.tables)
            stamp, values = stamp[:split], stamp[split:]
            result = memo[1].get(values) if memo is not None and memo[0] == stamp else None
            if result is not None:
                if ctx.counter is not None:
                    ctx.counter.memo_hits += 1
                return result
        elif memo is not None and memo[0] == stamp:
            if ctx.counter is not None:
                ctx.counter.memo_hits += 1
            return memo[1]
        if self.check_empty and self.runtime_empty(ctx):
            result = Bag.empty()
        else:
            result = self._compute(ctx)
        if self.by_value:
            # A dict only ever holds results of its own versions, so a
            # concurrent caller at other versions cannot corrupt it; new
            # versions (or a full dict) start over, dropping stale results.
            if memo is not None and memo[0] == stamp and len(memo[1]) < self.MAX_VALUE_MEMO:
                memo[1][values] = result
            else:
                self._memo = (stamp, {values: result})
            return result
        # One store of the pair, read back with one load: nodes are
        # shared by concurrent callers at *different* stamps (readers
        # pinned at different snapshot versions, the parallel group
        # scheduler), and stamp and value kept in two attributes could
        # be left holding one caller's stamp with another's value.
        self._memo = (stamp, result)
        return result

    def _compute(self, ctx) -> Bag:
        raise NotImplementedError


class PLiteral(PNode):
    check_empty = False

    __slots__ = ("bag",)

    def __init__(self, bag: Bag) -> None:
        super().__init__(frozenset())
        self.bag = bag

    def runtime_empty(self, ctx) -> bool:
        return not self.bag

    def _compute(self, ctx) -> Bag:
        if ctx.counter is not None:
            ctx.counter.record("literal", len(self.bag))
        return self.bag


class PBound(PNode):
    """The bag the call binds to a :class:`~repro.algebra.expr.Bound` leaf.

    Stands where a literal holding that bag would (same ``literal``
    charge, once per batch: :func:`charge_bound`), but the plan above it
    is the same node every call.
    """

    check_empty = False

    __slots__ = ("leaf",)

    def __init__(self, leaf: Bound) -> None:
        super().__init__(frozenset())
        self.leaf = leaf
        self.binds = (leaf.name,)
        self.leaves = (leaf,)

    def runtime_empty(self, ctx) -> bool:
        return not ctx.bound(self.leaf)

    def _compute(self, ctx) -> Bag:
        bag = ctx.bound(self.leaf)
        charge_bound(ctx.counter, self.leaf, bag)
        return bag


class PScan(PNode):
    check_empty = False

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__(frozenset({name}))
        self.name = name

    def runtime_empty(self, ctx) -> bool:
        value = ctx.state.get(self.name)
        return value is not None and not value

    def _compute(self, ctx) -> Bag:
        result = ctx.table(self.name)
        if ctx.counter is not None:
            ctx.counter.record("scan", len(result))
        return result


class PPipeline(PNode):
    """A fused σ/Π/map chain over a stored table, evaluated in one pass.

    Charges one ``scan`` tuple-op per base row read — intermediate
    selection/projection materializations are pipelined away.  Over a
    key-restricted access the pass runs over the bound keys' index
    buckets only: the table is not scanned.
    """

    __slots__ = ("access",)

    def __init__(self, access: SourceAccess) -> None:
        super().__init__(frozenset({access.table}))
        self.access = access
        if access.restrict is not None:
            self.binds = (access.restrict.domain,)
        self.binds += access.params

    def runtime_empty(self, ctx) -> bool:
        value = ctx.state.get(self.access.table)
        return value is not None and not value

    def _compute(self, ctx) -> Bag:
        access = self.access
        base = ctx.table(access.table)
        counter = ctx.counter
        leaf = access.restrict
        if leaf is None:
            if counter is not None:
                counter.record("scan", base.distinct_count())
            if access.identity:
                return base
            buckets = [base]
        else:
            # One lookup per bound key in R's maintained key index: the
            # cost is the keys and their buckets, whatever R's size.
            keys = ctx.keys_of(leaf.domain)
            index = ctx.indexes.get(access.table, (leaf.position,), base, counter=counter)
            buckets = [index.lookup((key,)) for key in keys]
            if counter is not None:
                counter.record_probes("index_probe", len(keys))
                counter.record("partition_restrict", sum(len(bucket) for bucket in buckets))
        apply = access.apply
        counts: dict[Row, int] = {}
        for bucket in buckets:
            for row, count in bucket.items():
                image = apply(row)
                if image is not None:
                    counts[image] = counts.get(image, 0) + count
        return _adopt(counts)


class PIndexSelect(PPipeline):
    """A fused chain whose filters pin base columns to constants: one index probe.

    Every keyed ``DELETE``/``UPDATE`` victim set and keyed read the SQL
    front end emits has this shape, whatever ``σ``/``Π``/map sits on
    top.  The probe is answered by an already-registered index whose key
    is a subset of the pinned columns (the widest wins; ``R[a]`` serves
    ``a = ? AND b = ?``), so no second index is built or kept current;
    only a table with no such index gets one on the full key.  The
    chain's own filters run over the bucket as the residual.  A column
    pinned to a parameter is looked up under the value the call binds;
    bound to ``NULL`` it matches no row, and nothing is probed.
    """

    __slots__ = ("key_positions",)

    def __init__(self, access: SourceAccess) -> None:
        super().__init__(access)
        self.key_positions = tuple(sorted(access.const_eq))

    @property
    def key_values(self) -> tuple:
        return tuple(self.access.const_eq[position] for position in self.key_positions)

    def _compute(self, ctx) -> Bag:
        access = self.access
        base = ctx.table(access.table)
        positions = ctx.indexes.covering(access.table, self.key_positions, base) or self.key_positions
        key = tuple(access.const_eq[position] for position in positions)
        if access.params:
            key = tuple(ctx.param(value.name) if type(value) is Param else value for value in key)
            if any(value is None for value in key):
                return Bag.empty()
        index = ctx.indexes.get(access.table, positions, base, counter=ctx.counter)
        bucket = index.lookup(key)
        if ctx.counter is not None:
            ctx.counter.record_probes("index_probe", 1)
            ctx.counter.record("index_select", len(bucket))
        return _adopt(_summed_images(bucket, access.apply))


class PFilter(PNode):
    __slots__ = ("child", "predicate")

    def __init__(self, child: PNode, predicate: Callable[[Row], bool]) -> None:
        super().__init__(frozenset(child.tables))
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def runtime_empty(self, ctx) -> bool:
        return self.child.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        result = self.child.execute(ctx).select(self.predicate)
        if ctx.counter is not None:
            ctx.counter.record("select", len(result))
        return result


def _images(bag: Bag, kernel: Callable[[Row], Row]) -> Bag:
    """``kernel`` applied to every row of ``bag``, copies of merged images summed."""
    counts: dict[Row, int] = {}
    for row, count in bag.items():
        image = kernel(row)
        counts[image] = counts.get(image, 0) + count
    return _adopt(counts)


class PProject(PNode):
    __slots__ = ("child", "positions", "getter")

    def __init__(self, child: PNode, positions: tuple[int, ...]) -> None:
        super().__init__(frozenset(child.tables))
        self.child = child
        self.positions = positions
        self.getter = row_getter(positions)

    def children(self):
        return (self.child,)

    def runtime_empty(self, ctx) -> bool:
        return self.child.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        result = _images(self.child.execute(ctx), self.getter)
        if ctx.counter is not None:
            ctx.counter.record("project", len(result))
        return result


class PMap(PNode):
    __slots__ = ("child", "mapper")

    def __init__(self, child: PNode, functions: tuple[Callable[[Row], Any], ...]) -> None:
        super().__init__(frozenset(child.tables))
        self.child = child
        self.mapper = row_mapper(functions)

    def children(self):
        return (self.child,)

    def runtime_empty(self, ctx) -> bool:
        return self.child.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        result = _images(self.child.execute(ctx), self.mapper)
        if ctx.counter is not None:
            ctx.counter.record("map", len(result))
        return result


class PDedup(PNode):
    __slots__ = ("child",)

    def __init__(self, child: PNode) -> None:
        super().__init__(frozenset(child.tables))
        self.child = child

    def children(self):
        return (self.child,)

    def runtime_empty(self, ctx) -> bool:
        return self.child.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        result = self.child.execute(ctx).dedup()
        if ctx.counter is not None:
            ctx.counter.record("dedup", len(result))
        return result


class PUnionAll(PNode):
    __slots__ = ("left", "right")

    def __init__(self, left: PNode, right: PNode) -> None:
        super().__init__(frozenset(left.tables) | frozenset(right.tables))
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def runtime_empty(self, ctx) -> bool:
        return self.left.runtime_empty(ctx) and self.right.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        result = self.left.execute(ctx).union_all(self.right.execute(ctx))
        if ctx.counter is not None:
            ctx.counter.record("union_all", len(result))
        return result


class PMonus(PNode):
    """``E ∸ F``, probing the stored table's hash map when ``F`` is one."""

    __slots__ = ("left", "right", "probe_table")

    def __init__(self, left: PNode, right: PNode, probe_table: str | None) -> None:
        super().__init__(frozenset(left.tables) | frozenset(right.tables))
        self.left = left
        self.right = right
        self.probe_table = probe_table

    def children(self):
        return (self.left, self.right)

    def runtime_empty(self, ctx) -> bool:
        return self.left.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        if self.right.runtime_empty(ctx):
            # ``E ∸ φ`` is ``E``: skip the anti-join entirely.
            return self.left.execute(ctx)
        left = self.left.execute(ctx)
        if self.probe_table is not None:
            right = ctx.table(self.probe_table)
            if ctx.counter is not None:
                ctx.counter.record_probes("probe", left.distinct_count())
        else:
            right = self.right.execute(ctx)
        result = left.monus(right)
        if ctx.counter is not None:
            ctx.counter.record("monus", len(result))
        return result


class PProduct(PNode):
    __slots__ = ("left", "right")

    def __init__(self, left: PNode, right: PNode) -> None:
        super().__init__(frozenset(left.tables) | frozenset(right.tables))
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def runtime_empty(self, ctx) -> bool:
        return self.left.runtime_empty(ctx) or self.right.runtime_empty(ctx)

    def _compute(self, ctx) -> Bag:
        result = self.left.execute(ctx).product(self.right.execute(ctx))
        if ctx.counter is not None:
            ctx.counter.record("product", len(result))
        return result


class _JoinSide:
    """Compile-time description of one equi-join operand.

    An operand is *index-servable* when it is a fused chain over a stored
    table ``R`` whose join keys map to base columns — bare
    (``chain(R)``), or as the ``chain(R) ∸ D`` "rest" that Figure 2's
    Product rule joins every delta with; ``minus`` is then ``D``'s node.
    A chain over a key-restricted ``R`` qualifies only when the join is
    on that key: the probed bucket is then the restriction, and
    ``restrict_slot`` says which join key carries it.  ``key_of`` reads
    an operand row's join key — a probe key, or a hash-join bucket key.

    ``pins`` maps each base column every row of the operand holds one
    constant in to that constant (:func:`_pins`).  An unrestricted
    index-servable side appends those that are not join columns to its
    index key (``base_key_positions``) and their constants to every
    probe key (``pinned``): a bucket then holds only rows the side's own
    filters can keep.
    """

    __slots__ = (
        "node",
        "key_positions",
        "key_of",
        "access",
        "minus",
        "base_key_positions",
        "pinned",
        "side_filter",
        "restrict_slot",
    )

    def __init__(
        self,
        node: PNode,
        key_positions: tuple[int, ...],
        access: SourceAccess | None,
        minus: PNode | None,
        side_filter: Callable[[Row], bool] | None,
        pins: Mapping[int, Any],
    ) -> None:
        self.node = node
        self.key_positions = key_positions
        self.key_of = row_getter(key_positions)
        self.access = access
        self.minus = minus
        # The index key: base columns behind the join keys, then the
        # pinned ones; None = not index-servable.
        self.base_key_positions = access.base_positions(key_positions) if access is not None else None
        self.pinned: tuple = ()
        self.side_filter = side_filter
        self.restrict_slot: int | None = None
        if self.base_key_positions is None:
            return
        if access.restrict is not None:
            if access.restrict.position in self.base_key_positions:
                self.restrict_slot = self.base_key_positions.index(access.restrict.position)
            else:
                self.base_key_positions = None
            return
        extra = tuple(sorted(column for column in pins if column not in self.base_key_positions))
        self.base_key_positions += extra
        self.pinned = tuple(pins[column] for column in extra)

    @property
    def indexable(self) -> bool:
        return self.base_key_positions is not None

    def scan_reason(self) -> str | None:
        """Why this operand can only be joined by evaluating it in full.

        ``None`` when it is index-servable or reads nothing stored.
        """
        if self.indexable:
            return None
        if self.access is not None:
            return "off-key-restriction" if self.access.restrict is not None else "computed-key"
        node = self.node
        while isinstance(node, (PMonus, PFilter, PProject, PMap)):
            node = node.left if isinstance(node, PMonus) else node.child
        if isinstance(node, PLiteral):
            # An evaluated bag standing in for the stored table it came from.
            return "literal-base"
        return "non-chain-operand" if self.node.tables else None


def _pins(access: SourceAccess, conjuncts: list[Predicate], schema: Schema) -> dict[int, Any]:
    """Base columns the operand's rows all hold one constant in, with the constant.

    A column qualifies when the chain's own filters pin it
    (``access.const_eq``) or one of the join's conjuncts over this
    operand alone is ``attr = const`` on a column the chain carries
    unchanged.  A parameter (``attr = ?``) stays a filter: its value is
    the call's, and an index key is fixed when the plan is compiled.
    """
    pins = {column: value for column, value in access.const_eq.items() if type(value) is not Param}
    for conjunct in conjuncts:
        pinned = _const_equality(conjunct)
        if pinned is not None and type(pinned[1]) is not Param:
            column = access.out_map[schema.index_of(pinned[0])]
            if column is not None:
                pins.setdefault(column, pinned[1])
    return pins


def _summed_images(bucket: Mapping[Row, int], apply) -> dict[Row, int]:
    """A chain's images of one index bucket, copies of equal images summed."""
    summed: dict[Row, int] = {}
    for base_row, base_count in bucket.items():
        image = apply(base_row)
        if image is not None:
            summed[image] = summed.get(image, 0) + base_count
    return summed


class PEquiJoin(PNode):
    """``σ_p(E × F)`` with equality keys: hash join or index-probe join.

    At execute time the join picks the cheapest strategy available from
    the sizes it observes: if an operand is index-servable (see
    :class:`_JoinSide`), that side is served from a maintained hash
    index — its scan is skipped entirely — and the other side drives the
    probes; with two such operands the larger stored table is the one
    served.  Otherwise both operands are evaluated and hashed
    classically.  Both strategies sum the joined rows' copies into one
    counts dict, which :meth:`_compute` adopts as the result bag.
    """

    __slots__ = ("left", "right", "residual")

    def __init__(
        self,
        left: _JoinSide,
        right: _JoinSide,
        residual: Callable[[Row], bool] | None,
    ) -> None:
        super().__init__(frozenset(left.node.tables) | frozenset(right.node.tables))
        self.left = left
        self.right = right
        self.residual = residual

    def children(self):
        return (self.left.node, self.right.node)

    def runtime_empty(self, ctx) -> bool:
        return self.left.node.runtime_empty(ctx) or self.right.node.runtime_empty(ctx)

    def _index_side(self, ctx) -> _JoinSide | None:
        """The side to serve from an index (the larger stored table wins)."""
        left, right = self.left, self.right
        if not left.indexable:
            return right if right.indexable else None
        if not right.indexable:
            return left

        def distinct_rows(side: _JoinSide) -> int:
            # Probes and buckets are per distinct row, and distinct_count()
            # is O(1) where len() walks every multiplicity.
            table = ctx.state.get(side.access.table)
            return table.distinct_count() if table is not None else 0

        return left if distinct_rows(left) >= distinct_rows(right) else right

    def _compute(self, ctx) -> Bag:
        indexed = self._index_side(ctx)
        result = _adopt(self.hash_join(ctx) if indexed is None else self.probe_join(ctx, indexed))
        if indexed is None and ctx.counter is not None:
            ctx.counter.record("hash_join", len(result))
        return result

    @staticmethod
    def _note_base_scan(scanned: _JoinSide, size: int, other_size: int) -> None:
        """Report an operand evaluated in full though the other side is smaller."""
        if size > other_size and obs.telemetry_enabled():
            reason = scanned.scan_reason()
            if reason is not None:
                obs.metric_inc(f'join_base_scans{{reason="{reason}"}}')
                span = obs.current().tracer.active()
                if span is not None:
                    noted = span.attrs.setdefault("join_base_scans", {})
                    noted[reason] = noted.get(reason, 0) + 1

    def probe_join(self, ctx, indexed: _JoinSide) -> dict[Row, int]:
        """``indexed`` answered from its table's hash index, probed by the other side.

        A probe looks up its join key followed by the indexed side's
        pinned constants.  For a ``chain(R) ∸ D`` operand every image of
        a bucket is reduced by ``D``'s copies of it and floored at zero;
        a chain with steps sums the bucket's images first (a projection
        or a map merges base rows).  When ``D`` is empty at run time this
        is the plain probe.  The index is brought current inside
        ``IndexManager.get``, under its lock, before the first lookup.
        Over a key-restricted ``R`` only probes carrying a bound key are
        looked up: the bucket of such a key is its slice of ``σ_K(R)``.
        """
        probe = self.right if indexed is self.left else self.left
        access = indexed.access
        base = ctx.table(access.table)
        index = ctx.indexes.get(access.table, indexed.base_key_positions, base, counter=ctx.counter)
        minus = None
        if indexed.minus is not None and not indexed.minus.runtime_empty(ctx):
            minus = indexed.minus.execute(ctx)
        patched = bool(minus)
        probe_bag = probe.node.execute(ctx)
        self._note_base_scan(probe, probe_bag.distinct_count(), base.distinct_count())
        probe_key = probe.key_of
        pinned = indexed.pinned
        probe_filter = probe.side_filter
        indexed_filter = indexed.side_filter
        apply = None if access.identity else access.apply
        # D is consulted image by image: an identity chain's images are
        # the bucket's rows, any other chain's are summed per bucket first.
        subtract = minus.multiplicity if patched else None
        merged = patched and apply is not None
        mapped = apply is not None and not patched
        lookup = index.lookup
        residual = self.residual
        left_is_probe = probe is self.left
        bound = bound_position = None
        if indexed.restrict_slot is not None:
            bound = ctx.keys_of(access.restrict.domain)
            bound_position = probe.key_positions[indexed.restrict_slot]
        counts: dict[Row, int] = {}
        probes = 0
        examined = 0
        for probe_row, probe_count in probe_bag.items():
            if probe_filter is not None and not probe_filter(probe_row):
                continue
            if bound is not None and probe_row[bound_position] not in bound:
                continue
            probes += 1
            bucket = lookup(probe_key(probe_row) + pinned)
            if not bucket:
                continue
            examined += len(bucket)
            if merged:
                bucket = _summed_images(bucket, apply)
            for image, count in bucket.items():
                if mapped:
                    image = apply(image)
                    if image is None:
                        continue
                if subtract is not None:
                    count -= subtract(image)
                    if count <= 0:
                        continue
                if indexed_filter is not None and not indexed_filter(image):
                    continue
                joined = probe_row + image if left_is_probe else image + probe_row
                if residual is not None and not residual(joined):
                    continue
                counts[joined] = counts.get(joined, 0) + probe_count * count
        if ctx.counter is not None:
            ctx.counter.record_probes("index_probe", probes)
            ctx.counter.record("index_join_patched" if patched else "index_join", examined)
        return counts

    def hash_join(self, ctx) -> dict[Row, int]:
        """Both operands evaluated; the smaller one hashed, the larger probing it.

        Cost charges are symmetric (inputs are charged at the child
        nodes, the caller charges the join's output — same convention as
        the interpreted path), so the build side is chosen for wall-clock
        only.
        """
        left_bag = self.left.node.execute(ctx)
        right_bag = self.right.node.execute(ctx)
        left_size, right_size = left_bag.distinct_count(), right_bag.distinct_count()
        self._note_base_scan(self.left, left_size, right_size)
        self._note_base_scan(self.right, right_size, left_size)
        build_left = left_size < right_size
        build, probe = (self.left, self.right) if build_left else (self.right, self.left)
        build_bag, probe_bag = (left_bag, right_bag) if build_left else (right_bag, left_bag)
        build_key, build_filter = build.key_of, build.side_filter
        probe_key, probe_filter = probe.key_of, probe.side_filter
        buckets: dict[tuple, list[tuple[Row, int]]] = {}
        for row, count in build_bag.items():
            if build_filter is not None and not build_filter(row):
                continue
            key = build_key(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [(row, count)]
            else:
                bucket.append((row, count))
        residual = self.residual
        counts: dict[Row, int] = {}
        for row, count in probe_bag.items():
            if probe_filter is not None and not probe_filter(row):
                continue
            matches = buckets.get(probe_key(row))
            if not matches:
                continue
            for other_row, other_count in matches:
                joined = other_row + row if build_left else row + other_row
                if residual is not None and not residual(joined):
                    continue
                counts[joined] = counts.get(joined, 0) + count * other_count
        return counts


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def _bind_all(conjuncts: list[Predicate], schema: Schema) -> Callable[[Row], bool] | None:
    """The conjunction of ``conjuncts`` bound against ``schema`` (``None`` if none)."""
    if not conjuncts:
        return None
    predicate = conjuncts[0]
    for extra in conjuncts[1:]:
        predicate = And(predicate, extra)
    return predicate.bind(schema)


class Compiler:
    """Lowers expressions to physical plans, sharing nodes structurally.

    The node table is shared with the owning executor, so structurally
    equal subexpressions — within one plan or across plans for different
    views — compile to the *same* node object and therefore share one
    version-stamped result memo.
    """

    def __init__(self, nodes: dict[Expr, PNode]) -> None:
        self._nodes = nodes

    def compile(self, expr: Expr) -> PNode:
        node = self._nodes.get(expr)
        if node is None:
            node = self._build(expr)
            if isinstance(expr, Select):
                node.binds += tuple(name for name in param_names(expr.predicate) if name not in node.binds)
            elif isinstance(expr, MapProject):
                node.binds += tuple(name for name in param_names(*expr.terms) if name not in node.binds)
            for child in node.children():
                node.binds += tuple(name for name in child.binds if name not in node.binds)
                node.leaves += tuple(leaf for leaf in child.leaves if leaf not in node.leaves)
            node.by_value = bool(node.binds) and all(map(is_param_name, node.binds))
            self._nodes[expr] = node
        return node

    def _build(self, expr: Expr) -> PNode:
        pruned = self._prune(expr)
        if pruned is not None:
            return pruned
        if isinstance(expr, TableRef):
            return PScan(expr.name)
        if isinstance(expr, Literal):
            return PLiteral(expr.bag)
        if isinstance(expr, Bound):
            return PBound(expr)
        if isinstance(expr, Parameterized):
            # Nested in a larger expression: its values are its own.
            return self.compile(expr.resolved())
        if isinstance(expr, (Select, Project, MapProject, KeyRestrict)):
            if isinstance(expr, Select) and isinstance(expr.child, Product):
                join = self._build_equijoin(expr, expr.child)
                if join is not None:
                    return join
            access = source_access(expr)
            if access is not None:
                # A chain that pins base columns to constants is one
                # index probe, whichever of σ/Π/map is its root (over a
                # key restriction the bound keys' buckets are narrower).
                probed = access.const_eq and access.restrict is None
                return PIndexSelect(access) if probed else PPipeline(access)
        if isinstance(expr, Select):
            predicate = expr.predicate.bind(expr.child.schema())
            return PFilter(self.compile(expr.child), predicate)
        if isinstance(expr, Project):
            return self._build_project(expr)
        if isinstance(expr, MapProject):
            child_schema = expr.child.schema()
            functions = tuple(term.bind(child_schema) for term in expr.terms)
            return PMap(self.compile(expr.child), functions)
        if isinstance(expr, DupElim):
            return PDedup(self.compile(expr.child))
        if isinstance(expr, UnionAll):
            return PUnionAll(self.compile(expr.left), self.compile(expr.right))
        if isinstance(expr, Monus):
            probe_table = expr.right.name if isinstance(expr.right, TableRef) else None
            return PMonus(self.compile(expr.left), self.compile(expr.right), probe_table)
        if isinstance(expr, Product):
            return PProduct(self.compile(expr.left), self.compile(expr.right))
        raise ReproError(f"unknown expression node: {type(expr).__name__}")

    def _prune(self, expr: Expr) -> PNode | None:
        """Statically-derived plan simplifications.

        Uses the conservative property engine
        (:mod:`repro.analysis.properties`): expressions provably empty
        in every state compile to a literal; ∸/⊎ drop provably-empty
        operands; a ``min`` guard the classifier proves redundant
        (:math:`X \\min Y` with :math:`X \\subseteq Y`) collapses to its
        left operand.  The physical plan is memoized under the
        *original* expression, so plan-cache keys are unchanged.
        """
        from repro.analysis.properties import always_empty, redundant_min_guard

        if not isinstance(expr, Literal) and always_empty(expr):
            return PLiteral(Bag.empty())
        if isinstance(expr, (UnionAll, Monus)):
            collapsed = redundant_min_guard(expr)
            if collapsed is not None:
                return self.compile(collapsed)
            if always_empty(expr.right):
                return self.compile(expr.left)
            if isinstance(expr, UnionAll) and always_empty(expr.left):
                return self.compile(expr.right)
        return None

    # -- equi-joins ----------------------------------------------------

    def _build_equijoin(self, expr: Select, product: Product) -> PNode | None:
        schema = product.schema()
        left_arity = product.left.schema().arity
        keys, residual = _equijoin_keys(expr.predicate, schema, left_arity)
        if not keys:
            return None
        left_only: list[Predicate] = []
        right_only: list[Predicate] = []
        cross: list[Predicate] = []
        for conjunct in residual:
            positions = [schema.index_of(name) for name in conjunct.attributes()]
            if positions and all(position < left_arity for position in positions):
                left_only.append(conjunct)
            elif positions and all(position >= left_arity for position in positions):
                right_only.append(conjunct)
            else:
                cross.append(conjunct)
        left_side = self._join_side(product.left, tuple(position for position, __ in keys), left_only)
        right_side = self._join_side(product.right, tuple(position for __, position in keys), right_only)
        return PEquiJoin(left_side, right_side, _bind_all(cross, schema))

    def _join_side(self, operand: Expr, key_positions: tuple[int, ...], conjuncts: list[Predicate]) -> _JoinSide:
        """One join operand, with ``conjuncts`` (the join's conjuncts over
        it alone) bound against its own schema as its side filter."""
        access = source_access(operand)
        minus = None
        if access is None and isinstance(operand, Monus):
            # ``chain(R) ∸ D``: still answerable from R's index.
            access = source_access(operand.left)
            if access is not None:
                minus = self.compile(operand.right)
        schema = operand.schema()
        pins = _pins(access, conjuncts, schema) if access is not None else {}
        return _JoinSide(self.compile(operand), key_positions, access, minus, _bind_all(conjuncts, schema), pins)

    # -- projections ---------------------------------------------------

    def _build_project(self, expr: Project) -> PNode:
        # Compose adjacent projections: Π_A(Π_B(E)) = Π_{B∘A}(E).
        positions = expr.positions()
        child: Expr = expr.child
        while isinstance(child, Project):
            inner = child.positions()
            positions = tuple(inner[position] for position in positions)
            child = child.child
        return PProject(self.compile(child), positions)
