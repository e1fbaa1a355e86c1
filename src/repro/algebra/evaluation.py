"""Evaluation of bag-algebra expressions against database states.

``evaluate(expr, state)`` computes :math:`Q(s)` for a state ``s`` given as
a mapping from table names to :class:`~repro.algebra.bag.Bag` values.

Two production concerns are handled here rather than in the AST:

* **Common-subexpression memoization.**  The differential rewrite of
  Figure 2 produces expressions with heavily shared subtrees (``E``,
  ``Del(η,E)`` and ``E ∸ Del(η,E)`` all appear repeatedly).  The
  evaluator memoizes on structural equality within one call, so each
  distinct subexpression is computed once.

* **Cost accounting.**  A :class:`CostCounter` tallies the number of
  tuples flowing through each operator.  Wall-clock timings on a laptop
  are noisy; the tuple-operation counts give the experiments a
  deterministic second signal, mirroring how the paper argues about
  per-transaction overhead and refresh work.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

from repro.algebra.bag import Bag, Row
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
    split_parameters,
)
from repro.algebra.predicates import PARAMS, And, Attr, Comparison, Predicate
from repro.errors import ReproError, SchemaError, UnknownTableError

__all__ = ["evaluate", "bound_bag", "CostCounter"]


@dataclass
class CostCounter:
    """Accumulates tuple-operation counts across evaluations.

    ``tuples_out`` counts tuples produced by every operator application
    (memoized hits are not recounted — shared work is shared).
    ``by_operator`` breaks the same total down per operator name.

    The compiled executor (:mod:`repro.exec`) additionally reports how
    its caches behaved: ``plan_hits``/``plan_misses`` count physical-plan
    cache lookups, ``memo_hits`` counts version-stamped subexpression
    results reused across ``evaluate`` calls, and ``index_probes`` counts
    hash-index key lookups (each probe is also charged one tuple-op under
    the probing operator, so ``tuples_out`` remains comparable between
    the interpreted and compiled paths).
    """

    tuples_out: int = 0
    evaluations: int = 0
    by_operator: dict[str, int] = field(default_factory=dict)
    plan_hits: int = 0
    plan_misses: int = 0
    memo_hits: int = 0
    index_probes: int = 0
    delta_cache_hits: int = 0
    partitions_touched: int = 0
    partition_prunes: int = 0
    partition_fallbacks: int = 0

    def record(self, operator: str, produced: int) -> None:
        self.tuples_out += produced
        self.evaluations += 1
        self.by_operator[operator] = self.by_operator.get(operator, 0) + produced

    def record_probes(self, operator: str, probes: int) -> None:
        """Charge ``probes`` index-key lookups against ``operator``."""
        self.index_probes += probes
        self.record(operator, probes)

    def record_partitions(self, touched: int) -> None:
        """Note that a partitioned apply touched ``touched`` partitions.

        Bookkeeping only — partition routing moves no tuples, so this
        does not feed ``tuples_out``.
        """
        self.partitions_touched += touched

    def record_prune(self, count: int = 1, *, fallback: bool = False) -> None:
        """Note ``count`` partition-pruning decisions on a maintenance plan."""
        if fallback:
            self.partition_fallbacks += count
        else:
            self.partition_prunes += count

    def snapshot(self) -> dict[str, object]:
        """A plain-dict summary (useful for report tables).

        Per-operator totals are nested under ``"operators"`` so they can
        never collide with the top-level keys.
        """
        return {
            "tuples_out": self.tuples_out,
            "evaluations": self.evaluations,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "memo_hits": self.memo_hits,
            "index_probes": self.index_probes,
            "delta_cache_hits": self.delta_cache_hits,
            "partitions_touched": self.partitions_touched,
            "partition_prunes": self.partition_prunes,
            "partition_fallbacks": self.partition_fallbacks,
            "operators": dict(self.by_operator),
        }

    def reset(self) -> None:
        self.tuples_out = 0
        self.evaluations = 0
        self.by_operator.clear()
        self.plan_hits = 0
        self.plan_misses = 0
        self.memo_hits = 0
        self.index_probes = 0
        self.delta_cache_hits = 0
        self.partitions_touched = 0
        self.partition_prunes = 0
        self.partition_fallbacks = 0


def evaluate(
    expr: Expr,
    state: Mapping[str, Bag],
    *,
    counter: CostCounter | None = None,
    memo: dict[Expr, Bag] | None = None,
    binding: Mapping[str, Collection] | None = None,
) -> Bag:
    """Evaluate ``expr`` in ``state`` and return the resulting bag.

    ``memo`` may be supplied to share memoized results across several
    ``evaluate`` calls against the *same* state (e.g. when a transaction
    evaluates many assignment right-hand sides simultaneously).
    ``binding`` is what the caller supplies per evaluation: the key set
    of each domain a :class:`KeyRestrict` leaf names, the bag of each
    :class:`Bound` leaf, the value of each parameter
    (:class:`~repro.algebra.predicates.Param`) under its name — one memo
    must not be shared across two bindings.  A
    :class:`~repro.algebra.expr.Parameterized` root brings its own values.
    Every bound leaf is held against the binding before anything is
    evaluated.

    .. warning::

        The memo is keyed by expression structure only — it knows nothing
        about which state produced an entry.  Reusing one ``memo`` dict
        across calls with *different* states returns stale results from
        the first state.  Callers must create a fresh memo per state (as
        :meth:`Database.apply` does).  For safe reuse *across* state
        changes, use the compiled executor (:mod:`repro.exec`), whose
        result cache is invalidated by per-table version stamps.
    """
    if memo is None:
        memo = {}
    expr, binding = split_parameters(expr, binding)
    if binding is None:
        return _eval(expr, state, counter, memo, binding)
    for node in expr.walk():
        if isinstance(node, Bound):
            bound_bag(node, binding)
    token = PARAMS.set(binding)
    try:
        return _eval(expr, state, counter, memo, binding)
    finally:
        PARAMS.reset(token)


def bound_bag(leaf: Bound, binding: Mapping[str, object] | None) -> Bag:
    """The bag the call's ``binding`` supplies for ``leaf``; fails closed."""
    bag = None if binding is None else binding.get(leaf.name)
    if not isinstance(bag, Bag):
        raise ReproError(
            f"{leaf} was evaluated without a bag bound to {leaf.name!r} (pass binding= to evaluate)"
        )
    if bag.arity is not None and bag.arity != leaf.bound_schema.arity:
        raise SchemaError(
            f"the bag bound to {leaf.name!r} has arity {bag.arity}, "
            f"the leaf's schema has arity {leaf.bound_schema.arity}"
        )
    return bag


# ----------------------------------------------------------------------
# Hash-join fast path
# ----------------------------------------------------------------------


def _conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten a conjunction into its conjuncts."""
    if isinstance(predicate, And):
        return _conjuncts(predicate.left) + _conjuncts(predicate.right)
    return [predicate]


def _equijoin_keys(
    predicate: Predicate, schema, left_arity: int
) -> tuple[list[tuple[int, int]], list[Predicate]]:
    """Split a predicate into cross-operand equality keys and a residual.

    Each key is ``(left_position, right_position)`` with the right
    position relative to the right operand.  Conjuncts that are not
    attribute equalities spanning the two operands stay in the residual.
    """
    keys: list[tuple[int, int]] = []
    residual: list[Predicate] = []
    for conjunct in _conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        ):
            try:
                first = schema.index_of(conjunct.left.name)
                second = schema.index_of(conjunct.right.name)
            except SchemaError:  # ambiguous in the joint schema: leave it
                residual.append(conjunct)
                continue
            if first < left_arity <= second:
                keys.append((first, second - left_arity))
                continue
            if second < left_arity <= first:
                keys.append((second, first - left_arity))
                continue
        residual.append(conjunct)
    return keys, residual


def _hash_join(
    expr: Select,
    product: Product,
    state: Mapping[str, Bag],
    counter: CostCounter | None,
    memo: dict[Expr, Bag],
    binding: Mapping[str, Collection] | None,
) -> Bag | None:
    """Evaluate ``σ_p(E × F)`` as a hash join when ``p`` has equi-keys.

    Returns ``None`` when no cross-operand equality exists (caller falls
    back to materializing the product).  Cost model: inputs plus the
    *join output* — and when the build side is a stored (indexable)
    table while the probe side is not, the build side's scan is not
    charged at all; the recorded ``probe`` cost is one unit per probe
    key, as an indexed nested-loop join would pay.
    """
    schema = product.schema()
    left_arity = product.left.schema().arity
    keys, residual = _equijoin_keys(expr.predicate, schema, left_arity)
    if not keys:
        return None

    left = _eval(product.left, state, counter, memo, binding)
    right = _eval(product.right, state, counter, memo, binding)
    left_positions = tuple(position for position, __ in keys)
    right_positions = tuple(position for __, position in keys)

    buckets: dict[tuple, list[tuple[Row, int]]] = {}
    for row, count in right.items():
        buckets.setdefault(tuple(row[position] for position in right_positions), []).append((row, count))

    residual_check = None
    if residual:
        residual_predicate = residual[0]
        for extra in residual[1:]:
            residual_predicate = And(residual_predicate, extra)
        residual_check = residual_predicate.bind(schema)

    counts: dict[Row, int] = {}
    for left_row, left_count in left.items():
        bucket = buckets.get(tuple(left_row[position] for position in left_positions))
        if not bucket:
            continue
        for right_row, right_count in bucket:
            joined = left_row + right_row
            if residual_check is not None and not residual_check(joined):
                continue
            counts[joined] = counts.get(joined, 0) + left_count * right_count
    result = Bag(counts=counts)
    if counter is not None:
        counter.record("hash_join", len(result))
    return result


def _runtime_empty(expr: Expr, state: Mapping[str, Bag], binding=None) -> bool:
    """Conservatively decide, without evaluating, that ``expr`` is empty.

    This models executor short-circuiting: a nested-loop or hash join
    whose outer operand is an empty (log) table never touches the inner
    operand.  Only emptiness provable from literals, bound bags and
    current table sizes is used; ``False`` means "unknown".
    """
    if isinstance(expr, Literal):
        return not expr.bag
    if isinstance(expr, Bound):
        return not bound_bag(expr, binding)
    if isinstance(expr, TableRef):
        value = state.get(expr.name)
        return value is not None and not value
    if isinstance(expr, (Select, Project, MapProject, DupElim, KeyRestrict)):
        return _runtime_empty(expr.child, state, binding)
    if isinstance(expr, Parameterized):
        return _runtime_empty(expr.query, state, binding)
    if isinstance(expr, Product):
        return _runtime_empty(expr.left, state, binding) or _runtime_empty(expr.right, state, binding)
    if isinstance(expr, Monus):
        return _runtime_empty(expr.left, state, binding)
    if isinstance(expr, UnionAll):
        return _runtime_empty(expr.left, state, binding) and _runtime_empty(expr.right, state, binding)
    return False


def _eval(
    expr: Expr,
    state: Mapping[str, Bag],
    counter: CostCounter | None,
    memo: dict[Expr, Bag],
    binding: Mapping[str, Collection] | None = None,
) -> Bag:
    cached = memo.get(expr)
    if cached is not None:
        return cached

    if not isinstance(expr, (TableRef, Literal, Bound)) and _runtime_empty(expr, state, binding):
        result = Bag.empty()
        memo[expr] = result
        return result

    if isinstance(expr, TableRef):
        try:
            result = state[expr.name]
        except KeyError:
            raise UnknownTableError(f"table {expr.name!r} is not present in the database state") from None
        if counter is not None:
            counter.record("scan", len(result))
    elif isinstance(expr, Literal):
        result = expr.bag
        if counter is not None:
            counter.record("literal", len(result))
    elif isinstance(expr, Bound):
        # The caller's bag stands where a literal would: same charge.
        result = bound_bag(expr, binding)
        if counter is not None and not expr.counted:
            counter.record("literal", len(result))
    elif isinstance(expr, KeyRestrict):
        if binding is None:
            raise ReproError(f"{expr} was evaluated without a key binding")
        bound = binding.get(expr.domain, ())
        position = expr.position
        child = _eval(expr.child, state, counter, memo, binding)
        result = child.select(lambda row: row[position] in bound)
        if counter is not None:
            counter.record("select", len(result))
    elif isinstance(expr, Select):
        result = None
        if isinstance(expr.child, Product) and expr.child not in memo:
            result = _hash_join(expr, expr.child, state, counter, memo, binding)
        if result is None:
            child = _eval(expr.child, state, counter, memo, binding)
            predicate = expr.predicate.bind(expr.child.schema())
            result = child.select(predicate)
            if counter is not None:
                counter.record("select", len(result))
    elif isinstance(expr, Project):
        child = _eval(expr.child, state, counter, memo, binding)
        result = child.project(expr.positions())
        if counter is not None:
            counter.record("project", len(result))
    elif isinstance(expr, MapProject):
        child = _eval(expr.child, state, counter, memo, binding)
        functions = [term.bind(expr.child.schema()) for term in expr.terms]
        counts: dict[Row, int] = {}
        for row, count in child.items():
            image = tuple(function(row) for function in functions)
            counts[image] = counts.get(image, 0) + count
        result = Bag(counts=counts)
        if counter is not None:
            counter.record("map", len(result))
    elif isinstance(expr, DupElim):
        child = _eval(expr.child, state, counter, memo, binding)
        result = child.dedup()
        if counter is not None:
            counter.record("dedup", len(result))
    elif isinstance(expr, UnionAll):
        left = _eval(expr.left, state, counter, memo, binding)
        right = _eval(expr.right, state, counter, memo, binding)
        result = left.union_all(right)
        if counter is not None:
            counter.record("union_all", len(result))
    elif isinstance(expr, Monus):
        if _runtime_empty(expr.right, state, binding):
            # ``E ∸ φ`` is ``E``: an executor skips the anti-join entirely.
            result = _eval(expr.left, state, counter, memo, binding)
            memo[expr] = result
            return result
        left = _eval(expr.left, state, counter, memo, binding)
        if isinstance(expr.right, TableRef) and expr.right not in memo:
            # Probe optimization: ``E ∸ R`` needs only per-row lookups in
            # the stored (hashed) table, not a scan — a real engine would
            # probe R's index once per row of E.  Cost: the probes.
            try:
                right = state[expr.right.name]
            except KeyError:
                raise UnknownTableError(
                    f"table {expr.right.name!r} is not present in the database state"
                ) from None
            if counter is not None:
                counter.record("probe", left.distinct_count())
        else:
            right = _eval(expr.right, state, counter, memo, binding)
        result = left.monus(right)
        if counter is not None:
            counter.record("monus", len(result))
    elif isinstance(expr, Product):
        left = _eval(expr.left, state, counter, memo, binding)
        right = _eval(expr.right, state, counter, memo, binding)
        result = left.product(right)
        if counter is not None:
            counter.record("product", len(result))
    elif isinstance(expr, Parameterized):
        # Nested in a larger expression: its values are its own, not the call's.
        result = _eval(expr.resolved(), state, counter, memo, binding)
    else:
        raise ReproError(f"unknown expression node: {type(expr).__name__}")

    memo[expr] = result
    return result
