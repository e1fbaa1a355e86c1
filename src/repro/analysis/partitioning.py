"""Partition pruning for maintenance plans (RVM7xx).

Given the partition layout of the base tables
(:class:`~repro.storage.partition.PartitionSpec`), this module rewrites
a delta expression — once, when the view is installed — so that every
reference to a partitioned base table whose partition-key column is
*bounded* by the pending delta is replaced by a key-restricted leaf
(:class:`~repro.algebra.expr.KeyRestrict`): the rows carrying an
affected key only.  The affected-key set itself is not in the plan; each
maintenance epoch binds it when it evaluates, and then touches work
proportional to the delta, not the database.

The analysis is static and conservative, the same stance as the
property engine (:mod:`repro.analysis.properties`):

* a position is **bounded** when every value it can take lies in the
  affected-key set of some partition domain.  The key columns of the
  maintenance-log leaves are bounded by construction (the log *is* the
  delta); equality conjuncts of an enclosing selection spread
  boundedness across their equivalence class, positionally remapped
  through projections and products;
* a reference to partitioned table ``R`` whose key column feeds a
  bounded position may be replaced by :math:`\\sigma_{key \\in K}(R)`,
  ``K`` being whatever affected-key set the epoch binds to the domain.
  The substitution is *per occurrence*; every operator on the path
  (σ, Π positional, map over attributes, ε, ⊎ both sides, ∸ left
  side, ×) preserves row-level values, so rows dropped by the
  restriction could never have survived the bounding equality above;
* any occurrence the rewrite cannot restrict leaves the plan on the
  whole-table **fallback** path — reported, never guessed at.

Diagnostics:

* **RVM701** — a maintenance plan for a view over partitioned tables
  falls back to whole-table scans (partition-key drift: the view's
  predicates/joins do not bound the declared key);
* **RVM702** — tables declared in the same partition domain have
  drifted layouts (scheme/parts/bounds differ), so co-partitioned
  per-partition maintenance is unsound for them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.algebra.evaluation import _conjuncts
from repro.algebra.expr import (
    DupElim,
    Expr,
    KeyRestrict,
    MapProject,
    Monus,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
)
from repro.algebra.predicates import Attr, Comparison
from repro.errors import SchemaError

__all__ = [
    "PartitionPlan",
    "RewriteResult",
    "analyze_deltas",
    "key_positions",
    "prune_expr",
    "partition_lint",
]

@dataclass
class _Info:
    """Per-node analysis state threaded through the rewrite."""

    expr: Expr
    #: position -> domain whose affected-key set bounds the values there.
    bounded: dict[int, str] = field(default_factory=dict)
    #: position -> domain whose partition key the column carries verbatim.
    keyed: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class RewriteResult:
    """Outcome of pruning one delta expression."""

    expr: Expr
    #: partitioned-table references replaced by key-restricted leaves.
    prunes: int
    #: partitioned tables still referenced whole (fallback scans).
    fallbacks: tuple[str, ...]

    @property
    def prunable(self) -> bool:
        return not self.fallbacks


@dataclass(frozen=True)
class PartitionPlan:
    """Static install-time verdict for one view's maintenance deltas."""

    prunable: bool
    fallbacks: tuple[str, ...]
    domains: tuple[str, ...]
    #: pairs of same-domain tables whose layouts drifted apart.
    mismatched: tuple[tuple[str, str], ...]
    #: the pruned deltas, in the order given — what every epoch
    #: evaluates under its key binding.
    deltas: tuple[Expr, ...] = ()
    #: key-restricted base-table references across ``deltas``.
    prunes: int = 0


class _Rewriter:
    def __init__(self, specs: Mapping[str, object], log_map: Mapping[str, str]) -> None:
        self.specs = specs
        self.log_map = log_map
        self.prunes = 0

    # -- entry ----------------------------------------------------------

    def rewrite(self, expr: Expr) -> _Info:
        return self._rewrite(expr, ())

    # -- recursive walk -------------------------------------------------

    def _rewrite(self, expr: Expr, ambient: tuple[frozenset[int], ...]) -> _Info:
        """Rewrite ``expr``; ``ambient`` holds equality classes (in this
        node's coordinates) contributed by enclosing selections, so a
        bound spreads through an inner selection's equalities too."""
        if isinstance(expr, TableRef):
            return self._rewrite_leaf(expr)
        if isinstance(expr, Select):
            return self._rewrite_select(expr, ambient)
        if isinstance(expr, Project):
            return self._rewrite_project(expr, ambient)
        if isinstance(expr, MapProject):
            return self._rewrite_map(expr, ambient)
        if isinstance(expr, DupElim):
            info = self._rewrite(expr.child, ambient)
            return _Info(DupElim(info.expr), info.bounded, info.keyed)
        if isinstance(expr, UnionAll):
            return self._rewrite_union(expr, ambient)
        if isinstance(expr, Monus):
            return self._rewrite_monus(expr, ambient)
        if isinstance(expr, Product):
            return self._rewrite_product(expr, ambient)
        return _Info(expr)

    # -- leaves ---------------------------------------------------------

    def _rewrite_leaf(self, ref: TableRef) -> _Info:
        base = self.log_map.get(ref.name)
        if base is not None:
            spec = self.specs.get(base)
            if spec is None:
                return _Info(ref)
            marks = {spec.position: spec.domain}
            return _Info(ref, marks, dict(marks))
        spec = self.specs.get(ref.name)
        if spec is not None:
            return _Info(ref, {}, {spec.position: spec.domain})
        return _Info(ref)

    # -- selections -----------------------------------------------------

    def _rewrite_select(self, node: Select, ambient: tuple[frozenset[int], ...]) -> _Info:
        schema = node.child.schema()
        classes = _equality_classes(node.predicate, schema)
        merged = _merge_classes(ambient, classes)
        info = self._rewrite(node.child, merged)
        bounded = dict(info.bounded)
        keyed = dict(info.keyed)
        # Saturate: equality spreads both bounds and key-carrying.
        for group in merged:
            domains = {bounded[p] for p in group if p in bounded}
            for domain in domains:
                for position in group:
                    bounded.setdefault(position, domain)
            key_domains = {keyed[p] for p in group if p in keyed}
            for domain in key_domains:
                for position in group:
                    keyed.setdefault(position, domain)
        child = info.expr
        for position, domain in bounded.items():
            child = self._push(child, position, domain)
        return _Info(Select(node.predicate, child), bounded, keyed)

    # -- structure-preserving nodes -------------------------------------

    def _rewrite_project(self, node: Project, ambient: tuple[frozenset[int], ...]) -> _Info:
        positions = node.positions()
        child_ambient = tuple(
            frozenset(positions[p] for p in group) for group in ambient
        )
        info = self._rewrite(node.child, child_ambient)
        bounded = {
            out: info.bounded[src]
            for out, src in enumerate(positions)
            if src in info.bounded
        }
        keyed = {
            out: info.keyed[src]
            for out, src in enumerate(positions)
            if src in info.keyed
        }
        return _Info(Project(node.attrs, info.expr, node.names), bounded, keyed)

    def _rewrite_map(self, node: MapProject, ambient: tuple[frozenset[int], ...]) -> _Info:
        child_schema = node.child.schema()
        # Output position -> child position, for identity (Attr) terms only.
        out_to_child: dict[int, int] = {}
        for out, term in enumerate(node.terms):
            if isinstance(term, Attr):
                try:
                    out_to_child[out] = child_schema.index_of(term.name)
                except SchemaError:
                    continue
        child_ambient = tuple(
            frozenset(out_to_child[p] for p in group if p in out_to_child)
            for group in ambient
        )
        info = self._rewrite(node.child, child_ambient)
        bounded = {
            out: info.bounded[src]
            for out, src in out_to_child.items()
            if src in info.bounded
        }
        keyed = {
            out: info.keyed[src]
            for out, src in out_to_child.items()
            if src in info.keyed
        }
        return _Info(MapProject(node.terms, info.expr, node.names), bounded, keyed)

    # -- binary nodes ---------------------------------------------------

    def _rewrite_union(self, node: UnionAll, ambient: tuple[frozenset[int], ...]) -> _Info:
        left = self._rewrite(node.left, ambient)
        right = self._rewrite(node.right, ambient)
        bounded = _positional_meet(left.bounded, right.bounded)
        keyed = _positional_meet(left.keyed, right.keyed)
        return _Info(UnionAll(left.expr, right.expr), bounded, keyed)

    def _rewrite_monus(self, node: Monus, ambient: tuple[frozenset[int], ...]) -> _Info:
        left = self._rewrite(node.left, ambient)
        right = self._rewrite(node.right, ambient)
        # Result rows are a subbag of the left operand's rows.
        return _Info(Monus(left.expr, right.expr), dict(left.bounded), dict(left.keyed))

    def _rewrite_product(self, node: Product, ambient: tuple[frozenset[int], ...]) -> _Info:
        left_arity = node.left.schema().arity
        left_ambient = tuple(
            frozenset(p for p in group if p < left_arity) for group in ambient
        )
        right_ambient = tuple(
            frozenset(p - left_arity for p in group if p >= left_arity)
            for group in ambient
        )
        left = self._rewrite(node.left, left_ambient)
        right = self._rewrite(node.right, right_ambient)
        bounded = dict(left.bounded)
        keyed = dict(left.keyed)
        for position, domain in right.bounded.items():
            bounded[position + left_arity] = domain
        for position, domain in right.keyed.items():
            keyed[position + left_arity] = domain
        return _Info(Product(left.expr, right.expr), bounded, keyed)

    # -- restriction push-down ------------------------------------------

    def _push(self, expr: Expr, position: int, domain: str) -> Expr:
        """Replace partitioned-table references feeding ``position`` with
        key-restricted leaves.  Non-matching shapes return unchanged."""
        if isinstance(expr, TableRef):
            if expr.name in self.log_map:
                return expr
            spec = self.specs.get(expr.name)
            if spec is not None and spec.position == position:
                self.prunes += 1
                return KeyRestrict(expr, position, domain)
            return expr
        if isinstance(expr, Select):
            child = self._push(expr.child, position, domain)
            return expr if child is expr.child else Select(expr.predicate, child)
        if isinstance(expr, Project):
            source = expr.positions()[position]
            child = self._push(expr.child, source, domain)
            return expr if child is expr.child else Project(expr.attrs, child, expr.names)
        if isinstance(expr, MapProject):
            term = expr.terms[position]
            if not isinstance(term, Attr):
                return expr
            try:
                source = expr.child.schema().index_of(term.name)
            except SchemaError:
                return expr
            child = self._push(expr.child, source, domain)
            return expr if child is expr.child else MapProject(expr.terms, child, expr.names)
        if isinstance(expr, DupElim):
            child = self._push(expr.child, position, domain)
            return expr if child is expr.child else DupElim(child)
        if isinstance(expr, UnionAll):
            left = self._push(expr.left, position, domain)
            right = self._push(expr.right, position, domain)
            if left is expr.left and right is expr.right:
                return expr
            return UnionAll(left, right)
        if isinstance(expr, Monus):
            # sigma_K(A - B) = sigma_K(A) - B: monus matches whole rows,
            # so restricting only the left side is sound.
            left = self._push(expr.left, position, domain)
            return expr if left is expr.left else Monus(left, expr.right)
        if isinstance(expr, Product):
            left_arity = expr.left.schema().arity
            if position < left_arity:
                left = self._push(expr.left, position, domain)
                return expr if left is expr.left else Product(left, expr.right)
            right = self._push(expr.right, position - left_arity, domain)
            return expr if right is expr.right else Product(expr.left, right)
        return expr


def _equality_classes(predicate, schema) -> tuple[frozenset[int], ...]:
    """Equivalence classes of positions under the predicate's top-level
    attribute equalities (conjuncts that fail to resolve are skipped)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for conjunct in _conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        ):
            try:
                left = schema.index_of(conjunct.left.name)
                right = schema.index_of(conjunct.right.name)
            except SchemaError:
                continue
            parent.setdefault(left, left)
            parent.setdefault(right, right)
            union(left, right)
    groups: dict[int, set[int]] = {}
    for position in parent:
        groups.setdefault(find(position), set()).add(position)
    return tuple(frozenset(group) for group in groups.values() if len(group) > 1)


def _merge_classes(
    first: tuple[frozenset[int], ...], second: tuple[frozenset[int], ...]
) -> tuple[frozenset[int], ...]:
    """Union-merge two collections of equivalence classes."""
    merged: list[set[int]] = []
    for group in (*first, *second):
        if not group:
            continue
        hits = [existing for existing in merged if existing & group]
        for hit in hits:
            merged.remove(hit)
        combined = set(group)
        for hit in hits:
            combined |= hit
        merged.append(combined)
    return tuple(frozenset(group) for group in merged)


def _positional_meet(left: dict[int, str], right: dict[int, str]) -> dict[int, str]:
    return {
        position: domain
        for position, domain in left.items()
        if right.get(position) == domain
    }


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def _whole_tables(expr: Expr) -> set[str]:
    """Tables ``expr`` still reads whole (not under a key restriction)."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, TableRef):
            names.add(node.name)
        elif not isinstance(node, KeyRestrict):
            stack.extend(node.children())
    return names


def prune_expr(
    expr: Expr,
    specs: Mapping[str, object],
    log_map: Mapping[str, str],
) -> RewriteResult:
    """Rewrite one delta expression with partition pruning.

    ``specs`` maps base-table names to their partition specs; ``log_map``
    maps maintenance-log table names to the base table they record.  The
    result reads each prunable base table through a key-restricted leaf
    whose key set the evaluating epoch binds per partition domain; the
    log leaves are delta-sized already and stay whole.
    """
    rewriter = _Rewriter(specs, log_map)
    info = rewriter.rewrite(expr)
    fallbacks = tuple(sorted(_whole_tables(info.expr) & set(specs)))
    return RewriteResult(info.expr, rewriter.prunes, fallbacks)


def key_positions(expr: Expr, specs: Mapping[str, object]) -> dict[int, str]:
    """Output positions of ``expr`` that carry a partition key, by domain.

    Used to locate the materialized view's own partition-key column, so
    the MV can be co-declared and patched partition-by-partition.
    """
    return dict(_Rewriter(specs, {}).rewrite(expr).keyed)


def analyze_deltas(
    deltas: Iterable[Expr],
    specs: Mapping[str, object],
    log_map: Mapping[str, str],
) -> PartitionPlan:
    """Static install-time verdict over a view's maintenance deltas, and
    the pruned plan itself.

    Reports whether every partitioned reference prunes, which domains
    are involved, and any layout drift among same-domain tables;
    ``deltas`` are the rewritten expressions every later epoch evaluates
    under its key binding.
    """
    results = [prune_expr(delta, specs, log_map) for delta in deltas]
    fallbacks = {name for result in results for name in result.fallbacks}
    domains = tuple(sorted({spec.domain for spec in specs.values()}))
    mismatched: list[tuple[str, str]] = []
    by_domain: dict[str, list] = {}
    for name in sorted(specs):
        by_domain.setdefault(specs[name].domain, []).append(name)
    for names in by_domain.values():
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                if not specs[first].co_partitioned(specs[second]):
                    mismatched.append((first, second))
    # Every specced reference either prunes or lands in ``fallbacks``,
    # so no fallbacks means the rewrite is complete — including
    # vacuously, when the deltas never reference a partitioned table
    # whole (single-table views: the deltas are log-only and already
    # delta-proportional, so partition-at-a-time apply is sound).
    return PartitionPlan(
        not fallbacks,
        tuple(sorted(fallbacks)),
        domains,
        tuple(mismatched),
        tuple(result.expr for result in results),
        sum(result.prunes for result in results),
    )


def partition_lint(view, db, report) -> None:
    """Append RVM701/RVM702 findings for a view on a partitioned database.

    No-op unless ``db`` declares partition specs covering at least one
    base table of the view.  Builds the view's deferred-maintenance
    deltas (the same ones the scenarios evaluate) and runs the static
    pruning analysis on them.
    """
    specs_of = getattr(db, "partition_spec", None)
    if specs_of is None:
        return
    base_tables = sorted(view.query.tables())
    specs = {}
    for name in base_tables:
        spec = specs_of(name)
        if spec is not None:
            specs[name] = spec
    if not specs:
        return
    from repro.core.differential import post_update_delta
    from repro.core.logs import Log

    # Install the probe log on a scratch clone so linting never mutates
    # the live catalog (bags are shared, so the clone is cheap).
    scratch = db.clone()
    log = Log(scratch, base_tables, owner=f"__lint__{view.name}")
    log.install()
    log_map = {log.delete_ref(name).name: name for name in base_tables}
    log_map.update({log.insert_ref(name).name: name for name in base_tables})
    delete, insert = post_update_delta(log, view.query, assume_weakly_minimal_log=True)
    plan = analyze_deltas((delete, insert), specs, log_map)
    for first, second in plan.mismatched:
        from repro.analysis.diagnostics import Severity

        report.add(
            "RVM702",
            Severity.WARNING,
            f"tables {first!r} and {second!r} declare partition domain "
            f"{specs[first].domain!r} but their layouts drifted apart "
            "(scheme/parts/bounds differ) — co-partitioned maintenance "
            "is disabled for them",
            path=view.name,
        )
    if not plan.prunable:
        from repro.analysis.diagnostics import Severity

        drifted = ", ".join(plan.fallbacks) if plan.fallbacks else ", ".join(specs)
        report.add(
            "RVM701",
            Severity.WARNING,
            f"partition-key drift: maintenance of {view.name!r} cannot "
            f"prune partitions of [{drifted}] — the view's predicates/"
            "joins do not bound the declared partition key, so refresh "
            "falls back to whole-table scans",
            path=view.name,
        )
