"""The differential algorithm of Figure 2 and its two uses (Section 4).

Given a weakly minimal factored substitution :math:`\\eta` and a query
``Q``, :func:`differentiate` produces the pair of *incremental queries*
``(Del(η,Q), Add(η,Q))`` satisfying Theorem 2:

.. math::

    \\eta(Q) \\equiv (Q \\dot{-} \\mathrm{Del}(\\eta,Q))
                      \\uplus \\mathrm{Add}(\\eta,Q),
    \\qquad \\mathrm{Del}(\\eta,Q) \\subseteq Q .

The two specializations:

* **Pre-update** (immediate maintenance): with
  :math:`\\eta = \\widehat{\\mathcal{T}}`,
  :math:`\\nabla(\\mathcal{T},Q) = \\mathrm{Del}` and
  :math:`\\Delta(\\mathcal{T},Q) = \\mathrm{Add}`, evaluated *before*
  the transaction runs.

* **Post-update** (deferred maintenance): with
  :math:`\\eta = \\widehat{\\mathcal{L}}`, the roles flip via the
  Cancellation Lemma (Lemma 1):
  :math:`\\blacktriangledown(\\mathcal{L},Q) = \\mathrm{Add}(\\widehat{\\mathcal{L}},Q)`
  and
  :math:`\\blacktriangle(\\mathcal{L},Q) = Q \\min \\mathrm{Del}(\\widehat{\\mathcal{L}},Q)`,
  which simplifies to plain :math:`\\mathrm{Del}` when the log is weakly
  minimal.  Evaluating these in the current (post-update) state avoids
  the *state bug* of naively reusing pre-update deltas.

The rewrite aggressively folds empty deltas (an untouched subtree has
``Del = Add = φ``), so the incremental queries stay proportional to the
changed part of the query tree — this is what makes incremental refresh
cheaper than recomputation in practice.
"""

from __future__ import annotations

from repro.algebra.bag import Bag
from repro.algebra.expr import (
    Bound,
    DupElim,
    Expr,
    Literal,
    MapProject,
    Monus,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
    min_expr,
)
from repro.algebra.schema import Schema
from repro.core.logs import Log
from repro.core.substitution import FactoredSubstitution
from repro.core.timetravel import transaction_substitution
from repro.core.transactions import UserTransaction
from repro.errors import ReproError
from repro.storage.database import Database

__all__ = [
    "differentiate",
    "pre_update_delta",
    "post_update_delta",
    "strongly_minimal_pair",
]


# ----------------------------------------------------------------------
# Empty-folding smart constructors
# ----------------------------------------------------------------------


def _is_empty(expr: Expr) -> bool:
    return isinstance(expr, Literal) and not expr.bag


def _empty_like(expr: Expr) -> Literal:
    return Literal(Bag.empty(), expr.schema())


def _empty(schema: Schema) -> Literal:
    return Literal(Bag.empty(), schema)


def _union(left: Expr, right: Expr) -> Expr:
    if _FOLD:
        if _is_empty(left):
            return right
        if _is_empty(right):
            return left
    return UnionAll(left, right)


def _monus(left: Expr, right: Expr) -> Expr:
    if _FOLD:
        if _is_empty(left):
            return left
        if _is_empty(right):
            return left
    return Monus(left, right)


def _min(left: Expr, right: Expr) -> Expr:
    if _FOLD:
        if _is_empty(left):
            return left
        if _is_empty(right):
            return _empty_like(left)
    return min_expr(left, right)


def _product(left: Expr, right: Expr) -> Expr:
    if _FOLD and (_is_empty(left) or _is_empty(right)):
        return _empty(left.schema().concat(right.schema()))
    return Product(left, right)


def _select(predicate, child: Expr) -> Expr:
    if _FOLD and _is_empty(child):
        return child
    if _FOLD and isinstance(child, UnionAll):
        # σ distributes over ⊎.  The Del/Add of a product is a union of
        # products; pushing the selection inside leaves σ_p(E × F) forms
        # that the evaluator's hash-join fast path can execute without
        # materializing cross products.
        return _union(_select(predicate, child.left), _select(predicate, child.right))
    return Select(predicate, child)


def _project(template: Project, child: Expr) -> Expr:
    if _FOLD and _is_empty(child):
        return _empty(template.schema())
    return Project(template.attrs, child, template.names)


def _map(template: MapProject, child: Expr) -> Expr:
    if _FOLD and _is_empty(child):
        return _empty(template.schema())
    return MapProject(template.terms, child, template.names)


def _dedup(child: Expr) -> Expr:
    if _FOLD and _is_empty(child):
        return child
    return DupElim(child)


# ----------------------------------------------------------------------
# Figure 2: Del and Add
# ----------------------------------------------------------------------


def differentiate(
    eta: FactoredSubstitution,
    query: Expr,
    *,
    fold_empty: bool = True,
) -> tuple[Expr, Expr]:
    """Compute ``(Del(η, Q), Add(η, Q))`` per Figure 2.

    ``eta`` must be weakly minimal for Theorem 2 to hold; callers that
    cannot guarantee this should normalize with
    :meth:`FactoredSubstitution.weakly_minimal` first.

    The recursion is memoized per query node, and shared subtrees in the
    result reference identical expression objects, which the evaluator's
    structural memoization then computes once.

    ``fold_empty=False`` disables the statically-empty-delta folding and
    emits the Figure 2 rules verbatim — an ablation knob (experiment
    E12) quantifying how much the folding matters; correctness is
    unaffected either way.
    """
    global _FOLD
    memo: dict[Expr, tuple[Expr, Expr]] = {}
    previous = _FOLD
    _FOLD = fold_empty
    try:
        return _diff(eta, query, memo)
    finally:
        _FOLD = previous


#: Whether the smart constructors fold statically-empty operands.
_FOLD = True


def _diff(eta: FactoredSubstitution, query: Expr, memo: dict[Expr, tuple[Expr, Expr]]) -> tuple[Expr, Expr]:
    cached = memo.get(query)
    if cached is not None:
        return cached

    if isinstance(query, TableRef):
        if query.name in eta:
            result = (eta.delete_of(query.name), eta.insert_of(query.name))
        else:
            result = (_empty_like(query), _empty_like(query))
    elif isinstance(query, Literal):
        result = (_empty_like(query), _empty_like(query))
    elif isinstance(query, Select):
        child_del, child_add = _diff(eta, query.child, memo)
        result = (_select(query.predicate, child_del), _select(query.predicate, child_add))
    elif isinstance(query, Project):
        child_del, child_add = _diff(eta, query.child, memo)
        result = (_project(query, child_del), _project(query, child_add))
    elif isinstance(query, MapProject):
        # Per-row maps push through deltas exactly like projections
        # (see the MapProject docstring for the weak-minimality argument).
        child_del, child_add = _diff(eta, query.child, memo)
        result = (_map(query, child_del), _map(query, child_add))
    elif isinstance(query, DupElim):
        child = query.child
        child_del, child_add = _diff(eta, child, memo)
        remainder = _monus(child, child_del)  # E ∸ Del(η, E), shared by both rules
        # Del(η, ε(E)) = ε(Del(η,E)) ∸ (E ∸ Del(η,E))
        del_part = _monus(_dedup(child_del), remainder)
        # Add(η, ε(E)) = ε(Add(η,E)) ∸ (E ∸ Del(η,E))
        add_part = _monus(_dedup(child_add), remainder)
        result = (del_part, add_part)
    elif isinstance(query, UnionAll):
        left_del, left_add = _diff(eta, query.left, memo)
        right_del, right_add = _diff(eta, query.right, memo)
        result = (_union(left_del, right_del), _union(left_add, right_add))
    elif isinstance(query, Monus):
        left, right = query.left, query.right
        left_del, left_add = _diff(eta, left, memo)
        right_del, right_add = _diff(eta, right, memo)
        # Del(η, E∸F) = (Del(η,E) ⊎ Add(η,F)) min (E ∸ F)
        del_part = _min(_union(left_del, right_add), _monus(left, right))
        # Add(η, E∸F) = ((Add(η,E) ⊎ Del(η,F)) ∸ (F ∸ E))
        #                ∸ ((Del(η,E) ⊎ Add(η,F)) ∸ (E ∸ F))
        add_part = _monus(
            _monus(_union(left_add, right_del), _monus(right, left)),
            _monus(_union(left_del, right_add), _monus(left, right)),
        )
        result = (del_part, add_part)
    elif isinstance(query, Product):
        left, right = query.left, query.right
        left_del, left_add = _diff(eta, left, memo)
        right_del, right_add = _diff(eta, right, memo)
        left_rest_del = _monus(left, left_del)  # E ∸ Del(η,E)
        right_rest_del = _monus(right, right_del)  # F ∸ Del(η,F)
        # Del(η, E×F) = (DelE × DelF) ⊎ (DelE × (F∸DelF)) ⊎ ((E∸DelE) × DelF)
        del_part = _union(
            _union(_product(left_del, right_del), _product(left_del, right_rest_del)),
            _product(left_rest_del, right_del),
        )
        # Add(η, E×F) = (AddE × AddF) ⊎ (AddE × (F∸DelF)) ⊎ ((E∸DelE) × AddF)
        add_part = _union(
            _union(_product(left_add, right_add), _product(left_add, right_rest_del)),
            _product(left_rest_del, right_add),
        )
        result = (del_part, add_part)
    elif isinstance(query, Bound):
        # Whether the caller's bag changes under η is not ours to guess.
        raise ReproError(f"differentiate: the query holds the bound leaf {query}")
    else:
        raise ReproError(f"differentiate: unknown expression node {type(query).__name__}")

    memo[query] = result
    return result


# ----------------------------------------------------------------------
# Pre-update deltas: ∇(T, Q) and Δ(T, Q)
# ----------------------------------------------------------------------


def pre_update_delta(txn: UserTransaction, db: Database, query: Expr) -> tuple[Expr, Expr]:
    """Incremental queries for *immediate* maintenance.

    Returns :math:`(\\nabla(\\mathcal{T},Q), \\Delta(\\mathcal{T},Q))`,
    to be evaluated in the **pre-update** state and applied as

    .. math::

        MV := (MV \\dot{-} \\nabla(\\mathcal{T},Q))
               \\uplus \\Delta(\\mathcal{T},Q) .

    The transaction is normalized to weak minimality first, so the
    caller may pass any simple transaction.
    """
    eta = transaction_substitution(txn.weakly_minimal(), db)
    return differentiate(eta, query)


# ----------------------------------------------------------------------
# Post-update deltas: ▼(L, Q) and ▲(L, Q)
# ----------------------------------------------------------------------


def post_update_delta(
    log: Log,
    query: Expr,
    *,
    assume_weakly_minimal_log: bool | None = None,
) -> tuple[Expr, Expr]:
    """Incremental queries for *deferred* maintenance, post-update state.

    Returns :math:`(\\blacktriangledown(\\mathcal{L},Q),
    \\blacktriangle(\\mathcal{L},Q))` to be evaluated in the **current**
    state and applied as

    .. math::

        MV := (MV \\dot{-} \\blacktriangledown(\\mathcal{L},Q))
               \\uplus \\blacktriangle(\\mathcal{L},Q) .

    The duality (Section 4): differentiate ``Q`` with respect to the
    *log* substitution :math:`\\widehat{\\mathcal{L}}`, then swap the
    roles of the results —

    * the view's delete bag is :math:`\\mathrm{Add}(\\widehat{\\mathcal{L}},Q)`
      (what the past state had that the present lacks),
    * the view's insert bag is
      :math:`Q \\min \\mathrm{Del}(\\widehat{\\mathcal{L}},Q)` by the
      Cancellation Lemma, simplifying to
      :math:`\\mathrm{Del}(\\widehat{\\mathcal{L}},Q)` when the log is
      weakly minimal (``makesafe_BL`` maintains exactly that invariant).

    By default (``assume_weakly_minimal_log=None``) the choice is
    **analysis-backed**: the static classifier
    (:func:`repro.analysis.properties.classify_substitution`) decides
    whether :math:`\\widehat{\\mathcal{L}}` is provably weakly minimal —
    by provenance (Lemma 4's ``makesafe`` discipline marks the
    substitution) or by structure (:math:`D \\min R` normal forms) — and
    the ``min`` guard is emitted only when no proof exists.  Pass
    ``True`` to force the simplification, or ``False`` to force the
    conservative guard (correct for *any* log at the price of the extra
    ``min`` with ``Q``).
    """
    eta = log.substitution()
    if assume_weakly_minimal_log is None:
        from repro.analysis.properties import Minimality, classify_substitution

        assume_weakly_minimal_log = (
            classify_substitution(eta) is Minimality.WEAKLY_MINIMAL
        )
    if not assume_weakly_minimal_log:
        eta = eta.weakly_minimal()
    del_hat, add_hat = differentiate(eta, query)
    view_delete = add_hat
    if assume_weakly_minimal_log:
        view_insert = del_hat
    else:
        view_insert = _min(query, del_hat)
    return view_delete, view_insert


# ----------------------------------------------------------------------
# Strong minimality (Section 4.1)
# ----------------------------------------------------------------------


def strongly_minimal_pair(delete: Expr, insert: Expr) -> tuple[Expr, Expr]:
    """Normalize a weakly minimal ``(Del, Add)`` pair to strong minimality.

    Strong minimality additionally requires
    :math:`\\mathrm{Del} \\min \\mathrm{Add} \\equiv \\phi` — no tuple is
    deleted and immediately reinserted.  Subtracting the common part
    :math:`C = \\mathrm{Del} \\min \\mathrm{Add}` from both sides
    preserves :math:`(Q \\dot{-} \\mathrm{Del}) \\uplus \\mathrm{Add}`
    whenever :math:`\\mathrm{Del} \\subseteq Q` (weak minimality), and
    yields smaller differential tables — the paper's note on further
    minimizing view downtime (Section 5.3).
    """
    common = _min(delete, insert)
    return _monus(delete, common), _monus(insert, common)
