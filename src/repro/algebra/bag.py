"""Counted multisets (bags) of tuples — the value domain of the bag algebra.

The paper's query language :math:`\\mathcal{BA}` (Section 2.1) operates on
finite bags of flat tuples.  This module implements that value domain as
:class:`Bag`: an immutable multiset backed by a ``dict`` mapping each tuple
to its (strictly positive) multiplicity.

The operations mirror the paper exactly:

=====================  =======================================
paper                  here
=====================  =======================================
:math:`X \\uplus Y`     :meth:`Bag.union_all`  (additive union)
:math:`X \\dot{-} Y`    :meth:`Bag.monus`      (truncated difference)
:math:`\\epsilon(X)`    :meth:`Bag.dedup`      (duplicate elimination)
:math:`X \\times Y`     :meth:`Bag.product`    (tuple concatenation)
:math:`\\sigma_p(X)`    :meth:`Bag.select`
:math:`\\Pi_A(X)`       :meth:`Bag.project`    (positional)
:math:`X \\min Y`       :meth:`Bag.min_`       (minimal intersection)
:math:`X \\max Y`       :meth:`Bag.max_`       (maximal union)
``X EXCEPT Y``         :meth:`Bag.except_`    (SQL EXCEPT, all copies)
=====================  =======================================

Bags are hashable and comparable; ``X <= Y`` is the subbag relation
:math:`X \\sqsubseteq Y` used throughout the paper's minimality conditions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from repro.errors import SchemaError

Row = tuple[Any, ...]

__all__ = ["Bag", "Row"]


def _normalize(counts: Mapping[Row, int]) -> dict[Row, int]:
    """Drop non-positive multiplicities, validating types along the way."""
    clean: dict[Row, int] = {}
    for row, count in counts.items():
        if not isinstance(row, tuple):
            raise SchemaError(f"bag elements must be tuples, got {type(row).__name__}")
        if count > 0:
            clean[row] = count
    return clean


class Bag:
    """An immutable finite multiset of same-arity tuples.

    The empty bag has indeterminate arity and combines with bags of any
    arity; all other combinations check arity compatibility eagerly so
    schema bugs surface at the operation that caused them.
    """

    __slots__ = ("_counts", "_arity", "_hash", "_derived")

    def __init__(self, items: Iterable[Row] = (), *, counts: Mapping[Row, int] | None = None) -> None:
        if counts is not None:
            self._counts = _normalize(counts)
        else:
            acc: dict[Row, int] = {}
            for row in items:
                if not isinstance(row, tuple):
                    raise SchemaError(f"bag elements must be tuples, got {type(row).__name__}")
                acc[row] = acc.get(row, 0) + 1
            self._counts = acc
        arities = {len(row) for row in self._counts}
        if len(arities) > 1:
            raise SchemaError(f"rows of mixed arity in one bag: {sorted(arities)}")
        self._arity: int | None = arities.pop() if arities else None
        self._hash: int | None = None
        self._derived: dict | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_clean(cls, counts: dict[Row, int], arity: int | None) -> Bag:
        """Adopt an already-validated counts dict without copy or scan.

        Internal: the caller guarantees tuple rows of uniform ``arity``
        with strictly positive multiplicities, and must not mutate the
        dict afterwards.  This is what keeps ``patch`` and the
        key-restricted reads single-pass.
        """
        bag = cls.__new__(cls)
        bag._counts = counts
        bag._arity = arity if counts else None
        bag._hash = None
        bag._derived = None
        return bag

    @classmethod
    def empty(cls) -> Bag:
        """The empty bag :math:`\\phi`."""
        return _EMPTY

    @classmethod
    def singleton(cls, row: Row) -> Bag:
        """The one-element bag :math:`\\{x\\}`."""
        return cls(counts={row: 1})

    @classmethod
    def from_counts(cls, counts: Mapping[Row, int]) -> Bag:
        """Build a bag from a ``row -> multiplicity`` mapping."""
        return cls(counts=counts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int | None:
        """Tuple width, or ``None`` for the empty bag."""
        return self._arity

    def multiplicity(self, row: Row) -> int:
        """The number of copies of ``row`` in this bag (0 if absent)."""
        return self._counts.get(row, 0)

    def counts(self) -> dict[Row, int]:
        """A fresh ``row -> multiplicity`` dict (safe to mutate)."""
        return dict(self._counts)

    @property
    def support(self) -> frozenset[Row]:
        """The set of distinct rows."""
        return frozenset(self._counts)

    def __len__(self) -> int:
        """Total number of copies, counting multiplicity."""
        return sum(self._counts.values())

    def distinct_count(self) -> int:
        """Number of distinct rows."""
        return len(self._counts)

    def __iter__(self) -> Iterator[Row]:
        """Iterate rows with multiplicity (each copy yielded separately)."""
        for row, count in self._counts.items():
            for _ in range(count):
                yield row

    def items(self) -> Iterator[tuple[Row, int]]:
        """Iterate ``(row, multiplicity)`` pairs."""
        return iter(self._counts.items())

    def __contains__(self, row: Row) -> bool:
        return row in self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def derived(self, key: Any, build: Callable[[Bag], Any]) -> Any:
        """``build(self)``, computed once and kept for the life of this bag.

        A bag never changes, so a structure derived from it (a hash
        index over its rows, say) is valid for as long as the bag exists
        and is freed with it: everything that shares the bag — the live
        database and every snapshot cut before the next write — finds
        the same structure, and there is nothing to invalidate or evict.
        Takes no lock: two threads asking at once may both build (the
        worst a lost race costs is one more build later), but neither
        ever sees a partial structure — it is stored only once built.
        """
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        try:
            return cache[key]
        except KeyError:
            return cache.setdefault(key, build(self))

    def derived_keys(self) -> tuple:
        """The keys of the structures :meth:`derived` from this bag so far."""
        cache = self._derived
        return () if cache is None else tuple(cache)

    # ------------------------------------------------------------------
    # Equality / ordering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def issubbag(self, other: Bag) -> bool:
        """The subbag relation: every row occurs at most as often as in ``other``."""
        return all(count <= other._counts.get(row, 0) for row, count in self._counts.items())

    def __le__(self, other: Bag) -> bool:
        return self.issubbag(other)

    def _check_arity(self, other: Bag, op: str) -> None:
        if self._arity is not None and other._arity is not None and self._arity != other._arity:
            raise SchemaError(f"{op}: arity mismatch ({self._arity} vs {other._arity})")

    # ------------------------------------------------------------------
    # The seven core operations of BA
    # ------------------------------------------------------------------

    def union_all(self, other: Bag) -> Bag:
        """Additive union :math:`X \\uplus Y`: multiplicities add."""
        self._check_arity(other, "union_all")
        if not self:
            return other
        if not other:
            return self
        counts = dict(self._counts)
        for row, count in other._counts.items():
            counts[row] = counts.get(row, 0) + count
        return Bag(counts=counts)

    def monus(self, other: Bag) -> Bag:
        """Monus :math:`X \\dot{-} Y`: multiplicities subtract, floored at 0."""
        self._check_arity(other, "monus")
        if not other or not self:
            return self
        counts: dict[Row, int] = {}
        for row, count in self._counts.items():
            remaining = count - other._counts.get(row, 0)
            if remaining > 0:
                counts[row] = remaining
        return Bag(counts=counts)

    def dedup(self) -> Bag:
        """Duplicate elimination :math:`\\epsilon(X)`: every multiplicity becomes 1."""
        return Bag(counts={row: 1 for row in self._counts})

    def product(self, other: Bag) -> Bag:
        """Cartesian product: concatenated tuples, multiplied multiplicities."""
        if not self or not other:
            return _EMPTY
        counts: dict[Row, int] = {}
        for left, lcount in self._counts.items():
            for right, rcount in other._counts.items():
                counts[left + right] = counts.get(left + right, 0) + lcount * rcount
        return Bag(counts=counts)

    def select(self, predicate: Callable[[Row], bool]) -> Bag:
        """Selection :math:`\\sigma_p(X)`: keep rows satisfying ``predicate``."""
        return Bag(counts={row: count for row, count in self._counts.items() if predicate(row)})

    def project(self, positions: tuple[int, ...]) -> Bag:
        """Projection :math:`\\Pi_A(X)` onto the given 0-based positions.

        Bag projection does *not* eliminate duplicates; multiplicities of
        rows that collapse together add up.
        """
        if self._arity is not None:
            for position in positions:
                if not 0 <= position < self._arity:
                    raise SchemaError(f"project: position {position} out of range for arity {self._arity}")
        counts: dict[Row, int] = {}
        for row, count in self._counts.items():
            image = tuple(row[position] for position in positions)
            counts[image] = counts.get(image, 0) + count
        return Bag(counts=counts)

    def patch(self, delete: Bag, insert: Bag) -> Bag:
        """Apply a delta: :math:`(X \\dot{-} delete) \\uplus insert` in one pass.

        Semantically identical to ``monus`` followed by ``union_all``;
        used by the storage layer to model indexed, delta-proportional
        updates (the cost of a patch is the size of the delta, not the
        size of the table).
        """
        self._check_arity(delete, "patch")
        self._check_arity(insert, "patch")
        if not delete and not insert:
            # (X ∸ φ) ⊎ φ = X: no copy, and what is derived from X stays with it.
            return self
        counts = dict(self._counts)
        for row, count in delete._counts.items():
            remaining = counts.get(row, 0) - count
            if remaining > 0:
                counts[row] = remaining
            else:
                counts.pop(row, None)
        for row, count in insert._counts.items():
            counts[row] = counts.get(row, 0) + count
        # Every row came from an already-validated bag and every count is
        # positive by construction, so re-normalizing would only re-copy.
        arity = self._arity if self._arity is not None else insert._arity
        return Bag._from_clean(counts, arity)

    # ------------------------------------------------------------------
    # Derived operations (Section 2.1)
    # ------------------------------------------------------------------

    def min_(self, other: Bag) -> Bag:
        """Minimal intersection: per-row minimum of multiplicities.

        Defined in the paper as :math:`X \\dot{-} (X \\dot{-} Y)`.
        """
        self._check_arity(other, "min_")
        counts: dict[Row, int] = {}
        for row, count in self._counts.items():
            m = min(count, other._counts.get(row, 0))
            if m > 0:
                counts[row] = m
        return Bag(counts=counts)

    def max_(self, other: Bag) -> Bag:
        """Maximal union: per-row maximum of multiplicities.

        Defined in the paper as :math:`X \\uplus (Y \\dot{-} X)`.
        """
        self._check_arity(other, "max_")
        counts = dict(self._counts)
        for row, count in other._counts.items():
            if count > counts.get(row, 0):
                counts[row] = count
        return Bag(counts=counts)

    def except_(self, other: Bag) -> Bag:
        """SQL ``EXCEPT ALL``-style difference with *total* elimination.

        ``X EXCEPT Y`` removes every copy of each row present in ``Y``,
        regardless of its multiplicity in ``Y`` — this is the SQL EXCEPT
        semantics the paper contrasts with monus.
        """
        self._check_arity(other, "except_")
        return Bag(counts={row: count for row, count in self._counts.items() if row not in other._counts})

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{row!r}x{count}" if count > 1 else repr(row)
            for row, count in sorted(self._counts.items(), key=lambda item: repr(item[0]))
        )
        return f"Bag({{{inner}}})"


_EMPTY = Bag()
