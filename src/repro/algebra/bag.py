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

__all__ = ["Bag", "Row", "compose_deltas"]


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

    __slots__ = ("_counts", "_arity", "_hash", "_derived", "_origin")

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
        self._origin: tuple[dict, Bag, Bag] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_clean(cls, counts: dict[Row, int], arity: int | None) -> Bag:
        """Adopt an already-validated counts dict without copy or scan.

        Internal: the caller guarantees tuple rows of uniform ``arity``
        with strictly positive multiplicities, and must not mutate the
        dict afterwards.  Every operator below builds its result from
        validated bags and adopts it here, so it walks its rows once
        (``Bag(counts=…)`` would walk them twice more, to normalise and
        to check arity); so do ``patch`` and the key-restricted reads.
        """
        bag = cls.__new__(cls)
        bag._counts = counts
        bag._arity = arity if counts else None
        bag._hash = None
        bag._derived = None
        bag._origin = None
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
        return self._counts.copy()

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

    def derived(
        self,
        key: Any,
        build: Callable[[Bag], Any],
        inherit: Callable[[Any, Bag, Bag], Any] | None = None,
    ) -> Any:
        """``build(self)``, computed once and kept for the life of this bag.

        A bag never changes, so a structure derived from it (a hash
        index over its rows, say) is valid for as long as the bag exists
        and is freed with it: everything that shares the bag — the live
        database and every snapshot cut before the next write — finds
        the same structure, and there is nothing to invalidate or evict.

        A bag made by :meth:`patch` also knows what its parent had
        derived when it was patched, and the delta between them.  When
        the parent holds a structure ``prior`` under ``key`` and
        ``inherit`` is given, the structure is ``inherit(prior, delete,
        insert)`` instead of ``build(self)``: the caller carries
        ``prior`` across the delta and must leave it unchanged (older
        snapshots still read it).  The first inheritance drops the
        record, and with it this bag's hold on the parent's structures.

        Takes no lock: two threads asking at once may both build or
        inherit (the worst a lost race costs is one more build later),
        but neither ever sees a partial structure — it is stored only
        once made.
        """
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        try:
            return cache[key]
        except KeyError:
            pass
        origin = self._origin
        if origin is not None and inherit is not None:
            parents, delete, insert = origin
            prior = parents.get(key)
            if prior is not None:
                value = cache.setdefault(key, inherit(prior, delete, insert))
                self._origin = None
                return value
        return cache.setdefault(key, build(self))

    def derived_keys(self) -> tuple:
        """The keys of the structures :meth:`derived` from this bag so far,
        then those still inheritable from the version it was patched from."""
        cache = self._derived
        keys = () if cache is None else tuple(cache)
        origin = self._origin
        if origin is not None:
            keys += tuple(key for key in tuple(origin[0]) if key not in keys)
        return keys

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
        counts = self._counts.copy()
        for row, count in other._counts.items():
            counts[row] = counts.get(row, 0) + count
        return Bag._from_clean(counts, self._arity)

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
        return Bag._from_clean(counts, self._arity)

    def dedup(self) -> Bag:
        """Duplicate elimination :math:`\\epsilon(X)`: every multiplicity becomes 1."""
        return Bag._from_clean(dict.fromkeys(self._counts, 1), self._arity)

    def product(self, other: Bag) -> Bag:
        """Cartesian product: concatenated tuples, multiplied multiplicities."""
        if not self or not other:
            return _EMPTY
        counts: dict[Row, int] = {}
        for left, lcount in self._counts.items():
            for right, rcount in other._counts.items():
                counts[left + right] = counts.get(left + right, 0) + lcount * rcount
        return Bag._from_clean(counts, self._arity + other._arity)

    def select(self, predicate: Callable[[Row], bool]) -> Bag:
        """Selection :math:`\\sigma_p(X)`: keep rows satisfying ``predicate``."""
        return Bag._from_clean({row: count for row, count in self._counts.items() if predicate(row)}, self._arity)

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
        return Bag._from_clean(counts, len(positions))

    def patch(self, delete: Bag, insert: Bag) -> Bag:
        """Apply a delta: :math:`(X \\dot{-} delete) \\uplus insert` in one pass.

        Semantically identical to ``monus`` followed by ``union_all``;
        used by the storage layer for every table write.  A patch costs
        one C-level clone of the table's dict (``dict.copy``, which stays
        a clone while at most a third of the dict's slots are deleted
        entries, where ``dict(d)`` re-inserts every row once ``d`` has
        any) plus O(|delete| + |insert|) Python work: the copy is what
        keeps every earlier version — a snapshot pin, an index
        :meth:`derived` from it — unchanged.

        When this bag has derived structures, the result records them
        with the delta, in O(1) and without touching them, so that its
        first reader may carry them across the delta rather than rebuild
        them (:meth:`derived`).  A result patched again before anyone
        derived from it records nothing: one pending record per version.
        """
        self._check_arity(delete, "patch")
        self._check_arity(insert, "patch")
        if not delete and not insert:
            # (X ∸ φ) ⊎ φ = X: no copy, and what is derived from X stays with it.
            return self
        counts = self._counts.copy()
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
        patched = Bag._from_clean(counts, arity)
        if self._derived:
            patched._origin = (self._derived, delete, insert)
        return patched

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
        return Bag._from_clean(counts, self._arity)

    def max_(self, other: Bag) -> Bag:
        """Maximal union: per-row maximum of multiplicities.

        Defined in the paper as :math:`X \\uplus (Y \\dot{-} X)`.
        """
        self._check_arity(other, "max_")
        counts = self._counts.copy()
        for row, count in other._counts.items():
            if count > counts.get(row, 0):
                counts[row] = count
        return Bag._from_clean(counts, self._arity if self._arity is not None else other._arity)

    def except_(self, other: Bag) -> Bag:
        """SQL ``EXCEPT ALL``-style difference with *total* elimination.

        ``X EXCEPT Y`` removes every copy of each row present in ``Y``,
        regardless of its multiplicity in ``Y`` — this is the SQL EXCEPT
        semantics the paper contrasts with monus.
        """
        self._check_arity(other, "except_")
        return Bag._from_clean(
            {row: count for row, count in self._counts.items() if row not in other._counts}, self._arity
        )

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


def compose_deltas(pairs: Iterable[tuple[Any, Any]]) -> tuple[dict[Row, int], dict[Row, int]]:
    """Net a run of ``(delete, insert)`` deltas into one ``(deletes, inserts)`` pair.

    Each pair is a :class:`Bag` or a ``row -> count`` dict of positive
    counts.  Folding a later pair ``(∇, Δ)`` into the net ``(▼, ▲)`` is
    ``makesafe_BL``'s weakly-minimal recurrence (Lemma 4), taken
    simultaneously: ``▼ := ▼ ⊎ (∇ ∸ ▲)`` and ``▲ := (▲ ∸ ∇) ⊎ Δ``.  Per
    row, ``t = min(▲[r], ∇[r])`` cancels a delete against an earlier
    insert; the rest of the delete joins ``▼``.  Applying the net with
    ``Bag.patch`` equals applying the run in order (deletes that survive
    cancellation target rows from before the run, where the floor at
    zero copies matches), and the fold is associative, so a run may be
    netted in segments.  It costs O(total delta rows): each row is
    touched in place, no intermediate bag is built.  The result's counts
    are strictly positive and its rows come from the inputs, so
    :meth:`Bag._from_clean` may adopt either dict.
    """
    deletes: dict[Row, int] = {}
    inserts: dict[Row, int] = {}
    for delete, insert in pairs:
        for row, count in delete.items():
            queued = inserts.get(row, 0)
            cancelled = count if count < queued else queued
            if cancelled:
                if cancelled == queued:
                    del inserts[row]
                else:
                    inserts[row] = queued - cancelled
            remaining = count - cancelled
            if remaining:
                deletes[row] = deletes.get(row, 0) + remaining
        for row, count in insert.items():
            inserts[row] = inserts.get(row, 0) + count
    return deletes, inserts
