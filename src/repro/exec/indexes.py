"""Incrementally-maintained hash indexes on stored tables.

A :class:`HashIndex` maps a key — the values of a fixed tuple of column
positions — to the bucket of table rows having that key, each with its
multiplicity.  Indexes are built lazily the first time an executor wants
one (a single O(|table|) pass, charged as ``index_build``), and from
then on are maintained *incrementally* by the storage layer: every
``Bag.patch``-driven write applies its ``(delete, insert)`` delta here
as it commits, so keeping an index current costs O(|delta|), never
O(|table|), and is paid by the write, not by the next probe.

This is what turns :math:`\\sigma_{attr=const}(R)`, equi-join build
sides, and :math:`E \\dot{-} R` probes from O(|R|) scans into
O(|delta| + |output|) lookups — the *system* half of the paper's
delta-proportionality argument.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.exec.kernels import row_getter

__all__ = ["FROZEN_INDEXES", "FrozenIndexes", "HashIndex", "IndexManager"]

_EMPTY_BUCKET: dict[Row, int] = {}


class HashIndex:
    """A hash index over one table keyed by a tuple of column positions.

    ``key_of`` is the row kernel that reads a row's key (always a tuple,
    see :func:`~repro.exec.kernels.row_getter`); it is compiled once, with
    the index, and every build and delta reads its keys through it.
    """

    __slots__ = ("positions", "key_of", "_buckets")

    def __init__(self, positions: tuple[int, ...]) -> None:
        self.positions = positions
        self.key_of = row_getter(positions)
        self._buckets: dict[tuple, dict[Row, int]] = {}

    @classmethod
    def build(cls, positions: tuple[int, ...], bag: Bag) -> HashIndex:
        """One full pass over ``bag`` — the only non-incremental step.

        A bag's rows are distinct, so each is stored with its count
        outright: no get-and-add per row.
        """
        index = cls(positions)
        key_of = index.key_of
        buckets = index._buckets
        for row, count in bag.items():
            key = key_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {row: count}
            else:
                bucket[row] = count
        return index

    def apply_delta(self, delete: Mapping[Row, int] | Bag, insert: Mapping[Row, int] | Bag) -> None:
        """Maintain the index through ``(R ∸ delete) ⊎ insert`` in O(|delta|).

        ``delete`` and ``insert`` are bags or ``row -> count`` dicts.
        Deletes floor at zero copies, exactly as
        ``Bag.patch`` does; a delete of a row the index does not hold is
        a no-op.
        """
        key_of = self.key_of
        buckets = self._buckets
        for row, count in delete.items():
            key = key_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                continue
            remaining = bucket.get(row, 0) - count
            if remaining > 0:
                bucket[row] = remaining
            else:
                bucket.pop(row, None)
                if not bucket:
                    del buckets[key]
        for row, count in insert.items():
            key = key_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {row: count}
            else:
                bucket[row] = bucket.get(row, 0) + count

    def patched(self, delete: Mapping[Row, int] | Bag, insert: Mapping[Row, int] | Bag) -> HashIndex:
        """A new index over ``(R ∸ delete) ⊎ insert``; this one is left as it is.

        Copy-on-write, in O(#keys + |delta|): the bucket map is cloned at
        C level, each bucket the delta touches is copied once, and
        :meth:`apply_delta` patches the copy.  Every other bucket is
        shared with this index, which an older snapshot may still probe;
        neither index ever mutates a shared bucket.
        """
        index = HashIndex.__new__(HashIndex)
        index.positions = self.positions
        key_of = index.key_of = self.key_of
        buckets = index._buckets = self._buckets.copy()
        touched = {key_of(row) for part in (delete, insert) for row, _ in part.items()}
        for key in touched & buckets.keys():
            buckets[key] = buckets[key].copy()
        index.apply_delta(delete, insert)
        return index

    def lookup(self, key: tuple) -> Mapping[Row, int]:
        """The bucket for ``key`` — rows with their multiplicities."""
        return self._buckets.get(key, _EMPTY_BUCKET)

    def bucket_count(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        """Total copies indexed (should equal ``len(table)``)."""
        return sum(count for bucket in self._buckets.values() for count in bucket.values())


class FrozenIndexes:
    """The index provider of a pinned snapshot: indexes over bags that never change.

    What :class:`IndexManager` is to a live database, behind the same
    two calls the physical operators make.  A snapshot's tables are
    immutable, so there is nothing to maintain and nothing to go stale:
    an index is made at most once per bag and kept in the bag's own
    :meth:`~repro.algebra.bag.Bag.derived` slot, where every snapshot
    that shares the bag finds it and where it dies with the bag.  A bag
    that :meth:`~repro.algebra.bag.Bag.patch` made from a version that
    had the index inherits it: the parent's index, patched copy-on-write
    by the delta (:meth:`HashIndex.patched`, charged as ``index_maint``
    for the delta's distinct rows, counted in ``pinned_index_inherits``).
    Any other bag builds it in one pass (charged as ``index_build``,
    counted in ``pinned_index_builds``).  It holds no state of its own
    and never touches a live :class:`IndexManager`, whose buckets the
    writer mutates in place.
    """

    __slots__ = ()

    def covering(self, table: str, columns: tuple[int, ...], bag: Bag | None = None) -> tuple[int, ...] | None:
        """Key of an index already derived on ``bag`` that can answer
        equality on ``columns`` — the widest whose key is a subset of
        them, as :meth:`IndexManager.covering` picks among registered
        ones — or ``None``: the chain then indexes exactly the columns
        it pins.  An ``a = ?`` read followed by an ``a = ? AND b = ?``
        read of one pinned bag builds one index, not two."""
        if bag is None:
            return None
        wanted = set(columns)
        return _widest(
            key[1] for key in bag.derived_keys() if key[0] is HashIndex and wanted.issuperset(key[1])
        )

    def get(
        self,
        table: str,
        positions: tuple[int, ...],
        bag: Bag,
        *,
        counter: CostCounter | None = None,
    ) -> HashIndex:
        """The index on ``bag`` keyed by ``positions``: inherited from the
        version ``bag`` was patched from when that one had it, built
        otherwise."""

        def build(frozen: Bag) -> HashIndex:
            if counter is not None:
                counter.record("index_build", len(frozen))
            obs.metric_inc("pinned_index_builds")
            return HashIndex.build(positions, frozen)

        def inherit(prior: HashIndex, delete: Bag, insert: Bag) -> HashIndex:
            if counter is not None:
                counter.record("index_maint", delete.distinct_count() + insert.distinct_count())
            obs.metric_inc("pinned_index_inherits")
            return prior.patched(delete, insert)

        return bag.derived((HashIndex, positions), build, inherit)


FROZEN_INDEXES = FrozenIndexes()


def _widest(keys) -> tuple[int, ...] | None:
    """The widest (most selective) of ``keys``; ``None`` when there are none."""
    return max(keys, key=lambda key: (len(key), key), default=None)


class IndexManager:
    """All hash indexes of one database, current whenever a write commits.

    An index is built the first time an executor asks for it (one
    O(|table|) pass, charged as ``index_build``).  From then on the
    write that changes its table keeps it current: :meth:`on_patch`
    applies the write's ``(delete, insert)`` pair to every index on the
    table in O(|delta|), charged as ``index_maint`` to the writer's
    counter, and :meth:`on_replace` rebuilds them from the assigned bag —
    free for the empty bag, which is how refresh truncates a log, so a
    log's indexes stay registered and warm for the next round of
    appends.  A probe never catches up: a refresh pays only for the
    rows it reads, never for the writes that came before it.

    The invariant callers rely on: any index returned by :meth:`get` is
    exactly consistent with the table's current value — provided every
    mutation of the table was routed through :meth:`on_patch` /
    :meth:`on_replace`, which :class:`~repro.storage.database.Database`
    guarantees.  Every entry point takes an internal lock, so serve
    workers and callers may probe and build concurrently.  A write mutates
    buckets in place, though, so a live probe must not run beside a
    writer of the same table: the probe would read buckets ahead of the
    ``bag`` it was handed.  Pinned readers use :class:`FrozenIndexes`,
    which never share a bucket with a writer.
    """

    def __init__(self) -> None:
        self._by_table: dict[str, dict[tuple[int, ...], HashIndex]] = {}
        self._lock = threading.RLock()

    @staticmethod
    def _build(
        table: str, positions: tuple[int, ...], bag: Bag, reason: str, counter: CostCounter | None
    ) -> HashIndex:
        """A full build of one index, reason-coded when telemetry is on.

        ``reason`` says why the pass over the table was paid:
        ``first_use`` (no index on these columns yet) or ``replace`` (a
        wholesale assignment of a non-empty bag).
        """
        if obs.telemetry_enabled():
            obs.metric_inc(f'index_builds{{reason="{reason}"}}')
        with obs.span("index_build", table=table, rows=bag.distinct_count(), reason=reason, counter=counter):
            index = HashIndex.build(positions, bag)
            if counter is not None:
                counter.record("index_build", len(bag))
        return index

    def covering(self, table: str, columns: tuple[int, ...], bag: Bag | None = None) -> tuple[int, ...] | None:
        """Key of a registered index that can answer equality on ``columns``.

        Any index keyed by a subset of ``columns`` narrows such a lookup
        to one bucket; the widest (most selective) wins.  ``None`` when
        the table has no such index.  (``bag`` is the table's current
        value; the registered indexes are kept current with it.)
        """
        with self._lock:
            indexes = self._by_table.get(table, {})
            if columns in indexes:
                # No subset is wider: the common case (a join's pinned
                # operand, a keyed statement) without the scan.
                return columns
            wanted = set(columns)
            return _widest(key for key in indexes if wanted.issuperset(key))

    def get(
        self,
        table: str,
        positions: tuple[int, ...],
        bag: Bag,
        *,
        counter: CostCounter | None = None,
    ) -> HashIndex:
        """The index on ``table`` keyed by ``positions``, current as of ``bag``.

        Built from ``bag`` on first use (charged as ``index_build``; with
        telemetry on, an ``index_build`` span and an
        ``index_builds{reason="first_use"}`` count); every later call
        returns the same, already current index.
        """
        with self._lock:
            indexes = self._by_table.setdefault(table, {})
            index = indexes.get(positions)
            if index is None:
                index = indexes[positions] = self._build(table, positions, bag, "first_use", counter)
            return index

    def indexes_on(self, table: str) -> tuple[HashIndex, ...]:
        with self._lock:
            return tuple(self._by_table.get(table, {}).values())

    def verify(self, state: Mapping[str, Bag], *, repair: bool = True) -> list[str]:
        """Audit every registered index against the canonical tables.

        Each index is compared bucket-for-bucket against a fresh build
        of its table; a mismatch is real corruption (for example, a
        crash that interrupted a write's index upkeep before the
        rollback signal arrived) — with ``repair`` (the default) the
        index is rebuilt in place.  Indexes on tables no longer in
        ``state`` are dropped.  Returns labels of the healed (or, with
        ``repair=False``, divergent) indexes.
        """
        healed: list[str] = []
        with self._lock:
            for table, indexes in list(self._by_table.items()):
                bag = state.get(table)
                if bag is None:
                    if repair:
                        self.drop(table)
                    healed.append(table)
                    continue
                for positions, current in list(indexes.items()):
                    fresh = HashIndex.build(positions, bag)
                    if current._buckets != fresh._buckets:
                        if repair:
                            indexes[positions] = fresh
                        healed.append(f"{table}[{','.join(map(str, positions))}]")
            if healed and repair:
                obs.metric_inc("index_rebuilds", len(healed))
        return healed

    def on_patch(
        self,
        table: str,
        delete: Bag,
        insert: Bag,
        *,
        counter: CostCounter | None = None,
    ) -> None:
        """Apply a patch-driven write to every index on ``table``.

        O(|delta|) per index, charged as ``index_maint`` to the writer's
        ``counter``; a table without indexes costs nothing.
        """
        with self._lock:
            indexes = self._by_table.get(table)
            if not indexes or (not delete and not insert):
                return
            for index in indexes.values():
                index.apply_delta(delete, insert)
            if counter is not None:
                counter.record("index_maint", len(indexes) * (delete.distinct_count() + insert.distinct_count()))

    def on_replace(
        self,
        table: str,
        new_value: Bag | None = None,
        *,
        counter: CostCounter | None = None,
    ) -> None:
        """A wholesale assignment rebuilds the table's indexes from ``new_value``.

        The indexes stay registered.  Assigning the empty bag — how
        refresh truncates a log — clears them for free; ``None`` drops
        them.
        """
        with self._lock:
            indexes = self._by_table.get(table)
            if not indexes:
                return
            if new_value is None:
                self.drop(table)
                return
            for positions in indexes:
                if new_value:
                    indexes[positions] = self._build(table, positions, new_value, "replace", counter)
                else:
                    indexes[positions] = HashIndex(positions)

    def drop(self, table: str) -> None:
        with self._lock:
            self._by_table.pop(table, None)
