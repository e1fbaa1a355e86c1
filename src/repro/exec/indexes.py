"""Incrementally-maintained hash indexes on stored tables.

A :class:`HashIndex` maps a key — the values of a fixed tuple of column
positions — to the bucket of table rows having that key, each with its
multiplicity.  Indexes are built lazily the first time an executor wants
one (a single O(|table|) pass, charged as ``index_build``), and from
then on are maintained *incrementally* by the storage layer: every
``Bag.patch``-driven write forwards its ``(delete, insert)`` delta here,
so keeping an index current costs O(|delta|), never O(|table|).

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
    the index, and every build and drain reads its keys through it.
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

        ``delete`` and ``insert`` are bags or ``row -> count`` dicts (the
        drain's netted queue).  Deletes floor at zero copies, exactly as
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
    an index is built at most once per bag (charged as ``index_build``)
    and kept in the bag's own :meth:`~repro.algebra.bag.Bag.derived`
    slot, where every snapshot that shares the bag finds it and where
    it dies with the bag.  It holds no state of its own and never
    touches a live :class:`IndexManager`, whose buckets the writer
    mutates in place.
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
        """The index on ``bag`` keyed by ``positions``."""

        def build(frozen: Bag) -> HashIndex:
            if counter is not None:
                counter.record("index_build", len(frozen))
            obs.metric_inc("pinned_index_builds")
            return HashIndex.build(positions, frozen)

        return bag.derived((HashIndex, positions), build)


FROZEN_INDEXES = FrozenIndexes()


def _widest(keys) -> tuple[int, ...] | None:
    """The widest (most selective) of ``keys``; ``None`` when there are none."""
    return max(keys, key=lambda key: (len(key), key), default=None)


def _compose_tail(tail: list[tuple[Bag, Bag]]) -> tuple[dict[Row, int], dict[Row, int]]:
    """Net a run of patch deltas into one ``(deletes, inserts)`` pair.

    Composing an accumulated net ``(D, I)`` with a later patch
    ``(d2, i2)`` per row: ``t = min(I[r], d2[r])`` cancels deletes
    against earlier queued inserts, then ``D[r] += d2[r] - t`` and
    ``I[r] = I[r] - t + i2[r]``.  Applying the net is equivalent to
    applying the queue sequentially (including ``Bag.patch``'s floor at
    zero copies: deletes surviving cancellation target pre-queue rows,
    where the index's own floored delete matches the table's), but its
    size is the *net churn* — an insert-then-delete round trip, or many
    patches touching the same row, collapse before the index is touched.
    """
    deletes: dict[Row, int] = {}
    inserts: dict[Row, int] = {}
    for delete, insert in tail:
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


class IndexManager:
    """All hash indexes of one database, maintained through its writes.

    Maintenance is **deferred**: a patch-driven write only enqueues its
    ``(delete, insert)`` delta, and a wholesale assignment only marks the
    table's indexes stale (except assignment of the empty bag — log
    truncation — which clears buckets in place and keeps the index
    current).  The next time an executor actually probes the index, the
    queued run is *netted* first (:func:`_compose_tail` — insert-then-
    delete round trips and repeated touches of one row collapse), then
    either the net is applied or, when the net churn still exceeds the
    table's distinct size, the index is rebuilt wholesale — whichever
    is cheaper.  A table that is written by many transactions but
    probed only at refresh time therefore pays index upkeep once per
    refresh instead of once per transaction, and pays nothing at all
    while it is write-only.  The queue itself is bounded by the drain's
    own rule, with slack: once it holds more than twice the table's
    distinct rows, netting it would already cost more than rebuilding,
    so the queue is dropped and the table's indexes are marked stale —
    an index that is registered but never probed does not retain the
    write history.  (The factor keeps a log that grew from empty, whose
    queue is about the table plus a few weak-minimality cancellations,
    on the drain path, which leaves its buckets warm.)

    The invariant callers rely on: any index returned by :meth:`get` is
    exactly consistent with the ``bag`` passed in — provided every
    mutation of the table was routed through :meth:`on_patch` /
    :meth:`on_replace`, which :class:`~repro.storage.database.Database`
    guarantees.  All entry points take an internal lock so concurrent
    probes from the parallel group scheduler drain the queue safely.
    """

    def __init__(self) -> None:
        self._by_table: dict[str, dict[tuple[int, ...], HashIndex]] = {}
        #: Per table: patch deltas enqueued since the last drain/rebuild.
        self._pending: dict[str, list[tuple[Bag, Bag]]] = {}
        #: Per table: distinct delta rows held by that queue.
        self._queued_rows: dict[str, int] = {}
        #: Per table and key: how much of the pending queue is applied.
        self._synced: dict[str, dict[tuple[int, ...], int]] = {}
        #: Tables whose indexes were invalidated by a wholesale assignment.
        self._stale: set[str] = set()
        self._lock = threading.RLock()

    @staticmethod
    def _build(
        table: str,
        positions: tuple[int, ...],
        bag: Bag,
        reason: str,
        counter: CostCounter | None,
        *,
        charge: bool = True,
    ) -> HashIndex:
        """A full build of one index, reason-coded when telemetry is on.

        ``reason`` says why the pass over the table was paid:
        ``first_use`` (no index on these columns yet), ``stale`` (a
        wholesale assignment or an overflowing queue invalidated it) or
        ``cheaper_than_drain`` (the netted queue outgrew the table).
        """
        if obs.telemetry_enabled():
            obs.metric_inc(f'index_builds{{reason="{reason}"}}')
        with obs.span("index_build", table=table, rows=bag.distinct_count(), reason=reason, counter=counter):
            index = HashIndex.build(positions, bag)
            if counter is not None and charge:
                counter.record("index_build", len(bag))
        return index

    def _rebuild_all(self, table: str, bag: Bag, counter: CostCounter | None) -> None:
        indexes = self._by_table.get(table, {})
        for positions in list(indexes):
            indexes[positions] = self._build(table, positions, bag, "stale", counter, charge=bool(bag))
        self._forget_queue(table)
        self._synced[table] = {positions: 0 for positions in indexes}
        self._stale.discard(table)

    def _forget_queue(self, table: str) -> None:
        self._pending.pop(table, None)
        self._queued_rows.pop(table, None)

    def _mark_stale(self, table: str) -> None:
        """Keep the table's indexes registered; the next probe rebuilds them."""
        self._forget_queue(table)
        self._synced.pop(table, None)
        self._stale.add(table)

    def covering(self, table: str, columns: tuple[int, ...], bag: Bag | None = None) -> tuple[int, ...] | None:
        """Key of a registered index that can answer equality on ``columns``.

        Any index keyed by a subset of ``columns`` narrows such a lookup
        to one bucket; the widest (most selective) wins.  ``None`` when
        the table has no such index.  (``bag`` is the table's current
        value; the registered indexes are kept current with it.)
        """
        with self._lock:
            wanted = set(columns)
            return _widest(key for key in self._by_table.get(table, ()) if wanted.issuperset(key))

    def get(
        self,
        table: str,
        positions: tuple[int, ...],
        bag: Bag,
        *,
        counter: CostCounter | None = None,
    ) -> HashIndex:
        """The index on ``table`` keyed by ``positions``, current as of ``bag``.

        Built on demand (one O(|table|) scan, charged as ``index_build``)
        and caught up lazily: deferred patch deltas are applied here,
        charged as ``index_maint`` — or as a wholesale ``index_build``
        when rebuilding from ``bag`` is cheaper than draining the queue.
        With telemetry on, every build is an ``index_build`` span and an
        ``index_builds{reason=…}`` count (:meth:`_build`).
        """
        with self._lock:
            if table in self._stale:
                self._rebuild_all(table, bag, counter)
            indexes = self._by_table.setdefault(table, {})
            synced = self._synced.setdefault(table, {})
            queue = self._pending.get(table, [])
            index = indexes.get(positions)
            if index is None:
                index = self._build(table, positions, bag, "first_use", counter)
                indexes[positions] = index
                synced[positions] = len(queue)
            else:
                start = synced.get(positions, 0)
                tail = queue[start:]
                if tail:
                    # Net the queued run first: the rebuild-vs-drain
                    # decision is then based on net churn, not raw
                    # patch volume, and a tie prefers the drain (it
                    # keeps buckets warm for the next round).
                    net_deletes, net_inserts = _compose_tail(tail)
                    if net_deletes:
                        # Deletes of rows this index never held — e.g.
                        # weak-minimality cancellations against a log
                        # that was empty when they were queued — floor
                        # to no-ops; drop them before costing the drain.
                        net_deletes = {
                            row: count
                            for row, count in net_deletes.items()
                            if row in index.lookup(index.key_of(row))
                        }
                    net_rows = len(net_deletes) + len(net_inserts)
                    with obs.span("index_sync", table=table, delta_rows=net_rows, counter=counter):
                        if net_rows > bag.distinct_count():
                            index = self._build(table, positions, bag, "cheaper_than_drain", counter)
                            indexes[positions] = index
                        else:
                            index.apply_delta(net_deletes, net_inserts)
                            if counter is not None and net_rows:
                                counter.record("index_maint", net_rows)
                    synced[positions] = len(queue)
            if queue and all(synced.get(pos, 0) == len(queue) for pos in indexes):
                self._forget_queue(table)
                for pos in indexes:
                    synced[pos] = 0
            return index

    def indexes_on(self, table: str) -> tuple[HashIndex, ...]:
        with self._lock:
            return tuple(self._by_table.get(table, {}).values())

    def verify(self, state: Mapping[str, Bag], *, repair: bool = True) -> list[str]:
        """Audit every registered index against the canonical tables.

        Deferred maintenance means a queued-but-undrained index is
        *by design* behind, so each index is first brought current
        through the normal :meth:`get` drain; only then is it compared
        bucket-for-bucket against a fresh build.  A mismatch after the
        drain is real corruption (for example, a crash that interrupted
        incremental maintenance before the rollback signal arrived) —
        with ``repair`` (the default) the index is rebuilt in place.
        Indexes on tables no longer in ``state`` are dropped.  Returns
        labels of the healed (or, with ``repair=False``, divergent)
        indexes.
        """
        healed: list[str] = []
        with self._lock:
            for table in list(self._by_table):
                bag = state.get(table)
                if bag is None:
                    if repair:
                        self.drop(table)
                    healed.append(table)
                    continue
                for positions in list(self._by_table.get(table, {})):
                    current = self.get(table, positions, bag)
                    fresh = HashIndex.build(positions, bag)
                    if current._buckets != fresh._buckets:
                        if repair:
                            self._by_table[table][positions] = fresh
                        healed.append(f"{table}[{','.join(map(str, positions))}]")
            if healed and repair:
                obs.metric_inc("index_rebuilds", len(healed))
        return healed

    def pending_deltas(self, table: str) -> int:
        """How many patch deltas are queued but not yet drained (testing aid)."""
        with self._lock:
            return len(self._pending.get(table, ()))

    def on_patch(
        self,
        table: str,
        delete: Bag,
        insert: Bag,
        *,
        counter: CostCounter | None = None,
        size: int | None = None,
    ) -> None:
        """Record a patch-driven write; maintenance is deferred to the
        next probe of the table, so write-only phases pay nothing here.

        ``size`` is the table's distinct size after the patch; the
        storage layer passes it so the queue stays bounded by the table
        (see the class docstring).
        """
        with self._lock:
            if not self._by_table.get(table) or table in self._stale:
                return
            if not delete and not insert:
                return
            queued = self._queued_rows.get(table, 0) + delete.distinct_count() + insert.distinct_count()
            if size is not None and queued > 2 * size:
                self._mark_stale(table)
                if obs.telemetry_enabled():
                    obs.metric_inc("index_queue_drops")
                return
            self._pending.setdefault(table, []).append((delete, insert))
            self._queued_rows[table] = queued

    def on_replace(
        self,
        table: str,
        new_value: Bag | None = None,
        *,
        counter: CostCounter | None = None,
    ) -> None:
        """A wholesale assignment invalidates the table's indexes.

        The indexes stay registered but are marked stale and rebuilt
        lazily on the next probe.  This matters for log tables, which are
        cleared by assignment on every refresh: the eventual rebuild from
        the then-empty bag is free, and the index stays alive to absorb
        the next round of patch-driven log appends.
        """
        with self._lock:
            indexes = self._by_table.get(table)
            if not indexes:
                return
            if new_value is None:
                self.drop(table)
                return
            if not new_value:
                # Assignment of the *empty* bag — how refresh truncates
                # log tables.  Clearing buckets in place is free and
                # leaves the indexes warm and current, so the next probe
                # after a round of log appends pays an O(|net delta|)
                # drain instead of an O(|log|) rebuild.
                for index in indexes.values():
                    index._buckets.clear()
                self._forget_queue(table)
                self._synced[table] = {positions: 0 for positions in indexes}
                self._stale.discard(table)
                return
            self._mark_stale(table)

    def drop(self, table: str) -> None:
        with self._lock:
            self._by_table.pop(table, None)
            self._forget_queue(table)
            self._synced.pop(table, None)
            self._stale.discard(table)
