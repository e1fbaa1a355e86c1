"""Partitioned database states: hash/range partitioning with pruned applies.

A :class:`PartitionedDatabase` is a :class:`~repro.storage.database.Database`
whose declared tables are additionally *sliced* into partitions keyed by
one column (the **partition key**).  The slices buy two things the flat
state cannot:

* **delta-proportional applies** — :meth:`PartitionedDatabase.apply_parts`
  installs a maintenance patch by mutating only the slices of the
  partitions whose keys appear in the delta, instead of copying the
  whole table dict the way :meth:`Bag.patch` must.  The flat logical bag
  is marked stale and rebuilt lazily on the next whole-table read, so a
  refresh epoch never pays O(|table|);
* **partition pruning** — the affected-key sets the maintenance logs
  induce (:meth:`affected_keys`) are what a pruned maintenance plan's
  key-restricted leaves (:mod:`repro.analysis.partitioning`) are bound
  to at each epoch, so a refresh reads only the index buckets of the
  keys that appear in the pending delta.

Two partitioning schemes are supported:

* ``hash`` — a deterministic hash of the key value modulo ``parts``
  (stable across processes, unlike built-in ``hash`` on strings);
* ``range`` — ``bounds`` is a sorted sequence of cut points; partition
  ``i`` holds keys in ``(bounds[i-1], bounds[i]]`` (``parts`` is then
  ``len(bounds) + 1``).

Tables that share a *domain* (same key meaning, same scheme and part
count) are **co-partitioned**: an equi-join on their keys never crosses
partitions, which is what makes per-partition maintenance sound.

Crash safety: :meth:`apply_parts` applies partitions one at a time with
a ``crash-mid-partition-apply`` fault point between them, and rolls the
epoch back completely — slices, cleared tables, version stamps, indexes
and engine mirrors — if any step raises, mirroring the all-or-nothing
contract of :meth:`Database._install`.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from typing import Any

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr
from repro.errors import SchemaError, UnknownTableError
from repro.robustness.faults import fault_point
from repro.storage.database import Database

__all__ = ["PartitionSpec", "PartitionedDatabase"]

_SCHEMES = ("hash", "range")


def stable_key_hash(value: Any) -> int:
    """A process-stable hash for partition routing.

    Built-in ``hash`` is salted per process for strings, which would
    make partition membership (and therefore benchmark plans and crash
    schedules) irreproducible across runs.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value if value >= 0 else -value
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8", "surrogatepass"))
    return zlib.crc32(repr(value).encode("utf-8", "surrogatepass"))


class PartitionSpec:
    """How one table is partitioned: key column, scheme, part count."""

    __slots__ = ("table", "key", "position", "parts", "scheme", "bounds", "domain")

    def __init__(
        self,
        table: str,
        key: str,
        position: int,
        parts: int,
        scheme: str = "hash",
        bounds: tuple | None = None,
        domain: str | None = None,
    ) -> None:
        if scheme not in _SCHEMES:
            raise SchemaError(f"unknown partition scheme {scheme!r} (expected one of {_SCHEMES})")
        if scheme == "range":
            if not bounds:
                raise SchemaError("range partitioning needs at least one bound")
            bounds = tuple(bounds)
            if list(bounds) != sorted(bounds):
                raise SchemaError(f"range bounds must be sorted, got {bounds!r}")
            parts = len(bounds) + 1
        elif parts < 1:
            raise SchemaError(f"hash partitioning needs parts >= 1, got {parts}")
        self.table = table
        self.key = key
        self.position = position
        self.parts = parts
        self.scheme = scheme
        self.bounds = bounds
        #: Tables with equal domains are co-partitioned: a key value maps
        #: to the same partition id in each of them.
        self.domain = key if domain is None else domain

    def partition_of(self, value: Any) -> int:
        """The partition id a key value routes to."""
        if self.scheme == "range":
            return bisect_left(self.bounds, value)
        return stable_key_hash(value) % self.parts

    def co_partitioned(self, other: PartitionSpec) -> bool:
        """Whether a key value lands in the same partition id in both tables."""
        return (
            self.domain == other.domain
            and self.scheme == other.scheme
            and self.parts == other.parts
            and self.bounds == other.bounds
        )

    def __repr__(self) -> str:
        return (
            f"PartitionSpec({self.table!r}, key={self.key!r}, "
            f"scheme={self.scheme!r}, parts={self.parts})"
        )


class _StateView(Mapping):
    """Live read view of a partitioned state; materializes stale tables."""

    __slots__ = ("_db",)

    def __init__(self, db: PartitionedDatabase) -> None:
        self._db = db

    def __getitem__(self, name: str) -> Bag:
        db = self._db
        if name in db._stale:
            db._materialize(name)
        return db._tables[name]

    def __iter__(self):
        return iter(self._db._tables)

    def __len__(self) -> int:
        return len(self._db._tables)

    def __contains__(self, name) -> bool:
        return name in self._db._tables


class _DeltaWindow:
    """Pre-patch view handed to write listeners by the fast-apply path.

    Listeners only consult the multiplicities of rows in the delta (to
    clamp over-deletes) plus emptiness, so the window carries exactly
    the pre-apply multiplicities of the delta's rows — O(|delta|), never
    the whole table.
    """

    __slots__ = ("_mults", "_nonempty")

    def __init__(self, mults: dict[Row, int], nonempty: bool) -> None:
        self._mults = mults
        self._nonempty = nonempty

    def multiplicity(self, row: Row) -> int:
        return self._mults.get(row, 0)

    def __bool__(self) -> bool:
        return self._nonempty

    def items(self):
        return self._mults.items()


class _SliceWindow:
    """Post-patch view over live slices (listeners may peek one row)."""

    __slots__ = ("_slices",)

    def __init__(self, slices: list[dict[Row, int]]) -> None:
        self._slices = slices

    def multiplicity(self, row: Row) -> int:
        for piece in self._slices:
            count = piece.get(row)
            if count is not None:
                return count
        return 0

    def __bool__(self) -> bool:
        return any(self._slices)

    def items(self):
        for piece in self._slices:
            yield from piece.items()


class _SliceMaintainer:
    """Write listener keeping partition slices current through the
    *generic* write paths (transactions, set_table, restore, rollback).

    The fast-apply path mutates slices directly and skips this listener.
    """

    __slots__ = ("_db",)

    def __init__(self, db: PartitionedDatabase) -> None:
        self._db = db

    def on_patch(self, name: str, delete: Bag, insert: Bag, before: Bag, after: Bag) -> None:
        db = self._db
        spec = db._specs.get(name)
        if spec is None:
            return
        slices = db._slices[name]
        position = spec.position
        for row, count in delete.items():
            piece = slices[spec.partition_of(row[position])]
            remaining = piece.get(row, 0) - count
            if remaining > 0:
                piece[row] = remaining
            else:
                piece.pop(row, None)
        for row, count in insert.items():
            piece = slices[spec.partition_of(row[position])]
            piece[row] = piece.get(row, 0) + count
        # The generic path installed the full post-patch bag, so the
        # logical value is exact again.
        db._stale.discard(name)

    def on_replace(self, name: str, bag: Bag) -> None:
        db = self._db
        spec = db._specs.get(name)
        if spec is None:
            return
        db._slices[name] = db._slice_bag(bag, spec)
        db._stale.discard(name)

    def on_drop(self, name: str) -> None:
        db = self._db
        db._specs.pop(name, None)
        db._slices.pop(name, None)
        db._stale.discard(name)


class PartitionedDatabase(Database):
    """A database whose declared tables are sliced into partitions.

    Undeclared tables behave exactly as in :class:`Database`; declared
    tables additionally keep one mutable counts dict per partition,
    maintained through every write path, and may be patched through
    :meth:`apply_parts` in time proportional to the delta.
    """

    def __init__(self, *, exec_mode: str | None = None) -> None:
        super().__init__(exec_mode=exec_mode)
        self._specs: dict[str, PartitionSpec] = {}
        self._slices: dict[str, list[dict[Row, int]]] = {}
        #: Tables whose ``_tables`` entry lags the slices (fast-applied
        #: but not yet re-materialized).
        self._stale: set[str] = set()
        self._maintainer = _SliceMaintainer(self)
        self.add_write_listener(self._maintainer)

    # ------------------------------------------------------------------
    # Declaration / introspection
    # ------------------------------------------------------------------

    def declare_partitioning(
        self,
        table: str,
        key: str,
        *,
        parts: int = 16,
        scheme: str = "hash",
        bounds: Iterable | None = None,
        domain: str | None = None,
    ) -> PartitionSpec:
        """Partition an existing table by ``key``; returns the spec.

        Idempotent re-declaration with identical parameters is allowed;
        changing the layout of an already-partitioned table is not.
        """
        self._require(table)
        schema = self._schemas[table]
        position = schema.index_of(key)
        spec = PartitionSpec(
            table,
            key,
            position,
            parts,
            scheme=scheme,
            bounds=tuple(bounds) if bounds is not None else None,
            domain=domain,
        )
        existing = self._specs.get(table)
        if existing is not None:
            if existing.co_partitioned(spec) and existing.key == key:
                return existing
            raise SchemaError(f"table {table!r} is already partitioned differently")
        self._specs[table] = spec
        self._slices[table] = self._slice_bag(self._tables[table], spec)
        # An engine with a mirror threads the layout down into it, so
        # pushed-down scans can prune by partition id.
        self.executor.declare_partition(table, spec)
        return spec

    def partition_spec(self, table: str) -> PartitionSpec | None:
        return self._specs.get(table)

    def partitioned_tables(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def partition_sizes(self, table: str) -> list[int]:
        """Distinct-row count per partition (observability)."""
        if table not in self._specs:
            raise UnknownTableError(f"table {table!r} is not partitioned")
        return [len(piece) for piece in self._slices[table]]

    def partition_slice(self, table: str, pid: int) -> Bag:
        """The contents of one partition as a bag (copies the slice)."""
        if table not in self._specs:
            raise UnknownTableError(f"table {table!r} is not partitioned")
        piece = self._slices[table][pid]
        return Bag._from_clean(dict(piece), self._schemas[table].arity if piece else None)

    def _slice_bag(self, bag: Bag, spec: PartitionSpec) -> list[dict[Row, int]]:
        slices: list[dict[Row, int]] = [{} for _ in range(spec.parts)]
        position = spec.position
        for row, count in bag.items():
            slices[spec.partition_of(row[position])][row] = count
        return slices

    # ------------------------------------------------------------------
    # Lazy logical values
    # ------------------------------------------------------------------

    def _materialize(self, name: str) -> None:
        """Rebuild the flat logical bag of a stale table from its slices."""
        merged: dict[Row, int] = {}
        for piece in self._slices[name]:
            merged.update(piece)
        arity = self._schemas[name].arity if merged else None
        self._tables[name] = Bag._from_clean(merged, arity)
        self._stale.discard(name)

    def _materialize_for(self, names: Iterable[str]) -> None:
        if self._stale:
            for name in names:
                if name in self._stale:
                    self._materialize(name)

    def _materialize_all(self) -> None:
        for name in tuple(self._stale):
            self._materialize(name)

    def __getitem__(self, name: str) -> Bag:
        if name in self._stale:
            self._materialize(name)
        return super().__getitem__(name)

    @property
    def state(self) -> Mapping[str, Bag]:
        return _StateView(self)

    def evaluate(self, expr: Expr, *, counter: CostCounter | None = None, binding=None) -> Bag:
        self._materialize_for(expr.tables())
        return super().evaluate(expr, counter=counter, binding=binding)

    def prime(self, *exprs: Expr, counter: CostCounter | None = None) -> None:
        for expr in exprs:
            self._materialize_for(expr.tables())
        super().prime(*exprs, counter=counter)

    def total_rows(self) -> int:
        self._materialize_all()
        return super().total_rows()

    def snapshot(self) -> dict[str, Bag]:
        self._materialize_all()
        return super().snapshot()

    def consistent_cut(self):
        # A pin must hold the rows its version stamps describe, not a
        # flat bag that partition-wise patches have since left behind.
        self._materialize_all()
        return super().consistent_cut()

    def clone(self) -> Database:
        self._materialize_all()
        return super().clone()

    def apply(self, assignments=None, **kwargs):
        assignments = {} if assignments is None else assignments
        patches = kwargs.get("patches") or {}
        needed: set[str] = set(assignments) | set(patches)
        for expr in assignments.values():
            needed |= set(expr.tables())
        for delete, insert in patches.values():
            needed |= set(delete.tables()) | set(insert.tables())
        self._materialize_for(needed)
        return super().apply(assignments, **kwargs)

    def __repr__(self) -> str:
        self._materialize_all()
        return super().__repr__()

    # ------------------------------------------------------------------
    # Affected keys and key-restricted reads
    # ------------------------------------------------------------------

    def affected_keys(
        self, table_bags: Mapping[str, Bag] | Iterable[tuple[str, Bag]]
    ) -> dict[str, set]:
        """Per-domain affected-key sets induced by pending delta bags.

        ``table_bags`` pairs a *base table name* with a delta bag carrying
        the base schema (a maintenance log's contents) — a mapping, or
        ``(table, bag)`` pairs when a table has several; the key column
        of the table's spec is projected out and unioned per domain.
        """
        by_domain: dict[str, set] = {}
        pairs = table_bags.items() if isinstance(table_bags, Mapping) else table_bags
        for table, bag in pairs:
            spec = self._specs.get(table)
            if spec is None:
                continue
            keys = by_domain.setdefault(spec.domain, set())
            position = spec.position
            for row in bag.support:
                keys.add(row[position])
        return by_domain

    def affected_partitions(self, table: str, keys: Iterable) -> set[int]:
        spec = self._specs[table]
        return {spec.partition_of(key) for key in keys}

    def restrict(self, table: str, keys: Iterable, *, counter: CostCounter | None = None) -> Bag:
        """Rows of ``table`` whose partition key is in ``keys``.

        Served by the maintained hash index on the key column — the same
        index the engines' probe joins use — so the cost is one bucket
        lookup per key, independent of the table size.
        """
        spec = self._specs[table]
        keys = list(keys)
        if table in self._stale:
            self._materialize(table)
        # Partial-index pushdown: an engine whose mirror carries a routed
        # ``__part`` column answers the restriction as one indexed C scan
        # instead of per-key Python dict probes.
        bag = self.executor.restricted_lookup(table, keys, counter=counter)
        if bag is not None:
            return bag
        index = self._indexes.get(table, (spec.position,), self._tables[table], counter=counter)
        merged: dict[Row, int] = {}
        for key in keys:
            merged.update(index.lookup((key,)))
        if counter is not None:
            counter.record_probes("index_probe", len(keys))
            counter.record("partition_restrict", len(merged))
        arity = self._schemas[table].arity if merged else None
        return Bag._from_clean(merged, arity)

    def split_by_partition(self, table: str, bag: Bag) -> dict[int, list[tuple[Row, int]]]:
        """Group a delta bag for ``table`` by target partition id."""
        spec = self._specs[table]
        position = spec.position
        grouped: dict[int, list[tuple[Row, int]]] = {}
        for row, count in bag.items():
            grouped.setdefault(spec.partition_of(row[position]), []).append((row, count))
        return grouped

    # ------------------------------------------------------------------
    # Delta-proportional epoch apply
    # ------------------------------------------------------------------

    def apply_parts(
        self,
        patches: Mapping[str, tuple[Bag, Bag]],
        *,
        clears: Mapping[str, Bag] | None = None,
        counter: CostCounter | None = None,
    ) -> dict[str, set[int]]:
        """Install one maintenance epoch partition-by-partition.

        ``patches`` maps *partitioned* tables to evaluated
        ``(delete, insert)`` bags, applied as ``(R ∸ delete) ⊎ insert``
        by mutating only the affected partitions' slices; ``clears``
        maps (small, unpartitioned) bookkeeping tables — logs,
        differential tables — to replacement values installed in the
        same atomic scope.

        Returns the set of partition ids touched per patched table.
        The whole epoch is all-or-nothing: a crash at the
        ``crash-mid-partition-apply`` fault point between partitions
        (or any other failure) rolls back every slice mutation, cleared
        table, version stamp, index delta and listener mirror.
        """
        clears = clears if clears is not None else {}
        for name in patches:
            if name not in self._specs:
                raise UnknownTableError(f"apply_parts target {name!r} is not partitioned")
            self._require(name)
        for name in clears:
            self._require(name)

        # Stage: route every delta row to its partition and record the
        # pre-apply multiplicities we may need to undo (and that the
        # write listeners need for over-delete clamping).
        staged: dict[str, dict[int, list[tuple[Row, int, int]]]] = {}
        windows: dict[str, dict[Row, int]] = {}
        nonempty: dict[str, bool] = {}
        touched: dict[str, set[int]] = {}
        for name, (delete, insert) in patches.items():
            spec = self._specs[name]
            slices = self._slices[name]
            nonempty[name] = any(slices)
            position = spec.position
            per_pid: dict[int, list[tuple[Row, int, int]]] = {}
            pre: dict[Row, int] = {}
            for row, count in delete.items():
                pid = spec.partition_of(row[position])
                per_pid.setdefault(pid, []).append((row, -count, 0))
                pre.setdefault(row, slices[pid].get(row, 0))
            for row, count in insert.items():
                pid = spec.partition_of(row[position])
                per_pid.setdefault(pid, []).append((row, count, 1))
                pre.setdefault(row, slices[pid].get(row, 0))
            staged[name] = per_pid
            windows[name] = pre
            touched[name] = set(per_pid)
            if counter is not None:
                counter.record("patch", len(delete) + len(insert))
                counter.record_partitions(len(per_pid))

        undo_slices: dict[str, dict[int, dict[Row, int | None]]] = {}
        old_clears = {name: self._tables[name] for name in clears}
        all_targets = list(patches) + [name for name in clears if name not in patches]
        old_versions = {name: self._versions.get(name) for name in all_targets}
        old_clock = self._clock
        try:
            for name, per_pid in staged.items():
                spec = self._specs[name]
                slices = self._slices[name]
                undo = undo_slices.setdefault(name, {})
                first = True
                for pid in sorted(per_pid):
                    if not first:
                        fault_point("crash-mid-partition-apply")
                    first = False
                    piece = slices[pid]
                    pid_undo = undo.setdefault(pid, {})
                    for row, signed, phase in per_pid[pid]:
                        if row not in pid_undo:
                            pid_undo[row] = piece.get(row)
                        current = piece.get(row, 0)
                        if phase == 0:  # delete: monus floors at zero
                            new = current + signed
                            if new > 0:
                                piece[row] = new
                            else:
                                piece.pop(row, None)
                        else:
                            piece[row] = current + signed
                self._stale.add(name)
                self._bump(name)
                delete, insert = patches[name]
                self._indexes.on_patch(
                    name, delete, insert, counter=counter, size=sum(map(len, slices))
                )
                before = _DeltaWindow(windows[name], nonempty[name])
                after = _SliceWindow(self._slices[name])
                for listener in self._listeners:
                    if listener is self._maintainer:
                        continue
                    listener.on_patch(name, delete, insert, before, after)
            for name, bag in clears.items():
                fault_point("crash-mid-partition-apply")
                self._tables[name] = bag
                self._bump(name)
                self._indexes.on_replace(name, bag, counter=counter)
                for listener in self._listeners:
                    listener.on_replace(name, bag)
            if obs.telemetry_enabled():
                obs.metric_inc("partitioned_epochs")
                for pids in touched.values():
                    obs.metric_observe("partitions_touched", len(pids))
        except BaseException:
            # Undo slice mutations exactly (original counts, including
            # absent rows), restore cleared tables, versions and clock,
            # then resync indexes and listener mirrors from the restored
            # values — same contract as ``Database._install``.
            for name, undo in undo_slices.items():
                slices = self._slices[name]
                for pid, rows in undo.items():
                    piece = slices[pid]
                    for row, original in rows.items():
                        if original is None:
                            piece.pop(row, None)
                        else:
                            piece[row] = original
                self._materialize(name)
            for name, old_bag in old_clears.items():
                self._tables[name] = old_bag
            for name in all_targets:
                old_version = old_versions[name]
                if old_version is None:
                    self._versions.pop(name, None)
                else:
                    self._versions[name] = old_version
                restored = self._tables[name]
                self._indexes.on_replace(name, restored)
                for listener in self._listeners:
                    listener.on_replace(name, restored)
            self._clock = old_clock
            raise
        return touched
