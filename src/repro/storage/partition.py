"""Partitioned database states: hash/range routing rules over flat tables.

A :class:`PartitionedDatabase` is a :class:`~repro.storage.database.Database`
whose declared tables carry a *partition spec*: a routing rule that maps
one column (the **partition key**) to a partition id.  The rows stay in
the one flat bag every engine reads; a partition is a routing rule, not
a second copy of the table.  The spec buys two things:

* **partition pruning** — the affected-key sets the maintenance logs
  induce (:meth:`affected_keys`) are what a pruned maintenance plan's
  key-restricted leaves (:mod:`repro.analysis.partitioning`) are bound
  to at each epoch, so a refresh reads only the key-index buckets of the
  keys that appear in the pending delta;
* **partition-granular accounting** — :meth:`apply_parts` reports which
  partitions an epoch touched.

Two partitioning schemes are supported:

* ``hash`` — a deterministic hash of the key value modulo ``parts``
  (stable across processes, unlike built-in ``hash`` on strings);
* ``range`` — ``bounds`` is a sorted sequence of cut points; partition
  ``i`` holds keys in ``(bounds[i-1], bounds[i]]`` (``parts`` is then
  ``len(bounds) + 1``).

Tables that share a *domain* (same key meaning, same scheme and part
count) are **co-partitioned**: an equi-join on their keys never crosses
partitions, which is what makes per-partition maintenance sound.

Crash safety: :meth:`apply_parts` stages the whole epoch, with a
``crash-mid-partition-apply`` fault point between partition groups, and
commits it through :meth:`Database._install` — the same commit mutex,
rollback, index and listener handling as every other transaction.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from typing import Any

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
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


class PartitionedDatabase(Database):
    """A database whose declared tables carry a partition spec.

    Undeclared tables behave exactly as in :class:`Database`; declared
    tables are routed by their spec for pruning, accounting and
    :meth:`apply_parts`, and stored exactly as undeclared ones are.
    """

    def __init__(self, *, exec_mode: str | None = None) -> None:
        super().__init__(exec_mode=exec_mode)
        self._specs: dict[str, PartitionSpec] = {}

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
        return spec

    def drop_table(self, name: str) -> None:
        super().drop_table(name)
        # A re-created table starts unpartitioned.
        self._specs.pop(name, None)

    def partition_spec(self, table: str) -> PartitionSpec | None:
        return self._specs.get(table)

    def partitioned_tables(self) -> tuple[str, ...]:
        return tuple(self._specs)

    def _routed(self, table: str) -> list[dict[Row, int]]:
        """The table's rows routed by its spec (observability, O(table))."""
        spec = self._specs.get(table)
        if spec is None:
            raise UnknownTableError(f"table {table!r} is not partitioned")
        pieces: list[dict[Row, int]] = [{} for _ in range(spec.parts)]
        position = spec.position
        for row, count in self._tables[table].items():
            pieces[spec.partition_of(row[position])][row] = count
        return pieces

    def partition_sizes(self, table: str) -> list[int]:
        """Distinct-row count per partition (observability)."""
        return [len(piece) for piece in self._routed(table)]

    def partition_slice(self, table: str, pid: int) -> Bag:
        """The rows of ``table`` that route to partition ``pid``."""
        piece = self._routed(table)[pid]
        return Bag._from_clean(piece, self._schemas[table].arity if piece else None)

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

    def restrict(self, table: str, keys: Iterable, *, counter: CostCounter | None = None) -> Bag:
        """Rows of ``table`` whose partition key is in ``keys``.

        Served by the maintained hash index on the key column — the same
        index the engines' probe joins use — so the cost is one bucket
        lookup per key, independent of the table size, on every engine.
        """
        spec = self._specs[table]
        keys = list(keys)
        index = self._indexes.get(table, (spec.position,), self._tables[table], counter=counter)
        merged: dict[Row, int] = {}
        for key in keys:
            merged.update(index.lookup((key,)))
        if counter is not None:
            counter.record_probes("index_probe", len(keys))
            counter.record("partition_restrict", len(merged))
        arity = self._schemas[table].arity if merged else None
        return Bag._from_clean(merged, arity)

    # ------------------------------------------------------------------
    # Epoch apply
    # ------------------------------------------------------------------

    def apply_parts(
        self,
        patches: Mapping[str, tuple[Bag, Bag]],
        *,
        clears: Mapping[str, Bag] | None = None,
        counter: CostCounter | None = None,
    ) -> dict[str, set[int]]:
        """Install one maintenance epoch as one atomic transaction.

        ``patches`` maps *partitioned* tables to evaluated
        ``(delete, insert)`` bags, applied as ``(R ∸ delete) ⊎ insert``;
        ``clears`` maps (small, unpartitioned) bookkeeping tables — logs,
        differential tables — to replacement values installed in the
        same commit.

        Returns the set of partition ids touched per patched table.
        The delta rows are routed by partition, with the
        ``crash-mid-partition-apply`` fault point between partition
        groups; the staged epoch then commits through
        :meth:`Database._install`, so a failure anywhere leaves every
        table, version stamp, index and listener mirror as it was, and a
        concurrent :meth:`consistent_cut` sees all of the epoch or none.
        """
        clears = clears if clears is not None else {}
        for name in patches:
            if name not in self._specs:
                raise UnknownTableError(f"apply_parts target {name!r} is not partitioned")
        for name in clears:
            self._require(name)
        sanitizer = obs.active_sanitizer()
        if sanitizer is not None and not sanitizer.tracking():
            sanitizer = None

        touched: dict[str, set[int]] = {}
        new_values: dict[str, Bag] = {}
        for name, (delete, insert) in patches.items():
            spec = self._specs[name]
            position = spec.position
            pids = {spec.partition_of(row[position]) for bag in (delete, insert) for row in bag.support}
            for _ in range(len(pids) - 1):
                fault_point("crash-mid-partition-apply")
            touched[name] = pids
            if counter is not None:
                counter.record("patch", len(delete) + len(insert))
                counter.record_partitions(len(pids))
            if sanitizer is not None:
                # A patch is a read-modify-write of its target table.
                sanitizer.on_read((name,))
            new_values[name] = self._tables[name].patch(delete, insert)
        new_values.update(clears)
        if sanitizer is not None:
            sanitizer.on_write(new_values)
        self._install(new_values, patches, counter=counter)
        if obs.telemetry_enabled():
            obs.metric_inc("partitioned_epochs")
            for pids in touched.values():
                obs.metric_observe("partitions_touched", len(pids))
        return touched
