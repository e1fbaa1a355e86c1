"""Immutable snapshot handles and the pin registry (MVCC for readers).

The storage layer already stores every table as an immutable
:class:`~repro.algebra.bag.Bag`, so a *snapshot* of the whole database
is nothing more than a dict of references plus the version stamps it was
cut at — O(#tables), never O(data).  What the serving layer adds is the
discipline around that copy:

* :meth:`~repro.storage.database.Database.consistent_cut` takes the copy
  under the commit mutex, so a pin can never observe half of a
  simultaneous transaction's install loop (no torn reads);
* :class:`SnapshotHandle` freezes the cut and answers reads and ad-hoc
  queries against it forever, no matter what the live database does
  next;
* :class:`SnapshotRegistry` refcounts pins and collects superseded
  snapshots the moment their last reader releases them, so memory held
  by old versions is bounded by the number of *live* readers, not by
  write traffic.

Handles evaluate ad-hoc expressions with the **shared lowering**
(:mod:`repro.exec.compiler`) over their own frozen tables: the plan runs
through an :class:`~repro.exec.executor.ExecutionContext` whose state is
the cut, whose version stamps are the pinned ones and whose indexes come
from :data:`~repro.exec.indexes.FROZEN_INDEXES` — built once per
immutable bag and kept on the bag, so every snapshot sharing that
version of a table probes the same index.  A keyed read costs a probe
plus its bucket, an unkeyed one a single fused pass.  What a pinned read
stays isolated from is the live engine's *state*, not the lowering: the
live executor's plan table and node memos (stamped with the live
versions), the live :class:`~repro.exec.indexes.IndexManager` (its
buckets are mutated in place by the writer) and the sqlite mirror are
never consulted, whatever the database's ``exec_mode``.  The
interpreted evaluator remains the oracle the tests compare pinned
results against.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr, TableRef, split_parameters
from repro.algebra.schema import Schema
from repro.errors import SchemaError, UnknownTableError
from repro.exec.compiler import PIndexSelect, PNode
from repro.exec.executor import Executor, ExecutionContext, execute, plan_for
from repro.exec.indexes import FROZEN_INDEXES
from repro.robustness.journal import bag_digest

__all__ = ["SnapshotHandle", "SnapshotRegistry"]


class SnapshotHandle:
    """One immutable ``(tables, versions, clock, schemas)`` cut of a database.

    Handles are created by :meth:`SnapshotRegistry.pin` and stay readable
    until every pin is :meth:`release`-d — and, since the tables are
    plain references to immutable bags, they stay readable even then; the
    registry merely stops *retaining* them.  Use as a context manager to
    release on exit.
    """

    __slots__ = (
        "snapshot_id", "clock", "tick", "reflects",
        "_tables", "_versions", "_schemas", "_registry", "_plans", "_refs",
    )

    def __init__(
        self,
        snapshot_id: int,
        tables: Mapping[str, Bag],
        versions: Mapping[str, int],
        clock: int,
        schemas: Mapping[str, Schema],
        *,
        tick: int = 0,
        reflects: int = 0,
        registry: SnapshotRegistry | None = None,
    ) -> None:
        #: Monotonic pin identifier (registry-scoped).
        self.snapshot_id = snapshot_id
        #: The database's global write clock at the cut.
        self.clock = clock
        #: Simulated time the server published this snapshot at.
        self.tick = tick
        #: Simulated time of the database state the view tables in this
        #: snapshot reflect (Policy 2's ``mv_reflects`` at publish).
        self.reflects = reflects
        self._tables = dict(tables)
        self._versions = dict(versions)
        self._schemas = dict(schemas)
        self._registry = registry
        # Compiled plans are shared through the registry, which pins one
        # database only (a node's memo stamps compare within one
        # database); a handle built without a registry keeps its own.
        self._plans: dict[Expr, PNode] = registry.plans if registry is not None else {}
        self._refs: dict[Expr, tuple[tuple[str, Schema], ...]] = (
            registry.refs if registry is not None else {}
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def table(self, name: str) -> Bag:
        """The pinned contents of ``name`` (never reflects later writes)."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no such table in snapshot: {name!r}") from None

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def version_of(self, name: str) -> int:
        """The pinned version stamp of ``name``."""
        return self._versions.get(name, -1)

    def evaluate(self, expr: Expr, *, counter: CostCounter | None = None) -> Bag:
        """Evaluate an ad-hoc query against the pinned state.

        Runs the compiled lowering over the frozen tables, with the
        pinned version stamps and per-bag frozen indexes (see the module
        docstring); no live engine state is read.  A prepared query
        (:class:`~repro.algebra.expr.Parameterized`) runs its template's
        one plan with its values as the call's binding.  Fails closed on
        schema drift: ``expr`` was built against *some* catalog, and a
        table it names may have been dropped and re-created since the
        pin — a reference whose schema is not the pinned one raises
        :class:`SchemaError`, a table absent from the cut
        :class:`UnknownTableError`.  The references are collected once
        per expression and checked against every pin.
        """
        expr, binding = split_parameters(expr, binding=None)
        refs = self._refs.get(expr)
        if refs is None:
            refs = _table_refs(expr)
            if len(self._refs) > Executor.MAX_NODES:
                self._refs.clear()
            self._refs[expr] = refs
        schemas = self._schemas
        for name, schema in refs:
            pinned = schemas.get(name)
            if pinned is None:
                raise UnknownTableError(f"no such table in snapshot: {name!r}")
            if pinned != schema:
                raise SchemaError(
                    f"table {name!r} is pinned with schema {list(pinned)} but the "
                    f"query was built against {list(schema)}"
                )
        plan = plan_for(self._plans, expr, counter)
        if obs.telemetry_enabled():
            access = "probe" if isinstance(plan, PIndexSelect) else "scan"
            obs.metric_inc(f'pinned_reads{{access="{access}"}}')
        ctx = ExecutionContext(self._tables, counter, FROZEN_INDEXES, self.version_of, binding)
        return execute(ctx.admit(plan), ctx, binding)

    def digest(self, name: str) -> str:
        """Order-insensitive content digest of a pinned table."""
        return bag_digest(self.table(name))

    def total_rows(self) -> int:
        return sum(len(bag) for bag in self._tables.values())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def release(self) -> None:
        """Drop one pin; idempotent once the registry forgot the handle."""
        if self._registry is not None:
            self._registry.release(self)

    def __enter__(self) -> SnapshotHandle:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return (
            f"SnapshotHandle(id={self.snapshot_id}, clock={self.clock}, "
            f"tick={self.tick}, tables={len(self._tables)})"
        )


def _table_refs(expr: Expr) -> tuple[tuple[str, Schema], ...]:
    """Every distinct ``(name, schema)`` a table reference in ``expr`` carries."""
    refs: dict[tuple[str, Schema], None] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, TableRef):
            refs[node.name, node.table_schema] = None
        else:
            stack.extend(node.children())
    return tuple(refs)


class SnapshotRegistry:
    """Refcounted pin registry with GC of superseded snapshots.

    Thread-safe: readers pin/release concurrently with the writer
    publishing new cuts.  A snapshot is *live* while any pin holds it;
    when the last pin releases a snapshot that is no longer the newest,
    the registry drops its reference (``collected_total``) and Python's
    own refcounting reclaims the dict — the bags themselves are shared
    with the live database and every other snapshot that references
    them, so collection is O(#tables) too.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._database = None
        #: Compiled plans of every handle this registry pinned (bounded
        #: like an executor's node table).  Never the live executor's.
        self.plans: dict[Expr, PNode] = {}
        #: Per expression the handles evaluated, the table references
        #: each pin's schemas are checked against (bounded the same way).
        self.refs: dict[Expr, tuple[tuple[str, Schema], ...]] = {}
        self._pins: dict[int, int] = {}
        self._handles: dict[int, SnapshotHandle] = {}
        self._next_id = 0
        self._newest_id = -1
        self.pins_total = 0
        self.releases_total = 0
        self.collected_total = 0

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------

    def pin(self, db, *, tick: int = 0, reflects: int = 0) -> SnapshotHandle:
        """Cut and pin a fresh snapshot of ``db`` (O(#tables)).

        A registry serves one database: its handles share compiled plans
        whose memos are guarded by version stamps, and stamps of two
        databases (a clone and its origin, say) can be equal over
        different contents.  Pinning a second database is refused.
        """
        cut = db.consistent_cut()
        with self._lock:
            if self._database is None:
                self._database = db
            elif self._database is not db:
                raise ValueError("a SnapshotRegistry pins one database; use a registry per database")
            self._next_id += 1
            handle = SnapshotHandle(
                self._next_id, *cut, tick=tick, reflects=reflects, registry=self
            )
            self._pins[handle.snapshot_id] = 1
            self._handles[handle.snapshot_id] = handle
            self._newest_id = handle.snapshot_id
            self.pins_total += 1
            return handle

    def repin(self, handle: SnapshotHandle) -> SnapshotHandle:
        """Add one pin to an existing live handle (a reader joining it)."""
        with self._lock:
            if handle.snapshot_id not in self._pins:
                raise ValueError(f"snapshot {handle.snapshot_id} is no longer retained")
            self._pins[handle.snapshot_id] += 1
            self.pins_total += 1
            return handle

    def release(self, handle: SnapshotHandle) -> None:
        """Drop one pin; collect the snapshot when superseded and unpinned."""
        with self._lock:
            count = self._pins.get(handle.snapshot_id)
            if count is None:
                return
            self.releases_total += 1
            if count > 1:
                self._pins[handle.snapshot_id] = count - 1
                return
            del self._pins[handle.snapshot_id]
            del self._handles[handle.snapshot_id]
            self.collected_total += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_count(self) -> int:
        """Snapshots currently retained (pinned by at least one reader)."""
        with self._lock:
            return len(self._pins)

    def pin_count(self, handle: SnapshotHandle) -> int:
        with self._lock:
            return self._pins.get(handle.snapshot_id, 0)

    def retained_rows(self) -> int:
        """Total rows referenced across live snapshots (shared, not copied)."""
        with self._lock:
            handles = list(self._handles.values())
        return sum(handle.total_rows() for handle in handles)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "live": len(self._pins),
                "pins_total": self.pins_total,
                "releases_total": self.releases_total,
                "collected_total": self.collected_total,
            }
