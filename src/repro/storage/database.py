"""Database states and simultaneous-assignment transaction execution.

A *database state* (Section 2.1) maps table names to bags.  The
:class:`Database` here holds one current state plus per-table schemas and
an external/internal partition:

* **external** tables are user-updatable base tables;
* **internal** tables store maintenance bookkeeping — materialized view
  tables, log tables :math:`\\blacktriangledown R_i / \\blacktriangle R_i`,
  and view differential tables :math:`\\triangledown MV / \\triangle MV`.
  User transactions are not allowed to touch them (Section 3.1).

Transactions follow the paper's abstract-transaction semantics
(Section 2.2): a transaction is a set of assignments
:math:`\\{R_i := Q_i\\}` whose right-hand sides are *all evaluated in the
pre-transaction state* and then installed simultaneously.  The
``T1 + T2`` composition of Figure 3 is simply the union of two
assignment sets executed this way.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr, TableRef
from repro.algebra.schema import Schema
from repro.errors import SchemaError, TransactionError, UnknownTableError
from repro.exec import default_exec_mode, engine_class, resolve_exec_mode
from repro.exec.indexes import IndexManager
from repro.robustness.faults import fault_point

__all__ = ["Database"]


class Database:
    """A mutable collection of named bag tables with schemas.

    Queries run through one engine, :attr:`executor`, built from
    ``exec_mode`` through :data:`repro.exec.ENGINES`:

    * ``exec_mode="compiled"`` (the default) lowers expressions once
      into cached physical plans whose subexpression results are reused
      across calls, guarded by per-table *version stamps* — a monotonic
      clock value bumped on every write to a table;
    * ``exec_mode="sqlite"`` pushes pushable plan subtrees down into an
      incrementally-mirrored SQLite database, falling back to the
      compiled plans per subtree, and for whole expressions while the
      SQLite backend fails;
    * ``exec_mode="interpreted"`` walks the AST on every call and serves
      as the correctness oracle.

    The database also owns the :class:`~repro.exec.indexes.IndexManager`
    holding hash indexes on stored tables; every write path below
    forwards its delta (or replacement value) so indexes stay current
    incrementally.  An engine that keeps further derived state (the
    SQLite mirror) registers a *write listener* via
    :meth:`add_write_listener` and receives the same per-write deltas.
    """

    def __init__(self, *, exec_mode: str | None = None) -> None:
        self._tables: dict[str, Bag] = {}
        self._schemas: dict[str, Schema] = {}
        self._internal: set[str] = set()
        #: Guards every multi-table commit section against a concurrent
        #: :meth:`consistent_cut`.  The critical sections are O(#tables
        #: touched) reference installs — never O(data) — so holding the
        #: mutex costs a writer nothing measurable, and a snapshot pin
        #: can never observe half of a simultaneous transaction.
        self._commit_mutex = threading.RLock()
        self._exec_mode = default_exec_mode() if exec_mode is None else resolve_exec_mode(exec_mode)
        self._versions: dict[str, int] = {}
        self._clock = 0
        self._indexes = IndexManager()
        self._executor = None
        #: Write listeners: objects with ``on_patch(name, delete, insert,
        #: before, after)``, ``on_replace(name, bag)``, ``on_drop(name)``.
        self._listeners: list = []
        #: Path of the snapshot file this state was loaded from, if any
        #: (set by :func:`repro.storage.persistence.load_database`).
        self.durable_origin = None
        #: Whether a write-ahead intent journal guards maintenance on
        #: this database (set by :class:`repro.robustness.DurableWarehouse`).
        self.journaled = False

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------

    @property
    def exec_mode(self) -> str:
        return self._exec_mode

    @property
    def indexes(self) -> IndexManager:
        return self._indexes

    @property
    def executor(self):
        """The engine every evaluation, prime and footprint goes through."""
        if self._executor is None:
            self._executor = engine_class(self._exec_mode)(self)
        return self._executor

    def heal_engine(self) -> list[str]:
        """Resync the engine's derived state; an unbuilt engine stays unbuilt."""
        return [] if self._executor is None else self._executor.heal()

    def add_write_listener(self, listener) -> None:
        """Register an engine-side mirror for per-write delta forwarding.

        Listeners see every mutation path — patch installs (with the
        pre- and post-patch values), wholesale replacements, restores,
        rollbacks, and drops — in the order they take effect, so derived
        state stays exactly as current as the maintained hash indexes.
        """
        self._listeners.append(listener)

    def _notify_patch(self, name: str, delete: Bag, insert: Bag, before: Bag, after: Bag) -> None:
        for listener in self._listeners:
            listener.on_patch(name, delete, insert, before, after)

    def _notify_replace(self, name: str, bag: Bag) -> None:
        for listener in self._listeners:
            listener.on_replace(name, bag)

    def _notify_drop(self, name: str) -> None:
        for listener in self._listeners:
            listener.on_drop(name)

    @property
    def clock(self) -> int:
        """The write clock: the latest version stamp handed to any table."""
        return self._clock

    def version_of(self, name: str) -> int:
        """The table's current version stamp (bumped on every write)."""
        return self._versions.get(name, -1)

    def _bump(self, name: str) -> None:
        self._clock += 1
        self._versions[name] = self._clock

    def prime(self, *exprs: Expr, counter: CostCounter | None = None) -> None:
        """Compile ``exprs`` now and pre-build the indexes their plans use.

        Scenarios call this at install time while log tables are still
        empty, so index builds are free and all later maintenance is
        incremental.  The interpreted engine has nothing to prime.
        """
        for expr in exprs:
            self.executor.prime(expr, counter=counter)

    # ------------------------------------------------------------------
    # Catalog operations
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema | Iterable[str],
        *,
        rows: Iterable[Row] = (),
        internal: bool = False,
    ) -> TableRef:
        """Create a table and return a reference to it."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        bag = Bag(rows)
        if bag.arity is not None and bag.arity != schema.arity:
            raise SchemaError(f"initial rows have arity {bag.arity}, schema has arity {schema.arity}")
        with self._commit_mutex:
            self._tables[name] = bag
            self._schemas[name] = schema
            if internal:
                self._internal.add(name)
            self._bump(name)
        return TableRef(name, schema)

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        self._require(name)
        with self._commit_mutex:
            del self._tables[name]
            del self._schemas[name]
            self._internal.discard(name)
            self._versions.pop(name, None)
            self._indexes.drop(name)
        if self._listeners:
            self._notify_drop(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def is_internal(self, name: str) -> bool:
        self._require(name)
        return name in self._internal

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def external_tables(self) -> tuple[str, ...]:
        return tuple(name for name in self._tables if name not in self._internal)

    def internal_tables(self) -> tuple[str, ...]:
        return tuple(name for name in self._tables if name in self._internal)

    def schema_of(self, name: str) -> Schema:
        self._require(name)
        return self._schemas[name]

    def ref(self, name: str) -> TableRef:
        """A :class:`TableRef` expression for an existing table."""
        self._require(name)
        return TableRef(name, self._schemas[name])

    def _require(self, name: str) -> None:
        if name not in self._tables:
            raise UnknownTableError(f"no such table: {name!r}")

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def __getitem__(self, name: str) -> Bag:
        self._require(name)
        return self._tables[name]

    @property
    def state(self) -> Mapping[str, Bag]:
        """The current state as a read-only mapping for evaluation."""
        return self._tables

    def evaluate(self, expr: Expr, *, counter: CostCounter | None = None, binding=None) -> Bag:
        """Evaluate a query in the current state.

        ``binding`` is what this call supplies for the expression's
        leaves that hold no data of their own (maintenance plans only):
        a partition domain maps to the key set its key-restricted leaves
        select by (:class:`~repro.algebra.expr.KeyRestrict`), a bound
        leaf's name to its bag (:class:`~repro.algebra.expr.Bound`).  A
        prepared query (:class:`~repro.algebra.expr.Parameterized`, what
        ``sql_to_expr`` returns) brings its parameter values itself.
        """
        sanitizer = obs.active_sanitizer()
        if sanitizer is not None and sanitizer.tracking():
            sanitizer.on_read(expr.tables())
        return self.executor.evaluate(expr, counter=counter, binding=binding)

    def batch(self, *, counter: CostCounter | None = None, binding=None) -> Callable[[Expr], Bag]:
        """:meth:`evaluate` for several expressions over one unchanged state (a
        view's delta pair), sharing subresults even on the interpreted engine."""
        run = self.executor.batch(counter=counter, binding=binding)
        sanitizer = obs.active_sanitizer()
        if sanitizer is None or not sanitizer.tracking():
            return run

        def tracked(expr: Expr) -> Bag:
            sanitizer.on_read(expr.tables())
            return run(expr)

        return tracked

    def total_rows(self) -> int:
        """Total tuple count across all tables (with multiplicity)."""
        return sum(len(bag) for bag in self._tables.values())

    # ------------------------------------------------------------------
    # Direct mutation (bulk loading / bookkeeping)
    # ------------------------------------------------------------------

    def set_table(self, name: str, bag: Bag) -> None:
        """Replace a table's contents wholesale (bypasses transactions)."""
        self._require(name)
        if bag.arity is not None and bag.arity != self._schemas[name].arity:
            raise SchemaError(
                f"cannot set {name!r}: bag arity {bag.arity} vs schema arity {self._schemas[name].arity}"
            )
        with self._commit_mutex:
            self._tables[name] = bag
            self._bump(name)
        self._indexes.on_replace(name, bag)
        if self._listeners:
            self._notify_replace(name, bag)

    def load(self, name: str, rows: Iterable[Row]) -> None:
        """Bulk-insert rows (bypasses transactions; for initial loading)."""
        self.set_table(name, self._tables[name].union_all(Bag(rows)))

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def apply(
        self,
        assignments: Mapping[str, Expr] = {},
        *,
        patches: Mapping[str, tuple[Expr, Expr]] | None = None,
        counter: CostCounter | None = None,
        restrict_to_external: bool = False,
        binding=None,
    ) -> None:
        """Execute one simultaneous transaction of assignments and patches.

        ``assignments`` is the abstract-transaction form
        :math:`\\{R_i := Q_i\\}`; ``patches`` maps a table to a
        ``(delete, insert)`` expression pair applied as
        :math:`R := (R \\dot{-} delete) \\uplus insert`.

        All right-hand sides — assignment queries and patch deltas — are
        evaluated against the pre-transaction state (sharing one memo
        table, so common subexpressions are computed once), then
        installed atomically.

        Patches model *indexed in-place updates*: the recorded cost
        (operator ``"patch"``) is the delta size, not the table size.
        This is what makes per-transaction overhead and refresh downtime
        measurements delta-proportional, as the paper assumes.

        With ``restrict_to_external=True`` the transaction is validated
        as a *user* transaction: it may only touch external tables.
        ``binding`` binds the right-hand sides' restricted and bound
        leaves, as in :meth:`evaluate`.

        The transaction is **exception-safe**: every right-hand side is
        evaluated and every patched bag is staged before anything is
        installed, and the install phase itself (table values, version
        stamps, maintained indexes) rolls back completely if any step
        raises — an error mid-transaction never leaves tables, versions,
        and indexes mutually inconsistent.
        """
        patches = patches if patches is not None else {}
        overlap = set(assignments) & set(patches)
        if overlap:
            raise TransactionError(f"tables both assigned and patched: {sorted(overlap)}")
        with obs.span("apply", assignments=len(assignments), patches=len(patches), counter=counter):
            self._apply(
                assignments, patches, counter=counter, restrict_to_external=restrict_to_external, binding=binding
            )

    def _apply(
        self,
        assignments: Mapping[str, Expr],
        patches: Mapping[str, tuple[Expr, Expr]],
        *,
        counter: CostCounter | None = None,
        restrict_to_external: bool = False,
        binding=None,
    ) -> None:
        # The op stack only changes at span boundaries outside this call,
        # so whether accesses are judged is constant for the whole
        # transaction — hoist the check out of the per-expression loops.
        sanitizer = obs.active_sanitizer()
        if sanitizer is not None and not sanitizer.tracking():
            sanitizer = None
        batch = self.executor.batch(counter=counter, binding=binding)

        def run(expr: Expr) -> Bag:
            if sanitizer is not None:
                sanitizer.on_read(expr.tables())
            return batch(expr)

        new_values: dict[str, Bag] = {}
        patch_deltas: dict[str, tuple[Bag, Bag]] = {}

        def check_target(name: str, arity: int, kind: str) -> None:
            self._require(name)
            if restrict_to_external and name in self._internal:
                raise TransactionError(f"user transactions may not update internal table {name!r}")
            if arity != self._schemas[name].arity:
                raise SchemaError(
                    f"{kind} of {name!r} has arity {arity}, schema has arity "
                    f"{self._schemas[name].arity}"
                )

        for name, expr in assignments.items():
            check_target(name, expr.schema().arity, "assignment")
            new_values[name] = run(expr)
        for name, (delete, insert) in patches.items():
            check_target(name, delete.schema().arity, "patch delete")
            check_target(name, insert.schema().arity, "patch insert")
            delete_value = run(delete)
            insert_value = run(insert)
            if counter is not None:
                counter.record("patch", len(delete_value) + len(insert_value))
            if sanitizer is not None:
                # A patch is a read-modify-write of its target table.
                sanitizer.on_read((name,))
            new_values[name] = self._tables[name].patch(delete_value, insert_value)
            patch_deltas[name] = (delete_value, insert_value)
        if sanitizer is not None:
            sanitizer.on_write(new_values)
        if obs.telemetry_enabled():
            obs.metric_inc("transactions")
            for delete_value, insert_value in patch_deltas.values():
                obs.metric_observe("delta_rows", len(delete_value) + len(insert_value))
        self._install(new_values, patch_deltas, counter=counter)

    def _install(
        self,
        new_values: dict[str, Bag],
        patch_deltas: Mapping[str, tuple[Bag, Bag]],
        *,
        counter: CostCounter | None = None,
    ) -> None:
        """Commit fully staged values all-or-nothing.

        All reads are done by the time this runs; on any failure (index
        maintenance, an injected crash) the tables, version stamps, and
        indexes of every target are restored to their pre-transaction
        state before the exception propagates.
        """
        old_values = {name: self._tables[name] for name in new_values}
        old_versions = {name: self._versions.get(name) for name in new_values}
        old_clock = self._clock
        with self._commit_mutex:
            try:
                for name, bag in new_values.items():
                    fault_point("crash-mid-apply")
                    self._tables[name] = bag
                    self._bump(name)
                    delta = patch_deltas.get(name)
                    if delta is not None:
                        self._indexes.on_patch(name, delta[0], delta[1], counter=counter)
                        if self._listeners:
                            self._notify_patch(name, delta[0], delta[1], old_values[name], bag)
                    else:
                        self._indexes.on_replace(name, bag, counter=counter)
                        if self._listeners:
                            self._notify_replace(name, bag)
            except BaseException:
                for name, old_bag in old_values.items():
                    self._tables[name] = old_bag
                    old_version = old_versions[name]
                    if old_version is None:
                        self._versions.pop(name, None)
                    else:
                        self._versions[name] = old_version
                    # A failed incremental index update may have left the
                    # table's indexes half-maintained; rebuild them from the
                    # restored value.  Engine mirrors get the same signal.
                    self._indexes.on_replace(name, old_bag)
                    if self._listeners:
                        self._notify_replace(name, old_bag)
                self._clock = old_clock
                raise

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Bag]:
        """Capture the current state (bags are immutable, so this is cheap)."""
        return dict(self._tables)

    def consistent_cut(self) -> tuple[dict[str, Bag], dict[str, int], int, dict[str, Schema]]:
        """Atomically capture ``(tables, versions, clock, schemas)`` for a snapshot pin.

        Unlike :meth:`snapshot`, the copy is taken under the commit mutex,
        so it can never interleave with the install loop of a simultaneous
        transaction: the cut either wholly precedes or wholly follows every
        multi-table commit.  Bags are immutable, so this is an O(#tables)
        reference copy — no data is duplicated.  The schemas ride in the
        same cut so a pinned reader can tell a table it pinned from one
        dropped and re-created under the same name since.  This is the seam
        :class:`repro.serve.SnapshotRegistry` pins reader snapshots on.
        """
        with self._commit_mutex:
            return dict(self._tables), dict(self._versions), self._clock, dict(self._schemas)

    def restore(self, snapshot: Mapping[str, Bag]) -> None:
        """Restore a state previously captured with :meth:`snapshot`."""
        for name in snapshot:
            self._require(name)
        with self._commit_mutex:
            self._tables.update(snapshot)
            for name, bag in snapshot.items():
                self._bump(name)
        for name, bag in snapshot.items():
            self._indexes.on_replace(name, bag)
            if self._listeners:
                self._notify_replace(name, bag)

    def clone(self) -> Database:
        """An independent copy sharing the (immutable) bag values.

        The clone keeps the execution mode and version history but gets
        its own executor and (empty) index manager, so plans, memos, and
        indexes are never shared between divergent states.
        """
        other = Database(exec_mode=self._exec_mode)
        other._tables = dict(self._tables)
        other._schemas = dict(self._schemas)
        other._internal = set(self._internal)
        other._versions = dict(self._versions)
        other._clock = self._clock
        return other

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}[{len(bag)}]" for name, bag in self._tables.items())
        return f"Database({parts})"
