"""Shared, sequenced change logs (future work item 2 of Section 7).

The paper's ``makesafe_BL`` keeps one log *per view*: a transaction
touching a table read by ``n`` views performs ``n`` log extensions.  The
paper asks how to make per-transaction work independent of the number of
views.  This module answers with a **shared sequenced log**:

* one internal log table per base table, with rows
  ``(seq, op, column…)`` where ``op`` is ``'D'`` or ``'I'``;
* every transaction appends its (weakly minimized) deltas exactly once
  per touched table, tagged with a global sequence number — O(changes),
  independent of the view count;
* each view keeps a *cursor*: the sequence number through which it has
  already refreshed.  Refreshing a view replays the entries past its
  cursor with the same weakly-minimal folding as ``makesafe_BL``
  (Lemma 4), reconstructing the net ``(▼R, ▲R)`` bags, and then applies
  the standard post-update deltas of Section 4;
* entries at or below the minimum cursor are pruned.

:class:`SharedLogScenario` packages this as a drop-in scenario: the
``INV_BL`` invariant holds for every registered view with respect to its
cursor's slice of the log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from typing import NamedTuple

from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Bound, Expr, Literal, Product, UnionAll
from repro.algebra.schema import Schema
from repro.core.differential import differentiate
from repro.core.ops import MaintenanceOp, OpStep
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import Scenario
from repro.core.substitution import FactoredSubstitution, bound_pair, pair_binding
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import PolicyError, SchemaError
from repro.exec.group import (
    EpochDeltaCache,
    GroupScheduler,
    GroupTask,
    evaluate_delta_pair,
    subplan_fingerprint,
)
from repro.robustness.faults import fault_point
from repro.storage.database import Database
from repro.storage.locks import LockLedger

__all__ = ["SharedLog", "SharedLogScenario", "SharedLogView"]

DELETE_OP = "D"
INSERT_OP = "I"
_TAG_SCHEMA = Schema(("__seq", "__op"))


def shared_log_name(table: str) -> str:
    """Name of the shared sequenced log for base table ``table``."""
    return f"__shared_log__{table}"


class SharedLog:
    """One sequenced change log per tracked base table, shared by all views."""

    def __init__(self, db: Database) -> None:
        self._db = db
        self._tables: set[str] = set()
        self._seq = 0
        self._tag_leaves: dict[str, tuple[Literal, Bound, Bound]] = {}

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    @property
    def current_seq(self) -> int:
        """The sequence number of the most recent recorded transaction."""
        return self._seq

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def track(self, table: str) -> None:
        """Start logging changes to ``table`` (idempotent)."""
        if table in self._tables:
            return
        name = shared_log_name(table)
        if self._db.has_table(name):
            # Reattach to a persisted log table (warehouse reload path).
            self._tables.add(table)
            return
        schema = self._db.schema_of(table)
        log_schema = Schema(("__seq", "__op", *schema.attributes))
        self._db.create_table(name, log_schema, internal=True)
        self._tables.add(table)

    def restore_seq(self, seq: int) -> None:
        """Fast-forward the sequence counter (warehouse reload path)."""
        self._seq = max(self._seq, seq)

    def _log_ref(self, table: str):
        return self._db.ref(shared_log_name(table))

    # ------------------------------------------------------------------
    # Recording — O(changes), independent of the number of views
    # ------------------------------------------------------------------

    def extend_patches(self, txn: UserTransaction) -> MaintenancePlan:
        """Append the transaction's deltas, tagged with a fresh sequence
        number — one insert-only patch per touched tracked table, so the
        recording cost is O(changes), independent of the view count.  The
        tags are bound, not built in: the plan binds them for this
        sequence number beside the transaction's own values."""
        self._seq += 1
        deleted, inserted = Bag.singleton((self._seq, DELETE_OP)), Bag.singleton((self._seq, INSERT_OP))
        tags: dict[str, Bag] = {}
        for table in sorted(txn.tables & self._tables):
            _empty, delete_tag, insert_tag = self._tags(table)
            tags[delete_tag.name], tags[insert_tag.name] = deleted, inserted
        return MaintenancePlan(patches=self.tagged_patches(txn), binding=tags)

    def _tags(self, table: str) -> tuple[Literal, Bound, Bound]:
        """``(φ, delete tag, insert tag)`` of ``table``'s log, built once."""
        tags = self._tag_leaves.get(table)
        if tags is None:
            log_schema = Schema(("__seq", "__op", *self._db.schema_of(table).attributes))
            name = shared_log_name(table)
            tags = self._tag_leaves[table] = (
                Literal(Bag.empty(), log_schema),
                Bound(f"{name}.{DELETE_OP}", _TAG_SCHEMA),
                Bound(f"{name}.{INSERT_OP}", _TAG_SCHEMA),
            )
        return tags

    def tagged_patches(self, txn: UserTransaction) -> dict[str, tuple[Expr, Expr]]:
        """The log-extension patches for ``txn``: each delta under its bound
        ``(seq, op)`` tag, so one shape of transaction is one plan."""
        patches: dict[str, tuple[Expr, Expr]] = {}
        for table in sorted(txn.tables & self._tables):
            empty, delete_tag, insert_tag = self._tags(table)
            pieces: Expr = empty
            delete = txn.delete_expr(table)
            insert = txn.insert_expr(table)
            if not (isinstance(delete, Literal) and not delete.bag):
                pieces = UnionAll(pieces, Product(delete_tag, delete))
            if not (isinstance(insert, Literal) and not insert.bag):
                pieces = UnionAll(pieces, Product(insert_tag, insert))
            patches[shared_log_name(table)] = (empty, pieces)
        return patches

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def net_deltas_since(self, table: str, cursor: int) -> tuple[Bag, Bag]:
        """The net ``(▼R, ▲R)`` for entries with ``seq > cursor``.

        Replays per-transaction folding in sequence order, so the result
        is exactly the weakly minimal log ``makesafe_BL`` would have
        accumulated over the same transactions (Lemma 4).
        """
        if table not in self._tables:
            raise SchemaError(f"table {table!r} is not tracked by the shared log")
        entries: dict[int, tuple[dict[Row, int], dict[Row, int]]] = {}
        for row, count in self._db[shared_log_name(table)].items():
            seq, op, *values = row
            if seq <= cursor:
                continue
            deletes, inserts = entries.setdefault(seq, ({}, {}))
            side = deletes if op == DELETE_OP else inserts
            key = tuple(values)
            side[key] = side.get(key, 0) + count
        return self._fold(entries)

    @staticmethod
    def _fold(entries: dict[int, tuple[dict[Row, int], dict[Row, int]]]) -> tuple[Bag, Bag]:
        """Fold per-transaction deltas (in sequence order) into one net pair."""
        net_delete = Bag.empty()
        net_insert = Bag.empty()
        for seq in sorted(entries):
            delete = Bag.from_counts(entries[seq][0])
            insert = Bag.from_counts(entries[seq][1])
            # ▼ := ▼ ⊎ (∇ ∸ ▲);  ▲ := (▲ ∸ ∇) ⊎ Δ   (simultaneously)
            net_delete, net_insert = (
                net_delete.union_all(delete.monus(net_insert)),
                net_insert.monus(delete).union_all(insert),
            )
        return net_delete, net_insert

    def binding_since(
        self,
        cursor: int,
        tables: Iterable[str],
        folds: dict[tuple[int, str], tuple[Bag, Bag]] | None = None,
    ) -> dict[str, Bag]:
        """The log substitution L̂'s deltas for the slice past ``cursor``, as
        the binding of :meth:`FactoredSubstitution.bound`'s leaves.

        ``folds`` keeps each ``(cursor, table)`` replay for callers binding
        several overlapping slices of one unchanged log (a group epoch).
        """
        folds = {} if folds is None else folds
        deltas: dict[str, tuple[Bag, Bag]] = {}
        for table in tables:
            net = folds.get((cursor, table))
            if net is None:
                net = folds[cursor, table] = self.net_deltas_since(table, cursor)
            # Past queries undo changes: D = recorded inserts, A = deletes.
            deltas[table] = (net[1], net[0])
        return pair_binding(deltas)

    # ------------------------------------------------------------------
    # Net-effect compaction
    # ------------------------------------------------------------------

    def compact(self, cursors: Iterable[int]) -> int:
        """Fold log entries into net deltas between cursor boundaries.

        Entries are grouped into segments ``(b_{i-1}, b_i]`` delimited by
        the registered view cursors, each segment is folded with the same
        weakly-minimal recurrence as :meth:`net_deltas_since`, and the
        net pair is re-tagged with the segment's highest existing
        sequence number.  Because folding is associative, replay from
        *any* registered cursor sees exactly the same net ``(▼R, ▲R)``
        afterwards — churn (delete/insert pairs that cancel) simply
        disappears, so both the log footprint and every later
        ``PAST(L, Q)`` replay scale with the **net** change.

        Returns the number of rows removed across all log tables.
        """
        boundaries = sorted(set(cursors))
        removed = 0
        for table in self._tables:
            name = shared_log_name(table)
            current = self._db[name]
            if not current:
                continue
            segments: dict[int, dict[int, tuple[dict[Row, int], dict[Row, int]]]] = {}
            for row, count in current.items():
                seq, op, *values = row
                segment = bisect_left(boundaries, seq)
                entries = segments.setdefault(segment, {})
                deletes, inserts = entries.setdefault(seq, ({}, {}))
                side = deletes if op == DELETE_OP else inserts
                key = tuple(values)
                side[key] = side.get(key, 0) + count
            counts: dict[Row, int] = {}
            for entries in segments.values():
                tag = max(entries)
                net_delete, net_insert = self._fold(entries)
                for values, count in net_delete.items():
                    counts[(tag, DELETE_OP, *values)] = count
                for values, count in net_insert.items():
                    counts[(tag, INSERT_OP, *values)] = count
            compacted = Bag.from_counts(counts)
            if len(compacted) < len(current):
                removed += len(current) - len(compacted)
                self._db.set_table(name, compacted)
        return removed

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, min_cursor: int) -> int:
        """Drop entries no view still needs; returns rows removed."""
        removed = 0
        for table in self._tables:
            name = shared_log_name(table)
            current = self._db[name]
            kept = Bag.from_counts(
                {row: count for row, count in current.items() if row[0] > min_cursor}
            )
            if len(kept) < len(current):
                removed += len(current) - len(kept)
                self._db.set_table(name, kept)
        return removed


class _ViewPair(NamedTuple):
    """What refreshing a view needs that is a function of its definition alone."""

    #: Figure 2's ``(▼, ▲)`` over bound per-table deltas: any slice of the
    #: log is refreshed by binding it to this one pair.
    delete: Expr
    insert: Expr
    #: The query's :func:`~repro.exec.group.subplan_fingerprint`.
    fingerprint: str
    #: The query's base tables, sorted.
    base: tuple[str, ...]


class SharedLogScenario:
    """Deferred maintenance of *many* views over one shared log.

    Register views with :meth:`add_view`; run transactions with
    :meth:`execute` (per-transaction cost does not grow with the number
    of views); refresh views individually with :meth:`refresh`.
    """

    tag = "SL"

    def __init__(
        self,
        db: Database,
        *,
        counter: CostCounter | None = None,
        ledger: LockLedger | None = None,
    ) -> None:
        self.db = db
        self.shared_log = SharedLog(db)
        self.counter = counter if counter is not None else CostCounter()
        self.ledger = ledger if ledger is not None else LockLedger()
        self._views: dict[str, ViewDefinition] = {}
        self._cursors: dict[str, int] = {}
        #: Built (and primed) once per view, when it joins; an epoch only
        #: binds its log slice.
        self._pairs: dict[str, _ViewPair] = {}
        self._pairs_built = 0
        #: What the last :meth:`epoch_tasks` did beyond evaluating deltas:
        #: pairs built since the epoch before, rows of log slice bound.
        self.last_epoch = {"pairs_built": 0, "bound_rows": 0}
        #: Highest sequence number durably committed by the journal; when
        #: the database is journaled, pruning never passes this floor so
        #: crash recovery can always replay from its snapshot's cursors.
        self._prune_floor: int | None = None

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def add_view(self, view: ViewDefinition) -> None:
        """Register and materialize a view; its cursor starts at 'now'."""
        if view.name in self._views:
            raise SchemaError(f"view {view.name!r} already registered")
        view.require_external_inputs(self.db)
        for table in sorted(view.base_tables()):
            self.shared_log.track(table)
        initial = self.db.evaluate(view.query, counter=self.counter)
        self.db.create_table(view.mv_table, view.schema, rows=initial, internal=True)
        self._register(view, self.shared_log.current_seq)

    def attach_view(self, view: ViewDefinition, cursor: int) -> None:
        """Re-register a persisted view without rematerializing it."""
        if view.name in self._views:
            raise SchemaError(f"view {view.name!r} already registered")
        for table in sorted(view.base_tables()):
            self.shared_log.track(table)
        self._register(view, cursor)

    def _register(self, view: ViewDefinition, cursor: int) -> None:
        """Enter ``view`` at ``cursor`` with its ``(▼, ▲)`` pair over bound deltas.

        Views with equal queries share one pair.  A new one is primed
        here, on the installing thread, so a group epoch's pool workers
        only ever execute plans that exist.
        """
        pair = next(
            (self._pairs[name] for name, other in self._views.items() if other.query == view.query),
            None,
        )
        if pair is None:
            base = tuple(sorted(view.base_tables()))
            eta = FactoredSubstitution.bound({table: self.db.schema_of(table) for table in base})
            # Weakly minimal by replay (Lemma 4), so the simplified duality
            # applies: ▼(L,Q) = Add(L̂,Q), ▲(L,Q) = Del(L̂,Q).
            del_hat, add_hat = differentiate(eta, view.query)
            self.db.prime(add_hat, del_hat, counter=self.counter)
            pair = _ViewPair(add_hat, del_hat, subplan_fingerprint(view.query), base)
            self._pairs_built += 1
        self._pairs[view.name] = pair
        self._views[view.name] = view
        self._cursors[view.name] = cursor

    def remove_view(self, name: str) -> None:
        """Unregister a view and drop its materialization."""
        try:
            view = self._views.pop(name)
        except KeyError:
            raise PolicyError(f"view {name!r} is not registered") from None
        self._cursors.pop(name, None)
        self._pairs.pop(name, None)
        self.db.drop_table(view.mv_table)
        self._maybe_prune()

    def views(self) -> tuple[str, ...]:
        return tuple(self._views)

    def cursor(self, name: str) -> int:
        return self._cursors[name]

    def view_definition(self, name: str) -> ViewDefinition:
        return self._views[name]

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def execute(self, txn: UserTransaction) -> None:
        """Run the transaction with a single shared-log extension."""
        txn = txn.weakly_minimal()
        plan = MaintenancePlan(patches=txn.patches(), binding=txn.binding)
        plan.merge(self.shared_log.extend_patches(txn)).execute(self.db, counter=self.counter)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------

    def _view(self, name: str) -> ViewDefinition:
        try:
            return self._views[name]
        except KeyError:
            raise PolicyError(f"view {name!r} is not registered") from None

    def view_deltas(self, name: str) -> tuple[Expr, Expr]:
        """The ``(delete, insert)`` MV patch of any slice of the log: the
        slice is what :meth:`slice_binding` binds when the pair is evaluated."""
        self._view(name)
        return self._pairs[name][:2]

    def slice_binding(self, name: str) -> dict[str, Bag]:
        """The log slice past the view's cursor, bound to its pair's leaves."""
        self._view(name)
        return self.shared_log.binding_since(self._cursors[name], self._pairs[name].base)

    def mv_patch_plan(self, name: str, delete: Expr, insert: Expr) -> MaintenancePlan:
        """``refresh_SL``'s assignments: the MV patch (the log is shared, never cleared)."""
        return MaintenancePlan(patches={self._views[name].mv_table: (delete, insert)})

    def _install(self, name: str, delete: Expr, insert: Expr, binding, epoch: int, counter) -> None:
        """Patch one view's MV under its lock and move its cursor to ``epoch``."""
        mv_table = self._views[name].mv_table
        with self.ledger.exclusive(mv_table, label="refresh_SL", counter=self.counter):
            fault_point("crash-mid-refresh")
            self.mv_patch_plan(name, delete, insert).execute(self.db, counter=counter, binding=binding)
        self._cursors[name] = epoch

    def refresh(self, name: str) -> None:
        """Bring one view up to date and advance its cursor."""
        delete, insert = self.view_deltas(name)
        epoch = self.shared_log.current_seq
        self._install(name, delete, insert, self.slice_binding(name), epoch, self.counter)
        self._maybe_prune()

    def refresh_all(self) -> None:
        for name in self._views:
            self.refresh(name)

    # ------------------------------------------------------------------
    # Group refresh (compaction + delta sharing + scheduling)
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Net-effect compaction of the shared log at the view cursors."""
        return self.shared_log.compact(self._cursors.values())

    def refresh_group(
        self,
        names: Iterable[str] | None = None,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        compact: bool = True,
    ) -> None:
        """Bring a group of views up to date in one epoch.

        Compacts the shared log first (so replay cost is proportional to
        the net change), then schedules one :class:`GroupTask` per view:
        views whose queries fingerprint equal over the same cursor slice
        share a single delta evaluation through the epoch's delta cache,
        and independent views may evaluate concurrently when
        ``parallel=True``.  Patch application is always sequential in
        registration order, so the result is bag-equal to calling
        :meth:`refresh` on each view in turn.
        """
        members = list(names) if names is not None else list(self._views)
        for name in members:
            self._view(name)
        tasks = self.epoch_tasks(list(enumerate(members)), compact=compact)
        scheduler = GroupScheduler(counter=self.counter, parallel=parallel, max_workers=max_workers)
        scheduler.run(tasks, EpochDeltaCache(self.counter))
        self._maybe_prune()

    def epoch_tasks(self, members: Iterable[tuple[int, str]], *, compact: bool) -> list[GroupTask]:
        """Build one refresh task per ``(order, view name)`` for this epoch.

        All tasks share the epoch's target sequence number, and views
        reading a base table from the same cursor share one replay of its
        log: the slices are folded here, once each — nothing an epoch's
        applies write (MV tables) is read by a fold.
        """
        if compact:
            self.compact()
        epoch = self.shared_log.current_seq
        folds: dict[tuple[int, str], tuple[Bag, Bag]] = {}
        tasks = [self._group_task(order, name, epoch, folds) for order, name in members]
        bound_rows = sum(len(bag) for fold in folds.values() for bag in fold)
        self.last_epoch = {"pairs_built": self._pairs_built, "bound_rows": bound_rows}
        self._pairs_built = 0
        return tasks

    def _group_task(
        self,
        order: int,
        name: str,
        epoch: int,
        folds: dict[tuple[int, str], tuple[Bag, Bag]],
    ) -> GroupTask:
        view = self._views[name]
        cursor = self._cursors[name]
        delete, insert, fingerprint, base = self._pairs[name]
        log_tables = tuple(shared_log_name(table) for table in base)
        binding = self.shared_log.binding_since(cursor, base, folds)

        def key() -> object:
            stamps = tuple((table, self.db.version_of(table)) for table in base + log_tables)
            return ("SL", fingerprint, cursor, stamps)

        def apply(bags: tuple[Bag, Bag]) -> None:
            # The bags were already evaluated (and counted) in compute();
            # binding them to the patch is free, so no counter here —
            # keeps cost parity with refresh().
            supplied = pair_binding({view.mv_table: bags})
            self._install(name, *bound_pair(view.mv_table, view.schema), supplied, epoch, None)

        return GroupTask(
            name=name,
            order=order,
            key=key,
            compute=lambda counter: evaluate_delta_pair(self.db, delete, insert, counter, binding),
            apply=apply,
        )

    # ------------------------------------------------------------------
    # Pruning policy
    # ------------------------------------------------------------------

    def _maybe_prune(self) -> int:
        """Prune consumed entries, deferring past the journal floor.

        On a journaled database, entries above the last durably committed
        watermark are retained even when every cursor has passed them:
        crash recovery replays the pending operation from the *previous*
        checkpoint, whose cursors may still need that slice of the log.
        :meth:`commit_watermark` advances the floor once a checkpoint
        commits.
        """
        threshold = min(self._cursors.values(), default=self.shared_log.current_seq)
        if getattr(self.db, "journaled", False):
            threshold = min(threshold, self._prune_floor or 0)
        return self.shared_log.prune(threshold)

    def prune_footprint(self) -> MaintenancePlan:
        """What :meth:`_maybe_prune` may rewrite, as a plan (effect inference only)."""
        plan = MaintenancePlan()
        for table in self.shared_log.tables:
            log = self.db.ref(shared_log_name(table))
            plan.add_patch(log.name, log, Literal(Bag.empty(), log.schema()))
        return plan

    def commit_watermark(self) -> int:
        """Advance the prune floor to the current minimum cursor.

        Called by the durable warehouse right after a journaled operation
        commits: the just-written checkpoint contains the current
        cursors, so any replay starts at or above them and entries at or
        below the minimum cursor can never be needed again.
        """
        self._prune_floor = min(self._cursors.values(), default=self.shared_log.current_seq)
        return self._maybe_prune()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def read_view(self, name: str) -> Bag:
        return self.db[self._views[name].mv_table]

    def is_consistent(self, name: str) -> bool:
        view = self._views[name]
        return self.db.evaluate(view.query) == self.db[view.mv_table]

    def invariant_holds(self, name: str) -> bool:
        """``INV_BL`` relative to the view's cursor slice of the shared log."""
        view = self._views[name]
        schemas = {table: self.db.schema_of(table) for table in self._pairs[name].base}
        past_query = FactoredSubstitution.bound(schemas).apply(view.query)
        past = self.db.evaluate(past_query, binding=self.slice_binding(name))
        return past == self.db[view.mv_table]

    def check_invariants(self) -> None:
        from repro.core.invariants import require

        for name in self._views:
            require(self.invariant_holds(name), f"shared-log invariant broken for view {name!r}")

    def log_size(self) -> int:
        """Total rows currently held across all shared log tables."""
        return sum(len(self.db[shared_log_name(table)]) for table in self.shared_log.tables)


class SharedLogView(Scenario):
    """One view of a shared-log group, wearing the Scenario interface.

    Lets :class:`~repro.warehouse.manager.ViewManager` host shared-log
    views next to the per-view scenarios: install/refresh/invariant calls
    delegate to the owning :class:`SharedLogScenario`.  ``make_safe``
    contributes *nothing* per view — the manager appends the group's
    single log extension once per transaction, which is the whole point
    of the shared log (per-transaction cost independent of view count).
    """

    tag = "SL"

    def __init__(
        self,
        db: Database,
        view: ViewDefinition,
        *,
        group: SharedLogScenario,
        counter: CostCounter | None = None,
        ledger: LockLedger | None = None,
        strict: bool = False,
    ) -> None:
        super().__init__(db, view, counter=counter, ledger=ledger, strict=strict)
        self.group = group

    def install(self) -> None:
        if self._installed:
            return
        self._lint_on_install()
        self.db.prime(self.view.query, counter=self.counter)
        self.group.add_view(self.view)
        self._installed = True

    def attach(self, cursor: int) -> None:
        """Reattach a persisted view at its saved cursor (reload path)."""
        if self._installed:
            return
        self.group.attach_view(self.view, cursor)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        self.group.remove_view(self.view.name)
        self._installed = False

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        """The static picture of what the group does for this view.

        ``makesafe``'s log extension and ``refresh_SL`` are built from
        the group's own constructors; :meth:`refresh` hands execution to
        the group, which also moves the view's cursor.
        """
        name = self.view.name
        return {
            "makesafe": self._op("makesafe", OpStep("shared_log_extend", plan=self._makesafe_extension)),
            "refresh": self._op(
                "refresh",
                OpStep("delta_compute", deltas=lambda: self.group.view_deltas(name)),
                OpStep("apply", locked=True, plan=lambda *pair: self.group.mv_patch_plan(name, *pair)),
                OpStep("log_prune", plan=lambda *pair: self.group.prune_footprint()),
            ),
        }

    def make_safe(self, txn: UserTransaction) -> MaintenancePlan:
        """Per-view contribution is empty — the log extension is per *group*."""
        return MaintenancePlan()

    def refresh(self) -> None:
        self.group.refresh(self.view.name)

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """What the *group* appends once per transaction (effect inference)."""
        for table, (delete, insert) in self.group.shared_log.tagged_patches(txn).items():
            plan.add_patch(table, delete, insert)

    def invariant_holds(self) -> bool:
        return self.group.invariant_holds(self.view.name)
