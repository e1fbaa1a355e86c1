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

:class:`SharedLog` is the one shared object (a
:class:`~repro.warehouse.manager.ViewManager` owns one): the log tables,
the sequence number, every view's cursor and pair, the journal prune
floor.  :class:`SharedLogScenario` is one view over it, an ordinary
:class:`~repro.core.scenarios.Scenario` (tag ``SL``) whose ``refresh``
runs through :meth:`~repro.core.scenarios.Scenario.run`: ``INV_BL``
holds for every view with respect to its cursor's slice of the log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

from repro.algebra.bag import Bag, Row, compose_deltas
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Bound, Expr, Literal, Product, UnionAll
from repro.algebra.schema import Schema
from repro.core.differential import differentiate
from repro.core.ops import MaintenanceOp, OpStep
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import Scenario
from repro.core.substitution import FactoredSubstitution, pair_binding
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import SchemaError
from repro.exec.group import GroupTask
from repro.storage.database import Database

__all__ = ["SharedLog", "SharedLogScenario"]

DELETE_OP = "D"
INSERT_OP = "I"
_TAG_SCHEMA = Schema(("__seq", "__op"))


def shared_log_name(table: str) -> str:
    """Name of the shared sequenced log for base table ``table``."""
    return f"__shared_log__{table}"


def _adopt(net: tuple[dict[Row, int], dict[Row, int]]) -> tuple[Bag, Bag]:
    """A :func:`~repro.algebra.bag.compose_deltas` result as a bag pair,
    adopted as is: its counts are positive by construction."""
    delete, insert = (Bag._from_clean(counts, len(next(iter(counts))) if counts else None) for counts in net)
    return delete, insert


@dataclass(eq=False)
class _ViewPair:
    """What refreshing a view needs that is a function of its definition
    alone.  Views with equal queries share one, so pairs compare by
    identity: in a group epoch, ``(pair, cursor)`` names one delta."""

    #: Figure 2's ``(▼, ▲)`` over bound per-table deltas: any slice of the
    #: log is refreshed by binding it to this one pair.
    delete: Expr
    insert: Expr
    #: The query's base tables, sorted.
    base: tuple[str, ...]
    #: The query itself: views with equal queries share one pair.
    query: Expr


class SharedLog:
    """One sequenced change log per tracked base table, shared by all views."""

    def __init__(self, db: Database) -> None:
        self._db = db
        self._tables: set[str] = set()
        self._seq = 0
        self._tag_leaves: dict[str, tuple[Literal, Bound, Bound]] = {}
        #: View name -> the sequence number through which it has refreshed.
        self.cursors: dict[str, int] = {}
        #: View name -> its pair, built (and primed) once, when it joins.
        self._pairs: dict[str, _ViewPair] = {}
        #: What the next :meth:`epoch_report` reports: pairs built since
        #: the last one, rows of each ``(cursor, table)`` slice an epoch bound.
        self._pairs_built = 0
        self._bound: dict[tuple[int, str], int] = {}
        #: Table -> (its log's version, cursor -> net fold): a fold is
        #: reused until the log table changes.
        self._folds: dict[str, tuple[int, dict[int, tuple[Bag, Bag]]]] = {}
        #: (cursors, log versions) of the last compaction.
        self._compacted: tuple | None = None
        #: Highest sequence number durably committed by the journal; when
        #: the database is journaled, pruning never passes this floor so
        #: crash recovery can always replay from its snapshot's cursors.
        self._prune_floor: int | None = None
        self._pruned_through = 0

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
            # Reattach to a persisted log table (warehouse reload path):
            # the counter resumes past every entry it holds.
            self._seq = max([self._seq, *(row[0] for row in self._db[name].support)])
        else:
            self._db.create_table(name, self._tags(table)[0].schema(), internal=True)
        self._tables.add(table)

    def register(self, view: ViewDefinition, cursor: int, counter: CostCounter) -> _ViewPair:
        """Enter ``view`` at ``cursor`` with its ``(▼, ▲)`` pair over bound deltas.

        Views with equal queries share one pair.  A new one is primed
        here, at install, so a group epoch only ever executes plans that
        exist.
        """
        for table in sorted(view.base_tables()):
            self.track(table)
        pair = next((pair for pair in self._pairs.values() if pair.query == view.query), None)
        if pair is None:
            base = tuple(sorted(view.base_tables()))
            eta = FactoredSubstitution.bound({table: self._db.schema_of(table) for table in base})
            # Weakly minimal by replay (Lemma 4), so the simplified duality
            # applies: ▼(L,Q) = Add(L̂,Q), ▲(L,Q) = Del(L̂,Q).
            del_hat, add_hat = differentiate(eta, view.query)
            self._db.prime(add_hat, del_hat, counter=counter)
            pair = _ViewPair(add_hat, del_hat, base, view.query)
            self._pairs_built += 1
        self._pairs[view.name] = pair
        self.cursors[view.name] = cursor
        self._seq = max(self._seq, cursor)
        return pair

    def unregister(self, name: str) -> None:
        """Forget a view's cursor and pair; prune what only it still needed."""
        self._pairs.pop(name, None)
        self.cursors.pop(name, None)
        self.prune_consumed()

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
        return _adopt(self._net(self._entries(self._db[shared_log_name(table)], cursor)))

    @staticmethod
    def _entries(log: Bag, cursor: int = 0) -> dict[int, tuple[dict[Row, int], dict[Row, int]]]:
        """``log``'s rows past ``cursor`` as ``seq -> (deleted counts,
        inserted counts)``; sequence numbers start at 1, so by default
        every row.  A bag's rows are distinct, so no count is summed."""
        entries: dict[int, tuple[dict[Row, int], dict[Row, int]]] = {}
        for row, count in log.items():
            seq = row[0]
            if seq <= cursor:
                continue
            entry = entries.get(seq)
            if entry is None:
                entry = entries[seq] = ({}, {})
            entry[0 if row[1] == DELETE_OP else 1][row[2:]] = count
        return entries

    @staticmethod
    def _net(entries: dict[int, tuple[dict[Row, int], dict[Row, int]]]) -> tuple[dict[Row, int], dict[Row, int]]:
        """Fold per-transaction deltas (in sequence order) into one net pair."""
        return compose_deltas(entries[seq] for seq in sorted(entries))

    def _fold_since(self, table: str, cursor: int) -> tuple[Bag, Bag]:
        """:meth:`net_deltas_since`, kept until ``table``'s log next changes."""
        version = self._db.version_of(shared_log_name(table))
        memo = self._folds.get(table)
        if memo is None or memo[0] != version:
            memo = self._folds[table] = (version, {})
        net = memo[1].get(cursor)
        if net is None:
            net = memo[1][cursor] = self.net_deltas_since(table, cursor)
        return net

    def binding_since(self, cursor: int, tables: Iterable[str], *, epoch: bool = False) -> dict[str, Bag]:
        """The log substitution L̂'s deltas for the slice past ``cursor``, as
        the binding of :meth:`FactoredSubstitution.bound`'s leaves.

        Each ``(cursor, table)`` fold is reused until that log table
        changes, so views binding one slice of an unchanged log (a group
        epoch) share one replay.  ``epoch``: count the slice toward the
        next :meth:`epoch_report`.
        """
        deltas: dict[str, tuple[Bag, Bag]] = {}
        for table in tables:
            net = self._fold_since(table, cursor)
            if epoch:
                self._bound[cursor, table] = len(net[0]) + len(net[1])
            # Past queries undo changes: D = recorded inserts, A = deletes.
            deltas[table] = (net[1], net[0])
        return pair_binding(deltas)

    def epoch_report(self) -> dict[str, int]:
        """``pairs_built`` since the last report and ``bound_rows`` of the
        slices bound since (each ``(cursor, table)`` once); resets both."""
        report = {"pairs_built": self._pairs_built, "bound_rows": sum(self._bound.values())}
        self._pairs_built = 0
        self._bound.clear()
        return report

    # ------------------------------------------------------------------
    # Net-effect compaction
    # ------------------------------------------------------------------

    def _versions(self) -> tuple[int, ...]:
        return tuple(self._db.version_of(shared_log_name(table)) for table in self._tables)

    def compact(self) -> int:
        """Fold log entries into net deltas between cursor boundaries.

        Entries are grouped into segments ``(b_{i-1}, b_i]`` delimited by
        the registered view cursors, each segment is folded with the same
        weakly-minimal recurrence as :meth:`net_deltas_since`
        (:func:`~repro.algebra.bag.compose_deltas`), and the net pair is
        re-tagged with the segment's highest existing sequence number.
        Because folding is associative, replay from *any* registered
        cursor sees exactly the same net ``(▼R, ▲R)`` afterwards — churn
        (delete/insert pairs that cancel) simply disappears, so both the
        log footprint and every later ``PAST(L, Q)`` replay scale with
        the **net** change.  The same associativity seeds the fold memo:
        each cursor's fold is the composition of the segment nets above
        it, stored under the log's version after compaction, so the
        :meth:`binding_since` that follows in the same epoch re-reads
        nothing.  A log already compacted at the same cursors and
        versions is left alone, so an epoch whose every view asks
        compacts once.

        Returns the number of rows removed across all log tables.
        """
        if self._compacted == (tuple(self.cursors.values()), self._versions()):
            return 0
        boundaries = sorted(set(self.cursors.values()))
        removed = 0
        for table in self._tables:
            name = shared_log_name(table)
            current = self._db[name]
            segments: dict[int, dict[int, tuple[dict[Row, int], dict[Row, int]]]] = {}
            for seq, entry in self._entries(current).items():
                segments.setdefault(bisect_left(boundaries, seq), {})[seq] = entry
            nets = {index: self._net(entries) for index, entries in segments.items()}
            counts: dict[Row, int] = {}
            for index, (net_delete, net_insert) in nets.items():
                tag = max(segments[index])
                for values, count in net_delete.items():
                    counts[(tag, DELETE_OP, *values)] = count
                for values, count in net_insert.items():
                    counts[(tag, INSERT_OP, *values)] = count
            compacted = Bag._from_clean(counts, current.arity)
            if len(compacted) < len(current):
                removed += len(current) - len(compacted)
                self._db.set_table(name, compacted)
            # Segment i holds (b_{i-1}, b_i]: the fold past b_{i-1} is
            # segments i, i+1, … composed in order.
            folds: dict[int, tuple[Bag, Bag]] = {}
            suffix: tuple[dict[Row, int], dict[Row, int]] = ({}, {})
            for index in range(len(boundaries), 0, -1):
                if index in nets:
                    suffix = compose_deltas((nets[index], suffix))
                folds[boundaries[index - 1]] = _adopt(suffix)
            self._folds[table] = (self._db.version_of(name), folds)
        self._compacted = (tuple(self.cursors.values()), self._versions())
        return removed

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, min_cursor: int) -> int:
        """Drop entries no view still needs; returns rows removed.

        A fold past a cursor at or above ``min_cursor`` reads none of the
        dropped rows, so a current fold memo stays current: the next view
        of a group epoch binds its slice without re-reading the log.
        """
        removed = 0
        for table in self._tables:
            name = shared_log_name(table)
            current = self._db[name]
            kept = Bag.from_counts(
                {row: count for row, count in current.items() if row[0] > min_cursor}
            )
            if len(kept) < len(current):
                removed += len(current) - len(kept)
                memo = self._folds.get(table)
                current_memo = memo is not None and memo[0] == self._db.version_of(name)
                self._db.set_table(name, kept)
                if current_memo:
                    folds = {cursor: net for cursor, net in memo[1].items() if cursor >= min_cursor}
                    self._folds[table] = (self._db.version_of(name), folds)
        return removed

    def prune_consumed(self) -> int:
        """Prune what every cursor has passed, deferring past the journal floor.

        On a journaled database, entries above the last durably committed
        watermark are retained even when every cursor has passed them:
        crash recovery replays the pending operation from the *previous*
        checkpoint, whose cursors may still need that slice of the log.
        :meth:`commit_watermark` advances the floor once a checkpoint
        commits.  Entries are only ever appended past every cursor, so a
        threshold no higher than the last one finds nothing to drop.
        """
        threshold = min(self.cursors.values(), default=self._seq)
        if getattr(self._db, "journaled", False):
            threshold = min(threshold, self._prune_floor or 0)
        if threshold <= self._pruned_through:
            return 0
        self._pruned_through = threshold
        return self.prune(threshold)

    def prune_footprint(self) -> MaintenancePlan:
        """What :meth:`prune_consumed` may rewrite, as a plan (effect inference only)."""
        plan = MaintenancePlan()
        for table in self.tables:
            plan.add_patch(shared_log_name(table), self._db.ref(shared_log_name(table)), self._tags(table)[0])
        return plan

    def commit_watermark(self) -> int:
        """Advance the prune floor to the current minimum cursor.

        Called by the durable warehouse right after a journaled operation
        commits: the just-written checkpoint contains the current
        cursors, so any replay starts at or above them and entries at or
        below the minimum cursor can never be needed again.
        """
        self._prune_floor = min(self.cursors.values(), default=self._seq)
        return self.prune_consumed()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def rows_since(self, cursor: int, tables: Iterable[str]) -> int:
        """Log rows of ``tables`` recorded past ``cursor``."""
        logs = (self._db[shared_log_name(table)] for table in tables)
        return sum(count for log in logs for row, count in log.items() if row[0] > cursor)

    def log_size(self) -> int:
        """Total rows currently held across all shared log tables."""
        return sum(len(self._db[shared_log_name(table)]) for table in self.tables)


class SharedLogScenario(Scenario):
    """Deferred maintenance over the shared log: ``INV_BL`` relative to
    the view's cursor slice.

    ``makesafe`` contributes *nothing* per view — the manager appends the
    log's single extension once per transaction, which is the whole
    point of the shared log (per-transaction cost independent of view
    count).  ``refresh_SL`` evaluates the view's one pair over the slice
    past the cursor, patches ``MV`` with the bags under the lock, moves
    the cursor to the head and prunes what every cursor has passed.
    """

    tag = "SL"
    makesafe_step = "shared_log_extend"

    def __init__(self, db: Database, view: ViewDefinition, *, shared_log: SharedLog, **options) -> None:
        self.shared_log = shared_log
        super().__init__(db, view, **options)

    def _install_auxiliary(self) -> None:
        self.attach(self.shared_log.current_seq)

    def attach(self, cursor: int) -> None:
        """Join the shared log at ``cursor`` (a reloaded view: its saved one)."""
        self._pair = self.shared_log.register(self.view, cursor, self.counter)

    def _uninstall_auxiliary(self) -> None:
        self.shared_log.unregister(self.view.name)

    @property
    def cursor(self) -> int:
        return self.shared_log.cursors[self.view.name]

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        """``refresh_SL``: evaluate the slice's deltas outside the lock (the
        shared log is not in Figure 3, and the slice is this view's alone),
        patch ``MV`` under it, then move the cursor and prune."""
        ops = super()._declare_ops()
        log = self.shared_log
        ops["refresh"] = self._op(
            "refresh",
            OpStep("delta_compute", deltas=lambda: (self._pair.delete, self._pair.insert), via=self._slice_deltas),
            OpStep("apply", locked=True, plan=self._mv_patch_plan),
            OpStep("log_prune", plan=lambda *_pair: log.prune_footprint(), via=self._advance),
        )
        return ops

    def _mv_patch_plan(self, delete: Expr, insert: Expr) -> MaintenancePlan:
        """``refresh_SL``'s assignments: the MV patch (the log is shared, never cleared)."""
        return MaintenancePlan(patches={self.view.mv_table: (delete, insert)})

    def _slice_deltas(self) -> tuple[Bag, Bag]:
        """The pair evaluated over the slice past the cursor."""
        pair = self._pair
        run = self.db.batch(counter=self.counter, binding=self.shared_log.binding_since(self.cursor, pair.base))
        return run(pair.delete), run(pair.insert)

    def _advance(self, *_bags: Bag) -> None:
        """Move the cursor to the head; prune what every cursor has passed."""
        log = self.shared_log
        log.cursors[self.view.name] = log.current_seq
        log.prune_consumed()

    def make_safe(self, txn: UserTransaction) -> MaintenancePlan:
        """Per-view contribution is empty — the log extension is per transaction."""
        return MaintenancePlan()

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """What the manager appends once per transaction (effect inference)."""
        for table, (delete, insert) in self.shared_log.tagged_patches(txn).items():
            plan.add_patch(table, delete, insert)

    def epoch_tasks(self) -> GroupTask:
        """This view's task: its own ``refresh`` op, shared by every view
        with the same pair and cursor.  The slice is folded here, once per
        ``(cursor, table)`` for the whole epoch (compaction leaves it in
        the log's memo), and counted toward the epoch's report."""
        self.shared_log.compact()
        pair, cursor = self._pair, self.cursor
        self.shared_log.binding_since(cursor, pair.base, epoch=True)
        return GroupTask(name=self.view.name, key=(pair, cursor), run=partial(self.run, "refresh"))

    def log_watermark(self) -> int:
        return self.shared_log.rows_since(self.cursor, self._pair.base)

    def invariant_holds(self) -> bool:
        """``INV_BL`` relative to the view's cursor slice of the shared log."""
        base = self._pair.base
        eta = FactoredSubstitution.bound({table: self.db.schema_of(table) for table in base})
        past = self.db.evaluate(eta.apply(self.view.query), binding=self.shared_log.binding_since(self.cursor, base))
        return past == self.db[self.view.mv_table]
