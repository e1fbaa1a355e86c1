"""Incremental maintenance of aggregate views.

Example 1.1 notes: "In practice, views with aggregation are more likely.
For simplicity, we omit aggregation since it is orthogonal to the
problems that we discuss."  This extension supplies the orthogonal
piece, in the style of the count/sum maintenance the paper cites
([GMS93]): an aggregate view

.. code:: sql

    SELECT g1, …, gk, COUNT(*), SUM(x), … FROM (Q) GROUP BY g1, …, gk

is maintained *from the differential tables of its base query* ``Q``.
The base query is kept under the combined (``INV_C``) scenario; when its
precomputed deltas :math:`(\\triangledown MV, \\triangle MV)` are applied
during a partial refresh, the same delta bags adjust the aggregate rows
group-by-group:

* ``COUNT(*)`` of a group decreases by the group's deleted multiplicity
  and increases by its inserted multiplicity;
* ``SUM(x)`` adjusts by the signed sum of the deleted/inserted values;
* a group whose count reaches zero disappears (and cannot go negative —
  weak minimality of the differentials guarantees deletes are backed by
  existing rows).

Refreshing therefore costs O(|deltas|), never O(|base view|) — the same
downtime story as Policy 2, now for the aggregates analysts actually
read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Literal
from repro.algebra.schema import Schema
from repro.core.ops import MaintenanceOp, OpStep
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import CombinedScenario, Scenario
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import InvariantViolation, SchemaError
from repro.storage.database import Database
from repro.storage.locks import LockLedger

__all__ = ["AggregateSpec", "AggregateView", "AggregateScenario"]


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column: ``COUNT(*)`` or ``SUM(attr)``.

    ``alias`` overrides the default output column name (``count`` /
    ``sum_<attr>``) — it carries SQL ``AS`` aliases through.
    """

    function: str  # "count" | "sum"
    attribute: str | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.function not in ("count", "sum"):
            raise SchemaError(f"unsupported aggregate {self.function!r} (count/sum only)")
        if self.function == "sum" and self.attribute is None:
            raise SchemaError("SUM needs an attribute")
        if self.function == "count" and self.attribute is not None:
            raise SchemaError("COUNT(*) takes no attribute")

    @property
    def column_name(self) -> str:
        if self.alias is not None:
            return self.alias
        return "count" if self.function == "count" else f"sum_{self.attribute}"


@dataclass(frozen=True)
class AggregateView:
    """An aggregate view over a base bag query."""

    name: str
    base: ViewDefinition
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def __post_init__(self) -> None:
        base_schema = self.base.schema
        for attr in self.group_by:
            base_schema.index_of(attr)
        for spec in self.aggregates:
            if spec.attribute is not None:
                base_schema.index_of(spec.attribute)
        if not self.aggregates:
            raise SchemaError("an aggregate view needs at least one aggregate")

    @property
    def agg_table(self) -> str:
        return f"__agg__{self.name}"

    @property
    def mv_table(self) -> str:
        """The reader-facing materialized table (alias of :attr:`agg_table`).

        Named for interface compatibility with plain views, so managers
        and lock ledgers treat aggregate views uniformly.
        """
        return self.agg_table

    def output_attributes(self) -> tuple[str, ...]:
        return self.group_by + tuple(spec.column_name for spec in self.aggregates)


class AggregateScenario(Scenario):
    """Maintains an aggregate view on top of a combined-scenario base."""

    tag = "AGG"

    def __init__(
        self,
        db: Database,
        view: AggregateView,
        *,
        counter: CostCounter | None = None,
        ledger: LockLedger | None = None,
    ) -> None:
        counter = counter if counter is not None else CostCounter()
        ledger = ledger if ledger is not None else LockLedger()
        self.base = CombinedScenario(db, view.base, counter=counter, ledger=ledger)
        super().__init__(db, view, counter=counter, ledger=ledger)
        base_schema = view.base.schema
        self._group_positions = base_schema.positions_of(view.group_by)
        self._agg_positions = tuple(
            base_schema.index_of(spec.attribute) if spec.attribute is not None else None
            for spec in view.aggregates
        )

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        """The base view's operations, with the aggregate adjustment
        riding on every step sequence that applies the differentials.

        A static picture only: the named methods below run the base
        scenario's ops and adjust the aggregate table in between.
        """
        base = self.base.ops
        adjust = OpStep("agg_patch", locked=True, plan=self._agg_patch_plan)
        partial_refresh = (*base["partial_refresh"].steps, adjust)
        return {
            "makesafe": self._op("makesafe", *base["makesafe"].steps),
            "propagate": self._op("propagate", *base["propagate"].steps),
            "partial_refresh": self._op("partial_refresh", *partial_refresh),
            "refresh": self._op("refresh", *base["propagate"].steps, *partial_refresh),
        }

    def _agg_patch_plan(self, *_pair) -> MaintenancePlan:
        """The aggregate table's read-modify-write, as a footprint."""
        empty = Literal(Bag.empty(), Schema(self.view.output_attributes()))
        return MaintenancePlan(patches={self.view.agg_table: (empty, empty)})

    def _refresh_lock_resources(self) -> frozenset[str]:
        """The aggregate lock wraps the base view's own ``MV`` lock."""
        return frozenset((self.view.agg_table, self.view.base.mv_table))

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """``makesafe`` is the base scenario's log extension only."""
        self.base._extend(plan, txn)

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------

    def _group_key(self, row: Row) -> Row:
        return tuple(row[position] for position in self._group_positions)

    def _aggregate_bag(self, rows: Bag) -> dict[Row, list]:
        """Group a bag: key -> [count, sum1, sum2, …]."""
        groups: dict[Row, list] = {}
        for row, multiplicity in rows.items():
            key = self._group_key(row)
            state = groups.setdefault(key, [0] + [0] * len(self.view.aggregates))
            state[0] += multiplicity
            for index, position in enumerate(self._agg_positions):
                if position is not None:
                    state[1 + index] += row[position] * multiplicity
        return groups

    def _state_to_rows(self, groups: dict[Row, list]) -> Bag:
        rows = []
        for key, state in groups.items():
            cells = []
            for index, spec in enumerate(self.view.aggregates):
                cells.append(state[0] if spec.function == "count" else state[1 + index])
            rows.append(key + tuple(cells))
        return Bag(rows)

    def _state_of(self, row: Row) -> list:
        """Decode one stored aggregate row back into its group's state."""
        cells = row[len(self.view.group_by) :]
        state = [0] * (1 + len(self.view.aggregates))
        for index, spec in enumerate(self.view.aggregates):
            if spec.function == "count":
                state[0] = cells[index]
            else:
                state[1 + index] = cells[index]
        return state

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            return
        if not any(spec.function == "count" for spec in self.view.aggregates):
            # The count column is the group-liveness witness; require it.
            raise SchemaError("aggregate views must include COUNT(*) to track group liveness")
        self.base.install()
        groups = self._aggregate_bag(self.db[self.view.base.mv_table])
        self.db.create_table(
            self.view.agg_table,
            self.view.output_attributes(),
            rows=self._state_to_rows(groups),
            internal=True,
        )
        self._installed = True

    def uninstall(self) -> None:
        """Drop the aggregate table and the base view's tables."""
        if not self._installed:
            return
        self.db.drop_table(self.view.agg_table)
        self.base.uninstall()
        self._installed = False

    def _note_stale(self) -> None:
        """The base view's staleness clock already accounts for this view."""

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def execute(self, txn: UserTransaction) -> None:
        """Per-transaction work is the base scenario's log extension only."""
        self.base.execute(txn)

    def propagate(self) -> None:
        """Move base-table changes into the base view's differentials."""
        self.base.propagate()

    def partial_refresh(self) -> None:
        """Apply the base deltas to both the base view and the aggregates.

        The delta bags are captured before the base partial refresh
        clears them.  Only the groups they touch change: their stored
        rows are found through a hash index on the group key and patched
        to the adjusted ones, so the aggregate adjustment is O(|deltas|).
        """
        base_view = self.view.base
        deleted = self.db[base_view.dt_delete_table]
        inserted = self.db[base_view.dt_insert_table]
        with self.ledger.exclusive(self.view.agg_table, label="agg_refresh", counter=self.counter):
            self.base.partial_refresh()
            if not deleted and not inserted:
                return
            changes = self._aggregate_bag(inserted)
            for key, lost in self._aggregate_bag(deleted).items():
                kept = changes.get(key, [0] * len(lost))
                changes[key] = [have - gone for have, gone in zip(kept, lost)]
            if self.counter is not None:
                self.counter.record("agg_patch", len(deleted) + len(inserted))
            table = self.view.agg_table
            index = self.db.indexes.get(table, tuple(range(len(self.view.group_by))), self.db[table])
            old: dict[Row, int] = {}
            new: dict[Row, list] = {}
            for key, change in changes.items():
                if not any(change):
                    continue
                state = change
                for row, count in index.lookup(key).items():
                    old[row] = count
                    state = [have + delta for have, delta in zip(self._state_of(row), change)]
                if state[0] < 0:
                    raise InvariantViolation("aggregate count went negative — base deltas not weakly minimal")
                if state[0]:
                    new[key] = state
            schema = self.db.schema_of(table)
            delete = Literal(Bag.from_counts(old), schema)
            self.db.apply(patches={table: (delete, Literal(self._state_to_rows(new), schema))})

    def refresh(self) -> None:
        self.propagate()
        self.partial_refresh()

    # ------------------------------------------------------------------
    # Reads and checks
    # ------------------------------------------------------------------

    def expected(self) -> Bag:
        """The aggregate recomputed from scratch (for checks)."""
        base_value = self.db.evaluate(self.view.base.query)
        return self._state_to_rows(self._aggregate_bag(base_value))

    def is_consistent(self) -> bool:
        return self.read_view() == self.expected()

    def invariant_holds(self) -> bool:
        """AGG always equals the grouping of the (possibly stale) base MV."""
        holds = self.base.invariant_holds()
        mirrored = self._state_to_rows(self._aggregate_bag(self.db[self.view.base.mv_table]))
        return holds and mirrored == self.read_view()
