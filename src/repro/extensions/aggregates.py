"""Incremental maintenance of aggregate views.

Example 1.1 notes: "In practice, views with aggregation are more likely.
For simplicity, we omit aggregation since it is orthogonal to the
problems that we discuss."  This extension supplies the orthogonal
piece, in the style of the count/sum maintenance the paper cites
([GMS93]): an aggregate view

.. code:: sql

    SELECT g1, …, gk, COUNT(*), SUM(x), … FROM (Q) GROUP BY g1, …, gk

is maintained *from the differential tables of its base query* ``Q``.
An :class:`AggregateScenario` is the combined (``INV_C``) scenario of
``Q`` under the aggregate's own name, with one more locked step:
right before ``partial_refresh`` / ``refresh`` apply the differentials
:math:`(\\triangledown MV, \\triangle MV)` to ``MV``, ``agg_patch``
adjusts the grouped table from the same bags, group-by-group, in the
same lock section:

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

from dataclasses import dataclass, replace

from repro.algebra.bag import Bag, Row
from repro.algebra.expr import Literal
from repro.algebra.schema import Schema
from repro.core import naming
from repro.core.ops import MaintenanceOp, OpStep
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import CombinedScenario
from repro.core.views import ViewDefinition
from repro.errors import InvariantViolation, SchemaError
from repro.storage.database import Database

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
        return naming.agg_name(self.name)

    def output_attributes(self) -> tuple[str, ...]:
        return self.group_by + tuple(spec.column_name for spec in self.aggregates)


class AggregateScenario(CombinedScenario):
    """The combined scenario of an aggregate view's base query, under the
    aggregate's name, whose refresh ops also patch the grouped table.

    :attr:`view` is the base query (``MV``, its log and differentials
    are the base view's); readers are served from :attr:`read_table`,
    the grouped table.  ``refresh`` is ``refresh_C`` in
    ``propagate_first`` order only: ``partial_first``'s log tail patches
    ``MV`` past the differentials the aggregate is patched from.
    """

    tag = "AGG"

    def __init__(self, db: Database, view: AggregateView, **options) -> None:
        self.aggregate = view
        base_schema = view.base.schema
        self._group_positions = base_schema.positions_of(view.group_by)
        self._agg_positions = tuple(
            base_schema.index_of(spec.attribute) if spec.attribute is not None else None
            for spec in view.aggregates
        )
        super().__init__(db, ViewDefinition(view.name, view.base.query), **options)

    @property
    def read_table(self) -> str:
        return self.aggregate.agg_table

    def _declare_ops(self) -> dict[str, MaintenanceOp]:
        """The combined ops, with ``agg_patch`` right before each apply of
        the differentials (it reads them before the apply clears them)."""
        ops = super()._declare_ops()
        patch = OpStep("agg_patch", locked=True, plan=self._agg_patch_plan, via=self._agg_patch)
        for kind in ("partial_refresh", "refresh"):
            steps = ops[kind].steps
            at = next(index for index, step in enumerate(steps) if step.name == "apply")
            ops[kind] = replace(ops[kind], steps=(*steps[:at], patch, *steps[at:]))
        self._refresh_orders = {"propagate_first": ops["refresh"]}
        return ops

    def _agg_patch_plan(self, *_pair) -> MaintenancePlan:
        """The aggregate table's read-modify-write, as a footprint."""
        empty = Literal(Bag.empty(), Schema(self.aggregate.output_attributes()))
        return MaintenancePlan(patches={self.read_table: (empty, empty)})

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
            state = groups.setdefault(key, [0] + [0] * len(self.aggregate.aggregates))
            state[0] += multiplicity
            for index, position in enumerate(self._agg_positions):
                if position is not None:
                    state[1 + index] += row[position] * multiplicity
        return groups

    def _state_to_rows(self, groups: dict[Row, list]) -> Bag:
        rows = []
        for key, state in groups.items():
            cells = []
            for index, spec in enumerate(self.aggregate.aggregates):
                cells.append(state[0] if spec.function == "count" else state[1 + index])
            rows.append(key + tuple(cells))
        return Bag(rows)

    def _state_of(self, row: Row) -> list:
        """Decode one stored aggregate row back into its group's state."""
        cells = row[len(self.aggregate.group_by) :]
        state = [0] * (1 + len(self.aggregate.aggregates))
        for index, spec in enumerate(self.aggregate.aggregates):
            if spec.function == "count":
                state[0] = cells[index]
            else:
                state[1 + index] = cells[index]
        return state

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _lint_on_install(self) -> None:
        if not any(spec.function == "count" for spec in self.aggregate.aggregates):
            # The count column is the group-liveness witness; require it.
            raise SchemaError("aggregate views must include COUNT(*) to track group liveness")
        super()._lint_on_install()

    def _install_auxiliary(self) -> None:
        super()._install_auxiliary()
        groups = self._aggregate_bag(self.db[self.view.mv_table])
        self.db.create_table(
            self.read_table,
            self.aggregate.output_attributes(),
            rows=self._state_to_rows(groups),
            internal=True,
        )

    def _uninstall_auxiliary(self) -> None:
        self.db.drop_table(self.read_table)
        super()._uninstall_auxiliary()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _agg_patch(self, *_bags: Bag) -> None:
        """Patch the grouped table with the differentials about to be applied.

        Only the groups they touch change: their stored rows are found
        through a hash index on the group key and patched to the adjusted
        ones, so the aggregate adjustment is O(|deltas|).
        """
        deleted = self.db[self.view.dt_delete_table]
        inserted = self.db[self.view.dt_insert_table]
        if not deleted and not inserted:
            return
        changes = self._aggregate_bag(inserted)
        for key, lost in self._aggregate_bag(deleted).items():
            kept = changes.get(key, [0] * len(lost))
            changes[key] = [have - gone for have, gone in zip(kept, lost)]
        self.counter.record("agg_patch", len(deleted) + len(inserted))
        table = self.read_table
        index = self.db.indexes.get(table, tuple(range(len(self.aggregate.group_by))), self.db[table])
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

    # ------------------------------------------------------------------
    # Reads and checks
    # ------------------------------------------------------------------

    def expected(self) -> Bag:
        """The aggregate recomputed from scratch (for checks)."""
        return self._state_to_rows(self._aggregate_bag(self.db.evaluate(self.view.query)))

    def is_consistent(self) -> bool:
        return self.read_view() == self.expected()

    def invariant_holds(self) -> bool:
        """``INV_C`` of the base view, and the grouped table equals the
        grouping of the (possibly stale) base ``MV``."""
        mirrored = self._state_to_rows(self._aggregate_bag(self.db[self.view.mv_table]))
        return super().invariant_holds() and mirrored == self.read_view()
