"""Maintenance plans: the executable form of ``makesafe`` and refreshes.

A plan is one simultaneous database transaction split into

* ``assignments`` — wholesale ``R := Q`` (used for clearing auxiliary
  tables and full recomputation), and
* ``patches`` — delta applications ``R := (R ∸ delete) ⊎ insert``
  executed as indexed in-place updates, whose cost is proportional to
  the delta, not the table.

Plans from several views merge into a single transaction: the user
transaction's own patches appear identically in each view's plan and
deduplicate structurally; auxiliary-table updates are per-view and
disjoint.  A genuine conflict (two different updates to one table) is
an error — it would mean two maintenance components disagree about the
same table.

A plan also carries its ``binding``: what its expressions read from
their open leaves (a prepared script's literals and rows, a shared
log's sequence tags).  Plans built from one transaction merge their
bindings; every :meth:`MaintenancePlan.execute` is given it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr
from repro.errors import TransactionError
from repro.storage.database import Database

__all__ = ["MaintenancePlan"]


@dataclass
class MaintenancePlan:
    """A simultaneous transaction of assignments and patches."""

    assignments: dict[str, Expr] = field(default_factory=dict)
    patches: dict[str, tuple[Expr, Expr]] = field(default_factory=dict)
    binding: Mapping[str, Any] | None = None

    def add_assignment(self, table: str, query: Expr) -> None:
        self._check_fresh(table, query)
        self.assignments[table] = query

    def add_patch(self, table: str, delete: Expr, insert: Expr) -> None:
        self._check_fresh(table, (delete, insert))
        self.patches[table] = (delete, insert)

    def bind(self, values: Mapping[str, Any] | None) -> None:
        """Add ``values`` to the plan's binding (never changed in place: it
        may be a transaction's); a name bound twice must be bound alike."""
        if not values or values is self.binding:
            return
        if self.binding:
            for name in self.binding.keys() & values.keys():
                if self.binding[name] is not values[name] and self.binding[name] != values[name]:
                    raise TransactionError(f"conflicting values for {name!r} in one plan")
            values = {**self.binding, **values}
        self.binding = values

    def _check_fresh(self, table: str, value: object) -> None:
        existing: object | None = None
        if table in self.assignments:
            existing = self.assignments[table]
        elif table in self.patches:
            existing = self.patches[table]
        if existing is not None and existing != value:
            raise TransactionError(f"conflicting updates to table {table!r} in one plan")

    def merge(self, other: MaintenancePlan) -> MaintenancePlan:
        """Combine two plans into one transaction.

        Structurally identical duplicate updates (the shared user
        transaction) deduplicate; diverging duplicates raise.
        """
        merged = MaintenancePlan(dict(self.assignments), dict(self.patches), self.binding)
        merged.bind(other.binding)
        for table, query in other.assignments.items():
            merged.add_assignment(table, query)
        for table, (delete, insert) in other.patches.items():
            merged.add_patch(table, delete, insert)
        return merged

    def tables(self) -> frozenset[str]:
        return frozenset(self.assignments) | frozenset(self.patches)

    def is_empty(self) -> bool:
        return not self.assignments and not self.patches

    def execute(self, db: Database, *, counter: CostCounter | None = None, binding=None) -> None:
        """Run the plan as one simultaneous transaction (``binding``: the key
        sets and bags its restricted and bound leaves read, see
        ``Database.evaluate``, beside the plan's own)."""
        if self.binding:
            binding = self.binding if binding is None else {**self.binding, **binding}
        db.apply(self.assignments, patches=self.patches, counter=counter, binding=binding)
