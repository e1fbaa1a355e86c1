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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def add_assignment(self, table: str, query: Expr) -> None:
        self._check_fresh(table, query)
        self.assignments[table] = query

    def add_patch(self, table: str, delete: Expr, insert: Expr) -> None:
        self._check_fresh(table, (delete, insert))
        self.patches[table] = (delete, insert)

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
        merged = MaintenancePlan(dict(self.assignments), dict(self.patches))
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
        sets and bags its restricted and bound leaves read, see ``Database.evaluate``)."""
        db.apply(self.assignments, patches=self.patches, counter=counter, binding=binding)
