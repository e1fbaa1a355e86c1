"""Baseline: deferred maintenance by full recomputation.

No auxiliary information is kept at all.  Transactions run unmodified;
``refresh`` recomputes ``Q`` from scratch under the view's write lock.
This is the baseline every incremental technique must beat on refresh
time — and the crossover against the incremental ``refresh_BL`` as the
pending-change volume grows is experiment E7.
"""

from __future__ import annotations

from repro.core import invariants
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import Scenario
from repro.core.transactions import UserTransaction

__all__ = ["RecomputeScenario"]


class RecomputeScenario(Scenario):
    """Zero-bookkeeping deferred maintenance: refresh = recompute."""

    tag = "RC"

    def _extend(self, plan: MaintenancePlan, txn: UserTransaction) -> None:
        """No auxiliary work: the user transaction runs as-is."""

    def refresh(self) -> None:
        """``MV := Q`` under the exclusive lock."""
        with self.ledger.exclusive(self.view.mv_table, label="recompute", counter=self.counter):
            self.db.apply({self.view.mv_table: self.view.query}, counter=self.counter)

    def invariant_holds(self) -> bool:
        """This scenario has no invariant beyond refresh correctness.

        Immediately after :meth:`refresh` the view is consistent; in
        between, nothing relates ``MV`` to the current state.  We report
        the only checkable property: ``MV`` equals the view schema shape.
        """
        return self.db[self.view.mv_table].arity in (None, self.view.schema.arity)

    def is_consistent(self) -> bool:
        return invariants.immediate_invariant(self.db, self.view)
