"""Query-scoped partial refresh (future work item 1 of Section 7).

*"Are there algorithms to refresh only those parts of a view needed by a
given query?"*  Yes, for selection-shaped needs: selections commute with
the per-row patch arithmetic of the differential tables, so applying
only the rows of :math:`\\triangledown MV / \\triangle MV` that satisfy
a predicate ``p`` makes exactly :math:`\\sigma_p(MV)` fresh —

.. math::

    MV := (MV \\dot{-} \\sigma_p(\\triangledown MV))
           \\uplus \\sigma_p(\\triangle MV), \\qquad
    \\triangledown MV := \\sigma_{\\lnot p}(\\triangledown MV), \\quad
    \\triangle MV := \\sigma_{\\lnot p}(\\triangle MV)

After this transaction:

* :math:`\\sigma_p(MV)` equals :math:`\\sigma_p` of the view's
  propagated value (fresh for readers whose queries imply ``p``),
* the ``INV_DT`` / ``INV_C`` invariant still holds (the unapplied
  remainder stays in the differential tables),
* downtime is proportional to the *scoped* differential volume only.

Works for both :class:`~repro.core.scenarios.DiffTableScenario` and
:class:`~repro.core.scenarios.CombinedScenario` (anything with
differential tables).
"""

from __future__ import annotations

from repro.algebra.bag import Bag
from repro.algebra.expr import Literal, Select
from repro.algebra.predicates import Predicate
from repro.core.ops import MaintenanceOp, OpStep
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import CombinedScenario, DiffTableScenario
from repro.errors import PolicyError

__all__ = ["scoped_partial_refresh", "scoped_query"]


def _require_differential(scenario) -> None:
    if not isinstance(scenario, DiffTableScenario):
        raise PolicyError(
            "scoped refresh needs differential tables (diff_table or combined scenario), "
            f"got {type(scenario).__name__}"
        )
    if scenario.read_table != scenario.view.mv_table:
        raise PolicyError(
            f"view {scenario.view.name!r} is read from {scenario.read_table!r}, which a scoped "
            "refresh of MV would leave behind"
        )


def scoped_partial_refresh(scenario: DiffTableScenario, predicate: Predicate) -> None:
    """Apply only the differential rows satisfying ``predicate`` to ``MV``.

    The view's invariant is preserved; the σ_p slice of the view becomes
    as fresh as the differential tables (for the combined scenario, as
    fresh as the last ``propagate``).
    """
    _require_differential(scenario)
    view = scenario.view
    db = scenario.db
    # Validate the predicate against the view schema eagerly.
    for name in predicate.attributes():
        view.schema.index_of(name)
    dt_delete = db.ref(view.dt_delete_table)
    dt_insert = db.ref(view.dt_insert_table)
    scoped_delete = Select(predicate, dt_delete)
    scoped_insert = Select(predicate, dt_insert)
    empty = Literal(Bag.empty(), view.schema)
    plan = MaintenancePlan(
        patches={
            # Apply the hot slice to the view, and remove exactly that slice
            # from the differential tables — all delta-proportional patches.
            view.mv_table: (scoped_delete, scoped_insert),
            view.dt_delete_table: (scoped_delete, empty),
            view.dt_insert_table: (scoped_insert, empty),
        }
    )
    # A one-step locked op: the runner's span, lock, crash point and
    # freshness bookkeeping (the rest of the differentials is residual).
    step = OpStep("scoped_apply", locked=True, plan=lambda *_pair: plan)
    scenario.run(MaintenanceOp("partial_refresh", view.name, (step,), (("scoped", True),)))


def scoped_query(scenario: DiffTableScenario, predicate: Predicate) -> Bag:
    """Answer :math:`\\sigma_p(V)` freshly while refreshing only that slice.

    For the combined scenario the pending log is propagated first, so the
    answer reflects *all* changes to date; for the plain differential
    scenario the differential tables already hold everything pending.
    """
    _require_differential(scenario)
    if isinstance(scenario, CombinedScenario):
        scenario.propagate()
    scoped_partial_refresh(scenario, predicate)
    view_slice = Select(predicate, scenario.db.ref(scenario.view.mv_table))
    return scenario.db.evaluate(view_slice, counter=scenario.counter)
