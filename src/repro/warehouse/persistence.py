"""Whole-warehouse persistence: database state *plus* view registrations.

:func:`repro.storage.persistence.save_database` persists table contents;
this module adds a view catalog so a restarted process can reattach the
maintenance machinery exactly where it left off — materialized tables,
logs, and differential tables all resume mid-deferral:

.. code:: python

    save_warehouse(manager, "warehouse.db")
    # … restart …
    manager = load_warehouse("warehouse.db")
    manager.refresh_all()   # catches up on everything logged pre-restart

The catalog is stored inside the same SQLite file as a normal internal
table (``__viewdefs__``) holding each view's name, scenario, options,
and JSON-serialized defining query.  It exists only in the file:
:func:`load_warehouse` reads it and drops it from the loaded database.
A save describes the views again only when the catalog changed: a view
was defined or dropped, or a shared-log cursor moved.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from weakref import WeakKeyDictionary

from repro.algebra.bag import Bag
from repro.algebra.serialize import expr_from_dict, expr_to_dict
from repro.core.views import ViewDefinition
from repro.errors import ReproError
from repro.extensions.aggregates import AggregateScenario, AggregateSpec, AggregateView
from repro.extensions.sharedlog import SharedLogScenario
from repro.storage.persistence import StoredTable, load_database, save_database
from repro.warehouse.manager import SCENARIOS, ViewManager

__all__ = ["save_warehouse", "load_warehouse", "VIEWDEFS_TABLE"]

VIEWDEFS_TABLE = "__viewdefs__"
#: Scenario tag -> the name ``ViewManager._new_scenario`` rebuilds it from.
_TAG_TO_NAME = {**{cls.tag: name for name, cls in SCENARIOS.items()}, AggregateScenario.tag: "combined"}
#: Manager -> (its views' scenarios and shared-log cursors, the
#: ``__viewdefs__`` bag described from them).
_DESCRIBED: WeakKeyDictionary[ViewManager, tuple[list, Bag]] = WeakKeyDictionary()


def _describe(scenario) -> dict:
    """A JSON-safe description of one view's maintenance setup."""
    description = {
        "type": "plain",
        "name": scenario.view.name,
        "scenario": _TAG_TO_NAME.get(scenario.tag),
        "query": expr_to_dict(scenario.view.query),
        "strong_minimality": bool(getattr(scenario, "strong_minimality", False)),
    }
    if description["scenario"] is None:
        raise ReproError(f"cannot persist views of scenario type {type(scenario).__name__}")
    if isinstance(scenario, AggregateScenario):
        aggregate = scenario.aggregate
        description.update(
            type="aggregate",
            group_by=list(aggregate.group_by),
            aggregates=[asdict(spec) for spec in aggregate.aggregates],
        )
    if isinstance(scenario, SharedLogScenario):
        description["cursor"] = scenario.cursor
    return description


def save_warehouse(manager: ViewManager, path: str | Path, *, op_id: int = 0) -> None:
    """Persist the database and every registered view's definition.

    The view catalog is handed to :func:`save_database` as an extra
    table: it is written into the file without ever entering the live
    database (whose write listeners would otherwise see it come and go).
    ``op_id`` — the journaled operation this save completes, 0 for none
    — is stamped into the file in the same transaction.
    """
    save_database(
        manager.db,
        path,
        extra=[StoredTable(VIEWDEFS_TABLE, ("name", "definition"), True, _viewdefs(manager))],
        op_id=op_id,
    )


def _viewdefs(manager: ViewManager) -> Bag:
    """The ``__viewdefs__`` rows of ``manager``'s views.

    The views are described again only when one was defined or dropped,
    or when a shared-log cursor moved: the cursor is the one field of a
    description that maintenance changes.  Otherwise the last bag is
    handed back as it is, and the checkpoint leaves the catalog rows of
    the file alone.
    """
    scenarios = [manager.scenario(name) for name in manager.views()]
    key = [(scenario, getattr(scenario, "cursor", None)) for scenario in scenarios]
    described = _DESCRIBED.get(manager)
    if described is not None and described[0] == key:
        return described[1]
    viewdefs = Bag(
        (description["name"], json.dumps(description, sort_keys=True)) for description in map(_describe, scenarios)
    )
    _DESCRIBED[manager] = (key, viewdefs)
    return viewdefs


def load_warehouse(path: str | Path, *, exec_mode: str | None = None) -> ViewManager:
    """Load a warehouse saved with :func:`save_warehouse`.

    Views are reattached to their existing materialized/auxiliary tables
    (nothing is recomputed); pending logs and differentials survive, so
    a subsequent refresh applies everything recorded before the save.
    ``exec_mode`` picks the reloaded database's engine (snapshots store
    no engine choice).
    """
    db = load_database(path, exec_mode=exec_mode)
    manager = ViewManager(db)
    if not db.has_table(VIEWDEFS_TABLE):
        return manager
    descriptions = [json.loads(row[1]) for row in sorted(db[VIEWDEFS_TABLE].support)]
    db.drop_table(VIEWDEFS_TABLE)
    for description in descriptions:
        _attach(manager, description)
    return manager


def _attach(manager: ViewManager, description: dict) -> None:
    name = description["name"]
    # Before aggregates were combined views, an aggregate's description
    # had no "query" and its base view another name: it reattaches to
    # tables the file lacks, which _verify_attached refuses.
    view = ViewDefinition(name, expr_from_dict(description.get("query") or description["base_query"]))
    if description["type"] == "aggregate":
        specs = tuple(AggregateSpec(**spec) for spec in description["aggregates"])
        view = AggregateView(name, view, tuple(description["group_by"]), specs)
    scenario = manager._new_scenario(
        description.get("scenario", "combined"), view, strong_minimality=description.get("strong_minimality", False)
    )
    if "cursor" in description:
        # Rejoin the persisted shared log at the saved cursor.
        scenario.attach(description["cursor"])
    scenario._installed = True
    _verify_attached(manager, scenario)
    manager._scenarios[name] = scenario


def _verify_attached(manager: ViewManager, scenario) -> None:
    """The saved file must actually contain the view's internal tables."""
    for table in sorted({scenario.view.mv_table, scenario.read_table}):
        if not manager.db.has_table(table):
            raise ReproError(f"saved warehouse lacks materialized table {table!r}")
