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
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.algebra.bag import Bag
from repro.algebra.serialize import expr_from_dict, expr_to_dict
from repro.core.scenarios import CombinedScenario, DiffTableScenario
from repro.core.views import ViewDefinition
from repro.errors import ReproError
from repro.extensions.aggregates import AggregateScenario, AggregateSpec, AggregateView
from repro.extensions.sharedlog import SharedLogView
from repro.storage.persistence import StoredTable, load_database, save_database
from repro.warehouse.manager import SCENARIOS, ViewManager

__all__ = ["save_warehouse", "load_warehouse", "VIEWDEFS_TABLE"]

VIEWDEFS_TABLE = "__viewdefs__"
_TAG_TO_NAME = {cls.tag: name for name, cls in SCENARIOS.items()}


def _describe(scenario) -> dict:
    """A JSON-safe description of one view's maintenance setup."""
    if isinstance(scenario, AggregateScenario):
        view = scenario.view
        return {
            "type": "aggregate",
            "name": view.name,
            "base_query": expr_to_dict(view.base.query),
            "base_name": view.base.name,
            "group_by": list(view.group_by),
            "aggregates": [
                {"function": spec.function, "attribute": spec.attribute, "alias": spec.alias}
                for spec in view.aggregates
            ],
        }
    if isinstance(scenario, SharedLogView):
        view = scenario.view
        return {
            "type": "shared_log",
            "name": view.name,
            "query": expr_to_dict(view.query),
            "cursor": scenario.group.cursor(view.name),
            "seq": scenario.group.shared_log.current_seq,
        }
    description = {
        "type": "plain",
        "name": scenario.view.name,
        "scenario": _TAG_TO_NAME.get(scenario.tag),
        "query": expr_to_dict(scenario.view.query),
        "strong_minimality": bool(getattr(scenario, "strong_minimality", False)),
    }
    if description["scenario"] is None:
        raise ReproError(f"cannot persist views of scenario type {type(scenario).__name__}")
    return description


def save_warehouse(manager: ViewManager, path: str | Path, *, op_id: int = 0) -> None:
    """Persist the database and every registered view's definition.

    The view catalog is handed to :func:`save_database` as an extra
    table: it is written into the file without ever entering the live
    database (whose write listeners would otherwise see it come and go).
    ``op_id`` — the journaled operation this save completes, 0 for none
    — is stamped into the file in the same transaction.
    """
    viewdefs = Bag(
        (description["name"], json.dumps(description, sort_keys=True))
        for description in (_describe(manager.scenario(name)) for name in manager.views())
    )
    save_database(
        manager.db,
        path,
        extra=[StoredTable(VIEWDEFS_TABLE, ("name", "definition"), True, viewdefs)],
        op_id=op_id,
    )


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
    if description["type"] == "aggregate":
        view = AggregateView(
            name,
            ViewDefinition(description["base_name"], expr_from_dict(description["base_query"])),
            tuple(description["group_by"]),
            tuple(
                AggregateSpec(spec["function"], spec["attribute"], spec["alias"])
                for spec in description["aggregates"]
            ),
        )
        scenario = AggregateScenario(manager.db, view, counter=manager.counter, ledger=manager.ledger)
        scenario._installed = True
        scenario.base._installed = True
    elif description["type"] == "shared_log":
        view = ViewDefinition(name, expr_from_dict(description["query"]))
        group = manager.shared_group()
        group.shared_log.restore_seq(description["seq"])
        scenario = SharedLogView(
            manager.db, view, group=group, counter=manager.counter, ledger=manager.ledger
        )
        # Reattach to the persisted log tables and MV at the saved cursor.
        scenario.attach(description["cursor"])
    else:
        scenario_cls = SCENARIOS[description["scenario"]]
        view = ViewDefinition(name, expr_from_dict(description["query"]))
        kwargs = {"counter": manager.counter, "ledger": manager.ledger}
        if scenario_cls in (DiffTableScenario, CombinedScenario):
            kwargs["strong_minimality"] = description["strong_minimality"]
        scenario = scenario_cls(manager.db, view, **kwargs)
        scenario._installed = True
    _verify_attached(manager, scenario)
    manager._scenarios[name] = scenario


def _verify_attached(manager: ViewManager, scenario) -> None:
    """The saved file must actually contain the view's internal tables."""
    mv_table = scenario.view.mv_table
    if not manager.db.has_table(mv_table):
        raise ReproError(f"saved warehouse lacks materialized table {mv_table!r}")
