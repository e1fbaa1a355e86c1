"""An interactive warehouse shell: ``python -m repro``.

A small SQL console over a :class:`~repro.warehouse.ViewManager`, good
for demos and for poking at maintenance state:

.. code:: text

    $ python -m repro
    repro> CREATE TABLE sales (custId, itemNo, quantity, salesPrice);
    repro> INSERT INTO sales VALUES (1, 10, 2, 5.0);
    repro> CREATE VIEW V AS SELECT custId FROM sales WHERE quantity != 0;
    repro> SELECT custId FROM sales;
    repro> .stale V
    repro> .refresh V
    repro> .save warehouse.db

SQL statements end with ``;`` and may span lines.  Dot-commands act
immediately:

=================  ==================================================
``.tables``        list tables (and their sizes)
``.views``         list views and their staleness
``.scenario NAME`` scenario for subsequent CREATE VIEW (default: combined)
``.refresh V``     bring view ``V`` up to date
``.propagate V``   run ``propagate_C`` (combined-scenario views)
``.stale V``       is the view stale?
``.plan V``        show the view's incremental refresh queries
``.analyze V``     self-maintainability and refresh footprint
``.stats``         cost-counter and downtime summary
``.engine``        execution engine (on sqlite: fallback breaker, trips)
``.save FILE``     persist the warehouse (tables + views) to SQLite
``.open FILE``     load a warehouse saved with ``.save``
``.help``          this text
``.quit``          exit
=================  ==================================================
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from repro.bench.report import format_table
from repro.errors import ReproError
from repro.sqlfront.compiler import (
    compile_delete,
    compile_insert,
    compile_query,
    compile_update,
    compile_view,
)
from repro.sqlfront.parser import (
    CreateTable,
    CreateView,
    DeleteStatement,
    InsertStatement,
    UpdateStatement,
    parse_script,
)
from repro.core.transactions import UserTransaction
from repro.warehouse import ViewManager

__all__ = ["WarehouseShell", "main"]

_HELP = __doc__.split("SQL statements end", 1)[1]


class _QueryCatalog:
    """Table resolution for shell queries: view names read their MV tables."""

    def __init__(self, manager: ViewManager) -> None:
        self._manager = manager

    def ref(self, name: str):
        if name in self._manager.views():
            return self._manager.db.ref(self._manager.scenario(name).read_table)
        return self._manager.db.ref(name)


class WarehouseShell:
    """Stateful line-oriented shell around one :class:`ViewManager`."""

    def __init__(self) -> None:
        self.manager = ViewManager()
        self.default_scenario = "combined"
        self._buffer: list[str] = []

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Process one input line; returns text to display (may be '')."""
        stripped = line.strip()
        if not stripped:
            return ""
        if not self._buffer and stripped.startswith("."):
            return self._dot_command(stripped)
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement_text = "\n".join(self._buffer)
            self._buffer.clear()
            return self._run_sql(statement_text)
        return ""

    @property
    def pending(self) -> bool:
        """Whether a multi-line statement is being accumulated."""
        return bool(self._buffer)

    # ------------------------------------------------------------------
    # SQL statements
    # ------------------------------------------------------------------

    def _run_sql(self, text: str) -> str:
        try:
            statements = parse_script(text)
        except ReproError as error:
            return f"error: {error}"
        outputs = []
        for statement in statements:
            try:
                outputs.append(self._run_statement(statement))
            except ReproError as error:
                outputs.append(f"error: {error}")
        return "\n".join(output for output in outputs if output)

    def _run_statement(self, statement) -> str:
        manager = self.manager
        if isinstance(statement, CreateTable):
            manager.create_table(statement.name, statement.columns)
            return f"table {statement.name} created"
        if isinstance(statement, CreateView):
            view = compile_view(statement, manager.db)
            manager.define_view(view.name, view, scenario=self.default_scenario)
            return f"view {view.name} materialized ({self.default_scenario} scenario)"
        if isinstance(statement, (InsertStatement, DeleteStatement, UpdateStatement)):
            txn = UserTransaction(manager.db)
            if isinstance(statement, InsertStatement):
                compile_insert(statement, manager.db, txn)
            elif isinstance(statement, UpdateStatement):
                compile_update(statement, manager.db, txn)
            else:
                compile_delete(statement, manager.db, txn)
            manager.execute(txn)
            return "ok"
        # A query: evaluate and render.  Views are queryable by name,
        # resolving to their materialized tables (possibly stale — use
        # .refresh first for fresh reads).
        expr = compile_query(statement, _QueryCatalog(manager))
        result = manager.db.evaluate(expr, counter=manager.counter)
        return self._render_rows(expr.schema().attributes, result)

    @staticmethod
    def _render_rows(attributes: Iterable[str], bag) -> str:
        rows = [dict(zip(attributes, row)) for row in sorted(bag, key=repr)]
        if not rows:
            return "(empty)"
        return format_table(rows) + f"\n({len(rows)} row{'s' if len(rows) != 1 else ''})"

    # ------------------------------------------------------------------
    # Dot commands
    # ------------------------------------------------------------------

    def _dot_command(self, line: str) -> str:
        parts = line.split()
        command, args = parts[0], parts[1:]
        try:
            handler = getattr(self, f"_cmd_{command[1:]}")
        except AttributeError:
            return f"unknown command {command}; try .help"
        try:
            return handler(*args)
        except TypeError:
            return f"wrong arguments for {command}; try .help"
        except ReproError as error:
            return f"error: {error}"

    def _cmd_help(self) -> str:
        return _HELP.strip()

    def _cmd_quit(self) -> str:
        raise EOFError

    def _cmd_tables(self) -> str:
        rows = [
            {"table": name, "rows": len(self.manager.db[name]),
             "kind": "internal" if self.manager.db.is_internal(name) else "external"}
            for name in sorted(self.manager.db.table_names())
        ]
        return format_table(rows) if rows else "(no tables)"

    def _cmd_views(self) -> str:
        rows = [
            {
                "view": name,
                "scenario": self.manager.scenario(name).tag,
                "stale": self.manager.is_stale(name),
                "rows": len(self.manager.query(name)),
            }
            for name in self.manager.views()
        ]
        return format_table(rows) if rows else "(no views)"

    def _cmd_scenario(self, name: str) -> str:
        from repro.warehouse.manager import SCENARIOS

        if name not in SCENARIOS:
            return f"unknown scenario {name!r}; pick one of {sorted(SCENARIOS)}"
        self.default_scenario = name
        return f"new views will use the {name} scenario"

    def _cmd_refresh(self, view: str) -> str:
        self.manager.refresh(view)
        return f"{view} refreshed"

    def _cmd_propagate(self, view: str) -> str:
        self.manager.propagate(view)
        return f"{view} propagated"

    def _cmd_stale(self, view: str) -> str:
        return "stale" if self.manager.is_stale(view) else "fresh"

    def _cmd_stats(self) -> str:
        counter = self.manager.counter
        lines = [f"tuple ops: {counter.tuples_out}  (evaluations: {counter.evaluations})"]
        for view in self.manager.views():
            seconds = self.manager.downtime_seconds(view)
            lines.append(f"view {view}: downtime {seconds * 1000:.3f} ms")
        return "\n".join(lines)

    def _cmd_engine(self) -> str:
        """The execution engine; on sqlite, its fallback breaker."""
        return f"engine {self.manager.db.executor.describe()}"

    def _cmd_plan(self, name: str) -> str:
        """Show the view's post-update incremental queries (▼/▲)."""
        from repro.core.differential import post_update_delta
        from repro.core.scenarios import BaseLogScenario, DiffTableScenario

        scenario = self.manager.scenario(name)
        if not isinstance(scenario, (BaseLogScenario, DiffTableScenario)) or not hasattr(scenario, "log"):
            return f"view {name} has no log-based refresh plan (scenario {scenario.tag})"
        view_delete, view_insert = post_update_delta(scenario.log, scenario.view.query)
        return (
            f"refresh plan for {name} (evaluated post-update, applied as a patch):\n"
            f"  delete ▼(L,Q) = {view_delete}\n"
            f"  insert ▲(L,Q) = {view_insert}"
        )

    def _cmd_analyze(self, name: str) -> str:
        """Static analysis: SP class, maintenance footprint, self-maintainability."""
        from repro.core.analysis import (
            is_select_project,
            is_self_maintainable,
            maintenance_footprint,
        )

        view = self.manager.scenario(name).view
        footprint = sorted(maintenance_footprint(view, self.manager.db))
        lines = [
            f"view {name}:",
            f"  select-project class : {'yes' if is_select_project(view.query) else 'no'}",
            f"  self-maintainable    : {'yes' if is_self_maintainable(view, self.manager.db) else 'no'}",
            f"  refresh reads tables : {footprint if footprint else '(none — log only)'}",
        ]
        return "\n".join(lines)

    def _cmd_save(self, path: str) -> str:
        from repro.warehouse.persistence import save_warehouse

        save_warehouse(self.manager, path)
        return f"saved to {path} ({len(self.manager.views())} views)"

    def _cmd_open(self, path: str) -> str:
        from repro.warehouse.persistence import load_warehouse

        self.manager = load_warehouse(path)
        self.default_scenario = "combined"
        return (
            f"opened {path} ({len(self.manager.db.table_names())} tables, "
            f"{len(self.manager.views())} views reattached)"
        )


def run_stream(shell: WarehouseShell, lines: Iterable[str], out) -> None:
    for line in lines:
        try:
            output = shell.handle_line(line)
        except EOFError:
            return
        if output:
            print(output, file=out)


def main(argv: list[str] | None = None) -> int:
    """Entry point: ``python -m repro [lint …| recover FILE | trace … | serve … | script.sql …]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "recover":
        from repro.robustness.recovery import main as recover_main

        return recover_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.obs.render import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.demo import main as serve_main

        return serve_main(argv[1:])
    shell = WarehouseShell()
    if argv:
        for path in argv:
            with open(path) as handle:
                run_stream(shell, handle, sys.stdout)
        return 0
    print("repro warehouse shell — .help for commands, .quit to exit")
    while True:
        prompt = "  ...> " if shell.pending else "repro> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return 0
        try:
            output = shell.handle_line(line)
        except EOFError:
            return 0
        if output:
            print(output)


if __name__ == "__main__":
    raise SystemExit(main())
