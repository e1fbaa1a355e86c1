"""The ``repro lint`` driver.

Entry points used by the CLI (``python -m repro lint``), by scenario /
view installation (warn-by-default, ``strict=True`` raises), and by CI:

* :func:`lint_expr` — schema check + derived-property notes for one
  bag-algebra expression;
* :func:`lint_sql` — lint a SQL statement or ``;``-separated script
  (CREATE TABLE statements build up the catalog; every query / view /
  DML statement is compiled and checked, with source positions);
* :func:`lint_view` — install-time hook for a view definition;
* :func:`lint_example` — lint an ``examples/*.py`` file: its declared
  ``LINT_SCHEMA`` / ``LINT_QUERIES`` manifest plus state-bug detection
  (verified against the canonical Example 1.2/1.3 fixtures);
* :func:`lint_experiments` — the named E1–E16 experiment queries;
* :func:`lint_concurrency` — the RVM6xx concurrency/effect suite: the
  clean demo stack (must lint empty) or, for a target file declaring
  ``CONCURRENCY_MUTATION``, the seeded-mutation probes (must lint
  non-empty);
* :func:`main` — the command-line front end.

Exit-code contract (stable; CI gates depend on it): **0** clean, **1**
warnings promoted by ``--strict``, **2** errors (or usage problems).
"""

from __future__ import annotations

import importlib.util
import os

from repro.algebra.expr import Expr
from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.properties import degrees, duplicate_free
from repro.analysis.schema_check import check_expr
from repro.analysis.statebug import audit_refresh_pair, check_log_polarity
from repro.errors import ParseError, ReproError, SchemaError
from repro.sqlfront.parser import (
    CreateTable,
    CreateView,
    DeleteStatement,
    InsertStatement,
    SelectCore,
    SetOp,
    UpdateStatement,
    parse_script,
)
from repro.storage.database import Database

__all__ = [
    "lint_expr",
    "lint_sql",
    "lint_view",
    "lint_example",
    "lint_experiments",
    "lint_concurrency",
    "experiment_queries",
    "main",
]


# ----------------------------------------------------------------------
# Expressions and views
# ----------------------------------------------------------------------


def lint_expr(
    expr: Expr,
    db: Database | None = None,
    *,
    root: str = "Q",
    properties: bool = False,
) -> AnalysisReport:
    """Schema-check an expression; optionally add derived-property notes."""
    report = check_expr(expr, db, root=root)
    if properties and not report.errors:
        notes = []
        if duplicate_free(expr):
            notes.append("duplicate-free")
        table_degrees = degrees(expr)
        nonlinear = sorted(name for name, degree in table_degrees.items() if degree > 1)
        if nonlinear:
            notes.append(f"non-linear in {nonlinear} (delta terms multiply)")
        else:
            notes.append("linear in every base table")
        report.add("RVM204", Severity.INFO, "; ".join(notes), path=root)
    return report


def lint_view(view, db: Database, *, properties: bool = True) -> AnalysisReport:
    """Install-time lint of a view definition against its database."""
    report = lint_expr(view.query, db, root=view.name, properties=properties)
    if properties and not report.errors:
        # The deferred scenarios keep their logs weakly minimal by
        # construction (Lemma 4), so the refresh insert simplifies from
        # Q min Del(L̂,Q) to Del(L̂,Q) — record that the simplification
        # is analysis-backed.
        report.add(
            "RVM202",
            Severity.INFO,
            "deferred refresh will use the simplified insert Del(L̂,Q): "
            "the maintained log is weakly minimal by construction (Lemma 4)",
            path=view.name,
        )
    if not report.errors:
        # RVM7xx: on a partitioned database, warn when the declared
        # partition keys cannot prune the view's maintenance plan.
        from repro.analysis.partitioning import partition_lint

        partition_lint(view, db, report)
    return report


# ----------------------------------------------------------------------
# SQL scripts
# ----------------------------------------------------------------------


def _schema_error_diagnostic(report: AnalysisReport, exc: SchemaError, *, path: str) -> None:
    message = str(exc)
    if exc.attribute is not None and "ambiguous" in message:
        code = "RVM102"
    elif exc.attribute is not None or "column" in message or "attribute" in message:
        code = "RVM101"
    elif "table" in message or "range variable" in message:
        code = "RVM107"
    elif "arit" in message:
        code = "RVM103"
    else:
        code = "RVM109"
    if exc.expression is not None:
        message = f"{message} (in {exc.expression})"
    report.add(code, Severity.ERROR, message, path=path, position=exc.position)


def lint_sql(source: str, db: Database | None = None) -> AnalysisReport:
    """Lint a SQL statement or script.

    ``CREATE TABLE`` statements extend a scratch catalog (seeded from
    ``db`` when given) so later statements resolve against them; every
    query, view, and DML statement is compiled and schema-checked.
    Diagnostics carry source positions wherever the front end provides
    them.  All diagnostics are *static* — schema checks and derived
    properties over the algebra tree — so the catalog's engine never
    changes what fires.
    """
    from repro.sqlfront.compiler import (
        compile_delete,
        compile_insert,
        compile_query,
        compile_update,
        compile_view,
    )
    from repro.core.transactions import UserTransaction

    report = AnalysisReport()
    catalog = db.clone() if db is not None else Database()
    try:
        statements = parse_script(source)
    except ParseError as exc:
        report.add("RVM001", Severity.ERROR, str(exc), position=exc.position)
        return report
    for index, statement in enumerate(statements):
        path = f"stmt{index}" if len(statements) > 1 else "Q"
        try:
            if isinstance(statement, CreateTable):
                catalog.create_table(statement.name, statement.columns)
            elif isinstance(statement, CreateView):
                if isinstance(statement.query, SelectCore) and statement.query.is_aggregate():
                    continue  # aggregate views are checked by their own compiler
                view = compile_view(statement, catalog)
                report.extend(check_expr(view.query, catalog, root=statement.name))
                if not catalog.has_table(statement.name):
                    catalog.create_table(statement.name, view.query.schema())
            elif isinstance(statement, (SelectCore, SetOp)):
                if isinstance(statement, SelectCore) and statement.is_aggregate():
                    continue  # aggregate queries are checked by their own compiler
                expr = compile_query(statement, catalog)
                report.extend(check_expr(expr, catalog, root=path))
            elif isinstance(statement, InsertStatement):
                compile_insert(statement, catalog, UserTransaction(catalog))
            elif isinstance(statement, DeleteStatement):
                compile_delete(statement, catalog, UserTransaction(catalog))
            elif isinstance(statement, UpdateStatement):
                compile_update(statement, catalog, UserTransaction(catalog))
        except SchemaError as exc:
            _schema_error_diagnostic(report, exc, path=path)
        except ParseError as exc:
            report.add("RVM001", Severity.ERROR, str(exc), path=path, position=exc.position)
        except ReproError as exc:
            report.add("RVM109", Severity.ERROR, str(exc), path=path)
    return report


# ----------------------------------------------------------------------
# Example files
# ----------------------------------------------------------------------


def _load_module(path: str):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(f"repro_lint_target_{name}", path)
    if spec is None or spec.loader is None:
        raise ReproError(f"cannot load {path!r} for linting")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _state_bug_fixture_report() -> AnalysisReport:
    """Run both state-bug detectors on the canonical Example 1.3 fixture.

    Used to *verify* a static hit on ``baselines.preupdate_bug`` before
    flagging a file that reaches it: the misread substitution must fail
    the polarity check and the buggy refresh pair must fail the
    PAST-state oracle.
    """
    from repro.algebra.expr import Monus
    from repro.baselines.preupdate_bug import (
        _log_as_transaction_substitution,
        buggy_post_update_delta,
    )
    from repro.core.logs import Log

    db = Database()
    r = db.create_table("R", ("A",), rows=[("a",), ("b",), ("c",)])
    s = db.create_table("S", ("A",), rows=[("c",), ("d",)])
    log = Log(db, ("R", "S"), owner="lint_fixture")
    log.install()
    query = Monus(r, s)
    report = AnalysisReport()
    report.extend(check_log_polarity(_log_as_transaction_substitution(log, db), log))
    delete, insert = buggy_post_update_delta(log, db, query)
    report.extend(audit_refresh_pair(log, query, delete, insert))
    return report


def lint_example(path: str) -> AnalysisReport:
    """Lint one ``examples/*.py`` file.

    The file declares the SQL it runs via module-level ``LINT_SCHEMA``
    (CREATE TABLE statements) and ``LINT_QUERIES`` (named queries /
    views); each query is linted against the declared schema.  Files
    that reach :mod:`repro.baselines.preupdate_bug` are additionally run
    through the state-bug detectors on the canonical fixture.
    """
    report = AnalysisReport()
    with open(path) as handle:
        source_text = handle.read()
    try:
        module = _load_module(path)
    except Exception as exc:  # pragma: no cover - defensive
        report.add("RVM109", Severity.ERROR, f"cannot import {path!r}: {exc}")
        return report
    schema_sql = getattr(module, "LINT_SCHEMA", "")
    queries = getattr(module, "LINT_QUERIES", {})
    for name, sql in queries.items():
        script = f"{schema_sql};\n{sql}" if schema_sql else sql
        sub_report = lint_sql(script)
        for diagnostic in sub_report:
            report.add(
                diagnostic.code,
                diagnostic.severity,
                diagnostic.message,
                path=f"{name}" if diagnostic.path in (None, "Q") else f"{name}.{diagnostic.path}",
                position=diagnostic.position,
            )
    if "preupdate_bug" in source_text:
        fixture = _state_bug_fixture_report()
        if fixture.errors:
            for diagnostic in fixture.errors:
                report.add(
                    diagnostic.code,
                    diagnostic.severity,
                    f"{os.path.basename(path)} exercises the pre-update baseline: {diagnostic.message}",
                    path=diagnostic.path,
                )
    return report


# ----------------------------------------------------------------------
# Experiment queries (E1–E16)
# ----------------------------------------------------------------------


def experiment_queries() -> dict[str, tuple[str, str]]:
    """Named ``(schema_sql, query_sql)`` pairs behind the E1–E16 experiments."""
    from repro.workloads.orders import (
        EMPTY_ORDERS_SQL,
        LINEITEMS_ATTRS,
        OPEN_ORDER_LINES_SQL,
        ORDER_IDS_SQL,
        ORDERS_ATTRS,
    )
    from repro.workloads.retail import CUSTOMER_ATTRS, SALES_ATTRS, VIEW_SQL

    retail_schema = (
        f"CREATE TABLE customer ({', '.join(CUSTOMER_ATTRS)});\n"
        f"CREATE TABLE sales ({', '.join(SALES_ATTRS)})"
    )
    orders_schema = (
        f"CREATE TABLE orders ({', '.join(ORDERS_ATTRS)});\n"
        f"CREATE TABLE lineitems ({', '.join(LINEITEMS_ATTRS)})"
    )
    return {
        "retail.V": (retail_schema, VIEW_SQL),
        "orders.open_order_lines": (orders_schema, OPEN_ORDER_LINES_SQL),
        "orders.order_ids": (orders_schema, ORDER_IDS_SQL),
        "orders.empty_orders": (orders_schema, EMPTY_ORDERS_SQL),
    }


def lint_experiments() -> AnalysisReport:
    """Lint every named experiment query; all must come back clean."""
    report = AnalysisReport()
    for name, (schema_sql, query_sql) in experiment_queries().items():
        sub_report = lint_sql(f"{schema_sql};\n{query_sql}")
        for diagnostic in sub_report:
            report.add(
                diagnostic.code,
                diagnostic.severity,
                diagnostic.message,
                path=f"{name}" if diagnostic.path in (None, "Q") else f"{name}.{diagnostic.path}",
                position=diagnostic.position,
            )
    return report


# ----------------------------------------------------------------------
# Concurrency / effect suite (RVM6xx)
# ----------------------------------------------------------------------


def lint_concurrency(path: str | None = None) -> AnalysisReport:
    """Run the RVM6xx concurrency suite.

    With no ``path``, lints the *clean* canonical stack: the static
    effect/lock-coverage pass over all four scenarios plus the dynamic
    lockset-sanitizer probes — an empty report is the healthy outcome.

    With a ``path`` to a Python file, the file's ``CONCURRENCY_MUTATION``
    declaration (if any) selects a seeded fault from
    :mod:`repro.analysis.mutations` and the suite runs *under* that
    fault — here a **non-empty** report is the healthy outcome, and the
    fixture files under ``examples/mutations/`` encode exactly that.
    Files without the declaration get the static pass over the clean
    stack.
    """
    from repro.analysis.concurrency_check import demo_stack_report
    from repro.analysis.mutations import run_clean, run_mutation

    if path is None:
        return demo_stack_report().extend(run_clean())
    module = _load_module(path)
    mutation = getattr(module, "CONCURRENCY_MUTATION", None)
    if mutation is not None:
        return run_mutation(mutation)
    return demo_stack_report()


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

_USAGE = """usage: python -m repro lint [options] [target ...]

Targets:
  file.sql         lint a SQL statement or script
  file.py          lint an example file (LINT_SCHEMA/LINT_QUERIES manifest
                   + state-bug detection)
  "SELECT ..."     lint SQL given directly on the command line

Options:
  --experiments    lint the named E1-E16 experiment queries
  --concurrency    run the RVM6xx concurrency/effect suite; alone it lints
                   the clean demo stack (must be empty), on a .py target it
                   honours the file's CONCURRENCY_MUTATION declaration
  --json           emit machine-readable JSON instead of text
  --strict         exit 1 on warnings (errors always exit 2)
  --verbose        show info-level notes too

Exit status: 0 clean, 1 warnings under --strict, 2 errors or usage problems.
"""


def main(argv: list[str]) -> int:
    """``python -m repro lint`` entry point.  Returns the exit status."""
    import json as json_module

    strict = "--strict" in argv
    verbose = "--verbose" in argv
    experiments = "--experiments" in argv
    concurrency = "--concurrency" in argv
    as_json = "--json" in argv
    targets = [arg for arg in argv if not arg.startswith("--")]
    if not targets and not experiments and not concurrency:
        print(_USAGE)
        return 2
    sections: list[tuple[str, AnalysisReport]] = []
    if experiments:
        sections.append(("experiments", lint_experiments()))
    if concurrency and not targets:
        sections.append(("concurrency", lint_concurrency()))
    for target in targets:
        if target.endswith(".py"):
            sections.append((target, lint_example(target)))
            if concurrency:
                sections.append((f"{target}:concurrency", lint_concurrency(target)))
        elif target.endswith(".sql"):
            with open(target) as handle:
                sections.append((target, lint_sql(handle.read())))
        else:
            sections.append(("<sql>", lint_sql(target)))
    has_errors = any(report.errors for _, report in sections)
    has_warnings = any(report.warnings for _, report in sections)
    status = 2 if has_errors else (1 if strict and has_warnings else 0)
    if as_json:
        payload = {
            "status": status,
            "strict": strict,
            "sections": [
                {"target": label, "clean": not report.errors and not report.warnings}
                | report.to_dict()
                for label, report in sections
            ],
        }
        print(json_module.dumps(payload, indent=2))
        return status
    for label, report in sections:
        shown = list(report.errors) + list(report.warnings)
        if verbose:
            shown += list(report.infos)
        for diagnostic in shown:
            print(f"{label}: {diagnostic.format()}")
        if not shown:
            print(f"{label}: clean")
    return status
