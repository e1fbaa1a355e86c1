"""Compile the SQL parse tree to bag-algebra expressions.

Name resolution follows the classic range-variable discipline of the
paper's Example 1.1: every FROM item binds a range variable (its alias,
or the table name), and the compiler renames each table's columns to
``binding.column`` before forming the join product.  Qualified column
references resolve directly; unqualified ones resolve when they are
unambiguous across the FROM items.

The output is always a *core* bag-algebra expression, so everything the
front end produces is differentiable by Figure 2.
"""

from __future__ import annotations

from typing import Protocol

from repro.algebra.expr import (
    DupElim,
    Expr,
    MapProject,
    Monus,
    Parameterized,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
    bind_params,
    except_expr,
    min_expr,
    rename,
)
from repro.algebra.predicates import (
    And,
    Arith,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    Term,
)
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import ParseError, SchemaError
from repro.sqlfront.parser import (
    AndCond,
    BinaryOp,
    ColumnRef,
    ComparisonCond,
    Condition,
    CreateView,
    DeleteStatement,
    InsertStatement,
    NotCond,
    Operand,
    OrCond,
    Parser,
    Query,
    SelectCore,
    SetOp,
    Statement,
    UpdateStatement,
    parse_query,
    parse_script,
    parse_statement,
)
from repro.sqlfront.prepared import prepare

__all__ = [
    "Catalog",
    "compile_query",
    "compile_view",
    "compile_insert",
    "compile_delete",
    "compile_update",
    "compile_aggregate_view",
    "script_to_transaction",
    "sql_to_expr",
    "sql_to_view",
]


class Catalog(Protocol):
    """Anything that can resolve table names — e.g. a Database."""

    def ref(self, name: str) -> TableRef: ...


class _Resolver:
    """Column-name resolution for one SELECT core."""

    def __init__(self, bindings: dict[str, tuple[str, ...]]) -> None:
        # binding -> original column names of that table
        self._bindings = bindings
        self._unqualified: dict[str, list[str]] = {}
        for binding, columns in bindings.items():
            for column in columns:
                self._unqualified.setdefault(column, []).append(f"{binding}.{column}")

    def resolve(self, column: ColumnRef) -> str:
        if column.qualifier is not None:
            binding = column.qualifier
            if binding not in self._bindings:
                raise SchemaError(
                    f"unknown range variable {binding!r} in {column.display()!r}",
                    attribute=column.display(),
                    position=column.position,
                )
            if column.name not in self._bindings[binding]:
                raise SchemaError(
                    f"table bound to {binding!r} has no column {column.name!r}",
                    attribute=column.display(),
                    position=column.position,
                )
            return f"{binding}.{column.name}"
        candidates = self._unqualified.get(column.name, [])
        if not candidates:
            raise SchemaError(
                f"unknown column {column.name!r}",
                attribute=column.name,
                position=column.position,
            )
        if len(candidates) > 1:
            raise SchemaError(
                f"ambiguous column {column.name!r}: {candidates}",
                attribute=column.name,
                position=column.position,
            )
        return candidates[0]

    def all_columns(self) -> tuple[tuple[str, str], ...]:
        """All ``(qualified, original)`` column pairs, in FROM order."""
        pairs: list[tuple[str, str]] = []
        for binding, columns in self._bindings.items():
            for column in columns:
                pairs.append((f"{binding}.{column}", column))
        return tuple(pairs)


def _compile_operand(operand: Operand, resolver: _Resolver) -> Term:
    if isinstance(operand, ColumnRef):
        return Attr(resolver.resolve(operand))
    if isinstance(operand, BinaryOp):
        return Arith(
            operand.op,
            _compile_operand(operand.left, resolver),
            _compile_operand(operand.right, resolver),
        )
    return Const(operand.value)


def _compile_condition(condition: Condition, resolver: _Resolver) -> Predicate:
    if isinstance(condition, ComparisonCond):
        return Comparison(
            condition.op,
            _compile_operand(condition.left, resolver),
            _compile_operand(condition.right, resolver),
        )
    if isinstance(condition, AndCond):
        return And(_compile_condition(condition.left, resolver), _compile_condition(condition.right, resolver))
    if isinstance(condition, OrCond):
        return Or(_compile_condition(condition.left, resolver), _compile_condition(condition.right, resolver))
    if isinstance(condition, NotCond):
        return Not(_compile_condition(condition.operand, resolver))
    raise ParseError(f"unknown condition node {type(condition).__name__}")


def _compile_core(core: SelectCore, catalog: Catalog) -> Expr:
    if core.is_aggregate():
        raise ParseError(
            "aggregate queries (GROUP BY / COUNT / SUM) are supported as "
            "materialized views only — use ViewManager.define_view or "
            "compile_aggregate_view"
        )
    bindings: dict[str, tuple[str, ...]] = {}
    sources: list[Expr] = []
    for item in core.from_items:
        base = catalog.ref(item.table)
        binding = item.binding
        if binding in bindings:
            raise SchemaError(f"duplicate range variable {binding!r} in FROM clause")
        columns = base.schema().attributes
        bindings[binding] = columns
        sources.append(rename(base, tuple(f"{binding}.{column}" for column in columns)))

    source = sources[0]
    for extra in sources[1:]:
        source = Product(source, extra)

    resolver = _Resolver(bindings)
    if core.where is not None:
        source = Select(_compile_condition(core.where, resolver), source)

    if core.items is None:
        pairs = resolver.all_columns()
        attrs = tuple(qualified for qualified, __ in pairs)
        names = tuple(original for __, original in pairs)
        result: Expr = Project(attrs, source, names)
    elif all(isinstance(item.column, ColumnRef) for item in core.items):
        attrs = tuple(resolver.resolve(item.column) for item in core.items)
        names = tuple(
            item.alias if item.alias is not None else item.column.name for item in core.items
        )
        result = Project(attrs, source, names)
    else:
        # At least one computed item: a generalized (mapping) projection.
        terms = tuple(_compile_operand(item.column, resolver) for item in core.items)
        names = tuple(
            item.alias if item.alias is not None else item.column.name for item in core.items
        )
        result = MapProject(terms, source, names)
    if core.distinct:
        result = DupElim(result)
    return result


def compile_query(query: Query, catalog: Catalog) -> Expr:
    """Compile a parsed query to a core bag-algebra expression."""
    if isinstance(query, SelectCore):
        return _compile_core(query, catalog)
    if isinstance(query, SetOp):
        left = compile_query(query.left, catalog)
        right = compile_query(query.right, catalog)
        if left.schema().arity != right.schema().arity:
            raise SchemaError(
                f"{query.op}: operand arities differ "
                f"({left.schema().arity} vs {right.schema().arity})"
            )
        if query.op == "UNION ALL":
            return UnionAll(left, right)
        if query.op == "EXCEPT ALL":
            return Monus(left, right)
        if query.op == "EXCEPT":
            return except_expr(left, right)
        if query.op == "INTERSECT ALL":
            return min_expr(left, right)
        if query.op == "INTERSECT":
            return DupElim(min_expr(left, right))
        raise ParseError(f"unknown set operation {query.op!r}")
    raise ParseError(f"unknown query node {type(query).__name__}")


def compile_aggregate_view(name: str, core: SelectCore, catalog: Catalog):
    """Compile an aggregate SELECT core into an
    :class:`~repro.extensions.aggregates.AggregateView`.

    The non-aggregate select items must be exactly the GROUP BY columns
    (listed first); a ``COUNT(*)`` is added implicitly when absent, since
    the incremental maintenance algorithm needs it to track group
    liveness.  The base (pre-grouping) query selects the group columns
    plus every SUM argument.
    """
    from repro.extensions.aggregates import AggregateSpec, AggregateView
    from repro.sqlfront.parser import AggregateItem, SelectItem

    if core.distinct:
        raise SchemaError("DISTINCT cannot be combined with GROUP BY aggregates here")
    if core.items is None:
        raise SchemaError("aggregate queries must list their columns explicitly")
    group_cols = list(core.group_by or ())
    plain_items = [item for item in core.items if isinstance(item, SelectItem)]
    aggregate_items = [item for item in core.items if isinstance(item, AggregateItem)]
    if len(plain_items) + len(aggregate_items) != len(core.items):
        raise SchemaError("unsupported select item in an aggregate query")
    for item in plain_items:
        if not isinstance(item.column, ColumnRef):
            raise SchemaError("non-aggregate select items must be plain GROUP BY columns")
        if item.column not in group_cols:
            raise SchemaError(
                f"column {item.column.display()!r} must appear in GROUP BY"
            )
    if [item.column for item in plain_items] != group_cols:
        raise SchemaError(
            "list the GROUP BY columns first and in GROUP BY order, then the aggregates"
        )

    # Base query: group columns + SUM arguments, duplicates preserved.
    def output_name(column: ColumnRef, alias: str | None = None) -> str:
        return alias if alias is not None else column.name

    base_items: list[SelectItem] = []
    seen: dict[ColumnRef, str] = {}
    for item in plain_items:
        base_items.append(SelectItem(item.column, output_name(item.column, item.alias)))
        seen[item.column] = output_name(item.column, item.alias)
    specs: list[AggregateSpec] = []
    for item in aggregate_items:
        if item.function == "count":
            specs.append(AggregateSpec("count", alias=item.alias))
            continue
        assert item.column is not None
        if item.column not in seen:
            base_items.append(SelectItem(item.column, output_name(item.column)))
            seen[item.column] = output_name(item.column)
        specs.append(AggregateSpec("sum", seen[item.column], alias=item.alias))
    if not any(spec.function == "count" for spec in specs):
        specs.insert(0, AggregateSpec("count"))
    base_core = SelectCore(tuple(base_items), core.from_items, core.where, False)
    base_expr = _compile_core(base_core, catalog)
    base_view = ViewDefinition(f"__base__{name}", base_expr)
    group_names = tuple(seen[column] for column in group_cols)
    return AggregateView(name, base_view, group_names, tuple(specs))


def compile_view(statement: CreateView, catalog: Catalog) -> ViewDefinition:
    """Compile a parsed ``CREATE VIEW`` into a :class:`ViewDefinition`."""
    expr = compile_query(statement.query, catalog)
    if statement.columns is not None:
        if len(statement.columns) != expr.schema().arity:
            raise SchemaError(
                f"view {statement.name!r} declares {len(statement.columns)} columns "
                f"but the query produces {expr.schema().arity}"
            )
        expr = rename(expr, statement.columns)
    return ViewDefinition(statement.name, expr)


def _emit_query(query: Query, catalog: Catalog, sink) -> None:
    sink.query(None, compile_query(query, catalog))


def sql_to_expr(source: str, catalog: Catalog) -> Expr:
    """Parse and compile a SQL query in one step.

    A query whose shape (the text minus its literals) was seen before is
    bound from its prepared form — see :mod:`repro.sqlfront.prepared`.
    """
    prepared = prepare(source, catalog, Parser.only_query, _emit_query)
    if prepared is None:
        return compile_query(parse_query(source), catalog)
    steps, binding = prepared
    template = steps[0][2]
    # A query's parameters are its literals, in order.
    return Parameterized(template, tuple(binding.values())) if binding else template


# ----------------------------------------------------------------------
# DML: INSERT / DELETE statements → transaction deltas
# ----------------------------------------------------------------------


def _reorder_columns(statement: InsertStatement, table_ref: TableRef) -> tuple[int, ...] | None:
    """Positions mapping the statement's column order to the table's.

    Returns ``None`` when the statement has no column list (values are
    taken in table order).
    """
    if statement.columns is None:
        return None
    table_attrs = table_ref.schema().attributes
    if sorted(statement.columns) != sorted(table_attrs):
        raise SchemaError(
            f"INSERT column list {list(statement.columns)} must name every column of "
            f"{statement.table!r} ({list(table_attrs)})"
        )
    by_name = {name: index for index, name in enumerate(statement.columns)}
    return tuple(by_name[attr] for attr in table_attrs)


def compile_insert(statement: InsertStatement, catalog: Catalog, txn: UserTransaction) -> None:
    """Add an ``INSERT`` statement's effect to a transaction."""
    table_ref = catalog.ref(statement.table)
    order = _reorder_columns(statement, table_ref)
    if statement.rows is not None:
        arity = table_ref.schema().arity
        rows = []
        for row in statement.rows:
            if len(row) != arity:
                raise SchemaError(
                    f"INSERT row has {len(row)} values, table {statement.table!r} has {arity} columns"
                )
            rows.append(tuple(row[position] for position in order) if order is not None else row)
        txn.insert(statement.table, rows)
        return
    source = compile_query(statement.query, catalog)
    if source.schema().arity != table_ref.schema().arity:
        raise SchemaError(
            f"INSERT SELECT produces {source.schema().arity} columns, table "
            f"{statement.table!r} has {table_ref.schema().arity}"
        )
    if order is not None:
        source = Project(order, source, table_ref.schema().attributes)
    else:
        source = rename(source, table_ref.schema().attributes)
    txn.insert_query(statement.table, source)


def compile_delete(statement: DeleteStatement, catalog: Catalog, txn: UserTransaction) -> None:
    """Add a ``DELETE`` statement's effect to a transaction."""
    table_ref = catalog.ref(statement.table)
    if statement.where is None:
        txn.delete_query(statement.table, table_ref)
        return
    resolver = _Resolver({statement.table: table_ref.schema().attributes})
    predicate = _compile_condition(statement.where, resolver)
    qualified = rename(table_ref, tuple(f"{statement.table}.{a}" for a in table_ref.schema().attributes))
    selected = Select(predicate, qualified)
    txn.delete_query(statement.table, rename(selected, table_ref.schema().attributes))


def compile_update(statement: UpdateStatement, catalog: Catalog, txn: UserTransaction) -> None:
    """Add an ``UPDATE`` statement's effect to a transaction.

    Compiled as delete-the-victims plus insert-the-rewritten-victims,
    both reading the pre-transaction state — the paper's simple
    transaction form of an update.
    """
    table_ref = catalog.ref(statement.table)
    attrs = table_ref.schema().attributes
    resolver = _Resolver({statement.table: attrs})
    qualified = rename(table_ref, tuple(f"{statement.table}.{a}" for a in attrs))
    if statement.where is not None:
        victims: Expr = Select(_compile_condition(statement.where, resolver), qualified)
    else:
        victims = qualified
    set_terms: dict[str, Term] = {}
    for column, expression in statement.assignments:
        if column not in attrs:
            raise SchemaError(f"table {statement.table!r} has no column {column!r}")
        if column in set_terms:
            raise SchemaError(f"column {column!r} assigned twice in UPDATE")
        set_terms[column] = _compile_operand(expression, resolver)
    terms = tuple(
        set_terms.get(attr_name, Attr(f"{statement.table}.{attr_name}")) for attr_name in attrs
    )
    victims_plain = rename(victims, attrs)
    txn.delete_query(statement.table, victims_plain)
    txn.insert_query(statement.table, MapProject(terms, victims, attrs))


def _emit_script(statements: list[Statement], catalog: Catalog, txn) -> None:
    for statement in statements:
        if isinstance(statement, InsertStatement):
            compile_insert(statement, catalog, txn)
        elif isinstance(statement, DeleteStatement):
            compile_delete(statement, catalog, txn)
        elif isinstance(statement, UpdateStatement):
            compile_update(statement, catalog, txn)
        else:
            raise ParseError(
                f"only INSERT/DELETE/UPDATE allowed in a DML script, found {type(statement).__name__}"
            )


def script_to_transaction(source: str, catalog: Catalog, txn: UserTransaction) -> UserTransaction:
    """Compile a ``;``-separated DML script into one transaction.

    All statements execute with the paper's simultaneous semantics:
    every delta is evaluated against the pre-transaction state.
    Queries and ``CREATE VIEW`` are rejected here.

    A script whose shape (the text minus its literals, any ``VALUES``
    row count) was seen before is bound from its prepared form — see
    :mod:`repro.sqlfront.prepared`: its statements are the shape's
    templates and its literals the transaction's ``binding``.
    """
    prepared = prepare(source, catalog, Parser.script, _emit_script)
    if prepared is None:
        _emit_script(parse_script(source), catalog, txn)
        return txn
    steps, binding = prepared
    if txn.binding is not None:
        # The transaction holds another script's values under these
        # names already: this one's go into its expressions.
        steps = [(method, table, bind_params(template, binding)) for method, table, template in steps]
        binding = {}
    for method, table, template in steps:
        getattr(txn, method)(table, template)
    return txn.bind(binding)


def sql_to_view(source: str, catalog: Catalog, *, name: str | None = None) -> ViewDefinition:
    """Parse and compile a view definition.

    Accepts either ``CREATE VIEW ... AS SELECT ...`` (name taken from
    the statement) or a bare query with an explicit ``name=``.
    """
    statement = parse_statement(source)
    if isinstance(statement, CreateView):
        view = compile_view(statement, catalog)
        if name is not None and name != view.name:
            view = ViewDefinition(name, view.query)
        return view
    if isinstance(statement, (InsertStatement, DeleteStatement, UpdateStatement)):
        raise ParseError("a view definition must be a query, not a DML statement")
    if name is None:
        raise ParseError("a bare query needs an explicit view name")
    return ViewDefinition(name, compile_query(statement, catalog))
