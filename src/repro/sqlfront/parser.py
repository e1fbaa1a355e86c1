"""Recursive-descent parser producing a small SQL parse tree.

The parse tree (``Select*`` dataclasses below) is deliberately separate
from the bag-algebra AST: the compiler in
:mod:`repro.sqlfront.compiler` resolves names against a catalog and
emits :class:`~repro.algebra.expr.Expr` trees.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Union

from repro.errors import ParseError
from repro.sqlfront.lexer import Token, literal_value, tokenize

__all__ = [
    "ColumnRef",
    "InsertStatement",
    "DeleteStatement",
    "UpdateStatement",
    "BinaryOp",
    "Statement",
    "parse_script",
    "LiteralValue",
    "ComparisonCond",
    "AndCond",
    "OrCond",
    "NotCond",
    "SelectItem",
    "AggregateItem",
    "FromItem",
    "SelectCore",
    "SetOp",
    "CreateView",
    "CreateTable",
    "Parser",
    "MAX_NESTING",
    "parse_statement",
    "parse_query",
]

#: How deep parentheses, ``NOT`` and unary minus may nest, and how deep
#: an arithmetic tree may be.  The parser recurses on the first three and
#: everything downstream (hashing, compiling, evaluating a row) on the
#: last, so an unbounded text would end in the interpreter's
#: ``RecursionError``; beyond this it is a :class:`ParseError`.
MAX_NESTING = 100


# ----------------------------------------------------------------------
# Parse-tree nodes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """``[qualifier.]name`` in a select list or predicate.

    ``position`` is the character offset of the reference in the source
    text; it is excluded from equality/hashing so column identity stays
    purely name-based.
    """

    name: str
    qualifier: str | None = None
    position: int | None = field(default=None, compare=False)

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class LiteralValue:
    """A literal constant in a predicate."""

    value: Any


@dataclass(frozen=True)
class BinaryOp:
    """Arithmetic over operands: ``left op right`` with op in ``+ - * /``.

    ``depth`` is the height of the tree (1 over two plain operands).
    A chain is left-deep and stays so — ``+`` over floats is not
    associative, so it is never rebalanced — which is why its height,
    not just the parser's recursion, is bounded (:data:`MAX_NESTING`).
    """

    op: str
    left: "Operand"
    right: "Operand"
    depth: int = field(default=1, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        below = max(getattr(self.left, "depth", 0), getattr(self.right, "depth", 0))
        object.__setattr__(self, "depth", below + 1)


Operand = Union[ColumnRef, LiteralValue, BinaryOp]


@dataclass(frozen=True)
class ComparisonCond:
    op: str
    left: Operand
    right: Operand


@dataclass(frozen=True)
class AndCond:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class OrCond:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class NotCond:
    operand: "Condition"


Condition = Union[ComparisonCond, AndCond, OrCond, NotCond]


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: a column or expression, with optional alias."""

    column: "Operand"
    alias: str | None = None


@dataclass(frozen=True)
class AggregateItem:
    """An aggregate select-list entry: ``COUNT(*)`` or ``SUM(column)``."""

    function: str  # "count" | "sum"
    column: ColumnRef | None
    alias: str | None = None


@dataclass(frozen=True)
class FromItem:
    """One FROM entry: a table with an optional range variable."""

    table: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias if self.alias else self.table


@dataclass(frozen=True)
class SelectCore:
    """One SELECT ... FROM ... [WHERE ...] [GROUP BY ...] block."""

    items: tuple["SelectItem | AggregateItem", ...] | None  # None means SELECT *
    from_items: tuple[FromItem, ...]
    where: Condition | None
    distinct: bool
    group_by: tuple[ColumnRef, ...] | None = None

    def is_aggregate(self) -> bool:
        """Whether this core uses GROUP BY or aggregate functions."""
        if self.group_by is not None:
            return True
        return any(isinstance(item, AggregateItem) for item in self.items or ())


@dataclass(frozen=True)
class SetOp:
    """``left <op> right`` where op ∈ {UNION ALL, EXCEPT, EXCEPT ALL,
    INTERSECT, INTERSECT ALL}."""

    op: str
    left: "Query"
    right: "Query"


Query = Union[SelectCore, SetOp]


@dataclass(frozen=True)
class CreateView:
    """``CREATE VIEW name [(columns)] AS query``."""

    name: str
    columns: tuple[str, ...] | None
    query: Query


@dataclass(frozen=True)
class CreateTable:
    """``CREATE TABLE name (col, col, …)`` — untyped columns."""

    name: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table [(columns)] VALUES (...), ...`` or
    ``INSERT INTO table [(columns)] SELECT ...``."""

    table: str
    columns: tuple[str, ...] | None
    #: Literal rows (``VALUES`` form) …
    rows: tuple[tuple[Any, ...], ...] | None
    #: … or a source query (``INSERT … SELECT`` form).
    query: Query | None


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table [WHERE condition]``."""

    table: str
    where: Condition | None


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET col = expr [, …] [WHERE condition]``."""

    table: str
    assignments: tuple[tuple[str, "Operand"], ...]
    where: Condition | None


Statement = Union[Query, CreateView, CreateTable, InsertStatement, DeleteStatement, UpdateStatement]


def _balanced(node: type, terms: list[Condition]) -> Condition:
    """``t1 op t2 op … op tn`` as a tree of depth ⌈log2 n⌉.

    AND and OR are associative and the leaves stay in source order, so
    short-circuiting sees the same terms in the same order as a
    left-deep chain would — but a 5 000-term chain no longer nests 5 000
    deep in everything that walks the tree.  Up to three terms this *is*
    the left-deep chain.
    """
    if len(terms) == 1:
        return terms[0]
    middle = (len(terms) + 1) // 2
    return node(_balanced(node, terms[:middle]), _balanced(node, terms[middle:]))


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


class Parser:
    """One pass over a token list; ``script``/``statement``/``only_query`` are the entry points."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._last: Token | None = None
        self._depth = 0

    # Token helpers -----------------------------------------------------

    @property
    def last_position(self) -> int:
        """Position of the most recently consumed token (0 before any)."""
        return self._last.position if self._last is not None else 0

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
            self._last = token
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            actual = self._peek()
            expected = text if text is not None else kind
            raise ParseError(f"expected {expected}, found {actual.text or actual.kind!r}", actual.position)
        return token

    @contextmanager
    def _nested(self) -> Iterator[None]:
        """One level of a production that recurses on its own input."""
        self._depth += 1
        try:
            if self._depth > MAX_NESTING:
                raise ParseError(f"nested deeper than {MAX_NESTING} levels", self._peek().position)
            yield
        finally:
            self._depth -= 1

    # Grammar -----------------------------------------------------------

    def statement(self) -> Statement:
        result = self.single_statement()
        self._accept("PUNCT", ";")
        self._expect("EOF")
        return result

    def only_query(self) -> Query:
        """One full statement that must be a query (DDL/DML rejected)."""
        result = self.statement()
        if not isinstance(result, (SelectCore, SetOp)):
            raise ParseError(f"expected a query, found {type(result).__name__}", self.last_position)
        return result

    def script(self) -> list[Statement]:
        """A ``;``-separated sequence of statements."""
        statements = [self.single_statement()]
        while self._accept("PUNCT", ";"):
            if self._check("EOF"):
                break
            statements.append(self.single_statement())
        self._expect("EOF")
        return statements

    def single_statement(self) -> Statement:
        if self._check("KEYWORD", "CREATE"):
            if self._tokens[self._index + 1].text == "TABLE":
                return self.create_table()
            return self.create_view()
        if self._check("KEYWORD", "INSERT"):
            return self.insert_statement()
        if self._check("KEYWORD", "DELETE"):
            return self.delete_statement()
        if self._check("KEYWORD", "UPDATE"):
            return self.update_statement()
        return self.query()

    def insert_statement(self) -> InsertStatement:
        self._expect("KEYWORD", "INSERT")
        self._expect("KEYWORD", "INTO")
        table = self._expect("NAME").text
        columns: tuple[str, ...] | None = None
        if self._accept("PUNCT", "("):
            names = [self._expect("NAME").text]
            while self._accept("PUNCT", ","):
                names.append(self._expect("NAME").text)
            self._expect("PUNCT", ")")
            columns = tuple(names)
        if self._accept("KEYWORD", "VALUES"):
            rows = [self.value_row()]
            while self._accept("PUNCT", ","):
                rows.append(self.value_row())
            return InsertStatement(table, columns, tuple(rows), None)
        return InsertStatement(table, columns, None, self.query())

    def value_row(self) -> tuple[Any, ...]:
        self._expect("PUNCT", "(")
        values = [self.row_value()]
        while self._accept("PUNCT", ","):
            values.append(self.row_value())
        self._expect("PUNCT", ")")
        return tuple(values)

    def row_value(self) -> Any:
        operand = self.operand()
        if not isinstance(operand, LiteralValue):
            raise ParseError("VALUES rows must contain literals only", self._peek().position)
        return operand.value

    def update_statement(self) -> UpdateStatement:
        self._expect("KEYWORD", "UPDATE")
        table = self._expect("NAME").text
        self._expect("KEYWORD", "SET")
        assignments = [self.set_clause()]
        while self._accept("PUNCT", ","):
            assignments.append(self.set_clause())
        where: Condition | None = None
        if self._accept("KEYWORD", "WHERE"):
            where = self.condition()
        return UpdateStatement(table, tuple(assignments), where)

    def set_clause(self) -> tuple[str, Operand]:
        column = self._expect("NAME").text
        self._expect("OP", "=")
        return column, self.expression()

    def delete_statement(self) -> DeleteStatement:
        self._expect("KEYWORD", "DELETE")
        self._expect("KEYWORD", "FROM")
        table = self._expect("NAME").text
        where: Condition | None = None
        if self._accept("KEYWORD", "WHERE"):
            where = self.condition()
        return DeleteStatement(table, where)

    def create_table(self) -> CreateTable:
        self._expect("KEYWORD", "CREATE")
        self._expect("KEYWORD", "TABLE")
        name = self._expect("NAME").text
        self._expect("PUNCT", "(")
        columns = [self._expect("NAME").text]
        while self._accept("PUNCT", ","):
            columns.append(self._expect("NAME").text)
        self._expect("PUNCT", ")")
        return CreateTable(name, tuple(columns))

    def create_view(self) -> CreateView:
        self._expect("KEYWORD", "CREATE")
        self._expect("KEYWORD", "VIEW")
        name = self._expect("NAME").text
        columns: tuple[str, ...] | None = None
        if self._accept("PUNCT", "("):
            names = [self._expect("NAME").text]
            while self._accept("PUNCT", ","):
                names.append(self._expect("NAME").text)
            self._expect("PUNCT", ")")
            columns = tuple(names)
        self._expect("KEYWORD", "AS")
        return CreateView(name, columns, self.query())

    def query(self) -> Query:
        left = self.select_core()
        while True:
            if self._accept("KEYWORD", "UNION"):
                self._expect("KEYWORD", "ALL")
                left = SetOp("UNION ALL", left, self.select_core())
            elif self._accept("KEYWORD", "EXCEPT"):
                op = "EXCEPT ALL" if self._accept("KEYWORD", "ALL") else "EXCEPT"
                left = SetOp(op, left, self.select_core())
            elif self._accept("KEYWORD", "INTERSECT"):
                op = "INTERSECT ALL" if self._accept("KEYWORD", "ALL") else "INTERSECT"
                left = SetOp(op, left, self.select_core())
            else:
                return left

    def select_core(self) -> SelectCore:
        if self._accept("PUNCT", "("):
            # Parenthesized query: restart at the set-operation level.
            with self._nested():
                inner = self.query()
            self._expect("PUNCT", ")")
            if isinstance(inner, SetOp):
                raise ParseError("nested set operations must appear at the top level", self._peek().position)
            return inner
        self._expect("KEYWORD", "SELECT")
        distinct = bool(self._accept("KEYWORD", "DISTINCT"))
        if not distinct:
            self._accept("KEYWORD", "ALL")
        items: tuple[SelectItem, ...] | None
        if self._accept("PUNCT", "*"):
            items = None
        else:
            entries = [self.select_item()]
            while self._accept("PUNCT", ","):
                entries.append(self.select_item())
            items = tuple(entries)
        self._expect("KEYWORD", "FROM")
        from_items = [self.from_item()]
        while self._accept("PUNCT", ","):
            from_items.append(self.from_item())
        where: Condition | None = None
        if self._accept("KEYWORD", "WHERE"):
            where = self.condition()
        group_by: tuple[ColumnRef, ...] | None = None
        if self._accept("KEYWORD", "GROUP"):
            self._expect("KEYWORD", "BY")
            group_cols = [self.column_ref()]
            while self._accept("PUNCT", ","):
                group_cols.append(self.column_ref())
            group_by = tuple(group_cols)
        return SelectCore(items, tuple(from_items), where, distinct, group_by)

    def select_item(self) -> "SelectItem | AggregateItem":
        if (
            self._check("NAME")
            and self._peek().text.upper() in ("COUNT", "SUM")
            and self._tokens[self._index + 1].kind == "PUNCT"
            and self._tokens[self._index + 1].text == "("
        ):
            return self.aggregate_item()
        expression = self.expression()
        alias: str | None = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("NAME").text
        elif self._check("NAME"):
            alias = self._advance().text
        if alias is None and not isinstance(expression, ColumnRef):
            raise ParseError(
                "a computed select item needs an alias (… AS name)", self._peek().position
            )
        return SelectItem(expression, alias)

    def aggregate_item(self) -> AggregateItem:
        function = self._expect("NAME").text.lower()
        self._expect("PUNCT", "(")
        column: ColumnRef | None = None
        if function == "count":
            self._expect("PUNCT", "*")
        else:
            column = self.column_ref()
        self._expect("PUNCT", ")")
        alias: str | None = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("NAME").text
        elif self._check("NAME"):
            alias = self._advance().text
        return AggregateItem(function, column, alias)

    def from_item(self) -> FromItem:
        name = self._expect("NAME").text
        alias: str | None = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("NAME").text
        elif self._check("NAME"):
            alias = self._advance().text
        return FromItem(name, alias)

    def column_ref(self) -> ColumnRef:
        token = self._expect("NAME")
        if self._accept("PUNCT", "."):
            second = self._expect("NAME").text
            return ColumnRef(second, qualifier=token.text, position=token.position)
        return ColumnRef(token.text, position=token.position)

    # Conditions ---------------------------------------------------------

    def condition(self) -> Condition:
        terms = [self.and_condition()]
        while self._accept("KEYWORD", "OR"):
            terms.append(self.and_condition())
        return _balanced(OrCond, terms)

    def and_condition(self) -> Condition:
        terms = [self.not_condition()]
        while self._accept("KEYWORD", "AND"):
            terms.append(self.not_condition())
        return _balanced(AndCond, terms)

    def not_condition(self) -> Condition:
        if self._accept("KEYWORD", "NOT"):
            with self._nested():
                return NotCond(self.not_condition())
        if self._check("PUNCT", "("):
            # "(" may open a nested condition or a parenthesized
            # arithmetic term: try the condition reading, backtrack to a
            # comparison on failure.
            mark = self._index
            try:
                self._advance()
                with self._nested():
                    inner = self.condition()
                self._expect("PUNCT", ")")
                return inner
            except ParseError:
                self._index = mark
        return self.comparison()

    COMPARISON_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

    def comparison(self) -> ComparisonCond:
        left = self.expression()
        op_token = self._expect("OP")
        if op_token.text not in self.COMPARISON_OPS:
            raise ParseError(f"expected a comparison operator, found {op_token.text!r}", op_token.position)
        right = self.expression()
        return ComparisonCond(op_token.text, left, right)

    # Arithmetic expression grammar -----------------------------------

    def _arith(self, op: str, left: Operand, right: Operand) -> BinaryOp:
        node = BinaryOp(op, left, right)
        if node.depth > MAX_NESTING:
            raise ParseError(
                f"arithmetic nested deeper than {MAX_NESTING} levels", self.last_position
            )
        return node

    def expression(self) -> Operand:
        left = self.term_mul()
        while True:
            if self._accept("OP", "+"):
                left = self._arith("+", left, self.term_mul())
            elif self._accept("OP", "-"):
                left = self._arith("-", left, self.term_mul())
            elif self._check("NUMBER") and self._peek().text.startswith("-"):
                # "a -1" lexes the minus into the number; read it as a
                # subtraction of the absolute value.
                left = self._arith("-", left, LiteralValue(literal_value(self._advance().text[1:])))
            else:
                return left

    def term_mul(self) -> Operand:
        left = self.unary()
        while True:
            if self._accept("PUNCT", "*"):
                left = self._arith("*", left, self.unary())
            elif self._accept("OP", "/"):
                left = self._arith("/", left, self.unary())
            else:
                return left

    def unary(self) -> Operand:
        if self._accept("OP", "-"):
            with self._nested():
                return self._arith("-", LiteralValue(0), self.unary())
        if self._accept("PUNCT", "("):
            with self._nested():
                inner = self.expression()
            self._expect("PUNCT", ")")
            return inner
        return self.operand()

    def operand(self) -> Operand:
        token = self._peek()
        if token.kind == "NAME":
            return self.column_ref()
        if token.kind in ("NUMBER", "STRING"):
            self._advance()
            return LiteralValue(token.value)
        if token.kind == "KEYWORD" and token.text in {"NULL", "TRUE", "FALSE"}:
            self._advance()
            return LiteralValue({"NULL": None, "TRUE": True, "FALSE": False}[token.text])
        raise ParseError(f"expected an operand, found {token.text or token.kind!r}", token.position)


def parse_statement(source: str) -> Statement:
    """Parse one full statement (query, CREATE VIEW, INSERT, or DELETE)."""
    return Parser(tokenize(source)).statement()


def parse_script(source: str) -> list[Statement]:
    """Parse a ``;``-separated script of statements."""
    return Parser(tokenize(source)).script()


def parse_query(source: str) -> Query:
    """Parse a query; reject DDL/DML statements."""
    return Parser(tokenize(source)).only_query()
