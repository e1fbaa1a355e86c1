"""Differential test: the prepared path equals the uncached parser + compiler.

``script_to_transaction`` / ``sql_to_expr`` bind a text whose shape was
seen before from a cached, already-compiled form
(:mod:`repro.sqlfront.prepared`).  For every generated text the cached
entry point must give what ``parse_*`` + ``compile_*`` give on the same
text: an equal ``Expr``, equal ``UserTransaction`` deltas (rows
included), or the same error — type, message and position.

A case is a short *family* of texts run against one cold cache: a text,
the same text with other numbers (a hit that must bind other literals),
for an ``INSERT`` the same statement with another row count, and the
first text again.  Families come from three generators: well-formed
statements of every kind the front end compiles (keywords in any case,
odd spacing, every literal spelling), the exact strings the pipeline
benchmark's traffic consists of, and a soup of fragments chosen to sit
on the edges of the lifting pattern (``a -1``, ``1.2.3``, ``x1``,
``''''``, an unterminated quote, a raw placeholder …), most of which do
not parse and must fail the same way twice.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from tests.property.gen import _seeds

from repro import obs
from repro.algebra.expr import bind_params
from repro.core.transactions import UserTransaction
from repro.errors import ParseError, ReproError
from repro.sqlfront import prepared
from repro.sqlfront.compiler import (
    compile_delete,
    compile_insert,
    compile_query,
    compile_update,
    script_to_transaction,
    sql_to_expr,
)
from repro.sqlfront.lexer import KEYWORDS
from repro.sqlfront.parser import (
    DeleteStatement,
    InsertStatement,
    UpdateStatement,
    parse_query,
    parse_script,
)
from repro.storage.database import Database

TABLES = {
    "sales": ("custId", "itemNo", "quantity", "salesPrice"),
    "customer": ("custId", "name", "address", "score"),
    "t": ("a", "b"),
    "t1": ("c1", "c2"),
    "x1": ("x1",),
}

COMPILERS = {
    InsertStatement: compile_insert,
    DeleteStatement: compile_delete,
    UpdateStatement: compile_update,
}


def make_db() -> Database:
    db = Database()
    for name, columns in TABLES.items():
        db.create_table(name, columns)
    db.create_table("__mv__V", ("custId", "itemNo", "quantity"), internal=True)
    return db


# ----------------------------------------------------------------------
# The two sides
# ----------------------------------------------------------------------


def outcome(run):
    """``("ok", value)`` or ``("error", type, message, position)``.

    Only the front end's own errors are an outcome: anything else that
    escapes (``ValueError``, ``RecursionError``) fails the test.
    """
    try:
        return ("ok", run())
    except ReproError as error:
        return ("error", type(error).__name__, str(error), getattr(error, "position", None))


def uncached_script(text: str, db: Database):
    txn = UserTransaction(db)
    for statement in parse_script(text):
        compiler = COMPILERS.get(type(statement))
        if compiler is None:
            raise ParseError(
                f"only INSERT/DELETE/UPDATE allowed in a DML script, found {type(statement).__name__}"
            )
        compiler(statement, db, txn)
    return txn.patches()


def cached_script(text: str, db: Database):
    """The prepared path's patches, its binding written back into them."""
    txn = script_to_transaction(text, db, UserTransaction(db))
    return {
        table: tuple(bind_params(expr, txn.binding) for expr in pair) for table, pair in txn.patches().items()
    }


def check_family(texts: list[str]) -> dict[str, int]:
    """Both entry points against their uncached twins, over one cold cache.

    Returns the ``sql_statements`` outcome counts of the family.
    """
    db = make_db()
    prepared.SHAPES.clear()
    with obs.observed(tracer=False, accounting=False) as stack:
        for text in texts:
            assert outcome(lambda: cached_script(text, db)) == outcome(lambda: uncached_script(text, db)), text
            assert outcome(lambda: bind_params(sql_to_expr(text, db))) == outcome(
                lambda: compile_query(parse_query(text), db)
            ), text
    assert len(prepared.SHAPES) <= prepared.MAX_SHAPES
    counts: dict[str, int] = {}
    for name, metric in stack.metrics.snapshot().items():
        if name.startswith("sql_statements{"):
            kind = name.partition('outcome="')[2].partition('"')[0]
            counts[kind] = counts.get(kind, 0) + int(metric["value"])
    return counts


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

_STANDALONE_INT = re.compile(r"(?<![\w.'\"])\d+(?![\w.])")


def other_numbers(text: str) -> str:
    """The same text with every standalone integer moved (same shape, other literals)."""
    return _STANDALONE_INT.sub(lambda match: str(int(match.group()) + 7), text)


def recase(text: str, how) -> str:
    return re.sub(
        r"[A-Za-z_]\w*", lambda m: how(m.group()) if m.group().upper() in KEYWORDS else m.group(), text
    )


casings = st.sampled_from([str.upper, str.lower, str.title, lambda word: word])

numbers = st.one_of(
    st.integers(0, 120).map(str),
    st.integers(-9, -1).map(str),
    st.sampled_from(["0", "007", "1.5", "0.25", "-2.75", "100.0", "37.10", "-0", "-0.0"]),
)
strings = st.sampled_from(
    [
        "'High'",
        "'Low'",
        "''",
        "''''",
        "'o''hare'",
        '"it\'s 5"',
        "'say \"hi\" 2 times'",
        '""',
        "'a; b'",
        "'x -1'",
        "'VALUES (1), (2)'",
        "'1.2.3'",
        "'\x00'",
        "'?'",
        "'²'",
    ]
)
literals = st.one_of(numbers, strings)
keywords = st.sampled_from(["NULL", "TRUE", "FALSE", "null"])
rarely = st.integers(0, 11).map(lambda n: n == 11)


@st.composite
def inserts(draw) -> list[str]:
    """``INSERT … VALUES`` of 1-40 rows, and the same statement with another row count."""
    table = draw(st.sampled_from(sorted(TABLES)))
    columns = TABLES[table]
    head = f"INSERT INTO {table}"
    if draw(st.booleans()):
        listed = draw(st.permutations(columns))
        if draw(rarely):
            listed = listed[:-1] + ["nosuch"]  # a column list that must keep failing
        head += " (" + ", ".join(listed) + ")"
    width = len(columns) + draw(rarely)  # now and then one cell too many
    # Per column: numbers, any literal, a keyword every row repeats, or —
    # rarely — anything, where a NULL in some rows makes the rows read unalike.
    kinds = [
        "any" if draw(rarely) else draw(st.sampled_from(["number", "number", "literal", "literal", "NULL", "TRUE"]))
        for _ in range(width)
    ]
    draws = {"number": numbers, "literal": literals, "any": st.one_of(literals, keywords)}
    gaps = st.sampled_from([", ", ",", " , "])
    gap = None if draw(rarely) else draw(gaps)  # None: ragged spacing, row by row

    def row() -> str:
        drawn = [draw(draws[kind]) if kind in draws else kind for kind in kinds]
        return "(" + (gap or draw(gaps)).join(drawn) + ")"

    rows = [row() for _ in range(draw(st.integers(1, 40)))]
    separator = draw(st.sampled_from([", ", ",", ",\n  "]))
    shorter = rows[: draw(st.integers(1, len(rows)))]
    return [f"{head} VALUES {separator.join(chosen)}" for chosen in (rows, shorter)]


@st.composite
def operands(draw, columns) -> str:
    kind = draw(st.integers(0, 9))
    column = draw(st.sampled_from(columns))
    if kind <= 3:
        return draw(st.one_of(numbers, strings))
    if kind <= 5:
        return column
    if kind == 6:
        return f"{column} {draw(st.sampled_from(['+', '-', '*', '/']))} {draw(numbers)}"
    if kind == 7:
        return f"{column} {draw(st.integers(-9, -1))}"  # "a -1": the sign is the operator
    if kind == 8:
        return f"({draw(numbers)})"
    return f"- {draw(numbers)}"


@st.composite
def conditions(draw, columns, depth: int = 2) -> str:
    if depth and draw(st.integers(0, 2)) == 0:
        left = draw(conditions(columns, depth - 1))
        right = draw(conditions(columns, depth - 1))
        shape = draw(st.sampled_from(["{} AND {}", "{} OR {}", "({} OR {})", "NOT {}", "NOT ({} AND {})"]))
        return shape.format(left, right)
    op = draw(st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]))
    return f"{draw(st.sampled_from(columns))} {op} {draw(operands(columns))}"


@st.composite
def dml(draw) -> list[str]:
    """One DELETE / UPDATE / INSERT … SELECT."""
    table = draw(st.sampled_from(sorted(TABLES)))
    columns = TABLES[table]
    where = f" WHERE {draw(conditions(columns))}" if draw(st.integers(0, 4)) else ""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return [f"DELETE FROM {table}{where}"]
    if kind == 1:
        assigned = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2, unique=True))
        sets = ", ".join(f"{column} = {draw(operands(columns))}" for column in assigned)
        return [f"UPDATE {table} SET {sets}{where}"]
    return [f"INSERT INTO {table} SELECT * FROM {table}{where}"]


@st.composite
def queries(draw) -> list[str]:
    """One SELECT or set operation."""
    table = draw(st.sampled_from(sorted(TABLES)))
    columns = TABLES[table]
    where = f" WHERE {draw(conditions(columns))}" if draw(st.integers(0, 4)) else ""
    items = draw(
        st.sampled_from(
            [
                "*",
                ", ".join(columns),
                f"{table}.{columns[0]}",
                f"{columns[0]} AS k, {columns[-1]} + {draw(numbers)} AS v",
                f"r.{columns[-1]}",
            ]
        )
    )
    alias = " r" if items.startswith("r.") else ""
    select = f"SELECT {draw(st.sampled_from(['', 'DISTINCT ']))}{items} FROM {table}{alias}{where}"
    if draw(st.integers(0, 3)) == 0:
        op = draw(st.sampled_from(["UNION ALL", "EXCEPT", "EXCEPT ALL", "INTERSECT", "INTERSECT ALL"]))
        select += f" {op} SELECT {items} FROM {table}{alias} WHERE {columns[0]} = {draw(numbers)}"
    return [select]


@st.composite
def well_formed(draw) -> list[str]:
    """A query, or a script of one to three DML statements.

    With an ``INSERT … VALUES`` in it, also the same script with another
    row count.
    """
    if draw(st.integers(0, 3)) == 0:
        parts = [draw(queries())]
    else:
        parts = [draw(st.one_of(inserts(), inserts(), dml())) for _ in range(draw(st.integers(1, 3)))]
    how = draw(casings)
    joiner = draw(st.sampled_from(["; ", ";", " ;\n"]))
    tail = draw(st.sampled_from(["", ";", " ; "]))
    texts = [joiner.join(part[0] for part in parts) + tail]
    if any(len(part) > 1 for part in parts):
        texts.append(joiner.join(part[-1] for part in parts) + tail)
    return [recase(text, how) for text in texts]


@st.composite
def bench_traffic(draw) -> list[str]:
    """Exactly the strings ``bench/pipeline/inputs.py`` emits, two per kind."""

    def sale() -> str:
        price = draw(st.floats(1.0, 100.0).map(lambda value: round(value, 2)))
        return f"({draw(st.integers(0, 1499))}, {draw(st.integers(0, 49))}, {draw(st.integers(0, 5))}, {price})"

    def script(kind: str) -> str:
        rows = ", ".join(sale() for _ in range(draw(st.sampled_from([10, 25]))))
        text = f"INSERT INTO sales (custId, itemNo, quantity, salesPrice) VALUES {rows}"
        if kind == "delete":
            text += f"; DELETE FROM sales WHERE custId = {draw(st.integers(0, 1499))} AND itemNo = {draw(st.integers(0, 49))}"
        elif kind == "rescore":
            score = draw(st.sampled_from(["High", "Medium", "Low"]))
            text += f"; UPDATE customer SET score = '{score}' WHERE custId = {draw(st.integers(0, 1499))}"
        return text

    read_shape = draw(
        st.sampled_from(
            ["SELECT itemNo, quantity FROM __mv__V WHERE custId = {}", "SELECT * FROM __mv__V WHERE custId = {}"]
        )
    )

    def read() -> str:
        return read_shape.format(draw(st.integers(0, 1499)))

    kind = draw(st.sampled_from(["insert", "delete", "rescore", "read"]))
    return [read(), read(), read()] if kind == "read" else [script(kind), script(kind), script(kind)]


FRAGMENTS = [
    "a", "b", "t", "t1.c2", "x1", "c1", "-1", " - 1", "(-1)", "a -1", "a - 1", "1.2.3", "1.", ".5", "7", "12",
    "''''", "'it'", '"it\'s 5"', "'say \"hi\"'", "'unterminated", '"unterminated', "<>", "!=", "!", "=", "<", "?",
    prepared.PLACEHOLDER, "²", "٣", "1²", "SELECT", "select", "FROM", "from", "WHERE", "AND", "NOT", "VALUES",
    "values", "INSERT INTO t", "DELETE FROM t", "UPDATE t SET a", "NULL", "(", ")", ",", ";", "*", ".", "+", "-",
    "(1, 2)", "(3, 'x')", ", (5, 6)", "SELECT a FROM t WHERE a =", "INSERT INTO t VALUES",
]  # fmt: skip

soups = st.lists(
    st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from([" ", " ", ""])), min_size=1, max_size=10
).map(lambda pieces: ["".join(fragment + gap for fragment, gap in pieces)])


def family(texts: list[str]) -> list[str]:
    """``texts`` (a text and, maybe, its other-row-count twin) grown into a family."""
    return [texts[0], other_numbers(texts[0]), *texts[1:], texts[0]]


# ----------------------------------------------------------------------
# The properties (one run per seed of the property-harness matrix)
# ----------------------------------------------------------------------


def run_under_seeds(strategy, examples: int, body) -> None:
    for seed_value in _seeds():

        @seed(seed_value)
        @settings(max_examples=examples, deadline=None, database=None)
        @given(strategy)
        def prop(texts):
            body(texts)

        prop()


def test_well_formed_statements_bind_to_what_the_uncached_path_compiles():
    run_under_seeds(well_formed().map(family), 120, check_family)


def test_fragment_soup_fails_or_compiles_the_same_way_cached_and_uncached():
    run_under_seeds(soups.map(family), 250, check_family)


def test_benchmark_traffic_is_served_from_the_cache_and_equal():
    def body(texts):
        counts = check_family(texts)
        # Three texts of one kind through two entry points: one entry
        # point prepares them (one miss, two hits), the other rejects
        # them (a query is no script) without ever caching.
        assert counts == {"miss": 1, "hit": 2, "uncacheable": 3}, (counts, texts[0])

    run_under_seeds(bench_traffic(), 40, body)


@pytest.mark.parametrize(
    "texts",
    [
        ["SELECT a -1 AS d FROM t", "SELECT a -2 AS d FROM t", "SELECT a - 1 AS d FROM t", "SELECT (-1) AS d FROM t"],
        ["SELECT a FROM t WHERE a = 1.2.3", "SELECT a FROM t WHERE a = 1.2"],
        ["SELECT t1.c2 FROM t1 WHERE t1.c1 = 2", "SELECT x1 FROM x1 WHERE x1 = 1", "SELECT x1 FROM x1 WHERE x1 = 2"],
        ["SELECT a FROM t WHERE b = ''''", "SELECT a FROM t WHERE b = \"it's 5\"", "SELECT a FROM t WHERE b = 'it''s 6'"],
        ["SELECT a FROM t WHERE b = 'open", "SELECT a FROM t WHERE b = 'shut'", 'SELECT a FROM t WHERE b = "open'],
        ["SELECT a FROM t WHERE a <> 1", "SELECT a FROM t WHERE a <> 2", "SELECT a FROM t WHERE a != 2"],
        ["SELECT a FROM t WHERE a = ?", "SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = ?"],
        [f"SELECT a FROM t WHERE a = {prepared.PLACEHOLDER}", "SELECT a FROM t WHERE a = 5"],
        ["INSERT INTO t VALUES (?, ?), (1, 2)", "INSERT INTO t VALUES (3, 4), (1, 2)", "INSERT INTO t VALUES (3, 4)"],
        ["INSERT INTO t VALUES (3, 4)", "INSERT INTO t VALUES ({0}, {0}), (1, 2)".format(prepared.PLACEHOLDER)],
        ["insert into t values (1, 2)", "Insert Into t Values (3, 4), (5, 6)", "INSERT INTO t VALUES (7, 8)"],
        ["INSERT INTO t VALUES (1, 2), (3,4)", "INSERT INTO t VALUES (1, 2), (5, 6), (3,4)"],
        ["INSERT INTO t VALUES (1, NULL), (2, 3)", "INSERT INTO t VALUES (1, NULL), (1, NULL), (2, 3)"],
        ["INSERT INTO t VALUES (NULL, NULL)", "INSERT INTO t VALUES (NULL, NULL), (NULL, NULL)"],
        ["INSERT INTO t VALUES (1, 2); INSERT INTO t1 VALUES (3, 4), (5, 6)", "INSERT INTO t VALUES (1, 2), (9, 9); INSERT INTO t1 VALUES (3, 4), (5, 6)"],
        ["INSERT INTO __mv__V VALUES (1, 2, 3)", "INSERT INTO __mv__V VALUES (4, 5, 6)"],
        ["INSERT INTO t VALUES (-1, -2.5)", "INSERT INTO t VALUES (3, 4)", "INSERT INTO t VALUES (- 1, 2)"],
        ["DELETE FROM t WHERE a = " + "9" * 5000, "DELETE FROM t WHERE a = 9"],
        ["DELETE FROM t WHERE a = 9", "DELETE FROM t WHERE a = " + "9" * 5000],
    ],
    ids=lambda texts: texts[0][:40],
)
def test_named_edges(texts):
    check_family([*texts, texts[0]])
