"""A prepared read, bound per call ≡ its text compiled with the literals in — every engine.

``sql_to_expr`` returns one template per query shape, its literals open
as parameters, with this text's values beside it; the plan table then
holds one plan per shape and every read binds its values.  The oracle is
what that replaced: ``compile_query(parse_query(text))`` — the literals
baked in as constants — evaluated by the interpreted evaluator.

Reads run on every engine in ``repro.exec.MODES`` and through a pinned
snapshot handle, over random tables with writes in between (so node
memos are stamped by table versions *and* parameter values).  Literals
cover negatives, quoted strings (one with an escaped quote), ``NULL``
(an ``attr = NULL`` read is empty) and ``1`` / ``1.0`` / ``TRUE`` back
to back: the three compare equal in Python but project differently, so
a memo stamp that conflated them would hand one read another's rows —
on the in-memory engines the result's value *types* must match too.

Seeds: ``tests/property/gen.py``'s matrix (``REPRO_TEST_SEED`` overrides).
"""

from __future__ import annotations

import random

import pytest
from tests.property.gen import _seeds

from repro.algebra.evaluation import evaluate
from repro.algebra.expr import Parameterized, empty, singleton
from repro.exec import MODES, SQLITE
from repro.serve.snapshots import SnapshotRegistry
from repro.sqlfront import prepared
from repro.sqlfront.compiler import compile_query, sql_to_expr
from repro.sqlfront.parser import parse_query
from repro.storage.database import Database

READS_PER_SEED = 60

INTS = ("-2", "0", "1", "1.0", "TRUE", "3", "NULL")
STRINGS = ("'x'", "'y'", "'it''s'", "'1'", "NULL")
NUMBERS = ("1", "1.0", "-1.5", "2", "TRUE")

#: Query shapes; ``{i}`` / ``{s}`` / ``{n}`` take a literal from the lists above.
SHAPES = (
    "SELECT b, c FROM t WHERE a = {i}",
    "SELECT a FROM t WHERE b = {s}",
    "SELECT a, c + {n} AS d FROM t WHERE a >= {i} AND b != {s}",
    "SELECT a, {n} AS k FROM t WHERE a = {i}",
    "SELECT t.a, u.b FROM t, u WHERE t.a = u.a AND u.c < {n}",
    "SELECT a FROM t WHERE a = {i} UNION ALL SELECT a FROM u WHERE b = {s}",
    "SELECT DISTINCT b FROM t WHERE c * {n} > {i} OR NOT (a = {i})",
    "SELECT a FROM t WHERE a = {i} AND b = {s}",
)


def row(rng: random.Random) -> tuple:
    return (
        rng.randint(-2, 3),
        rng.choice(("x", "y", "it's", "1", None)),
        rng.choice((0, 1, 2.5, -1, 4, None)),
    )


def fill(rng: random.Random, shape: str, numbers: tuple[str, ...] | None = None) -> str:
    return shape.format(
        i=rng.choice(INTS), s=rng.choice(STRINGS), n=rng.choice(numbers or NUMBERS)
    )


def typed(bag) -> list:
    """The bag's rows with each value's type, in a stable order."""
    return sorted(
        (tuple((type(value).__name__, repr(value)) for value in row), count) for row, count in bag.items()
    )


def texts(rng: random.Random) -> list[str]:
    """A read stream: random shapes and literals, with ``1`` / ``1.0`` /
    ``TRUE`` triples back to back on the projecting shapes."""
    out: list[str] = []
    while len(out) < READS_PER_SEED:
        shape = rng.choice(SHAPES)
        if "{n}" in shape and rng.random() < 0.3:
            literals = rng.choice(INTS[:4]), rng.choice(STRINGS)
            out += [shape.format(i=literals[0], s=literals[1], n=n) for n in ("1", "1.0", "TRUE")]
        else:
            out.append(fill(rng, shape))
    return out


@pytest.mark.parametrize("engine", (*MODES, "pinned"))
@pytest.mark.parametrize("seed", _seeds())
def test_a_bound_read_equals_its_text_compiled_with_the_literals_in(seed, engine):
    rng = random.Random(seed)
    db = Database(exec_mode=SQLITE if engine == "pinned" else engine)
    db.create_table("t", ("a", "b", "c"), rows=[row(rng) for _ in range(30)])
    db.create_table("u", ("a", "b", "c"), rows=[row(rng) for _ in range(12)])
    registry = SnapshotRegistry()
    prepared.SHAPES.clear()
    for number, text in enumerate(texts(rng)):
        if number % 7 == 6:  # a write between reads moves the table versions
            table = rng.choice(("t", "u"))
            schema = db.schema_of(table)
            db.apply(patches={table: (empty(schema), singleton(row(rng), schema))})
        expected = evaluate(compile_query(parse_query(text), db), db.state)
        bound = sql_to_expr(text, db)
        if engine == "pinned":
            with registry.pin(db) as handle:
                got = handle.evaluate(bound)
        else:
            got = db.evaluate(bound)
        assert got == expected, text
        if engine != SQLITE:  # SQLite stores TRUE as 1: equal values, other types
            assert typed(got) == typed(expected), text
        if " = NULL" in text and " OR " not in text and "UNION" not in text:
            assert not got, text


@pytest.mark.parametrize("seed", _seeds())
def test_texts_that_differ_only_in_literals_share_one_template(seed):
    # NULL / TRUE are keywords, not lifted literals (another shape): left out here.
    rng = random.Random(seed)
    db = Database()
    db.create_table("t", ("a", "b", "c"))
    db.create_table("u", ("a", "b", "c"))
    prepared.SHAPES.clear()
    for shape in SHAPES:
        bound = [
            sql_to_expr(shape.format(i=rng.choice(INTS[:4]), s=rng.choice(STRINGS[:4]), n=rng.choice(NUMBERS[:4])), db)
            for _ in range(5)
        ]
        assert all(isinstance(expr, Parameterized) for expr in bound), shape
        assert len({id(expr.query) for expr in bound}) == 1, shape
