"""Hostile SQL ends in a positioned ``ParseError``, never in an uncoded exception.

Each text here used to escape ``parse_*`` as ``ValueError`` or
``RecursionError``; through ``repro lint`` each must read RVM001 — or,
for a long ``AND`` / ``OR`` chain, which is long but not deep, evaluate.
A long arithmetic chain *is* deep (it is never rebalanced): past
``MAX_NESTING`` operators it is a ``ParseError`` too.
"""

from __future__ import annotations

import pytest

from repro.algebra.bag import Bag
from repro.analysis.lint import lint_sql
from repro.errors import ParseError
from repro.exec import MODES
from repro.sqlfront import prepared
from repro.sqlfront.lexer import tokenize
from repro.sqlfront.parser import MAX_NESTING, parse_query, parse_script, parse_statement
from repro.warehouse.manager import ViewManager

QUERY = "SELECT a FROM t WHERE a = "


def assert_fails_closed(text: str, *, position: int, match: str) -> None:
    for parse in (parse_script, parse_statement):
        with pytest.raises(ParseError, match=match) as info:
            parse(text)
        assert info.value.position == position
    report = lint_sql(text)
    assert [(d.code, d.position) for d in report.diagnostics] == [("RVM001", position)]


class TestDigitsThatAreNotNumbers:
    """``str.isdigit`` admits characters ``int()`` rejects; NUMBER is ASCII digits."""

    @pytest.mark.parametrize(
        "text,position",
        [
            (QUERY + "²", 26),
            (QUERY + "1²", 27),
            ("INSERT INTO t VALUES (²)", 22),
            (QUERY + "٣", 26),  # int("٣") == 3, but it is no longer a NUMBER either
        ],
    )
    def test_unexpected_character_not_value_error(self, text, position):
        assert_fails_closed(text, position=position, match="unexpected character")

    def test_such_a_character_still_continues_a_name(self):
        assert [token.kind for token in tokenize("x² x٣")] == ["NAME", "NAME", "EOF"]


class TestLongIntegers:
    def test_five_thousand_digits(self):
        assert_fails_closed(QUERY + "7" * 5000, position=26, match="too long")

    def test_a_long_float_is_only_imprecise(self):
        assert parse_query(QUERY + "7" * 5000 + ".5").where.right.value == float("inf")

    def test_just_under_the_interpreter_limit_still_parses(self):
        assert parse_query(QUERY + "7" * 4000).where.right.value == int("7" * 4000)


class TestNesting:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT a FROM t WHERE " + "(" * 2000 + "a = 1" + ")" * 2000,
            QUERY + "(" * 2000 + "1" + ")" * 2000,
            "SELECT a FROM t WHERE " + "NOT " * 5000 + "a = 1",
            QUERY + "- " * 5000 + "1",
            "(" * 2000 + "SELECT a FROM t" + ")" * 2000,
        ],
        ids=["paren-condition", "paren-expression", "not", "unary-minus", "paren-query"],
    )
    def test_deep_nesting_is_a_parse_error_not_a_recursion_error(self, text):
        for parse in (parse_script, parse_statement):
            with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}") as info:
                parse(text)
            assert info.value.position is not None
        report = lint_sql(text)
        assert [d.code for d in report.diagnostics] == ["RVM001"]
        assert report.diagnostics[0].position is not None

    def test_the_bound_itself_parses(self):
        depth = MAX_NESTING
        parse_query("SELECT a FROM t WHERE " + "NOT " * depth + "a = 1")
        parse_query("SELECT a FROM t WHERE " + "(" * depth + "a = 1" + ")" * depth)
        parse_query(QUERY + "(" * depth + "1" + ")" * depth)
        with pytest.raises(ParseError):
            parse_query("SELECT a FROM t WHERE " + "NOT " * (depth + 1) + "a = 1")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("terms", [900, 5000])
    def test_a_long_and_chain_is_evaluated_on_every_engine(self, terms, mode):
        # A chain is not nesting: it parses ⌈log2 n⌉ deep, so compiling,
        # hashing the plan and pushing it into SQLite all stay shallow.
        manager = ViewManager(exec_mode=mode)
        manager.create_table("t", ("a",), rows=[(-1,), (0,), (1,), (899,)])
        conjunction = " AND ".join(f"a != {value}" for value in range(1, terms + 1))
        assert manager.sql(f"SELECT a FROM t WHERE {conjunction}") == Bag([(-1,), (0,)])

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    @pytest.mark.parametrize("terms", [900, 5000])
    def test_a_long_arithmetic_chain_is_a_parse_error_cached_and_uncached(self, terms, op):
        # Arithmetic is left-deep and stays so (float + is not
        # associative): past the bound it is refused, not rebalanced.
        manager = ViewManager()
        manager.create_table("t", ("a",), rows=[(1,)])
        chain = f" {op} ".join(["1"] * terms)
        message = f"arithmetic nested deeper than {MAX_NESTING}"
        prepared.SHAPES.clear()
        for _ in range(2):  # a cold skeleton, then a known one
            with pytest.raises(ParseError, match=message):
                manager.sql(QUERY + chain)
            with pytest.raises(ParseError, match=message):
                manager.execute_sql(f"UPDATE t SET a = {chain}")
        with pytest.raises(ParseError, match=message) as info:
            parse_query(QUERY + chain)
        assert info.value.position is not None
        assert [d.code for d in lint_sql(QUERY + chain).diagnostics] == ["RVM001"]

    @pytest.mark.parametrize("mode", MODES)
    def test_an_arithmetic_chain_at_the_bound_evaluates_on_every_engine(self, mode):
        manager = ViewManager(exec_mode=mode)
        manager.create_table("t", ("a",), rows=[(0,), (100,), (101,)])
        chain = " + ".join(["1"] * (MAX_NESTING + 1))  # MAX_NESTING operators
        assert manager.sql(QUERY + chain) == Bag([(101,)])
        with pytest.raises(ParseError):
            manager.sql(QUERY + chain + " + 1")

    def test_backtracking_out_of_a_parenthesis_restores_the_depth(self):
        # "(a + 1) = 2" is first tried as a nested condition; many of them
        # in a row must not add up.
        condition = " AND ".join("(a + 1) = 2" for _ in range(3 * MAX_NESTING))
        parse_query("SELECT a FROM t WHERE " + condition)
