"""The statement-shape cache never changes what a statement means.

``script_to_transaction`` / ``sql_to_expr`` serve a text whose shape was
seen before from a prepared, already-compiled form
(:mod:`repro.sqlfront.prepared`).  Each case here is one way a cache can
go wrong — a stale schema, a check skipped on a hit, unbounded growth, a
second parse, a race — held against the uncached parser + compiler.
"""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.expr import TableRef, bind_params
from repro.algebra.schema import Schema
from repro.core.transactions import UserTransaction
from repro.errors import ParseError, ReproError, SchemaError, TransactionError, UnknownTableError
from repro.sqlfront import compiler, parser, prepared
from repro.sqlfront.compiler import compile_query, script_to_transaction, sql_to_expr
from repro.sqlfront.parser import parse_query
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager


@pytest.fixture(autouse=True)
def cold_cache():
    prepared.SHAPES.clear()
    yield
    prepared.SHAPES.clear()


def make_db(columns=("a", "b")) -> Database:
    db = Database()
    db.create_table("t", columns)
    return db


def inserted(db: Database, script: str, table: str = "t"):
    """The rows ``script`` inserts into ``table``, as a sorted list."""
    txn = script_to_transaction(script, db, UserTransaction(db))
    return sorted(db.evaluate(txn.insert_expr(table), binding=txn.binding))


def resolved(txn: UserTransaction) -> dict:
    """``txn``'s patches with its binding written back into them."""
    return {
        table: tuple(bind_params(expr, txn.binding) for expr in pair) for table, pair in txn.patches().items()
    }


def outcomes(metrics: dict) -> dict[str, float]:
    """``sql_statements`` counts by outcome (summed over reasons), from a metrics snapshot."""
    counts: dict[str, float] = {}
    for name, metric in metrics.items():
        if name.startswith("sql_statements{"):
            outcome = name.partition('outcome="')[2].partition('"')[0]
            counts[outcome] = counts.get(outcome, 0) + metric["value"]
    return counts


def uncacheable(metrics: dict) -> dict[str, float]:
    """``sql_statements{outcome="uncacheable"}`` counts by reason, from a metrics snapshot."""
    prefix = 'sql_statements{outcome="uncacheable",reason="'
    return {name[len(prefix) : -2]: metric["value"] for name, metric in metrics.items() if name.startswith(prefix)}


class TestSchemasAreRechecked:
    def test_two_catalogs_same_table_name_other_column_order(self):
        ab, ba = make_db(("a", "b")), make_db(("b", "a"))
        script = "INSERT INTO t (a, b) VALUES ({}, {})"
        for round_ in range(3):  # miss, then each catalog finds the other's shape
            assert inserted(ab, script.format(round_, 10)) == [(round_, 10)]
            assert inserted(ba, script.format(round_, 10)) == [(10, round_)]

    def test_drop_then_create_with_another_schema_never_serves_the_stale_shape(self):
        db = make_db(("a", "b"))
        query = "SELECT a FROM t WHERE b = {}"
        assert bind_params(sql_to_expr(query.format(1), db)) == compile_query(parse_query(query.format(1)), db)
        db.drop_table("t")
        with pytest.raises(UnknownTableError, match="no such table: 't'"):
            sql_to_expr(query.format(2), db)
        db.create_table("t", ("b", "c", "a"))
        fresh = bind_params(sql_to_expr(query.format(3), db))
        assert fresh == compile_query(parse_query(query.format(3)), db)
        assert fresh.tables() == {"t"} and any(
            isinstance(node, TableRef) and node.table_schema == Schema(["b", "c", "a"]) for node in fresh.walk()
        )
        script = "INSERT INTO t VALUES ({}, {}, {})"
        assert inserted(db, script.format(1, 2, 3)) == [(1, 2, 3)]
        db.drop_table("t")
        db.create_table("t", ("a",))
        with pytest.raises(SchemaError):
            inserted(db, script.format(4, 5, 6))

    def test_a_stub_catalog_is_a_catalog(self):
        class Stub:
            def __init__(self, columns):
                self.columns = columns

            def ref(self, name):
                return TableRef(name, Schema(self.columns))

        first = sql_to_expr("SELECT x FROM anything WHERE x = 1", Stub(("x", "y")))
        assert first.schema().attributes == ("x",)
        with pytest.raises(SchemaError):
            sql_to_expr("SELECT x FROM anything WHERE x = 2", Stub(("y", "z")))


class TestChecksSurviveAHit:
    def test_insert_into_an_internal_table_still_raises(self):
        db = make_db()
        db.create_table("mv", ("a", "b"), internal=True)
        db_open = make_db()
        db_open.create_table("mv", ("a", "b"))
        script = "INSERT INTO mv VALUES ({}, 2)"
        assert inserted(db_open, script.format(1), "mv") == [(1, 2)]  # the shape is cached now
        for value in (3, 4):
            with pytest.raises(TransactionError, match="internal table 'mv'"):
                script_to_transaction(script.format(value), db, UserTransaction(db))

    def test_wrong_arity_raises_the_same_error_twice(self):
        db = make_db()
        messages = []
        for value in (1, 2):
            with pytest.raises(SchemaError) as info:
                script_to_transaction(f"INSERT INTO t VALUES ({value}, 2, 3)", db, UserTransaction(db))
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "INSERT row has 3 values, table 't' has 2 columns"
        assert len(prepared.SHAPES) == 0  # a text that does not compile is never cached

    def test_bad_column_list_raises_the_same_error_twice(self):
        db = make_db()
        for value in (1, 2):
            with pytest.raises(SchemaError, match="must name every column"):
                script_to_transaction(f"INSERT INTO t (a, z) VALUES ({value}, 2)", db, UserTransaction(db))

    def test_parse_errors_keep_message_and_position(self):
        db = make_db()
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                sql_to_expr("SELECT a FROM t WHERE a = ", db)
            assert (str(info.value), info.value.position) == ("expected an operand, found 'EOF'", 26)

    def test_a_script_shape_is_not_a_query_shape(self):
        db = make_db()
        script = "DELETE FROM t WHERE a = 1"
        script_to_transaction(script, db, UserTransaction(db))
        with pytest.raises(ParseError, match="expected a query"):
            sql_to_expr(script, db)


class TestShapes:
    def test_one_row_and_five_hundred_rows_are_one_shape(self):
        db = make_db()
        assert inserted(db, "INSERT INTO t VALUES (1, 'x')") == [(1, "x")]
        rows = [(number, f"r{number}") for number in range(500)]
        values = ", ".join(f"({a}, '{b}')" for a, b in rows)
        assert inserted(db, f"INSERT INTO t VALUES {values}") == sorted(rows)
        assert len(prepared.SHAPES) == 1

    def test_the_run_keeps_its_place_between_other_statements(self):
        db = make_db()
        script = "DELETE FROM t WHERE a = {}; INSERT INTO t (b, a) VALUES {}; UPDATE t SET b = {} WHERE a = {}"

        def run(text):
            return resolved(script_to_transaction(text, db, UserTransaction(db)))

        def oracle(text):
            txn = UserTransaction(db)
            compiler._emit_script(parser.parse_script(text), db, txn)
            return txn.patches()

        for deleted, rows, score, key in ((1, "(1, 2)", "'x'", 3), (4, "(5, 6), (7, 8), (9, 10)", "'y'", 11)):
            text = script.format(deleted, rows, score, key)
            assert run(text) == oracle(text)
        assert len(prepared.SHAPES) == 1

    def test_null_and_boolean_cells_repeat_down_the_rows(self):
        db = make_db(("a", "b", "c"))
        assert inserted(db, "INSERT INTO t VALUES (1, NULL, TRUE)") == [(1, None, True)]
        assert inserted(db, "INSERT INTO t VALUES (2, NULL, TRUE), (3, NULL, TRUE)") == [
            (2, None, True),
            (3, None, True),
        ]

    def test_a_sign_folded_into_the_tree_is_uncacheable_not_wrong(self):
        db = make_db()
        with obs.observed() as stack:
            for value in (1, 2, 3):
                text = f"SELECT a -{value} AS d FROM t"
                assert bind_params(sql_to_expr(text, db)) == compile_query(parse_query(text), db)
        assert outcomes(stack.metrics.snapshot()) == {"uncacheable": 3}
        # … while a negative literal in operand position is an ordinary slot.
        with obs.observed() as stack:
            for value in (-1, 5, -7):
                text = f"SELECT a FROM t WHERE b = {value}"
                assert bind_params(sql_to_expr(text, db)) == compile_query(parse_query(text), db)
        assert outcomes(stack.metrics.snapshot()) == {"miss": 1, "hit": 2}

    def test_a_condition_deeper_than_the_bound_is_left_to_the_uncached_path(self):
        # Binding recurses once per level of the tree: a condition nested
        # as deep as the parser allows (NOT … NOT) is not kept.
        db = make_db()
        with obs.observed() as stack:
            for value in (1, 2):
                text = "SELECT a FROM t WHERE " + "NOT " * prepared.MAX_NESTING + f"a = {value}"
                assert bind_params(sql_to_expr(text, db)) == compile_query(parse_query(text), db)
        assert outcomes(stack.metrics.snapshot()) == {"uncacheable": 2}
        # … while a long chain of AND / OR terms parses ⌈log2 n⌉ deep and
        # is prepared like any other condition.
        for joiner in (" AND ", " OR "):
            with obs.observed() as stack:
                for value in (1, 2):
                    text = "SELECT a FROM t WHERE " + joiner.join([f"a = {value}"] * 600)
                    assert bind_params(sql_to_expr(text, db)) == compile_query(parse_query(text), db)
            assert outcomes(stack.metrics.snapshot()) == {"miss": 1, "hit": 1}

    def test_a_lift_that_disagrees_with_the_lexer_is_uncacheable_not_wrong(self, monkeypatch):
        # The pattern and the lexer share one definition; should they ever
        # drift (here: the lexer takes the sign into the number, the
        # pattern does not — same count, other extent), no shape is kept.
        monkeypatch.setattr(prepared, "LITERAL", re.compile(r"((?<!\w)[0-9]+)"))
        db = make_db()
        with obs.observed() as stack:
            for value in (-5, -6):
                text = f"SELECT a FROM t WHERE b = {value}"
                assert bind_params(sql_to_expr(text, db)) == compile_query(parse_query(text), db)
        assert outcomes(stack.metrics.snapshot()) == {"uncacheable": 2}

    def test_a_huge_ragged_script_is_not_kept_at_all(self):
        db = make_db()
        rows = [(number, None if number % 3 else number) for number in range(2000)]
        values = ", ".join(f"({a}, {'NULL' if b is None else b})" for a, b in rows)
        assert len(values) > prepared.MAX_SKELETON
        txn = script_to_transaction(f"INSERT INTO t VALUES {values}", db, UserTransaction(db))
        assert db.evaluate(txn.insert_expr("t"), binding=txn.binding) == Bag(rows)
        assert len(prepared.SHAPES) == 0
        # The same rows reading alike are one short shape, whatever their count.
        uniform = ", ".join(f"({a}, {a})" for a, _ in rows)
        inserted(db, f"INSERT INTO t VALUES {uniform}")
        assert len(prepared.SHAPES) == 1

    def test_a_thousand_distinct_shapes_keep_the_cache_at_its_bound(self):
        db = make_db()
        for number in range(1000):
            sql_to_expr(f"SELECT a AS c{number} FROM t", db)
            assert len(prepared.SHAPES) <= prepared.MAX_SHAPES
        assert len(prepared.SHAPES) == prepared.MAX_SHAPES
        # Oldest out first: the last MAX_SHAPES shapes are the ones kept.
        with obs.observed() as stack:
            sql_to_expr("SELECT a AS c999 FROM t", db)
            sql_to_expr("SELECT a AS c0 FROM t", db)
        assert outcomes(stack.metrics.snapshot()) == {"hit": 1, "miss": 1}


class TestUncacheableReasons:
    """Every statement the cache does not serve says why, and still answers."""

    def reasons(self, *texts: str, db: Database | None = None) -> dict[str, float]:
        db = db or make_db()
        with obs.observed() as stack:
            for text in texts:
                try:
                    sql_to_expr(text, db)
                except ReproError:
                    pass
        return uncacheable(stack.metrics.snapshot())

    def test_placeholder(self):
        assert self.reasons("SELECT a FROM t WHERE b = '\x00'") == {"placeholder": 1}

    def test_too_long(self):
        text = "SELECT a FROM t WHERE " + " AND ".join(["a = b"] * 2000)
        assert self.reasons(text) == {"too_long": 1}

    def test_folded_literal(self):
        # Remembered: the second text of the shape is refused without a parse.
        assert self.reasons("SELECT a -1 AS d FROM t", "SELECT a -2 AS d FROM t") == {"folded_literal": 2}

    def test_not_compiled(self):
        assert self.reasons("SELECT a FROM t WHERE a = ", "SELECT z FROM t WHERE a = 1") == {"not_compiled": 2}

    def test_schema_changed(self):
        db = make_db()
        sql_to_expr("SELECT b FROM t WHERE a = 1", db)
        db.drop_table("t")
        db.create_table("t", ("a",))
        with pytest.raises(SchemaError):
            sql_to_expr("SELECT b FROM t WHERE a = 2", db)
        with obs.observed() as stack:
            with pytest.raises(SchemaError):
                sql_to_expr("SELECT b FROM t WHERE a = 3", db)
        assert uncacheable(stack.metrics.snapshot()) == {"schema_changed": 1}


class TestParseCountGuard:
    """N statements in k shapes cost k parses — the count behind the benchmark claim."""

    def test_n_statements_in_k_shapes_parse_k_times_and_tokenize_once_per_miss(self, monkeypatch):
        calls = {"tokenize": 0, "parse": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        tokenize = counting("tokenize", prepared.tokenize)
        monkeypatch.setattr(prepared, "tokenize", tokenize)
        monkeypatch.setattr(parser, "tokenize", tokenize)
        monkeypatch.setattr(parser.Parser, "script", counting("parse", parser.Parser.script))
        monkeypatch.setattr(parser.Parser, "statement", counting("parse", parser.Parser.statement))

        manager = ViewManager()
        manager.create_table("customer", ("custId", "name", "address", "score"))
        manager.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
        customers = [(c, f"customer-{c}", f"{c} Main St", "Low") for c in range(20)]
        manager.load("customer", customers)
        before = dict(calls)

        def rows(count, base):
            return ", ".join(f"({base + n}, {n}, {n % 5}, {n}.5)" for n in range(count))

        insert = "INSERT INTO sales (custId, itemNo, quantity, salesPrice) VALUES {}"
        shapes = (
            lambda n: insert.format(rows(1 + n % 7, n)),
            lambda n: insert.format(rows(3, n)) + f"; DELETE FROM sales WHERE custId = {n} AND itemNo = {n % 3}",
            lambda n: insert.format(rows(2, n)) + f"; UPDATE customer SET score = 'High' WHERE custId = {n % 20}",
        )
        texts = []
        for number in range(60):
            texts.append(shapes[number % 3](number))
            texts.append(f"SELECT itemNo, quantity FROM sales WHERE custId = {number}")
        answers = []
        with obs.observed():
            for script, query in zip(texts[::2], texts[1::2]):
                manager.execute_sql(script)
                answers.append(manager.sql(query))
            counts = outcomes(manager.obs_snapshot()["metrics"])
        assert {name: calls[name] - before[name] for name in calls} == {"tokenize": 4, "parse": 4}
        assert counts == {"miss": 4, "hit": len(texts) - 4}

        # The same stream through the uncached parser + compiler.
        oracle = ViewManager()
        for name in ("customer", "sales"):
            oracle.create_table(name, manager.db.schema_of(name))
        oracle.load("customer", customers)
        for script, query, answer in zip(texts[::2], texts[1::2], answers):
            txn = UserTransaction(oracle.db)
            compiler._emit_script(parser.parse_script(script), oracle.db, txn)
            oracle.execute(txn)
            assert oracle.db.evaluate(compile_query(parse_query(query), oracle.db)) == answer
        assert oracle.db["sales"] == manager.db["sales"] and oracle.db["customer"] == manager.db["customer"]


class TestThreads:
    def test_eight_threads_on_shared_shapes_return_only_correct_results(self):
        db = make_db()
        query = "SELECT a FROM t WHERE b = {} AND a != {}"
        script = "INSERT INTO t VALUES {}; DELETE FROM t WHERE a = {}"
        expected_exprs = {
            n: compile_query(parse_query(query.format(n, n + 1)), db) for n in range(40)
        }
        failures: list[str] = []
        start = threading.Barrier(8)

        def worker(offset: int) -> None:
            start.wait(timeout=10)
            for step in range(400):
                n = (offset * 5 + step) % 40
                if step % 50 == 0:
                    prepared.SHAPES.clear()  # misses race with hits
                expr = bind_params(sql_to_expr(query.format(n, n + 1), db))
                if expr != expected_exprs[n]:
                    failures.append(f"query {n}: {expr}")
                rows = [(n + k, f"w{offset}") for k in range(1 + step % 4)]
                values = ", ".join(f"({a}, '{b}')" for a, b in rows)
                txn = script_to_transaction(script.format(values, n), db, UserTransaction(db))
                got = sorted(db.evaluate(txn.insert_expr("t"), binding=txn.binding))
                if got != sorted(rows):
                    failures.append(f"insert {n}: {got}")
                deleted = bind_params(txn.delete_expr("t"), txn.binding)
                if f"t.a = {n}" not in str(deleted):
                    failures.append(f"delete {n}: {deleted}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(prepared.SHAPES) <= prepared.MAX_SHAPES
