"""One plan per read shape: a prepared query's literals ride on the binding.

``sql_to_expr`` returns one template per query shape with this text's
values beside it (:class:`~repro.algebra.expr.Parameterized`), so the
plan tables — the live executor's and a snapshot registry's — hold one
plan per shape however many keys are read.  A template's parameters
never outlive the call: a view definition or a serialized expression
binds them back to constants, and an open one is refused.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Parameterized, Select, TableRef, bind_params
from repro.algebra.predicates import Attr, Comparison, Const, Param
from repro.algebra.schema import Schema
from repro.algebra.serialize import expr_from_dict, expr_to_dict
from repro.errors import ParameterError
from repro.exec import COMPILED, MODES
from repro.serve.snapshots import SnapshotRegistry
from repro.sqlfront import prepared
from repro.sqlfront.compiler import sql_to_expr
from repro.warehouse.manager import ViewManager
from repro.warehouse.persistence import VIEWDEFS_TABLE, load_warehouse, save_warehouse

KEYS = 500
READ = "SELECT b, c FROM t WHERE a = {}"


@pytest.fixture(autouse=True)
def cold_cache():
    prepared.SHAPES.clear()
    yield
    prepared.SHAPES.clear()


def manager(mode: str = COMPILED) -> ViewManager:
    manager = ViewManager(exec_mode=mode)
    manager.create_table("t", ("a", "b", "c"), rows=[(key % 50, key, f"r{key}") for key in range(KEYS)])
    return manager


def expected(key: int) -> Bag:
    return Bag([(row, f"r{row}") for row in range(KEYS) if row % 50 == key])


class TestOnePlanPerShape:
    def test_distinct_key_reads_through_the_manager_share_one_plan(self):
        live = manager()
        assert live.sql(READ.format(0)) == expected(0)
        plans, misses = live.db.executor.cached_plans, live.counter.plan_misses
        for key in range(1, KEYS):
            assert live.sql(READ.format(key)) == expected(key), key
            assert live.db.executor.cached_plans == plans, key
        assert misses == 1 and live.counter.plan_misses == misses
        assert live.counter.plan_hits >= KEYS - 1

    def test_distinct_key_reads_at_a_pin_share_one_plan(self):
        live = manager()
        registry = SnapshotRegistry()
        counter = CostCounter()
        with registry.pin(live.db) as handle:
            assert handle.evaluate(sql_to_expr(READ.format(0), live.db), counter=counter) == expected(0)
            plans = len(registry.plans)
            for key in range(1, KEYS):
                assert handle.evaluate(sql_to_expr(READ.format(key), live.db), counter=counter) == expected(key)
                assert len(registry.plans) == plans, key
        assert counter.plan_misses == 1
        assert counter.plan_hits == KEYS - 1
        assert live.db.executor.cached_plans == 0  # a pin never touches the live plan table

    def test_a_read_memo_is_stamped_with_the_parameter_value(self):
        live = manager()
        counter = CostCounter()
        for key in (3, 4, 3, 4, 3):
            assert live.db.evaluate(sql_to_expr(READ.format(key), live.db), counter=counter) == expected(key)
        # One plan, a result per value: interleaved keys at unchanged
        # versions hit the memo as one plan per key did.
        assert counter.by_operator.get("index_probe", 0) == 2 and counter.memo_hits == 3
        live.execute_sql("INSERT INTO t VALUES (3, 1000, 'new')")
        assert live.db.evaluate(sql_to_expr(READ.format(3), live.db)) == expected(3).union_all(Bag([(1000, "new")]))

    @pytest.mark.parametrize("mode", MODES)
    def test_a_template_evaluates_with_no_binding_from_the_caller(self, mode):
        live = manager(mode)
        query = sql_to_expr(READ.format(7), live.db)
        assert isinstance(query, Parameterized)
        assert live.db.evaluate(query) == expected(7)
        assert evaluate(query, live.db.state) == expected(7)
        with pytest.raises(ParameterError, match="unbound-parameter"):
            live.db.evaluate(query.query)


class TestNoParameterLeaksIntoAView:
    def test_define_view_binds_the_values_back_to_constants(self, tmp_path):
        live = manager()
        query = sql_to_expr(READ.format(7), live.db)
        live.define_view("V", query)
        stored = live.scenario("V").view.query
        assert stored == bind_params(query) and not isinstance(stored, Parameterized)
        assert "?0" not in str(stored)
        save_warehouse(live, tmp_path / "w.db")
        with sqlite3.connect(tmp_path / "w.db") as conn:
            stored_rows = conn.execute(f"SELECT * FROM {VIEWDEFS_TABLE}").fetchall()
        assert stored_rows and "?0" not in json.dumps(stored_rows, default=str)
        assert load_warehouse(tmp_path / "w.db").scenario("V").view.query == stored
        live.execute_sql("INSERT INTO t VALUES (7, 1000, 'new'); INSERT INTO t VALUES (8, 1001, 'other')")
        live.refresh("V")
        assert live.db[live.scenario("V").view.mv_table] == expected(7).union_all(Bag([(1000, "new")]))

    def test_an_open_parameter_is_refused_with_a_code(self):
        live = manager()
        schema = Schema(["a", "b", "c"])
        open_query = Select(Comparison("=", Attr("a"), Param(0)), TableRef("t", schema))
        with pytest.raises(ParameterError) as info:
            live.define_view("V", open_query)
        assert info.value.code == "stored-parameter"
        with pytest.raises(ParameterError, match="stored-parameter"):
            expr_to_dict(open_query)

    def test_serialization_writes_the_constants(self):
        live = manager()
        query = sql_to_expr(READ.format(7), live.db)
        decoded = expr_from_dict(expr_to_dict(query))
        assert decoded == bind_params(query)
        assert any(
            isinstance(node, Select) and node.predicate.right == Const(7) for node in decoded.walk()
        )
