"""Tests for whole-warehouse save/load (views reattached)."""

import pytest

from repro.algebra.bag import Bag
from repro.errors import ReproError
from repro.warehouse import ViewManager
from repro.warehouse.persistence import load_warehouse, save_warehouse


@pytest.fixture
def manager():
    vm = ViewManager()
    vm.create_table("t", ["a", "qty"], rows=[(1, 5), (2, 7)])
    vm.define_view("plain", "SELECT a FROM t", scenario="combined")
    vm.define_view("computed", "SELECT a, qty * 2 AS dbl FROM t", scenario="diff_table")
    vm.define_view("agg", "SELECT a, COUNT(*), SUM(qty) AS total FROM t GROUP BY a")
    return vm


class TestRoundTrip:
    def test_views_reattached(self, manager, tmp_path):
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)
        loaded = load_warehouse(path)
        assert set(loaded.views()) == {"plain", "computed", "agg"}
        assert loaded.query("plain") == manager.query("plain")
        assert loaded.query("agg") == manager.query("agg")

    def test_scenarios_preserved(self, manager, tmp_path):
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)
        loaded = load_warehouse(path)
        assert loaded.scenario("plain").tag == "C"
        assert loaded.scenario("computed").tag == "DT"
        assert loaded.scenario("agg").tag == "AGG"

    def test_strong_minimality_flag_survives(self, tmp_path):
        vm = ViewManager()
        vm.create_table("t", ["a"], rows=[(1,)])
        vm.define_view("V", "SELECT a FROM t", scenario="combined", strong_minimality=True)
        path = tmp_path / "wh.db"
        save_warehouse(vm, path)
        loaded = load_warehouse(path)
        assert loaded.scenario("V").strong_minimality is True

    def test_pending_deferral_survives_restart(self, manager, tmp_path):
        """The headline behavior: mid-deferral state resumes exactly."""
        manager.execute_sql("INSERT INTO t VALUES (3, 9); UPDATE t SET qty = qty + 1 WHERE a = 1")
        manager.propagate("plain")
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)

        loaded = load_warehouse(path)
        assert loaded.is_stale("plain")
        loaded.check_invariants()
        loaded.refresh_all()
        assert loaded.query("plain") == Bag([(1,), (2,), (3,)])
        assert loaded.query("agg") == Bag([(1, 1, 6), (2, 1, 7), (3, 1, 9)])

    def test_maintenance_continues_after_restart(self, manager, tmp_path):
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)
        loaded = load_warehouse(path)
        loaded.execute_sql("INSERT INTO t VALUES (9, 1)")
        loaded.check_invariants()
        assert (9,) in loaded.query_fresh("plain")

    def test_save_is_repeatable(self, manager, tmp_path):
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)
        save_warehouse(manager, path)
        loaded = load_warehouse(path)
        assert set(loaded.views()) == {"plain", "computed", "agg"}

    def test_save_leaves_manager_usable(self, manager, tmp_path):
        save_warehouse(manager, tmp_path / "wh.db")
        assert "__viewdefs__" not in manager.db.table_names()
        manager.execute_sql("INSERT INTO t VALUES (4, 4)")
        manager.check_invariants()

    def test_plain_database_loads_without_views(self, tmp_path):
        from repro.storage.database import Database
        from repro.storage.persistence import save_database

        db = Database()
        db.create_table("t", ["a"], rows=[(1,)])
        save_database(db, tmp_path / "plain.db")
        loaded = load_warehouse(tmp_path / "plain.db")
        assert loaded.views() == ()
        assert loaded.db["t"] == Bag([(1,)])

    def test_corrupt_catalog_detected(self, manager, tmp_path):
        path = tmp_path / "wh.db"
        save_warehouse(manager, path)
        # Simulate a file missing an MV table.
        from repro.storage.persistence import load_database, save_database

        db = load_database(path)
        db.drop_table("__mv__plain")
        save_database(db, path)
        with pytest.raises(ReproError, match="lacks materialized table"):
            load_warehouse(path)

    def test_aggregate_saved_over_a_wrapped_base_view_fails_closed(self):
        """An aggregate saved while it wrapped a base view named
        ``__base__<name>`` reattaches under its own name; its file holds
        no ``__mv__<name>``, so the load refuses instead of guessing."""
        from repro.algebra.serialize import expr_to_dict
        from repro.warehouse.persistence import _attach

        vm = ViewManager()
        vm.create_table("t", ["a", "qty"], rows=[(1, 5)])
        vm.db.create_table("__agg__agg", ["a", "count"], rows=[(1, 1)], internal=True)
        legacy = {
            "type": "aggregate",
            "name": "agg",
            "base_query": expr_to_dict(vm.db.ref("t")),
            "base_name": "__base__agg",
            "group_by": ["a"],
            "aggregates": [{"function": "count", "attribute": None, "alias": None}],
        }
        with pytest.raises(ReproError, match="lacks materialized table '__mv__agg'"):
            _attach(vm, legacy)
        assert vm.views() == ()


class TestSerializer:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_expression_round_trip(self, seed):
        from repro.algebra.serialize import expr_from_dict, expr_to_dict
        from repro.workloads.randgen import RandomExpressionGenerator
        import json

        generator = RandomExpressionGenerator(seed)
        db = generator.database()
        expr = generator.query(db, depth=5)
        encoded = json.loads(json.dumps(expr_to_dict(expr)))
        assert expr_from_dict(encoded) == expr

    def test_mapproject_round_trip(self):
        from repro.algebra.expr import MapProject, table
        from repro.algebra.predicates import Arith, attr, const
        from repro.algebra.serialize import expr_from_dict, expr_to_dict

        expr = MapProject(
            (Arith("+", attr("a"), const(1)), const(None), const(True)),
            table("t", ["a"]),
            ("x", "n", "b"),
        )
        assert expr_from_dict(expr_to_dict(expr)) == expr

    def test_predicate_round_trip(self):
        from repro.algebra.predicates import And, Comparison, Not, Or, TruePredicate, attr, const
        from repro.algebra.serialize import predicate_from_dict, predicate_to_dict

        predicate = Or(
            And(Comparison("=", attr("a"), const("x")), Not(TruePredicate())),
            Comparison("<", attr("b"), const(2.5)),
        )
        assert predicate_from_dict(predicate_to_dict(predicate)) == predicate

    def test_literal_bag_round_trip(self):
        from repro.algebra.bag import Bag
        from repro.algebra.expr import Literal
        from repro.algebra.schema import Schema
        from repro.algebra.serialize import expr_from_dict, expr_to_dict

        lit = Literal(Bag([(1, True), (1, True), (None, "s")]), Schema(["a", "b"]))
        decoded = expr_from_dict(expr_to_dict(lit))
        assert decoded == lit

