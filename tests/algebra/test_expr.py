"""Unit tests for the bag-algebra AST: schemas, substitution, derived ops."""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.expr import (
    DupElim,
    Literal,
    Monus,
    Product,
    Project,
    Select,
    UnionAll,
    empty,
    except_expr,
    join,
    max_expr,
    min_expr,
    rename,
    singleton,
    table,
)
from repro.algebra.predicates import Comparison, attr, const
from repro.algebra.schema import Schema
from repro.errors import SchemaError

R = table("R", ["a", "b"])
S = table("S", ["b", "c"])
ONE_COL = table("W", ["x"])


class TestSchemas:
    def test_table_ref_schema(self):
        assert R.schema() == Schema(["a", "b"])

    def test_literal_schema_checked_against_bag(self):
        with pytest.raises(SchemaError):
            Literal(Bag([(1, 2)]), Schema(["x"]))

    def test_empty_literal_any_schema(self):
        assert empty(Schema(["x", "y"])).schema().arity == 2

    def test_singleton(self):
        lit = singleton((1,), Schema(["x"]))
        assert lit.bag == Bag([(1,)])

    def test_select_keeps_schema(self):
        expr = Select(Comparison("=", attr("a"), const(1)), R)
        assert expr.schema() == R.schema()

    def test_select_validates_predicate_attributes(self):
        with pytest.raises(SchemaError):
            Select(Comparison("=", attr("zzz"), const(1)), R)

    def test_project_by_name(self):
        expr = Project(("b",), R)
        assert expr.schema() == Schema(["b"])

    def test_project_by_position(self):
        expr = Project((1, 0), R)
        assert expr.schema() == Schema(["b", "a"])

    def test_project_with_output_names(self):
        expr = Project(("a",), R, ("renamed",))
        assert expr.schema() == Schema(["renamed"])

    def test_project_name_count_mismatch(self):
        with pytest.raises(SchemaError):
            Project(("a",), R, ("x", "y"))

    def test_project_position_out_of_range(self):
        with pytest.raises(SchemaError):
            Project((7,), R)

    def test_product_concatenates(self):
        assert Product(R, S).schema() == Schema(["a", "b", "b", "c"])

    def test_union_requires_same_arity(self):
        with pytest.raises(SchemaError):
            UnionAll(R, ONE_COL)

    def test_monus_requires_same_arity(self):
        with pytest.raises(SchemaError):
            Monus(R, ONE_COL)

    def test_union_takes_left_names(self):
        expr = UnionAll(R, table("R2", ["x", "y"]))
        assert expr.schema() == Schema(["a", "b"])

    def test_dupelim_keeps_schema(self):
        assert DupElim(R).schema() == R.schema()


class TestIntrospection:
    def test_tables(self):
        expr = UnionAll(Project(("a",), R), Project(("x",), ONE_COL))
        assert expr.tables() == frozenset({"R", "W"})

    def test_size(self):
        assert R.size() == 1
        assert UnionAll(R, R).size() == 3

    def test_walk_preorder(self):
        expr = DupElim(R)
        assert [type(node).__name__ for node in expr.walk()] == ["DupElim", "TableRef"]

    def test_structural_equality(self):
        assert Project(("a",), R) == Project(("a",), table("R", ["a", "b"]))
        assert Project(("a",), R) != Project(("b",), R)

    def test_hashable(self):
        assert len({Project(("a",), R), Project(("a",), R)}) == 1

    def test_hash_is_the_hash_of_the_fields(self):
        from dataclasses import fields

        from repro.algebra.expr import Bound, KeyRestrict, MapProject, Parameterized
        from repro.algebra.predicates import Param

        picked = Select(Comparison("=", attr("a"), Param("?0")), R)
        nodes = [
            R,
            singleton((1,), Schema(["x"])),
            KeyRestrict(R, 0, "K"),
            Bound("d", Schema(["x"])),
            picked,
            Project(("a",), R, ("z",)),
            MapProject((attr("a"),), R, ("z",)),
            DupElim(R),
            UnionAll(R, R),
            Monus(R, R),
            Product(R, S),
        ]
        for node in nodes:
            fresh = hash(tuple(getattr(node, f.name) for f in fields(node)))
            assert hash(node) == fresh == hash(node), type(node).__name__
        assert hash(Parameterized(picked, (1,))) == hash((Parameterized, picked, (1,)))

    def test_a_second_plan_lookup_hashes_no_field(self, monkeypatch):
        from repro.exec.executor import plan_for

        right = table("T", ["d", "e"])
        expr = join(R, right, Comparison("=", attr("a"), attr("d"))).project(["b", "e"]).dedup()
        plans = {}
        first = plan_for(plans, expr, None)
        hashed = []
        original = Schema.__hash__

        def counted(schema):
            hashed.append(schema)
            return original(schema)

        monkeypatch.setattr(Schema, "__hash__", counted)
        assert plan_for(plans, expr, None) is first
        assert hashed == []


class TestSubstitution:
    def test_replaces_table_refs(self):
        replacement = table("R_new", ["a", "b"])
        assert R.substitute({"R": replacement}) == replacement

    def test_untouched_tables_kept(self):
        expr = UnionAll(R, table("R2", ["x", "y"]))
        result = expr.substitute({"R": table("R3", ["a", "b"])})
        assert result.tables() == frozenset({"R3", "R2"})

    def test_simultaneous_not_iterated(self):
        # R -> S and S -> R must swap, not chain.
        r = table("R", ["x"])
        s = table("S", ["x"])
        expr = Product(r, s)
        result = expr.substitute({"R": s, "S": r})
        assert result == Product(s, r)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            R.substitute({"R": ONE_COL})

    def test_literal_unchanged(self):
        lit = empty(Schema(["a", "b"]))
        assert lit.substitute({"R": R}) is lit

    def test_substitution_descends_through_all_nodes(self):
        expr = DupElim(Select(Comparison("=", attr("a"), const(1)), Project(("a", "b"), R)))
        result = expr.substitute({"R": table("R9", ["a", "b"])})
        assert result.tables() == frozenset({"R9"})


class TestDerivedConstructors:
    def setup_method(self):
        self.db_state = {
            "R": Bag([(1, 10), (1, 10), (2, 20)]),
            "S": Bag([(10, "x"), (30, "y")]),
            "W": Bag([(1,), (1,), (2,), (3,)]),
            "W2": Bag([(1,), (2,), (2,)]),
        }

    def _eval(self, expr):
        from repro.algebra.evaluation import evaluate

        return evaluate(expr, self.db_state)

    def test_join_rejects_ambiguous_attribute(self):
        # Both R and S have a column named b: the predicate cannot bind.
        with pytest.raises(SchemaError, match="ambiguous"):
            join(R, S, Comparison("=", attr("b"), attr("b")))

    def test_join_with_qualified_names(self):
        r = rename(R, ("r.a", "r.b"))
        s = rename(S, ("s.b", "s.c"))
        expr = join(r, s, Comparison("=", attr("r.b"), attr("s.b")))
        assert self._eval(expr) == Bag([(1, 10, 10, "x"), (1, 10, 10, "x")])

    def test_join_without_predicate_is_product(self):
        expr = join(ONE_COL, table("W2", ["y"]))
        assert isinstance(expr, Product)

    def test_min_expr_semantics(self):
        w2 = table("W2", ["x"])
        assert self._eval(min_expr(ONE_COL, w2)) == Bag([(1,), (2,)])

    def test_max_expr_semantics(self):
        w2 = table("W2", ["x"])
        result = self._eval(max_expr(ONE_COL, w2))
        assert result == Bag([(1,), (1,), (2,), (2,), (3,)])

    def test_except_expr_semantics(self):
        w2 = table("W2", ["x"])
        # W EXCEPT W2 removes every copy of rows present in W2.
        assert self._eval(except_expr(ONE_COL, w2)) == Bag([(3,)])

    def test_except_expr_keeps_multiplicities_of_survivors(self):
        w2 = table("W2", ["x"])
        # W2 EXCEPT (rows {2,3}): 1 survives with original multiplicity
        self.db_state["V"] = Bag([(2,), (3,)])
        v = table("V", ["x"])
        assert self._eval(except_expr(w2, v)) == Bag([(1,)])

    def test_except_expr_preserves_schema_names(self):
        w2 = table("W2", ["x"])
        assert except_expr(ONE_COL, w2).schema() == Schema(["x"])

    def test_rename_positional(self):
        expr = rename(R, ("x", "y"))
        assert expr.schema() == Schema(["x", "y"])

    def test_rename_wrong_count(self):
        with pytest.raises(SchemaError):
            rename(R, ("only-one",))

    def test_operator_sugar(self):
        expr = R.project(["a"]).dedup()
        assert isinstance(expr, DupElim)
        expr2 = ONE_COL.union_all(table("W2", ["x"])).monus(ONE_COL)
        assert isinstance(expr2, Monus)

    def test_where_sugar(self):
        expr = R.where(Comparison("=", attr("a"), const(1)))
        assert isinstance(expr, Select)

    def test_product_sugar(self):
        assert isinstance(ONE_COL.product(ONE_COL), Product)

    def test_str_forms(self):
        assert str(R) == "R"
        assert "sigma" in str(R.where(Comparison("=", attr("a"), const(1))))
        assert "pi" in str(R.project(["a"]))
        assert "(+)" in str(UnionAll(R, R))
        assert "(-)" in str(Monus(R, R))
        assert str(empty(Schema(["x"]))) == "phi"
