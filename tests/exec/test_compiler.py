"""Unit tests for expression lowering into physical plans."""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Literal, MapProject, Select, rename
from repro.algebra.predicates import And, Arith, Attr, Comparison, Const
from repro.algebra.schema import Schema
from repro.errors import UnknownTableError
from repro.exec.compiler import (
    Compiler,
    PEquiJoin,
    PFilter,
    PIndexSelect,
    PLiteral,
    PMonus,
    PPipeline,
    PProject,
    PScan,
    PUnionAll,
    source_access,
)
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database(exec_mode="compiled")
    database.create_table(
        "customer", ["custId", "name", "score"], rows=[(1, "ann", "High"), (2, "bob", "Low")]
    )
    database.create_table(
        "sales", ["saleId", "cId", "qty"], rows=[(10, 1, 5), (11, 1, 0), (12, 2, 7)]
    )
    return database


def compile_expr(expr):
    return Compiler({}).compile(expr)


def plan_for(db, expr):
    db.evaluate(expr)
    return db.executor.node_for(expr)


class TestSourceAccess:
    def test_chain_fuses(self, db):
        expr = (
            db.ref("customer")
            .where(Comparison("=", Attr("score"), Const("High")))
            .project(["name", "custId"])
        )
        access = source_access(expr)
        assert access.table == "customer"
        assert access.out_map == (1, 0)
        assert access.apply((1, "ann", "High")) == ("ann", 1)
        assert access.apply((2, "bob", "Low")) is None

    def test_map_terms_break_base_positions(self, db):
        schema = db.schema_of("sales")
        expr = MapProject(
            (Attr("cId"), Arith("+", Attr("qty"), Const(1))), db.ref("sales"), ("cId", "qtyPlus")
        )
        access = source_access(expr)
        assert access.out_map == (1, None)
        assert access.base_positions((0,)) == (1,)
        assert access.base_positions((1,)) is None
        assert schema.arity == 3

    def test_union_breaks_fusion(self, db):
        expr = db.ref("sales").union_all(db.ref("sales"))
        assert source_access(expr) is None


class TestLowering:
    def test_scan_and_literal(self, db):
        assert isinstance(compile_expr(db.ref("sales")), PScan)
        literal = Literal(Bag([(1,)]), Schema(["x"]))
        assert isinstance(compile_expr(literal), PLiteral)

    def test_fused_chain_becomes_pipeline(self, db):
        expr = db.ref("sales").project(["cId"])
        assert isinstance(compile_expr(expr), PPipeline)

    def test_projection_composition(self, db):
        expr = db.ref("customer").project(["name", "score"]).project(["score"])
        node = compile_expr(expr)
        # The fused pipeline applies both projections in one pass...
        assert isinstance(node, PPipeline)
        assert node.access.out_map == (2,)
        # ...and a non-fusable child still gets a single composed PProject.
        union = db.ref("customer").union_all(db.ref("customer"))
        composed = compile_expr(union.project(["name", "score"]).project(["score"]))
        assert isinstance(composed, PProject)
        assert composed.positions == (2,)
        assert isinstance(composed.child, PUnionAll)

    def test_const_equality_becomes_index_select(self, db):
        expr = db.ref("customer").where(
            And(
                Comparison("=", Attr("score"), Const("High")),
                Comparison("!=", Attr("custId"), Const(7)),
            )
        )
        node = compile_expr(expr)
        assert isinstance(node, PIndexSelect)
        assert node.key_positions == (2,)
        assert node.key_values == ("High",)
        # The chain's own filter is the residual over the probed bucket.
        assert node.access.apply((1, "ann", "High")) == (1, "ann", "High")
        assert node.access.apply((7, "eve", "High")) is None

    def test_const_equality_under_project_and_map_becomes_index_select(self, db):
        # What sqlfront actually emits: the WHERE sits between two
        # rename() projections (DELETE victims, SELECT) or under the
        # MapProject that rewrites UPDATE victims.  The pinned columns
        # are recorded in base-table coordinates, whatever the chain
        # does to the row afterwards.
        attrs = db.schema_of("sales").attributes
        qualified = rename(db.ref("sales"), tuple(f"s.{a}" for a in attrs))
        keyed = Select(
            And(
                Comparison("=", Attr("s.cId"), Const(1)),
                Comparison("=", Const(5), Attr("s.qty")),
            ),
            qualified,
        )
        victims = compile_expr(rename(keyed, attrs))
        rewritten = compile_expr(
            MapProject(
                (Attr("s.saleId"), Attr("s.cId"), Arith("+", Attr("s.qty"), Const(1))),
                keyed,
                attrs,
            )
        )
        for node in (victims, rewritten):
            assert isinstance(node, PIndexSelect)
            assert node.key_positions == (1, 2)
            assert node.key_values == (1, 5)
        assert victims.access.apply((10, 1, 5)) == (10, 1, 5)
        assert rewritten.access.apply((10, 1, 5)) == (10, 1, 6)
        # NULL pins nothing (the comparison is false for every row), and
        # neither does equality on a computed column.
        null_keyed = rename(Select(Comparison("=", Attr("s.cId"), Const(None)), qualified), attrs)
        assert not isinstance(compile_expr(null_keyed), PIndexSelect)
        computed = MapProject((Arith("+", Attr("qty"), Const(1)),), db.ref("sales"), ("q1",))
        on_computed = computed.where(Comparison("=", Attr("q1"), Const(6)))
        assert not isinstance(compile_expr(on_computed), PIndexSelect)

    def test_keyed_sql_probes_a_registered_subset_index(self, db):
        # sales[cId] is registered (as define_view's prime would); a
        # two-column equality is answered from it — no scan, no second
        # index.
        from repro.sqlfront import sql_to_expr

        db.indexes.get("sales", (1,), db["sales"])
        expr = sql_to_expr("SELECT saleId FROM sales WHERE cId = 1 AND qty = 5", db)
        counter = CostCounter()
        assert db.evaluate(expr, counter=counter) == evaluate(expr, db.state) == Bag([(10,)])
        assert isinstance(db.executor.node_for(expr), PIndexSelect)
        assert counter.index_probes == 1
        assert counter.by_operator["index_select"] == 2  # the cId = 1 bucket
        assert "scan" not in counter.by_operator
        assert [index.positions for index in db.indexes.indexes_on("sales")] == [(1,)]
        # A table with no usable index gets one on the full key.
        unkeyed = sql_to_expr("SELECT name FROM customer WHERE custId = 2 AND score = 'Low'", db)
        assert db.evaluate(unkeyed) == Bag([("bob",)])
        assert [index.positions for index in db.indexes.indexes_on("customer")] == [(0, 2)]

    def test_select_without_constant_key_stays_filter(self, db):
        union = db.ref("customer").union_all(db.ref("customer"))
        expr = union.where(Comparison("=", Attr("score"), Const("High")))
        assert isinstance(compile_expr(expr), PFilter)

    def test_join_lowering_splits_residual(self, db):
        predicate = And(
            Comparison("=", Attr("custId"), Attr("cId")),
            And(
                Comparison("=", Attr("score"), Const("High")),  # probe-side only
                Comparison("!=", Attr("qty"), Const(0)),  # indexed-side only
            ),
        )
        expr = Select(predicate, db.ref("customer").product(db.ref("sales")))
        node = compile_expr(expr)
        assert isinstance(node, PEquiJoin)
        assert node.left.key_positions == (0,)
        assert node.right.key_positions == (1,)
        assert node.left.indexable and node.right.indexable
        assert node.left.side_filter is not None
        assert node.right.side_filter is not None
        assert node.residual is None

    def test_monus_against_table_probes(self, db):
        shrunk = db.ref("sales").where(Comparison("=", Attr("qty"), Const(0)))
        expr = shrunk.monus(db.ref("sales"))
        node = compile_expr(expr)
        assert isinstance(node, PMonus)
        assert node.probe_table == "sales"
        no_probe = compile_expr(db.ref("sales").monus(Literal(Bag([(1, 1, 1)]), db.schema_of("sales"))))
        assert no_probe.probe_table is None

    def test_self_cancelling_monus_folds(self, db):
        # E ∸ E is provably empty in every state; the property engine
        # lets the compiler fold it to a literal (see repro.analysis).
        node = compile_expr(db.ref("sales").monus(db.ref("sales")))
        assert isinstance(node, PLiteral)
        assert node.bag == Bag.empty()

    def test_structural_sharing(self, db):
        shared = db.ref("sales").project(["cId"])
        compiler = Compiler({})
        first = compiler.compile(shared.union_all(shared))
        assert first.left is first.right


class TestExecutionMatchesOracle:
    def test_every_node_shape(self, db):
        sales, customer = db.ref("sales"), db.ref("customer")
        join_pred = And(
            Comparison("=", Attr("custId"), Attr("cId")),
            Comparison("=", Attr("score"), Const("High")),
        )
        exprs = [
            sales,
            Literal(Bag([(1, 2)]), Schema(["a", "b"])),
            sales.project(["cId", "qty"]),
            sales.where(Comparison("=", Attr("cId"), Const(1))),
            sales.where(Comparison("<", Attr("qty"), Attr("saleId"))),
            MapProject((Arith("+", Attr("qty"), Const(1)),), sales, ("q1",)),
            sales.project(["cId"]).dedup(),
            sales.union_all(sales),
            sales.monus(sales.where(Comparison("=", Attr("qty"), Const(0)))),
            customer.product(sales),
            Select(join_pred, customer.product(sales)),
            Select(join_pred, customer.product(sales)).project(["name", "qty"]),
        ]
        for expr in exprs:
            compiled = db.evaluate(expr)
            assert compiled == evaluate(expr, db.state), expr

    def test_missing_table_raises(self, db):
        expr = db.ref("sales")
        db.drop_table("sales")
        with pytest.raises(UnknownTableError):
            db.evaluate(expr)

    def test_index_join_counts_probes_not_scans(self, db):
        expr = Select(
            Comparison("=", Attr("custId"), Attr("cId")),
            db.ref("customer").product(db.ref("sales")),
        )
        counter = CostCounter()
        result = db.evaluate(expr, counter=counter)
        assert result == evaluate(expr, db.state)
        ops = counter.by_operator
        # The sales side is served from the index: probes + bucket rows
        # examined are charged, but not a sales scan.
        assert ops["index_probe"] == 2
        assert ops["index_join"] == 3
        assert ops["scan"] == 2  # probe side (customer) only
        assert counter.index_probes == 2


class TestAccessPathObservability:
    """The chosen access path is visible without reading source."""

    @pytest.fixture
    def big(self):
        database = Database(exec_mode="compiled")
        database.create_table("customer", ["custId", "score"], rows=[(1, "High"), (2, "Low")])
        database.create_table("sales", ["cId", "qty"], rows=[(i % 5, i) for i in range(40)])
        return database

    @staticmethod
    def joined(left, right):
        return Select(Comparison("=", Attr("custId"), Attr("cId")), left.product(right))

    def test_patched_probe_is_its_own_operator(self, big):
        changed = Literal(Bag([(1, "High")]), big.schema_of("customer"))
        logged = Literal(Bag([(1, 1)]), big.schema_of("sales"))
        counter = CostCounter()
        expr = self.joined(changed, big.ref("sales").monus(logged))
        assert big.evaluate(expr, counter=counter) == evaluate(expr, big.state)
        assert counter.by_operator["index_join_patched"] == 8  # the cId = 1 bucket
        assert "index_join" not in counter.by_operator and "monus" not in counter.by_operator
        # With nothing to subtract at run time it is the plain probe —
        # here a D that is not provably empty but evaluates to φ.
        nothing = big.ref("sales").where(Comparison("<", Attr("qty"), Const(0))).monus(big.ref("sales"))
        counter = CostCounter()
        big.evaluate(self.joined(changed, big.ref("sales").monus(nothing)), counter=counter)
        assert counter.by_operator["index_join"] == 8
        assert "index_join_patched" not in counter.by_operator

    def test_base_scan_under_a_smaller_operand_is_reason_coded(self, big):
        from repro import obs

        small = Literal(Bag([(1, "High")]), big.schema_of("customer"))
        sales = big.ref("sales")
        slice_ = Literal(big["sales"], big.schema_of("sales"))
        reasons = {
            "computed-key": MapProject(
                (Arith("+", Attr("cId"), Const(0)), Attr("qty")), sales, ("cId", "qty")
            ),
            "non-chain-operand": sales.union_all(sales),
            "literal-base": slice_.monus(Literal(Bag([(1, 1)]), big.schema_of("sales"))),
        }
        for reason, operand in reasons.items():
            with obs.observed() as stack:
                with obs.span("refresh", view="V"):
                    expr = self.joined(small, operand)
                    assert big.evaluate(expr) == evaluate(expr, big.state)
            metric = f'join_base_scans{{reason="{reason}"}}'
            assert stack.metrics.snapshot()[metric]["value"] == 1, reason
            (span,) = stack.tracer.find("refresh")
            assert span.attrs["join_base_scans"] == {reason: 1}
            exposition = stack.metrics.render_text()
            assert f"# TYPE join_base_scans counter\n{metric} 1\n" in exposition

    def test_index_served_and_smaller_operands_report_nothing(self, big):
        from repro import obs

        with obs.observed() as stack:
            # sales is index-served; customer (2 rows) is the smaller side.
            big.evaluate(self.joined(big.ref("customer"), big.ref("sales")))
            # A scanned operand that is not the larger one is no finding.
            pair = Literal(Bag([(1, 1), (2, 3)]), big.schema_of("sales"))
            big.evaluate(self.joined(big.ref("customer").union_all(big.ref("customer")), pair))
        assert not [name for name in stack.metrics.snapshot() if name.startswith("join_base_scans")]
