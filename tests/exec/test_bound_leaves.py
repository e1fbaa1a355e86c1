"""Bound leaves: one binding per call, on every engine, failing closed.

A :class:`~repro.algebra.expr.Bound` leaf holds no bag; the call
supplies it (``evaluate(expr, binding={name: bag})``), on the same
binding a :class:`~repro.algebra.expr.KeyRestrict` leaf reads its key
set from.  Held here, on all three engines:

* an evaluation with no binding, or a binding that names other things,
  raises the coded :class:`~repro.errors.ReproError`; a bag of the wrong
  arity is a :class:`~repro.errors.SchemaError` *before* anything
  executes — even when the leaf would never have been reached;
* ``differentiate`` and ``FactoredSubstitution.apply`` refuse a query
  that itself holds such a leaf;
* two evaluations at identical table versions under different bags
  never share a memo (the stale-memo hazard);
* bound empty, the leaf short-circuits what a statically empty literal
  would have folded away, and bound non-empty it drives the index-probe
  join exactly like the literal did.
"""

from __future__ import annotations

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Bound, Literal, Monus, Product, Select, UnionAll
from repro.algebra.predicates import Attr, Comparison
from repro.algebra.schema import Schema
from repro.core.differential import differentiate
from repro.core.substitution import FactoredSubstitution, bound_pair, pair_binding
from repro.errors import ReproError, SchemaError
from repro.exec import COMPILED, SQLITE
from repro.exec import MODES as ENGINES
from repro.storage.database import Database

DELTA = Bound("R.delete", Schema(("k", "x")))


def make_db(mode: str, rows: int = 12) -> Database:
    db = Database(exec_mode=mode)
    db.create_table("R", ("a", "b"), rows=[(i % 4, i) for i in range(rows)])
    db.create_table("E", ("a", "b"))
    return db


def join(db: Database, delta) -> Select:
    """``σ_{k = a}(delta × R)`` — a delta-side probe of R's index."""
    return Select(Comparison("=", Attr("k"), Attr("a")), Product(delta, db.ref("R")))


@pytest.mark.parametrize("mode", ENGINES)
class TestFailClosed:
    def test_no_binding_is_a_coded_error(self, mode):
        db = make_db(mode)
        with pytest.raises(ReproError, match="R.delete"):
            db.evaluate(join(db, DELTA))

    def test_another_binding_is_a_coded_error(self, mode):
        db = make_db(mode)
        for other in ({}, {"custId": frozenset([1])}, {"R.insert": Bag([(1, 1)])}):
            with pytest.raises(ReproError, match="R.delete"):
                db.evaluate(join(db, DELTA), binding=other)

    def test_a_key_set_under_the_leafs_name_is_not_a_bag(self, mode):
        db = make_db(mode)
        with pytest.raises(ReproError, match="R.delete"):
            db.evaluate(join(db, DELTA), binding={"R.delete": frozenset([(1, 1)])})

    def test_wrong_arity_is_a_schema_error_before_anything_executes(self, mode):
        db = make_db(mode)
        wrong = {"R.delete": Bag([(1, 2, 3)])}
        # ``E`` is empty, so no engine would ever read the leaf: the
        # binding is still held against it first.
        unreachable = Product(db.ref("E"), DELTA)
        with pytest.raises(SchemaError, match="arity 3"):
            db.evaluate(unreachable, binding=wrong)
        before = {name: db.version_of(name) for name in db.table_names()}
        with pytest.raises(SchemaError, match="arity 3"):
            db.apply(patches={"R": (DELTA, Literal(Bag.empty(), DELTA.schema()))}, binding=wrong)
        assert before == {name: db.version_of(name) for name in db.table_names()}

    def test_bound_evaluation_equals_the_literal(self, mode):
        db = make_db(mode)
        bag = Bag([(1, "x"), (1, "x"), (3, "y"), (9, "z")])
        expected = db.evaluate(join(db, Literal(bag, DELTA.schema())))
        assert db.evaluate(join(db, DELTA), binding={"R.delete": bag}) == expected
        assert expected  # the join selects rows


class TestRewritesRefuse:
    def test_differentiate_refuses_a_query_holding_the_leaf(self):
        db = make_db(COMPILED)
        eta = FactoredSubstitution.bound({"R": db.schema_of("R")})
        with pytest.raises(ReproError, match="bound leaf"):
            differentiate(eta, UnionAll(db.ref("R"), Bound("other", db.schema_of("R"))))

    def test_substitution_refuses_a_query_holding_the_leaf(self):
        db = make_db(COMPILED)
        eta = FactoredSubstitution.bound({"R": db.schema_of("R")})
        with pytest.raises(ReproError, match="bound leaf"):
            eta.apply(Monus(db.ref("R"), Bound("other", db.schema_of("R"))))

    def test_plain_substitution_leaves_the_leaf_alone(self):
        db = make_db(COMPILED)
        leaf = Bound("other", db.schema_of("R"))
        assert Monus(db.ref("R"), leaf).substitute({"R": db.ref("E")}) == Monus(db.ref("E"), leaf)

    def test_bound_substitution_is_the_literal_one_under_its_binding(self):
        db = make_db(COMPILED)
        deltas = {"R": (Bag([(0, 0)]), Bag([(7, 7), (7, 7)]))}
        schemas = {"R": db.schema_of("R")}
        query = db.ref("R")
        literal = db.evaluate(FactoredSubstitution.literal(deltas, schemas).apply(query))
        bound = db.evaluate(
            FactoredSubstitution.bound(schemas).apply(query), binding=pair_binding(deltas)
        )
        assert bound == literal
        assert bound_pair("R", schemas["R"])[0].name in pair_binding(deltas)


@pytest.mark.parametrize("mode", (COMPILED, SQLITE))
class TestNoStaleMemo:
    """Same expression, same table versions, another bag: another answer."""

    def test_two_bindings_at_one_version_do_not_share_a_memo(self, mode):
        db = make_db(mode)
        expr = join(db, DELTA)
        versions = {name: db.version_of(name) for name in db.table_names()}
        first = db.evaluate(expr, binding={"R.delete": Bag([(1, "x")])})
        second = db.evaluate(expr, binding={"R.delete": Bag([(2, "y")])})
        again = db.evaluate(expr, binding={"R.delete": Bag([(1, "x")])})
        assert versions == {name: db.version_of(name) for name in db.table_names()}
        assert {row[0] for row in first} == {1}
        assert {row[0] for row in second} == {2}
        assert again == first

    def test_an_equal_bag_is_a_memo_hit(self, mode):
        db = make_db(mode)
        expr = join(db, DELTA)
        db.evaluate(expr, binding={"R.delete": Bag([(1, "x")])})
        counter = CostCounter()
        db.evaluate(expr, counter=counter, binding={"R.delete": Bag([(1, "x")])})
        assert counter.memo_hits >= 1
        assert counter.tuples_out == 0


@pytest.mark.parametrize("mode", (COMPILED,))
class TestLowering:
    def test_one_plan_serves_every_binding(self, mode):
        db = make_db(mode)
        expr = join(db, DELTA)
        db.prime(expr)
        plans = db.executor.cached_plans
        counter = CostCounter()
        for key in range(4):
            db.evaluate(expr, counter=counter, binding={"R.delete": Bag([(key, "x")])})
        assert db.executor.cached_plans == plans
        assert counter.plan_misses == 0

    def test_the_bound_delta_probes_the_base_tables_index(self, mode):
        counts = []
        for rows in (40, 4_000):
            db = make_db(mode, rows)
            expr = join(db, DELTA)
            db.prime(expr)
            counter = CostCounter()
            db.evaluate(expr, counter=counter, binding={"R.delete": Bag([(77, "x"), (78, "y")])})
            assert "scan" not in counter.by_operator
            counts.append(counter.by_operator)
        assert counts[0] == counts[1]
        assert counts[0]["index_probe"] == 2

    def test_bound_empty_short_circuits_like_a_folded_literal(self, mode):
        db = make_db(mode)
        rest = Monus(db.ref("R"), Bound("R.insert", db.schema_of("R")))
        expr = Select(Comparison("=", Attr("k"), Attr("a")), Product(DELTA, rest))
        db.prime(expr)
        empty = Bag.empty()
        counter = CostCounter()
        assert not db.evaluate(expr, counter=counter, binding={"R.delete": empty, "R.insert": empty})
        assert counter.tuples_out == 0
        # ``R ∸ φ``: the probed buckets need no correction (the run-time skip).
        counter = CostCounter()
        db.evaluate(expr, counter=counter, binding={"R.delete": Bag([(1, "x")]), "R.insert": empty})
        assert "index_join" in counter.by_operator
        assert "index_join_patched" not in counter.by_operator
