"""Unit tests for the bag kernel (Section 2.1 semantics)."""

import pytest

from repro.algebra.bag import Bag
from repro.errors import SchemaError


def bag(*rows):
    return Bag(rows)


class TestConstruction:
    def test_empty_bag_is_falsy(self):
        assert not Bag.empty()
        assert len(Bag.empty()) == 0

    def test_empty_has_no_arity(self):
        assert Bag.empty().arity is None

    def test_singleton(self):
        b = Bag.singleton((1, 2))
        assert b.multiplicity((1, 2)) == 1
        assert len(b) == 1

    def test_duplicates_accumulate(self):
        b = bag((1,), (1,), (2,))
        assert b.multiplicity((1,)) == 2
        assert b.multiplicity((2,)) == 1
        assert len(b) == 3

    def test_from_counts(self):
        b = Bag.from_counts({(1,): 3, (2,): 0, (3,): -1})
        assert b.multiplicity((1,)) == 3
        assert (2,) not in b
        assert (3,) not in b

    def test_mixed_arity_rejected(self):
        with pytest.raises(SchemaError):
            bag((1,), (1, 2))

    def test_non_tuple_rows_rejected(self):
        with pytest.raises(SchemaError):
            Bag([[1, 2]])
        with pytest.raises(SchemaError):
            Bag.from_counts({"x": 1})

    def test_counts_returns_fresh_dict(self):
        b = bag((1,))
        counts = b.counts()
        counts[(1,)] = 99
        assert b.multiplicity((1,)) == 1


class TestIntrospection:
    def test_iteration_yields_each_copy(self):
        b = bag((1,), (1,), (2,))
        assert sorted(b) == [(1,), (1,), (2,)]

    def test_items_yields_multiplicities(self):
        b = bag((1,), (1,))
        assert dict(b.items()) == {(1,): 2}

    def test_support(self):
        assert bag((1,), (1,), (2,)).support == frozenset({(1,), (2,)})

    def test_distinct_count(self):
        assert bag((1,), (1,), (2,)).distinct_count() == 2

    def test_contains(self):
        b = bag((1,))
        assert (1,) in b
        assert (2,) not in b

    def test_equality_ignores_insertion_order(self):
        assert bag((1,), (2,)) == bag((2,), (1,))

    def test_equality_respects_multiplicity(self):
        assert bag((1,), (1,)) != bag((1,))

    def test_hash_consistent_with_equality(self):
        assert hash(bag((1,), (2,))) == hash(bag((2,), (1,)))

    def test_equality_with_non_bag(self):
        assert bag((1,)) != [(1,)]

    def test_repr_mentions_multiplicity(self):
        assert "x2" in repr(bag((1,), (1,)))


class TestSubbag:
    def test_empty_is_subbag_of_everything(self):
        assert Bag.empty().issubbag(bag((1,)))

    def test_reflexive(self):
        b = bag((1,), (1,))
        assert b.issubbag(b)

    def test_multiplicity_matters(self):
        assert bag((1,)).issubbag(bag((1,), (1,)))
        assert not bag((1,), (1,)).issubbag(bag((1,)))

    def test_le_operator(self):
        assert bag((1,)) <= bag((1,), (2,))


class TestUnionAll:
    def test_multiplicities_add(self):
        assert bag((1,)).union_all(bag((1,), (2,))) == bag((1,), (1,), (2,))

    def test_identity(self):
        b = bag((1,))
        assert b.union_all(Bag.empty()) == b
        assert Bag.empty().union_all(b) == b

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            bag((1,)).union_all(bag((1, 2)))


class TestMonus:
    def test_truncated_subtraction(self):
        left = bag((1,), (1,), (2,))
        right = bag((1,), (2,), (2,))
        assert left.monus(right) == bag((1,))

    def test_floors_at_zero(self):
        assert bag((1,)).monus(bag((1,), (1,))) == Bag.empty()

    def test_self_cancellation(self):
        b = bag((1,), (1,), (2,))
        assert b.monus(b) == Bag.empty()

    def test_monus_empty(self):
        b = bag((1,))
        assert b.monus(Bag.empty()) == b

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            bag((1,)).monus(bag((1, 2)))


class TestDedup:
    def test_all_multiplicities_become_one(self):
        assert bag((1,), (1,), (2,)).dedup() == bag((1,), (2,))

    def test_idempotent(self):
        b = bag((1,), (1,))
        assert b.dedup().dedup() == b.dedup()

    def test_empty(self):
        assert Bag.empty().dedup() == Bag.empty()


class TestProduct:
    def test_tuples_concatenate(self):
        assert bag((1,)).product(bag(("a",))) == bag((1, "a"))

    def test_multiplicities_multiply(self):
        left = bag((1,), (1,))
        right = bag(("a",), ("a",), ("b",))
        result = left.product(right)
        assert result.multiplicity((1, "a")) == 4
        assert result.multiplicity((1, "b")) == 2

    def test_product_with_empty(self):
        assert bag((1,)).product(Bag.empty()) == Bag.empty()
        assert Bag.empty().product(bag((1,))) == Bag.empty()


class TestSelect:
    def test_predicate_filters_rows(self):
        b = bag((1,), (2,), (3,))
        assert b.select(lambda row: row[0] > 1) == bag((2,), (3,))

    def test_keeps_multiplicity(self):
        b = bag((1,), (1,), (2,))
        assert b.select(lambda row: row[0] == 1) == bag((1,), (1,))


class TestProject:
    def test_positional_projection(self):
        b = bag((1, "a"), (2, "b"))
        assert b.project((1,)) == bag(("a",), ("b",))

    def test_does_not_eliminate_duplicates(self):
        b = bag((1, "a"), (1, "b"))
        assert b.project((0,)) == bag((1,), (1,))

    def test_repeated_positions(self):
        assert bag((1, 2)).project((0, 0)) == bag((1, 1))

    def test_out_of_range_position(self):
        with pytest.raises(SchemaError):
            bag((1,)).project((3,))

    def test_empty_projection_collapses_to_unit_rows(self):
        b = bag((1,), (2,))
        assert b.project(()) == Bag.from_counts({(): 2})


class TestDerivedOps:
    def test_min_per_row_minimum(self):
        left = bag((1,), (1,), (2,))
        right = bag((1,), (2,), (2,))
        assert left.min_(right) == bag((1,), (2,))

    def test_min_matches_paper_definition(self):
        # Q1 min Q2 = Q1 ∸ (Q1 ∸ Q2)
        left = bag((1,), (1,), (2,), (3,))
        right = bag((1,), (2,), (2,))
        assert left.min_(right) == left.monus(left.monus(right))

    def test_max_per_row_maximum(self):
        left = bag((1,), (1,), (2,))
        right = bag((1,), (2,), (2,))
        result = left.max_(right)
        assert result.multiplicity((1,)) == 2
        assert result.multiplicity((2,)) == 2

    def test_max_matches_paper_definition(self):
        # Q1 max Q2 = Q1 ⊎ (Q2 ∸ Q1)
        left = bag((1,), (1,), (3,))
        right = bag((1,), (2,), (2,))
        assert left.max_(right) == left.union_all(right.monus(left))

    def test_except_removes_all_copies(self):
        left = bag((1,), (1,), (2,))
        right = bag((1,))
        assert left.except_(right) == bag((2,))

    def test_except_differs_from_monus(self):
        left = bag((1,), (1,))
        right = bag((1,))
        assert left.except_(right) == Bag.empty()
        assert left.monus(right) == bag((1,))


class TestPatch:
    def test_patch_is_monus_then_union(self):
        bag = Bag([(1,), (1,), (2,)])
        delete, insert = Bag([(1,), (3,)]), Bag([(2,), (4,)])
        assert bag.patch(delete, insert) == bag.monus(delete).union_all(insert)

    def test_empty_patch_returns_the_bag_itself(self):
        bag = Bag([(1,), (2,)])
        kept = bag.derived("index", lambda _bag: object())
        same = bag.patch(Bag.empty(), Bag.empty())
        assert same is bag
        assert same.derived("index", lambda _bag: object()) is kept
        assert Bag.empty().patch(Bag.empty(), Bag.empty()) == Bag.empty()

    def test_a_delta_that_cancels_is_still_a_new_bag(self):
        bag = Bag([(1,)])
        assert bag.patch(Bag([(1,)]), Bag([(1,)])) == bag
        assert bag.patch(Bag([(1,)]), Bag([(1,)])) is not bag
