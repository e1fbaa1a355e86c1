"""Property tests of long patch chains and of the operators' adopted results.

A table write is ``Bag.patch``: one clone of the table's dict plus the
delta.  A chain of patches that delete rows leaves deleted slots in every
result's dict, which is exactly where a copy that re-inserts row by row
and a copy that clones part ways.  Every version along a chain stays
reachable here, as a snapshot pin would keep it, and each must keep its
rows, its derived index and its independence from the dicts handed out by
``counts()``.

The operators adopt the dicts they build (``Bag._from_clean``) instead of
re-validating them through ``Bag(counts=…)``; the second half checks that
what they adopt is what the validating constructor would have made:
strictly positive counts and the same arity, ``None`` for an empty result.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.bag import Bag
from repro.exec.indexes import HashIndex

KEY = (HashIndex, (0,))


def _index(bag: Bag) -> HashIndex:
    return bag.derived(KEY, lambda held: HashIndex.build((0,), held))


def _row(rng: random.Random) -> tuple[int, int]:
    return rng.randrange(150), rng.randrange(4)


def _delta(rng: random.Random, current: Bag) -> tuple[Bag, Bag]:
    """Deletes of present rows (some beyond their count) and of absent
    ones, and inserts of fresh rows and of rows just deleted."""
    present = sorted(current.support)
    deleted = rng.sample(present, min(len(present), rng.randrange(5, 30)))
    delete = {row: rng.randrange(1, 4) for row in deleted}
    for _ in range(rng.randrange(3)):
        delete[(1000 + rng.randrange(10), 0)] = 1
    insert: dict[tuple[int, int], int] = {}
    for _ in range(rng.randrange(0, 15)):
        row = _row(rng)
        insert[row] = insert.get(row, 0) + 1
    for row in deleted[: rng.randrange(3)]:
        insert[row] = insert.get(row, 0) + 1
    return Bag(counts=delete), Bag(counts=insert)


def _expected(current: Bag, delete: Bag, insert: Bag) -> Bag:
    """``(X ∸ delete) ⊎ insert`` row by row, validated by the constructor."""
    counts = {}
    for row in current.support | delete.support | insert.support:
        counts[row] = max(current.multiplicity(row) - delete.multiplicity(row), 0) + insert.multiplicity(row)
    return Bag(counts=counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=20, max_value=32))
def test_a_dirty_patch_chain_keeps_every_held_version(seed, steps):
    rng = random.Random(seed)
    current = Bag(_row(rng) for _ in range(rng.randrange(200, 400)))
    held: list[tuple[Bag, dict]] = []
    for _ in range(steps):
        # Pin this version: its rows as a plain dict, and an index over it.
        held.append((current, {row: count for row, count in current.items()}))
        _index(current)
        delete, insert = _delta(rng, current)
        patched = current.patch(delete, insert)
        assert patched == _expected(current, delete, insert)
        assert patched == current.monus(delete).union_all(insert)
        assert patched.arity == (2 if patched else None)
        # A dict handed out by counts() is the caller's: mutating it
        # reaches neither the bag nor the next patch.
        loose = patched.counts()
        loose.clear()
        loose[(-1, -1)] = 7
        assert patched == _expected(current, delete, insert)
        for version, rows in held:
            assert {row: count for row, count in version.items()} == rows
        current = patched
    for version, rows in held:
        assert version.derived_keys() == (KEY,)
        assert _index(version)._buckets == HashIndex.build((0,), version)._buckets
        assert len(version) == sum(rows.values())


rows = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
bags = st.lists(rows, max_size=10).map(Bag)


def _results(x: Bag, y: Bag) -> dict[str, Bag]:
    return {
        "union_all": x.union_all(y),
        "monus": x.monus(y),
        "monus_self": x.monus(x),
        "select": x.select(lambda row: row[0] < 2),
        "select_none": x.select(lambda row: False),
        "project": x.project((1,)),
        "project_wide": x.project((1, 0, 1)),
        "project_nothing": x.project(()),
        "dedup": x.dedup(),
        "product": x.product(y),
        "product_empty": x.product(Bag.empty()),
        "min_": x.min_(y),
        "max_": x.max_(y),
        "max_empty": Bag.empty().max_(y),
        "except_": x.except_(y),
        "except_self": x.except_(x),
    }


@given(bags, bags)
def test_adopted_results_equal_what_the_constructor_builds(x, y):
    for name, result in _results(x, y).items():
        rebuilt = Bag(counts={row: count for row, count in result.items()})
        assert all(count > 0 for _, count in result.items()), name
        assert result == rebuilt, name
        assert result.arity == rebuilt.arity, name
        assert (result.arity is None) == (not result), name


def test_adopted_results_of_empty_operands_have_no_arity():
    x = Bag([(1, 2), (1, 2), (3, 4)])
    for name, result in _results(x, Bag.empty()).items():
        rebuilt = Bag(counts={row: count for row, count in result.items()})
        assert result.arity == rebuilt.arity, name
    for name, result in _results(Bag.empty(), x).items():
        assert result.arity == Bag(counts={row: count for row, count in result.items()}).arity, name
