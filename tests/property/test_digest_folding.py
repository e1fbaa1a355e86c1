"""The maintained table digests equal the from-scratch ones, always.

``table_digests`` on a database with a :class:`DeltaQueue` folds queued
patches into cached digests instead of re-hashing tables.  Whatever mix
of write paths ran since the last fold — patches that over-delete, empty
patches, assignments, ``set_table``, ``restore``, an ``apply`` that
fails half-way and rolls back, a drop and re-create — every table's
folded digest must equal ``bag_digest`` of its current contents.

Values are drawn so that rows collide across operands (tiny ranges) and
so that ``1``, ``1.0`` and ``True`` — one bag element, three spellings —
meet in one table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.bag import Bag
from repro.algebra.expr import Literal
from repro.algebra.schema import Schema
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import bag_digest, table_digests
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase
from repro.storage.persistence import track_deltas

TABLES = ("R", "S")
SCHEMA = Schema(["a", "b"])

values = st.sampled_from([0, 1, 2, 1.0, True, 2.5, "x", None])
rows = st.tuples(values, values)
bags = st.lists(rows, max_size=8).map(Bag)
tables = st.sampled_from(TABLES)

operations = st.one_of(
    st.tuples(st.just("patch"), tables, bags, bags),  # delete is arbitrary: over-deletes
    st.tuples(st.just("patch"), tables, st.just(Bag()), st.just(Bag())),
    st.tuples(st.just("patch_both"), bags, bags),
    st.tuples(st.just("assign"), tables, bags),
    st.tuples(st.just("set_table"), tables, bags),
    st.tuples(st.just("failed_apply"), bags, bags),
    st.tuples(st.just("recreate"), tables, bags),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("fold")),
)


def literal(bag: Bag) -> Literal:
    return Literal(bag, SCHEMA)


def assert_folded_equals_scratch(db: Database) -> None:
    assert table_digests(db) == {name: bag_digest(db[name]) for name in db.table_names()}


def run(db: Database, ops) -> None:
    saved = db.snapshot()
    for op, *args in ops:
        if op == "patch":
            name, delete, insert = args
            db.apply(patches={name: (literal(delete), literal(insert))})
        elif op == "patch_both":
            delete, insert = args
            db.apply(patches={name: (literal(delete), literal(insert)) for name in TABLES})
        elif op == "assign":
            name, bag = args
            db.apply({name: literal(bag)})
        elif op == "set_table":
            db.set_table(*args)
        elif op == "failed_apply":
            # Dies between the two installs; ``apply`` rolls the first back.
            delete, insert = args
            INJECTOR.arm("crash-mid-apply", hit=2)
            with pytest.raises(InjectedCrash):
                db.apply(patches={name: (literal(delete), literal(insert)) for name in TABLES})
            INJECTOR.reset()
        elif op == "recreate":
            name, bag = args
            db.drop_table(name)
            db.create_table(name, SCHEMA, rows=bag)
            saved = db.snapshot()  # a snapshot cannot outlive its tables
        elif op == "snapshot":
            saved = db.snapshot()
        elif op == "restore":
            db.restore(saved)
        elif op == "fold":
            assert_folded_equals_scratch(db)
    assert_folded_equals_scratch(db)


@settings(max_examples=200, deadline=None)
@given(bags, bags, st.lists(operations, max_size=12))
def test_folded_digests_equal_from_scratch_digests(r, s, ops):
    INJECTOR.reset()
    db = Database()
    db.create_table("R", SCHEMA, rows=r)
    db.create_table("S", SCHEMA, rows=s)
    track_deltas(db, "unused.db")
    try:
        run(db, ops)
    finally:
        INJECTOR.reset()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=8).map(Bag), st.data())
def test_folding_through_the_partitioned_fast_path(initial, data):
    # ``apply_parts`` commits through ``Database._install``: the fold
    # sees its patches exactly as it sees ``Database.apply``'s.
    db = PartitionedDatabase()
    db.create_table("R", SCHEMA, rows=initial)
    db.declare_partitioning("R", "a", parts=3)
    track_deltas(db, "unused.db")
    small = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=6).map(Bag)
    for _ in range(data.draw(st.integers(1, 4))):
        db.apply_parts({"R": (data.draw(small), data.draw(small))})
        if data.draw(st.booleans()):
            assert_folded_equals_scratch(db)
    assert_folded_equals_scratch(db)


@given(st.lists(rows, max_size=12), st.randoms(use_true_random=False))
def test_equal_bags_built_in_different_orders_digest_equal(items, rng):
    shuffled = list(items)
    rng.shuffle(shuffled)
    first, second = Bag(items), Bag(shuffled)
    assert first == second
    assert bag_digest(first) == bag_digest(second)


@given(bags, bags)
def test_different_bags_digest_differently(x, y):
    assert (bag_digest(x) == bag_digest(y)) == (x == y)
