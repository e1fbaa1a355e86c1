"""An index is current when its write commits.

Random runs of writes through ``Database.apply`` on a table with three
registered indexes (one key column, two, none): patches whose deletes
take more copies than the table holds or name rows it does not hold at
all, assignments of a new bag, and truncations (assignment of the empty
bag, how refresh clears a log).  After every committed write, each
registered index equals ``HashIndex.build`` of the table — bucket for
bucket, with no probe in between to catch it up — and a patch's
``index_maint`` charge is its delta's distinct rows per index.

Seeds: ``tests/property/gen.py``'s matrix (``REPRO_TEST_SEED`` overrides).
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st
from tests.property.gen import _seeds

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Literal
from repro.exec.indexes import HashIndex
from repro.storage.database import Database

KEYS = ((0,), (0, 1), ())

rows = st.tuples(st.integers(0, 3), st.integers(0, 2))
bags = st.dictionaries(rows, st.integers(1, 3), max_size=6).map(Bag.from_counts)
writes = st.one_of(
    st.tuples(st.just("patch"), bags, bags),
    st.tuples(st.just("assign"), bags, st.just(None)),
    st.tuples(st.just("truncate"), st.just(None), st.just(None)),
)


def check_run(initial: Bag, run: list[tuple]) -> None:
    db = Database(exec_mode="compiled")
    db.create_table("T", ("a", "b"), rows=list(initial))
    schema = db.schema_of("T")
    for positions in KEYS:
        db.indexes.get("T", positions, db["T"])
    for step, (kind, first, second) in enumerate(run):
        counter = CostCounter()
        if kind == "patch":
            db.apply(patches={"T": (Literal(first, schema), Literal(second, schema))}, counter=counter)
            if first or second:
                upkeep = len(KEYS) * (first.distinct_count() + second.distinct_count())
                assert counter.by_operator["index_maint"] == upkeep, f"step {step}"
        else:
            db.apply({"T": Literal(first if kind == "assign" else Bag.empty(), schema)})
        table = db["T"]
        indexes = db.indexes.indexes_on("T")
        assert sorted(index.positions for index in indexes) == sorted(KEYS), f"step {step}"
        for index in indexes:
            fresh = HashIndex.build(index.positions, table)
            assert index._buckets == fresh._buckets, f"step {step} {kind} key={index.positions}"
            assert len(index) == len(table), f"step {step}"


def test_every_committed_write_leaves_each_index_a_fresh_build():
    for seed_value in _seeds():

        @seed(seed_value)
        @settings(max_examples=60, deadline=None, database=None)
        @given(bags, st.lists(writes, min_size=1, max_size=12))
        def prop(initial, run):
            check_run(initial, run)

        prop()
