"""Randomized engine equivalence grid.

Seeded random core-algebra queries over seeded random databases,
evaluated under every execution engine across rounds of random updates
(over-deletes included, plus an empty-delta round).  The interpreted
engine is the oracle; compiled and sqlite must agree with
it query-for-query and table-for-table after every round.  This is the
adversarial complement to the workload-shaped checks in
``test_oracle.py``: the generator reaches operator combinations (deep
monus stacks, self-products, duplicate-heavy projections) no curated
workload exercises.
"""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.expr import DupElim, Literal, Monus
from repro.exec import MODES
from repro.storage.database import Database
from repro.workloads.randgen import RandomExpressionGenerator

ENGINES = tuple(mode for mode in MODES if mode != "interpreted")


def clone_for(mode, source):
    db = Database(exec_mode=mode)
    for name in source.external_tables():
        db.create_table(name, source.schema_of(name).attributes, rows=[])
        db.set_table(name, source[name])
    return db


@pytest.mark.parametrize("seed", range(8))
def test_randomized_queries_and_updates_agree(seed):
    gen = RandomExpressionGenerator(seed, tables=3, max_rows=8)
    oracle = gen.database()
    queries = [gen.query(oracle, depth=4) for __ in range(4)]
    engines = {mode: clone_for(mode, oracle) for mode in ENGINES}

    for round_index in range(4):
        expected = [oracle.evaluate(query) for query in queries]
        for mode, db in engines.items():
            for query, want in zip(queries, expected):
                got = db.evaluate(query)
                assert got == want, f"seed={seed} round={round_index} engine={mode}"

        patches = {}
        for name in oracle.external_tables():
            schema = oracle.schema_of(name)
            if round_index == 2:
                # An empty-delta round: refresh with nothing pending must
                # be a no-op on every engine's caches and mirrors.
                delete, insert = Bag.empty(), Bag.empty()
            else:
                # gen.bag deletes are NOT subbags — over-deletes clamp.
                delete, insert = gen.bag(schema.arity, 4), gen.bag(schema.arity, 4)
            patches[name] = (Literal(delete, schema), Literal(insert, schema))
        oracle.apply(patches=patches)
        for db in engines.values():
            db.apply(patches=patches)
        for mode, db in engines.items():
            for name in oracle.external_tables():
                assert db[name] == oracle[name], f"seed={seed} round={round_index} engine={mode}"


@pytest.mark.parametrize("mode", ENGINES)
def test_monus_edge_cases_agree(mode):
    gen = RandomExpressionGenerator(99, tables=2, max_rows=6)
    oracle = gen.database()
    db = clone_for(mode, oracle)
    name = next(iter(oracle.external_tables()))
    schema = oracle.schema_of(name)
    ref = oracle.ref(name)
    cases = [
        Monus(ref, ref),  # self-monus: always empty
        Monus(ref, DupElim(ref)),  # multiplicity arithmetic, not set difference
        Monus(DupElim(ref), ref),  # clamps at zero, never negative
        Monus(ref, Literal(Bag.empty(), schema)),  # identity
        Monus(Literal(Bag.empty(), schema), ref),  # empty stays empty
    ]
    for expr in cases:
        assert db.evaluate(expr) == oracle.evaluate(expr)
