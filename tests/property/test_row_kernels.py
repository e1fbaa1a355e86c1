"""The compiled engine's row kernels ≡ the per-row loops they replaced.

Every key and projection the compiled engine reads goes through
:func:`repro.exec.kernels.row_getter`; hash indexes are built and patched
by one tight loop each (``HashIndex.build`` / ``apply_delta``); a fused
``σ``/``Π``/map chain runs as one precompiled callable.  Each is held here
to the spelled-out reference it replaced:

* ``row_getter(p)(row) == tuple(row[i] for i in p)`` for widths 0–3,
  repeated positions included — same values, same types, always a tuple;
* ``HashIndex.build`` buckets equal a per-row get-and-add build's;
* random patch sequences — over-deletes and deletes of absent rows
  included — applied through ``IndexManager.on_patch`` and probed at
  random points equal a fresh reference build of the patched table;
* a random chain over a stored table evaluated by the compiled engine
  equals the interpreted evaluator's answer.

Values cover ``None``, ``True``, ``1``, ``1.0``, negatives and strings.
``1``, ``1.0`` and ``True`` hash equal, so as keys they share one bucket,
and as rows they are one row of a bag — as they always were.  A build
also keeps the types of the keys and rows it stores: whichever spelling
the table iterates first represents them.  (A patched index compares
equal, not spelling for spelling: its buckets were opened by earlier
rows, as they always were.)

Seeds: ``tests/property/gen.py``'s matrix (``REPRO_TEST_SEED`` overrides).
"""

from __future__ import annotations

import random

import pytest
from tests.property.gen import _seeds

from repro.algebra.bag import Bag
from repro.algebra.evaluation import evaluate
from repro.algebra.expr import MapProject, rename
from repro.algebra.predicates import And, Arith, Attr, Comparison, Const
from repro.exec.indexes import HashIndex, IndexManager
from repro.exec.kernels import row_getter
from repro.storage.database import Database

CASES_PER_SEED = 60

#: Chains are cheap and their step combinations many.
CHAINS_PER_SEED = 250

VALUES = (None, True, False, 1, 1.0, 0, -1, -2.5, 2, "1", "a", "")

ARITY = 3


def value(rng: random.Random):
    return rng.choice(VALUES)


def row(rng: random.Random, arity: int = ARITY) -> tuple:
    return tuple(value(rng) for _ in range(arity))


def bag(rng: random.Random, rows: int) -> Bag:
    counts: dict[tuple, int] = {}
    for _ in range(rng.randint(0, rows)):
        image = row(rng)
        counts[image] = counts.get(image, 0) + rng.randint(1, 3)
    return Bag.from_counts(counts)


def positions(rng: random.Random, width: int) -> tuple[int, ...]:
    """``width`` key positions, repeats allowed."""
    return tuple(rng.randrange(ARITY) for _ in range(width))


def reference_key(row: tuple, positions: tuple[int, ...]) -> tuple:
    return tuple(row[position] for position in positions)


def reference_buckets(positions: tuple[int, ...], table: Bag) -> dict:
    buckets: dict[tuple, dict[tuple, int]] = {}
    for image, count in table.items():
        bucket = buckets.setdefault(reference_key(image, positions), {})
        bucket[image] = bucket.get(image, 0) + count
    return buckets


def typed(buckets: dict) -> list:
    """Buckets with the types of every stored key and row spelled out."""
    return [
        (tuple(map(type, key)), [(tuple(map(type, image)), count) for image, count in bucket.items()])
        for key, bucket in buckets.items()
    ]


def assert_same_buckets(actual: HashIndex, expected: dict, case: str) -> None:
    assert actual._buckets == expected, case
    assert typed(actual._buckets) == typed(expected), case


@pytest.mark.parametrize("seed", _seeds())
def test_getter_is_the_generator(seed):
    rng = random.Random(seed)
    for case in range(CASES_PER_SEED):
        for width in range(4):
            keys = positions(rng, width)
            image = row(rng)
            got = row_getter(keys)(image)
            expected = reference_key(image, keys)
            assert type(got) is tuple, f"seed={seed} case={case} width={width}"
            assert got == expected, f"seed={seed} case={case} width={width}"
            assert list(map(type, got)) == list(map(type, expected)), f"seed={seed} case={case}"


@pytest.mark.parametrize("seed", _seeds())
def test_build_is_the_per_row_build(seed):
    rng = random.Random(seed)
    for case in range(CASES_PER_SEED):
        table = bag(rng, 12)
        for width in range(4):
            keys = positions(rng, width)
            index = HashIndex.build(keys, table)
            assert_same_buckets(index, reference_buckets(keys, table), f"seed={seed} case={case} key={keys}")
            # Equal-hashing probes find what they found before.
            for probe in ((1,) * width, (True,) * width, (1.0,) * width, (None,) * width):
                assert index.lookup(probe) == reference_buckets(keys, table).get(probe, {})


@pytest.mark.parametrize("seed", _seeds())
def test_drained_patches_are_a_fresh_build(seed):
    rng = random.Random(seed)
    for case in range(CASES_PER_SEED):
        table = bag(rng, 10)
        manager = IndexManager()
        keyed = [positions(rng, width) for width in range(4)]
        for keys in keyed:
            manager.get("T", keys, table)
        for step in range(rng.randint(1, 12)):
            # Over-deletes: rows of the table with more copies than it
            # holds, and rows it does not hold at all.
            delete_counts: dict[tuple, int] = {}
            for image, count in table.items():
                if rng.random() < 0.3:
                    delete_counts[image] = count + rng.randint(-1, 2) or 1
            for image, count in bag(rng, 3).items():
                delete_counts[image] = delete_counts.get(image, 0) + count
            delete, insert = Bag.from_counts(delete_counts), bag(rng, 4)
            table = table.patch(delete, insert)
            manager.on_patch("T", delete, insert)
            if rng.random() < 0.4:
                keys = rng.choice(keyed)
                label = f"seed={seed} case={case} step={step} key={keys}"
                assert manager.get("T", keys, table)._buckets == reference_buckets(keys, table), label
        for keys in keyed:
            label = f"seed={seed} case={case} final key={keys}"
            assert manager.get("T", keys, table)._buckets == reference_buckets(keys, table), label


def chain(rng: random.Random, db: Database):
    """A random σ/Π/map chain over ``T(a, b, c)``: renames, projections
    (repeats and reorders), filters, map terms and column-only maps."""
    expr = db.ref("T")
    for _ in range(rng.randint(1, 5)):
        names = expr.schema().attributes
        pick = rng.random()
        if pick < 0.3:
            column = rng.choice(names)
            op = rng.choice(("=", "!=", "<", ">="))
            predicate = Comparison(op, Attr(column), Const(value(rng)))
            if rng.random() < 0.3:
                predicate = And(predicate, Comparison("!=", Attr(rng.choice(names)), Const(None)))
            expr = expr.where(predicate)
        elif pick < 0.55:
            kept = [rng.choice(names) for _ in range(rng.randint(1, len(names)))]
            expr = expr.project(list(dict.fromkeys(kept)))
        elif pick < 0.7:
            expr = rename(expr, tuple(f"{name}_{rng.randrange(100)}" for name in names))
        else:
            terms = []
            for _ in range(rng.randint(1, 3)):
                column = Attr(rng.choice(names))
                terms.append(column if rng.random() < 0.6 else Arith("*", column, Const(1)))
            fresh = tuple(f"m{index}_{rng.randrange(100)}" for index in range(len(terms)))
            expr = MapProject(tuple(terms), expr, fresh)
    return expr


@pytest.mark.parametrize("seed", _seeds())
def test_fused_chain_is_the_interpreted_chain(seed):
    rng = random.Random(seed)
    for case in range(CHAINS_PER_SEED):
        numeric = [tuple(rng.choice((None, True, 1, 1.0, 0, -1, 2, -2.5)) for _ in range(ARITY)) for _ in range(12)]
        db = Database(exec_mode="compiled")
        db.create_table("T", ("a", "b", "c"), rows=numeric)
        expr = chain(rng, db)
        compiled = db.evaluate(expr)
        expected = evaluate(expr, db.state)
        assert compiled == expected, f"seed={seed} case={case}: {expr}"
        assert sorted(map(repr, compiled.items())) == sorted(map(repr, expected.items())), f"seed={seed} case={case}"
