"""Soundness of the delta-driven access paths against the oracle.

Figure 2's Product rule joins every delta with ``E ∸ Del(E)`` — the
*rest* of the other operand.  The compiled tier answers
``σ_p(A × (chain(R) ∸ D))`` from ``R``'s hash index, correcting each
probed bucket by ``D`` (``docs/executor.md``, "Access paths"); the
identity behind it holds for arbitrary bags, so it is checked here on
arbitrary bags: multiplicities above one, chains that merge base rows,
``D`` that is no subbag of ``chain(R)``, ``D`` rows under keys ``R`` does
not hold, residual predicates on either side and across, empty ``D``,
and ``NULL`` keys (which must keep matching whatever the interpreted
join matches today).  The interpreted evaluator is the oracle.

The second half drives keyed ``DELETE`` / ``UPDATE`` / ``SELECT`` through
the SQL front end — every one of them a fused chain carrying
``attr = const`` — on a plain and on a hash-partitioned database, and
holds the end state to the interpreted one while checking that the work
was probes, not scans.
"""

from __future__ import annotations

import random

import pytest
from tests.property.gen import _seeds, cases

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Literal, Monus, Product, Select, rename
from repro.algebra.predicates import And, Attr, Comparison, Const
from repro.algebra.schema import Schema
from repro.robustness.journal import bag_digest
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase
from repro.warehouse.manager import ViewManager

ENGINES = ("compiled",)


# ----------------------------------------------------------------------
# σ_p(A × (chain(R) ∸ D)) ≡ the interpreted evaluator's answer
# ----------------------------------------------------------------------


def _with_nulls(gen, bag: Bag, column: int) -> Bag:
    """``bag`` with ``column`` of roughly one row in four set to NULL."""
    counts: dict[tuple, int] = {}
    for row, count in bag.items():
        if gen.rng.random() < 0.25:
            row = row[:column] + (None,) + row[column + 1 :]
        counts[row] = counts.get(row, 0) + count
    return Bag.from_counts(counts)


def _case(gen, mode: str):
    """One random instance: the database and the join in both operand orders."""
    rng = gen.rng
    gen.arity = 3
    base = _with_nulls(gen, gen.bag(), 0)
    gen.arity = 2
    probe = _with_nulls(gen, gen.bag(), 0)
    # D over a wider value range than R: some rows hit chain(R) (often
    # with more copies than it holds — the floor at zero), some miss it
    # under a key R has, some sit under keys R does not have at all.
    gen.max_value += 2
    minus = _with_nulls(gen, gen.bag(), 0) if rng.random() < 0.8 else Bag.empty()
    gen.max_value -= 2

    db = Database(exec_mode=mode)
    db.create_table("R", ("a", "b", "c"), rows=base)
    db.create_table("A", ("k", "x"), rows=probe)
    db.create_table("D", ("a", "b"), rows=minus)
    # Π_{a,b} drops c, so base rows differing only in c merge into one
    # image whose copies must be summed before D is subtracted.
    chain = db.ref("R").where(Comparison("!=", Attr("c"), Const(0))).project(["a", "b"])
    removed = rename(db.ref("D"), ("a", "b")) if rng.random() < 0.5 else Literal(minus, Schema(["a", "b"]))
    rest = Monus(chain, removed)
    delta = db.ref("A") if rng.random() < 0.5 else Literal(probe, Schema(["k", "x"]))

    predicate = Comparison("=", Attr("k"), Attr("a"))
    for extra in (
        Comparison("!=", Attr("x"), Const(0)),  # delta side only
        Comparison("!=", Attr("b"), Const(1)),  # rest side only
        Comparison("<=", Attr("x"), Attr("b")),  # across
    ):
        if rng.random() < 0.5:
            predicate = And(predicate, extra)
    orders = (Select(predicate, Product(delta, rest)), Select(predicate, Product(rest, delta)))
    return db, orders, bool(minus and probe and base)


@pytest.mark.parametrize("mode", ENGINES)
def test_join_with_the_rest_matches_the_oracle(mode):
    patched = 0
    for case_id, gen in cases(max_mult=3):
        db, orders, could_patch = _case(gen, mode)
        for expr in orders:
            counter = CostCounter()
            assert db.evaluate(expr, counter=counter) == evaluate(expr, db.state), (case_id, str(expr))
            if "index_join_patched" in counter.by_operator:
                assert could_patch, case_id
                # R's index served the rest: it was never materialised.
                assert "monus" not in counter.by_operator, case_id
                patched += 1
    # The path under test ran in a good share of the cases, not in none.
    assert patched >= 40 * len(_seeds()), patched


@pytest.mark.parametrize("mode", ENGINES)
def test_rest_tracks_writes_to_every_operand(mode):
    # The same plan re-evaluated as R, D and A change underneath it: the
    # index is caught up from the deferred queue, D is re-read, and the
    # version-stamped memo must not serve a stale join.
    for case_id, gen in cases(count=20):
        db, orders, _ = _case(gen, mode)
        gen.arity = 3
        r_delete, r_insert = gen.delta(db["R"])
        gen.arity = 2
        d_delete, d_insert = gen.delta(db["D"])
        a_delete, a_insert = gen.delta(db["A"])
        for table, (delete, insert) in (
            ("R", (r_delete, r_insert)),
            ("D", (d_delete, d_insert)),
            ("A", (a_delete, a_insert)),
        ):
            schema = db.schema_of(table)
            db.apply(patches={table: (Literal(delete, schema), Literal(insert, schema))})
            for expr in orders:
                assert db.evaluate(expr) == evaluate(expr, db.state), (case_id, table)


# ----------------------------------------------------------------------
# Keyed DML and reads through sqlfront: probes, not scans
# ----------------------------------------------------------------------

ROWS = 400
VIEW = "SELECT c.k, c.tag, s.k2, s.v FROM C c, S s WHERE c.k = s.k AND c.tag = 'hot'"


def _warehouse(mode: str, layout: str) -> ViewManager:
    db = PartitionedDatabase(exec_mode=mode) if layout == "hash" else Database(exec_mode=mode)
    manager = ViewManager(db)
    manager.create_table("C", ("k", "tag"))
    manager.create_table("S", ("k", "k2", "v"))
    manager.load("C", [(k, "hot" if k % 3 == 0 else "cold") for k in range(40)])
    manager.load("S", [(i % 40, i % 7, i) for i in range(ROWS)] + [(1, 1, 1)])  # one duplicate row
    if layout == "hash":
        db.declare_partitioning("C", "k", parts=8, domain="k")
        db.declare_partitioning("S", "k", parts=8, domain="k")
    manager.define_view("V", VIEW, scenario="base_log")
    return manager


def _keyed_stream(seed: int):
    """``(kind, sql)`` steps: keyed writes, refreshes, keyed reads of S and of the view."""
    rng = random.Random(seed)
    mv = "__mv__V"
    for step in range(60):
        k, k2 = rng.randrange(42), rng.randrange(8)  # 40, 41 and k2 = 7 hit nothing
        kind = rng.choice(("delete", "delete2", "update", "insert", "read", "read2", "read_mv"))
        if kind == "delete":
            yield "write", f"DELETE FROM S WHERE k = {k}"
        elif kind == "delete2":
            yield "write", f"DELETE FROM S WHERE k = {k} AND k2 = {k2}"
        elif kind == "update":
            yield "write", f"UPDATE C SET tag = '{rng.choice(('hot', 'cold'))}' WHERE k = {k}"
        elif kind == "insert":
            yield "write", f"INSERT INTO S VALUES ({k % 40}, {k2}, {1000 + step}), ({k % 40}, {k2}, {1000 + step})"
        elif kind == "read":
            yield "read", f"SELECT v FROM S WHERE k = {k}"
        elif kind == "read2":
            yield "read", f"SELECT * FROM S WHERE k2 = {k2} AND k = {k}"
        else:
            yield "read", f"SELECT k2, v FROM {mv} WHERE k = {k}"
        if step % 9 == 8:
            yield "refresh", ""


@pytest.mark.parametrize("layout", ("plain", "hash"))
@pytest.mark.parametrize("mode", ENGINES)
def test_keyed_sql_matches_interpreted_and_probes(mode, layout):
    for seed in _seeds():
        oracle = _warehouse("interpreted", "plain")
        manager = _warehouse(mode, layout)
        counter = manager.counter
        for kind, sql in _keyed_stream(seed):
            probes, reused = counter.index_probes, counter.memo_hits
            scanned = counter.by_operator.get("scan", 0)
            if kind == "refresh":
                oracle.refresh("V")
                manager.refresh("V")
                continue
            if kind == "write":
                oracle.execute_sql(sql)
                manager.execute_sql(sql)
            else:
                assert manager.sql(sql) == oracle.sql(sql), (seed, sql)
            if "INSERT" not in sql:
                # (A statement repeated over unchanged tables is a memo hit.)
                assert counter.index_probes > probes or counter.memo_hits > reused, (seed, sql)
                # A bucket, or a partition-restricted slice — never the table.
                assert counter.by_operator.get("scan", 0) - scanned < ROWS // 2, (seed, sql)
        oracle.refresh("V")
        manager.refresh("V")
        manager.check_invariants()
        for table in ("C", "S"):
            assert bag_digest(manager.db[table]) == bag_digest(oracle.db[table]), (seed, table)
        assert bag_digest(manager.query("V")) == bag_digest(oracle.query("V")), seed
