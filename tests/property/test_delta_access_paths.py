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

A constant conjunct on the index-served side (``b = const``, in the
join's predicate or in the chain's own filter) joins the index key:
the probe looks up ``(k, const)``, so it must examine exactly the rows
whose ``b`` is hash-equal to the constant — ``1``, ``1.0`` and ``TRUE``
share a bucket, as they compare equal — while ``NULL`` in that column
matches no constant, and ``b = ?`` stays a filter.

When both operands can be served from an index, the one with fewer rows
after its own pinned filters drives, read as one bucket: the choice is
checked against the rule itself and the answer against the oracle, live
and at a pin, for a pinned ``chain(R)`` and ``chain(R) ∸ D`` in either
operand order, an empty bucket and a ``NULL`` pin — and at a pin the
choice derives no index.

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

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Expr, Literal, MapProject, Monus, Product, Select, rename
from repro.algebra.predicates import And, Arith, Attr, Comparison, Const, Param
from repro.algebra.schema import Schema
from repro.exec.compiler import Compiler, PEquiJoin
from repro.exec.indexes import FROZEN_INDEXES
from repro.robustness.journal import bag_digest
from repro.serve.snapshots import SnapshotRegistry
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
# attr = const on the index-served side: part of the probed key
# ----------------------------------------------------------------------

#: What the pinned column ``b`` holds: the hash-equal ``1`` / ``1.0`` /
#: ``TRUE``, other numbers, strings (one that looks like a number), NULL.
PIN_VALUES = (0, 1, 1.0, True, False, 2, "1", "High", "Low", None)
#: What a conjunct pins ``b`` to.
PIN_CONSTANTS = (1, 1.0, True, 0, 2, "1", "High")
#: A conjunct on the delta side only: it drops probes before any lookup.
DELTA_FILTER = Comparison("!=", Attr("x"), Const(0))


def _pinned_rows(gen, count: int, columns) -> Bag:
    counts: dict[tuple, int] = {}
    for _ in range(count):
        row = tuple(gen.rng.choice(column) for column in columns)
        counts[row] = counts.get(row, 0) + gen.rng.randint(1, 3)
    return Bag.from_counts(counts)


def _pinned_case(gen, pin):
    """``σ_{k = a ∧ pin [∧ x ≠ 0]}(A × rest)`` in both operand orders, ``rest``
    a chain over ``R(a, b, c)``, ``∸ D`` or not.

    ``pin`` is the conjunct on ``b``.  The chain is ``R`` itself, a
    filter pinning ``c`` to 1, a projection that merges rows differing
    in ``c``, or a map computing ``c + 1`` (a column no pin reaches).
    ``D`` is empty, random (rows under keys and values ``R`` lacks), or
    an over-delete of the chain's own images.
    """
    rng = gen.rng
    keys = (0, 1, 2, None)
    base = _pinned_rows(gen, rng.randint(0, 14), (keys, PIN_VALUES, (0, 1, 2)))
    probe = _pinned_rows(gen, rng.randint(1, 6), (keys, (0, 1, 2)))
    db = Database(exec_mode="compiled")
    db.create_table("R", ("a", "b", "c"), rows=base)
    chain: Expr = db.ref("R")
    shape = rng.choice(("identity", "filtered", "projecting", "mapped"))
    if shape == "filtered":
        chain = chain.where(Comparison("=", Attr("c"), Const(1)))
    elif shape == "projecting":
        chain = chain.project(["a", "b"])
    elif shape == "mapped":
        chain = MapProject((Attr("a"), Attr("b"), Arith("+", Attr("c"), Const(1))), chain, ("a", "b", "d"))
    schema = chain.schema()
    minus = None
    kind = rng.choice(("none", "random", "over-delete"))
    if kind == "random":
        minus = _pinned_rows(gen, rng.randint(1, 6), (keys, PIN_VALUES, (0, 1, 2, 3))[: schema.arity])
    elif kind == "over-delete":
        # More copies of chain images than the chain holds: floored at zero.
        images = evaluate(chain, db.state)
        minus = Bag.from_counts({row: count + rng.randint(0, 2) for row, count in images.items() if rng.random() < 0.6})
    rest = chain if minus is None else Monus(chain, Literal(minus, schema))
    delta = Literal(probe, Schema(["k", "x"]))
    predicate = And(Comparison("=", Attr("k"), Attr("a")), pin)
    if rng.random() < 0.5:
        predicate = And(predicate, DELTA_FILTER)
    orders = (Select(predicate, Product(delta, rest)), Select(predicate, Product(rest, delta)))
    return db, orders, shape


def _rest_side(expr):
    """The compiled join's ``rest`` operand (the only index-servable one)."""
    join = Compiler({}).compile(expr)
    assert isinstance(join, PEquiJoin)
    rest = join.right if isinstance(expr.child.left, Literal) else join.left
    assert rest.indexable
    return rest


def _expected_key(shape: str, constant) -> tuple[tuple[int, ...], tuple]:
    """The served side's index key and pinned values: ``a``, then the pinned
    ``b`` (when ``constant`` is not None) and ``c`` (the filtered chain)."""
    pins = {} if constant is None else {1: constant}
    if shape == "filtered":
        pins[2] = 1
    extra = tuple(sorted(pins))
    return (0, *extra), tuple(pins[column] for column in extra)


def _examined(db, expr, rest) -> int:
    """Base rows a probe join must examine: per distinct probe row its filter
    keeps, the distinct rows of ``R`` whose key columns equal the probe's
    join key followed by the pinned values."""
    probe = expr.child.left if isinstance(expr.child.left, Literal) else expr.child.right
    filtered = expr.predicate.right == DELTA_FILTER
    keys = [tuple(row[position] for position in rest.base_key_positions) for row, __ in db["R"].items()]
    total = 0
    for (k, x), __ in probe.bag.items():
        if not filtered or x != 0:
            total += keys.count((k, *rest.pinned))
    return total


@pytest.mark.parametrize("constant", PIN_CONSTANTS)
def test_a_constant_conjunct_joins_the_probed_key(constant):
    for case_id, gen in cases(count=30):
        db, orders, shape = _pinned_case(gen, Comparison("=", Attr("b"), Const(constant)))
        for expr in orders:
            rest = _rest_side(expr)
            assert (rest.base_key_positions, rest.pinned) == _expected_key(shape, constant), (case_id, shape)
            counter = CostCounter()
            assert db.evaluate(expr, counter=counter) == evaluate(expr, db.state), (case_id, shape, str(expr))
            # Only the (k, constant) buckets were examined: rows whose b
            # equals the constant (1, 1.0 and TRUE alike), never NULL.
            ops = counter.by_operator
            examined = ops.get("index_join", 0) + ops.get("index_join_patched", 0)
            assert examined == _examined(db, expr, rest), (case_id, shape, ops)


@pytest.mark.parametrize(
    "pin, constant",
    (
        (Comparison("!=", Attr("b"), Const(1)), None),  # not an equality
        (Comparison("=", Attr("b"), Const(None)), None),  # false for every row: pins nothing
        (Comparison("=", Const("High"), Attr("b")), "High"),  # constant on the left
    ),
    ids=("inequality", "null", "reversed"),
)
def test_other_conjuncts_on_the_pinned_column(pin, constant):
    # The filtered chain's own c = 1 pins c whatever the conjunct on b is.
    for case_id, gen in cases(count=30):
        db, orders, shape = _pinned_case(gen, pin)
        for expr in orders:
            rest = _rest_side(expr)
            assert (rest.base_key_positions, rest.pinned) == _expected_key(shape, constant), (case_id, shape)
            assert db.evaluate(expr) == evaluate(expr, db.state), (case_id, shape, str(expr))


def _param_in_chain(rest: Expr) -> Expr:
    """``rest`` with ``b = ?`` as the chain's own filter (under ``∸ D``)."""
    pin = Comparison("=", Attr("b"), Param(0))
    if isinstance(rest, Monus):
        return Monus(Select(pin, rest.left), rest.right)
    return Select(pin, rest)


def test_a_parameter_stays_a_filter():
    # b = ? is the call's value, and one plan serves every value: it is
    # never part of the index key, in the join's predicate or the chain's.
    for case_id, gen in cases(count=30):
        db, orders, shape = _pinned_case(gen, Comparison("=", Attr("b"), Param(0)))
        for expr in orders:
            left, right = expr.child.left, expr.child.right
            if isinstance(left, Literal):
                right = _param_in_chain(right)
            else:
                left = _param_in_chain(left)
            for query in (expr, Select(expr.predicate, Product(left, right))):
                rest = _rest_side(query)
                assert (rest.base_key_positions, rest.pinned) == _expected_key(shape, None), (case_id, shape)
                for value in (1, True, "High", None):
                    binding = {"?0": value}
                    assert db.evaluate(query, binding=binding) == evaluate(query, db.state, binding=binding), (
                        case_id,
                        shape,
                        value,
                    )


# ----------------------------------------------------------------------
# A pinned side drives when its bucket is the smaller side
# ----------------------------------------------------------------------

#: What the driving side pins ``b`` to: :data:`PIN_CONSTANTS`, a value no
#: row holds (an empty bucket), and ``NULL`` (false for every row: no pin).
DRIVING_PINS = (*PIN_CONSTANTS, "Absent", None)


def _driving_case(gen):
    """``σ_{a = k ∧ b = pin}(rest × S)`` in both operand orders, both
    operands stored: ``rest`` is ``chain(R)`` or ``chain(R) ∸ D`` with a
    ``D`` that is no subbag of ``chain(R)`` (over-deletes of its images
    and rows it lacks).  Returns the database, the pin and the orders."""
    rng = gen.rng
    keys = (0, 1, 2, None)
    db = Database(exec_mode="compiled")
    db.create_table("R", ("a", "b", "c"), rows=_pinned_rows(gen, rng.randint(0, 14), (keys, PIN_VALUES, (0, 1, 2))))
    db.create_table("S", ("k", "x"), rows=_pinned_rows(gen, rng.randint(1, 10), (keys, (0, 1, 2))))
    chain: Expr = db.ref("R") if rng.random() < 0.5 else db.ref("R").project(["a", "b"])
    rest = chain
    if rng.random() < 0.6:
        schema = chain.schema()
        images = evaluate(chain, db.state)
        counts = {row: count + rng.randint(0, 2) for row, count in images.items() if rng.random() < 0.5}
        stray = _pinned_rows(gen, rng.randint(1, 4), (keys, PIN_VALUES, (0, 1, 2, 3))[: schema.arity])
        for row, count in stray.items():
            counts[row] = counts.get(row, 0) + count
        rest = Monus(chain, Literal(Bag.from_counts(counts), schema))
    pin = rng.choice(DRIVING_PINS)
    predicate = And(Comparison("=", Attr("a"), Attr("k")), Comparison("=", Attr("b"), Const(pin)))
    orders = (Select(predicate, Product(rest, db.ref("S"))), Select(predicate, Product(db.ref("S"), rest)))
    return db, pin, orders


def _noted_sides(run, expr, state) -> tuple[dict[str, int], dict]:
    """``run(expr)`` under a span, held to the oracle over ``state``; the
    ``join_driving_sides`` the join noted on the span, and the metrics."""
    with obs.observed() as stack:
        with obs.span("read"):
            assert run(expr) == evaluate(expr, state), str(expr)
    (span,) = stack.tracer.find("read")
    return span.attrs.get("join_driving_sides", {}), stack.metrics.snapshot()


def _expected_sides(db, pin, expr) -> tuple[dict[str, int], bool]:
    """The ``join_driving_sides`` note of ``expr``, and whether ``rest``
    drives from its pinned bucket.  The operand with more rows is served
    (the left one on a tie) and the other drives.  ``S`` counts its whole
    table; ``rest`` counts ``R``'s ``b = pin`` bucket when ``pin`` pins
    and the whole tables would serve it — a bucket only lowers a count —
    and all of ``R`` otherwise.  An empty ``R`` empties the join before a
    side is chosen."""
    if not db["R"]:
        return {}, False
    rest_is_left = expr.child.right == db.ref("S")
    rest_rows, other_rows = db["R"].distinct_count(), db["S"].distinct_count()
    reason = "larger_table"
    if pin is not None and (rest_rows >= other_rows if rest_is_left else rest_rows > other_rows):
        rest_rows, reason = sum(1 for row, __ in db["R"].items() if row[1] == pin), "pinned_bucket"
    left_rows, right_rows = (rest_rows, other_rows) if rest_is_left else (other_rows, rest_rows)
    side = "right" if left_rows >= right_rows else "left"
    return {f"{side}:{reason}": 1}, reason == "pinned_bucket" and (side == "left") == rest_is_left


def test_the_smaller_pinned_side_drives_live_and_at_a_pin():
    pinned_drove = 0
    for case_id, gen in cases(count=40):
        db, pin, orders = _driving_case(gen)
        for expr in orders:
            # Live: prime builds the pinned-column index the choice reads.
            db.prime(expr)
            expected, from_bucket = _expected_sides(db, pin, expr)
            assert _noted_sides(db.evaluate, expr, db.state)[0] == expected, (case_id, pin, str(expr))
            pinned_drove += from_bucket
        # At a pin the choice reads only indexes derived on the frozen bags:
        # the whole of R until a keyed read has derived the bucket's index,
        # the bucket after (a fresh registry: new plans, the same bags).
        handle = SnapshotRegistry().pin(db)
        for expr in orders:
            _noted_sides(handle.evaluate, expr, db.state)
        handle.release()
        if pin is None or not db["R"]:
            continue
        handle = SnapshotRegistry().pin(db)
        handle.evaluate(db.ref("R").where(Comparison("=", Attr("b"), Const(pin))))
        assert FROZEN_INDEXES.covering("R", (1,), db["R"]) == (1,)
        for expr in orders:
            expected, __ = _expected_sides(db, pin, expr)
            assert _noted_sides(handle.evaluate, expr, db.state)[0] == expected, (case_id, pin, str(expr))
        handle.release()
    # The pinned bucket drove in a good share of the cases, not in none.
    assert pinned_drove >= 10 * len(_seeds()), pinned_drove


def test_a_snapshot_join_builds_no_index_to_choose_its_side():
    """At a pin the choice reads the indexes already derived on the frozen
    bags and derives none: without the ``(score,)`` bucket's index the
    whole ``customer`` table sizes it, with it the High bucket does."""
    db = Database(exec_mode="compiled")
    db.create_table("customer", ("custId", "score"), rows=[(c, "High" if c < 5 else "Low") for c in range(300)])
    db.create_table("sales", ("custId", "qty"), rows=[(i % 300, i) for i in range(100)])
    high = Comparison("=", Attr("c.score"), Const("High"))

    def join(*extra):
        predicate = And(Comparison("=", Attr("c.custId"), Attr("s.custId")), high)
        for conjunct in extra:
            predicate = And(predicate, conjunct)
        customer = rename(db.ref("customer"), ("c.custId", "c.score"))
        return Select(predicate, Product(customer, rename(db.ref("sales"), ("s.custId", "s.qty"))))

    handle = SnapshotRegistry().pin(db)
    # Derive what serves either side: customer(custId, score), sales(custId).
    key = Comparison("=", Attr("custId"), Const(1))
    handle.evaluate(db.ref("customer").where(And(key, Comparison("=", Attr("score"), Const("High")))))
    handle.evaluate(db.ref("sales").where(key))
    assert FROZEN_INDEXES.covering("customer", (1,), db["customer"]) is None
    sides, metrics = _noted_sides(handle.evaluate, join(), db.state)
    assert sides == {"right:larger_table": 1}  # 300 customers against 100 sales
    assert "pinned_index_builds" not in metrics
    # A keyed read derives the (score,) index; the next join's choice reads its bucket.
    handle.evaluate(db.ref("customer").where(Comparison("=", Attr("score"), Const("High"))))
    sides, metrics = _noted_sides(handle.evaluate, join(Comparison("!=", Attr("s.qty"), Const(-1))), db.state)
    assert sides == {"left:pinned_bucket": 1}  # 5 High customers against 100 sales
    assert "pinned_index_builds" not in metrics
    handle.release()


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
