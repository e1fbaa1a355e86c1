"""Seeded snapshot-isolation property harness over the view server.

The property: a reader that pins a snapshot sees the pin-time state of
the view **forever**, bit-identical to what an interpreted-oracle twin
(fed the byte-identical seeded schedule) held at that moment — no
matter how writer transactions, propagates, and refresh epochs
interleave afterwards, and no matter which execution engine maintains
the live database.  Live reads must likewise always match the oracle's
current state.

Runs the fixed seed matrix of ``tests/property/gen`` across all three
engines; override with ``REPRO_TEST_SEED=<int>`` to probe a fresh
region (the failure message carries the ``engine/seed/tick`` triple to
replay).
"""

from __future__ import annotations

import os
import random

import pytest

from tests.property.gen import SEED_MATRIX
from tests.serve.conftest import build_server

from repro.algebra.evaluation import evaluate
from repro.algebra.expr import MapProject
from repro.algebra.predicates import Arith, Attr, Comparison, Const
from repro.errors import ReproError
from repro.exec import MODES as ENGINES
from repro.robustness.journal import bag_digest
from repro.sqlfront.compiler import sql_to_expr

HORIZON = 14
TXNS_PER_TICK = 2


def _seeds() -> tuple[int, ...]:
    override = os.environ.get("REPRO_TEST_SEED")
    return (int(override),) if override else SEED_MATRIX


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", _seeds())
def test_pinned_reads_survive_any_interleaving(engine, seed):
    server, workload = build_server(engine, k=2, m=5, seed=seed)
    oracle, oracle_workload = build_server("interpreted", k=2, m=5, seed=seed)
    # The op interleaving is itself seeded (and decoupled from the data
    # seed) so every run replays bit-identically.
    rng = random.Random(seed * 7919 + 11)
    pins: list[tuple[str, object, str]] = []

    for tick in range(1, HORIZON + 1):
        case = f"engine={engine} seed={seed} tick={tick}"
        server.tick([workload.next_transaction(server.db) for _ in range(TXNS_PER_TICK)])
        oracle.tick(
            [oracle_workload.next_transaction(oracle.db) for _ in range(TXNS_PER_TICK)]
        )

        # Live reads track the oracle at every tick.
        live = bag_digest(server.read("V"))
        assert live == bag_digest(oracle.read("V")), case

        # Maybe open a reader session: its expectation is frozen now.
        if rng.random() < 0.6:
            pins.append((case, server.pin(), live))

        # Maybe close a random session: it must still see its pin-time state.
        if pins and rng.random() < 0.35:
            opened_at, handle, expected = pins.pop(rng.randrange(len(pins)))
            assert bag_digest(server.read_at(handle, "V")) == expected, opened_at
            handle.release()

    # Sessions still open at the end saw every interleaving there was.
    for opened_at, handle, expected in pins:
        assert bag_digest(server.read_at(handle, "V")) == expected, opened_at
        handle.release()

    # With every session closed only the served cut stays retained.
    assert server.registry.live_count() == 1

    # Closing refresh: both arms converge to the full-recompute state.
    assert bag_digest(server.read_fresh("V")) == bag_digest(oracle.read_fresh("V"))


# ----------------------------------------------------------------------
# Differential: pinned evaluation ≡ the interpreted oracle over the cut
# ----------------------------------------------------------------------

#: Constants a keyed predicate may pin its column to; ``1``, ``1.0`` and
#: ``True`` are one key to a hash index and to ``=`` alike, ``'abc'`` and
#: ``NULL`` match nothing, the rest are customers that exist.
KEYS = ("1", "1.0", "TRUE", "'abc'", "NULL", "2", "5", "11")


def _queries(rng: random.Random, db, mv: str) -> list:
    """One batch of expressions, built against the live catalog."""
    key, other = rng.choice(KEYS), rng.choice(KEYS)
    low = rng.randint(0, 8)
    item = rng.randint(100, 140)
    texts = [
        # The exact read texts bench/pipeline/inputs.py emits.
        f"SELECT itemNo, quantity FROM {mv} WHERE custId = {key}",
        f"SELECT * FROM {mv} WHERE custId = {key}",
        # Keyed selects over base tables, one and two pinned columns.
        f"SELECT name, score FROM customer WHERE custId = {key}",
        f"SELECT quantity FROM sales WHERE {key} = custId AND itemNo = {item}",
        f"SELECT itemNo FROM sales WHERE custId = {key} AND quantity > 1",
        "SELECT itemNo FROM sales WHERE custId = 1 AND custId = 2",
        f"SELECT custId, itemNo FROM sales WHERE custId = {key} OR custId = {other}",
        f"SELECT custId, itemNo FROM {mv} WHERE custId >= {low} AND custId < {low + 3}",
        # σ/Π/map chains, dedup, ⊎ and ∸.
        f"SELECT custId, quantity * 2 AS twice, itemNo FROM {mv} WHERE custId = {key}",
        f"SELECT itemNo + 1 AS next FROM sales WHERE quantity * 2 > {low}",
        f"SELECT DISTINCT custId FROM sales WHERE quantity > {low % 3}",
        f"SELECT DISTINCT score FROM {mv} WHERE custId = {key}",
        f"SELECT custId, itemNo FROM sales EXCEPT ALL SELECT custId, itemNo FROM {mv}",
        f"SELECT custId FROM customer WHERE custId = {key} UNION ALL SELECT custId FROM sales WHERE custId = {other}",
        # Joins: base × base, view × base, keyed on one side.
        f"SELECT c.name, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId AND c.custId = {key}",
        f"SELECT v.itemNo, c.address FROM {mv} v, customer c WHERE v.custId = c.custId AND v.quantity > 1",
        f"SELECT c.name, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId AND s.quantity > {low % 4}",
    ]
    exprs = [sql_to_expr(text, db) for text in texts]
    view, sales = db.ref(mv), db.ref("sales")
    pinned = Comparison("=", Attr("custId"), Const(rng.choice((None, 1, 1.0, True, "abc", 5))))
    exprs += [
        view,
        view.where(pinned),
        view.where(pinned).project(["itemNo"]).dedup(),
        MapProject((Attr("custId"), Arith("+", Attr("quantity"), Const(1))), sales.where(pinned), ("c", "q")),
        view.project(["custId", "itemNo", "quantity"]).monus(sales.project(["custId", "itemNo", "quantity"])),
        sales.where(pinned).monus(sales),  # E ∸ R against a stored table
        sales.where(pinned).union_all(sales.where(pinned)).dedup(),
    ]
    if db.has_table("late"):
        exprs += [db.ref("late"), sql_to_expr(f"SELECT x FROM late WHERE x = {key}", db)]
    return exprs


def _outcome(run):
    try:
        return run()
    except ReproError as error:
        return type(error)


def _check_pin(handle, exprs, case: str) -> None:
    frozen = {name: handle.table(name) for name in handle.table_names()}
    for expr in exprs:
        got = _outcome(lambda: handle.evaluate(expr))
        expected = _outcome(lambda: evaluate(expr, frozen))
        assert got == expected, f"{case} snapshot={handle.snapshot_id} expr={expr}"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", _seeds())
def test_pinned_evaluation_matches_the_oracle_over_its_cut(engine, seed):
    """``handle.evaluate(e)`` ≡ ``evaluate(e, frozen tables)``, for every pin, forever.

    Pins taken at different versions share compiled plans (whose memos
    are version-stamped) and per-bag indexes; each is checked when
    taken and again after every later write, against the interpreted
    oracle run over that pin's own tables — same bag, or same error.
    """
    server, workload = build_server(engine, k=2, m=5, seed=seed)
    mv = server.manager.scenario("V").view.mv_table
    rng = random.Random(seed * 104729 + 7)
    pins: list = []

    for step in range(1, 13):
        case = f"engine={engine} seed={seed} step={step}"
        op = rng.choice(("script", "script", "tick", "tick", "refresh"))
        if op == "script":
            cust, item = rng.randint(0, 11), rng.randint(100, 140)
            server.execute_sql(
                rng.choice(
                    (
                        f"INSERT INTO sales VALUES ({cust}, {item}, {rng.randint(0, 4)}, 1.5)",
                        f"DELETE FROM sales WHERE custId = {cust} AND itemNo = {item}",
                        f"UPDATE customer SET score = 'High' WHERE custId = {cust}",
                        f"UPDATE customer SET score = 'Low' WHERE custId = {cust}",
                    )
                )
            )
        elif op == "tick":
            server.tick([workload.next_transaction(server.db)])
        else:
            server.read_fresh("V")
        if step == 6:
            server.create_table("late", ("x",), rows=[(1,), (2,)])

        exprs = _queries(rng, server.db, mv)
        if step <= 2 or rng.random() < 0.6:
            pins.append(server.pin())
        _check_pin(server.current, exprs, case)
        # Oldest first, newest last, then oldest again: nodes shared by
        # the batch are re-stamped back and forth between versions.
        for handle in (*pins, *pins[:1]):
            _check_pin(handle, exprs, case)
        # The first two pins (two versions, every step publishes) stay to the end.
        if len(pins) > 2 and rng.random() < 0.35:
            pins.pop(rng.randrange(2, len(pins))).release()

    assert pins[0].snapshot_id != pins[1].snapshot_id
    for handle in pins:
        handle.release()
    assert server.registry.live_count() == 1
