"""Plan-cache correctness under pinned snapshot versions.

Every engine keeps state keyed to the *live* database — compiled plan
tables and node memos stamped with the live versions, hash indexes the
writer mutates in place, sqlite mirrors.
A pinned :class:`~repro.serve.SnapshotHandle` reads none of it.  What is
isolated is that live engine *state*, not the lowering: a handle runs
the same compiled plans (:mod:`repro.exec.compiler`), but out of the
snapshot registry's own plan table, stamped with the pinned versions,
over its frozen tables, probing indexes built once per immutable bag —
the same way whatever the database's ``exec_mode``.  These tests
interleave pinned evaluation with live engine evaluation and assert
neither contaminates the other: the live engines keep their caches hot
and correct, and pinned results never move.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluation import evaluate
from repro.algebra.expr import join
from repro.algebra.predicates import Attr, Comparison, Const
from repro.exec import MODES as ENGINES
from repro.robustness.journal import bag_digest
from repro.serve import SnapshotRegistry
from repro.storage.database import Database


def _build(engine: str) -> Database:
    db = Database(exec_mode=engine)
    db.create_table("r", ("a", "b"), rows=[(i, i % 3) for i in range(30)])
    db.create_table("s", ("b2", "c"), rows=[(j % 3, j) for j in range(10)])
    return db


def _query(db: Database):
    matched = join(db.ref("r"), db.ref("s"), Comparison("=", Attr("b"), Attr("b2")))
    return matched.where(Comparison(">", Attr("c"), Const(0)))


@pytest.mark.parametrize("engine", ENGINES)
def test_pinned_eval_ignores_live_engine_state(engine):
    db = _build(engine)
    registry = SnapshotRegistry()
    query = _query(db)

    # Warm the engine's caches on the live state.
    live_before = bag_digest(db.evaluate(query))

    handle = registry.pin(db)
    pinned_before = bag_digest(handle.evaluate(query))
    assert pinned_before == live_before

    # Mutate the live database; live evaluation (cached plans, column
    # batches, mirrors) must see the new rows, the pin must not.
    db.load("r", [(100 + i, i % 3) for i in range(5)])
    live_after = bag_digest(db.evaluate(query))
    assert live_after != live_before
    assert bag_digest(handle.evaluate(query)) == pinned_before

    # Interleave a few more rounds: repeated pinned evaluation between
    # live evaluations never perturbs either side.
    for round_no in range(3):
        db.load("s", [(round_no % 3, 1000 + round_no)])
        live = bag_digest(db.evaluate(query))
        assert bag_digest(handle.evaluate(query)) == pinned_before, round_no
        assert bag_digest(db.evaluate(query)) == live, round_no

    handle.release()


@pytest.mark.parametrize("engine", ENGINES)
def test_live_engine_matches_oracle_after_pinned_reads(engine):
    """Pinned evaluation must not poison live results vs the oracle."""
    db = _build(engine)
    registry = SnapshotRegistry()
    query = _query(db)
    handles = []
    for round_no in range(4):
        handles.append(registry.pin(db))
        for handle in handles:
            handle.evaluate(query)  # hammer pinned eval at every version
        db.load("r", [(200 + round_no, round_no % 3)])
        oracle = evaluate(query, {name: db[name] for name in db.table_names()})
        assert bag_digest(db.evaluate(query)) == bag_digest(oracle), round_no
    for handle in handles:
        handle.release()


def test_pinned_snapshots_at_distinct_versions_answer_distinctly():
    db = _build("compiled")
    registry = SnapshotRegistry()
    query = _query(db)
    digests = []
    for round_no in range(3):
        digests.append((registry.pin(db), bag_digest(db.evaluate(query))))
        db.load("r", [(300 + round_no, 0)])
    # Each pin still answers with its own version's digest.
    for handle, expected in digests:
        assert bag_digest(handle.evaluate(query)) == expected
        handle.release()
