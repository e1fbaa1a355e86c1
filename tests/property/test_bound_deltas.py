"""One pair, bound per slice ≡ a pair differentiated per slice — every engine.

The shared log builds each view's ``(▼, ▲)`` pair once, over a
substitution whose ``D_i`` / ``A_i`` are bound leaves, and an epoch only
folds its slice of the log and binds it.  The oracle is what that
replaced: ``differentiate`` over the *literal* substitution of the very
slice, evaluated by the interpreted evaluator.  Random queries (every
core operator, self-products and monus included), random transaction
streams through a real :class:`~repro.extensions.sharedlog.SharedLog`,
cursors anywhere in the stream — including slices in which a tracked
table recorded nothing, the case static folding used to remove and the
run-time skip now has to.

The second half holds the group path to per-view sequential ``refresh``:
views at *different* cursors, two of them with the same query (one plan
node, two bindings, two pool threads), across several epochs; and a
saved-and-reloaded warehouse (``attach_view``) refreshed as a group.

Seeds: ``tests/property/gen.py``'s matrix (``REPRO_TEST_SEED`` overrides).
"""

from __future__ import annotations

import random
import sys

import pytest
from tests.property.gen import _seeds

from repro.algebra.evaluation import evaluate
from repro.core.differential import differentiate
from repro.core.plan import MaintenancePlan
from repro.core.substitution import FactoredSubstitution
from repro.exec import MODES as ENGINES
from repro.extensions.sharedlog import SharedLog
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.warehouse.persistence import load_warehouse, save_warehouse
from repro.workloads.randgen import RandomExpressionGenerator

QUERIES_PER_SEED = 6
ROUNDS = 4


def database(gen: RandomExpressionGenerator, mode: str) -> Database:
    """``gen``'s random database, on engine ``mode``."""
    source = gen.database()
    db = Database(exec_mode=mode)
    for name in source.external_tables():
        db.create_table(name, source.schema_of(name), rows=source[name])
    return db


def record(db: Database, log: SharedLog, txn) -> None:
    """Run ``txn`` with its one shared-log extension."""
    txn = txn.weakly_minimal()
    MaintenancePlan(patches=txn.patches()).merge(log.extend_patches(txn)).execute(db)


@pytest.mark.parametrize("mode", ENGINES)
@pytest.mark.parametrize("seed", _seeds())
def test_bound_pair_equals_the_literal_pair_of_every_slice(seed, mode):
    gen = RandomExpressionGenerator(seed, tables=3, max_rows=6)
    rng = random.Random(seed)
    empty_slices = 0
    for number in range(QUERIES_PER_SEED):
        db = database(gen, mode)
        tables = sorted(db.external_tables())
        schemas = {table: db.schema_of(table) for table in tables}
        log = SharedLog(db)
        for table in tables:
            log.track(table)
        query = gen.query(db, depth=3)
        # Built once, before anything is recorded.
        pair = differentiate(FactoredSubstitution.bound(schemas), query)
        for round_ in range(ROUNDS):
            for _ in range(rng.randint(1, 3)):
                record(db, log, gen.transaction(db))
            cursor = rng.randint(0, log.current_seq)
            deltas = {}
            for table in tables:
                net_delete, net_insert = log.net_deltas_since(table, cursor)
                deltas[table] = (net_insert, net_delete)
                empty_slices += not (net_delete or net_insert)
            oracle = differentiate(FactoredSubstitution.literal(deltas, schemas), query)
            binding = log.binding_since(cursor, tables)
            where = f"seed={seed} query={number} round={round_} cursor={cursor}: {query}"
            for bound, literal in zip(pair, oracle):
                assert db.evaluate(bound, binding=binding) == evaluate(literal, db.state), where
    assert empty_slices, "the streams never left a tracked table's slice empty"


VIEW_COUNT = 5


def group_managers(seed: int, mode: str) -> tuple[RandomExpressionGenerator, ViewManager, ViewManager]:
    """Two identical managers: five shared-log views, the last two with one query."""
    managers = []
    for _ in range(2):
        gen = RandomExpressionGenerator(seed, tables=3, max_rows=6)
        manager = ViewManager(database(gen, mode))
        queries = [gen.query(manager.db, depth=3) for _ in range(VIEW_COUNT - 1)]
        for index, query in enumerate([*queries, queries[-1]]):
            manager.define_view(f"V{index}", query, scenario="shared_log")
        managers.append(manager)
    return gen, managers[0], managers[1]


def stream(gen, rng, *managers) -> None:
    """The same few random transactions through every manager."""
    for _ in range(rng.randint(1, 3)):
        txn = gen.transaction(managers[0].db)
        for manager in managers:
            replay = manager.transaction()
            for table in sorted(txn.tables):
                replay.delete_query(table, txn.delete_expr(table))
                replay.insert_query(table, txn.insert_expr(table))
            replay.run()


def assert_same_views(subject: ViewManager, oracle: ViewManager, where: str) -> None:
    for name in oracle.views():
        assert subject.query(name) == oracle.query(name), f"{where} view={name}"
        assert not subject.is_stale(name), f"{where} view={name}"
    subject.check_invariants()


@pytest.mark.parametrize("mode", ENGINES)
@pytest.mark.parametrize("seed", _seeds())
def test_group_epoch_at_different_cursors_equals_sequential_refresh(seed, mode):
    gen, subject, oracle = group_managers(seed, mode)
    rng = random.Random(seed)
    # A short switch interval makes the pool's two threads interleave
    # inside one plan node's execute (the torn-memo schedule of 3.10).
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for epoch in range(4):
            # Spread the cursors: each view is refreshed alone after a
            # different prefix of the stream — V3 and V4 (one query, one
            # plan) at different points, so one epoch binds that plan twice.
            for name in rng.sample(subject.views(), 3):
                stream(gen, rng, subject, oracle)
                subject.refresh(name)
                oracle.refresh(name)
            stream(gen, rng, subject, oracle)
            group = subject.shared_group()
            assert len({group.cursor(name) for name in subject.views()}) > 1
            subject.refresh_group(parallel=True, max_workers=2)
            for name in oracle.views():
                oracle.refresh(name)
            assert_same_views(subject, oracle, f"seed={seed} epoch={epoch}")
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode", ENGINES)
def test_reloaded_group_refreshes_like_the_one_that_never_stopped(tmp_path, mode):
    seed = _seeds()[0]
    gen, subject, oracle = group_managers(seed, mode)
    rng = random.Random(seed)
    stream(gen, rng, subject, oracle)
    subject.refresh("V1")
    oracle.refresh("V1")
    stream(gen, rng, subject, oracle)
    path = tmp_path / "warehouse.db"
    save_warehouse(subject, path)
    reloaded = load_warehouse(path, exec_mode=mode)
    # Attached, not installed: pairs are built by ``attach_view``.
    reloaded.refresh_group(parallel=True, max_workers=2)
    oracle.refresh_all()
    assert_same_views(reloaded, oracle, "after reload")
    stream(gen, rng, reloaded, oracle)
    reloaded.refresh_group(parallel=True, max_workers=2)
    oracle.refresh_all()
    assert_same_views(reloaded, oracle, "second epoch after reload")
