"""Partitioned-vs-unpartitioned equivalence under randomized streams.

The pruned fast path must be indistinguishable from the Figure 3
algorithms it replaces: for every engine tier and every seeded random
transaction stream, a scenario over a :class:`PartitionedDatabase`
must produce view contents **bit-identical** to the same scenario run
on a plain database with the interpreted oracle.  The streams bake in
the awkward cases — over-deletes, partitions that stay empty, keys
migrating between partitions, and a mid-stream hot-key burst — and a
chaos extension kills the refresh *between* per-partition applies.

The pruned pair is compiled once and bound to each epoch's affected keys
(:class:`~repro.algebra.expr.KeyRestrict`), so a second grid holds the
*binding* to the same oracle: hand-picked epochs that a result memo
keyed on table versions alone would answer from the wrong key set.
"""

import random

import pytest

from repro.algebra.expr import KeyRestrict
from repro.core.scenarios import BaseLogScenario, CombinedScenario
from repro.core.transactions import UserTransaction
from repro.exec import INTERPRETED, MODES
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import bag_digest
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase
from repro.warehouse import ViewManager

ENGINES = MODES
#: The engines that run the pruned pair as a plan (the oracle recomputes).
PRUNED_ENGINES = [mode for mode in MODES if mode != INTERPRETED]
SCENARIOS = {"base_log": BaseLogScenario, "combined": CombinedScenario}
SQL = (
    "CREATE VIEW V (custId, item) AS "
    "SELECT c.custId, s.item FROM C c, S s WHERE c.custId = s.custId"
)
KEYSPACE = 40  # over 8 hash partitions: some stay empty, most shared
HOT_KEY = 7


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def seed_rows():
    customers = [(i, f"name{i}") for i in range(12)]
    sales = [(i % 10, f"item{i % 5}") for i in range(30)]
    return customers, sales


def build(scenario_cls, *, engine=None, parts=8):
    """One installed scenario; partitioned iff ``engine`` is given."""
    if engine is None:
        db = Database(exec_mode="interpreted")
    else:
        db = PartitionedDatabase(exec_mode=engine)
    customers, sales = seed_rows()
    db.create_table("C", ["custId", "name"], rows=customers)
    db.create_table("S", ["custId", "item"], rows=sales)
    if engine is not None:
        db.declare_partitioning("C", "custId", parts=parts, domain="custId")
        db.declare_partitioning("S", "custId", parts=parts, domain="custId")
    scenario = scenario_cls(db, sql_to_view(SQL, db))
    scenario.install()
    return scenario


def random_ops(rng, *, hot=False):
    """One transaction's worth of engine-independent (deletes, inserts).

    Materialized as plain row lists so the *same* stream can be replayed
    against the oracle and the subject.  Covers over-deletes (rows that
    were never present), key migration (delete under one key, re-insert
    the payload under another), and — when ``hot`` — a burst focused on
    a single key so one partition runs far hotter than the rest.
    """

    def key():
        if hot and rng.random() < 0.7:
            return HOT_KEY
        return rng.randrange(KEYSPACE)

    deletes = {"C": [], "S": []}
    inserts = {"C": [], "S": []}
    for _ in range(rng.randint(1, 4)):
        k = key()
        inserts["S"].append((k, f"item{rng.randrange(5)}"))
        if rng.random() < 0.4:
            inserts["C"].append((k, f"name{k}"))
    if rng.random() < 0.6:  # over-delete: the row may or may not exist
        deletes["S"].append((key(), f"item{rng.randrange(5)}"))
    if rng.random() < 0.3:  # key migration: same payload, new partition
        k = key()
        payload = f"item{rng.randrange(5)}"
        deletes["S"].append((k, payload))
        inserts["S"].append(((k + 13) % KEYSPACE, payload))
    if rng.random() < 0.2:
        deletes["C"].append((rng.randrange(KEYSPACE), "ghost"))
    return deletes, inserts


def replay(scenario, ops):
    deletes, inserts = ops
    txn = UserTransaction(scenario.db)
    for table, rows in deletes.items():
        if rows:
            txn.delete(table, rows)
    for table, rows in inserts.items():
        if rows:
            txn.insert(table, rows)
    scenario.execute(txn)


class TestEquivalenceGrid:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [11, 29])
    def test_randomized_stream_matches_unpartitioned_oracle(
        self, engine, scenario_key, seed
    ):
        scenario_cls = SCENARIOS[scenario_key]
        oracle = build(scenario_cls)
        subject = build(scenario_cls, engine=engine)
        if engine != "interpreted":
            # The grid must exercise the pruned fast path, not silently
            # fall back to the generic algorithms.
            assert subject._pmaint is not None, "fast path did not install"
        rng = random.Random(seed)
        for epoch in range(4):
            for _ in range(4):
                ops = random_ops(rng, hot=(epoch == 2))
                replay(oracle, ops)
                replay(subject, ops)
            oracle.refresh()
            subject.refresh()
            assert bag_digest(subject.read_view()) == bag_digest(
                oracle.read_view()
            ), f"{engine}/{scenario_key}/seed={seed} diverged at epoch {epoch}"
            assert subject.invariant_holds()

    @pytest.mark.parametrize("engine", ["compiled", "sqlite"])
    def test_mostly_empty_partitions(self, engine):
        """32 partitions, 3 live keys: pruning over a sparse layout."""
        oracle = build(BaseLogScenario)
        subject = build(BaseLogScenario, engine=engine, parts=32)
        rng = random.Random(5)
        for _ in range(3):
            k = rng.choice([1, 2, 3])
            ops = ({"S": [(k, "item0")]}, {"S": [(k, "item1"), (k, "item1")]})
            replay(oracle, ops)
            replay(subject, ops)
            oracle.refresh()
            subject.refresh()
            assert subject.read_view() == oracle.read_view()
            assert subject.invariant_holds()

    def test_combined_propagate_then_partial_refresh(self):
        """The C scenario's two-phase path stays equivalent when pruned."""
        oracle = build(CombinedScenario)
        subject = build(CombinedScenario, engine="compiled")
        rng = random.Random(17)
        for _ in range(3):
            ops = random_ops(rng)
            replay(oracle, ops)
            replay(subject, ops)
            oracle.propagate()
            subject.propagate()
            oracle.partial_refresh()
            subject.partial_refresh()
            assert subject.read_view() == oracle.read_view()
            assert subject.invariant_holds()


class TestPartitionCrashChaos:
    """A crash between per-partition applies of one epoch."""

    @pytest.mark.parametrize("engine", PRUNED_ENGINES)
    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    def test_crash_rolls_back_and_rerun_converges(self, engine, scenario_key):
        scenario_cls = SCENARIOS[scenario_key]
        oracle = build(scenario_cls)
        subject = build(scenario_cls, engine=engine)
        assert subject._pmaint is not None
        # A delta spanning many keys guarantees multiple partitions are
        # patched, so the between-partitions fault point is visited.
        ops = (
            {"S": [(0, "item0")]},
            {"S": [(k, f"item{k % 5}") for k in range(16)]},
        )
        replay(oracle, ops)
        replay(subject, ops)
        oracle.refresh()

        mv = subject.view.mv_table
        mv_before = subject.db[mv]
        version_before = subject.db.version_of(mv)
        pruned = (subject._pmaint.delete_expr, subject._pmaint.insert_expr)
        INJECTOR.arm("crash-mid-partition-apply")
        with pytest.raises(InjectedCrash):
            subject.refresh()
        misses_at_crash = subject.counter.plan_misses
        # Full rollback: the view is untouched, no half-applied epoch.
        assert subject.db[mv] == mv_before
        assert subject.db.version_of(mv) == version_before
        assert subject.invariant_holds()

        # After the dust settles, the same refresh converges exactly.
        INJECTOR.reset()
        subject.refresh()
        assert bag_digest(subject.read_view()) == bag_digest(oracle.read_view())
        assert subject.invariant_holds()
        assert subject.is_consistent()
        # The re-run ran the plan compiled at install: the very same pair
        # of expressions, and not one compile after the crash.
        assert subject._pmaint.delete_expr is pruned[0]
        assert subject._pmaint.insert_expr is pruned[1]
        assert subject.counter.plan_misses == misses_at_crash


# ----------------------------------------------------------------------
# Binding soundness: one plan, a different key set every epoch
# ----------------------------------------------------------------------

NAMED_SQL = (
    "CREATE VIEW V (custId, name, item) AS "
    "SELECT c.custId, c.name, s.item FROM C c, S s WHERE c.custId = s.custId"
)


def rescore(keys, old, new):
    return (
        {"C": [(k, f"{old}{k}") for k in keys]},
        {"C": [(k, f"{new}{k}") for k in keys]},
    )


#: Each epoch is aimed at a way one compiled plan could answer from the
#: wrong key set.  The restricted ``C`` leaf reads one table, so between
#: two epochs that leave ``C`` alone only the binding tells its results
#: apart; more ``S`` rows than ``C`` has (12) make the ``C`` side drive
#: the join, so the leaf's own memo — not a probe — is what answers.
BINDING_EPOCHS = (
    # sales-only, keys 0-4 ...
    ({}, {"S": [(k, f"new{j}") for k in range(5) for j in range(3)]}),
    # ... then disjoint keys 5-9, `C` untouched in between
    ({}, {"S": [(k, f"new{j}") for k in range(5, 10) for j in range(3)]}),
    # re-score only: `S` untouched, so its restricted leaf is the one at risk
    rescore((0, 5), "name", "vip"),
    # the same key set twice
    rescore((0, 5), "vip", "name"),
    # an empty log
    ({}, {}),
    # a key whose rows are all deleted (three seed copies, three new rows)
    ({"S": [(3, "item3")] * 3 + [(3, f"new{j}") for j in range(3)]}, {}),
    # that key again, now from nothing
    ({}, {"S": [(3, "back")]}),
    # both tables in one epoch, an over-delete and a key no table holds
    ({"C": [(3, "name3"), (77, "ghost")], "S": [(3, "never")]}, {"C": [(3, "vip3")], "S": [(3, "x"), (77, "y")]}),
)


def maintain_whole(manager):
    manager.refresh("V")


def maintain_two_phase(manager):
    manager.propagate("V")
    manager.partial_refresh("V")


def maintain_group(manager):
    manager.refresh_group()


#: mode -> (scenario, how one epoch is maintained)
MAINTENANCE = {
    "refresh": ("base_log", maintain_whole),
    "propagate+partial_refresh": ("combined", maintain_two_phase),
    "group": ("base_log", maintain_group),
}


def build_manager(scenario, *, engine, partitioned):
    db = (PartitionedDatabase if partitioned else Database)(exec_mode=engine)
    customers, sales = seed_rows()
    db.create_table("C", ["custId", "name"], rows=customers)
    db.create_table("S", ["custId", "item"], rows=sales)
    if partitioned:
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
    manager = ViewManager(db)
    manager.define_view("V", NAMED_SQL, scenario=scenario)
    return manager


def replay_on(manager, ops):
    deletes, inserts = ops
    if not deletes and not inserts:
        return
    txn = UserTransaction(manager.db)
    for table, rows in deletes.items():
        txn.delete(table, rows)
    for table, rows in inserts.items():
        txn.insert(table, rows)
    manager.execute(txn)


class TestBindingSoundness:
    @pytest.mark.parametrize("engine", PRUNED_ENGINES)
    @pytest.mark.parametrize("mode", sorted(MAINTENANCE))
    def test_epochs_that_break_a_version_only_memo(self, engine, mode):
        scenario, maintain = MAINTENANCE[mode]
        subject = build_manager(scenario, engine=engine, partitioned=True)
        flat = build_manager(scenario, engine=engine, partitioned=False)
        oracle = build_manager(scenario, engine="interpreted", partitioned=False)
        pmaint = subject.scenario("V")._pmaint
        assert pmaint is not None
        pruned = (pmaint.delete_expr, pmaint.insert_expr)
        assert any(isinstance(node, KeyRestrict) for node in pruned[0].walk())
        for number, ops in enumerate(BINDING_EPOCHS):
            for manager in (subject, flat, oracle):
                replay_on(manager, ops)
                maintain(manager)
            where = f"{engine}/{mode} diverged at epoch {number}"
            assert subject.query("V") == oracle.query("V"), where
            assert flat.query("V") == oracle.query("V"), where
            assert not subject.is_stale("V")
        subject.check_invariants()
        # One plan served every epoch: nothing was rewritten in between.
        assert (pmaint.delete_expr, pmaint.insert_expr) == pruned
        assert subject.counter.partition_fallbacks == 0

    def test_sqlite_fallback_mid_stream(self, monkeypatch):
        """The leaf keeps its meaning when the sqlite tier falls back to
        its compiled plans mid-stream (SQLite down from epoch 2 on)."""
        from repro.exec import pushdown

        monkeypatch.setattr(pushdown, "sleep", lambda delay: None)
        subject = build_manager("base_log", engine="sqlite", partitioned=True)
        oracle = build_manager("base_log", engine="interpreted", partitioned=False)
        assert subject.scenario("V")._pmaint is not None
        for number, ops in enumerate(BINDING_EPOCHS):
            if number == 2:
                INJECTOR.arm_storm(seed=1, probability=1.0, points=frozenset({"flaky-pushdown-execute"}))
            for manager in (subject, oracle):
                replay_on(manager, ops)
                manager.refresh("V")
            assert subject.query("V") == oracle.query("V"), f"diverged at epoch {number}"
        executor = subject.db.executor
        assert executor.trips >= 1 and executor.breaker == "open"
        subject.check_invariants()

    @pytest.mark.parametrize("engine", PRUNED_ENGINES)
    def test_same_versions_different_keys_is_not_a_memo_hit(self, engine):
        """The pair evaluated twice over one state under two bindings."""
        subject = build_manager("base_log", engine=engine, partitioned=True)
        pmaint = subject.scenario("V")._pmaint
        replay_on(subject, BINDING_EPOCHS[0])
        whole = pmaint.epoch_keys()
        assert whole == {"custId": frozenset(range(5))}
        evaluate = subject.db.evaluate
        everything = evaluate(pmaint.insert_expr, binding=whole)
        assert {row[0] for row in everything.support} == set(range(5))
        for key in range(5):
            only = evaluate(pmaint.insert_expr, binding={"custId": frozenset([key])})
            assert only == everything.select(lambda row, key=key: row[0] == key)
        assert evaluate(pmaint.insert_expr, binding=whole) == everything
