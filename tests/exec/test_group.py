"""Unit and property tests for the group-refresh machinery.

Covers the three layers of :mod:`repro.exec.group` — subplan
fingerprints, the epoch-scoped delta cache, and the dependency-aware
scheduler — plus the acceptance property: a parallel group refresh is
bag-equal to the sequential per-view oracle over a randomized grid of
states, queries, and transactions.
"""

import random

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.exec.group import (
    EpochDeltaCache,
    GroupScheduler,
    GroupTask,
    subplan_fingerprint,
    view_fingerprints,
)
from repro.sqlfront.compiler import sql_to_view
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.randgen import RandomExpressionGenerator


def make_db():
    db = Database()
    db.create_table("R", ("a", "b"), rows=[(1, "x"), (2, "y")])
    db.create_table("S", ("a", "c"), rows=[(1, "p")])
    return db


JOIN_SQL = "SELECT R.a, S.c FROM R, S WHERE R.a = S.a"


class TestFingerprints:
    def test_equal_plans_fingerprint_equal(self):
        db = make_db()
        one = sql_to_view(JOIN_SQL, db, name="one")
        two = sql_to_view(JOIN_SQL, db, name="two")
        assert subplan_fingerprint(one.query) == subplan_fingerprint(two.query)

    def test_different_plans_fingerprint_differ(self):
        db = make_db()
        one = sql_to_view(JOIN_SQL, db, name="one")
        two = sql_to_view("SELECT a, b FROM R", db, name="two")
        assert subplan_fingerprint(one.query) != subplan_fingerprint(two.query)

    def test_rename_canonicalizes_private_table_names(self):
        db = make_db()
        db.create_table("log_A", ("a", "b"))
        db.create_table("log_B", ("a", "b"))
        from repro.algebra.expr import Project

        left = Project((0,), db.ref("log_A"), ("a",))
        right = Project((0,), db.ref("log_B"), ("a",))
        assert subplan_fingerprint(left) != subplan_fingerprint(right)
        assert subplan_fingerprint(left, {"log_A": "@"}) == subplan_fingerprint(
            right, {"log_B": "@"}
        )

    def test_view_fingerprints_detect_shared_join(self):
        db = make_db()
        join = sql_to_view(JOIN_SQL, db, name="join")
        same = sql_to_view(JOIN_SQL, db, name="same")
        assert view_fingerprints(join.query) & view_fingerprints(same.query)

    def test_view_fingerprints_ignore_trivial_table_wrappers(self):
        # Every SQL query wraps each table in an identity projection;
        # sharing only that wrapper must NOT count as overlap.
        db = make_db()
        join = sql_to_view(JOIN_SQL, db, name="join")
        scan = sql_to_view("SELECT a, b FROM R", db, name="scan")
        assert not (view_fingerprints(join.query) & view_fingerprints(scan.query))


class TestEpochDeltaCache:
    def test_hit_counts_toward_counter(self):
        counter = CostCounter()
        cache = EpochDeltaCache(counter)
        deltas = (Bag([(1,)]), Bag([(2,)]))
        cache.store("k", deltas)
        assert "k" in cache
        assert cache.hit("k") == deltas
        assert cache.hit("k") == deltas
        assert counter.delta_cache_hits == 2


def make_task(name, order, *, key=None, reads=(), writes=(), log=None, result=None):
    result = result if result is not None else (Bag.empty(), Bag.empty())

    def compute(counter):
        if log is not None:
            log.append(("compute", name))
        return result

    def apply(deltas):
        if log is not None:
            log.append(("apply", name, deltas))

    return GroupTask(
        name=name,
        order=order,
        key=(lambda: key),
        compute=compute,
        apply=apply,
        reads=frozenset(reads),
        writes=frozenset(writes),
    )


class TestGroupScheduler:
    def test_independent_tasks_share_one_batch(self):
        tasks = [
            make_task("a", 0, reads={"R"}, writes={"mv_a"}),
            make_task("b", 1, reads={"R"}, writes={"mv_b"}),
        ]
        batches = GroupScheduler().batches(tasks)
        assert [[t.name for t in batch] for batch in batches] == [["a", "b"]]

    def test_conflicting_tasks_are_ordered_into_later_batches(self):
        tasks = [
            make_task("a", 0, reads={"R"}, writes={"mv_a"}),
            make_task("b", 1, reads={"mv_a"}, writes={"mv_b"}),
            make_task("c", 2, reads={"R"}, writes={"mv_c"}),
        ]
        batches = GroupScheduler().batches(tasks)
        assert [[t.name for t in batch] for batch in batches] == [["a", "c"], ["b"]]

    def test_shared_key_computes_once_and_applies_in_order(self):
        trace = []
        deltas = (Bag([(1,)]), Bag.empty())
        tasks = [
            make_task("a", 0, key="shared", log=trace, result=deltas, writes={"mv_a"}),
            make_task("b", 1, key="shared", log=trace, result=deltas, writes={"mv_b"}),
            make_task("c", 2, key="other", log=trace, result=deltas, writes={"mv_c"}),
        ]
        counter = CostCounter()
        cache = EpochDeltaCache(counter)
        GroupScheduler(counter=counter).run(tasks, cache)
        computes = [entry[1] for entry in trace if entry[0] == "compute"]
        applies = [entry[1] for entry in trace if entry[0] == "apply"]
        assert computes == ["a", "c"]  # "b" is served from the cache
        assert applies == ["a", "b", "c"]
        assert counter.delta_cache_hits == 1
        # The cached follower received the leader's exact delta bags.
        followed = next(entry for entry in trace if entry[:2] == ("apply", "b"))
        assert followed[2] == deltas

    @pytest.mark.parametrize("parallel", [False, True])
    def test_parallel_counters_are_absorbed(self, parallel):
        def counting_task(name, order):
            def compute(counter):
                if counter is not None:
                    counter.record("probe", 3)
                return (Bag.empty(), Bag.empty())

            return GroupTask(
                name=name,
                order=order,
                key=lambda: None,
                compute=compute,
                apply=lambda deltas: None,
            )

        counter = CostCounter()
        tasks = [counting_task(f"t{i}", i) for i in range(4)]
        GroupScheduler(counter=counter, parallel=parallel, max_workers=2).run(
            tasks, EpochDeltaCache(counter)
        )
        assert counter.by_operator["probe"] == 12


SCENARIO_CYCLE = ("shared_log", "base_log", "combined", "shared_log")


def build_manager(seed, view_count):
    """A manager over a random database with a mixed bag of scenarios."""
    gen = RandomExpressionGenerator(seed, tables=3, max_rows=6)
    db = gen.database()
    manager = ViewManager(db)
    for index in range(view_count):
        query = gen.query(db, depth=3)
        manager.define_view(
            f"V{index}", query, scenario=SCENARIO_CYCLE[index % len(SCENARIO_CYCLE)]
        )
    return gen, manager


def run_workload(manager, deltas_per_txn):
    for txn_deltas in deltas_per_txn:
        txn = manager.transaction()
        for table, (delete, insert) in txn_deltas.items():
            if delete:
                txn.delete(table, delete)
            if insert:
                txn.insert(table, insert)
        txn.run()


class TestParallelEqualsSequentialOracle:
    """Acceptance: group refresh (parallel, compacted) == per-view oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_grid(self, seed):
        rng = random.Random(seed)
        view_count = rng.randint(3, 6)
        # Two identically-seeded managers: the oracle refreshes each view
        # sequentially; the subject runs one parallel group epoch.
        gen, oracle = build_manager(seed, view_count)
        _, subject = build_manager(seed, view_count)

        # One shared stream of literal deltas, applied to both.
        workload = []
        for _ in range(rng.randint(2, 4)):
            txn_deltas = {}
            for table in oracle.db.external_tables():
                arity = oracle.db.schema_of(table).arity
                txn_deltas[table] = (gen.bag(arity, 3), gen.bag(arity, 3))
            workload.append(txn_deltas)
        run_workload(oracle, workload)
        run_workload(subject, workload)

        oracle.refresh_all()
        subject.refresh_group(parallel=True)

        for name in oracle.views():
            assert subject.query(name) == oracle.query(name), name
            assert not subject.is_stale(name), name
        oracle.check_invariants()
        subject.check_invariants()
