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


# ----------------------------------------------------------------------
# Count guard: a steady epoch costs its deltas, nothing else
# ----------------------------------------------------------------------

STEADY_VIEWS = (
    "SELECT c.custId, c.name, s.itemNo FROM customer c, sales s "
    "WHERE c.custId = s.custId AND c.score = 'High'",
    "SELECT custId, itemNo, quantity FROM sales WHERE quantity != 0",
    "SELECT custId, name FROM customer WHERE score = 'High'",
)


def test_steady_epoch_builds_nothing(monkeypatch):
    """After the first epoch an unchanged group compiles, differentiates,
    fingerprints, lints and batches nothing — and a membership change is
    exactly one re-lint and one re-batch on the next epoch."""
    import repro.analysis.concurrency_check as concurrency_check
    import repro.core.differential as differential
    import repro.exec.group as group
    import repro.extensions.sharedlog as sharedlog
    from repro.exec.compiler import Compiler

    manager = ViewManager(exec_mode="compiled")
    manager.create_table("customer", ("custId", "name", "score"))
    manager.create_table("sales", ("custId", "itemNo", "quantity"))
    manager.load("customer", [(i, f"n{i}", "High" if i % 2 else "Low") for i in range(20)])
    manager.load("sales", [(i % 20, i, i % 3) for i in range(200)])
    for index in range(8):
        manager.define_view(f"V{index}", STEADY_VIEWS[index % 3], scenario="shared_log")

    calls = dict.fromkeys(("compile", "differentiate", "fingerprint", "check_tasks", "batches"), 0)

    def spy(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def script(step: int) -> None:
        manager.execute_sql(
            f"INSERT INTO sales (custId, itemNo, quantity) VALUES ({step % 20}, {1000 + step}, 2); "
            f"DELETE FROM sales WHERE custId = {step % 20} AND itemNo = {step}"
        )
        if step % 3 == 0:
            manager.execute_sql(f"UPDATE customer SET score = 'High' WHERE custId = {step % 20}")

    def epoch() -> None:
        manager.refresh_group(parallel=True, max_workers=2)
        for name in manager.views():
            assert not manager.is_stale(name), name

    script(0)
    epoch()  # the first epoch: pairs exist since define_view, the schedule is built here

    spy(Compiler, "compile", "compile")
    for module in (differential, sharedlog):
        spy(module, "differentiate", "differentiate")
    for module in (group, sharedlog):
        spy(module, "subplan_fingerprint", "fingerprint")
    spy(concurrency_check, "check_tasks", "check_tasks")
    spy(GroupScheduler, "batches", "batches")

    for step in range(1, 11):
        script(step)  # scripts compile their own plans: counted from here on
        scripts_compiled = calls["compile"]
        plans = manager.db.executor.cached_plans
        epoch()
        assert calls["compile"] == scripts_compiled, f"epoch {step} compiled a plan"
        assert manager.db.executor.cached_plans == plans, f"epoch {step} grew the plan table"
    assert {k: v for k, v in calls.items() if k != "compile"} == {
        "differentiate": 0,
        "fingerprint": 0,
        "check_tasks": 0,
        "batches": 0,
    }

    # A new member: its pair is built where it is defined (its query is
    # already a member's, so nothing is differentiated), and the next
    # epoch — only that one — lints and batches again.
    manager.define_view("V8", STEADY_VIEWS[0], scenario="shared_log")
    assert calls["differentiate"] == 0
    script(11)
    epoch()
    script(12)
    epoch()
    assert (calls["check_tasks"], calls["batches"]) == (1, 1)
    manager.drop_view("V3")
    script(13)
    epoch()
    script(14)
    epoch()
    assert (calls["check_tasks"], calls["batches"]) == (2, 2)
    # A member with a new query differentiates once, at define_view.
    manager.define_view("V9", "SELECT custId, itemNo FROM sales WHERE quantity = 2", scenario="shared_log")
    assert calls["differentiate"] == 1
