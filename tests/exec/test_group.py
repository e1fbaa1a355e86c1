"""Unit and property tests for the group-refresh machinery.

Covers :mod:`repro.exec.group` — the scheduler that shares one
evaluation per distinct key — plus the acceptance property: a parallel
group refresh is bag-equal to the sequential per-view oracle over a
randomized grid of states, queries, and transactions.
"""

import random

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.exec.group import GroupScheduler, GroupTask
from repro.warehouse.manager import ViewManager
from repro.workloads.randgen import RandomExpressionGenerator


def make_task(name, *, key=None, log=None, result=None):
    result = result if result is not None else (Bag.empty(), Bag.empty())

    def compute(counter):
        if log is not None:
            log.append(("compute", name))
        return result

    def apply(deltas):
        if log is not None:
            log.append(("apply", name, deltas))

    return GroupTask(name=name, key=key, compute=compute, apply=apply)


class TestGroupScheduler:
    def test_shared_key_computes_once_and_applies_in_order(self):
        trace = []
        deltas = (Bag([(1,)]), Bag.empty())
        tasks = [
            make_task("a", key="shared", log=trace, result=deltas),
            make_task("b", key="shared", log=trace, result=deltas),
            make_task("c", key="other", log=trace, result=deltas),
        ]
        counter = CostCounter()
        GroupScheduler(counter=counter).run(tasks)
        computes = [entry[1] for entry in trace if entry[0] == "compute"]
        applies = [entry[1] for entry in trace if entry[0] == "apply"]
        assert computes == ["a", "c"]  # "b" is served the leader's deltas
        assert applies == ["a", "b", "c"]
        assert counter.delta_cache_hits == 1
        # The follower received the leader's exact delta bags.
        followed = next(entry for entry in trace if entry[:2] == ("apply", "b"))
        assert followed[2] is deltas

    def test_each_follower_counts_one_hit(self):
        from repro import obs

        tasks = [make_task(name, key="shared") for name in "abc"]
        tasks.append(make_task("solo"))  # no key: never shared
        counter = CostCounter()
        with obs.observed() as stack:
            GroupScheduler(counter=counter).run(tasks)
        assert counter.delta_cache_hits == 2
        assert stack.metrics.counter("delta_cache_hits_total").value == 2

    @pytest.mark.parametrize("parallel", [False, True])
    def test_parallel_counters_are_absorbed(self, parallel):
        def counting_task(name):
            def compute(counter):
                if counter is not None:
                    counter.record("probe", 3)
                return (Bag.empty(), Bag.empty())

            return GroupTask(name=name, key=None, compute=compute, apply=lambda deltas: None)

        counter = CostCounter()
        tasks = [counting_task(f"t{i}") for i in range(4)]
        GroupScheduler(counter=counter, parallel=parallel, max_workers=2).run(tasks)
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
    """After the first epoch an unchanged group compiles and
    differentiates nothing — and a new member's pair is built where it
    is defined, not by an epoch."""
    import repro.core.differential as differential
    import repro.extensions.sharedlog as sharedlog
    from repro.exec.compiler import Compiler

    manager = ViewManager(exec_mode="compiled")
    manager.create_table("customer", ("custId", "name", "score"))
    manager.create_table("sales", ("custId", "itemNo", "quantity"))
    manager.load("customer", [(i, f"n{i}", "High" if i % 2 else "Low") for i in range(20)])
    manager.load("sales", [(i % 20, i, i % 3) for i in range(200)])
    for index in range(8):
        manager.define_view(f"V{index}", STEADY_VIEWS[index % 3], scenario="shared_log")

    calls = dict.fromkeys(("compile", "differentiate"), 0)

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
    epoch()  # the first epoch: pairs exist since define_view

    spy(Compiler, "compile", "compile")
    for module in (differential, sharedlog):
        spy(module, "differentiate", "differentiate")

    for step in range(1, 11):
        script(step)  # scripts compile their own plans: counted from here on
        scripts_compiled = calls["compile"]
        plans = manager.db.executor.cached_plans
        epoch()
        assert calls["compile"] == scripts_compiled, f"epoch {step} compiled a plan"
        assert manager.db.executor.cached_plans == plans, f"epoch {step} grew the plan table"
    assert calls["differentiate"] == 0

    # A new member: its pair is built where it is defined (its query is
    # already a member's, so nothing is differentiated), and no epoch
    # after a membership change builds one.
    manager.define_view("V8", STEADY_VIEWS[0], scenario="shared_log")
    assert calls["differentiate"] == 0
    manager.drop_view("V3")
    for step in range(11, 15):
        script(step)
        epoch()
    assert calls["differentiate"] == 0
    # A member with a new query differentiates once, at define_view.
    manager.define_view("V9", "SELECT custId, itemNo FROM sales WHERE quantity = 2", scenario="shared_log")
    assert calls["differentiate"] == 1


# ----------------------------------------------------------------------
# The standing pool: threads start once, results and spans unchanged
# ----------------------------------------------------------------------


def test_parallel_epochs_share_one_standing_pool(monkeypatch):
    """Three parallel epochs on a fresh pool start their worker threads in
    the first epoch only, leave every view bag-equal to a sequential twin,
    and keep each ``delta_compute`` span under its ``group_epoch``."""
    import threading

    import repro.exec.group as group
    from repro import obs
    from repro.robustness.journal import table_digests

    def steady_manager():
        manager = ViewManager(exec_mode="compiled")
        manager.create_table("customer", ("custId", "name", "score"))
        manager.create_table("sales", ("custId", "itemNo", "quantity"))
        manager.load("customer", [(i, f"n{i}", "High" if i % 2 else "Low") for i in range(20)])
        manager.load("sales", [(i % 20, i, i % 3) for i in range(200)])
        for index in range(6):
            manager.define_view(f"V{index}", STEADY_VIEWS[index % 3], scenario="shared_log")
        return manager

    monkeypatch.setattr(group, "_POOLS", {})
    started = []
    original_start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        return original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)

    subject, twin = steady_manager(), steady_manager()
    per_epoch = []
    with obs.observed() as stack:
        for step in range(3):
            script = (
                f"INSERT INTO sales (custId, itemNo, quantity) VALUES ({step}, {1000 + step}, 2); "
                f"DELETE FROM sales WHERE custId = {step} AND itemNo = {step}"
            )
            subject.execute_sql(script)
            twin.execute_sql(script)
            before = len(started)
            subject.refresh_group(parallel=True, max_workers=2)
            per_epoch.append(len(started) - before)
            twin.refresh_group(parallel=False)
            views = [subject.scenario(name).read_table for name in subject.views()]
            assert table_digests(subject.db, views) == table_digests(twin.db, views), step

    assert per_epoch[0] == 2 and per_epoch[1:] == [0, 0], per_epoch
    epochs = [span for span in stack.tracer.find("group_epoch") if span.attrs["parallel"]]
    assert len(epochs) == 3
    # Six views over three queries: three leaders per epoch, each
    # computed under the epoch that asked for it, none a root of its own.
    for epoch in epochs:
        assert [child.name for child in epoch.children].count("delta_compute") == 3
    assert not [root for root in stack.tracer.roots if root.name == "delta_compute"]
