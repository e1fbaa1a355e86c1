"""Group refresh on a partitioned database: one task per view, oracle-equal."""

import warnings

from repro.exec.group import GroupScheduler
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase
from repro.warehouse import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

CFG = RetailConfig(customers=80, initial_sales=800, promotion_fraction=0.15, seed=33)
TOP_SQL = "SELECT custId, itemNo FROM sales WHERE quantity != 0"


def build_manager(partitioned, mode="compiled"):
    db = PartitionedDatabase(exec_mode=mode) if partitioned else Database(exec_mode=mode)
    workload = RetailWorkload(CFG)
    workload.setup_database(db)
    if partitioned:
        db.declare_partitioning("customer", "custId", parts=8, domain="custId")
        db.declare_partitioning("sales", "custId", parts=8, domain="custId")
    manager = ViewManager(db)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manager.define_view("VJoin", VIEW_SQL, scenario="base_log")
        manager.define_view("VTop", TOP_SQL, scenario="combined")
    return manager, workload


class TestGroupRefresh:
    def test_group_refresh_matches_sequential_oracle(self):
        oracle, oracle_w = build_manager(False, "interpreted")
        subject, subject_w = build_manager(True)
        for epoch in range(3):
            for txn in oracle_w.transactions(oracle.db, 5):
                oracle.execute(txn)
            for txn in subject_w.transactions(subject.db, 5):
                subject.execute(txn)
            for name in ("VJoin", "VTop"):
                oracle.refresh(name)
            subject.refresh_group()
        for name in ("VJoin", "VTop"):
            assert subject.query(name) == oracle.query(name), name
            assert not subject.is_stale(name)
        subject.check_invariants()

    def test_one_task_per_view(self, monkeypatch):
        """A partitioned view adds exactly one task to an epoch."""
        manager, workload = build_manager(True)
        for name in ("VJoin", "VTop"):
            assert manager.scenario(name).partition_probe == "accepted", name
        scheduled = []
        run = GroupScheduler.run

        def spy(scheduler, tasks, *args, **kwargs):
            scheduled.append(sorted(task.name for task in tasks))
            return run(scheduler, tasks, *args, **kwargs)

        monkeypatch.setattr(GroupScheduler, "run", spy)
        for _ in range(2):
            for txn in workload.transactions(manager.db, 5):
                manager.execute(txn)
            manager.refresh_group()
        assert scheduled == [["VJoin", "VTop"]] * 2
        for name in ("VJoin", "VTop"):
            assert not manager.is_stale(name)
        manager.check_invariants()
