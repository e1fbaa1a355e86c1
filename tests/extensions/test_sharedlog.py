"""Unit + randomized tests for the shared sequenced log extension."""

import pytest

from repro.algebra.bag import Bag
from repro.core.plan import MaintenancePlan
from repro.core.transactions import UserTransaction
from repro.errors import SchemaError, UnknownTableError
from repro.extensions.sharedlog import SharedLog, shared_log_name
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.randgen import RandomExpressionGenerator


def make_db():
    db = Database()
    db.create_table("R", ["a"], rows=[(1,), (2,), (2,)])
    db.create_table("S", ["b"], rows=[(5,)])
    return db


def record(db, log, txn) -> None:
    """Apply weakly minimal ``txn`` with its one shared-log extension."""
    MaintenancePlan(patches=txn.patches()).merge(log.extend_patches(txn)).execute(db)


class TestSharedLog:
    def test_track_creates_log_table(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        assert db.has_table("__shared_log__R")
        assert db.is_internal("__shared_log__R")

    def test_track_idempotent(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        log.track("R")
        assert log.tables == ("R",)

    def test_records_tagged_entries(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        txn = UserTransaction(db).insert("R", [(9,)]).delete("R", [(1,)])
        txn = txn.weakly_minimal()
        record(db, log, txn)
        entries = db[shared_log_name("R")]
        assert (1, "I", 9) in entries
        assert (1, "D", 1) in entries

    def test_sequence_increments_per_transaction(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        for value in (7, 8):
            txn = UserTransaction(db).insert("R", [(value,)]).weakly_minimal()
            record(db, log, txn)
        assert log.current_seq == 2
        seqs = {row[0] for row in db[shared_log_name("R")].support}
        assert seqs == {1, 2}

    def test_net_deltas_fold_cancellation(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        for txn in (
            UserTransaction(db).insert("R", [(9,)]),
            UserTransaction(db).delete("R", [(9,)]),
        ):
            txn = txn.weakly_minimal()
            record(db, log, txn)
        net_delete, net_insert = log.net_deltas_since("R", 0)
        assert net_delete == Bag.empty()
        assert net_insert == Bag.empty()

    def test_net_deltas_respect_cursor(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        for value in (7, 8):
            txn = UserTransaction(db).insert("R", [(value,)]).weakly_minimal()
            record(db, log, txn)
        __, net_insert = log.net_deltas_since("R", 1)
        assert net_insert == Bag([(8,)])

    def test_untracked_table_rejected(self):
        db = make_db()
        log = SharedLog(db)
        with pytest.raises(SchemaError):
            log.net_deltas_since("R", 0)

    def test_prune(self):
        db = make_db()
        log = SharedLog(db)
        log.track("R")
        for value in (7, 8):
            txn = UserTransaction(db).insert("R", [(value,)]).weakly_minimal()
            record(db, log, txn)
        removed = log.prune(1)
        assert removed == 1
        assert {row[0] for row in db[shared_log_name("R")].support} == {2}

    def test_a_prune_that_removes_nothing_writes_nothing(self, tmp_path):
        """No version bump, no index rebuild, no full-table row queued for
        the checkpoint — on a log with entries to keep and on an empty one."""
        from repro.algebra.evaluation import CostCounter
        from repro.storage.persistence import track_deltas

        db = Database(exec_mode="compiled")
        db.create_table("R", ["a"], rows=[(1,)])
        db.create_table("S", ["b"], rows=[(5,)])
        log = SharedLog(db)
        log.track("R")
        log.track("S")  # never written: stays empty
        txn = UserTransaction(db).insert("R", [(7,)]).weakly_minimal()
        record(db, log, txn)
        names = [shared_log_name("R"), shared_log_name("S")]
        builds = CostCounter()
        for name in names:
            db.indexes.get(name, (0,), db[name], counter=builds)
        built = builds.by_operator.get("index_build", 0)
        queue = track_deltas(db, tmp_path / "snapshot.db")
        try:
            versions = {name: db.version_of(name) for name in names}
            assert log.prune(0) == 0
            assert {name: db.version_of(name) for name in names} == versions
            assert not queue.replaced and not queue.unsaved
            for name in names:
                db.indexes.get(name, (0,), db[name], counter=builds)
            assert builds.by_operator.get("index_build", 0) == built
            # A real prune still drops exactly the consumed entries, of the
            # table that has any — and leaves the empty log alone.
            assert log.prune(1) == 1
            assert not db[shared_log_name("R")]
            assert db.version_of(shared_log_name("R")) > versions[shared_log_name("R")]
            assert db.version_of(shared_log_name("S")) == versions[shared_log_name("S")]
            assert queue.replaced == {shared_log_name("R")}
        finally:
            queue.close()


class TestSharedLogScenario:
    def make(self, views=2):
        manager = ViewManager(make_db())
        for index in range(views):
            manager.define_view(f"V{index}", manager.db.ref("R"), scenario="shared_log")
        return manager.db, manager

    def test_duplicate_view_rejected(self):
        db, manager = self.make(1)
        with pytest.raises(SchemaError):
            manager.define_view("V0", db.ref("S"), scenario="shared_log")

    def test_refresh_unregistered_view(self):
        __, manager = self.make(1)
        with pytest.raises(UnknownTableError):
            manager.refresh("nope")

    def test_invariants_hold_through_stream(self):
        db, manager = self.make(2)
        for txn in (
            UserTransaction(db).insert("R", [(9,), (9,)]),
            UserTransaction(db).delete("R", [(2,)]),
        ):
            manager.execute(txn)
            manager.check_invariants()

    def test_refresh_brings_view_current(self):
        db, manager = self.make(2)
        manager.execute(UserTransaction(db).insert("R", [(9,)]))
        manager.refresh("V0")
        assert not manager.is_stale("V0")
        assert manager.is_stale("V1")  # untouched view still stale
        manager.check_invariants()

    def test_views_refresh_independently(self):
        db, manager = self.make(2)
        manager.execute(UserTransaction(db).insert("R", [(9,)]))
        manager.refresh("V0")
        manager.execute(UserTransaction(db).insert("R", [(10,)]))
        manager.refresh("V1")  # must catch up across both transactions
        assert not manager.is_stale("V1")
        manager.refresh("V0")
        assert not manager.is_stale("V0")

    def test_log_pruned_once_all_views_caught_up(self):
        db, manager = self.make(2)
        manager.execute(UserTransaction(db).insert("R", [(9,)]))
        manager.refresh("V0")
        assert manager.shared_log.log_size() > 0  # V1 still needs the entry
        manager.refresh("V1")
        assert manager.shared_log.log_size() == 0

    def test_per_transaction_cost_independent_of_view_count(self):
        """The whole point of the extension: adding views must not add
        per-transaction log work (unlike per-view logs)."""
        costs = {}
        for views in (1, 8):
            db, manager = self.make(views)
            before = manager.counter.tuples_out
            manager.execute(UserTransaction(db).insert("R", [(9,)]))
            costs[views] = manager.counter.tuples_out - before
        assert costs[8] == costs[1]

    def test_join_view_over_two_tables(self):
        manager = ViewManager(make_db())
        db = manager.db
        manager.define_view("J", db.ref("R").product(db.ref("S")), scenario="shared_log")
        manager.execute(UserTransaction(db).insert("R", [(9,)]).delete("S", [(5,)]))
        manager.check_invariants()
        manager.refresh("J")
        assert not manager.is_stale("J")

    def test_view_added_mid_stream_sees_only_later_changes(self):
        db, manager = self.make(1)
        manager.execute(UserTransaction(db).insert("R", [(9,)]))
        manager.define_view("late", db.ref("R"), scenario="shared_log")
        assert not manager.is_stale("late")
        manager.execute(UserTransaction(db).insert("R", [(10,)]))
        manager.refresh("late")
        assert not manager.is_stale("late")


@pytest.mark.parametrize("seed", range(10))
def test_randomized_shared_log_equivalence(seed):
    """Shared-log refresh produces the same MV as direct recomputation."""
    generator = RandomExpressionGenerator(seed)
    manager = ViewManager(generator.database())
    db = manager.db
    queries = {f"V{index}": generator.query(db, depth=3) for index in range(2)}
    for name, query in queries.items():
        manager.define_view(name, query, scenario="shared_log")
    for __ in range(3):
        manager.execute(generator.transaction(db, allow_over_delete=True))
        manager.check_invariants()
    for name, query in queries.items():
        manager.refresh(name)
        assert manager.query(name) == db.evaluate(query)
