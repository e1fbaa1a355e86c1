"""ViewServer behavior: publication, clocks, durability, async, workers."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.policies import OnQueryPolicy, PeriodicRefresh, Policy1
from repro.errors import PolicyError, UnknownTableError
from repro.robustness.journal import bag_digest
from repro.serve import ServeConfig, ViewServer

from tests.serve.conftest import build_server


class TestPublication:
    def test_every_tick_publishes_a_new_snapshot(self):
        server, workload = build_server()
        first = server.current.snapshot_id
        server.tick([workload.next_transaction(server.db)])
        assert server.current.snapshot_id > first

    def test_maintenance_actions_publish_individually(self):
        """Readers see propagate and refresh as distinct snapshot versions."""
        server, workload = build_server(k=1, m=2)
        server.tick([workload.next_transaction(server.db)])
        after_tick_1 = server.current.snapshot_id
        # Tick 2 queues propagate AND partial_refresh; each action plus the
        # tick itself must publish, so the id advances by at least 3.
        server.tick([workload.next_transaction(server.db)])
        assert server.current.snapshot_id >= after_tick_1 + 3

    def test_pinned_snapshot_is_stable_across_writes(self):
        server, workload = build_server()
        with server.pin() as handle:
            before = bag_digest(server.read_at(handle, "V"))
            for _ in range(6):
                server.tick([workload.next_transaction(server.db)])
            assert bag_digest(server.read_at(handle, "V")) == before

    def test_superseded_snapshots_are_collected(self):
        server, workload = build_server()
        for _ in range(8):
            server.tick([workload.next_transaction(server.db)])
        stats = server.registry.stats()
        assert stats["live"] == 1  # only the served current cut
        assert stats["collected_total"] > 0

    def test_read_unknown_view_raises(self):
        server, _ = build_server()
        with pytest.raises(UnknownTableError):
            server.read("nope")
        with pytest.raises(UnknownTableError):
            server.staleness_ticks("nope")


class TestClocks:
    def test_staleness_follows_policy2_cadence(self):
        """mv_reflects/dt_reflects mirror MaintenanceDriver semantics."""
        server, workload = build_server(k=2, m=5)
        observed = {}
        for _ in range(10):
            server.tick([workload.next_transaction(server.db)])
            observed[server.now] = server.staleness_ticks("V")
        # Ticks 1..4: nothing has moved mv_reflects, staleness grows.
        assert observed[1] == 1 and observed[4] == 4
        # Tick 5: partial_refresh installs the delta table absorbed at the
        # tick-4 propagate, so the view reflects tick 4 -> staleness 1.
        assert observed[5] == 1
        # Tick 10: propagate and partial_refresh are both due; the fresh
        # propagate runs first, so the refresh absorbs tick 10 itself.
        assert observed[10] == 0

    def test_snapshot_reflects_stamp_tracks_mv(self):
        server, workload = build_server(k=2, m=5)
        for _ in range(5):
            server.tick([workload.next_transaction(server.db)])
        assert server.current.tick == 5
        assert server.current.reflects == 4  # partial_refresh absorbed tick 4

    def test_read_fresh_resets_staleness(self):
        server, workload = build_server(k=3, m=9)
        for _ in range(2):
            server.tick([workload.next_transaction(server.db)])
        assert server.staleness_ticks("V") == 2
        fresh = server.read_fresh("V")
        assert server.staleness_ticks("V") == 0
        assert bag_digest(server.read("V")) == bag_digest(fresh)

    def test_policy_override(self):
        server, workload = build_server(policy=PeriodicRefresh(m=1))
        for _ in range(3):
            ran = server.tick([workload.next_transaction(server.db)])
            assert ran == [("V", "refresh")]
            assert server.staleness_ticks("V") == 0

    def test_policy1_refresh_resets_both_clocks(self):
        server, workload = build_server(policy=Policy1(k=2, m=4))
        for _ in range(4):
            server.tick([workload.next_transaction(server.db)])
        assert server.staleness_ticks("V") == 0

    def test_refresh_on_query_policy_is_refused(self):
        # A read never takes the write mutex, so it cannot refresh; such a
        # server would serve an ever staler view with nothing queued.
        with pytest.raises(PolicyError, match="read_fresh.*MaintenanceDriver"):
            ViewServer(ServeConfig(policy=OnQueryPolicy()))

    def test_unknown_action_rejected(self):
        server, _ = build_server()
        with pytest.raises(PolicyError):
            server._run_action("V", "defragment")


class TestCorrectness:
    def test_served_reads_match_interpreted_oracle(self):
        server, workload = build_server("compiled", k=2, m=5)
        oracle, oracle_workload = build_server("interpreted", k=2, m=5)
        for _ in range(10):
            server.tick([workload.next_transaction(server.db)])
            oracle.tick([oracle_workload.next_transaction(oracle.db)])
            assert bag_digest(server.read("V")) == bag_digest(oracle.read("V"))

    def test_run_with_schedule(self):
        server, workload = build_server()
        schedule = {1: [workload.next_transaction(server.db)]}
        server.run(4, schedule)
        assert server.now == 4


class TestWorkerPool:
    def test_workers_drain_queue_off_the_caller_thread(self):
        server, workload = build_server(k=1, m=3)
        server.start_workers(2)
        try:
            for _ in range(6):
                server.tick([workload.next_transaction(server.db)])
            assert server.wait_idle()
        finally:
            server.stop_workers()
        assert server.actions_run >= 6  # k=1: at least one action per tick

    def test_double_start_rejected(self):
        server, _ = build_server()
        server.start_workers()
        try:
            with pytest.raises(PolicyError):
                server.start_workers()
        finally:
            server.stop_workers()

    def test_stop_workers_drains_remainder(self):
        server, workload = build_server(k=1, m=3)
        pool = server.start_workers(1, poll_interval_s=60.0)
        # The worker sleeps for a minute unless kicked; queue work, then
        # make sure stop() still leaves the queue empty.
        pool.workers[0].kick()  # no-op: nothing queued yet
        for _ in range(2):
            server.tick([workload.next_transaction(server.db)])
        server.stop_workers()
        assert server.pending_maintenance() == 0

    def test_worker_equivalence_with_synchronous_drain(self):
        """Same schedule, with and without a pool: same final view."""
        threaded, workload_a = build_server(k=2, m=5)
        synchronous, workload_b = build_server(k=2, m=5)
        threaded.start_workers(2)
        try:
            for _ in range(10):
                threaded.tick([workload_a.next_transaction(threaded.db)])
                synchronous.tick([workload_b.next_transaction(synchronous.db)])
            assert threaded.wait_idle()
        finally:
            threaded.stop_workers()
        assert bag_digest(threaded.read("V")) == bag_digest(synchronous.read("V"))


class TestComposition:
    def test_durable_mode_journals_and_recovers(self, tmp_path):
        from repro.workloads.retail import VIEW_SQL, CUSTOMER_ATTRS, SALES_ATTRS, RetailConfig, RetailWorkload

        path = tmp_path / "serve.journal"
        workload = RetailWorkload(RetailConfig(customers=8, initial_sales=20, txn_inserts=3, seed=7))
        server = ViewServer(ServeConfig(k=1, m=2, durable_path=str(path)))
        server.create_table("customer", CUSTOMER_ATTRS, rows=workload.customer_rows())
        server.create_table("sales", SALES_ATTRS, rows=workload.initial_sales_rows())
        server.define_view("V", VIEW_SQL, scenario="combined")
        for _ in range(4):
            server.tick([workload.next_transaction(server.db)])
        expected = bag_digest(server.read("V"))

        from repro.robustness.durable import DurableWarehouse

        recovered = DurableWarehouse.open(str(path))
        assert bag_digest(recovered.query_fresh("V")) == expected

    def test_durable_mode_runs_journaled_actions_on_a_worker(self, tmp_path):
        """The journal's and the snapshot file's connections are opened on
        the constructing thread and used on whichever thread holds the
        write mutex — here a maintenance worker."""
        from repro.robustness.durable import DurableWarehouse
        from repro.robustness.journal import table_digests
        from repro.workloads.retail import VIEW_SQL, CUSTOMER_ATTRS, SALES_ATTRS, RetailConfig, RetailWorkload

        def build(durable_path):
            workload = RetailWorkload(RetailConfig(customers=8, initial_sales=20, txn_inserts=3, seed=7))
            server = ViewServer(ServeConfig(k=1, m=2, durable_path=durable_path))
            server.create_table("customer", CUSTOMER_ATTRS, rows=workload.customer_rows())
            server.create_table("sales", SALES_ATTRS, rows=workload.initial_sales_rows())
            server.define_view("V", VIEW_SQL, scenario="combined")
            return server, workload

        path = tmp_path / "serve.db"
        server, workload = build(str(path))
        oracle, oracle_workload = build(None)
        pool = server.start_workers(1)
        try:
            for _ in range(4):
                server.tick([workload.next_transaction(server.db)])
                oracle.tick([oracle_workload.next_transaction(oracle.db)])
                assert server.wait_idle()
        finally:
            server.stop_workers(drain=False)
        worker = pool.workers[0]
        assert not worker.is_alive() and worker.crashed is None and not worker.failures
        # Every queued action ran on the worker: none was put back for
        # the caller's thread to finish.
        assert worker.actions_run == server.actions_run == oracle.actions_run > 0
        assert server.pending_maintenance() == 0 and server.actions_failed == 0
        assert bag_digest(server.read("V")) == bag_digest(oracle.read("V"))

        before = table_digests(server.db)
        server.manager.close()
        with DurableWarehouse.open(path) as reopened:
            assert table_digests(reopened.db) == before

    def test_async_read_matches_sync(self):
        server, workload = build_server()
        server.tick([workload.next_transaction(server.db)])

        async def _go():
            return await server.read_async("V")

        assert bag_digest(asyncio.run(_go())) == bag_digest(server.read("V"))

    def test_stats_shape(self):
        server, workload = build_server()
        server.tick([workload.next_transaction(server.db)])
        server.read("V")
        stats = server.stats()
        assert stats["now"] == 1
        assert stats["reads_served"] >= 1
        assert stats["pending_maintenance"] == 0
        assert "V" in stats["staleness_ticks"]
        assert stats["snapshots"]["live"] >= 1
