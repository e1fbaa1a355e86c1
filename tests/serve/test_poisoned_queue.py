"""A maintenance action that can never succeed must not wedge the server.

Two halves of one rule.  Up front, a view whose scenario cannot run what
the server's policy schedules is refused at ``define_view`` (the rule
``MaintenanceDriver.__init__`` applies).  At drain time, only what a
retry can fix is re-queued — an injected crash or a dying worker — while
a deterministic :class:`~repro.errors.ReproError` is dropped, counted
and raised exactly once.  Before this rule, ``ViewServer(ServeConfig())``
plus one ``base_log`` view raised on *every* tick from tick 2 on, with
``pending_maintenance()`` growing without bound.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.errors import PolicyError
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.serve import ServeConfig, ViewServer

from tests.serve.conftest import build_server


@pytest.fixture(autouse=True)
def _reset_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.mark.parametrize("scenario", ["base_log", "diff_table", "immediate", "shared_log"])
def test_default_policy_refuses_a_view_it_cannot_maintain(scenario):
    server = ViewServer(ServeConfig())  # Policy2: schedules propagate / partial_refresh
    server.create_table("R", ["a"], rows=[(1,), (2,)])
    with pytest.raises(PolicyError, match="propagate"):
        server.define_view("V", "SELECT a FROM R", scenario=scenario)
    # Failed closed: nothing registered, nothing left behind, ticks stay healthy.
    assert server.views() == ()
    assert server.manager.views() == ()
    assert not server.db.has_table("__mv__V")
    for _ in range(5):
        assert server.tick() == []
    assert server.pending_maintenance() == 0


def test_deterministic_failure_is_dropped_counted_and_raised_once():
    server, workload = build_server(k=1, m=2)
    server._due.append((server.now, "V", "defragment"))  # no such operation: fails every time
    with obs.observed() as stack:
        with pytest.raises(PolicyError):
            server.tick([workload.next_transaction(server.db)])
        # The poisoned action is gone; the propagate queued behind it is not.
        assert server.pending_maintenance() == 1
        assert server.drain_maintenance() == [("V", "propagate")]
        for _ in range(4):
            server.tick([workload.next_transaction(server.db)])
        assert stack.metrics.snapshot()["maintenance_actions_failed"]["value"] == 1
    assert server.actions_failed == 1
    assert server.stats()["actions_failed"] == 1
    assert server.pending_maintenance() == 0
    server.manager.check_invariants()


def test_injected_crash_is_still_requeued():
    """The crash-containment contract: a retry can fix this, so it stays queued."""
    server, workload = build_server(k=1, m=2)
    INJECTOR.arm("crash-mid-propagate", hit=1)
    with pytest.raises(InjectedCrash):
        server.tick([workload.next_transaction(server.db)])
    assert server.pending_maintenance() == 1
    assert server.actions_failed == 0
    INJECTOR.reset()
    assert server.drain_maintenance() == [("V", "propagate")]
    server.manager.check_invariants()


def test_worker_survives_a_poisoned_action():
    server, workload = build_server(k=1, m=2)
    pool = server.start_workers(1)
    try:
        server._due.append((server.now, "V", "defragment"))
        server.tick([workload.next_transaction(server.db)])
        assert server.wait_idle(timeout_s=5.0)
        deadline = time.monotonic() + 5.0
        worker = pool.workers[0]
        while not worker.failures and time.monotonic() < deadline:
            time.sleep(0.002)
        assert [type(error) for error in worker.failures] == [PolicyError]
        assert pool.alive() == 1 and not pool.crashes()
    finally:
        server.stop_workers()
    assert server.actions_failed == 1
    assert server.pending_maintenance() == 0
