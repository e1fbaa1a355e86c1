"""Background maintenance workers for the view server.

A :class:`MaintenanceWorker` is a daemon thread that drains the server's
maintenance queue — propagate / partial_refresh / refresh actions queued
by :meth:`~repro.serve.server.ViewServer.tick` — off the read *and*
write paths.  Workers contend on the server's single write mutex (the
view manager underneath is not thread-safe), so a pool of ``n`` workers
buys responsiveness (the queue is picked up as soon as any worker
wakes), not parallel maintenance throughput.

Crash semantics mirror the rest of the robustness layer: an
:class:`~repro.robustness.faults.InjectedCrash` mid-action kills that
worker only.  The storage layer's all-or-nothing install has already
rolled the in-flight operation back, the action returns to the queue for
a retry (refresh-family operations are idempotent), and the published
snapshot — plus every pinned one — is untouched.  An action that fails
deterministically (:class:`~repro.errors.ReproError`) was already
dropped by the server; the worker records the error and keeps draining.
"""

from __future__ import annotations

import threading

from repro.errors import ReproError
from repro.robustness.faults import InjectedCrash

__all__ = ["MaintenanceWorker", "WorkerPool"]


class MaintenanceWorker(threading.Thread):
    """One queue-draining maintenance thread."""

    def __init__(self, server, index: int = 0, *, poll_interval_s: float = 0.005) -> None:
        super().__init__(name=f"maintenance-worker-{index}", daemon=True)
        self._server = server
        self._poll_interval_s = poll_interval_s
        self._wake = threading.Event()
        self._stopping = threading.Event()
        #: The InjectedCrash that killed this worker, if any.
        self.crashed: InjectedCrash | None = None
        #: Deterministic failures of dropped actions, in the order seen.
        self.failures: list[ReproError] = []
        self.actions_run = 0

    def run(self) -> None:
        while not self._stopping.is_set():
            self._wake.wait(self._poll_interval_s)
            self._wake.clear()
            try:
                self.actions_run += len(self._server.drain_maintenance())
            except InjectedCrash as crash:
                self.crashed = crash
                return
            except ReproError as error:
                self.failures.append(error)
                self._wake.set()  # the rest of the queue is still due

    def kick(self) -> None:
        """Wake the worker now instead of at its next poll."""
        self._wake.set()

    def stop(self, *, timeout_s: float = 5.0) -> None:
        self._stopping.set()
        self._wake.set()
        self.join(timeout=timeout_s)


class WorkerPool:
    """A fixed set of maintenance workers over one server."""

    def __init__(self, server, count: int = 1, *, poll_interval_s: float = 0.005) -> None:
        if count < 1:
            raise ValueError("worker pools need at least one worker")
        self.workers = [
            MaintenanceWorker(server, index, poll_interval_s=poll_interval_s)
            for index in range(count)
        ]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def kick(self) -> None:
        for worker in self.workers:
            worker.kick()

    def alive(self) -> int:
        return sum(1 for worker in self.workers if worker.is_alive())

    def crashes(self) -> list[InjectedCrash]:
        """Crashes that have killed workers so far."""
        return [worker.crashed for worker in self.workers if worker.crashed is not None]

    def actions_run(self) -> int:
        return sum(worker.actions_run for worker in self.workers)

    def stop(self, *, timeout_s: float = 5.0) -> None:
        for worker in self.workers:
            worker.stop(timeout_s=timeout_s)
