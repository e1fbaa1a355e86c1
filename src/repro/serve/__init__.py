"""Online view serving: snapshot-isolated reads, background maintenance.

The paper's Section 5.3 measures view *downtime* — the exclusive-lock
window refresh holds on ``MV`` while readers wait.  This package cashes
in the deferred-maintenance argument by removing readers from that
window entirely: reads are served from immutable
:class:`~repro.serve.snapshots.SnapshotHandle` cuts pinned through a
refcounted :class:`~repro.serve.snapshots.SnapshotRegistry`, while a
:class:`~repro.serve.server.ViewServer` runs Policy 2's propagate /
partial_refresh cadence behind a write mutex — synchronously, or on a
background :class:`~repro.serve.workers.WorkerPool`.

See ``docs/serving.md`` for the snapshot lifecycle, the worker pool's
crash semantics, and the E22 methodology
(``benchmarks/test_e22_serving.py``).
"""

from repro.serve.server import ServeConfig, ViewServer
from repro.serve.snapshots import SnapshotHandle, SnapshotRegistry
from repro.serve.workers import MaintenanceWorker, WorkerPool

__all__ = [
    "ServeConfig",
    "ViewServer",
    "SnapshotHandle",
    "SnapshotRegistry",
    "MaintenanceWorker",
    "WorkerPool",
]
