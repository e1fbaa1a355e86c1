"""The five workloads, and the pass that drives one of them end to end.

A *pass* is one complete life of a warehouse: set-up (create tables,
load, ``define_view``), a fixed-count closed-loop op stream of rounds —
write scripts, one maintenance step, keyed reads — and the output
checks.  One client; the next operation is issued when the previous one
returns.  Every timing is the workload's clock (``time.perf_counter()``
but for ``stream_durable``) around one public call of the program; the
checks and the traced pass's count sampling are kept out of the measured
wall.

Every timing of a pass is then *normalised to the machine's speed while
the pass ran* (see :class:`SpeedProbe`): the box is a slice of a shared
host whose speed moves by a factor of 1.5 for minutes at a time, which
no run length averages out.

Program calls go through module and class attributes (``sqlcompiler.
sql_to_expr``, not a by-name import) so that the tracer's wrappers are
the ones this file calls.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from inputs import (
    CUSTOMER_COLUMNS,
    GROUP_VIEW_TEMPLATES,
    RETAIL_VIEW_SQL,
    SALES_COLUMNS,
    Inputs,
    Shape,
)
from layers import Tracer

from repro.algebra import evaluation
from repro.core.policies import PeriodicRefresh
from repro.robustness import journal
from repro.robustness.durable import DurableWarehouse
from repro.serve import ServeConfig, ViewServer
from repro.sqlfront import compiler as sqlcompiler
from repro.storage.partition import PartitionedDatabase
from repro.warehouse.manager import ViewManager

__all__ = ["WORKLOADS", "PassResult", "Workload", "run_pass"]

#: Scratch space for the durable workload's snapshot + journal files;
#: inside the checkout (the benchmark writes nowhere else) and ignored.
WORK_DIR = Path(__file__).resolve().parent / ".work"

_KEYED_READ = "SELECT itemNo, quantity FROM {mv} WHERE custId = {{key}}"
_GROUP_READ = "SELECT * FROM {mv} WHERE custId = {{key}}"


# ----------------------------------------------------------------------
# The machine-speed probe
# ----------------------------------------------------------------------

#: What one :func:`probe_kernel` takes on this host when it is quiet.
#: Timings are reported as if every kernel had taken exactly this long.
PROBE_REFERENCE_S = 1.25e-3
#: Measured time between two kernels (probed at the next op boundary).
PROBE_EVERY_S = 8.0e-3


def probe_kernel() -> None:
    """A fixed piece of the kind of work the program does: tuples into a dict bag.

    It belongs to the benchmark, so no change to the program can move it.
    """
    bag: dict[tuple, int] = {}
    for i in range(3200):
        row = (i % 997, i % 50, i & 3, i * 0.5)
        bag[row] = bag.get(row, 0) + 1


class SpeedProbe:
    """Samples the machine's speed all through a pass.

    The same pass over the same inputs takes 0.85 s or 1.25 s on this
    host depending on what its other tenants are doing, in phases that
    last from seconds to minutes.  A kernel interleaved with the ops
    every ~8 ms (outside the measured wall) slows down with them: the
    ratio of pass time to median kernel time spreads by 4-5 % where the
    raw time spreads by 15 %.  :meth:`factor` is what to multiply the
    pass's timings by to read them at the reference speed.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.samples: list[float] = []
        self.last = clock()

    def due(self) -> bool:
        return self.clock() - self.last >= PROBE_EVERY_S

    def sample(self) -> None:
        started = self.clock()
        probe_kernel()
        self.last = self.clock()
        self.samples.append(self.last - started)

    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# Targets: the three ways the program is driven
# ----------------------------------------------------------------------


class Target:
    """One warehouse under test, behind the four operations a pass issues."""

    #: The :class:`ViewManager` that owns counter, ledger and scenarios.
    manager: ViewManager

    def __init__(self, exec_mode: str | None) -> None:
        self.exec_mode = exec_mode

    def setup(self, inputs: Inputs) -> None:
        raise NotImplementedError

    def txn(self, script: str) -> None:
        raise NotImplementedError

    def maintain(self) -> bool:
        """One maintenance step; False when the policy had nothing due."""
        raise NotImplementedError

    def read(self, sql: str):
        raise NotImplementedError

    def refresh_all(self) -> None:
        """Bring every view fully up to date (before the output checks)."""
        for name in self.manager.views():
            self.manager.refresh(name)

    def check_invariants(self) -> None:
        self.manager.check_invariants()

    def read_sql(self) -> dict[str, str]:
        """View name -> keyed query text over its table, ``{key}`` open."""
        template = _KEYED_READ if len(self.manager.views()) == 1 else _GROUP_READ
        return {
            name: template.format(mv=self.manager.scenario(name).view.mv_table)
            for name in self.manager.views()
        }

    def serve_stats(self) -> dict[str, int]:
        """Snapshot-registry and queue gauges (zeros without a server)."""
        return {"snapshots_live": 0, "retained_rows": 0, "queue_depth": 0}

    def finish(self, result: PassResult, tracer: Tracer | None, clock: Callable[[], float]) -> None:
        """Target-specific end-of-pass checks (``clock`` is the pass's timer)."""

    def discard(self) -> None:
        """Release whatever the target holds outside the process."""


class ServerTarget(Target):
    """Example 1.1's view behind a :class:`ViewServer` (snapshot reads)."""

    def __init__(self, exec_mode, *, scenario: str, policy=None, durable: bool = False) -> None:
        super().__init__(exec_mode)
        self.scenario = scenario
        self.policy = policy
        self.workdir: Path | None = None
        if durable:
            WORK_DIR.mkdir(exist_ok=True)
            self.workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))

    def setup(self, inputs: Inputs) -> None:
        path = str(self.workdir / "warehouse.db") if self.workdir is not None else None
        config = ServeConfig(k=2, m=7, policy=self.policy, exec_mode=self.exec_mode, durable_path=path)
        server = self.server = ViewServer(config)
        self.manager = getattr(server.manager, "manager", server.manager)
        server.create_table("customer", CUSTOMER_COLUMNS)
        server.create_table("sales", SALES_COLUMNS)
        server.load("customer", inputs.customers)
        server.load("sales", inputs.sales)
        server.define_view("V", RETAIL_VIEW_SQL, scenario=self.scenario)

    def txn(self, script: str) -> None:
        self.server.execute_sql(script)

    def maintain(self) -> bool:
        return bool(self.server.tick())

    def read(self, sql: str):
        handle = self.server.pin()
        try:
            return handle.evaluate(sqlcompiler.sql_to_expr(sql, self.server.db))
        finally:
            handle.release()

    def refresh_all(self) -> None:
        # Through the facade, so a durable warehouse journals it too.
        for name in self.manager.views():
            self.server.manager.refresh(name)

    def serve_stats(self) -> dict[str, int]:
        registry = self.server.registry
        return {
            "snapshots_live": registry.live_count(),
            "retained_rows": registry.retained_rows(),
            "queue_depth": self.server.pending_maintenance(),
        }

    def finish(self, result: PassResult, tracer: Tracer | None, clock: Callable[[], float]) -> None:
        if self.workdir is None:
            return
        # Restart check: the snapshot + journal files alone must give
        # back every table exactly as it was before the close.
        warehouse = self.server.manager
        path = warehouse.path
        before = journal.table_digests(warehouse.db)
        warehouse.close()
        result.file_bytes = {
            "snapshot": path.stat().st_size,
            "journal": journal.journal_path(path).stat().st_size,
        }
        if tracer is not None:
            tracer.recording = True
        started = clock()
        reopened = DurableWarehouse.open(path, exec_mode=self.exec_mode)
        result.reopen_s = clock() - started
        if tracer is not None:
            tracer.recording = False
        try:
            after = journal.table_digests(reopened.db)
        finally:
            reopened.close()
        result.check("reopen: table digests equal the pre-close digests", before == after)

    def discard(self) -> None:
        if self.workdir is not None:
            server = getattr(self, "server", None)
            if server is not None:
                server.manager.close()  # closing the journal twice is harmless
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                WORK_DIR.rmdir()
            except OSError:
                pass  # another measurement still has its scratch files there


class GroupTarget(Target):
    """Sixteen shared-log views refreshed as one group; live reads."""

    VIEWS = 16

    def setup(self, inputs: Inputs) -> None:
        manager = self.manager = ViewManager(exec_mode=self.exec_mode)
        manager.create_table("customer", CUSTOMER_COLUMNS)
        manager.create_table("sales", SALES_COLUMNS)
        manager.load("customer", inputs.customers)
        manager.load("sales", inputs.sales)
        for index in range(self.VIEWS):
            template = GROUP_VIEW_TEMPLATES[index % len(GROUP_VIEW_TEMPLATES)]
            manager.define_view(f"V{index}", template, scenario="shared_log")

    def txn(self, script: str) -> None:
        self.manager.execute_sql(script)

    def maintain(self) -> bool:
        self.manager.refresh_group(parallel=True, max_workers=2)
        return True

    def read(self, sql: str):
        return self.manager.sql(sql)

    def refresh_all(self) -> None:
        self.manager.refresh_group()


class PartitionedTarget(Target):
    """Example 1.1's view over hash-partitioned base tables; live reads."""

    PARTS = 32

    def setup(self, inputs: Inputs) -> None:
        db = PartitionedDatabase(exec_mode=self.exec_mode)
        manager = self.manager = ViewManager(db)
        manager.create_table("customer", CUSTOMER_COLUMNS)
        manager.create_table("sales", SALES_COLUMNS)
        manager.load("customer", inputs.customers)
        manager.load("sales", inputs.sales)
        db.declare_partitioning("customer", "custId", parts=self.PARTS, domain="custId")
        db.declare_partitioning("sales", "custId", parts=self.PARTS, domain="custId")
        manager.define_view("V", RETAIL_VIEW_SQL, scenario="base_log")

    def txn(self, script: str) -> None:
        self.manager.execute_sql(script)

    def maintain(self) -> bool:
        self.manager.refresh("V")
        return True

    def read(self, sql: str):
        return self.manager.sql(sql)

    def finish(self, result: PassResult, tracer: Tracer | None, clock: Callable[[], float]) -> None:
        result.check(
            "partitioned refresh never fell back to whole tables",
            self.manager.counter.partition_fallbacks == 0
            and self.manager.counter.partition_prunes > 0,
        )


# ----------------------------------------------------------------------
# The workload table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    make: Callable[[str | None], Target]
    #: The timer of every measurement of this workload's passes.
    clock: Callable[[], float] = time.perf_counter


#: Sizes are for a 2-core shared box: a pass is kept to 1-2 s of measured
#: work so that a run of ``run_seconds`` holds 9-18 of them, each with its
#: own set-up and its own inputs.  Per run that is typically >= 500
#: scripts, >= 2 000 reads and >= 80 maintenance steps on every workload;
#: per pass it is what fits.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stream_mem",
            Shape(1500, 15000, 50, 30, 56, 4, 25, 0.32, 0.08, 8),
            lambda mode: ServerTarget(mode, scenario="combined"),
        ),
        Workload(
            "stream_durable",
            Shape(150, 1500, 50, 10, 14, 4, 25, 0.32, 0.08, 16),
            lambda mode: ServerTarget(mode, scenario="combined", durable=True),
            # Processor time of the process, not wall: two thirds of this
            # workload's wall is fsync waiting on the host's shared disk,
            # and that wait moved between 1 ms and 100 ms per script within
            # ten minutes on the same code.  What is left is what the
            # program does about durability (digests, serialisation, page
            # writes); what the device does is not measurable here.
            clock=time.process_time,
        ),
        Workload(
            "backlog_refresh",
            Shape(1500, 15000, 50, 30, 10, 24, 25, 2, 1, 40),
            lambda mode: ServerTarget(mode, scenario="base_log", policy=PeriodicRefresh(m=1)),
        ),
        Workload(
            "multiview_group",
            Shape(600, 6000, 50, 30, 12, 10, 10, 1, 1 / 3, 32),
            GroupTarget,
        ),
        Workload(
            "partitioned_hotkeys",
            Shape(2000, 30000, 500, 40, 100, 2, 10, 0, 0.4, 8),
            PartitionedTarget,
        ),
    )
}


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------

_COUNTERS = (
    "tuples_out",
    "plan_hits",
    "plan_misses",
    "memo_hits",
    "index_probes",
    "delta_cache_hits",
    "partitions_touched",
    "partition_prunes",
    "partition_fallbacks",
)


@dataclass
class PassResult:
    """Everything one pass measured."""

    setup_s: float = 0.0
    phase_s: float = 0.0
    reopen_s: float = 0.0
    txn_s: list[float] = field(default_factory=list)
    maint_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    downtime_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: CostCounter growth over the measured phase.
    counters: dict[str, int] = field(default_factory=dict)
    #: Maxima of the gauges sampled at maintenance boundaries (traced pass).
    gauges: dict[str, int] = field(default_factory=dict)
    #: View name -> content digest after the final refresh.
    digests: dict[str, str] = field(default_factory=dict)
    file_bytes: dict[str, int] = field(default_factory=dict)
    #: Median probe kernel time during the pass, and the factor every
    #: time above was multiplied by to read at the reference speed.
    probe_s: float = 0.0
    speed_factor: float = 1.0

    def normalise(self, probe: SpeedProbe) -> None:
        """Rescale every time of the pass to the reference machine speed."""
        factor = self.speed_factor = probe.factor()
        self.probe_s = statistics.median(probe.samples)
        for name in ("setup_s", "phase_s", "reopen_s", "downtime_s"):
            setattr(self, name, factor * getattr(self, name))
        for name in ("txn_s", "maint_s", "read_s"):
            setattr(self, name, [factor * seconds for seconds in getattr(self, name)])

    def check(self, what: str, ok: bool) -> None:
        """Record one output check (a failure counts like a failed op)."""
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {what}")

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        if len(self.failures) <= 5:
            print(f"FAIL {what}", file=sys.stderr)


def _log_rows(manager: ViewManager) -> int:
    """Recorded-but-unabsorbed log tuples across all views right now."""
    rows = 0
    groups = {}
    for name in manager.views():
        scenario = manager.scenario(name)
        log = getattr(scenario, "log", None)
        if log is not None:
            rows += log.recorded_changes()
        group = getattr(scenario, "group", None)
        if group is not None:
            groups[id(group)] = group
    return rows + sum(group.log_size() for group in groups.values())


def run_pass(
    workload: Workload,
    seed: int,
    index: int,
    *,
    length: float = 1.0,
    exec_mode: str | None = None,
    tracer: Tracer | None = None,
    before_checks: Callable[[Target], None] | None = None,
) -> PassResult:
    """Run pass ``index`` of ``workload``: set-up, op stream, output checks.

    The inputs are a function of ``(seed, workload, index)`` only.  With
    a ``tracer`` (already installed) spans are recorded around set-up,
    ops and reopen — not around checks — and gauges are sampled at the
    maintenance boundaries, outside the measured wall.  Every time in
    the result is at the reference machine speed (:class:`SpeedProbe`).
    ``before_checks`` lets the self-check sabotage the final state.
    """
    result = PassResult()
    inputs = Inputs(workload.shape.shortened(length), f"{seed}:{workload.name}:{index}")
    target = workload.make(exec_mode)
    clock = workload.clock
    probe = SpeedProbe(clock)

    def timed(call: Callable, *args) -> tuple[float, object]:
        """``(seconds, result)`` of one operation; a raise is counted, not propagated."""
        result.attempted += 1
        started = clock()
        try:
            value = call(*args)
        except Exception:
            # The op stream must keep running; the failure is counted and shown.
            value = None
            result.fail(f"{call.__name__} raised:\n{traceback.format_exc(limit=4)}")
        return clock() - started, value

    def recording(on: bool) -> None:
        if tracer is not None:
            tracer.recording = on

    paused = 0.0

    @contextmanager
    def unmeasured():
        """Checks and gauge sampling: not traced, not part of the wall."""
        nonlocal paused
        pause = clock()
        recording(False)
        try:
            yield
        finally:
            recording(True)
            paused += clock() - pause

    def probe_if_due() -> None:
        if probe.due():
            with unmeasured():
                probe.sample()

    try:
        gc.collect()
        probe.sample()
        recording(True)
        started = clock()
        target.setup(inputs)
        result.setup_s = clock() - started
        recording(False)
        probe.sample()

        manager = target.manager
        rounds = inputs.rounds(target.read_sql())
        mv_tables = {manager.scenario(name).view.mv_table for name in manager.views()}
        invariant_rounds = {len(rounds) * part // 4 for part in (1, 2, 3)}
        sections_before = len(manager.ledger.sections)
        counters_before = {name: getattr(manager.counter, name) for name in _COUNTERS}
        gauges = result.gauges = {"log_rows": 0, "snapshots_live": 0, "retained_rows": 0, "queue_depth": 0}

        gc.collect()
        recording(True)
        phase_started = clock()
        for number, round_ in enumerate(rounds, start=1):
            for script in round_.scripts:
                result.txn_s.append(timed(target.txn, script)[0])
                probe_if_due()
            if tracer is not None:
                with unmeasured():
                    gauges["log_rows"] = max(gauges["log_rows"], _log_rows(manager))
            # A step where the policy had nothing due is part of the wall
            # but is not a maintenance sample.
            seconds, worked = timed(target.maintain)
            if worked is not False:
                result.maint_s.append(seconds)
            probe_if_due()
            if tracer is not None:
                with unmeasured():
                    for name, value in target.serve_stats().items():
                        gauges[name] = max(gauges[name], value)
            for read in round_.reads:
                result.read_s.append(timed(target.read, read)[0])
                probe_if_due()
            if number in invariant_rounds:
                with unmeasured():
                    timed(target.check_invariants)
        result.phase_s = clock() - phase_started - paused
        recording(False)

        result.downtime_s = sum(
            section.wall_seconds
            for section in manager.ledger.sections[sections_before:]
            if section.resource in mv_tables
        )
        result.counters = {
            name: getattr(manager.counter, name) - counters_before[name] for name in _COUNTERS
        }

        # Output checks: after a final refresh every view must be bag-equal
        # to its query recomputed by the interpreted evaluator (the paper's
        # oracle) over the base tables.
        timed(target.refresh_all)
        if before_checks is not None:
            before_checks(target)
        db = manager.db
        for name in manager.views():
            scenario = manager.scenario(name)
            view = scenario.view
            state = {table: db[table] for table in view.base_tables()}
            actual = scenario.read_view()
            expected = evaluation.evaluate(view.query, state)
            result.check(f"view {name} equals its query recomputed", actual == expected)
            result.digests[name] = journal.bag_digest(actual)
        target.finish(result, tracer, clock)
    finally:
        recording(False)
        target.discard()
    result.normalise(probe)
    return result
