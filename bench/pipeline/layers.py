"""Per-layer attribution: spans around a declared table of public callables.

The benchmark records its spans *from its own files*: :class:`Tracer`
replaces each callable named in :data:`LAYERS` with a thin recording
wrapper for the length of one traced pass and restores the original
afterwards.  Nothing under ``src/`` knows it is being traced, and the
end-to-end metrics are always taken from passes where no wrapper is
installed.

A span is ``[layer, parent, start, end, group]`` kept in memory.
A layer's **self time** is its spans' duration minus the part of that
interval their child spans cover, so self times add up to the traced
wall (what is left over is reported as ``trace.unattributed_share``).
Work handed to pool threads (``refresh_group(parallel=True)``) is
adopted by the main-thread span that was open when it started; where
such worker spans overlap each other their self times are scaled so the
subtree still adds up to the wall interval it covered, not to CPU-ish
time summed over threads.

A target that no longer resolves (renamed, deleted) is reported in
:attr:`Tracer.unresolved` and its layer reads ``None`` — never a crash —
so a refactor shows up as a gap in the table, not a broken benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["LAYERS", "Layer", "LayerTotals", "Tracer"]


@dataclass(frozen=True)
class Layer:
    """One row of the attribution table.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``;
    a trailing ``+`` also wraps every subclass that overrides the
    method.  ``moves`` names the end-to-end metric(s) an optimisation of
    this layer should move and ``on`` the workloads where it should show
    — written down before measuring, per the choosing-metrics guide.
    """

    name: str
    targets: tuple[str, ...]
    moves: str
    on: str
    after: Callable[[Tracer, tuple], None] | None = None


def _checkpoint_written(tracer: Tracer, args: tuple) -> None:
    """Count the bytes one checkpoint left on disk (``save_warehouse(manager, path)``)."""
    tracer.counts["checkpoint_bytes"] = (
        tracer.counts.get("checkpoint_bytes", 0) + Path(args[1]).stat().st_size
    )


_SCENARIOS = "repro.core.scenarios:Scenario"
_MANAGER = "repro.warehouse.manager:ViewManager"
_DURABLE = "repro.robustness.durable:DurableWarehouse"
_SERVER = "repro.serve.server:ViewServer"
_DATABASE = "repro.storage.database:Database"
_PARTDB = "repro.storage.partition:PartitionedDatabase"
_PMAINT = "repro.core.partition_refresh:PartitionedMaintenance"

#: Layers are the packages under ``src/repro/``; a row's name is
#: ``<package>.<what>``.  The ``*_self`` rows wrap the facades whose own
#: code should cost ~nothing: they are there so facade overhead is seen
#: if it ever stops being ~0, and so the table adds up to the wall.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "sqlfront.parse",
        tuple(f"repro.sqlfront.parser:{f}" for f in ("parse_script", "parse_statement", "parse_query")),
        "txn_p50_ms, read_p50_ms",
        "stream_mem, multiview_group",
    ),
    Layer(
        "sqlfront.compile",
        tuple(
            f"repro.sqlfront.compiler:{f}"
            for f in ("script_to_transaction", "sql_to_expr", "sql_to_view")
        ),
        "txn_p50_ms, read_p50_ms",
        "stream_mem, multiview_group",
    ),
    Layer("analysis.lint", ("repro.analysis.lint:lint_view",), "setup_s", "all"),
    Layer(
        "warehouse.execute_self",
        (f"{_MANAGER}.execute", f"{_MANAGER}.execute_sql", f"{_MANAGER}.sql"),
        "txn_p50_ms (facade overhead; expect ~0)",
        "all",
    ),
    Layer(
        "warehouse.maint_self",
        tuple(
            f"{_MANAGER}.{m}" for m in ("propagate", "partial_refresh", "refresh", "refresh_group")
        ),
        "maint_p50_ms (facade overhead; expect ~0)",
        "all",
    ),
    Layer("warehouse.define_self", (f"{_MANAGER}.define_view",), "setup_s", "all"),
    Layer("core.make_safe", (f"{_SCENARIOS}.make_safe+",), "txn_p50_ms", "stream_mem, multiview_group"),
    Layer(
        "core.plan_execute",
        ("repro.core.plan:MaintenancePlan.execute",),
        "txn_p50_ms",
        "stream_mem, multiview_group",
    ),
    Layer(
        "core.propagate",
        (f"{_SCENARIOS}.propagate+",),
        "maint_p50_ms",
        "stream_mem",
    ),
    Layer(
        "core.partial_refresh",
        (f"{_SCENARIOS}.partial_refresh+",),
        "maint_p50_ms, downtime_total_ms",
        "stream_mem",
    ),
    Layer(
        "core.refresh",
        (f"{_SCENARIOS}.refresh+",),
        "maint_p50_ms, downtime_total_ms",
        "backlog_refresh",
    ),
    Layer(
        "core.partition_refresh",
        (f"{_PMAINT}.refresh_log", f"{_PMAINT}.apply_differentials"),
        "maint_p50_ms",
        "partitioned_hotkeys",
    ),
    Layer(
        "exec.evaluate",
        ("repro.exec.executor:Executor.evaluate+",),
        "txn_p95_ms (DML predicate scans), maint_p50_ms",
        "backlog_refresh, stream_mem",
    ),
    Layer(
        "exec.plan_compile",
        ("repro.exec.executor:Executor.prime+",),
        "setup_s, maint_p50_ms",
        "backlog_refresh, multiview_group",
    ),
    Layer(
        "exec.group_run",
        ("repro.exec.group:GroupScheduler.run",),
        "maint_p50_ms",
        "multiview_group",
    ),
    Layer("storage.apply", (f"{_DATABASE}.apply+",), "txn_p50_ms", "stream_mem"),
    Layer(
        "storage.index_upkeep",
        ("repro.exec.indexes:IndexManager.on_patch", "repro.exec.indexes:IndexManager.on_replace"),
        "txn_p50_ms",
        "stream_mem",
    ),
    Layer(
        "storage.mirror_upkeep",
        (
            "repro.storage.sqlite_backend:SQLiteMirror.on_patch",
            "repro.storage.sqlite_backend:SQLiteMirror.on_replace",
        ),
        "txn_p50_ms",
        "sqlite engine-grid cells only",
    ),
    Layer("storage.cut", (f"{_DATABASE}.consistent_cut+",), "txn_p50_ms", "stream_mem"),
    Layer(
        "storage.partition_restrict",
        (f"{_PARTDB}.restrict", f"{_PARTDB}.apply_parts"),
        "maint_p50_ms",
        "partitioned_hotkeys",
    ),
    Layer(
        "storage.load",
        (f"{_DATABASE}.create_table+", f"{_DATABASE}.load+", f"{_PARTDB}.declare_partitioning"),
        "setup_s",
        "all",
    ),
    Layer(
        "robustness.journal_begin",
        ("repro.robustness.journal:IntentJournal.begin",),
        "txn_p50_ms, maint_p50_ms",
        "stream_durable",
    ),
    Layer(
        "robustness.journal_commit",
        ("repro.robustness.journal:IntentJournal.commit_op",),
        "txn_p50_ms, maint_p50_ms",
        "stream_durable",
    ),
    Layer(
        "robustness.digest",
        ("repro.robustness.journal:table_digests",),
        "txn_p50_ms, maint_p50_ms",
        "stream_durable",
    ),
    Layer(
        "robustness.checkpoint",
        ("repro.warehouse.persistence:save_warehouse",),
        "txn_p50_ms, maint_p50_ms",
        "stream_durable",
        after=_checkpoint_written,
    ),
    Layer(
        "robustness.durable_self",
        tuple(
            f"{_DURABLE}.{m}"
            for m in (
                "create_table",
                "load",
                "define_view",
                "execute",
                "execute_sql",
                "propagate",
                "partial_refresh",
                "refresh",
            )
        ),
        "txn_p50_ms (facade overhead; expect ~0)",
        "stream_durable",
    ),
    Layer("robustness.reopen", (f"{_DURABLE}.open",), "restart time", "stream_durable"),
    Layer(
        "serve.publish",
        ("repro.serve.snapshots:SnapshotRegistry.pin",),
        "txn_p50_ms",
        "stream_mem, backlog_refresh",
    ),
    Layer(
        "serve.read_eval",
        ("repro.serve.snapshots:SnapshotHandle.evaluate",),
        "read_p50_ms",
        "stream_mem, backlog_refresh",
    ),
    Layer(
        "serve.server_self",
        tuple(
            f"{_SERVER}.{m}"
            for m in ("create_table", "load", "define_view", "execute_sql", "tick", "pin")
        ),
        "txn_p50_ms (facade overhead; expect ~0)",
        "stream_mem, backlog_refresh",
    ),
    Layer(
        "extensions.sharedlog_extend",
        ("repro.extensions.sharedlog:SharedLog.extend_patches",),
        "txn_p50_ms",
        "multiview_group",
    ),
    Layer(
        "extensions.compact",
        ("repro.extensions.sharedlog:SharedLog.compact",),
        "maint_p50_ms",
        "multiview_group",
    ),
)


@dataclass
class LayerTotals:
    """What one layer cost in one traced pass."""

    self_s: float = 0.0
    calls: int = 0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            covered += end - max(start, edge)
            edge = end
    return covered


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# Span record slots.
_LAYER, _PARENT, _START, _END, _GROUP = range(5)


class Tracer:
    """Installs the :data:`LAYERS` wrappers and keeps their spans."""

    def __init__(self, clock: Callable[[], float]) -> None:
        #: The traced workload's timer, so spans and pass times compare.
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        #: ``"layer: target"`` strings that did not resolve at install.
        self.unresolved: list[str] = []
        #: Spans are only recorded while True (checks and sampling pause it).
        self.recording = False
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and restoring the wrappers
    # ------------------------------------------------------------------

    def __enter__(self) -> Tracer:
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    if not self._install(layer, target):
                        self.unresolved.append(f"{layer.name}: {target}")
                        print(f"warning: trace target does not resolve: {target}", file=sys.stderr)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _install(self, layer: Layer, target: str) -> bool:
        module_name, _, path = target.partition(":")
        tree = path.endswith("+")
        path = path.rstrip("+")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." not in path:
            original = getattr(module, path, None)
            if not callable(original):
                return False
            wrapper = self._wrap(layer, original)
            # ``from x import f`` copies the binding: patch every program
            # module that holds the same function object under any name.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").partition(".")[0] != "repro":
                    continue
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, name, original, wrapper)
            return True
        class_name, _, method = path.partition(".")
        cls = getattr(module, class_name, None)
        if not isinstance(cls, type):
            return False
        # Wrap where the method is *defined*: the named class, and with
        # ``+`` every subclass that overrides (or first introduces) it.
        owners = [o for o in (cls, *(_subclasses(cls) if tree else ())) if method in vars(o)]
        for owner in owners:
            raw = vars(owner)[method]
            if isinstance(raw, classmethod):
                wrapper: Any = classmethod(self._wrap(layer, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(layer, raw.__func__))
            else:
                wrapper = self._wrap(layer, raw)
            self._replace(owner, method, raw, wrapper)
        return bool(owners)

    def _replace(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        after = layer.after
        spans = self.spans
        local = self._local
        main_stack = self._main_stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                if parent[_LAYER] == name:
                    return fn(*args, **kwargs)  # same-layer re-entry: one span
                group = parent[_GROUP]
            else:
                # First span of a pool thread: adopted by whatever the
                # main thread has open (the call that fanned the work out).
                parent = main_stack[-1] if stack is not main_stack and main_stack else None
                group = parent
            record = [name, parent, clock(), 0.0, group]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
                if after is not None:
                    after(self, args)

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def totals(self) -> dict[str, LayerTotals | None]:
        """Per-layer totals over every recorded span.

        A layer with a target that did not resolve maps to ``None``.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        adopted: dict[int, list[tuple[float, float]]] = {}
        for record in self.spans:
            parent = record[_PARENT]
            if parent is None:
                continue
            interval = (max(record[_START], parent[_START]), min(record[_END], parent[_END]))
            children.setdefault(id(parent), []).append(interval)
            if record[_GROUP] is parent:
                adopted.setdefault(id(parent), []).append((record[_START], record[_END]))
        # Overlapping pool-thread subtrees under one parent are scaled to
        # the wall interval they jointly covered.
        scale = {
            key: _covered(intervals) / sum(end - start for start, end in intervals)
            for key, intervals in adopted.items()
        }
        broken = {entry.partition(":")[0] for entry in self.unresolved}
        out: dict[str, LayerTotals | None] = {
            layer.name: None if layer.name in broken else LayerTotals() for layer in LAYERS
        }
        for record in self.spans:
            totals = out[record[_LAYER]]
            if totals is None:
                continue
            duration = record[_END] - record[_START]
            own = duration - _covered(children.get(id(record), []))
            group = record[_GROUP]
            if group is not None:
                own *= scale[id(group)]
            totals.self_s += own
            totals.calls += 1
        return out
