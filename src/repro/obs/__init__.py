"""Observability for the maintenance stack: spans, metrics, downtime.

Three cooperating pieces, all zero-dependency and all **off by
default** (the no-op implementations cost a function call at each
instrumented site and change nothing about the cost model):

* :mod:`repro.obs.tracer` — nested spans over every maintenance
  operation (``txn``, ``propagate``, ``refresh``, ``partial_refresh``,
  ``group_epoch``, ``plan_compile``, ``journal_commit``, ``recovery``,
  …), exportable as JSON and rendered by ``python -m repro trace``;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms (refresh latency, delta sizes, cache hit ratios, journal
  fsyncs, lock retries) with text/JSON exporters and a ``snapshot()``
  API the benchmarks consume;
* :mod:`repro.obs.accounting` — per-view downtime/staleness clocks
  implementing the Section 5.3 model (time locked for refresh vs. time
  serving stale answers; staleness in wall-clock seconds *and*
  unpropagated log entries).

Usage::

    from repro import obs

    with obs.observed() as o:          # tracer + metrics + accounting on
        manager.refresh_group()
    print(obs.render.render_trace(o.tracer.to_dict()))
    print(o.metrics.render_text())
    print(o.accounting.snapshot())

or imperatively with :func:`enable` / :func:`disable`.  Instrumented
library code calls the module-level helpers (:func:`span`,
:func:`metric_inc`, …), which dispatch to the currently installed
:class:`Observability` — the shared no-op instance unless enabled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs import render
from repro.obs.accounting import DowntimeAccountant, NullAccountant, ViewClock
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.sanitizer import (
    NULL_SANITIZER,
    OP_SPANS,
    LocksetSanitizer,
    NullSanitizer,
    SanitizerFinding,
)
from repro.obs.tracer import NULL_HANDLE, NullTracer, Span, SpanHandle, Tracer

__all__ = [
    "Observability",
    "enable",
    "disable",
    "observed",
    "current",
    "is_enabled",
    "telemetry_enabled",
    "active_sanitizer",
    "LocksetSanitizer",
    "NullSanitizer",
    "SanitizerFinding",
    "span",
    "metric_inc",
    "metric_observe",
    "metric_set",
    "accountant",
    "Tracer",
    "NullTracer",
    "Span",
    "SpanHandle",
    "MetricsRegistry",
    "NullMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DowntimeAccountant",
    "NullAccountant",
    "ViewClock",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
    "render",
]


class Observability:
    """One tracer + one metrics registry + one downtime accountant.

    Plus, optionally, one dynamic lockset sanitizer
    (:class:`~repro.obs.sanitizer.LocksetSanitizer`) — off by default
    like everything else here.
    """

    __slots__ = ("tracer", "metrics", "accounting", "sanitizer", "telemetry", "enabled")

    def __init__(self, tracer=None, metrics=None, accounting=None, sanitizer=None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.accounting = accounting if accounting is not None else DowntimeAccountant()
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        #: Whether any *reporting* piece (tracer/metrics/accounting) is
        #: live.  Instrumented sites that compute values only to feed
        #: those pieces (delta sizes, log watermarks) gate on this, not
        #: on ``enabled`` — a sanitizer-only stack must not pay for
        #: telemetry nobody records.
        self.telemetry = bool(
            getattr(self.tracer, "enabled", False)
            or getattr(self.metrics, "enabled", False)
            or getattr(self.accounting, "enabled", False)
        )
        self.enabled = self.telemetry or bool(getattr(self.sanitizer, "enabled", False))

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()
        self.accounting.reset()
        if self.sanitizer.enabled:
            self.sanitizer.reset()


#: The default no-op stack; instrumentation dispatches through
#: :data:`_current`, which points here unless :func:`enable` ran.
NULL_OBS = Observability(NullTracer(), NullMetrics(), NullAccountant(), NULL_SANITIZER)

_current: Observability = NULL_OBS


def current() -> Observability:
    """The currently installed observability stack (no-op by default)."""
    return _current


def is_enabled() -> bool:
    return _current.enabled


def telemetry_enabled() -> bool:
    """Whether tracer/metrics/accounting (not just the sanitizer) are live."""
    return _current.telemetry


def enable(
    *,
    tracer: bool | Tracer = True,
    metrics: bool | MetricsRegistry = True,
    accounting: bool | DowntimeAccountant = True,
    sanitizer: bool | LocksetSanitizer = False,
) -> Observability:
    """Install (and return) a live observability stack.

    Each piece can be toggled off individually (``tracer=False``) or
    replaced with a preconfigured instance.  The lockset ``sanitizer``
    is opt-in (``sanitizer=True``): it changes no results and no tuple
    accounting, but it is extra per-access work.
    """
    global _current
    _current = Observability(
        tracer if not isinstance(tracer, bool) else (Tracer() if tracer else NullTracer()),
        metrics if not isinstance(metrics, bool) else (MetricsRegistry() if metrics else NullMetrics()),
        accounting
        if not isinstance(accounting, bool)
        else (DowntimeAccountant() if accounting else NullAccountant()),
        sanitizer
        if not isinstance(sanitizer, bool)
        else (LocksetSanitizer() if sanitizer else NULL_SANITIZER),
    )
    return _current


def disable() -> None:
    """Restore the default no-op stack."""
    global _current
    _current = NULL_OBS


@contextmanager
def observed(**options: Any) -> Iterator[Observability]:
    """Enable observability for a block; restores the previous stack."""
    global _current
    previous = _current
    stack = enable(**options)
    try:
        yield stack
    finally:
        _current = previous


# ----------------------------------------------------------------------
# Instrumentation helpers (what library call sites use)
# ----------------------------------------------------------------------


class _SanitizedSpan:
    """Span wrapper that pushes/pops the sanitizer's operation stack."""

    __slots__ = ("_inner", "_sanitizer", "_name", "_view")

    def __init__(self, inner, sanitizer, name: str, view: str) -> None:
        self._inner = inner
        self._sanitizer = sanitizer
        self._name = name
        self._view = view

    def __enter__(self):
        self._sanitizer.op_enter(self._name, self._view)
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._sanitizer.op_exit(self._name)


def span(name: str, *, counter: Any = None, **attrs: Any):
    """Open a span on the current tracer (the shared no-op when disabled).

    When the lockset sanitizer is enabled and the span names a
    maintenance operation (``makesafe`` / ``refresh`` /
    ``partial_refresh`` / ``propagate``), the handle also scopes the
    sanitizer's per-thread operation stack.
    """
    handle = _current.tracer.span(name, counter=counter, **attrs)
    sanitizer = _current.sanitizer
    if sanitizer.enabled and name in OP_SPANS:
        return _SanitizedSpan(handle, sanitizer, name, str(attrs.get("view", "")))
    return handle


def active_sanitizer() -> LocksetSanitizer | None:
    """The live lockset sanitizer, or ``None`` when disabled."""
    sanitizer = _current.sanitizer
    return sanitizer if sanitizer.enabled else None


def metric_inc(name: str, amount: float = 1) -> None:
    _current.metrics.inc(name, amount)


def metric_observe(name: str, value: float, *, buckets: tuple[float, ...] = SIZE_BUCKETS) -> None:
    _current.metrics.observe(name, value, buckets=buckets)


def metric_set(name: str, value: float) -> None:
    _current.metrics.set_gauge(name, value)


def accountant() -> DowntimeAccountant | NullAccountant:
    return _current.accounting
