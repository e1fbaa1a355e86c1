"""Nested maintenance spans: where refresh wall-time goes.

A :class:`Tracer` records a forest of :class:`Span` trees.  Each span
names one maintenance operation (the taxonomy is fixed — see
``docs/observability.md``), carries structured attributes (view name,
scenario tag, log watermark, tuple-ops absorbed from a
:class:`~repro.algebra.evaluation.CostCounter`), and nests under the
span that was open when it started, so one ``group_epoch`` span contains
each view's delta evaluation and refresh.

The default tracer installed by :mod:`repro.obs` is a
:class:`NullTracer` whose :meth:`~NullTracer.span` returns a shared
do-nothing handle — instrumentation left in the hot paths costs a
function call and a dict literal, nothing more.  Tuple-operation counts
are never *computed* by the tracer; they are absorbed as deltas of the
cost counter a call site already maintains, so tracing on or off can
never change the experiments' deterministic cost signal.

Spans parent through a thread-local stack: a span nests under the span
its own thread has open.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["Span", "SpanHandle", "Tracer", "NullTracer", "NULL_HANDLE", "TIMING_FIELDS"]

#: Span fields that vary run-to-run even for identical work.  Structural
#: comparisons of span trees (the compiled-vs-interpreted parity grid)
#: ignore exactly these.
TIMING_FIELDS = frozenset({"start_s", "duration_s", "tuple_ops"})


@dataclass
class Span:
    """One completed (or in-flight) traced operation."""

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    duration_s: float = 0.0
    children: list[Span] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe encoding (the trace-file format)."""
        return {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
            "attrs": {key: _jsonable(value) for key, value in self.attrs.items()},
            "children": [child.to_dict() for child in self.children],
        }

    def structure(self) -> dict[str, Any]:
        """The span tree minus timing — what parity tests compare."""
        return {
            "name": self.name,
            "attrs": {
                key: _jsonable(value)
                for key, value in sorted(self.attrs.items())
                if key not in TIMING_FIELDS
            },
            "children": [child.structure() for child in self.children],
        }

    def find(self, name: str) -> list[Span]:
        """All descendant spans (including self) with the given name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


class SpanHandle:
    """Context manager for one live span; also the attribute setter."""

    __slots__ = ("_tracer", "_span", "_counter", "_ops_before")

    def __init__(self, tracer: Tracer, span: Span, counter: Any = None) -> None:
        self._tracer = tracer
        self._span = span
        self._counter = counter
        self._ops_before = 0

    @property
    def span(self) -> Span:
        return self._span

    def set(self, **attrs: Any) -> SpanHandle:
        """Attach (or overwrite) structured attributes on the span."""
        self._span.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous child span (duration 0)."""
        child = Span(name=name, attrs=dict(attrs), start_s=self._tracer.clock() - self._tracer.epoch)
        self._span.children.append(child)

    def __enter__(self) -> SpanHandle:
        if self._counter is not None:
            self._ops_before = self._counter.tuples_out
        self._span.start_s = self._tracer.clock() - self._tracer.epoch
        self._tracer._push(self._span)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._span.duration_s = (self._tracer.clock() - self._tracer.epoch) - self._span.start_s
        if self._counter is not None:
            self._span.attrs["tuple_ops"] = self._counter.tuples_out - self._ops_before
        self._tracer._pop(self._span)


class _NullHandle:
    """The do-nothing span handle shared by every disabled call site."""

    __slots__ = ()

    span = None

    def set(self, **attrs: Any) -> _NullHandle:
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> _NullHandle:
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects span trees; thread-safe for snapshot readers and serve workers."""

    enabled = True

    def __init__(self, *, clock=time.perf_counter) -> None:
        self.clock = clock
        self.epoch = clock()
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def span(self, name: str, *, counter: Any = None, **attrs: Any) -> SpanHandle:
        """Open a span; use as ``with tracer.span("refresh", view=v):``.

        ``counter`` absorbs a cost counter's ``tuples_out`` delta into the
        span's ``tuple_ops`` attribute.
        """
        return SpanHandle(self, Span(name=name, attrs=dict(attrs)), counter=counter)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            # A span opened with no enclosing span is a root of the
            # forest; registering it while still in flight is fine.
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def active(self) -> Span | None:
        """This thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- export --------------------------------------------------------

    def reset(self) -> None:
        self.roots.clear()
        self.epoch = self.clock()
        self._local = threading.local()

    def to_dict(self) -> dict[str, Any]:
        return {"format": "repro-trace-v1", "spans": [span.to_dict() for span in self.roots]}

    def write(self, path: str | Path) -> Path:
        """Export the collected trace as a JSON file."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def find(self, name: str) -> list[Span]:
        found: list[Span] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found


class NullTracer:
    """The default: every span is the shared no-op handle."""

    enabled = False

    roots: tuple = ()

    def span(self, name: str, *, counter: Any = None, **attrs: Any) -> _NullHandle:
        return NULL_HANDLE

    def active(self) -> None:
        return None

    def reset(self) -> None:
        pass

    def to_dict(self) -> dict[str, Any]:
        return {"format": "repro-trace-v1", "spans": []}

    def find(self, name: str) -> list:
        return []
