"""Eraser-style dynamic lockset sanitizer for the refresh lock discipline.

The static analyzer (:mod:`repro.analysis.concurrency_check`) checks
the *declared* maintenance protocols; this sanitizer checks the code
that actually ran.  It follows the classic lockset algorithm: for each
reader-visible ``MV`` table it maintains a **candidate lockset** — the
intersection of the exclusive locks held at every access observed so
far inside a refresh-family operation.  The Section 5.3 discipline
says that intersection must always contain the view's lock; when it
becomes empty, some access path reached ``MV`` without the lock, and
the sanitizer records a finding with the same ``RVM6xx`` codes the
static pass uses:

* empty lockset at a **read** → RVM601;
* empty lockset at a **write** → RVM602.

Scope: accesses are tracked only while a refresh-family span
(``refresh`` / ``partial_refresh``) is open on the current thread —
``makesafe`` runs inside the user transaction's atomicity and
``propagate`` is lock-free by design, so their ``MV``-free effects are
not judged.  Lock state and the operation stack are thread-local (the
group scheduler's pool workers compute deltas with no op open and no
locks held, so they contribute no accesses); findings are shared and
deduplicated on ``(code, table, operation)``.

Enable with ``obs.observed(sanitizer=True)`` — the default
:class:`NullSanitizer` costs one attribute check per instrumented site.
Enabled, it keeps tuple-operation accounting bit-identical
(``tests/test_free_bookkeeping.py``) within a 1.05× wall-clock budget
(``benchmarks/test_e19_obs_downtime.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.naming import is_mv_table

__all__ = ["SanitizerFinding", "LocksetSanitizer", "NullSanitizer"]

#: Operations whose MV accesses the lockset algorithm judges — kept in
#: lockstep with :data:`repro.analysis.effects.REFRESH_OPS` (imported
#: lazily there to keep :mod:`repro.obs` import-light); a test pins the
#: two sets equal.
TRACKED_OPS = frozenset({"refresh", "partial_refresh"})

#: Span names that mark a maintenance operation on the op stack.
OP_SPANS = frozenset({"makesafe", "refresh", "partial_refresh", "propagate"})


@dataclass(frozen=True)
class SanitizerFinding:
    """One dynamic lock-discipline violation."""

    code: str
    table: str
    op: str
    view: str
    detail: str

    def format(self) -> str:
        where = f" (view {self.view!r})" if self.view else ""
        return f"{self.code} [{self.op}]{where}: {self.detail}"


class NullSanitizer:
    """The disabled sanitizer: every hook is a no-op."""

    enabled = False
    __slots__ = ()

    def op_enter(self, name: str, view: str) -> None:
        pass

    def op_exit(self, name: str) -> None:
        pass

    def tracking(self) -> bool:
        return False

    def lock_acquired(self, resource: str) -> None:
        pass

    def lock_released(self, resource: str) -> None:
        pass

    def on_read(self, tables) -> None:
        pass

    def on_write(self, tables) -> None:
        pass


class LocksetSanitizer:
    """Live lockset tracking; see the module docstring for the algorithm."""

    enabled = True

    def __init__(self) -> None:
        self._tls = threading.local()
        self._mutex = threading.Lock()
        #: Open refresh-family ops across all threads; lets
        #: :meth:`tracking` answer ``False`` with one attribute test
        #: while no refresh is running anywhere (the common case).
        self._tracked_open = 0
        self.findings: list[SanitizerFinding] = []
        self._seen: set[tuple[str, str, str]] = set()
        #: Candidate lockset per MV table (Eraser's ``C(v)``): ``None``
        #: until first tracked access, then intersected at every access.
        self._locksets: dict[str, frozenset[str]] = {}

    # -- thread-local state --------------------------------------------

    def _state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
        return state

    # -- operation stack (driven by obs.span on op names) --------------

    def op_enter(self, name: str, view: str) -> None:
        self._state().ops.append((name, view))
        if name in TRACKED_OPS:
            with self._mutex:
                self._tracked_open += 1

    def op_exit(self, name: str) -> None:
        ops = self._state().ops
        if ops and ops[-1][0] == name:
            ops.pop()
            if name in TRACKED_OPS:
                with self._mutex:
                    self._tracked_open -= 1

    def current_op(self) -> tuple[str, str] | None:
        ops = self._state().ops
        return ops[-1] if ops else None

    def tracking(self) -> bool:
        """Whether accesses on this thread would currently be judged.

        Call-site fast path: computing an access's table set (e.g.
        ``expr.tables()``) can cost more than the access bookkeeping,
        so instrumented sites skip it entirely outside refresh-family
        operations.
        """
        if not self._tracked_open:
            return False
        ops = self._state().ops
        return bool(ops) and ops[-1][0] in TRACKED_OPS

    # -- lock events (driven by LockLedger.exclusive) ------------------

    def lock_acquired(self, resource: str) -> None:
        held = self._state().held
        held[resource] = held.get(resource, 0) + 1

    def lock_released(self, resource: str) -> None:
        held = self._state().held
        count = held.get(resource, 0) - 1
        if count > 0:
            held[resource] = count
        else:
            held.pop(resource, None)

    def held_locks(self) -> frozenset[str]:
        return frozenset(self._state().held)

    # -- accesses (driven by Database reads/writes) --------------------

    def on_read(self, tables) -> None:
        self._access(tables, "read")

    def on_write(self, tables) -> None:
        self._access(tables, "write")

    def _access(self, tables, kind: str) -> None:
        # Most accesses touch no MV table (logs, bases, differentials):
        # answer those before fetching the thread state.
        mv_tables = [t for t in tables if is_mv_table(t)]
        if not mv_tables:
            return
        state = self._state()
        if not state.ops:
            return
        op, view = state.ops[-1]
        if op not in TRACKED_OPS:
            return
        held = frozenset(state.held)
        code = "RVM601" if kind == "read" else "RVM602"
        with self._mutex:
            for table in mv_tables:
                prior = self._locksets.get(table)
                lockset = held if prior is None else prior & held
                self._locksets[table] = lockset
                if not lockset:
                    self._emit(
                        code,
                        table,
                        op,
                        view,
                        f"{kind} of reader-visible table {table!r} during "
                        f"{op!r} with candidate lockset empty (held: "
                        f"{sorted(held) or 'none'})",
                    )

    # -- reporting ------------------------------------------------------

    def _emit(self, code: str, table: str, op: str, view: str, detail: str) -> None:
        key = (code, table, op)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(SanitizerFinding(code, table, op, view, detail))

    def report(self):
        """The findings as an :class:`~repro.analysis.diagnostics.AnalysisReport`."""
        from repro.analysis.diagnostics import AnalysisReport, Severity

        report = AnalysisReport()
        for finding in self.findings:
            report.add(finding.code, Severity.ERROR, finding.detail, path=finding.table)
        return report

    def reset(self) -> None:
        with self._mutex:
            self.findings.clear()
            self._seen.clear()
            self._locksets.clear()


class _ThreadState:
    __slots__ = ("ops", "held")

    def __init__(self) -> None:
        self.ops: list[tuple[str, str]] = []
        self.held: dict[str, int] = {}


#: Shared disabled instance (mirrors the other obs null objects).
NULL_SANITIZER = NullSanitizer()
