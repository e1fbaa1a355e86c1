"""Downtime and staleness accounting — the paper's Section 5.3 model.

The paper defines *downtime* as the execution time of the transaction
that refreshes the view table, during which an exclusive lock blocks
all readers.  Everything outside that lock is time the view *serves
stale answers*.  :class:`DowntimeAccountant` keeps one
:class:`ViewClock` per view and splits its lifetime into exactly those
two measures:

* **downtime** — wall-clock seconds and tuple operations spent inside
  exclusive-lock critical sections on the view table (fed by
  :class:`~repro.storage.locks.LockLedger`), per section and in total;
* **staleness** — how out-of-date the answers served meanwhile are,
  measured in **both** units the experiments need:

  - *wall-clock*: seconds since the first unabsorbed update, sampled at
    each refresh (``staleness_s`` samples) and integrable over the run
    (``stale_seconds``), and
  - *log entries*: recorded-but-unpropagated log tuples (plus pending
    differential rows for ``INV_C``), sampled at the same points.

Policy 1 and Policy 2 at equal ``(k, m)`` differ in exactly these
numbers — Policy 2 trades a bounded ``k`` ticks of staleness for
minimal per-refresh downtime — and E19
(``benchmarks/test_e19_obs_downtime.py``) measures that trade-off with
this accountant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ViewClock", "DowntimeAccountant", "NullAccountant"]


@dataclass
class ViewClock:
    """Per-view downtime and staleness state."""

    view: str
    #: Total wall-clock seconds the view table was exclusively locked.
    locked_seconds: float = 0.0
    #: Total tuple operations performed while locked.
    locked_ops: int = 0
    #: Completed lock sections (one per refresh/partial_refresh).
    lock_sections: int = 0
    #: Worst single section, in both units.
    max_section_seconds: float = 0.0
    max_section_ops: int = 0
    #: Wall-clock moment the first unabsorbed update landed (None = fresh).
    stale_since: float | None = None
    #: Accumulated seconds spent serving stale answers.
    stale_seconds: float = 0.0
    #: Unpropagated log entries (+ pending differential rows) right now.
    pending_entries: int = 0
    #: Staleness sampled at each refresh completion: (wall_s, entries).
    staleness_samples: list[tuple[float, int]] = field(default_factory=list)
    refreshes: int = 0

    # -- derived -------------------------------------------------------

    def mean_section_seconds(self) -> float:
        return self.locked_seconds / self.lock_sections if self.lock_sections else 0.0

    def mean_section_ops(self) -> float:
        return self.locked_ops / self.lock_sections if self.lock_sections else 0.0

    def max_staleness_seconds(self) -> float:
        return max((sample[0] for sample in self.staleness_samples), default=0.0)

    def max_staleness_entries(self) -> int:
        return max((sample[1] for sample in self.staleness_samples), default=0)

    def snapshot(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "downtime": {
                "locked_seconds": round(self.locked_seconds, 6),
                "locked_ops": self.locked_ops,
                "lock_sections": self.lock_sections,
                "mean_section_seconds": round(self.mean_section_seconds(), 6),
                "mean_section_ops": round(self.mean_section_ops(), 2),
                "max_section_seconds": round(self.max_section_seconds, 6),
                "max_section_ops": self.max_section_ops,
            },
            "staleness": {
                "stale_seconds": round(self.stale_seconds, 6),
                "pending_entries": self.pending_entries,
                "samples": len(self.staleness_samples),
                "max_wall_s": round(self.max_staleness_seconds(), 6),
                "max_entries": self.max_staleness_entries(),
                "refreshes": self.refreshes,
            },
        }


class DowntimeAccountant:
    """Per-view clocks implementing the downtime/staleness split."""

    enabled = True

    def __init__(self, *, clock=time.perf_counter) -> None:
        self._clock = clock
        self._clocks: dict[str, ViewClock] = {}

    def clock(self, view: str) -> ViewClock:
        state = self._clocks.get(view)
        if state is None:
            state = self._clocks[view] = ViewClock(view)
        return state

    def views(self) -> tuple[str, ...]:
        return tuple(sorted(self._clocks))

    # -- downtime (fed by the lock ledger) ------------------------------

    def on_lock_section(self, view: str, *, seconds: float, ops: int, label: str = "") -> None:
        """One completed exclusive-lock critical section on ``view``."""
        state = self.clock(view)
        state.locked_seconds += seconds
        state.locked_ops += ops
        state.lock_sections += 1
        state.max_section_seconds = max(state.max_section_seconds, seconds)
        state.max_section_ops = max(state.max_section_ops, ops)

    # -- staleness -------------------------------------------------------

    def mark_stale(self, view: str, *, pending_entries: int) -> None:
        """An update left ``view`` with unabsorbed changes."""
        state = self.clock(view)
        state.pending_entries = pending_entries
        if pending_entries > 0 and state.stale_since is None:
            state.stale_since = self._clock()

    def mark_fresh(self, view: str, *, residual_entries: int = 0) -> None:
        """A refresh completed; sample and (maybe) close the stale window.

        ``residual_entries`` is what the refresh left behind — zero for a
        full refresh, the still-unpropagated log for Policy 2's
        ``partial_refresh`` (the view is now a bounded ``k`` out of
        date, never fully current).
        """
        state = self.clock(view)
        now = self._clock()
        stale_for = (now - state.stale_since) if state.stale_since is not None else 0.0
        state.stale_seconds += stale_for
        state.staleness_samples.append((stale_for, state.pending_entries))
        state.refreshes += 1
        state.pending_entries = residual_entries
        state.stale_since = now if residual_entries > 0 else None

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {view: self._clocks[view].snapshot() for view in self.views()}

    def reset(self) -> None:
        self._clocks.clear()


class NullAccountant:
    """The default, do-nothing accountant."""

    enabled = False

    def clock(self, view: str) -> ViewClock:
        return ViewClock(view)

    def views(self) -> tuple[str, ...]:
        return ()

    def on_lock_section(self, view: str, *, seconds: float, ops: int, label: str = "") -> None:
        pass

    def mark_stale(self, view: str, *, pending_entries: int) -> None:
        pass

    def mark_fresh(self, view: str, *, residual_entries: int = 0) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {}

    def reset(self) -> None:
        pass
