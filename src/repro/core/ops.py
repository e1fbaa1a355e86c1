"""One definition per maintenance operation (Figure 3, Section 5.3).

The paper states each operation once — ``makesafe_*``, ``propagate_C``,
``partial_refresh_C``, ``refresh_*`` are short lists of simultaneous
assignments — plus one fact per line: "under the view lock" or not.
This module holds that statement as values:

* a :class:`MaintenanceOp` is **one row of Figure 3** for one view: an
  ordered tuple of :class:`OpStep`\\ s, each either *computing* a
  ``(delete, insert)`` delta pair or *applying* a plan built from it,
  each marked ``locked`` or not.  Scenarios declare their ops once;
  :meth:`repro.core.scenarios.Scenario.run` executes them and
  :func:`repro.analysis.effects.op_effects` reads their footprints off
  the same value.
* a :class:`MaintenanceAction` is the caller's request one level up —
  what the journal records, recovery rebuilds, and the policy driver,
  the crash harness and the view server dispatch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.errors import PolicyError

__all__ = ["OP_KINDS", "ACTIONS", "OpStep", "MaintenanceOp", "MaintenanceAction"]

#: Figure 3's per-view operations and how each moves Section 5.3's
#: clocks, as ``(absorbs_log, applies)``: absorbing the log brings the
#: differentials up to *now*; applying brings ``MV`` up to wherever the
#: differentials are.
OP_KINDS: dict[str, tuple[bool, bool]] = {
    "propagate": (True, False),
    "partial_refresh": (False, True),
    "refresh": (True, True),
}

#: Journal kind -> the facade method that runs it.  Exactly the intents
#: recovery can roll forward; anything else (DDL) rolls back.
ACTIONS: dict[str, str] = {
    "txn": "execute",
    **{kind: kind for kind in OP_KINDS},
    "refresh_all": "refresh_all",
    "refresh_group": "refresh_group",
}


@dataclass(frozen=True)
class OpStep:
    """One assignment group of an operation; ``deltas`` xor ``plan`` is set.

    A *compute* step's ``deltas()`` returns the symbolic ``(delete,
    insert)`` pair; an *apply* step's ``plan(*pair)`` builds the plan
    that installs it (``pair`` is empty before any compute step).
    ``via`` replaces the default execution (``plan(*pair).execute``)
    where the same assignments run another way: pruned and
    partition-at-a-time on a partitioned database.
    """

    name: str
    locked: bool = False
    deltas: Callable[[], tuple] | None = None
    plan: Callable[..., Any] | None = None
    via: Callable[..., Any] | None = None


@dataclass(frozen=True)
class MaintenanceOp:
    """One maintenance operation of one view: kind + ordered steps."""

    kind: str
    view: str
    steps: tuple[OpStep, ...] = ()
    #: Span attributes naming this variant (``order``, ``partitioned``).
    attrs: tuple[tuple[str, Any], ...] = ()

    @cached_property
    def locked(self) -> bool:
        return any(step.locked for step in self.steps)

    @cached_property
    def fault(self) -> str:
        """The crash point hit just before the op's first write."""
        return "crash-mid-refresh" if self.locked else f"crash-mid-{self.kind}"


@dataclass(frozen=True)
class MaintenanceAction:
    """A caller's maintenance request: kind, view, and the keyword
    ``options`` of the facade method :data:`ACTIONS` names for it."""

    kind: str
    view: str | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def run_on(self, facade: Any) -> Any:
        try:
            method = ACTIONS[self.kind]
        except KeyError:
            raise PolicyError(f"unknown maintenance action {self.kind!r}") from None
        args = () if self.view is None else (self.view,)
        return getattr(facade, method)(*args, **self.options)

    def targets(self, all_views: Iterable[str]) -> list[str]:
        """The views this action maintains."""
        if self.view is not None:
            return [self.view]
        return list(self.options.get("names") or all_views)

    def journal_payload(self) -> dict[str, Any]:
        """What recovery needs beyond kind and view.  Parallelism is not
        journaled: a sequential re-run is bag-equal by design."""
        if "names" not in self.options:
            return {}
        return {"views": list(self.options["names"]), "compact": self.options.get("compact", True)}

    @classmethod
    def from_journal(cls, kind: str, view: str | None, payload: Mapping[str, Any]):
        """The action an intent recorded; ``None`` if it only rolls back."""
        if kind not in ACTIONS:
            return None
        options: dict[str, Any] = {}
        if "views" in payload:
            options = {"names": payload["views"] or None, "compact": payload.get("compact", True)}
        return cls(kind, view, options)
