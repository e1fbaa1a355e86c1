"""Crash-safe maintenance: intent journal, recovery, fault injection.

The paper's framework is a set of database invariants (``INV_BL``,
``INV_DT``, ``INV_C``) that hold *between* maintenance operations.  This
package makes them hold *across process deaths* too:

* :mod:`repro.robustness.faults` — named injection points threaded
  through the maintenance hot path, and the process-wide injector that
  arms crashes and transient errors at them;
* :mod:`repro.robustness.journal` — the write-ahead intent journal: an
  fsync'd SQLite file recording every maintenance operation (kind, view,
  log watermark, delta payloads) *before* any state mutates, with
  client-token deduplication for exactly-once replay;
* :mod:`repro.robustness.durable` — :class:`DurableWarehouse`, the
  journaled, checkpoint-on-every-op wrapper around
  :class:`~repro.warehouse.ViewManager`;
* :mod:`repro.robustness.recovery` — the invariant auditor and the
  recovery runner behind ``python -m repro recover <file>``: classify
  the interrupted operation by the op id the snapshot's checkpoint was
  stamped with, roll it forward or back, and prove the scenario
  invariants green;
* :mod:`repro.robustness.harness` — the randomized crash-schedule
  driver that kills a retail workload at every reachable point and
  checks recovery against an uninterrupted oracle run.

Submodules are imported lazily so the storage layer's ``fault_point``
calls never create import cycles.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "CRASH_POINTS",
    "DurableWarehouse",
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedCrash",
    "INJECTOR",
    "IntentJournal",
    "RecoveryReport",
    "STORM_POINTS",
    "audit_manager",
    "bag_digest",
    "fault_point",
    "heal_engine_state",
    "recover",
]

_EXPORTS = {
    "CRASH_POINTS": ("repro.robustness.faults", "CRASH_POINTS"),
    "DurableWarehouse": ("repro.robustness.durable", "DurableWarehouse"),
    "FAULT_POINTS": ("repro.robustness.faults", "FAULT_POINTS"),
    "FaultInjector": ("repro.robustness.faults", "FaultInjector"),
    "InjectedCrash": ("repro.robustness.faults", "InjectedCrash"),
    "INJECTOR": ("repro.robustness.faults", "INJECTOR"),
    "IntentJournal": ("repro.robustness.journal", "IntentJournal"),
    "RecoveryReport": ("repro.robustness.recovery", "RecoveryReport"),
    "STORM_POINTS": ("repro.robustness.faults", "STORM_POINTS"),
    "audit_manager": ("repro.robustness.recovery", "audit_manager"),
    "bag_digest": ("repro.robustness.journal", "bag_digest"),
    "fault_point": ("repro.robustness.faults", "fault_point"),
    "heal_engine_state": ("repro.robustness.recovery", "heal_engine_state"),
    "recover": ("repro.robustness.recovery", "recover"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
