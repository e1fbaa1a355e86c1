"""Compiled physical plans for the refresh hot path.

The interpreted evaluator (:mod:`repro.algebra.evaluation`) re-walks the
AST, re-binds every predicate, and re-hashes join build sides on every
call, so ``refresh``/``propagate`` work scales with query complexity ×
view count × table size even when the *algorithmic* delta (Sections 4–5
of the paper) is small.  This package closes that gap — the difference
Olteanu's IVM survey calls algorithmic vs *system* delta-proportionality:

* :mod:`repro.exec.compiler` lowers a bag-algebra :class:`~repro.algebra.expr.Expr`
  once into a tree of physical operators with predicates bound, hash-join
  keys chosen, constant-equality selections turned into index lookups,
  and ``E ∸ R`` turned into per-row probes;
* :mod:`repro.exec.executor` caches compiled plans per expression and
  memoizes subexpression *results* across ``evaluate`` calls, guarded by
  per-table version stamps from :class:`~repro.storage.database.Database`;
* :mod:`repro.exec.indexes` maintains hash indexes on stored tables
  incrementally inside the storage layer's ``Bag.patch``-driven writes,
  so index-backed selections and join build sides cost
  O(|delta| + |output|) instead of O(|table|).

One further tier builds on the compiled plans (see
:mod:`repro.exec.pushdown`): ``exec_mode="sqlite"`` pushes whole
pushable ``Expr`` subtrees down into an incrementally-mirrored SQLite
database as single SQL statements (joins and multiplicity arithmetic
run in C), running the compiled plans over the rest when a node is not
pushable, and over the whole expression while SQLite itself fails.

The interpreted path remains available as a correctness oracle: pass
``exec_mode="interpreted"`` to :class:`~repro.storage.database.Database`
(or set the ``REPRO_EXEC`` environment variable) to bypass compilation.
"""

from __future__ import annotations

import os

from repro.errors import ReproError

COMPILED = "compiled"
INTERPRETED = "interpreted"
SQLITE = "sqlite"

#: Every execution mode.  ``sqlite`` falls back to ``compiled`` (per
#: subtree it cannot push, per expression while its backend fails);
#: ``interpreted`` is the oracle the other two are checked against.
MODES = (SQLITE, COMPILED, INTERPRETED)

#: Environment variable overriding the default execution mode.
ENV_VAR = "REPRO_EXEC"

#: Spelling variants accepted by :func:`resolve_exec_mode`.
_ALIASES = {
    # The batch tier this name selected is gone (it never beat the
    # compiled plans it shared).  The spelling stays because
    # bench/pipeline/run.py's engine grid still passes it.
    "vectorized": COMPILED,
}

__all__ = [
    "COMPILED",
    "INTERPRETED",
    "SQLITE",
    "MODES",
    "ENV_VAR",
    "default_exec_mode",
    "resolve_exec_mode",
    "Executor",
]


def default_exec_mode() -> str:
    """The process-wide default mode (``REPRO_EXEC`` or compiled)."""
    return resolve_exec_mode(os.environ.get(ENV_VAR))


def resolve_exec_mode(mode: str | None) -> str:
    """Validate ``mode``, falling back to the compiled default."""
    if mode is None or mode == "":
        return COMPILED
    normalized = mode.strip().lower()
    normalized = _ALIASES.get(normalized, normalized)
    if normalized not in MODES:
        raise ReproError(f"unknown execution mode {mode!r}; pick one of {MODES}")
    return normalized


from repro.exec.executor import Executor  # noqa: E402  (re-export)
