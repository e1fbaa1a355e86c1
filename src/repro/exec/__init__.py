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

The interpreted oracle stays available.  A :class:`~repro.storage.database.Database`
turns ``exec_mode`` (or ``REPRO_EXEC``) into one engine through :data:`ENGINES`;
callers ask that engine, never the name (docs/executor.md, "Engine protocol").
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Callable

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, evaluate
from repro.algebra.expr import Expr
from repro.errors import ReproError

COMPILED = "compiled"
INTERPRETED = "interpreted"
SQLITE = "sqlite"

#: Each mode's engine class, imported on first use (the sqlite tier imports
#: the storage layer, which imports this package); ``interpreted`` is the oracle.
ENGINES = {
    SQLITE: "repro.exec.pushdown:PushdownExecutor",
    COMPILED: "repro.exec.executor:Executor",
    INTERPRETED: "repro.exec:Interpreter",
}

#: Every execution mode.
MODES = tuple(ENGINES)

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
    "ENGINES",
    "MODES",
    "ENV_VAR",
    "default_exec_mode",
    "resolve_exec_mode",
    "engine_class",
    "Interpreter",
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
    if normalized not in ENGINES:
        raise ReproError(f"unknown execution mode {mode!r}; pick one of {MODES}")
    return normalized


def engine_class(mode: str) -> type:
    """The engine class :data:`ENGINES` names for ``mode`` (any accepted spelling)."""
    module, _, name = ENGINES[resolve_exec_mode(mode)].partition(":")
    return getattr(importlib.import_module(module), name)


class Interpreter:
    """The oracle as an engine: each call walks the AST (:func:`evaluate`),
    so there is nothing to compile, prime or heal."""

    reference = True

    def __init__(self, database) -> None:
        self._database = database

    def describe(self) -> str:
        return INTERPRETED

    def evaluate(self, expr: Expr, *, counter: CostCounter | None = None, binding=None) -> Bag:
        return evaluate(expr, self._database.state, counter=counter, binding=binding)

    def batch(self, *, counter: CostCounter | None = None, binding=None) -> Callable[[Expr], Bag]:
        """One memo across the calls; it must not outlive the state it was
        made for (see the warning on :func:`evaluate`)."""
        memo: dict[Expr, Bag] = {}
        state = self._database.state
        return lambda expr: evaluate(expr, state, counter=counter, memo=memo, binding=binding)

    def prime(self, expr: Expr, *, counter: CostCounter | None = None) -> None:
        pass

    def footprint(self, expr: Expr) -> frozenset[str]:
        return expr.tables()

    def heal(self) -> list[str]:
        return []


from repro.exec.executor import Executor  # noqa: E402  (re-export)
