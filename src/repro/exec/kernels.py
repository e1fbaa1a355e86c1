"""Row kernels: the per-row work of the compiled engine, compiled once.

Every compiled operator that keys, projects or indexes rows does the same
thing per row — pick the values at a fixed tuple of positions.  Spelled
``tuple(row[p] for p in positions)`` that is a Python generator per row;
:func:`row_getter` does it in one precompiled call (about a sixth of the
cost; ``docs/executor.md`` "Row kernels" has the measurements).  Its
result is always a tuple, whatever the width, so a hash index keyed
through it keeps the key contract of
:meth:`~repro.exec.indexes.HashIndex.lookup`.

The interpreted evaluator and :class:`~repro.algebra.bag.Bag`'s own
operations keep their spelled-out loops: they are the oracle these
kernels are checked against, and must not share their code.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter
from typing import Any

from repro.algebra.bag import Row

__all__ = ["row_getter", "row_mapper"]


def row_getter(positions: tuple[int, ...]) -> Callable[[Row], tuple]:
    """``row -> tuple(row[p] for p in positions)``, as one call per row."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        (position,) = positions
        return lambda row: (row[position],)
    return lambda row: ()


def row_mapper(functions: tuple[Callable[[Row], Any], ...]) -> Callable[[Row], tuple]:
    """``row -> tuple(f(row) for f in functions)`` for bound map terms."""
    return lambda row: tuple([function(row) for function in functions])
