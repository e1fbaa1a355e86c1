"""Prepared statements: one cache of compiled statement shapes.

A warehouse sees the same few statements over and over with different
literals.  :func:`prepare` lifts the NUMBER / STRING literals out of a
text with one regex pass (:data:`~repro.sqlfront.lexer.LITERAL`, the
lexer's own two rules); what is left — the *skeleton*, with the first
``VALUES`` list cut down to one row so that any row count is one shape —
keys a cache of :class:`Shape`\\ s.  A shape is the statement already
tokenized, parsed and compiled, with its literals left open: one
template per step, built once, with a
:class:`~repro.algebra.predicates.Param` ``?i`` for the ``i``-th literal
of the text that built it and a :class:`~repro.algebra.expr.Bound`
``$values<n>`` for step ``n``'s ``VALUES`` rows.  Binding another text
of the shape builds no expression, only a binding: each ``?i`` read off
its literal list (from the back past a ``VALUES`` run of another row
count), each run's rows sliced column by column into a bag.  A query's
template comes back with its values
(:class:`~repro.algebra.expr.Parameterized`); a script's templates go
onto the transaction, whose binding travels through ``makesafe`` and the
log extensions to ``Database.apply``.

What keeps a hit equal to the uncached path:

* a shape is built from one parse of the text that first showed it, in
  which every literal token carries a :class:`Slot` instead of its
  value; whatever the compiler emits is searched for those slots, and a
  shape is kept only if the lifted literals are exactly the lexer's
  literal tokens and every one of them is found again (``a -1``, whose
  sign the parser folds into the tree, is not — such a skeleton is
  remembered as uncacheable and always takes the uncached path);
* a text that does not parse or compile is never cached: the caller's
  uncached path runs and raises what it always raised;
* a shape that is never cached is counted with the reason why
  (``sql_statements{outcome="uncacheable",reason=…}``): ``placeholder``
  (the text holds the skeleton's own marker), ``too_long`` (a skeleton
  past :data:`MAX_SKELETON`), ``folded_literal`` (the compiled output
  cannot be re-bound from the lifted literals: a literal the parser
  folded, ``VALUES`` rows that do not read alike, a tree nested past
  the parser's bound), ``not_compiled`` (the text does not parse or
  compile) or ``schema_changed`` (it compiled against an earlier
  catalog, and no longer does);
* every bind re-checks that the tables the shape resolved still have the
  schemas it was compiled against, so two databases, a DDL change or a
  stub catalog need no invalidation hook.

The cache is process-wide, bounded (:data:`MAX_SHAPES` shapes, oldest out
first, of at most :data:`MAX_SKELETON` characters) and safe under threads: lookups are single ``dict`` reads of
immutable shapes, installs take a lock.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Callable
from dataclasses import fields, is_dataclass, replace
from itertools import repeat
from typing import Any

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.expr import Bound, TableRef
from repro.algebra.predicates import Const, Param
from repro.errors import ReproError
from repro.sqlfront.lexer import LITERAL, literal_value, tokenize
from repro.sqlfront.parser import MAX_NESTING, Parser

__all__ = ["MAX_SHAPES", "MAX_SKELETON", "SHAPES", "Shape", "ShapeCache", "prepare"]

#: How many shapes the cache keeps.  A workload has a handful; the bound
#: is for a client that pastes literals into identifiers.
MAX_SHAPES = 256

#: A skeleton longer than this (characters) is not kept, not even as
#: "uncacheable", so the cache is bounded in bytes too.  Rows that read
#: alike collapse whatever their count; only a huge script of rows that do
#: not, or a huge query, gets here — and pays a parse in proportion.
MAX_SKELETON = 8192

#: Stands for one lifted literal in a skeleton.  A text that already
#: holds it is not prepared (nothing the lexer accepts does, outside a
#: string), so no text can forge another one's skeleton.
PLACEHOLDER = "\x00"

# In a skeleton, an INSERT's ``VALUES (row), (row), …`` while the rows read
# alike.  (A spelling it misses only keeps its row count in the skeleton.)
_VALUES_RUN = re.compile(r"\bVALUES\s*(\([^()]*\))(?:\s*,\s*\1)*", re.IGNORECASE)

_LITERAL_KINDS = ("NUMBER", "STRING")

#: One bound step of a statement: ``(method, table, payload)`` — what the
#: compiler would have called on the transaction (or ``"query"``).
Step = tuple[str, "str | None", Any]


class Slot(str):
    """Stands in for the ``index``-th lifted literal while a shape is compiled."""

    index: int

    def __new__(cls, index: int) -> Slot:
        slot = super().__new__(cls, f"?{index}")
        slot.index = index
        return slot


class _Uncacheable(Exception):
    """The compiled output cannot be re-bound from the lifted literals alone."""


#: Why a skeleton is remembered as uncacheable (see the module docstring).
FOLDED_LITERAL = "folded_literal"


class _Recording:
    """What one compile asked of the catalog and emitted to the transaction."""

    def __init__(self, catalog: Any) -> None:
        self._catalog = catalog
        self.refs: dict[str, TableRef] = {}
        self.steps: list[Step] = []

    def ref(self, name: str) -> TableRef:
        ref = self.refs[name] = self._catalog.ref(name)
        return ref

    def insert(self, table: str, rows: Any) -> None:
        self.steps.append(("insert", table, rows))

    def insert_query(self, table: str, expr: Any) -> None:
        self.steps.append(("insert_query", table, expr))

    def delete_query(self, table: str, expr: Any) -> None:
        self.steps.append(("delete_query", table, expr))

    def query(self, table: None, expr: Any) -> None:
        self.steps.append(("query", table, expr))


class _Layout:
    """Where each literal of the creating text sits once row counts may differ.

    Literals before the ``VALUES`` run keep their index, literals after
    it are addressed from the end of the list, and the run itself is
    whatever lies between.
    """

    def __init__(self, skeleton: str, total: int) -> None:
        self.total = total
        self.claimed: set[int] = set()
        run = _VALUES_RUN.search(skeleton)
        if run is None:
            self.front = self.run_end = total
            self.width = 0
        else:
            self.front = skeleton.count(PLACEHOLDER, 0, run.start())
            self.run_end = self.front + skeleton.count(PLACEHOLDER, run.start(), run.end())
            self.width = run.group(1).count(PLACEHOLDER)

    @property
    def least(self) -> int:
        """Literals in a text of this shape whose run has one row."""
        return self.total - (self.run_end - self.front) + self.width

    def at(self, index: int) -> int:
        self.claimed.add(index)
        if index < self.front:
            return index
        if index < self.run_end:
            raise _Uncacheable
        return index - self.total

    def stop(self, index: int) -> int | None:
        return index if index <= self.front else (index - self.total or None)


def _cells(row: tuple, shift: int) -> list:
    return [("slot", cell.index - shift) if isinstance(cell, Slot) else (type(cell), cell) for cell in row]


class _Rows:
    """The rows of one ``INSERT … VALUES``, in table order.

    Per column either a stride over the bound literals or the one cell
    (``NULL`` / ``TRUE`` / ``FALSE``) every row repeats.
    """

    def __init__(self, rows: list[tuple], layout: _Layout) -> None:
        first = _cells(rows[0], 0)
        members = sorted(index for kind, index in first if kind == "slot")
        width = len(members)
        if not width or members != list(range(members[0], members[0] + width)):
            raise _Uncacheable
        if any(_cells(row, number * width) != first for number, row in enumerate(rows)):
            raise _Uncacheable
        start = members[0]
        end = start + len(rows) * width
        if start == layout.front and layout.width:
            # The run the skeleton cut to one row (and any rows after it
            # that read differently): it takes what the literals before
            # and after it leave.
            if width != layout.width or end < layout.run_end:
                raise _Uncacheable
            low = start
        elif end <= layout.front or start >= layout.run_end:
            low = layout.at(start)
        else:
            raise _Uncacheable
        layout.claimed.update(range(start, end))
        stop = layout.stop(end)
        self.columns = [
            slice(low + index - start, stop, width) if kind == "slot" else index for kind, index in first
        ]

    def __call__(self, values: list) -> list[tuple]:
        return list(
            zip(*[values[column] if type(column) is slice else repeat(column) for column in self.columns])
        )


def _template(node: Any, layout: _Layout, params: dict[int, int], depth: int = 0) -> Any:
    """``node`` with each slot its :class:`Param` (noting in ``params``
    where a text of the shape holds that literal); ``node`` if it has none.

    Recursing once per level, a tree deeper than the parser lets a text
    nest (a ``NOT`` chain at the parser's bound) is not kept: the
    uncached path handles it as it always did.
    """
    if depth > MAX_NESTING:
        raise _Uncacheable
    if type(node) is Const:
        if not isinstance(node.value, Slot):
            return node
        index = node.value.index
        params[index] = layout.at(index)
        return Param(index)
    if isinstance(node, tuple):
        items, make = node, lambda *items: items
    elif is_dataclass(node):
        items, make = tuple(getattr(node, field.name) for field in fields(node)), type(node)
    else:
        return node
    rebuilt = [_template(item, layout, params, depth + 1) for item in items]
    if all(new is old for new, old in zip(rebuilt, items)):
        return node
    return make(*rebuilt)


class Shape:
    """One statement shape, compiled, with its literals left open."""

    __slots__ = ("refs", "steps", "params", "rows", "least", "width")

    def __init__(self, recording: _Recording, layout: _Layout) -> None:
        self.refs = tuple(recording.refs.items())
        self.steps: list[Step] = []
        self.rows: list[tuple[str, _Rows]] = []  # (bound leaf name, its rows)
        params: dict[int, int] = {}
        for number, (method, table, payload) in enumerate(recording.steps):
            if method == "insert":
                leaf = Bound(f"$values{number}", recording.refs[table].table_schema)
                self.rows.append((leaf.name, _Rows(payload, layout)))
                method, payload = "insert_query", leaf
            else:
                payload = _template(payload, layout, params)
            self.steps.append((method, table, payload))
        if len(layout.claimed) != layout.total:
            raise _Uncacheable  # a literal the compiler folded away or transformed
        # (name, place in a text's literals), in order: a query's are its literals.
        self.params = tuple((f"?{index}", position) for index, position in sorted(params.items()))
        self.least = layout.least
        self.width = layout.width

    def bind(self, literals: list[str], catalog: Any) -> tuple[list[Step], dict[str, Any]] | None:
        """The compiled steps and the binding ``literals`` give them.

        ``None`` when the catalog's schemas are not the ones this shape
        was compiled against (or a literal does not convert): the shape
        has to be built again.
        """
        extra = len(literals) - self.least
        if extra and (extra < 0 or not self.width or extra % self.width):
            return None
        try:
            for name, ref in self.refs:
                if catalog.ref(name) != ref:
                    return None
            values = [literal_value(text) for text in literals]
        except (ReproError, ValueError):
            return None
        binding: dict[str, Any] = {name: values[position] for name, position in self.params}
        for name, rows in self.rows:
            binding[name] = Bag(rows(values))
        return self.steps, binding


class ShapeCache:
    """Skeleton -> :class:`Shape` (or the reason it is known uncacheable),
    oldest out first."""

    def __init__(self) -> None:
        self._entries: dict[Any, Shape | str] = {}
        self._lock = threading.Lock()

    def get(self, key: Any, default: Any = None) -> Any:
        return self._entries.get(key, default)

    def put(self, key: Any, shape: Shape | str) -> None:
        with self._lock:
            if key not in self._entries and len(self._entries) >= MAX_SHAPES:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = shape

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache behind ``script_to_transaction`` / ``sql_to_expr``.
SHAPES = ShapeCache()

_UNSEEN = object()


def _build(source: str, skeleton: str, catalog: Any, parse: Callable, emit: Callable) -> Shape | str:
    """Tokenize, parse and compile ``source`` once, literals left open
    (:data:`FOLDED_LITERAL` when they cannot be)."""
    tokens = tokenize(source)
    lifted = [match.start() for match in LITERAL.finditer(source)]
    if lifted != [token.position for token in tokens if token.kind in _LITERAL_KINDS]:
        return FOLDED_LITERAL
    numbering = iter(range(len(lifted)))
    slotted = [
        replace(token, value=Slot(next(numbering))) if token.kind in _LITERAL_KINDS else token
        for token in tokens
    ]
    recording = _Recording(catalog)
    emit(parse(Parser(slotted)), recording, recording)
    try:
        return Shape(recording, _Layout(skeleton, len(lifted)))
    except _Uncacheable:
        return FOLDED_LITERAL


def _count(outcome: str, reason: str | None = None) -> None:
    if obs.telemetry_enabled():
        if reason is None:
            obs.metric_inc(f'sql_statements{{outcome="{outcome}"}}')
        else:
            obs.metric_inc(f'sql_statements{{outcome="{outcome}",reason="{reason}"}}')


def prepare(
    source: str, catalog: Any, parse: Callable, emit: Callable
) -> tuple[list[Step], dict[str, Any]] | None:
    """The compiled steps of ``source`` and the binding of its literals,
    from its cached shape where there is one.

    ``parse(parser)`` gives the parse tree (it also keeps the entry
    points' shapes apart) and ``emit(tree, catalog, sink)`` compiles it,
    calling ``sink.<method>(table, payload)`` per step.  ``None`` means
    the text is not preparable — its shape is uncacheable, or it does not
    parse or compile — and the caller runs its uncached path, which is
    then the only code that raises.
    """
    if PLACEHOLDER in source:
        _count("uncacheable", "placeholder")
        return None
    parts = LITERAL.split(source)
    literals = parts[1::2]
    skeleton = PLACEHOLDER.join(parts[::2])
    # Any row count is one shape: the first VALUES run is keyed by one row.
    run = _VALUES_RUN.search(skeleton)
    key = (parse, skeleton if run is None else skeleton[: run.end(1)] + skeleton[run.end() :])
    if len(key[1]) > MAX_SKELETON:
        _count("uncacheable", "too_long")
        return None
    known = SHAPES.get(key, _UNSEEN)
    if isinstance(known, str):
        _count("uncacheable", known)
        return None
    if known is not _UNSEEN:
        bound = known.bind(literals, catalog)
        if bound is not None:
            _count("hit")
            return bound
    # First sight of the shape, or its tables changed: build it from this text.
    try:
        shape = _build(source, skeleton, catalog, parse, emit)
    except ReproError:
        _count("uncacheable", "not_compiled" if known is _UNSEEN else "schema_changed")
        return None
    SHAPES.put(key, shape)
    if isinstance(shape, str):
        _count("uncacheable", shape)
        return None
    bound = shape.bind(literals, catalog)
    if bound is None:
        _count("uncacheable", "not_compiled")
    else:
        _count("miss")
    return bound
