"""Quantifier-free predicates for selections and θ-joins.

The paper's :math:`\\sigma_p` takes a quantifier-free predicate ``p`` over
the attributes of its input.  We represent predicates as a small AST of
terms and boolean connectives so they can be

* **bound** against a :class:`~repro.algebra.schema.Schema` once, yielding
  a fast positional row function,
* **printed** back as SQL text, and
* **left untouched by substitution** — predicates mention attributes only,
  never table names, so the differential algorithm can push selections
  through without rewriting them.

Terms are attribute references, constants or parameters; comparisons use
the usual six operators.  A :class:`Param` is a constant left open: one
compiled plan serves every value, and each call supplies the value on
its ``binding=`` (read back through :data:`PARAMS` while it runs).
``None`` models SQL ``NULL`` with the simple convention
that any comparison involving ``None`` is false (sufficient for the
paper, which never relies on three-valued logic).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any

from repro.algebra.bag import Row
from repro.algebra.schema import Schema
from repro.errors import ParameterError, SchemaError

__all__ = [
    "Term",
    "Attr",
    "Const",
    "Param",
    "PARAMS",
    "Arith",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "attr",
    "const",
    "is_param_name",
    "param_names",
    "param_value",
    "resolve_params",
]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Base class for predicate terms."""

    def bind(self, schema: Schema) -> Callable[[Row], Any]:
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Attr(Term):
    """A reference to an attribute by name."""

    name: str

    def bind(self, schema: Schema) -> Callable[[Row], Any]:
        position = schema.index_of(self.name)
        return lambda row: row[position]

    def attributes(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Const(Term):
    """A literal constant (int, float, str, bool, or None).

    Equal only to a constant of the same type: ``1``, ``1.0`` and
    ``TRUE`` compare equal as values but yield different rows once
    computed into an output column, so two expressions that differ only
    there must not share a compiled plan.
    """

    value: Any

    def __post_init__(self) -> None:
        if self.value is not None and not isinstance(self.value, (int, float, str, bool)):
            raise SchemaError(f"unsupported constant type: {type(self.value).__name__}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Const:
            return NotImplemented
        return type(self.value) is type(other.value) and self.value == other.value

    def __hash__(self) -> int:
        return hash((Const, self.value))

    def bind(self, schema: Schema) -> Callable[[Row], Any]:
        value = self.value
        return lambda row: value

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return repr(self.value)


#: The binding of the call evaluating right now (per thread and task):
#: what a :class:`Param`'s row function reads its value from.  Every
#: entry point that evaluates an expression under a ``binding=`` sets it
#: for the duration of the call.
PARAMS: ContextVar[Mapping[str, Any] | None] = ContextVar("repro_params", default=None)


def param_value(binding: Mapping[str, Any] | None, name: str) -> Any:
    """The value ``binding`` supplies for parameter ``name``; fails closed."""
    try:
        return binding[name]  # type: ignore[index]
    except (KeyError, TypeError):
        raise ParameterError(
            "unbound-parameter",
            f"parameter {name!r} was evaluated without a value (pass binding= to evaluate)",
        ) from None


@dataclass(frozen=True)
class Param(Term):
    """The ``index``-th literal of a prepared query, left open.

    Its value is not part of the expression: the call's binding supplies
    it under :attr:`name` (``?0``, ``?1``, …), beside the key sets of
    :class:`~repro.algebra.expr.KeyRestrict` leaves and the bags of
    :class:`~repro.algebra.expr.Bound` ones, so one expression — and one
    compiled plan — serves every value.  Never a :class:`Const`: nothing
    that folds or stores constants may take it for one.
    """

    index: int

    @property
    def name(self) -> str:
        return f"?{self.index}"

    def bind(self, schema: Schema) -> Callable[[Row], Any]:
        name = self.name
        current = PARAMS.get
        return lambda row: param_value(current(), name)

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return self.name


def is_param_name(name: str) -> bool:
    """Whether a binding entry ``name`` is a :class:`Param`'s (``?0``, …)."""
    return name.startswith("?")


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True)
class Arith(Term):
    """Arithmetic over terms: ``left op right`` with op in ``+ - * /``.

    Follows the same two-valued conventions as comparisons: any operand
    being ``None``, a type mismatch, or division by zero yields ``None``
    (which comparisons then treat as false and maps store as NULL).
    Division is true (float) division.
    """

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise SchemaError(f"unknown arithmetic operator {self.op!r}")

    def bind(self, schema: Schema) -> Callable[[Row], Any]:
        compute = _ARITH_OPS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def apply(row: Row) -> Any:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            if isinstance(lhs, str) or isinstance(rhs, str):
                return None  # no implicit string arithmetic
            try:
                return compute(lhs, rhs)
            except (TypeError, ZeroDivisionError):
                return None

        return apply

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def attr(name: str) -> Attr:
    """Shorthand constructor for an attribute reference."""
    return Attr(name)


def const(value: Any) -> Const:
    """Shorthand constructor for a constant."""
    return Const(value)


def _operands(node: Any) -> tuple:
    if isinstance(node, (Arith, Comparison, And, Or)):
        return (node.left, node.right)
    if isinstance(node, Not):
        return (node.operand,)
    return ()


def param_names(*nodes: Term | Predicate) -> tuple[str, ...]:
    """The names of the parameters in ``nodes``, in first-seen order."""
    names: dict[str, None] = {}
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        if isinstance(node, Param):
            names[node.name] = None
        else:
            stack.extend(reversed(_operands(node)))
    return tuple(names)


def resolve_params(node: Any, values: Mapping[str, Any]) -> Any:
    """``node`` (a term or predicate) with every parameter bound back to a
    :class:`Const` of its value in ``values`` (``node`` itself when it
    holds none)."""
    if isinstance(node, Param):
        return Const(param_value(values, node.name))
    operands = _operands(node)
    if not operands:
        return node
    resolved = tuple(resolve_params(operand, values) for operand in operands)
    if all(new is old for new, old in zip(resolved, operands)):
        return node
    if isinstance(node, Not):
        return Not(resolved[0])
    if isinstance(node, (Arith, Comparison)):
        return type(node)(node.op, *resolved)
    return type(node)(*resolved)


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    """Base class for quantifier-free predicates."""

    def bind(self, schema: Schema) -> Callable[[Row], bool]:
        """Compile against ``schema`` into a row function."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """All attribute names the predicate mentions."""
        raise NotImplementedError

    def __and__(self, other: Predicate) -> Predicate:
        return And(self, other)

    def __or__(self, other: Predicate) -> Predicate:
        return Or(self, other)

    def __invert__(self) -> Predicate:
        return Not(self)


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (σ with it is the identity)."""

    def bind(self, schema: Schema) -> Callable[[Row], bool]:
        return lambda row: True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left op right`` with op in ``= != < <= > >=``."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise SchemaError(f"unknown comparison operator {self.op!r}")

    def bind(self, schema: Schema) -> Callable[[Row], bool]:
        compare = _OPS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def check(row: Row) -> bool:
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return False
            try:
                return bool(compare(lhs, rhs))
            except TypeError:
                # Cross-type ordering comparisons are false, matching the
                # "no implicit coercion" stance of the in-memory engine.
                return False

        return check

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction."""

    left: Predicate
    right: Predicate

    def bind(self, schema: Schema) -> Callable[[Row], bool]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: left(row) and right(row)

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction."""

    left: Predicate
    right: Predicate

    def bind(self, schema: Schema) -> Callable[[Row], bool]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: left(row) or right(row)

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation."""

    operand: Predicate

    def bind(self, schema: Schema) -> Callable[[Row], bool]:
        inner = self.operand.bind(schema)
        return lambda row: not inner(row)

    def attributes(self) -> frozenset[str]:
        return self.operand.attributes()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"
