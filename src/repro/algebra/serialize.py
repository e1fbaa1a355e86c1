"""JSON-serializable encoding of bag-algebra expressions.

Round-trips every AST node (expressions, predicates, terms, literal
bags) through plain dict/list/scalar structures, so view definitions
can be persisted alongside the database state and reattached after a
restart (see :mod:`repro.warehouse.persistence`).

The encoding is structural and versioned by node ``kind`` strings;
``expr_from_dict(expr_to_dict(e)) == e`` for every expression the
library can build.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.bag import Bag
from repro.algebra.expr import (
    DupElim,
    Expr,
    Literal,
    MapProject,
    Monus,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
    bind_params,
)
from repro.algebra.predicates import (
    And,
    Arith,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    Param,
    Predicate,
    Term,
    TruePredicate,
)
from repro.algebra.schema import Schema
from repro.errors import ParameterError, ReproError

__all__ = ["expr_to_dict", "expr_from_dict", "predicate_to_dict", "predicate_from_dict"]

_TRUE_TAG = "\x00bool:1"
_FALSE_TAG = "\x00bool:0"


def _encode_value(value: Any) -> Any:
    """Scalars, with bools tagged so JSON round-trips don't confuse 1/True."""
    if value is True:
        return _TRUE_TAG
    if value is False:
        return _FALSE_TAG
    if value is None or isinstance(value, (int, float, str)):
        return value
    raise ReproError(f"cannot serialize value of type {type(value).__name__}")


def _decode_value(value: Any) -> Any:
    if value == _TRUE_TAG:
        return True
    if value == _FALSE_TAG:
        return False
    return value


# ----------------------------------------------------------------------
# Terms and predicates
# ----------------------------------------------------------------------


def term_to_dict(term: Term) -> dict:
    if isinstance(term, Attr):
        return {"kind": "attr", "name": term.name}
    if isinstance(term, Const):
        return {"kind": "const", "value": _encode_value(term.value)}
    if isinstance(term, Param):
        raise ParameterError("stored-parameter", f"cannot serialize the open parameter {term}")
    if isinstance(term, Arith):
        return {
            "kind": "arith",
            "op": term.op,
            "left": term_to_dict(term.left),
            "right": term_to_dict(term.right),
        }
    raise ReproError(f"cannot serialize term {type(term).__name__}")


def term_from_dict(data: dict) -> Term:
    kind = data["kind"]
    if kind == "attr":
        return Attr(data["name"])
    if kind == "const":
        return Const(_decode_value(data["value"]))
    if kind == "arith":
        return Arith(data["op"], term_from_dict(data["left"]), term_from_dict(data["right"]))
    raise ReproError(f"unknown term kind {kind!r}")


def predicate_to_dict(predicate: Predicate) -> dict:
    if isinstance(predicate, TruePredicate):
        return {"kind": "true"}
    if isinstance(predicate, Comparison):
        return {
            "kind": "cmp",
            "op": predicate.op,
            "left": term_to_dict(predicate.left),
            "right": term_to_dict(predicate.right),
        }
    if isinstance(predicate, And):
        return {"kind": "and", "left": predicate_to_dict(predicate.left), "right": predicate_to_dict(predicate.right)}
    if isinstance(predicate, Or):
        return {"kind": "or", "left": predicate_to_dict(predicate.left), "right": predicate_to_dict(predicate.right)}
    if isinstance(predicate, Not):
        return {"kind": "not", "operand": predicate_to_dict(predicate.operand)}
    raise ReproError(f"cannot serialize predicate {type(predicate).__name__}")


def predicate_from_dict(data: dict) -> Predicate:
    kind = data["kind"]
    if kind == "true":
        return TruePredicate()
    if kind == "cmp":
        return Comparison(data["op"], term_from_dict(data["left"]), term_from_dict(data["right"]))
    if kind == "and":
        return And(predicate_from_dict(data["left"]), predicate_from_dict(data["right"]))
    if kind == "or":
        return Or(predicate_from_dict(data["left"]), predicate_from_dict(data["right"]))
    if kind == "not":
        return Not(predicate_from_dict(data["operand"]))
    raise ReproError(f"unknown predicate kind {kind!r}")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def expr_to_dict(expr: Expr) -> dict:
    """Encode an expression as JSON-safe nested dicts.

    A prepared query's parameters are written as the constants it binds
    (:func:`~repro.algebra.expr.bind_params`); an open parameter raises
    :class:`~repro.errors.ParameterError`.
    """
    return _expr_to_dict(bind_params(expr))


def _expr_to_dict(expr: Expr) -> dict:
    if isinstance(expr, TableRef):
        return {"kind": "table", "name": expr.name, "schema": list(expr.table_schema.attributes)}
    if isinstance(expr, Literal):
        return {
            "kind": "literal",
            "schema": list(expr.literal_schema.attributes),
            "rows": [
                [[_encode_value(value) for value in row], count] for row, count in sorted(
                    expr.bag.items(), key=lambda item: repr(item)
                )
            ],
        }
    if isinstance(expr, Select):
        return {
            "kind": "select",
            "predicate": predicate_to_dict(expr.predicate),
            "child": _expr_to_dict(expr.child),
        }
    if isinstance(expr, Project):
        return {
            "kind": "project",
            "attrs": list(expr.attrs),
            "names": list(expr.names) if expr.names is not None else None,
            "child": _expr_to_dict(expr.child),
        }
    if isinstance(expr, MapProject):
        return {
            "kind": "map",
            "terms": [term_to_dict(term) for term in expr.terms],
            "names": list(expr.names),
            "child": _expr_to_dict(expr.child),
        }
    if isinstance(expr, DupElim):
        return {"kind": "dedup", "child": _expr_to_dict(expr.child)}
    if isinstance(expr, UnionAll):
        return {"kind": "union", "left": _expr_to_dict(expr.left), "right": _expr_to_dict(expr.right)}
    if isinstance(expr, Monus):
        return {"kind": "monus", "left": _expr_to_dict(expr.left), "right": _expr_to_dict(expr.right)}
    if isinstance(expr, Product):
        return {"kind": "product", "left": _expr_to_dict(expr.left), "right": _expr_to_dict(expr.right)}
    raise ReproError(f"cannot serialize expression {type(expr).__name__}")


def expr_from_dict(data: dict) -> Expr:
    """Decode an expression produced by :func:`expr_to_dict`."""
    kind = data["kind"]
    if kind == "table":
        return TableRef(data["name"], Schema(data["schema"]))
    if kind == "literal":
        counts = {
            tuple(_decode_value(value) for value in row): count for row, count in data["rows"]
        }
        return Literal(Bag.from_counts(counts), Schema(data["schema"]))
    if kind == "select":
        return Select(predicate_from_dict(data["predicate"]), expr_from_dict(data["child"]))
    if kind == "project":
        names = tuple(data["names"]) if data["names"] is not None else None
        return Project(tuple(data["attrs"]), expr_from_dict(data["child"]), names)
    if kind == "map":
        return MapProject(
            tuple(term_from_dict(term) for term in data["terms"]),
            expr_from_dict(data["child"]),
            tuple(data["names"]),
        )
    if kind == "dedup":
        return DupElim(expr_from_dict(data["child"]))
    if kind == "union":
        return UnionAll(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if kind == "monus":
        return Monus(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    if kind == "product":
        return Product(expr_from_dict(data["left"]), expr_from_dict(data["right"]))
    raise ReproError(f"unknown expression kind {kind!r}")
