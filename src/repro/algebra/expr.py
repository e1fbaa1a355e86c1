"""The bag-algebra expression language :math:`\\mathcal{BA}` (Section 2.1).

The grammar of the paper is::

    Q ::= phi | {x} | R_i | sigma_p(Q) | Pi_A(Q) | eps(Q)
        | Q1 (+) Q2        -- additive union, ⊎
        | Q1 (-) Q2        -- monus, ∸
        | Q1 x Q2          -- product

Seven *core* node types implement exactly this grammar (``phi`` and
``{x}`` are both :class:`Literal`).  The derived operations the paper
defines on top of the core — ``min``, ``max``, ``EXCEPT``, θ-join — are
provided as *smart constructors* (:func:`min_expr`, :func:`max_expr`,
:func:`except_expr`, :func:`join`) that expand into core-operator trees,
so the differential algorithm of Figure 2 needs rules only for the core.

Expressions are immutable and structurally hashable; common subtrees
introduced by the differential rewrite are shared, and the evaluator
memoizes on structural equality so they are computed once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from typing import Any, ClassVar, Union

from repro.algebra.bag import Bag
from repro.algebra.predicates import (
    And,
    Attr,
    Comparison,
    Param,
    Predicate,
    Term,
    TruePredicate,
    param_names,
    resolve_params,
)
from repro.algebra.schema import Schema
from repro.errors import ParameterError, SchemaError

__all__ = [
    "Expr",
    "TableRef",
    "Literal",
    "KeyRestrict",
    "Bound",
    "Parameterized",
    "Select",
    "Project",
    "MapProject",
    "DupElim",
    "UnionAll",
    "Monus",
    "Product",
    "empty",
    "singleton",
    "table",
    "join",
    "min_expr",
    "max_expr",
    "except_expr",
    "rename",
    "bind_params",
    "open_params",
    "split_parameters",
]


@dataclass(frozen=True)
class Expr:
    """Base class of all bag-algebra expressions.

    Each node class hashes its fields once, in its own ``__hash__``, and
    keeps the value beside them (``_hash``, like ``_tables``: never part
    of equality), so a plan-table lookup of a built tree hashes one int.
    """

    _hash: ClassVar[int | None] = None

    def schema(self) -> Schema:
        """The result schema of this expression."""
        raise NotImplementedError

    def children(self) -> tuple[Expr, ...]:
        """Immediate subexpressions."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        """Simultaneously replace table references per ``mapping``.

        This is the substitution :math:`\\eta(Q)` of Section 2.4: every
        occurrence of a table name in ``mapping`` is replaced by the
        associated expression.  References to the *replacement*
        expressions are not rewritten again (the substitution is
        simultaneous, not iterated).
        """
        raise NotImplementedError

    def tables(self) -> frozenset[str]:
        """Names of all tables referenced anywhere in the expression
        (computed once, kept beside the fields: never part of equality or
        hashing)."""
        known = self.__dict__.get("_tables")
        if known is None:
            names: set[str] = set()
            stack: list[Expr] = [self]
            while stack:
                node = stack.pop()
                if isinstance(node, TableRef):
                    names.add(node.name)
                stack.extend(node.children())
            known = frozenset(names)
            object.__setattr__(self, "_tables", known)
        return known

    def size(self) -> int:
        """Number of AST nodes (shared subtrees counted once per edge)."""
        return 1 + sum(child.size() for child in self.children())

    def walk(self) -> Iterator[Expr]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # Operator sugar ----------------------------------------------------

    def union_all(self, other: Expr) -> UnionAll:
        return UnionAll(self, other)

    def monus(self, other: Expr) -> Monus:
        return Monus(self, other)

    def product(self, other: Expr) -> Product:
        return Product(self, other)

    def where(self, predicate: Predicate) -> Select:
        return Select(predicate, self)

    def project(self, attrs: Iterable[Union[str, int]], names: Iterable[str] | None = None) -> Project:
        return Project(tuple(attrs), self, tuple(names) if names is not None else None)

    def dedup(self) -> DupElim:
        return DupElim(self)


@dataclass(frozen=True)
class TableRef(Expr):
    """A reference to a named base table (external or internal)."""

    name: str
    table_schema: Schema

    def schema(self) -> Schema:
        return self.table_schema

    def children(self) -> tuple[Expr, ...]:
        return ()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        replacement = mapping.get(self.name)
        if replacement is None:
            return self
        if replacement.schema().arity != self.table_schema.arity:
            raise SchemaError(
                f"substitution for {self.name!r} has arity {replacement.schema().arity}, "
                f"expected {self.table_schema.arity}"
            )
        return replacement

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.name, self.table_schema))
        return known

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant bag — the grammar's :math:`\\phi` and :math:`\\{x\\}`.

    Literals are unaffected by substitution, so their Del/Add changes are
    both empty (Figure 2 base cases).
    """

    bag: Bag
    literal_schema: Schema

    def __post_init__(self) -> None:
        if self.bag.arity is not None and self.bag.arity != self.literal_schema.arity:
            raise SchemaError(
                f"literal bag arity {self.bag.arity} does not match schema arity {self.literal_schema.arity}"
            )

    def schema(self) -> Schema:
        return self.literal_schema

    def children(self) -> tuple[Expr, ...]:
        return ()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return self

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.bag, self.literal_schema))
        return known

    def __str__(self) -> str:
        return "phi" if not self.bag else repr(self.bag)


@dataclass(frozen=True)
class KeyRestrict(Expr):
    """A stored table restricted to bound keys: :math:`\\sigma_{key \\in K(domain)}(R)`.

    ``position`` is the table's partition-key column and ``domain`` names
    the key set ``K``, which is not part of the expression: the caller
    binds it per evaluation (``evaluate(..., binding={domain: K})``), so one
    expression — and one compiled plan — serves every maintenance epoch.
    An engine reaches the table through its key index and never scans it.
    Emitted by the partition-pruning pass (:mod:`repro.analysis.partitioning`)
    only; not part of the paper's grammar, and never differentiated.
    """

    child: TableRef
    position: int
    domain: str

    def schema(self) -> Schema:
        return self.child.table_schema

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        if self.child.name in mapping:
            raise SchemaError(f"cannot substitute under the key restriction of {self.child.name!r}")
        return self

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.child, self.position, self.domain))
        return known

    def __str__(self) -> str:
        return f"sigma[#{self.position} in K({self.domain})]({self.child})"


@dataclass(frozen=True)
class Bound(Expr):
    """A delta the caller supplies per evaluation: a name and a schema, no bag.

    The bag travels on the call's binding, beside the key sets of
    :class:`KeyRestrict` (``evaluate(..., binding={name: bag})``), so an
    expression built over bound leaves — Figure 2's delta pair over a
    substitution whose :math:`D_i` / :math:`A_i` are such leaves, an
    apply plan over an already evaluated ``(delete, insert)`` pair — is
    built and compiled once and serves every epoch, where a
    :class:`Literal` holding the epoch's bag makes a new expression
    each time.  Not a table reference, so substitution leaves it alone;
    not part of the paper's grammar, and never differentiated.  Reading
    the bag is charged as the literal it stands for, unless ``counted``:
    an op's delta bags were counted where its compute step evaluated
    them, so the apply plans reading them charge nothing more.
    """

    name: str
    bound_schema: Schema
    counted: bool = False

    def schema(self) -> Schema:
        return self.bound_schema

    def children(self) -> tuple[Expr, ...]:
        return ()

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return self

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.name, self.bound_schema, self.counted))
        return known

    def __str__(self) -> str:
        return f"bound({self.name})"


def _typed(values: tuple) -> tuple:
    return tuple((type(value), value) for value in values)


@dataclass(frozen=True, eq=False)
class Parameterized(Expr):
    """A query template with :class:`~repro.algebra.predicates.Param`
    leaves, and the values of this use of it: ``values[i]`` is ``?i``.

    What a prepared query binds to (:mod:`repro.sqlfront.prepared`): the
    template is one object per statement shape, so the plan table, keyed
    by it, holds one plan per shape.  Every evaluation entry point takes
    it apart with :func:`split_parameters` — the template is what runs,
    the values travel on the call's binding — so it evaluates correctly
    with no binding from the caller.  Anywhere else (nested in a larger
    expression, in a view definition, serialized) it stands for the
    query with its parameters bound back to constants
    (:meth:`resolved`).  Equal only with equal value *types* (``1`` is
    not ``1.0``), like :class:`~repro.algebra.predicates.Const`.
    """

    query: Expr
    values: tuple

    def schema(self) -> Schema:
        return self.query.schema()

    def children(self) -> tuple[Expr, ...]:
        return (self.query,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Parameterized(self.query.substitute(mapping), self.values)

    def binding(self) -> dict[str, Any]:
        """The values under their parameter names (``{"?0": …}``)."""
        return {f"?{index}": value for index, value in enumerate(self.values)}

    def resolved(self) -> Expr:
        """The query with every parameter bound back to a constant."""
        return bind_params(self.query, self.binding())

    def __eq__(self, other: object) -> bool:
        if type(other) is not Parameterized:
            return NotImplemented
        return self.query == other.query and _typed(self.values) == _typed(other.values)

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((Parameterized, self.query, self.values))
        return known

    def __str__(self) -> str:
        values = ", ".join(f"?{index}={value!r}" for index, value in enumerate(self.values))
        return f"{self.query} with {values}"


@dataclass(frozen=True)
class Select(Expr):
    """Selection :math:`\\sigma_p(E)`."""

    predicate: Predicate
    child: Expr

    def __post_init__(self) -> None:
        # Validate that every referenced attribute resolves unambiguously.
        child_schema = self.child.schema()
        for name in self.predicate.attributes():
            try:
                child_schema.index_of(name)
            except SchemaError as exc:
                raise exc.with_context(expression=f"sigma[{self.predicate}](...)") from None

    def schema(self) -> Schema:
        return self.child.schema()

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Select(self.predicate, self.child.substitute(mapping))

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.predicate, self.child))
        return known

    def __str__(self) -> str:
        return f"sigma[{self.predicate}]({self.child})"


@dataclass(frozen=True)
class Project(Expr):
    """Projection :math:`\\Pi_A(E)` (duplicate-preserving).

    ``attrs`` may mix attribute names and 0-based positions; positions
    allow renaming columns of a schema with duplicate names (as produced
    by self-joins).  ``names`` optionally renames the output columns.
    """

    attrs: tuple[Union[str, int], ...]
    child: Expr
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.names is not None and len(self.names) != len(self.attrs):
            raise SchemaError(f"project: {len(self.attrs)} attributes but {len(self.names)} output names")
        self.positions()  # validate eagerly

    def positions(self) -> tuple[int, ...]:
        """Resolve ``attrs`` to input positions."""
        child_schema = self.child.schema()
        context = "pi[{}](...)".format(", ".join(str(attr) for attr in self.attrs))
        resolved: list[int] = []
        for item in self.attrs:
            if isinstance(item, int):
                if not 0 <= item < child_schema.arity:
                    raise SchemaError(
                        f"project: position {item} out of range for arity {child_schema.arity}",
                        expression=context,
                    )
                resolved.append(item)
            else:
                try:
                    resolved.append(child_schema.index_of(item))
                except SchemaError as exc:
                    raise exc.with_context(expression=context) from None
        return tuple(resolved)

    def schema(self) -> Schema:
        if self.names is not None:
            return Schema(self.names)
        child_schema = self.child.schema()
        out: list[str] = []
        for item in self.attrs:
            out.append(child_schema.attributes[item] if isinstance(item, int) else item)
        return Schema(out)

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Project(self.attrs, self.child.substitute(mapping), self.names)

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.attrs, self.child, self.names))
        return known

    def __str__(self) -> str:
        cols = ", ".join(str(attr) for attr in self.attrs)
        return f"pi[{cols}]({self.child})"


@dataclass(frozen=True)
class MapProject(Expr):
    """Generalized projection: per-row computed terms.

    Each output column is an arbitrary :class:`~repro.algebra.predicates.Term`
    (attribute, constant, arithmetic) evaluated against the input row —
    SQL's expression select-list, and the engine behind ``UPDATE``.
    Like :class:`Project`, it preserves duplicates (rows mapping to the
    same image add their multiplicities).

    Not part of the paper's grammar, but differentiation extends to it
    soundly: for any multiplicity-summing row map ``f`` and ``D ⊆ E``,
    ``f((E ∸ D) ⊎ A) = (f(E) ∸ f(D)) ⊎ f(A)`` — the same argument that
    justifies Figure 2's Π rule (weak minimality keeps the per-image
    subtraction from flooring).  The Del/Add rules therefore push ``f``
    through exactly like a projection.
    """

    terms: tuple[Term, ...]
    child: Expr
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.names):
            raise SchemaError(f"map: {len(self.terms)} terms but {len(self.names)} output names")
        if not self.terms:
            raise SchemaError("map needs at least one output column")
        child_schema = self.child.schema()
        for term in self.terms:
            for name in term.attributes():
                try:
                    child_schema.index_of(name)
                except SchemaError as exc:
                    raise exc.with_context(expression=f"map[{term} AS ...](...)") from None

    def schema(self) -> Schema:
        return Schema(self.names)

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return MapProject(self.terms, self.child.substitute(mapping), self.names)

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.terms, self.child, self.names))
        return known

    def __str__(self) -> str:
        cols = ", ".join(f"{term} AS {name}" for term, name in zip(self.terms, self.names))
        return f"map[{cols}]({self.child})"


@dataclass(frozen=True)
class DupElim(Expr):
    """Duplicate elimination :math:`\\epsilon(E)`."""

    child: Expr

    def schema(self) -> Schema:
        return self.child.schema()

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return DupElim(self.child.substitute(mapping))

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.child,))
        return known

    def __str__(self) -> str:
        return f"eps({self.child})"


def _check_union_compatible(left: Expr, right: Expr, op: str) -> None:
    if left.schema().arity != right.schema().arity:
        raise SchemaError(
            f"{op}: operand arities differ ({left.schema().arity} vs {right.schema().arity})"
        )


@dataclass(frozen=True)
class UnionAll(Expr):
    """Additive union :math:`E \\uplus F`."""

    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        _check_union_compatible(self.left, self.right, "union_all")

    def schema(self) -> Schema:
        return self.left.schema()

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return UnionAll(self.left.substitute(mapping), self.right.substitute(mapping))

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.left, self.right))
        return known

    def __str__(self) -> str:
        return f"({self.left} (+) {self.right})"


@dataclass(frozen=True)
class Monus(Expr):
    """Monus :math:`E \\dot{-} F` (truncated bag difference)."""

    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        _check_union_compatible(self.left, self.right, "monus")

    def schema(self) -> Schema:
        return self.left.schema()

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Monus(self.left.substitute(mapping), self.right.substitute(mapping))

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.left, self.right))
        return known

    def __str__(self) -> str:
        return f"({self.left} (-) {self.right})"


@dataclass(frozen=True)
class Product(Expr):
    """Cartesian product :math:`E \\times F`."""

    left: Expr
    right: Expr

    def schema(self) -> Schema:
        return self.left.schema().concat(self.right.schema())

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Product(self.left.substitute(mapping), self.right.substitute(mapping))

    def __hash__(self) -> int:
        known = self._hash
        if known is None:
            known = self.__dict__["_hash"] = hash((self.left, self.right))
        return known

    def __str__(self) -> str:
        return f"({self.left} x {self.right})"


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------


def split_parameters(expr: Expr, binding: Mapping[str, Any] | None) -> tuple[Expr, Mapping[str, Any] | None]:
    """``(template, binding)`` for an evaluation entry point.

    A :class:`Parameterized` root gives its template and the call's
    binding extended by its values; any other ``expr`` is returned with
    ``binding`` unchanged.
    """
    if type(expr) is not Parameterized:
        return expr, binding
    values = expr.binding()
    return expr.query, values if binding is None else {**binding, **values}


def open_params(expr: Expr) -> tuple[str, ...]:
    """Names of the parameters ``expr`` leaves open (a :class:`Parameterized`
    subtree binds its own)."""
    names: dict[str, None] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Parameterized):
            continue
        if isinstance(node, Select):
            names.update(dict.fromkeys(param_names(node.predicate)))
        elif isinstance(node, MapProject):
            names.update(dict.fromkeys(param_names(*node.terms)))
        stack.extend(node.children())
    return tuple(names)


def bind_params(expr: Expr, values: Mapping[str, Any] | None = None) -> Expr:
    """``expr`` with every parameter bound back to a constant, and every
    bound leaf ``values`` holds a bag for back to a literal.

    A :class:`Parameterized` subtree supplies its own values; the rest
    come from ``values``.  A parameter neither supplies raises
    :class:`~repro.errors.ParameterError` (``stored-parameter``), so the
    result never holds an open one.  ``expr`` itself when it has none.
    """
    if isinstance(expr, Parameterized):
        return expr.resolved()
    if isinstance(expr, Bound):
        bag = None if values is None else values.get(expr.name)
        return expr if bag is None else Literal(bag, expr.bound_schema)
    if isinstance(expr, Select):
        child = bind_params(expr.child, values)
        predicate = _resolve(expr.predicate, values)
        if child is expr.child and predicate is expr.predicate:
            return expr
        return Select(predicate, child)
    if isinstance(expr, MapProject):
        child = bind_params(expr.child, values)
        terms = tuple(_resolve(term, values) for term in expr.terms)
        if child is expr.child and all(new is old for new, old in zip(terms, expr.terms)):
            return expr
        return MapProject(terms, child, expr.names)
    if isinstance(expr, (Project, DupElim)):
        child = bind_params(expr.child, values)
        return expr if child is expr.child else replace(expr, child=child)
    if isinstance(expr, (UnionAll, Monus, Product)):
        left, right = bind_params(expr.left, values), bind_params(expr.right, values)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(left, right)
    return expr


def _resolve(node, values: Mapping[str, Any] | None):
    names = param_names(node)
    if not names:
        return node
    if values is None or any(name not in values for name in names):
        raise ParameterError(
            "stored-parameter",
            f"{node} holds an open parameter: bind it to a value first",
        )
    return resolve_params(node, values)


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------


def table(name: str, attrs: Iterable[str]) -> TableRef:
    """A table reference with the given attribute names."""
    return TableRef(name, Schema(attrs))


def empty(schema: Schema) -> Literal:
    """The empty bag :math:`\\phi` at the given schema."""
    return Literal(Bag.empty(), schema)


def singleton(row: tuple, schema: Schema) -> Literal:
    """The singleton bag :math:`\\{x\\}`."""
    return Literal(Bag.singleton(row), schema)


def join(left: Expr, right: Expr, on: Predicate | None = None) -> Expr:
    """θ-join: :math:`\\sigma_p(E \\times F)` (cross product if ``on`` is None)."""
    product = Product(left, right)
    if on is None:
        return product
    return Select(on, product)


def min_expr(left: Expr, right: Expr) -> Expr:
    """Minimal intersection, expanded per the paper:
    :math:`Q_1 \\min Q_2 = Q_1 \\dot{-} (Q_1 \\dot{-} Q_2)`."""
    return Monus(left, Monus(left, right))


def max_expr(left: Expr, right: Expr) -> Expr:
    """Maximal union, expanded per the paper:
    :math:`Q_1 \\max Q_2 = Q_1 \\uplus (Q_2 \\dot{-} Q_1)`."""
    return UnionAll(left, Monus(right, left))


def rename(child: Expr, names: Iterable[str]) -> Project:
    """Rename all columns of ``child`` positionally to ``names``."""
    names = tuple(names)
    if len(names) != child.schema().arity:
        raise SchemaError(f"rename: {len(names)} names for arity {child.schema().arity}")
    return Project(tuple(range(len(names))), child, names)


def except_expr(left: Expr, right: Expr) -> Expr:
    """SQL ``EXCEPT``, expanded into core operators per the paper:

    .. math::

        Q_1 \\text{ EXCEPT } Q_2 =
            \\Pi_1(\\sigma_{1=2}(Q_1 \\times (\\epsilon(Q_1) \\dot{-} Q_2)))

    The "keep set" :math:`\\epsilon(Q_1) \\dot{-} Q_2` contains one copy of
    each row of ``left`` absent from ``right``; joining ``left`` against it
    on full-row equality retains the original multiplicities.
    """
    _check_union_compatible(left, right, "except")
    arity = left.schema().arity
    left_names = tuple(f"__exl{index}" for index in range(arity))
    right_names = tuple(f"__exr{index}" for index in range(arity))
    renamed_left = rename(left, left_names)
    keep_set = rename(Monus(DupElim(left), right), right_names)
    pairing = Product(renamed_left, keep_set)
    predicate: Predicate = TruePredicate()
    for left_name, right_name in zip(left_names, right_names):
        equality = Comparison("=", Attr(left_name), Attr(right_name))
        predicate = equality if isinstance(predicate, TruePredicate) else And(predicate, equality)
    filtered = Select(predicate, pairing)
    original_names = left.schema().attributes
    return Project(tuple(range(arity)), filtered, original_names)
