"""Factored substitutions (Sections 2.4 and 4.1).

A *factored substitution* maps each table name :math:`R_i` to a query of
the shape :math:`(R_i \\dot{-} D_i) \\uplus A_i`.  Both substitutions the
maintenance algorithms need have this shape:

* :math:`\\widehat{\\mathcal{T}}` — from a simple transaction, with
  :math:`D_i = \\nabla R_i` and :math:`A_i = \\triangle R_i` (anticipates
  future changes);
* :math:`\\widehat{\\mathcal{L}}` — from a log, with
  :math:`D_i = \\blacktriangle R_i` and :math:`A_i = \\blacktriangledown R_i`
  (compensates for past changes — note the reversed roles).

A factored substitution is *weakly minimal* when :math:`D_i \\subseteq R_i`
in every state.  The differential rules of Figure 2 are proved for weakly
minimal substitutions; :meth:`FactoredSubstitution.weakly_minimal` converts
any factored substitution into an equivalent weakly minimal one by
replacing :math:`D_i` with :math:`D_i \\min R_i`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.algebra.bag import Bag
from repro.algebra.expr import Bound, Expr, Literal, Monus, TableRef, UnionAll, min_expr
from repro.algebra.schema import Schema
from repro.errors import ReproError, SchemaError

__all__ = ["FactoredSubstitution", "bound_pair", "pair_binding"]


def _pair_names(name: str) -> tuple[str, str]:
    return f"{name}.delete", f"{name}.insert"


def bound_pair(name: str, schema: Schema) -> tuple[Bound, Bound]:
    """The ``(delete, insert)`` leaves standing for table ``name``'s delta
    pair in an expression built once; :func:`pair_binding` supplies the bags."""
    delete, insert = _pair_names(name)
    return Bound(delete, schema), Bound(insert, schema)


def pair_binding(deltas: Mapping[str, tuple[Bag, Bag]]) -> dict[str, Bag]:
    """The binding that hands each table's ``(delete, insert)`` bags to
    its :func:`bound_pair` leaves."""
    binding: dict[str, Bag] = {}
    for name, pair in deltas.items():
        binding.update(zip(_pair_names(name), pair))
    return binding


class FactoredSubstitution:
    """A substitution :math:`\\eta = [(R_i \\dot{-} D_i) \\uplus A_i / R_i]`."""

    def __init__(
        self,
        entries: Mapping[str, tuple[Expr, Expr]],
        schemas: Mapping[str, Schema],
        *,
        claims_weak_minimality: bool = False,
    ) -> None:
        """``entries`` maps a table name to its ``(D, A)`` pair.

        ``schemas`` must cover every table in ``entries``; arities of
        ``D`` and ``A`` are validated against them.

        ``claims_weak_minimality`` is a *provenance* flag: set it only
        when the builder guarantees :math:`D_i \\subseteq R_i` in every
        reachable state (e.g. a log maintained under Lemma 4's
        ``makesafe`` discipline).  The static classifier in
        :mod:`repro.analysis.properties` trusts it.
        """
        self._entries: dict[str, tuple[Expr, Expr]] = {}
        self._schemas: dict[str, Schema] = {}
        self._claims_weak_minimality = bool(claims_weak_minimality)
        for name, (delete, insert) in entries.items():
            schema = schemas.get(name)
            if schema is None:
                raise SchemaError(f"no schema supplied for substituted table {name!r}")
            if delete.schema().arity != schema.arity or insert.schema().arity != schema.arity:
                raise SchemaError(f"substitution for {name!r}: delta arity does not match table arity")
            self._entries[name] = (delete, insert)
            self._schemas[name] = schema

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def claims_weak_minimality(self) -> bool:
        """Whether the builder vouched for :math:`D_i \\subseteq R_i`."""
        return self._claims_weak_minimality

    def tables(self) -> frozenset[str]:
        return frozenset(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def delete_of(self, name: str) -> Expr:
        """The :math:`D_i` component for ``name``."""
        return self._entries[name][0]

    def insert_of(self, name: str) -> Expr:
        """The :math:`A_i` component for ``name``."""
        return self._entries[name][1]

    def schema_of(self, name: str) -> Schema:
        return self._schemas[name]

    def replacement(self, name: str) -> Expr:
        """The replacement query :math:`(R \\dot{-} D) \\uplus A` for ``name``."""
        delete, insert = self._entries[name]
        ref = TableRef(name, self._schemas[name])
        return UnionAll(Monus(ref, delete), insert)

    # ------------------------------------------------------------------
    # Application and normalization
    # ------------------------------------------------------------------

    def apply(self, query: Expr) -> Expr:
        """:math:`\\eta(Q)`: replace every occurrence of each substituted table.

        A query that itself holds a bound leaf is refused: whether the
        caller's bag belongs to the state being substituted is not ours
        to guess.
        """
        for node in query.walk():
            if isinstance(node, Bound):
                raise ReproError(f"cannot substitute into a query holding the bound leaf {node}")
        mapping = {name: self.replacement(name) for name in self._entries}
        return query.substitute(mapping)

    def weakly_minimal(self) -> FactoredSubstitution:
        """An equivalent substitution with :math:`D_i \\min R_i` as delete parts."""
        entries: dict[str, tuple[Expr, Expr]] = {}
        for name, (delete, insert) in self._entries.items():
            ref = TableRef(name, self._schemas[name])
            entries[name] = (min_expr(delete, ref), insert)
        return FactoredSubstitution(entries, self._schemas, claims_weak_minimality=True)

    def is_trivial(self) -> bool:
        """True when every delta is a literal empty bag (η is the identity)."""
        for delete, insert in self._entries.values():
            for part in (delete, insert):
                if not (isinstance(part, Literal) and not part.bag):
                    return False
        return True

    @classmethod
    def identity(cls) -> FactoredSubstitution:
        """The empty substitution (replaces nothing)."""
        return cls({}, {})

    @classmethod
    def literal(cls, deltas: Mapping[str, tuple[Bag, Bag]], schemas: Mapping[str, Schema]) -> FactoredSubstitution:
        """Build from concrete ``(delete_bag, insert_bag)`` pairs."""
        entries = {
            name: (Literal(delete, schemas[name]), Literal(insert, schemas[name]))
            for name, (delete, insert) in deltas.items()
        }
        return cls(entries, schemas)

    @classmethod
    def bound(cls, schemas: Mapping[str, Schema]) -> FactoredSubstitution:
        """Build over bound leaves: each table's ``(D, A)`` is its
        :func:`bound_pair`, supplied per evaluation (:func:`pair_binding`),
        so what is built from this substitution is built once."""
        return cls({name: bound_pair(name, schema) for name, schema in schemas.items()}, schemas)

    def __repr__(self) -> str:
        return f"FactoredSubstitution({sorted(self._entries)})"
