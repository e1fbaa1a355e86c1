"""Simple transactions: per-table delete/insert deltas (Section 2.2).

The paper considers *simple transactions*

.. math::

    \\mathcal{T} = \\{R_i := (R_i \\dot{-} \\nabla R_i) \\uplus \\triangle R_i\\}

without loss of generality (any abstract transaction can be put in this
form).  :class:`UserTransaction` captures exactly that: for each updated
table, a pair of bag-algebra expressions — the delete bag
:math:`\\nabla R` and the insert bag :math:`\\triangle R` — evaluated in
the pre-transaction state.

Most user transactions delete and insert literal rows; the builder
methods :meth:`UserTransaction.insert` / :meth:`UserTransaction.delete`
accept plain row iterables and wrap them in literals.  Arbitrary
expressions are accepted too (the paper's generality), via
:meth:`UserTransaction.delete_query` / :meth:`UserTransaction.insert_query`.
A prepared SQL script (:mod:`repro.sqlfront.prepared`) adds one
template per statement, its literals and ``VALUES`` rows left open, and
their values as the transaction's :attr:`UserTransaction.binding`: every
expression built from the transaction's deltas — the weakly minimal
form, ``makesafe``'s log extensions and incremental queries — is
evaluated under it, so one compiled plan serves every script of a shape.

*Weak minimality* (Section 4.1) requires :math:`\\nabla R \\subseteq R`.
:meth:`UserTransaction.weakly_minimal` rewrites the delete expressions as
:math:`\\nabla R \\min R`, which never changes the transaction's effect
(monus already ignores over-deletion) but makes the substitution
:math:`\\widehat{\\mathcal{T}}` weakly minimal as Figure 2 requires.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

from repro.algebra.bag import Bag, Row
from repro.algebra.expr import Expr, Literal, Monus, UnionAll, min_expr
from repro.errors import TransactionError
from repro.storage.database import Database

__all__ = ["UserTransaction"]


class UserTransaction:
    """A simple transaction over external base tables."""

    def __init__(self, db: Database) -> None:
        self._db = db
        self._deletes: dict[str, Expr] = {}
        self._inserts: dict[str, Expr] = {}
        self._binding: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    def _check_updatable(self, name: str) -> None:
        if self._db.is_internal(name):
            raise TransactionError(f"user transactions may not update internal table {name!r}")

    def insert(self, name: str, rows: Iterable[Row] | Bag) -> UserTransaction:
        """Insert literal rows into ``name``."""
        bag = rows if isinstance(rows, Bag) else Bag(rows)
        return self.insert_query(name, Literal(bag, self._db.schema_of(name)))

    def delete(self, name: str, rows: Iterable[Row] | Bag) -> UserTransaction:
        """Delete literal rows from ``name`` (copies beyond those present are ignored)."""
        bag = rows if isinstance(rows, Bag) else Bag(rows)
        return self.delete_query(name, Literal(bag, self._db.schema_of(name)))

    def insert_query(self, name: str, expr: Expr) -> UserTransaction:
        """Insert the result of a query (evaluated pre-transaction)."""
        self._check_updatable(name)
        current = self._inserts.get(name)
        self._inserts[name] = expr if current is None else UnionAll(current, expr)
        return self

    def delete_query(self, name: str, expr: Expr) -> UserTransaction:
        """Delete the result of a query (evaluated pre-transaction)."""
        self._check_updatable(name)
        current = self._deletes.get(name)
        self._deletes[name] = expr if current is None else UnionAll(current, expr)
        return self

    def bind(self, values: Mapping[str, Any]) -> UserTransaction:
        """Supply what the expressions' open leaves read (``?i`` → a
        parameter's value, a bound leaf's name → its bag); each name once."""
        clash = self._binding.keys() & values.keys()
        if clash:
            raise TransactionError(f"{sorted(clash)} already bound in this transaction")
        self._binding.update(values)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def binding(self) -> dict[str, Any] | None:
        """What its expressions read from their open leaves (``None``: they
        have none); every evaluation of them is given it as ``binding=``."""
        return self._binding or None

    @property
    def tables(self) -> frozenset[str]:
        """All tables this transaction updates."""
        return frozenset(self._deletes) | frozenset(self._inserts)

    def delete_expr(self, name: str) -> Expr:
        """The delete bag :math:`\\nabla R` for ``name`` (empty literal if none)."""
        expr = self._deletes.get(name)
        if expr is None:
            return Literal(Bag.empty(), self._db.schema_of(name))
        return expr

    def insert_expr(self, name: str) -> Expr:
        """The insert bag :math:`\\triangle R` for ``name`` (empty literal if none)."""
        expr = self._inserts.get(name)
        if expr is None:
            return Literal(Bag.empty(), self._db.schema_of(name))
        return expr

    def is_empty(self) -> bool:
        return not self._deletes and not self._inserts

    # ------------------------------------------------------------------
    # Normalization
    # ------------------------------------------------------------------

    def weakly_minimal(self) -> UserTransaction:
        """An equivalent transaction whose deletes satisfy :math:`\\nabla R \\subseteq R`."""
        normalized = UserTransaction(self._db)
        normalized._inserts = dict(self._inserts)
        normalized._binding = dict(self._binding)
        for name, expr in self._deletes.items():
            normalized._deletes[name] = min_expr(expr, self._db.ref(name))
        return normalized

    # ------------------------------------------------------------------
    # Lowering to assignments
    # ------------------------------------------------------------------

    def assignments(self) -> dict[str, Expr]:
        """The assignment form :math:`R := (R \\dot{-} \\nabla R) \\uplus \\triangle R`."""
        result: dict[str, Expr] = {}
        for name in sorted(self.tables):
            ref = self._db.ref(name)
            result[name] = UnionAll(Monus(ref, self.delete_expr(name)), self.insert_expr(name))
        return result

    def patches(self) -> dict[str, tuple[Expr, Expr]]:
        """The patch form: per-table ``(∇R, ΔR)`` delta pairs.

        Semantically identical to :meth:`assignments` but executed as
        indexed in-place updates, so the transaction's cost is
        proportional to its delta sizes.
        """
        return {name: (self.delete_expr(name), self.insert_expr(name)) for name in sorted(self.tables)}

    def apply(self) -> None:
        """Execute this transaction directly (no view maintenance)."""
        self._db.apply(patches=self.patches(), restrict_to_external=True, binding=self.binding)

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self.tables):
            if name in self._deletes:
                parts.append(f"-{name}")
            if name in self._inserts:
                parts.append(f"+{name}")
        return f"UserTransaction({', '.join(parts)})"
