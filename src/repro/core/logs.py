"""Base-table logs (Section 2.3).

A log :math:`\\mathcal{L}` is a collection of auxiliary base tables
:math:`\\blacktriangledown R_i` (recorded deletions) and
:math:`\\blacktriangle R_i` (recorded insertions), one pair per tracked
base table.  The log records the transition from a past state
:math:`s_p` to the current state :math:`s_c`:

.. math::

    R_i(s_p) = ((R_i \\dot{-} \\blacktriangle R_i)
                \\uplus \\blacktriangledown R_i)(s_c)

:class:`Log` manages the pair of internal tables per tracked base table,
builds the substitution :math:`\\widehat{\\mathcal{L}}` for past queries,
and produces the assignment fragments used by ``makesafe_BL`` (Figure 3)
to extend the log while *keeping it weakly minimal* (Lemma 4), i.e.
preserving the invariant :math:`\\blacktriangle R_i \\subseteq R_i`:

.. math::

    \\blacktriangledown R_i :=
        \\blacktriangledown R_i \\uplus (\\nabla R_i \\dot{-} \\blacktriangle R_i)
    \\qquad
    \\blacktriangle R_i :=
        (\\blacktriangle R_i \\dot{-} \\nabla R_i) \\uplus \\triangle R_i
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr, Literal, Monus, TableRef, UnionAll, min_expr
from repro.core import naming
from repro.core.substitution import FactoredSubstitution
from repro.core.transactions import UserTransaction
from repro.errors import TransactionError
from repro.storage.database import Database

__all__ = ["Log"]


class Log:
    """A log over a fixed set of tracked external tables."""

    def __init__(self, db: Database, tables: Iterable[str], *, owner: str = "shared") -> None:
        self._db = db
        self._tables = tuple(sorted(set(tables)))
        self._owner = owner

    @property
    def tables(self) -> tuple[str, ...]:
        """The tracked base tables."""
        return self._tables

    def table_names(self) -> tuple[str, ...]:
        """Names of all log tables (the ▼/▲ pair of every tracked table)."""
        names: list[str] = []
        for name in self._tables:
            names.append(naming.log_delete_name(self._owner, name))
            names.append(naming.log_insert_name(self._owner, name))
        return tuple(names)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Create the (empty) log tables as internal tables."""
        for name in self._tables:
            schema = self._db.schema_of(name)
            self._db.create_table(naming.log_delete_name(self._owner, name), schema, internal=True)
            self._db.create_table(naming.log_insert_name(self._owner, name), schema, internal=True)

    def uninstall(self) -> None:
        """Drop the log tables (inverse of :meth:`install`)."""
        for name in self._tables:
            self._db.drop_table(naming.log_delete_name(self._owner, name))
            self._db.drop_table(naming.log_insert_name(self._owner, name))

    def delete_ref(self, name: str) -> TableRef:
        """Reference to :math:`\\blacktriangledown R` for tracked table ``name``."""
        return self._db.ref(naming.log_delete_name(self._owner, name))

    def insert_ref(self, name: str) -> TableRef:
        """Reference to :math:`\\blacktriangle R` for tracked table ``name``."""
        return self._db.ref(naming.log_insert_name(self._owner, name))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True when no changes have been recorded since the last clear."""
        for name in self._tables:
            if self._db[naming.log_delete_name(self._owner, name)] or self._db[naming.log_insert_name(self._owner, name)]:
                return False
        return True

    def recorded_changes(self) -> int:
        """Total recorded tuples across all log tables."""
        total = 0
        for name in self._tables:
            total += len(self._db[naming.log_delete_name(self._owner, name)])
            total += len(self._db[naming.log_insert_name(self._owner, name)])
        return total

    def is_weakly_minimal(self) -> bool:
        """Check the invariant :math:`\\blacktriangle R \\subseteq R`."""
        for name in self._tables:
            if not self._db[naming.log_insert_name(self._owner, name)].issubbag(self._db[name]):
                return False
        return True

    # ------------------------------------------------------------------
    # The substitution L̂
    # ------------------------------------------------------------------

    def substitution(self) -> FactoredSubstitution:
        """:math:`\\widehat{\\mathcal{L}}`: maps :math:`R` to
        :math:`(R \\dot{-} \\blacktriangle R) \\uplus \\blacktriangledown R`.

        The *delete* component is the log's insert table and vice versa —
        past queries must undo recorded changes.
        """
        entries = {
            name: (self.insert_ref(name), self.delete_ref(name))  # (D, A) = (▲R, ▼R)
            for name in self._tables
        }
        schemas = {name: self._db.schema_of(name) for name in self._tables}
        # makesafe_BL maintains ▲R ⊆ R (Lemma 4), so the substitution is
        # weakly minimal by construction — provenance the static
        # classifier can rely on without a runtime subset check.
        return FactoredSubstitution(entries, schemas, claims_weak_minimality=True)

    # ------------------------------------------------------------------
    # Assignment fragments for Figure 3
    # ------------------------------------------------------------------

    def extend_assignments(self, txn: UserTransaction, *, strict: bool = False) -> dict[str, Expr]:
        """The log-update half of ``makesafe_BL[T]``.

        Returns assignments for the log tables of every *tracked* table
        the transaction touches.  Updates to untracked tables are
        ignored — they cannot affect any view defined over the tracked
        tables — unless ``strict=True``, in which case they raise.
        """
        untracked = txn.tables - set(self._tables)
        if strict and untracked:
            raise TransactionError(
                f"transaction updates tables not covered by the log: {sorted(untracked)}"
            )
        assignments: dict[str, Expr] = {}
        for name in sorted(txn.tables & set(self._tables)):
            nabla = txn.delete_expr(name)
            delta = txn.insert_expr(name)
            log_del = self.delete_ref(name)
            log_ins = self.insert_ref(name)
            # ▼R := ▼R ⊎ (∇R ∸ ▲R)
            assignments[log_del.name] = UnionAll(log_del, Monus(nabla, log_ins))
            # ▲R := (▲R ∸ ∇R) ⊎ ΔR
            assignments[log_ins.name] = UnionAll(Monus(log_ins, nabla), delta)
        return assignments

    def extend_patches(self, txn: UserTransaction, *, strict: bool = False) -> dict[str, tuple[Expr, Expr]]:
        """The log extension of ``makesafe_BL[T]`` in patch form.

        Identical semantics to :meth:`extend_assignments`, but expressed
        as delta patches so the per-transaction log overhead is
        proportional to the transaction's own delta — the paper's
        "little overhead since we only need to record the changes".
        """
        untracked = txn.tables - set(self._tables)
        if strict and untracked:
            raise TransactionError(
                f"transaction updates tables not covered by the log: {sorted(untracked)}"
            )
        empty_of = {name: Literal(Bag.empty(), self._db.schema_of(name)) for name in self._tables}
        patches: dict[str, tuple[Expr, Expr]] = {}
        for name in sorted(txn.tables & set(self._tables)):
            nabla = txn.delete_expr(name)
            delta = txn.insert_expr(name)
            log_ins = self.insert_ref(name)
            # ▼R := ▼R ⊎ (∇R ∸ ▲R)        — insert-only patch
            patches[self.delete_ref(name).name] = (empty_of[name], Monus(nabla, log_ins))
            # ▲R := (▲R ∸ ∇R) ⊎ ΔR        — delete/insert patch
            patches[log_ins.name] = (nabla, delta)
        return patches

    # ------------------------------------------------------------------
    # Net-effect compaction
    # ------------------------------------------------------------------

    def compaction_patches(self) -> dict[str, tuple[Expr, Expr]]:
        """Patches cancelling the common part of each ``(▼R, ▲R)`` pair.

        Removing :math:`\\blacktriangledown R \\min \\blacktriangle R`
        from *both* sides is sound whenever the log is weakly minimal
        (Lemma 4, :math:`\\blacktriangle R \\subseteq R`): the past state
        :math:`(R \\dot{-} \\blacktriangle R) \\uplus \\blacktriangledown R`
        is unchanged when the same bag is dropped from the subtrahend and
        the addend, and the shrunken :math:`\\blacktriangle R' \\subseteq
        \\blacktriangle R \\subseteq R` stays weakly minimal.  This is the
        strong-minimality normalization of Section 4.1 applied to the
        *log* instead of the view differentials: afterwards no tuple is
        recorded as both deleted and re-inserted, so ``PAST(L, Q)`` and
        every post-update delta scale with the **net** change.
        """
        patches: dict[str, tuple[Expr, Expr]] = {}
        for name in self._tables:
            schema = self._db.schema_of(name)
            empty = Literal(Bag.empty(), schema)
            common = min_expr(self.delete_ref(name), self.insert_ref(name))
            patches[naming.log_delete_name(self._owner, name)] = (common, empty)
            patches[naming.log_insert_name(self._owner, name)] = (common, empty)
        return patches

    def compact(self, *, counter: CostCounter | None = None) -> None:
        """Apply :meth:`compaction_patches` as one simultaneous transaction."""
        from repro.core.plan import MaintenancePlan

        MaintenancePlan(patches=self.compaction_patches()).execute(self._db, counter=counter)

    def clear_assignments(self) -> dict[str, Expr]:
        """Assignments implementing :math:`\\mathcal{L} := \\phi`."""
        assignments: dict[str, Expr] = {}
        for name in self._tables:
            schema = self._db.schema_of(name)
            assignments[naming.log_delete_name(self._owner, name)] = Literal(Bag.empty(), schema)
            assignments[naming.log_insert_name(self._owner, name)] = Literal(Bag.empty(), schema)
        return assignments
