"""Hanson-style suspended updates via differential files [Han87, SL76].

The historical way to dodge the state bug: never actually apply updates
to base tables.  Each base table ``R`` is *virtual*, reconstructed as

.. math::

    R = (B \\dot{-} D) \\uplus A

where ``B`` holds the last-applied ("old") value and ``D`` / ``A`` hold
suspended deletions / insertions.  Because ``B`` still contains the
pre-update state, the **pre-update** incremental algorithm is directly
applicable at refresh time — no duality needed.

The price, which Section 4.2 calls out, is that *every* query against a
base table must evaluate :math:`(B \\dot{-} D) \\uplus A` instead of a
plain scan.  :meth:`HansonDifferentialFiles.query_cost_ratio` measures
that slowdown, which is the baseline's entry in experiment E5.
"""

from __future__ import annotations

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr, Literal, Monus, TableRef, UnionAll
from repro.core.differential import differentiate
from repro.core.substitution import FactoredSubstitution
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.storage.database import Database
from repro.storage.locks import LockLedger

__all__ = ["HansonDifferentialFiles"]


def _base_name(table: str) -> str:
    return f"__han_base__{table}"


def _susp_delete_name(table: str) -> str:
    return f"__han_del__{table}"


def _susp_insert_name(table: str) -> str:
    return f"__han_ins__{table}"


class HansonDifferentialFiles:
    """Deferred maintenance with suspended updates on base tables."""

    tag = "HAN"

    def __init__(
        self,
        db: Database,
        view: ViewDefinition,
        *,
        counter: CostCounter | None = None,
        ledger: LockLedger | None = None,
    ) -> None:
        self.db = db
        self.view = view
        self.counter = counter if counter is not None else CostCounter()
        self.ledger = ledger if ledger is not None else LockLedger()
        self._tables = tuple(sorted(view.base_tables()))
        self._installed = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Split each base table into (B, D, A); materialize MV from B."""
        if self._installed:
            return
        for name in self._tables:
            schema = self.db.schema_of(name)
            self.db.create_table(_base_name(name), schema, rows=self.db[name], internal=True)
            self.db.create_table(_susp_delete_name(name), schema, internal=True)
            self.db.create_table(_susp_insert_name(name), schema, internal=True)
        initial = self.db.evaluate(self._query_over_bases(), counter=self.counter)
        self.db.create_table(self.view.mv_table, self.view.schema, rows=initial, internal=True)
        self._installed = True

    def _query_over_bases(self) -> Expr:
        """The view query with every ``R`` replaced by its stored ``B``."""
        mapping = {
            name: TableRef(_base_name(name), self.db.schema_of(name)) for name in self._tables
        }
        return self.view.query.substitute(mapping)

    # ------------------------------------------------------------------
    # Virtual base tables
    # ------------------------------------------------------------------

    def virtual_expr(self, name: str) -> Expr:
        """The reconstruction :math:`(B \\dot{-} D) \\uplus A` for table ``name``."""
        schema = self.db.schema_of(name)
        return UnionAll(
            Monus(TableRef(_base_name(name), schema), TableRef(_susp_delete_name(name), schema)),
            TableRef(_susp_insert_name(name), schema),
        )

    def read_table(self, name: str) -> Bag:
        """What a user query over base table ``name`` must now evaluate."""
        return self.db.evaluate(self.virtual_expr(name), counter=self.counter)

    def query_cost_ratio(self, name: str) -> float:
        """Tuple-op cost of a virtual scan relative to a plain scan."""
        probe = CostCounter()
        self.db.evaluate(self.virtual_expr(name), counter=probe)
        virtual_cost = probe.tuples_out
        probe.reset()
        self.db.evaluate(self.db.ref(name), counter=probe)
        plain_cost = probe.tuples_out
        return virtual_cost / plain_cost if plain_cost else float("inf")

    # ------------------------------------------------------------------
    # Transactions: suspend instead of apply
    # ------------------------------------------------------------------

    def execute(self, txn: UserTransaction) -> None:
        """Record the transaction's deltas into D/A; also keep the real
        tables current so the rest of the system sees normal semantics."""
        txn = txn.weakly_minimal()
        patches: dict[str, tuple[Expr, Expr]] = txn.patches()
        for name in sorted(set(txn.tables) & set(self._tables)):
            nabla = txn.delete_expr(name)
            delta = txn.insert_expr(name)
            schema = self.db.schema_of(name)
            empty = Literal(Bag.empty(), schema)
            susp_insert = TableRef(_susp_insert_name(name), schema)
            # Same weakly minimal folding as the paper's logs, as patches:
            # D := D ⊎ (∇R ∸ A);  A := (A ∸ ∇R) ⊎ ΔR
            patches[_susp_delete_name(name)] = (empty, Monus(nabla, susp_insert))
            patches[_susp_insert_name(name)] = (nabla, delta)
        self.db.apply(patches=patches, counter=self.counter, binding=txn.binding)

    # ------------------------------------------------------------------
    # Refresh: the pre-update algorithm is sound here
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Apply pre-update deltas w.r.t. the stored bases, then absorb
        the suspended updates into ``B``."""
        entries: dict[str, tuple[Expr, Expr]] = {}
        schemas = {}
        for name in self._tables:
            schema = self.db.schema_of(name)
            entries[_base_name(name)] = (
                TableRef(_susp_delete_name(name), schema),
                TableRef(_susp_insert_name(name), schema),
            )
            schemas[_base_name(name)] = schema
        eta = FactoredSubstitution(entries, schemas)
        query_b = self._query_over_bases()
        delete, insert = differentiate(eta, query_b)

        patches: dict[str, tuple[Expr, Expr]] = {self.view.mv_table: (delete, insert)}
        assignments: dict[str, Expr] = {}
        for name in self._tables:
            schema = self.db.schema_of(name)
            # Absorb suspended updates into the base, delta-proportionally.
            patches[_base_name(name)] = (
                TableRef(_susp_delete_name(name), schema),
                TableRef(_susp_insert_name(name), schema),
            )
            assignments[_susp_delete_name(name)] = Literal(Bag.empty(), schema)
            assignments[_susp_insert_name(name)] = Literal(Bag.empty(), schema)
        with self.ledger.exclusive(self.view.mv_table, label="refresh_HAN", counter=self.counter):
            self.db.apply(assignments, patches=patches, counter=self.counter)

    def read_view(self) -> Bag:
        return self.db[self.view.mv_table]

    def is_consistent(self) -> bool:
        """MV equals Q over the *virtual* (current) base tables."""
        mapping = {name: self.virtual_expr(name) for name in self._tables}
        return self.db.evaluate(self.view.query.substitute(mapping)) == self.read_view()
