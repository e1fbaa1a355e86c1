"""View definitions.

A view is a named query over *external* base tables.  The materialized
table ``MV`` and any auxiliary tables are derived from the view name via
:mod:`repro.core.naming` when a maintenance scenario installs the view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expr import Expr, bind_params
from repro.algebra.schema import Schema
from repro.core import naming
from repro.errors import SchemaError

__all__ = ["ViewDefinition"]


@dataclass(frozen=True)
class ViewDefinition:
    """A view: a name plus its defining bag-algebra query ``Q``.

    ``Q`` holds no open parameter: a prepared query's values are bound
    back into it as constants
    (:func:`~repro.algebra.expr.bind_params`), and a parameter with no
    value raises :class:`~repro.errors.ParameterError` — a view outlives
    the call a parameter's value belongs to.
    """

    name: str
    query: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "query", bind_params(self.query))

    @property
    def schema(self) -> Schema:
        """The view's result schema."""
        return self.query.schema()

    @property
    def mv_table(self) -> str:
        """Name of the materialized table ``MV``."""
        return naming.mv_name(self.name)

    @property
    def dt_delete_table(self) -> str:
        """Name of the differential table :math:`\\triangledown MV`."""
        return naming.dt_delete_name(self.name)

    @property
    def dt_insert_table(self) -> str:
        """Name of the differential table :math:`\\triangle MV`."""
        return naming.dt_insert_name(self.name)

    def base_tables(self) -> frozenset[str]:
        """Names of the base tables the view reads."""
        return self.query.tables()

    def require_external_inputs(self, db) -> None:
        """Raise :class:`SchemaError` if the query reads an internal table.

        User transactions change only external tables, and ``makesafe``
        logs only those (Section 3.1): a view over an ``MV``, log or
        differential table would never see that input change, and its
        invariant could not hold.  Checked before anything is installed.
        """
        internal = sorted(t for t in self.base_tables() if db.has_table(t) and db.is_internal(t))
        if internal:
            raise SchemaError(
                f"view {self.name!r} reads internal table(s) {internal}; "
                "a view may read only external base tables"
            )
