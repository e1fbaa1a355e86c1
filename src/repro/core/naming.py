"""Naming conventions for the internal (maintenance) tables.

The paper's auxiliary tables are real database tables (Section 2.3:
"a log is a collection of auxiliary base tables"), so we give them
deterministic names derived from the owning view and the base-table
name.  The ``__`` prefix marks them internal;
:class:`~repro.storage.database.Database` refuses user transactions
against internal tables.

Logs are namespaced per owning view.  The paper's ``makesafe_BL`` keeps
one log per maintained view; storing logs so that per-transaction work
is independent of the number of views is listed as future work
(Section 7) — see :class:`repro.extensions.sharedlog.SharedLog` for our
implementation of that extension.
"""

from __future__ import annotations

__all__ = [
    "log_delete_name",
    "log_insert_name",
    "mv_name",
    "agg_name",
    "dt_delete_name",
    "dt_insert_name",
    "view_of_mv",
    "is_mv_table",
]


def log_delete_name(owner: str, table: str) -> str:
    """Name of the log table :math:`\\blacktriangledown R` (recorded deletions)."""
    return f"__log_del__{owner}__{table}"


def log_insert_name(owner: str, table: str) -> str:
    """Name of the log table :math:`\\blacktriangle R` (recorded insertions)."""
    return f"__log_ins__{owner}__{table}"


def mv_name(view: str) -> str:
    """Name of the materialized table ``MV`` for a view."""
    return f"__mv__{view}"


def agg_name(view: str) -> str:
    """Name of an aggregate view's grouped table (derived from its ``MV``)."""
    return f"__agg__{view}"


def view_of_mv(table: str) -> str:
    """The owning view of an ``MV`` table name (identity for other names)."""
    prefix = "__mv__"
    return table[len(prefix):] if table.startswith(prefix) else table


def is_mv_table(table: str) -> bool:
    """Whether a table name is a reader-visible materialized-view table.

    ``MV`` tables and aggregate views' grouped tables are the only
    internal tables readers are served from, so they are the resources
    the Section 5.3 lock discipline protects; log and differential
    tables are maintenance-private.
    """
    return table.startswith(("__mv__", "__agg__"))


def dt_delete_name(view: str) -> str:
    """Name of the view differential table :math:`\\triangledown MV`."""
    return f"__dt_del__{view}"


def dt_insert_name(view: str) -> str:
    """Name of the view differential table :math:`\\triangle MV`."""
    return f"__dt_ins__{view}"
