"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses distinguish the
layer that produced the error: algebra (schema/typing), parsing, storage,
and view-maintenance policy misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A query or operation is inconsistent with the schemas involved.

    Raised for unknown attributes, arity mismatches in bag operations,
    ambiguous attribute references, and incompatible operand schemas.

    Structured context for diagnostics (all optional):

    * ``attribute`` — the offending attribute name, when one exists;
    * ``expression`` — a short rendering of the expression node that was
      being validated when the error was raised;
    * ``position`` — character offset into SQL source text, when the
      expression came from the SQL front end.
    """

    def __init__(
        self,
        message: str,
        *,
        attribute: str | None = None,
        expression: str | None = None,
        position: int | None = None,
    ) -> None:
        super().__init__(message)
        self.attribute = attribute
        self.expression = expression
        self.position = position

    def with_context(
        self,
        *,
        attribute: str | None = None,
        expression: str | None = None,
        position: int | None = None,
    ) -> SchemaError:
        """A copy of this error with missing context fields filled in."""
        return SchemaError(
            str(self),
            attribute=self.attribute if self.attribute is not None else attribute,
            expression=self.expression if self.expression is not None else expression,
            position=self.position if self.position is not None else position,
        )


class UnknownTableError(ReproError):
    """A query references a table that the database does not contain."""


class ParseError(ReproError):
    """The SQL front end could not parse the given statement."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        #: Character offset into the source text, when known.
        self.position = position


class TransactionError(ReproError):
    """A transaction is malformed or touches tables it must not touch.

    User transactions may only update *external* tables; internal tables
    (materialized views, logs, differential tables) are reserved for the
    maintenance machinery.
    """


class InvariantViolation(ReproError):
    """A database invariant required by a maintenance scenario is broken."""


class PolicyError(ReproError):
    """A maintenance policy was configured or driven incorrectly."""


class RecoveryError(ReproError):
    """The crash-safety layer was misused or found unrecoverable state.

    Raised by the intent journal (e.g. starting a new operation while a
    crashed operation's intent is still pending) and by the recovery
    runner (e.g. a snapshot whose contents match neither the pre- nor a
    consistent post-operation state).
    """


class SnapshotError(ReproError):
    """A snapshot file is in a state no checkpoint leaves it in.

    Raised by :func:`repro.storage.persistence.load_database`, which
    fails closed instead of building a database from such a file.
    ``code`` says what is wrong — ``"negative-multiplicity"`` (a row's
    ``mult`` entries sum below zero), ``"uncatalogued-table"`` (a data
    table that ``__catalog__`` does not list) or ``"missing-table"`` (a
    catalog row without its data table) — and ``table`` names the table.
    A full write raises ``"live-wal"`` (``table`` is ``None``) instead
    of renaming a new file over one whose write-ahead log another
    connection still holds frames in.
    """

    def __init__(self, code: str, table: str | None, message: str) -> None:
        subject = "" if table is None else f" table {table!r}:"
        super().__init__(f"[{code}]{subject} {message}")
        self.code = code
        self.table = table


class ParameterError(ReproError):
    """A query parameter was evaluated without a value, or would outlive its call.

    A :class:`~repro.algebra.predicates.Param` takes its value from the
    binding of the one call that evaluates it.  ``code`` says what went
    wrong: ``"unbound-parameter"`` (a call whose binding holds no value
    for it) or ``"stored-parameter"`` (a view definition or a serialized
    expression would keep the open parameter past the call).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class AnalysisError(ReproError):
    """Static analysis rejected an expression or maintenance plan.

    Raised by the :mod:`repro.analysis` lint driver in ``strict`` mode;
    carries the list of :class:`~repro.analysis.diagnostics.Diagnostic`
    objects that caused the failure.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        #: The diagnostics (errors and warnings) behind the failure.
        self.diagnostics = tuple(diagnostics)
