"""SQLite compilation backend.

An independent second implementation of the bag algebra, used to
cross-validate the in-memory evaluator and to run larger workloads:
every bag is stored / produced as rows ``(c0, …, c{n-1}, mult)`` with
``mult > 0`` (multiplicity encoding), and every
:class:`~repro.algebra.expr.Expr` compiles to a single SQLite ``SELECT``
over that encoding:

==============  ==================================================
operator        SQL strategy
==============  ==================================================
table ref       scan the multiplicity-encoded table
key restriction ``WHERE key IN (SELECT key FROM __bound_keys ...)`` —
                the set is bound per call (:meth:`SQLiteMirror.bind_keys`)
literal         ``VALUES`` list
σ (select)      ``WHERE`` over the child
Π (project)     ``GROUP BY`` projected columns, ``SUM(mult)``
ε (dedup)       ``GROUP BY`` all columns, ``mult = 1``
⊎ (union all)   ``UNION ALL`` (ungrouped — duplicates are fine)
∸ (monus)       ``LEFT JOIN`` with ``IS`` (null-safe) keys over
                canonicalized sides, keep ``lm - COALESCE(rm, 0) > 0``
× (product)     comma join, multiplicities multiply
==============  ==================================================

The compiler emits *planner-transparent* SQL: equality compiles to the
null-safe ``IS`` / ``IS NOT`` (which matches the in-memory engine's
``None == None`` semantics *and* SQLite can use as an indexable join
constraint), predicates are bare ``WHERE`` terms (SQL's unknown and
false both drop the row, so no ``COALESCE`` wrapper is needed — and
wrapping would blind the query planner to the join equalities inside),
and canonicalizing ``GROUP BY`` layers appear only where an operator
*requires* distinct rows (Π/ε aggregate by definition; ∸ compares
per-row multiplicities).  Everything else stays a flat
select/join/union-all pipeline that SQLite's flattener collapses into
single queries driven by indexes — which is what makes pushed-down
delta joins run in O(|delta|) probes instead of materializing every
operator boundary.

Intermediate results may therefore hold *duplicate* physical rows,
but multiplicities stay positive throughout (leaf scans are canonical
and ∸ filters its output), so ``SUM(mult)`` aggregations above remain
correct and the final Python-side accumulation nets exactly.

Caveat: SQLite's cross-*type* comparison semantics (total type ordering)
differ from the in-memory engine (ordered comparisons across types are
false).  Columns with homogeneous types — which includes everything the
workload generators produce — behave identically.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
from collections.abc import Callable, Iterable, Mapping
from typing import Any

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.robustness.faults import fault_point
from repro.algebra.expr import (
    Bound,
    DupElim,
    Expr,
    KeyRestrict,
    Literal,
    MapProject,
    Monus,
    Parameterized,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
)
from repro.algebra.predicates import (
    And,
    Arith,
    Attr,
    Comparison,
    Const,
    Not,
    Param,
    Or,
    Predicate,
    Term,
    TruePredicate,
    param_value,
)
from repro.algebra.schema import Schema
from repro.errors import ReproError, SchemaError, UnknownTableError
from repro.storage.database import Database

__all__ = [
    "MirrorUnsupported",
    "SQLiteBackend",
    "SQLiteMirror",
    "compile_expr",
    "mirror_digest",
    "sql_params",
    "sqlite_supported_value",
]

#: The table a call's key binding is loaded into: one ``(domain, key)``
#: row per bound key, so a key-restricted leaf compiles to SQL text
#: that does not depend on the key set.
_KEYS_TABLE = "__bound_keys"

#: Python types SQLite stores faithfully (round-trip preserves Bag
#: equality: bool maps to 0/1, which hashes equal to the original).
_SUPPORTED_TYPES = (bool, int, float, str)


def sqlite_supported_value(value: Any) -> bool:
    """Whether ``value`` survives a round trip through SQLite unchanged."""
    return value is None or isinstance(value, _SUPPORTED_TYPES)


def _normalize_row(row: Row) -> Row:
    # SQLite stores bool as 0/1; normalize so digests compare the same
    # logical content on both sides (True == 1 for Bag equality, but
    # repr-based hashing would tell them apart).
    return tuple(int(value) if isinstance(value, bool) else value for value in row)


def mirror_digest(content: Bag | Iterable[tuple[Row, int]]) -> str:
    """A stable digest of bag content under SQLite value normalization.

    Divergence detection hashes the canonical table and the mirrored
    rows through this one function, so the comparison is insensitive to
    SQLite's bool→int round trip and to physical row order.
    """
    pairs = content.items() if isinstance(content, Bag) else content
    counts: dict[Row, int] = {}
    for row, count in pairs:
        row = _normalize_row(row)
        counts[row] = counts.get(row, 0) + int(count)
    hasher = hashlib.sha256()
    for row, count in sorted(counts.items(), key=lambda item: repr(item[0])):
        if count == 0:
            continue
        hasher.update(repr(row).encode())
        hasher.update(b"\x00")
        hasher.update(str(count).encode())
        hasher.update(b"\x01")
    return hasher.hexdigest()


class MirrorUnsupported(ReproError):
    """A table holds values SQLite cannot represent faithfully."""


def _cols(arity: int, qualifier: str | None = None) -> list[str]:
    prefix = f"{qualifier}." if qualifier else ""
    return [f"{prefix}c{index}" for index in range(arity)]


def _sql_value(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def _compile_term(term: Term, schema: Schema, columns: list[str] | None = None) -> str:
    if isinstance(term, Attr):
        index = schema.index_of(term.name)
        return columns[index] if columns is not None else f"c{index}"
    if isinstance(term, Const):
        return _sql_value(term.value)
    if isinstance(term, Param):
        # A named SQL parameter: the text is one per shape, the value
        # comes with each execution (see :func:`sql_params`).
        return f":p{term.index}"
    if isinstance(term, Arith):
        left = _compile_term(term.left, schema, columns)
        right = _compile_term(term.right, schema, columns)
        if term.op == "/":
            # True division, NULL on zero divisor — matches the in-memory
            # engine (SQLite's native "/" is integer division on ints).
            return f"(CAST({left} AS REAL) / NULLIF({right}, 0))"
        return f"({left} {term.op} {right})"
    raise ReproError(f"unknown predicate term {type(term).__name__}")


def _compile_predicate(
    predicate: Predicate, schema: Schema, columns: list[str] | None = None
) -> str:
    if isinstance(predicate, TruePredicate):
        return "1 = 1"
    if isinstance(predicate, Comparison):
        left = _compile_term(predicate.left, schema, columns)
        right = _compile_term(predicate.right, schema, columns)
        # Equality of two columns is null-safe IS: it matches the
        # in-memory hash join, whose NULL keys meet (None == None), and
        # the planner can still drive index lookups with it.  Every
        # other comparison stays bare: the engine's row filter makes a
        # comparison with a NULL operand false, and SQL's unknown drops
        # the row from a WHERE just the same (NOT is pinned with
        # COALESCE below) — so ``b != 'x'`` keeps no NULL ``b`` and
        # ``a = NULL`` matches no row.
        if predicate.op == "=" and isinstance(predicate.left, Attr) and isinstance(predicate.right, Attr):
            return f"({left} IS {right})"
        return f"({left} {predicate.op} {right})"
    if isinstance(predicate, And):
        left = _compile_predicate(predicate.left, schema, columns)
        right = _compile_predicate(predicate.right, schema, columns)
        return f"({left} AND {right})"
    if isinstance(predicate, Or):
        left = _compile_predicate(predicate.left, schema, columns)
        right = _compile_predicate(predicate.right, schema, columns)
        return f"({left} OR {right})"
    if isinstance(predicate, Not):
        # SQL three-valued logic: NOT NULL is NULL, which WHERE drops —
        # but our engine treats NULL comparisons as plain false, so a
        # negated comparison must come back true.  COALESCE pins that.
        return f"(NOT COALESCE({_compile_predicate(predicate.operand, schema, columns)}, 0))"
    raise ReproError(f"unknown predicate node {type(predicate).__name__}")


def _mangle(name: str) -> str:
    """A safe SQL identifier for an internal table name."""
    return '"' + name.replace('"', '""') + '"'


def _bound_table(leaf: Bound) -> str:
    """The temporary table a bound leaf's bag is loaded into (its arity
    in the name: one leaf name may stand for bags of two widths)."""
    return _mangle(f"__bound__{leaf.name}__{leaf.bound_schema.arity}")


def compile_expr(
    expr: Expr, *, scan: Callable[[str, int], str] | None = None, net: bool = False
) -> str:
    """Compile an expression to a SQLite ``SELECT`` producing
    ``c0 … c{n-1}, mult`` rows with positive multiplicities (the same
    logical row may span several physical rows; consumers must sum).

    ``scan`` overrides how a table reference compiles — the pushdown
    engine substitutes its :meth:`SQLiteMirror.scan_sql`; the default
    reads the canonical multiplicity encoding directly.  ``net`` adds
    one top-level regroup when the result is not already canonical, so
    only distinct rows cross the C/Python boundary.
    """
    sql, distinct = _compile(expr, scan)
    if net and not distinct and expr.schema().arity:
        cols = ", ".join(_cols(expr.schema().arity))
        sql = f"SELECT {cols}, SUM(mult) AS mult FROM ({sql}) GROUP BY {cols}"
    return sql


def sql_params(binding: Mapping[str, Any] | None, names: Iterable[str]) -> dict[str, Any]:
    """The named SQL parameters of a compiled statement whose expression
    reads the parameters ``names``, from the call's ``binding``
    (:class:`MirrorUnsupported` for a value SQLite does not round-trip)."""
    params = {}
    for name in names:
        value = param_value(binding, name)
        if not sqlite_supported_value(value):
            raise MirrorUnsupported(f"parameter {name} is bound to a value SQLite cannot hold")
        params[f"p{name[1:]}"] = value
    return params


def _compile(expr: Expr, scan: Callable[[str, int], str] | None) -> tuple[str, bool]:
    """Compile to ``(sql, distinct)``.

    ``distinct`` records whether the produced rows are known canonical
    (one physical row per logical row).  Only the operators that compare
    or collapse multiplicities per row (∸, and the aggregating Π/ε)
    care; tracking it lets everything else skip re-grouping, keeping the
    emitted SQL flattenable by SQLite's planner.
    """
    if isinstance(expr, Parameterized):
        return _compile(expr.resolved(), scan)

    if isinstance(expr, TableRef):
        arity = expr.table_schema.arity
        if scan is not None:
            # Both mirror scan shapes (plain canonical scan, netting
            # GROUP BY over the delta encoding) produce distinct rows.
            return scan(expr.name, arity), True
        cols = ", ".join(_cols(arity))
        return f"SELECT {cols}, mult FROM {_mangle(expr.name)}", True

    if isinstance(expr, Bound):
        # The call's bag, loaded just before the statement runs
        # (:meth:`SQLiteMirror.bind_bags`): one text for every bag.
        arity = expr.bound_schema.arity
        return f"SELECT {', '.join(_cols(arity))}, mult FROM {_bound_table(expr)}", True

    if isinstance(expr, KeyRestrict):
        table, distinct = _compile(expr.child, scan)
        return (
            f"SELECT * FROM ({table}) WHERE c{expr.position} IN "
            f"(SELECT key FROM {_KEYS_TABLE} WHERE domain = {_sql_value(expr.domain)})"
        ), distinct

    if isinstance(expr, Literal):
        arity = expr.literal_schema.arity
        if not expr.bag:
            zeros = ", ".join(f"NULL AS c{index}" for index in range(arity))
            return f"SELECT {zeros}, 0 AS mult WHERE 0", True
        rows = []
        for row, count in sorted(expr.bag.items(), key=lambda item: repr(item)):
            values = ", ".join([*(_sql_value(value) for value in row), str(count)])
            rows.append(f"({values})")
        # SQLite names VALUES columns column1..columnN; re-alias to c0..mult.
        aliases = ", ".join(
            [*(f"column{index + 1} AS c{index}" for index in range(arity)), f"column{arity + 1} AS mult"]
        )
        return f"SELECT {aliases} FROM (VALUES {', '.join(rows)})", True

    if isinstance(expr, Select):
        # Collapse σ-chains, and fuse σ(×) into a single SELECT … FROM
        # l, r WHERE … — a θ-join the planner sees whole.  Bare WHERE
        # conditions: SQL's unknown drops the row exactly like false,
        # and unwrapped comparisons are visible as join/index
        # constraints without any subquery flattening work at prepare
        # time.
        predicates = [expr.predicate]
        child = expr.child
        while isinstance(child, Select):
            predicates.append(child.predicate)
            child = child.child
        child_schema = child.schema()
        if isinstance(child, Product):
            left, left_distinct = _compile(child.left, scan)
            right, right_distinct = _compile(child.right, scan)
            left_arity = child.left.schema().arity
            columns = [
                *(f"l.c{index}" for index in range(left_arity)),
                *(f"r.c{index}" for index in range(child_schema.arity - left_arity)),
            ]
            outs = ", ".join(f"{column} AS c{index}" for index, column in enumerate(columns))
            condition = " AND ".join(
                _compile_predicate(predicate, child_schema, columns) for predicate in predicates
            )
            return (
                f"SELECT {outs}, l.mult * r.mult AS mult "
                f"FROM ({left}) AS l, ({right}) AS r WHERE {condition}"
            ), left_distinct and right_distinct
        sql, distinct = _compile(child, scan)
        condition = " AND ".join(
            _compile_predicate(predicate, child_schema) for predicate in predicates
        )
        return f"SELECT * FROM ({sql}) WHERE {condition}", distinct

    if isinstance(expr, Project):
        child, distinct = _compile(expr.child, scan)
        positions = expr.positions()
        outs = ", ".join(f"c{position} AS c{index}" for index, position in enumerate(positions))
        # Π is linear over the signed encoding: rows that become equal
        # under the projection may stay physically separate, so no
        # regroup here — the nonlinear boundaries (∸/ε) and the
        # top-level net canonicalize where it matters.  Skipping the
        # GROUP BY keeps the subquery flattenable, which is what lets
        # joins over renamed tables run on the mirror's real indexes
        # instead of per-query automatic ones.  The output is canonical
        # only when the projection is a permutation (injective on rows).
        injective = sorted(positions) == list(range(expr.child.schema().arity))
        return f"SELECT {outs}, mult FROM ({child})", distinct and injective

    if isinstance(expr, MapProject):
        child, _distinct = _compile(expr.child, scan)
        child_schema = expr.child.schema()
        outs = ", ".join(
            f"{_compile_term(term, child_schema)} AS c{index}" for index, term in enumerate(expr.terms)
        )
        # Linear, like Π — computed terms can merge rows, so the output
        # is conservatively non-canonical.
        return f"SELECT {outs}, mult FROM ({child})", False

    if isinstance(expr, DupElim):
        child, _distinct = _compile(expr.child, scan)
        arity = expr.schema().arity
        cols = ", ".join(_cols(arity))
        # Physical duplicates in the child collapse here, and all
        # multiplicities are positive, so every group survives as 1.
        return f"SELECT {cols}, 1 AS mult FROM ({child}) GROUP BY {cols}", True

    if isinstance(expr, UnionAll):
        left, _dl = _compile(expr.left, scan)
        right, _dr = _compile(expr.right, scan)
        # No re-grouping: downstream operators either tolerate duplicate
        # physical rows or canonicalize themselves.
        return f"SELECT * FROM ({left}) UNION ALL SELECT * FROM ({right})", False

    if isinstance(expr, Monus):
        left, left_distinct = _compile(expr.left, scan)
        right, right_distinct = _compile(expr.right, scan)
        arity = expr.schema().arity
        cols = _cols(arity)
        # ∸ subtracts per-row totals, so each side must be canonical;
        # group only the sides that are not already.
        if not left_distinct:
            left = f"SELECT {', '.join(cols)}, SUM(mult) AS mult FROM ({left}) GROUP BY {', '.join(cols)}"
        if not right_distinct:
            right = f"SELECT {', '.join(cols)}, SUM(mult) AS mult FROM ({right}) GROUP BY {', '.join(cols)}"
        join_keys = " AND ".join(f"l.c{index} IS r.c{index}" for index in range(arity))
        out_cols = ", ".join(f"l.c{index} AS c{index}" for index in range(arity))
        return (
            f"SELECT {out_cols}, l.mult - COALESCE(r.mult, 0) AS mult "
            f"FROM ({left}) AS l LEFT JOIN ({right}) AS r ON {join_keys} "
            f"WHERE l.mult - COALESCE(r.mult, 0) > 0"
        ), True

    if isinstance(expr, Product):
        left, left_distinct = _compile(expr.left, scan)
        right, right_distinct = _compile(expr.right, scan)
        left_arity = expr.left.schema().arity
        right_arity = expr.right.schema().arity
        left_cols = ", ".join(f"l.c{index} AS c{index}" for index in range(left_arity))
        right_cols = ", ".join(f"r.c{index} AS c{left_arity + index}" for index in range(right_arity))
        pieces = [piece for piece in (left_cols, right_cols) if piece]
        # Comma join, not CROSS JOIN: the CROSS keyword pins SQLite's
        # join order, while the comma form lets the planner reorder and
        # drive the join from whichever side has an index.
        return (
            f"SELECT {', '.join(pieces)}, l.mult * r.mult AS mult "
            f"FROM ({left}) AS l, ({right}) AS r"
        ), left_distinct and right_distinct

    raise ReproError(f"compile_expr: unknown expression node {type(expr).__name__}")


class SQLiteBackend:
    """Evaluate bag-algebra expressions in SQLite.

    Typical use: mirror a :class:`Database` with :meth:`sync_from`, then
    :meth:`evaluate` arbitrary expressions — or :meth:`cross_check` an
    expression against the in-memory engine.
    """

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._schemas: dict[str, Schema] = {}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> SQLiteBackend:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema | Iterable[str]) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        if name in self._schemas:
            raise SchemaError(f"table {name!r} already exists in the SQLite mirror")
        columns = ", ".join(f"c{index}" for index in range(schema.arity))
        self._conn.execute(f"CREATE TABLE {_mangle(name)} ({columns}, mult INTEGER NOT NULL)")
        self._schemas[name] = schema

    def load(self, name: str, bag: Bag) -> None:
        if name not in self._schemas:
            raise UnknownTableError(f"no such table in SQLite mirror: {name!r}")
        arity = self._schemas[name].arity
        self._conn.execute(f"DELETE FROM {_mangle(name)}")
        placeholders = ", ".join(["?"] * (arity + 1))
        self._conn.executemany(
            f"INSERT INTO {_mangle(name)} VALUES ({placeholders})",
            [(*row, count) for row, count in bag.items()],
        )
        self._conn.commit()

    def sync_from(self, db: Database) -> None:
        """Mirror every table of ``db`` (creating tables on first sync)."""
        for name in db.table_names():
            if name not in self._schemas:
                self.create_table(name, db.schema_of(name))
            self.load(name, db[name])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, expr: Expr) -> Bag:
        """Evaluate ``expr`` against the mirrored tables."""
        sql = compile_expr(expr)
        counts: dict[Row, int] = {}
        for *values, mult in self._conn.execute(sql):
            row = tuple(values)
            counts[row] = counts.get(row, 0) + int(mult)
        return Bag.from_counts(counts)

    def cross_check(self, db: Database, expr: Expr) -> bool:
        """Whether SQLite and the in-memory engine agree on ``expr``."""
        self.sync_from(db)
        return self.evaluate(expr) == db.evaluate(expr)


class SQLiteMirror:
    """An incrementally-maintained SQLite shadow of one database.

    The pushdown executor registers the mirror as a write listener on
    its :class:`~repro.storage.database.Database` at its first
    evaluation or prime.  Tables materialize
    lazily at the first pushdown scan and are then kept *canonical*
    (one physical row per distinct logical row, ``mult > 0``) through
    every write: each ``Bag.patch``-driven write folds its clamped
    per-row net into the stored table with an UPSERT over a unique
    index on the value columns (``INSERT ... ON CONFLICT DO UPDATE SET
    mult = mult + excluded.mult``), then drops the rows the patch drove
    to zero with a targeted delete.  That is O(|delta| · log |table|)
    per write — the index probes the paper charges an indexed
    maintenance strategy — and it means reads never pay a
    base-proportional consolidation step: :meth:`scan_sql` always
    compiles to a plain ``SELECT`` the query flattener can merge into
    the surrounding join, running on the mirror's indexes.

    Rows containing ``NULL`` take a per-row UPDATE-else-INSERT path
    (SQLite unique indexes treat NULLs as distinct, so the UPSERT
    cannot observe those conflicts); ``IS`` comparisons keep the
    matching consistent with Python's ``None == None``.  Zero-arity
    tables (no columns to constrain) take the same path.

    Wholesale replacements (``set_table``, recovery restores, rollback
    restores) mark the table dirty for a lazy full reload — except the
    replace-with-empty fast path (log truncation), which just clears
    the rows and keeps the mirror current.  Python values outside
    SQLite's faithful types (``None``/bool/int/float/str) cannot be
    mirrored; such tables raise :class:`MirrorUnsupported` from
    :meth:`ensure` and the executor falls back to the in-process
    kernels for subtrees that read them.

    One connection is shared across threads (serve workers evaluate
    beside their callers): hold :attr:`lock` around
    every ``ensure`` + ``execute`` pair; the listener methods take it
    internally.
    """

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:", check_same_thread=False, isolation_level=None)
        self._conn.execute("PRAGMA temp_store = MEMORY")
        self.lock = threading.RLock()
        self._schemas: dict[str, Schema] = {}
        self._dirty: set[str] = set()
        self._unsupported: set[str] = set()
        self._index_requests: dict[str, set[tuple[int, ...]]] = {}
        self._conn.execute(
            f"CREATE TABLE {_KEYS_TABLE} (domain TEXT, key, PRIMARY KEY (domain, key)) WITHOUT ROWID"
        )

    def close(self) -> None:
        with self.lock:
            self._conn.close()

    # ------------------------------------------------------------------
    # Write-listener protocol
    # ------------------------------------------------------------------

    def on_patch(self, name: str, delete: Bag, insert: Bag, before: Bag, after: Bag) -> None:
        with self.lock:
            if name in self._dirty or name in self._unsupported:
                return
            if name not in self._schemas:
                try:
                    self._adopt(name, before, after)
                except sqlite3.Error:
                    self._degrade(name)
                    return
                if name not in self._schemas:
                    return
            arity = self._schemas[name].arity
            net: dict[Row, int] = {}
            for row, count in insert.items():
                net[row] = net.get(row, 0) + count
            for row, count in delete.items():
                # Clamp against the pre-patch value (Bag.patch floors at
                # zero copies) so stored mults can never go negative:
                # final = max(0, before - delete) + insert
                #       = before + (insert - min(delete, before)).
                clamped = min(count, before.multiplicity(row))
                if clamped > 0:
                    net[row] = net.get(row, 0) - clamped
            net = {row: delta for row, delta in net.items() if delta != 0}
            if not net:
                return
            if not all(sqlite_supported_value(value) for row in net for value in row):
                self._forget(name)
                self._unsupported.add(name)
                return
            try:
                self._apply_net(name, arity, net)
            except sqlite3.Error:
                self._degrade(name)

    def _degrade(self, name: str) -> None:
        """Contain a backend fault on the listener path.

        The mirror is derived state: a failed incremental fold must
        never surface into the canonical write that triggered it
        (``Database._install`` would roll the whole transaction back for
        a cache's problem).  Mirrored tables fall back to a lazy full
        reload at the next scan; a half-adopted table is dropped
        entirely.  ``InjectedCrash`` is a ``BaseException`` and still
        propagates — containment absorbs backend errors, not simulated
        process deaths.
        """
        if name in self._schemas:
            self._dirty.add(name)
        else:
            try:
                self._forget(name)
            except sqlite3.Error:  # pragma: no cover - DROP TABLE failing too
                self._schemas.pop(name, None)
                self._dirty.discard(name)
        obs.metric_inc("mirror_degraded")

    def _adopt(self, name: str, before: Bag, after: Bag) -> None:
        """Mirror a table at its first write when that costs nothing.

        Tables whose first patch starts from an empty value — the
        maintenance logs above all — can be mirrored eagerly at zero
        load cost; every later write folds in at O(|delta| · log
        |table|), so the first post-write scan (typically the deferred
        refresh) pays no O(table) reload inside its own timed window.
        Tables already holding rows stay lazy: materializing them
        remains the first scan's one-time cost, and tables that are
        only ever written (a view's MV under direct state reads) never
        pay mirror upkeep at all.
        """
        if before:
            return
        sample = next(iter(after.items()), None)
        if sample is None:
            return
        fault_point("flaky-mirror-adopt")
        self._create_table(name, Schema(tuple(f"c{index}" for index in range(len(sample[0])))))

    def _apply_net(self, name: str, arity: int, net: dict[Row, int]) -> None:
        """Fold per-row count deltas into the canonical stored table."""
        fault_point("flaky-mirror-upsert")
        mangled = _mangle(name)
        if arity:
            plain = [(row, delta) for row, delta in net.items() if None not in row]
            manual = [(row, delta) for row, delta in net.items() if None in row]
        else:
            plain, manual = [], list(net.items())
        placeholders = ", ".join(["?"] * (arity + 1))
        if plain:
            conflict = ", ".join(_cols(arity))
            self._conn.executemany(
                f"INSERT INTO {mangled} VALUES ({placeholders}) "
                f"ON CONFLICT({conflict}) DO UPDATE SET mult = mult + excluded.mult",
                [(*row, delta) for row, delta in plain],
            )
        match = " AND ".join(f"c{index} IS ?" for index in range(arity)) or "1 = 1"
        for row, delta in manual:
            cursor = self._conn.execute(
                f"UPDATE {mangled} SET mult = mult + ? WHERE {match}", (delta, *row)
            )
            if cursor.rowcount == 0 and delta > 0:
                self._conn.execute(
                    f"INSERT INTO {mangled} VALUES ({placeholders})",
                    (*row, delta),
                )
        drops = [row for row, delta in net.items() if delta < 0]
        if drops:
            self._conn.executemany(f"DELETE FROM {mangled} WHERE {match} AND mult <= 0", drops)

    def on_replace(self, name: str, bag: Bag) -> None:
        with self.lock:
            self._unsupported.discard(name)
            if name not in self._schemas:
                return
            if not bag:
                # Log truncation: clearing in place is O(rows present)
                # in C and keeps the mirror current — cheaper than a
                # dirty-mark followed by an (empty) reload.
                self._conn.execute(f"DELETE FROM {_mangle(name)}")
                self._dirty.discard(name)
                return
            self._dirty.add(name)

    def on_drop(self, name: str) -> None:
        with self.lock:
            self._unsupported.discard(name)
            if name in self._schemas:
                self._forget(name)

    def _forget(self, name: str) -> None:
        self._conn.execute(f"DROP TABLE IF EXISTS {_mangle(name)}")
        self._schemas.pop(name, None)
        self._dirty.discard(name)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def ensure(self, name: str, schema: Schema, bag: Bag) -> None:
        """Materialize or refresh the mirror of ``name`` before a scan.

        Raises :class:`MirrorUnsupported` when the table's values do not
        round-trip through SQLite.
        """
        with self.lock:
            if name in self._unsupported:
                raise MirrorUnsupported(f"table {name!r} holds values SQLite cannot mirror")
            created = name not in self._schemas
            if created:
                # Dirty until the first reload *succeeds*: if the load
                # below dies transiently (and the caller retries), the
                # empty shell must not pass for current content.
                self._dirty.add(name)
                self._create_table(name, schema)
            if created or name in self._dirty:
                self._reload(name, schema.arity, bag)

    def _create_table(self, name: str, schema: Schema) -> None:
        columns = ", ".join([*(f"c{index}" for index in range(schema.arity)), "mult INTEGER NOT NULL"])
        self._conn.execute(f"CREATE TABLE {_mangle(name)} ({columns})")
        if schema.arity:
            # The UPSERT target: canonical tables have exactly one
            # physical row per distinct value tuple.
            cols = ", ".join(_cols(schema.arity))
            self._conn.execute(
                f"CREATE UNIQUE INDEX {_mangle('__mirror_pk__' + name)} "
                f"ON {_mangle(name)} ({cols})"
            )
        self._schemas[name] = schema
        for positions in self._index_requests.get(name, ()):
            self._create_index(name, positions)

    def _reload(self, name: str, arity: int, bag: Bag) -> None:
        fault_point("flaky-mirror-reload")
        rows = []
        for row, count in bag.items():
            if not all(sqlite_supported_value(value) for value in row):
                self._forget(name)
                self._unsupported.add(name)
                raise MirrorUnsupported(f"table {name!r} holds values SQLite cannot mirror")
            rows.append((*row, count))
        mangled = _mangle(name)
        self._conn.execute(f"DELETE FROM {mangled}")
        placeholders = ", ".join(["?"] * (arity + 1))
        self._conn.executemany(f"INSERT INTO {mangled} VALUES ({placeholders})", rows)
        self._dirty.discard(name)

    def scan_sql(self, name: str, arity: int) -> str:
        """The ``scan`` hook for :func:`compile_expr`.

        Stored tables are canonical by construction (UPSERT-maintained
        writes), so a scan is a plain ``SELECT`` the query flattener
        can merge into the surrounding join — pushed-down equi-joins
        then probe the mirror's b-tree indexes instead of
        re-materializing a netting subquery per scan.
        """
        cols = ", ".join(_cols(arity))
        return f"SELECT {cols}, mult FROM {_mangle(name)}"

    def bind_keys(self, keys: Mapping[str, Iterable]) -> None:
        """Load one call's key binding for the key-restricted leaves of
        the query about to run (hold :attr:`lock` across bind + execute).

        Raises :class:`MirrorUnsupported` for a key ``IN`` cannot match
        the way the in-memory index does (``NULL``, exotic values).
        """
        rows = [(domain, key) for domain, bound in keys.items() for key in bound]
        if any(key is None or not sqlite_supported_value(key) for _domain, key in rows):
            raise MirrorUnsupported("a bound key does not compare inside SQLite")
        self._conn.execute(f"DELETE FROM {_KEYS_TABLE}")
        self._conn.executemany(f"INSERT OR IGNORE INTO {_KEYS_TABLE} VALUES (?, ?)", rows)

    def bind_bags(self, bags: Mapping[Bound, Bag]) -> None:
        """Load one call's bags for the bound leaves of the query about to
        run, one temporary table per leaf (hold :attr:`lock` across bind +
        execute).

        Raises :class:`MirrorUnsupported` for a value SQLite cannot hold.
        """
        for leaf, bag in bags.items():
            if not all(sqlite_supported_value(value) for row, _count in bag.items() for value in row):
                raise MirrorUnsupported(f"the bag bound to {leaf.name!r} holds a value SQLite cannot hold")
            table = _bound_table(leaf)
            arity = leaf.bound_schema.arity
            self._conn.execute(f"CREATE TEMP TABLE IF NOT EXISTS {table} ({', '.join(_cols(arity))}, mult)")
            self._conn.execute(f"DELETE FROM {table}")
            self._conn.executemany(
                f"INSERT INTO {table} VALUES ({', '.join(['?'] * (arity + 1))})",
                [(*row, count) for row, count in bag.items()],
            )

    def request_index(self, name: str, positions: tuple[int, ...]) -> None:
        """Index the mirrored key columns, now or at materialization."""
        if not positions:
            return
        with self.lock:
            requested = self._index_requests.setdefault(name, set())
            if positions in requested:
                return
            requested.add(positions)
            if name in self._schemas:
                try:
                    self._create_index(name, positions)
                except sqlite3.Error:
                    # Indexes are an optimization: keep the request
                    # queued — :meth:`resync` retries it — and let the
                    # scan run unindexed meanwhile.
                    obs.metric_inc("mirror_degraded")

    def _create_index(self, name: str, positions: tuple[int, ...]) -> None:
        fault_point("flaky-index-create")
        label = _mangle(f"__mirror_idx__{name}__{'_'.join(map(str, positions))}")
        cols = ", ".join(f"c{position}" for position in positions)
        self._conn.execute(f"CREATE INDEX IF NOT EXISTS {label} ON {_mangle(name)} ({cols})")

    def execute(self, sql: str, params: Mapping[str, Any] | None = None) -> list[tuple]:
        """Run a compiled query (hold :attr:`lock` across ensure+execute)."""
        return self._conn.execute(sql, params or {}).fetchall()

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------

    def mirrored_tables(self) -> tuple[str, ...]:
        """The names this mirror currently materializes (sorted)."""
        with self.lock:
            return tuple(sorted(self._schemas))

    def to_bag(self, name: str) -> Bag:
        """The logical content of a mirrored table, netted into a bag."""
        with self.lock:
            if name not in self._schemas:
                raise UnknownTableError(f"no such table in SQLite mirror: {name!r}")
            cols = ", ".join([*_cols(self._schemas[name].arity), "mult"])
            rows = self._conn.execute(f"SELECT {cols} FROM {_mangle(name)}").fetchall()
        counts: dict[Row, int] = {}
        for *values, mult in rows:
            row = tuple(values)
            counts[row] = counts.get(row, 0) + int(mult)
        return Bag.from_counts(counts)

    def table_digest(self, name: str) -> str | None:
        """Digest of the stored rows, or ``None`` when absent or dirty.

        Dirty tables are *self-known* stale (a pending lazy reload), so
        there is no point hashing them — resync reloads them regardless.
        """
        with self.lock:
            if name not in self._schemas or name in self._dirty:
                return None
            cols = ", ".join([*_cols(self._schemas[name].arity), "mult"])
            rows = self._conn.execute(f"SELECT {cols} FROM {_mangle(name)}").fetchall()
        return mirror_digest((tuple(values), int(mult)) for *values, mult in rows)

    def divergent_tables(self, db: Database) -> list[str]:
        """Mirrored tables whose stored rows no longer match ``db``.

        Compares :func:`mirror_digest` of each *clean* mirrored table
        against the canonical content (dirty tables are already queued
        for reload and are not re-hashed; tables ``db`` has dropped
        count as divergent).  An empty result means every scan the
        pushdown engine could run would read exactly the canonical
        state.
        """
        diverged = []
        for name in self.mirrored_tables():
            with self.lock:
                if name in self._dirty:
                    continue
            if name not in db.table_names():
                diverged.append(name)
                continue
            if self.table_digest(name) != mirror_digest(db[name]):
                diverged.append(name)
        return diverged

    def resync(self, db: Database, names: Iterable[str] | None = None) -> list[str]:
        """Targeted repair: reload exactly the tables that need it.

        With ``names`` omitted, the targets are the divergent tables
        plus the dirty ones — everything else is left untouched, so a
        single corrupted table heals in O(|that table|), not O(DB).
        Dropped tables are forgotten, queued index requests are retried
        (a contained ``flaky-index-create`` leaves them pending), and
        tables whose values stopped round-tripping fall to the
        :class:`MirrorUnsupported` per-table fallback as usual.  Returns
        the sorted list of healed tables.
        """
        with self.lock:
            if names is None:
                targets = set(self.divergent_tables(db))
                targets.update(name for name in self._dirty if name in self._schemas)
            else:
                targets = {name for name in names if name in self._schemas}
            healed = []
            for name in sorted(targets):
                if name not in db.table_names():
                    self._forget(name)
                    self._index_requests.pop(name, None)
                    healed.append(name)
                    continue
                schema = db.schema_of(name)
                try:
                    self._reload(name, schema.arity, db[name])
                except MirrorUnsupported:
                    # _reload already forgot the table and recorded it
                    # unsupported; the executor's per-table fallback
                    # takes over from here.
                    continue
                for positions in self._index_requests.get(name, ()):
                    self._create_index(name, positions)
                healed.append(name)
            if healed:
                obs.metric_inc("mirror_resyncs", len(healed))
        return healed

    # ------------------------------------------------------------------
    # Introspection (tests)
    # ------------------------------------------------------------------

    def physical_rows(self, name: str) -> int:
        """Physical rows stored for ``name`` (canonical: one per distinct row)."""
        with self.lock:
            if name not in self._schemas:
                return 0
            (count,) = self._conn.execute(f"SELECT COUNT(*) FROM {_mangle(name)}").fetchone()
            return int(count)

    def is_mirrored(self, name: str) -> bool:
        """Whether ``name`` is materialized and current (not dirty)."""
        return name in self._schemas and name not in self._dirty
