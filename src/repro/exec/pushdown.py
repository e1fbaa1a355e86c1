"""Whole-plan SQL pushdown (``exec_mode="sqlite"``).

The :class:`PushdownExecutor` compiles *pushable* bag-algebra subtrees
to single SQLite ``SELECT`` statements (:func:`repro.storage.sqlite_backend.compile_expr`)
and runs them against an incrementally-maintained
:class:`~repro.storage.sqlite_backend.SQLiteMirror` of the database —
joins, grouping, and multiplicity arithmetic then execute in SQLite's
C engine instead of the Python interpreter.

Pushability is *structural* and cached per expression:

* every node in the subtree must produce arity > 0 (SQL has no
  zero-column rows — the paper's boolean-flag bags stay in-process);
* ``Literal`` bags and predicate/term constants must hold only values
  SQLite round-trips faithfully (``None``/bool/int/float/str);
* all seven core operators (and ``MapProject``) are pushable when
  their children are.

A non-pushable node falls back *per subtree*: its maximal pushable
descendants are evaluated in SQL, substituted back into the tree as
``Literal`` results, and the remaining top of the tree runs as a
compiled plan (the executor IS an
:class:`~repro.exec.executor.Executor`, so the fallback is
``PNode.execute`` over its one plan table and the database's maintained
hash indexes).  Tables whose *values* turn out not to mirror raise
:class:`~repro.storage.sqlite_backend.MirrorUnsupported` at scan time
and the whole subtree falls back the same way.  So does a subtree whose
SQL nests deeper than SQLite's parser stack accepts (a long chain of
nested delta terms): SQLite refuses the statement before running
anything, the verdict is remembered as "not pushable", and the push
moves down to its shallower subtrees.

Results are memoized per expression under the same per-table version
stamps the compiled engine uses, so an unchanged expression — the
common case across deferred-refresh rounds — re-evaluates in O(1)
without touching SQLite at all.

A key-restricted leaf (partition pruning) is pushable: its SQL text is
fixed at compile time and reads the call's key binding from a table the
mirror loads just before the statement runs, so the pruned refresh pair
compiles once; the binding joins the version stamps in the result memo.
A bound leaf (a prepared script's rows, a shared log's tags, an epoch's
delta) is pushable the same way: its SQL reads a temporary table the
mirror loads with the call's bag just before the statement runs
(``SQLiteMirror.bind_bags``), so the statement text is one per
expression shape, never one per bag.  A parameter (a prepared
statement's literal) is a named SQL parameter: the statement text is
one per shape and the call's value is passed with each execution.

The mirror is a live SQLite connection, and a live connection can refuse
service (``database is locked``, ``disk I/O error``).  A backend error
never reaches the caller: the mirror is derived state, and the compiled
plans over the same executor answer every expression without it.

1. Each push (mirror ``ensure`` + ``execute``) runs under the shared
   :data:`~repro.storage.persistence.RETRY_POLICY`: transient errors are
   retried with jittered backoff.
2. When retries run out, or on a permanent ``sqlite3.Error``, the
   executor **trips its breaker** (``engine_demotions``) and answers the
   whole expression with the compiled plans (``Executor.evaluate``).
3. While the breaker is open, nothing is pushed for :attr:`COOLDOWN_OPS`
   evaluations — no retry storm against a backend that is down.
4. Then the breaker is half-open and the next evaluation is a probe: the
   compiled answer is computed first (it is what the caller gets), the
   mirror is resynced, the expression is pushed again, and only a
   :func:`~repro.storage.sqlite_backend.mirror_digest` match closes the
   breaker (``engine_repromotions``; else ``pushdown_probe_failures``).

``ReproError`` (an unknown table, a missing key binding) and
:class:`~repro.robustness.faults.InjectedCrash` propagate untouched.
Every evaluation the compiled plans answer in SQLite's place counts as
``pushdown_fallbacks{reason=…}`` under telemetry: ``mirror_unsupported``,
``too_deep``, ``backend_error`` or ``breaker_open``.
"""

from __future__ import annotations

import random
import sqlite3
from time import sleep

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter, bound_bag
from repro.algebra.expr import (
    Bound,
    DupElim,
    Expr,
    KeyRestrict,
    Literal,
    MapProject,
    Monus,
    Product,
    Project,
    Select,
    TableRef,
    UnionAll,
    open_params,
    split_parameters,
)
from repro.algebra.predicates import (
    And,
    Arith,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    Term,
)
from repro.errors import ReproError, UnknownTableError
from repro.exec.executor import ExecutionContext, Executor, binding_stamp
from repro.robustness.faults import fault_point
from repro.storage.persistence import RETRY_POLICY
from repro.storage.sqlite_backend import (
    MirrorUnsupported,
    SQLiteMirror,
    compile_expr,
    mirror_digest,
    sql_params,
    sqlite_supported_value,
)

__all__ = ["PushdownExecutor"]

#: Breaker states: push, skip pushing, probe at the next evaluation.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class _TooDeep(Exception):
    """SQLite's parser refused a pushed statement as nested too deeply."""


def _count_fallback(reason: str) -> None:
    if obs.telemetry_enabled():
        obs.metric_inc(f'pushdown_fallbacks{{reason="{reason}"}}')


def _term_consts_supported(term: Term) -> bool:
    if isinstance(term, Const):
        return sqlite_supported_value(term.value)
    if isinstance(term, Arith):
        return _term_consts_supported(term.left) and _term_consts_supported(term.right)
    return True  # Attr


def _predicate_consts_supported(predicate: Predicate) -> bool:
    if isinstance(predicate, Comparison):
        return _term_consts_supported(predicate.left) and _term_consts_supported(predicate.right)
    if isinstance(predicate, (And, Or)):
        return _predicate_consts_supported(predicate.left) and _predicate_consts_supported(predicate.right)
    if isinstance(predicate, Not):
        return _predicate_consts_supported(predicate.operand)
    return True  # TruePredicate


def _rebuild(expr: Expr, children: tuple[Expr, ...]) -> Expr:
    """Reconstruct ``expr`` with new children (same node type/attributes)."""
    if isinstance(expr, Select):
        return Select(expr.predicate, children[0])
    if isinstance(expr, Project):
        return Project(expr.attrs, children[0], expr.names)
    if isinstance(expr, MapProject):
        return MapProject(expr.terms, children[0], expr.names)
    if isinstance(expr, DupElim):
        return DupElim(children[0])
    if isinstance(expr, UnionAll):
        return UnionAll(children[0], children[1])
    if isinstance(expr, Monus):
        return Monus(children[0], children[1])
    if isinstance(expr, Product):
        return Product(children[0], children[1])
    raise ReproError(f"pushdown: cannot rebuild node {type(expr).__name__}")


class PushdownExecutor(Executor):
    """Evaluate expressions by pushing pushable subtrees into SQLite."""

    #: Evaluations an open breaker answers without pushing before it
    #: probes.  Counted in operations, not wall time, so chaos tests are
    #: deterministic and an idle warehouse never probes behind the
    #: client's back.
    COOLDOWN_OPS = 32

    def __init__(self, database) -> None:
        super().__init__(database)
        self._mirror = SQLiteMirror()
        database.add_write_listener(self._mirror)
        #: expr -> structural pushability verdict (content-independent).
        self._pushable_memo: dict[Expr, bool] = {}
        #: expr -> (compiled SQL text, the key domains, the parameters and
        #: the bound leaves it reads off the call's binding); table
        #: names/arities are stable.
        self._sql_cache: dict[Expr, tuple[str, tuple[str, ...], tuple[str, ...], tuple[Bound, ...]]] = {}
        #: expr -> [stamp, bag]; stamp spans the expr's table versions.
        self._result_memo: dict[Expr, list] = {}
        #: The push-down breaker (``closed`` / ``open`` / ``half-open``)
        #: and how often a backend error tripped it; both change only
        #: under the mirror's lock, since group leaders evaluate
        #: concurrently.
        self.breaker = CLOSED
        self.trips = 0
        self._cooldown = 0
        # One jitter source for the executor's lifetime: a fresh
        # OS-seeded Random per push would put an entropy syscall on the
        # happy path of every query.
        self._rng = random.Random()

    @property
    def mirror(self) -> SQLiteMirror:
        """The SQLite shadow database (exposed for tests/diagnostics)."""
        return self._mirror

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def evaluate(self, expr: Expr, *, counter: CostCounter | None = None, binding=None) -> Bag:
        # The memo is keyed by the query as given: a prepared query's
        # values keep one result each, however its reads interleave.
        key = expr
        expr, binding = split_parameters(expr, binding)
        database = self._database
        stamp = tuple(database.version_of(name) for name in sorted(expr.tables()))
        if binding is not None:
            stamp = (*stamp, binding_stamp(binding))
        entry = self._result_memo.get(key)
        if entry is not None and entry[0] == stamp:
            if counter is not None:
                counter.memo_hits += 1
            return entry[1]
        if len(self._result_memo) > self.MAX_NODES:
            self._result_memo.clear()
        bag = self._eval(expr, counter, binding)
        self._result_memo[key] = [stamp, bag]
        return bag

    def _eval(self, expr: Expr, counter: CostCounter | None, binding) -> Bag:
        gate = self.breaker
        if gate != CLOSED:
            with self._mirror.lock:
                gate = self._gate()
        if gate == OPEN:
            _count_fallback("breaker_open")
            return super().evaluate(expr, counter=counter, binding=binding)
        if gate == HALF_OPEN:
            return self._probe(expr, counter, binding)
        try:
            return self._push(expr, counter, binding)
        except sqlite3.Error as exc:
            with self._mirror.lock:
                self.trips += 1
                self._open()
                obs.metric_inc("engine_demotions")
            _count_fallback("backend_error")
            with obs.span("engine_demotion", error=type(exc).__name__):
                pass
            return super().evaluate(expr, counter=counter, binding=binding)

    def _push(self, expr: Expr, counter: CostCounter | None, binding) -> Bag:
        if self._is_pushable(expr):
            try:
                return self._sql_eval(expr, counter, binding)
            except MirrorUnsupported:
                _count_fallback("mirror_unsupported")
                return super().evaluate(expr, counter=counter, binding=binding)
            except _TooDeep:
                _count_fallback("too_deep")
        rewritten = self._push_maximal(expr, counter, binding)
        return super().evaluate(rewritten, counter=counter, binding=binding)

    # ------------------------------------------------------------------
    # The breaker (callers hold the mirror's lock)
    # ------------------------------------------------------------------

    def _gate(self) -> str:
        """Gate one evaluation: the state it runs under (``closed`` =
        push, ``open`` = skip, ``half-open`` = probe)."""
        if self.breaker == OPEN:
            self._cooldown -= 1
            if self._cooldown <= 0:
                self.breaker = HALF_OPEN
        return self.breaker

    def _open(self) -> None:
        self.breaker = OPEN
        self._cooldown = self.COOLDOWN_OPS

    def _probe(self, expr: Expr, counter: CostCounter | None, binding) -> Bag:
        """The half-open cross-check: answer compiled, heal, push, compare.

        The compiled answer is computed first, so whatever the probe
        does, the caller gets it.  Digests go through
        :func:`~repro.storage.sqlite_backend.mirror_digest`, so SQLite's
        bool→int round trip cannot fake a divergence.
        """
        reference = super().evaluate(expr, counter=counter, binding=binding)
        try:
            with obs.span("pushdown_probe"):
                fault_point("flaky-pushdown-probe")
                self._mirror.resync(self._database)
                healed = mirror_digest(self._push(expr, counter, binding)) == mirror_digest(reference)
        except sqlite3.Error:
            healed = False
        with self._mirror.lock:
            if healed:
                self.breaker = CLOSED
            else:
                self._open()
        obs.metric_inc("engine_repromotions" if healed else "pushdown_probe_failures")
        return reference

    # ------------------------------------------------------------------
    # Pushability analysis
    # ------------------------------------------------------------------

    def _is_pushable(self, expr: Expr) -> bool:
        cached = self._pushable_memo.get(expr)
        if cached is None:
            cached = self._compute_pushable(expr)
            if len(self._pushable_memo) > self.MAX_NODES:
                self._pushable_memo.clear()
            self._pushable_memo[expr] = cached
        return cached

    def _compute_pushable(self, expr: Expr) -> bool:
        if isinstance(expr, (TableRef, KeyRestrict, Bound)):
            return expr.schema().arity > 0
        if isinstance(expr, Literal):
            return expr.literal_schema.arity > 0 and all(
                sqlite_supported_value(value) for row, _count in expr.bag.items() for value in row
            )
        if isinstance(expr, Select):
            return _predicate_consts_supported(expr.predicate) and self._is_pushable(expr.child)
        if isinstance(expr, MapProject):
            return all(_term_consts_supported(term) for term in expr.terms) and self._is_pushable(
                expr.child
            )
        if isinstance(expr, Project):
            return bool(expr.attrs) and self._is_pushable(expr.child)
        if isinstance(expr, DupElim):
            return self._is_pushable(expr.child)
        if isinstance(expr, (UnionAll, Monus, Product)):
            return self._is_pushable(expr.left) and self._is_pushable(expr.right)
        return False

    # ------------------------------------------------------------------
    # SQL evaluation + per-subtree fallback
    # ------------------------------------------------------------------

    def _sql_eval(self, expr: Expr, counter: CostCounter | None, binding=None) -> Bag:
        """Evaluate a pushable ``expr`` entirely inside SQLite, retrying
        transient backend errors under the shared policy."""
        rows = RETRY_POLICY.run(
            lambda: self._sql_rows(expr, counter, binding), sleep=sleep, rng=self._rng
        )
        counts: dict[Row, int] = {}
        for *values, mult in rows:
            row = tuple(values)
            counts[row] = counts.get(row, 0) + int(mult)
        if counter is not None:
            counter.record("pushdown", len(rows))
        return Bag.from_counts(counts)

    def _sql_rows(self, expr: Expr, counter: CostCounter | None, binding) -> list[tuple]:
        mirror = self._mirror
        database = self._database
        state = database.state
        with mirror.lock:
            for name in expr.tables():
                try:
                    bag = state[name]
                except KeyError:
                    raise UnknownTableError(
                        f"table {name!r} is not present in the database state"
                    ) from None
                mirror.ensure(name, database.schema_of(name), bag)
            compiled = self._sql_cache.get(expr)
            if compiled is None:
                if counter is not None:
                    counter.plan_misses += 1
                if len(self._sql_cache) > self.MAX_NODES:
                    self._sql_cache.clear()
                domains = tuple(
                    sorted({node.domain for node in expr.walk() if isinstance(node, KeyRestrict)})
                )
                leaves = tuple({node: None for node in expr.walk() if isinstance(node, Bound)})
                sql = compile_expr(expr, scan=mirror.scan_sql, net=True)
                compiled = sql, domains, open_params(expr), leaves
                self._sql_cache[expr] = compiled
            elif counter is not None:
                counter.plan_hits += 1
            sql, domains, names, leaves = compiled
            if domains:
                if binding is None:
                    raise ReproError("a key-restricted leaf was evaluated without a key binding")
                mirror.bind_keys({domain: binding.get(domain, ()) for domain in domains})
            if leaves:
                mirror.bind_bags({leaf: bound_bag(leaf, binding) for leaf in leaves})
            params = sql_params(binding, names)
            fault_point("flaky-pushdown-execute")
            try:
                return mirror.execute(sql, params)
            except sqlite3.OperationalError as exc:
                if "parser stack overflow" not in str(exc):
                    raise
                # Refused while parsing, before anything ran: the subtree
                # is not pushable, whatever its operators say.
                self._pushable_memo[expr] = False
                self._sql_cache.pop(expr, None)
                raise _TooDeep from exc

    def _push_maximal(self, expr: Expr, counter: CostCounter | None, binding=None) -> Expr:
        """Replace each maximal pushable subtree with its SQL result.

        The rewritten tree's remaining operators run as a compiled
        plan; a subtree whose tables fail to mirror is left in place
        (the plan reads the in-memory state directly), one too deep for
        SQLite's parser is pushed a level further down.
        """
        if self._is_pushable(expr):
            try:
                return Literal(self._sql_eval(expr, counter, binding), expr.schema())
            except MirrorUnsupported:
                _count_fallback("mirror_unsupported")
                return expr
            except _TooDeep:
                _count_fallback("too_deep")
        children = expr.children()
        if not children:
            return expr
        rewritten = tuple(self._push_maximal(child, counter, binding) for child in children)
        if all(new is old for new, old in zip(rewritten, children)):
            return expr
        return _rebuild(expr, rewritten)

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------

    def _build_index(self, ctx: ExecutionContext, table: str, positions: tuple[int, ...]) -> None:
        # Hash indexes serve the compiled fallback path; the mirror
        # additionally indexes the same key columns so pushed-down
        # equi-joins use them inside SQLite.
        super()._build_index(ctx, table, positions)
        self._mirror.request_index(table, positions)
