"""The compiled-plan executor: plan cache + version-stamped result reuse.

An :class:`Executor` belongs to one :class:`~repro.storage.database.Database`.
It keeps a single table mapping expressions (by structural equality) to
physical plan nodes, so

* the *plan* for a view's query, its differential Del/Add rewrites, or a
  policy's refresh expression is compiled exactly once and reused across
  transactions (``plan_hits`` / ``plan_misses`` on the cost counter), and
* structurally shared *subexpressions* — within one plan or across plans
  of different views — resolve to the same node object, whose memoized
  result is reused across ``evaluate`` calls as long as the version
  stamps of the tables it reads are unchanged (``memo_hits``).

The stamps come from the database's monotonic per-table version clock,
bumped on every write, which is what makes cross-call reuse safe where
the interpreted evaluator's per-call memo is not (see the warning on
:func:`repro.algebra.evaluation.evaluate`).
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter, bound_bag
from repro.algebra.expr import Bound, Expr, Literal, split_parameters
from repro.algebra.predicates import PARAMS, param_value
from repro.errors import ReproError, UnknownTableError
from repro.exec.compiler import CHARGED, Compiler, PEquiJoin, PIndexSelect, PLiteral, PNode, PPipeline, charge_bound

__all__ = ["ExecutionContext", "Executor", "binding_stamp", "execute", "plan_for"]


def binding_stamp(binding: Mapping[str, Collection] | None) -> tuple | None:
    """A call's whole binding as a value a result memo can be stamped with
    (two stamps compare equal exactly when they bind equal sets, bags and
    parameter values of equal types — ``1`` is not ``1.0``)."""
    if binding is None:
        return None
    return tuple((name, type(binding[name]), binding[name]) for name in sorted(binding))


class ExecutionContext:
    """Per-call view of the database handed to physical operators.

    ``binding`` is what the caller supplies for this call only: domain →
    the key set ``K`` its key-restricted leaves
    (:class:`~repro.algebra.expr.KeyRestrict`) select by, name → the
    bag of each bound leaf (:class:`~repro.algebra.expr.Bound`), and
    ``?i`` → the value of each parameter
    (:class:`~repro.algebra.predicates.Param`); ``None`` for the ordinary
    call that has none of these.
    """

    __slots__ = ("state", "counter", "indexes", "_version_of", "_binding")

    def __init__(
        self,
        state: Mapping[str, Bag],
        counter: CostCounter | None,
        indexes,
        version_of,
        binding: Mapping[str, Collection] | None = None,
    ) -> None:
        self.state = state
        self.counter = counter
        self.indexes = indexes
        self._version_of = version_of
        self._binding = binding

    def stamp_for(self, node: PNode) -> tuple:
        """The memo stamp of ``node``: its input tables' current versions,
        and what the call binds to the restricted and bound leaves below
        it (the same table version answers differently under another
        ``K``, another bag, another parameter value; equal sets and bags
        compare equal, values only with equal types).  Only those
        entries: two calls that differ elsewhere share the result."""
        version_of = self._version_of
        stamp = tuple(version_of(name) for name in node.tables)
        if node.binds:
            binding = self._binding
            if binding is None:
                return (*stamp, None)
            bound = tuple(binding.get(name) for name in node.binds)
            return (*stamp, bound, tuple(map(type, bound)))
        return stamp

    def keys_of(self, domain: str) -> Collection:
        """The key set bound to ``domain`` for this call."""
        if self._binding is None:
            raise ReproError(
                f"a leaf restricted to the keys of domain {domain!r} was evaluated "
                "without a key binding (pass binding= to evaluate)"
            )
        return self._binding.get(domain, ())

    def param(self, name: str):
        """The value this call binds to parameter ``name`` (coded error when none)."""
        return param_value(self._binding, name)

    def bound(self, leaf: Bound) -> Bag:
        """The bag this call binds to ``leaf`` (coded error when it binds none)."""
        return bound_bag(leaf, self._binding)

    def admit(self, node: PNode) -> PNode:
        """``node``, once every bound leaf below it is held against this
        call's binding — before anything executes."""
        for leaf in node.leaves:
            bound_bag(leaf, self._binding)
        return node

    def table(self, name: str) -> Bag:
        """The stored table ``name`` as of this call."""
        try:
            return self.state[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} is not present in the database state") from None


class Executor:
    """Compiles expressions for one database and runs the physical plans."""

    #: Cached-node ceiling; a table past it is cleared wholesale, every
    #: primed maintenance plan with it (``plan_table_clears``).  A prepared
    #: statement binds its literals, so a workload's table stops growing
    #: once it has seen its shapes; what still adds nodes per call is a
    #: bare ``Literal`` — a transaction built from literal rows, a pushed
    #: subtree's result — and a client sending ever new statement shapes.
    MAX_NODES = 16384

    reference = False

    def __init__(self, database) -> None:
        self._database = database
        self._nodes: dict[Expr, PNode] = {}

    # -- introspection -------------------------------------------------

    def describe(self) -> str:
        return "compiled"

    @property
    def cached_plans(self) -> int:
        return len(self._nodes)

    def node_for(self, expr: Expr) -> PNode | None:
        """The cached physical node for ``expr``, if compiled (for tests);
        a prepared query's is its template's."""
        return self._nodes.get(split_parameters(expr, None)[0])

    def footprint(self, expr: Expr) -> frozenset[str]:
        """The set of stored tables the compiled plan for ``expr`` reads.

        Every physical node carries the input tables its memo guard
        stamps, so the root node's table set *is* the plan's read
        footprint — including tables the compiler's simplifications kept
        and excluding none.  The effect analyzer
        (:mod:`repro.analysis.effects`) uses this as the inferred read
        set of maintenance operations.  Compiling is side-effect-free,
        so calling this never changes execution behavior.
        """
        node = self._nodes.get(expr)
        if node is None:
            _make_room(self._nodes)
            node = Compiler(self._nodes).compile(expr)
        return frozenset(node.tables)

    # -- execution -----------------------------------------------------

    def evaluate(
        self,
        expr: Expr,
        *,
        counter: CostCounter | None = None,
        binding: Mapping[str, Collection] | None = None,
    ) -> Bag:
        """Evaluate ``expr`` against the database's current state.

        A bare :class:`~repro.algebra.expr.Bound` leaf — an apply step's
        already computed bag — is answered straight from the binding,
        with the checks and the ``literal`` charge of its plan node.
        """
        if type(expr) is Bound:
            bag = bound_bag(expr, binding)
            charge_bound(counter, expr, bag)
            return bag
        expr, binding = split_parameters(expr, binding)
        ctx = self._context(counter, binding)
        return execute(ctx.admit(plan_for(self._nodes, expr, counter)), ctx, binding)

    def batch(self, *, counter: CostCounter | None = None, binding=None) -> Callable[[Expr], Bag]:
        """:meth:`evaluate` over one state and binding (one ``Database.apply``).

        The version-stamped memo shares plan work across the calls, and
        each bound bag is charged its ``literal`` once (a base patch and
        a log extension both reading one ``$values``;
        :data:`~repro.exec.compiler.CHARGED`).
        """
        charged: set[str] = set()

        def run(expr: Expr) -> Bag:
            token = CHARGED.set(charged)
            try:
                return self.evaluate(expr, counter=counter, binding=binding)
            finally:
                CHARGED.reset(token)

        return run

    def heal(self) -> list[str]:
        return []

    def prime(self, expr: Expr, *, counter: CostCounter | None = None) -> PNode:
        """Compile ``expr`` now and pre-build the indexes its plan can use.

        Scenarios call this at install time, while log tables are still
        empty, so the one-time ``index_build`` scans are free and all
        later maintenance flows incrementally through ``Bag.patch``
        writes — refreshes then find current indexes and pay only probes.
        """
        node = self._nodes.get(expr)
        if node is None:
            node = Compiler(self._nodes).compile(expr)
        ctx = self._context(counter)
        seen: set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            stack.extend(current.children())
            if isinstance(current, PIndexSelect):
                table = current.access.table
                positions = ctx.indexes.covering(table, current.key_positions, ctx.state.get(table))
                self._build_index(ctx, table, positions or current.key_positions)
            elif isinstance(current, PPipeline):
                leaf = current.access.restrict
                if leaf is not None:
                    self._build_index(ctx, current.access.table, (leaf.position,))
            elif isinstance(current, PEquiJoin):
                # Bare chains and ``chain(R) ∸ D`` operands alike.
                for side in (current.left, current.right):
                    if side.indexable:
                        self._build_index(ctx, side.access.table, side.base_key_positions)
        return node

    def _build_index(self, ctx: ExecutionContext, table: str, positions: tuple[int, ...]) -> None:
        base = ctx.state.get(table)
        if base is not None:
            ctx.indexes.get(table, positions, base, counter=ctx.counter)

    def _context(self, counter: CostCounter | None, binding=None) -> ExecutionContext:
        database = self._database
        return ExecutionContext(database.state, counter, database.indexes, database.version_of, binding)


def execute(plan: PNode, ctx: ExecutionContext, binding: Mapping | None) -> Bag:
    """Run ``plan`` with the call's ``binding`` published to the row
    functions of its parameters (:data:`~repro.algebra.predicates.PARAMS`)."""
    if binding is None:
        return plan.execute(ctx)
    token = PARAMS.set(binding)
    try:
        return plan.execute(ctx)
    finally:
        PARAMS.reset(token)


def _make_room(nodes: dict[Expr, PNode]) -> None:
    """Clear a node table past :attr:`Executor.MAX_NODES` (a counted event)."""
    if len(nodes) > Executor.MAX_NODES:
        nodes.clear()
        if obs.telemetry_enabled():
            obs.metric_inc("plan_table_clears")


def plan_for(nodes: dict[Expr, PNode], expr: Expr, counter: CostCounter | None) -> PNode:
    """The physical plan for ``expr`` out of the node table ``nodes``.

    Compiled into the table on a miss (``plan_hits`` / ``plan_misses``
    on the counter); a table past ``MAX_NODES`` is dropped first.  A
    node's memo is guarded by version stamps, which compare only within
    one database: a table is owned by whoever evaluates against that
    database — its :class:`Executor`, or the snapshot registry pinning
    it — and never shared across two.

    A bare literal (a transaction's literal rows) has nothing to lower:
    new, it is not a miss and never reaches the compiler.  Its node
    still lives in the table, because the same transaction's
    log-extension plan holds the same literal as an operand and the two
    must share one memo (one ``literal`` charge).
    """
    node = nodes.get(expr)
    if node is not None:
        if counter is not None:
            counter.plan_hits += 1
        return node
    _make_room(nodes)
    if isinstance(expr, Literal):
        node = nodes[expr] = PLiteral(expr.bag)
        return node
    if counter is not None:
        counter.plan_misses += 1
    if obs.telemetry_enabled():
        with obs.span("plan_compile", tables=",".join(sorted(expr.tables()))):
            node = Compiler(nodes).compile(expr)
        obs.metric_inc("plan_compiles")
        return node
    return Compiler(nodes).compile(expr)
