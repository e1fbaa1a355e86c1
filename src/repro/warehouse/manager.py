"""The user-facing view manager.

:class:`ViewManager` is the API a downstream application uses:

* create and load base tables;
* define materialized views from SQL (or a prebuilt
  :class:`~repro.core.views.ViewDefinition`), picking a maintenance
  scenario per view;
* run transactions through a fluent builder — the manager extends each
  transaction with *all* maintenance work required by *all* registered
  views, executed as one simultaneous transaction (the paper's
  ``makesafe`` transformation);
* refresh, propagate, and query views, with downtime and cost
  accounting available on :attr:`ViewManager.ledger` and
  :attr:`ViewManager.counter` — or hand :meth:`ViewManager.run` a
  reified :class:`~repro.core.ops.MaintenanceAction`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr
from repro.core.ops import MaintenanceAction
from repro.core.plan import MaintenancePlan
from repro.core.policies import MaintenanceDriver, MaintenancePolicy
from repro.core.scenarios import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
    Scenario,
)
from repro.core.transactions import UserTransaction
from repro.extensions.aggregates import AggregateScenario
from repro.extensions.sharedlog import SharedLogScenario, SharedLogView
from repro.core.views import ViewDefinition
from repro.errors import PolicyError, SchemaError, UnknownTableError
from repro.exec.group import EpochDeltaCache, GroupScheduler, view_fingerprints
from repro.robustness.faults import fault_point
from repro.sqlfront.compiler import script_to_transaction, sql_to_expr, sql_to_view
from repro.storage.database import Database
from repro.storage.locks import LockLedger

__all__ = ["ViewManager", "ManagedTransaction", "SCENARIOS"]

#: Scenario name -> class, for :meth:`ViewManager.define_view`.
SCENARIOS: dict[str, type[Scenario]] = {
    "immediate": ImmediateScenario,
    "base_log": BaseLogScenario,
    "diff_table": DiffTableScenario,
    "combined": CombinedScenario,
}


class ManagedTransaction:
    """Fluent transaction builder bound to a manager-like facade: ``run``
    calls ``manager.execute(txn, **options)`` (``options``: a durable
    warehouse's idempotency ``token``) and returns what it returns."""

    def __init__(self, manager, **options) -> None:
        self._manager = manager
        self._options = options
        self._txn = UserTransaction(manager.db)

    def insert(self, table: str, rows: Iterable[Row] | Bag) -> ManagedTransaction:
        self._txn.insert(table, rows)
        return self

    def delete(self, table: str, rows: Iterable[Row] | Bag) -> ManagedTransaction:
        self._txn.delete(table, rows)
        return self

    def insert_query(self, table: str, expr: Expr) -> ManagedTransaction:
        self._txn.insert_query(table, expr)
        return self

    def delete_query(self, table: str, expr: Expr) -> ManagedTransaction:
        self._txn.delete_query(table, expr)
        return self

    def run(self):
        """Execute with all views' maintenance extensions."""
        return self._manager.execute(self._txn, **self._options)


class ViewManager:
    """Manages base tables and materialized views over one database."""

    def __init__(
        self,
        db: Database | None = None,
        *,
        exec_mode: str | None = None,
    ) -> None:
        """``exec_mode`` picks the query engine for a fresh database —
        ``"compiled"`` (default), ``"sqlite"`` or the ``"interpreted"``
        oracle; see :mod:`repro.exec`.  Ignored when an existing ``db``
        is passed."""
        self.db = db if db is not None else Database(exec_mode=exec_mode)
        self.counter = CostCounter()
        self.ledger = LockLedger()
        self._scenarios: dict[str, Scenario] = {}
        self._drivers: dict[str, MaintenanceDriver] = {}
        #: Default shared-log group for views defined with scenario="shared_log".
        self._shared_default: SharedLogScenario | None = None
        #: The last group epoch's ``(footprint, batch layout, RVM603/604
        #: diagnostics)`` — see :meth:`_group_schedule`.
        self._schedule: tuple | None = None

    def exec_stats(self) -> dict[str, int]:
        """Plan-cache, index, and delta-cache counters of the engine so far."""
        return {
            "plan_hits": self.counter.plan_hits,
            "plan_misses": self.counter.plan_misses,
            "memo_hits": self.counter.memo_hits,
            "index_probes": self.counter.index_probes,
            "delta_cache_hits": self.counter.delta_cache_hits,
        }

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------

    def create_table(self, name: str, attrs: Iterable[str], *, rows: Iterable[Row] = ()) -> None:
        """Create an external base table."""
        self.db.create_table(name, attrs, rows=rows)

    def load(self, name: str, rows: Iterable[Row]) -> None:
        """Bulk-load rows into a base table *before* views are defined.

        Loading bypasses maintenance; to modify data once views exist,
        use :meth:`transaction`.
        """
        if self._scenarios:
            raise PolicyError("bulk load is only allowed before views are defined; use transaction()")
        self.db.load(name, rows)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def define_view(
        self,
        name: str,
        definition: str | ViewDefinition | Expr,
        *,
        scenario: str = "combined",
        policy: MaintenancePolicy | None = None,
        strong_minimality: bool = False,
        strict: bool = False,
    ) -> Scenario:
        """Define and materialize a view under the given scenario.

        ``definition`` may be SQL text (a query, or ``CREATE VIEW``), a
        :class:`ViewDefinition`, or a bag-algebra expression.  When a
        ``policy`` is supplied, a :class:`MaintenanceDriver` is attached
        and can be advanced with :meth:`tick`.

        The static analyzer (:mod:`repro.analysis`) runs at install
        time; findings warn by default, and raise
        :class:`~repro.errors.AnalysisError` with ``strict=True``.
        """
        if name in self._scenarios:
            raise SchemaError(f"view {name!r} is already defined")
        if isinstance(definition, ViewDefinition):
            view = definition if definition.name == name else ViewDefinition(name, definition.query)
        elif isinstance(definition, Expr):
            view = ViewDefinition(name, definition)
        else:
            aggregate = self._maybe_aggregate(name, definition)
            if aggregate is not None:
                if scenario != "combined" or strong_minimality or policy is not None:
                    raise PolicyError(
                        "aggregate views are maintained under the combined scenario "
                        "without extra options"
                    )
                instance = AggregateScenario(self.db, aggregate, counter=self.counter, ledger=self.ledger)
                instance.install()
                self._scenarios[name] = instance
                return instance
            view = sql_to_view(definition, self.db, name=name)
        if scenario == "shared_log":
            if strong_minimality or policy is not None:
                raise PolicyError(
                    "shared_log views support neither strong_minimality nor policies"
                )
            instance = SharedLogView(
                self.db,
                view,
                group=self.shared_group(),
                counter=self.counter,
                ledger=self.ledger,
                strict=strict,
            )
            instance.install()
            self._scenarios[name] = instance
            return instance
        self._lint_group_overlap(view, strict=strict)
        try:
            scenario_cls = SCENARIOS[scenario]
        except KeyError:
            raise PolicyError(
                f"unknown scenario {scenario!r}; pick one of {sorted([*SCENARIOS, 'shared_log'])}"
            ) from None
        kwargs = {"counter": self.counter, "ledger": self.ledger, "strict": strict}
        if scenario_cls in (DiffTableScenario, CombinedScenario):
            kwargs["strong_minimality"] = strong_minimality
        elif strong_minimality:
            raise PolicyError(f"strong_minimality is not applicable to the {scenario!r} scenario")
        instance = scenario_cls(self.db, view, **kwargs)
        # Built first: a policy the scenario cannot serve fails closed
        # here, before anything is installed or registered.
        driver = MaintenanceDriver(instance, policy) if policy is not None else None
        instance.install()
        self._scenarios[name] = instance
        if driver is not None:
            self._drivers[name] = driver
        return instance

    def shared_group(self) -> SharedLogScenario:
        """The manager's shared-log refresh group (created on first use).

        All views defined with ``scenario="shared_log"`` join this group:
        they share one sequenced log per base table (per-transaction
        logging cost independent of the view count) and refresh together
        through :meth:`refresh_group`.
        """
        if self._shared_default is None:
            self._shared_default = SharedLogScenario(
                self.db, counter=self.counter, ledger=self.ledger
            )
        return self._shared_default

    def _shared_log_groups(self, names: Iterable[str] | None = None) -> list[SharedLogScenario]:
        """The distinct shared-log groups of ``names`` (default: every view)."""
        scenarios = self._scenarios.values() if names is None else map(self.scenario, names)
        seen = {id(scenario.group): scenario.group for scenario in scenarios if scenario.group is not None}
        return list(seen.values())

    def _lint_group_overlap(self, view: ViewDefinition, *, strict: bool) -> None:
        """RVM501: a non-group view sharing subplans with a refresh group.

        When the new view's query has a subplan fingerprint in common
        with a view already registered in a shared-log group, group
        refresh could have served both from one delta evaluation — but a
        view registered outside the group never benefits.  Warn (or
        raise, under ``strict=True``) so the redundancy is a choice, not
        an accident.
        """
        import warnings

        from repro.analysis.diagnostics import AnalysisReport, AnalysisWarning, Severity

        overlapping: list[str] = []
        fingerprints = None
        for group in self._shared_log_groups():
            for member in group.views():
                if fingerprints is None:
                    fingerprints = view_fingerprints(view.query)
                if fingerprints & view_fingerprints(group.view_definition(member).query):
                    overlapping.append(member)
        if not overlapping:
            return
        report = AnalysisReport()
        report.add(
            "RVM501",
            Severity.WARNING,
            f"view {view.name!r} shares subplan fingerprints with refresh-group "
            f"member(s) {sorted(overlapping)} but is registered outside the group; "
            "define it with scenario='shared_log' so group refresh can share its "
            "delta evaluation",
            path=view.name,
        )
        if strict:
            report.raise_if_failed(context=f"install of view {view.name!r}")
        for diagnostic in report.warnings:
            warnings.warn(diagnostic.format(), AnalysisWarning, stacklevel=3)

    def _group_schedule(self, tasks: list, scheduler: GroupScheduler) -> tuple[list[list], str]:
        """The epoch's batches, RVM603/RVM604-checked; and ``"reused"`` or ``"rebuilt"``.

        Each task's *declared* read/write sets must cover the footprint
        the effect system infers from its scenario's maintenance
        protocol (RVM604 — an under-declared task can be co-batched with
        a conflicting one), and the batch schedule — the one that runs —
        must respect registration order for every conflicting pair
        (RVM603).  Warn-by-default like :meth:`_lint_group_overlap` — the
        epoch still runs, because the scheduler's own batching is
        conservative, but the warning means the declared metadata can no
        longer be trusted to prove that.

        Layout and verdict are pure functions of the tasks' footprint —
        every task's name, order and declared and inferred sets — so the
        last epoch's are kept under exactly that: an unchanged group
        batches and lints once, and any view added, dropped or
        re-partitioned changes the footprint and is checked afresh.
        """
        footprint = tuple(
            (task.name, task.order, task.reads, task.writes, task.inferred_reads, task.inferred_writes)
            for task in tasks
        )
        if self._schedule is not None and self._schedule[0] == footprint:
            outcome = "reused"
            _, layout, diagnostics = self._schedule
            batches = [[tasks[position] for position in batch] for batch in layout]
        else:
            from repro.analysis.concurrency_check import check_schedule, check_tasks

            outcome = "rebuilt"
            batches = scheduler.batches(tasks)
            report = check_tasks(tasks)
            report.extend(check_schedule(tasks, batches=batches))
            diagnostics = list(report)
            position = {id(task): index for index, task in enumerate(tasks)}
            layout = [[position[id(task)] for task in batch] for batch in batches]
            self._schedule = (footprint, layout, diagnostics)
        if diagnostics:
            import warnings

            from repro.analysis.diagnostics import AnalysisWarning

            for diagnostic in diagnostics:
                warnings.warn(diagnostic.format(), AnalysisWarning, stacklevel=4)
        return batches, outcome

    def scenario(self, name: str) -> Scenario:
        """The scenario object maintaining view ``name``."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise UnknownTableError(f"no such view: {name!r}") from None

    def driver(self, name: str) -> MaintenanceDriver:
        """The maintenance driver for a view defined with a policy."""
        try:
            return self._drivers[name]
        except KeyError:
            raise PolicyError(f"view {name!r} has no maintenance policy attached") from None

    def views(self) -> tuple[str, ...]:
        return tuple(self._scenarios)

    def drop_view(self, name: str) -> None:
        """Stop maintaining a view and drop its internal tables."""
        self.scenario(name).uninstall()
        del self._scenarios[name]
        self._drivers.pop(name, None)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def _maybe_aggregate(self, name: str, source: str):
        """Parse SQL and, when it is an aggregate query, compile it."""
        from repro.sqlfront.compiler import compile_aggregate_view
        from repro.sqlfront.parser import CreateView as CreateViewStmt
        from repro.sqlfront.parser import SelectCore, parse_statement

        statement = parse_statement(source)
        if isinstance(statement, CreateViewStmt):
            core = statement.query
            if isinstance(core, SelectCore) and core.is_aggregate():
                view_name = statement.name if name is None else name
                return compile_aggregate_view(view_name, core, self.db)
            return None
        if isinstance(statement, SelectCore) and statement.is_aggregate():
            return compile_aggregate_view(name, statement, self.db)
        return None

    def transaction(self) -> ManagedTransaction:
        """Start building a user transaction."""
        return ManagedTransaction(self)

    def execute(self, txn: UserTransaction) -> None:
        """Run a user transaction with every view's ``makesafe`` extension.

        All per-view auxiliary updates and the user updates execute as a
        single simultaneous transaction, sharing one evaluation memo —
        views over the same tables do not recompute shared deltas.
        """
        with obs.span("txn", tables=",".join(sorted(txn.tables)), views=len(self._scenarios), counter=self.counter):
            minimal = txn.weakly_minimal()
            plan = MaintenancePlan(patches=minimal.patches(), binding=minimal.binding)
            for scenario in self._scenarios.values():
                plan = plan.merge(scenario.make_safe(txn))
            # One shared-log extension per *group*, not per view — this is
            # what keeps per-transaction cost independent of the view count.
            for group in self._shared_log_groups():
                plan = plan.merge(group.shared_log.extend_patches(minimal))
            fault_point("crash-mid-execute")
            plan.execute(self.db, counter=self.counter)
            for scenario in self._scenarios.values():
                scenario.post_execute()
        if obs.telemetry_enabled():
            for scenario in self._scenarios.values():
                scenario._note_stale()

    # ------------------------------------------------------------------
    # Maintenance operations
    # ------------------------------------------------------------------

    def run(self, action: MaintenanceAction):
        """Run one reified maintenance action — the seam for callers that
        hold the request as a value (recovery, :meth:`tick`, the crash
        harness, the view server); lands on the method of that kind."""
        return action.run_on(self)

    def _offering(self, name: str, kind: str) -> Scenario:
        """The scenario of ``name``; PolicyError unless its op table has ``kind``."""
        scenario = self.scenario(name)
        scenario.op(kind)
        return scenario

    def refresh(self, name: str) -> None:
        """Bring one view fully up to date."""
        self.scenario(name).refresh()

    def refresh_all(self) -> None:
        for scenario in self._scenarios.values():
            scenario.refresh()

    def refresh_group(
        self,
        names: Iterable[str] | None = None,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        compact: bool = True,
    ) -> None:
        """Refresh many views as one epoch, sharing work across them.

        Three layers on top of per-view :meth:`refresh`:

        1. logs are compacted to net effects first (``compact=True``), so
           the delta evaluations scale with net change, not raw churn;
        2. views whose refresh deltas fingerprint equal over equal log
           contents share one evaluation through an epoch-scoped delta
           cache (``delta_cache_hits`` on :attr:`counter`);
        3. independent views are batched by their read/write sets and may
           evaluate concurrently (``parallel=True``); patches always
           apply sequentially in registration order, so the final state
           is bag-equal to refreshing each view in turn.

        Views whose scenario has no group task (immediate, diff-table,
        aggregate) fall back to their own ``refresh`` after the group.
        """
        members = list(names) if names is not None else list(self._scenarios)
        with obs.span(
            "group_epoch",
            views=len(members),
            parallel=parallel,
            compact=compact,
            counter=self.counter,
        ) as epoch_span:
            self._refresh_group(
                members, epoch_span, parallel=parallel, max_workers=max_workers, compact=compact
            )
        if obs.telemetry_enabled():
            obs.metric_inc("group_epochs")
            obs.current().metrics.absorb_counter(self.counter)

    def _refresh_group(
        self,
        members: list[str],
        epoch_span,
        *,
        parallel: bool,
        max_workers: int | None,
        compact: bool,
    ) -> None:
        tasks = []
        fallback: list[str] = []
        shared: dict[int, tuple[SharedLogScenario, list[tuple[int, str]]]] = {}
        for order, name in enumerate(members):
            scenario = self.scenario(name)
            if scenario.group is not None:
                shared.setdefault(id(scenario.group), (scenario.group, []))[1].append((order, name))
                continue
            own = scenario.epoch_tasks(order=order, compact=compact)
            if own is None:
                fallback.append(name)
            else:
                tasks.extend(own)
        pairs_built = bound_rows = 0
        for group, group_members in shared.values():
            tasks.extend(group.epoch_tasks(group_members, compact=compact))
            pairs_built += group.last_epoch["pairs_built"]
            bound_rows += group.last_epoch["bound_rows"]
        scheduler = GroupScheduler(counter=self.counter, parallel=parallel, max_workers=max_workers)
        batches, outcome = self._group_schedule(tasks, scheduler)
        epoch_span.set(schedule=outcome, pairs_built=pairs_built, bound_rows=bound_rows)
        if obs.telemetry_enabled():
            obs.metric_inc(f'group_schedule{{outcome="{outcome}"}}')
        scheduler.run(tasks, EpochDeltaCache(self.counter), batches)
        for group, _ in shared.values():
            # Consumed entries drop now on plain databases; journaled
            # ones defer to the committed watermark (crash recovery may
            # still replay this very epoch from the previous checkpoint).
            group._maybe_prune()
        for name in fallback:
            self.scenario(name).refresh()

    def log_watermark(self, names: Iterable[str]) -> int:
        """Recorded-but-unabsorbed log entries behind ``names`` (a shared
        log counts once per group)."""
        names = list(names)
        total = sum(self.scenario(name).log_watermark() for name in names)
        return total + sum(group.log_size() for group in self._shared_log_groups(names))

    def commit_log_watermarks(self) -> None:
        """Advance shared-log prune floors after a durable commit.

        Called by :class:`~repro.robustness.DurableWarehouse` once a
        journaled operation's checkpoint has committed: entries below
        every cursor in that checkpoint can no longer be needed by crash
        recovery and are pruned.
        """
        for group in self._shared_log_groups():
            group.commit_watermark()

    def propagate(self, name: str) -> None:
        """Run ``propagate_C`` for a combined-scenario (or aggregate) view."""
        self._offering(name, "propagate").propagate()

    def partial_refresh(self, name: str) -> None:
        """Run ``partial_refresh_C`` for a combined-scenario (or aggregate) view."""
        self._offering(name, "partial_refresh").partial_refresh()

    def tick(self, txns: Iterable[UserTransaction] = ()) -> None:
        """Advance all attached maintenance drivers by one time unit.

        Each transaction runs **once**, through :meth:`execute` (every
        view, driven or not, sees it exactly once); then each driver runs
        its policy's due actions through :meth:`run`.
        """
        txns = tuple(txns)
        before = self.counter.tuples_out
        for txn in txns:
            self.execute(txn)
        cost = self.counter.tuples_out - before
        for name, driver in self._drivers.items():
            driver.now += 1
            driver.note_transactions(len(txns), cost)
            driver.run_due(lambda kind, name=name: self.run(MaintenanceAction(kind, name)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(self, name: str) -> Bag:
        """Read a view's materialized table (possibly stale)."""
        return self.scenario(name).read_view()

    def query_fresh(self, name: str) -> Bag:
        """Refresh, then read — never returns stale data."""
        scenario = self.scenario(name)
        scenario.refresh()
        return scenario.read_view()

    def sql(self, query: str) -> Bag:
        """Evaluate an ad-hoc SQL query against the current state."""
        return self.db.evaluate(sql_to_expr(query, self.db), counter=self.counter)

    def execute_sql(self, script: str) -> None:
        """Run a ``;``-separated INSERT/DELETE script as ONE transaction.

        All statements share the paper's simultaneous semantics — every
        delta reads the pre-transaction state — and every registered
        view's maintenance extension is applied, exactly as with
        :meth:`transaction`.
        """
        txn = UserTransaction(self.db)
        script_to_transaction(script, self.db, txn)
        self.execute(txn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_stale(self, name: str) -> bool:
        """Whether the view table currently differs from its definition."""
        return not self.scenario(name).is_consistent()

    def check_invariants(self) -> None:
        """Assert every view's scenario invariant (testing/debugging aid)."""
        for scenario in self._scenarios.values():
            scenario.check_invariant()

    def downtime_seconds(self, name: str) -> float:
        """Total wall-clock downtime of a view so far."""
        return self.ledger.downtime_seconds(self.scenario(name).view.mv_table)

    def obs_snapshot(self) -> dict:
        """One combined observability snapshot (requires ``obs.enable()``).

        Mirrors the engine's :class:`CostCounter` cache counters into the
        metrics registry first, then returns metrics + per-view
        downtime/staleness clocks.  Empty sections when observability is
        disabled.
        """
        stack = obs.current()
        stack.metrics.absorb_counter(self.counter)
        return {
            "metrics": stack.metrics.snapshot(),
            "views": stack.accounting.snapshot(),
        }
