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
from dataclasses import replace

from repro import obs
from repro.algebra.bag import Bag, Row
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Expr
from repro.core.ops import MaintenanceAction
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import (
    BaseLogScenario,
    CombinedScenario,
    DiffTableScenario,
    ImmediateScenario,
    Scenario,
)
from repro.core.transactions import UserTransaction
from repro.extensions.aggregates import AggregateScenario, AggregateView
from repro.extensions.sharedlog import SharedLog, SharedLogScenario
from repro.core.views import ViewDefinition
from repro.errors import PolicyError, SchemaError, UnknownTableError
from repro.exec.group import GroupScheduler
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
    "shared_log": SharedLogScenario,
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
        #: The one sequenced log every ``scenario="shared_log"`` view reads
        #: through its cursor (per-transaction logging cost independent of
        #: the view count).
        self.shared_log = SharedLog(self.db)

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
        strong_minimality: bool = False,
        strict: bool = False,
    ) -> Scenario:
        """Define and materialize a view under the given scenario.

        ``definition`` may be SQL text (a query, or ``CREATE VIEW``), a
        :class:`ViewDefinition`, or a bag-algebra expression.  The
        manager schedules nothing: a policy runs in the serving layer
        (:class:`~repro.serve.server.ViewServer`).

        The static analyzer (:mod:`repro.analysis`) runs at install
        time; findings warn by default, and raise
        :class:`~repro.errors.AnalysisError` with ``strict=True``.
        """
        if name in self._scenarios:
            raise SchemaError(f"view {name!r} is already defined")
        instance = self.scenario_for(
            name, definition, scenario=scenario, strong_minimality=strong_minimality, strict=strict
        )
        if scenario != "shared_log":
            self._lint_group_overlap(instance.view, strict=strict)
        instance.install()
        self._scenarios[name] = instance
        return instance

    def scenario_for(
        self,
        name: str,
        definition: str | ViewDefinition | Expr,
        *,
        scenario: str = "combined",
        strong_minimality: bool = False,
        strict: bool = False,
    ) -> Scenario:
        """The uninstalled scenario :meth:`define_view` would install for
        these arguments: its op table is known, nothing is written."""
        if isinstance(definition, (ViewDefinition, AggregateView)):
            view = definition if definition.name == name else replace(definition, name=name)
        elif isinstance(definition, Expr):
            view = ViewDefinition(name, definition)
        else:
            view = sql_to_view(definition, self.db, name=name)
        return self._new_scenario(scenario, view, strong_minimality=strong_minimality, strict=strict)

    def _new_scenario(
        self,
        scenario: str,
        view: ViewDefinition | AggregateView,
        *,
        strong_minimality: bool = False,
        strict: bool = False,
    ) -> Scenario:
        """An uninstalled ``scenario`` for ``view`` on this manager's
        database, counter, ledger and shared log.  An aggregate view is
        the combined scenario of its base query plus its grouped table."""
        try:
            scenario_cls = SCENARIOS[scenario]
        except KeyError:
            raise PolicyError(f"unknown scenario {scenario!r}; pick one of {sorted(SCENARIOS)}") from None
        if isinstance(view, AggregateView):
            if scenario_cls is not CombinedScenario:
                raise PolicyError(f"aggregate views are maintained under the combined scenario, not {scenario!r}")
            scenario_cls = AggregateScenario
        kwargs = {"counter": self.counter, "ledger": self.ledger, "strict": strict}
        if issubclass(scenario_cls, DiffTableScenario):
            kwargs["strong_minimality"] = strong_minimality
        elif strong_minimality:
            raise PolicyError(f"strong_minimality is not applicable to the {scenario!r} scenario")
        if scenario_cls is SharedLogScenario:
            kwargs["shared_log"] = self.shared_log
        return scenario_cls(self.db, view, **kwargs)

    def _lint_group_overlap(self, view: ViewDefinition, *, strict: bool) -> None:
        """RVM501: a view outside the shared log with a shared-log view's query.

        Views with equal queries share one shared-log pair
        (:meth:`~repro.extensions.sharedlog.SharedLog.register`), so
        group refresh evaluates their deltas once — but a view
        registered outside the shared log never benefits.  Warn (or
        raise, under ``strict=True``) so the redundancy is a choice,
        not an accident.
        """
        import warnings

        from repro.analysis.diagnostics import AnalysisReport, AnalysisWarning, Severity

        equal = [
            member.view.name
            for member in self._scenarios.values()
            if isinstance(member, SharedLogScenario) and member.view.query == view.query
        ]
        if not equal:
            return
        report = AnalysisReport()
        report.add(
            "RVM501",
            Severity.WARNING,
            f"view {view.name!r} has the query of shared-log view(s) {sorted(equal)} "
            "but is maintained outside the shared log; define it with "
            "scenario='shared_log' so group refresh can share its delta evaluation",
            path=view.name,
        )
        if strict:
            report.raise_if_failed(context=f"install of view {view.name!r}")
        for diagnostic in report.warnings:
            warnings.warn(diagnostic.format(), AnalysisWarning, stacklevel=3)

    def scenario(self, name: str) -> Scenario:
        """The scenario object maintaining view ``name``."""
        try:
            return self._scenarios[name]
        except KeyError:
            raise UnknownTableError(f"no such view: {name!r}") from None

    def views(self) -> tuple[str, ...]:
        return tuple(self._scenarios)

    def drop_view(self, name: str) -> None:
        """Stop maintaining a view and drop its internal tables."""
        self.scenario(name).uninstall()
        del self._scenarios[name]

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

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
            # One shared-log extension per transaction, not per view — this
            # is what keeps per-transaction cost independent of the view count.
            if self.shared_log.tables:
                plan = plan.merge(self.shared_log.extend_patches(minimal))
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
        hold the request as a value (recovery, the crash harness, the
        view server); lands on the method of that kind."""
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
    ) -> None:
        """Refresh many views as one epoch, sharing work across them.

        Three layers on top of per-view :meth:`refresh`:

        1. logs are compacted to net effects first, so the delta
           evaluations scale with net change, not raw churn; compacting
           the shared log also leaves each cursor's folded slice in its
           memo, so the epoch's bindings re-read no log;
        2. views whose evaluations read equal values — one shared-log
           pair at one cursor, or one query over equal per-view logs —
           share one evaluation (``delta_cache_hits`` on :attr:`counter`);
        3. every view reads only base tables, so the epoch is one loop:
           each view runs its own ``refresh`` op in registration order,
           on the calling thread, computing where the op says (a BL or C
           view under its lock), a follower with its leader's bags — the
           final state is bag-equal to refreshing each view in turn.

        Views whose scenario has no group task (immediate, diff-table)
        fall back to their own ``refresh`` after the group.

        ``parallel`` and ``max_workers`` are accepted and ignored: an
        epoch evaluates on the calling thread whatever they say.
        """
        members = list(names) if names is not None else list(self._scenarios)
        with obs.span("group_epoch", views=len(members), counter=self.counter) as epoch_span:
            tasks = []
            fallback: list[str] = []
            for name in members:
                task = self.scenario(name).epoch_tasks()
                if task is None:
                    fallback.append(name)
                else:
                    tasks.append(task)
            epoch_span.set(**self.shared_log.epoch_report())
            GroupScheduler(counter=self.counter).run(tasks)
            for name in fallback:
                self.scenario(name).refresh()
        if obs.telemetry_enabled():
            obs.metric_inc("group_epochs")
            obs.current().metrics.absorb_counter(self.counter)

    def propagate(self, name: str) -> None:
        """Run ``propagate_C`` for a combined-scenario (or aggregate) view."""
        self._offering(name, "propagate").propagate()

    def partial_refresh(self, name: str) -> None:
        """Run ``partial_refresh_C`` for a combined-scenario (or aggregate) view."""
        self._offering(name, "partial_refresh").partial_refresh()

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
