"""Unit tests for query-scoped partial refresh."""

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.expr import Select
from repro.algebra.predicates import Comparison, attr, const
from repro.core.scenarios import BaseLogScenario, CombinedScenario, DiffTableScenario
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import PolicyError, SchemaError
from repro.extensions.scoped import scoped_partial_refresh, scoped_query
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.storage.database import Database

HOT = Comparison("<", attr("a"), const(10))  # the "hot" slice a < 10


def make(scenario_cls):
    db = Database()
    db.create_table("R", ["a"], rows=[(1,), (2,), (50,)])
    scenario = scenario_cls(db, ViewDefinition("V", db.ref("R")))
    scenario.install()
    return db, scenario


def fill_differentials(db, scenario):
    """Push one hot and one cold change into the differential tables."""
    scenario.execute(UserTransaction(db).insert("R", [(3,), (60,)]).delete("R", [(1,), (50,)]))
    if isinstance(scenario, CombinedScenario):
        scenario.propagate()


class TestScopedPartialRefresh:
    @pytest.mark.parametrize("scenario_cls", [DiffTableScenario, CombinedScenario])
    def test_hot_slice_becomes_fresh(self, scenario_cls):
        db, scenario = make(scenario_cls)
        fill_differentials(db, scenario)
        scoped_partial_refresh(scenario, HOT)
        hot_view = db.evaluate(Select(HOT, db.ref(scenario.view.mv_table)))
        hot_truth = db.evaluate(Select(HOT, scenario.view.query))
        assert hot_view == hot_truth

    @pytest.mark.parametrize("scenario_cls", [DiffTableScenario, CombinedScenario])
    def test_cold_slice_stays_stale(self, scenario_cls):
        db, scenario = make(scenario_cls)
        fill_differentials(db, scenario)
        scoped_partial_refresh(scenario, HOT)
        mv = db[scenario.view.mv_table]
        assert (50,) in mv  # cold delete not applied
        assert (60,) not in mv  # cold insert not applied

    @pytest.mark.parametrize("scenario_cls", [DiffTableScenario, CombinedScenario])
    def test_invariant_preserved(self, scenario_cls):
        db, scenario = make(scenario_cls)
        fill_differentials(db, scenario)
        scoped_partial_refresh(scenario, HOT)
        scenario.check_invariant()

    @pytest.mark.parametrize("scenario_cls", [DiffTableScenario, CombinedScenario])
    def test_later_full_refresh_still_correct(self, scenario_cls):
        db, scenario = make(scenario_cls)
        fill_differentials(db, scenario)
        scoped_partial_refresh(scenario, HOT)
        scenario.refresh()
        assert scenario.is_consistent()

    def test_cold_differentials_remain(self):
        db, scenario = make(DiffTableScenario)
        fill_differentials(db, scenario)
        scoped_partial_refresh(scenario, HOT)
        assert db[scenario.view.dt_delete_table] == Bag([(50,)])
        assert db[scenario.view.dt_insert_table] == Bag([(60,)])

    def test_takes_view_lock(self):
        db, scenario = make(DiffTableScenario)
        fill_differentials(db, scenario)
        scoped_partial_refresh(scenario, HOT)
        assert scenario.ledger.section_count(scenario.view.mv_table) == 1

    def test_runs_as_a_locked_op(self):
        """One span, the refresh crash point, residual freshness."""
        db, scenario = make(DiffTableScenario)
        with obs.observed() as stack:
            fill_differentials(db, scenario)
            scoped_partial_refresh(scenario, HOT)
            views = stack.accounting.snapshot()
        (span,) = stack.tracer.find("partial_refresh")
        assert (span.attrs["view"], span.attrs["scoped"], span.attrs["delta_rows"]) == ("V", True, 4)
        assert views["V"]["staleness"]["refreshes"] == 1
        assert views["V"]["staleness"]["pending_entries"] == 2  # the cold slice
        INJECTOR.arm("crash-mid-refresh")
        try:
            fill_differentials(db, scenario)
            before = db[scenario.view.mv_table]
            with pytest.raises(InjectedCrash):
                scoped_partial_refresh(scenario, HOT)
        finally:
            INJECTOR.reset()
        assert db[scenario.view.mv_table] == before

    def test_rejected_for_aggregate_views(self):
        from repro.warehouse import ViewManager

        manager = ViewManager()
        manager.create_table("R", ["a"], rows=[(1,), (2,)])
        scenario = manager.define_view("A", "SELECT a, COUNT(*) FROM R GROUP BY a")
        with pytest.raises(PolicyError, match="__agg__A"):
            scoped_partial_refresh(scenario, HOT)

    def test_rejected_for_scenarios_without_differentials(self):
        db, scenario = make(BaseLogScenario)
        with pytest.raises(PolicyError):
            scoped_partial_refresh(scenario, HOT)

    def test_predicate_validated_against_view_schema(self):
        db, scenario = make(DiffTableScenario)
        bad = Comparison("=", attr("nope"), const(1))
        with pytest.raises(SchemaError):
            scoped_partial_refresh(scenario, bad)


class TestScopedQuery:
    def test_combined_scenario_propagates_first(self):
        db, scenario = make(CombinedScenario)
        # Changes left in the log, not yet propagated:
        scenario.execute(UserTransaction(db).insert("R", [(4,)]))
        result = scoped_query(scenario, HOT)
        assert result == db.evaluate(Select(HOT, scenario.view.query))
        assert (4,) in result

    def test_diff_table_scenario(self):
        db, scenario = make(DiffTableScenario)
        fill_differentials(db, scenario)
        result = scoped_query(scenario, HOT)
        assert result == db.evaluate(Select(HOT, scenario.view.query))

    def test_scoped_query_cheaper_than_full_refresh(self):
        """Downtime of the scoped path is below a full refresh's when the
        needed slice is a small fraction of the pending changes (the
        point of the extension)."""

        def backlog(db, scenario):
            # One hot change, many cold ones.
            cold = [(100 + index,) for index in range(40)]
            scenario.execute(UserTransaction(db).insert("R", [(3,), *cold]))
            scenario.propagate()

        db_full, full = make(CombinedScenario)
        db_scoped, scoped = make(CombinedScenario)
        backlog(db_full, full)
        backlog(db_scoped, scoped)
        full.refresh()
        scoped_partial_refresh(scoped, HOT)
        full_ops = full.ledger.downtime_tuple_ops(full.view.mv_table)
        scoped_ops = scoped.ledger.downtime_tuple_ops(scoped.view.mv_table)
        assert scoped_ops < full_ops
