"""One seam: every evaluation a database makes lands on its engine.

A recording engine substituted on an interpreted database sees each
maintenance path's evaluations, primes and footprints; the oracle is
never run against the database's tables behind the engine's back.
"""

import pytest

import repro.algebra.evaluation as evaluation
from repro.analysis.effects import read_footprint
from repro.core.scenarios import BaseLogScenario, CombinedScenario
from repro.core.transactions import UserTransaction
from repro.exec import Executor
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager

VIEW_SQL = "CREATE VIEW {name} (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b"


class RecordingEngine:
    """Delegates to the compiled plans and records each call by method."""

    reference = False

    def __init__(self, database) -> None:
        self._inner = Executor(database)
        self.calls: list[str] = []

    def describe(self) -> str:
        return "recording"

    def evaluate(self, expr, *, counter=None, binding=None):
        self.calls.append("evaluate")
        return self._inner.evaluate(expr, counter=counter, binding=binding)

    def batch(self, *, counter=None, binding=None):
        run = self._inner.batch(counter=counter, binding=binding)

        def recorded(expr):
            self.calls.append("batch")
            return run(expr)

        return recorded

    def prime(self, expr, *, counter=None):
        self.calls.append("prime")
        return self._inner.prime(expr, counter=counter)

    def footprint(self, expr):
        self.calls.append("footprint")
        return self._inner.footprint(expr)

    def heal(self):
        return []


@pytest.fixture
def db():
    database = Database(exec_mode="interpreted")
    database._executor = RecordingEngine(database)
    database.create_table("R", ["a", "b"], rows=[(1, 1), (1, 2), (2, 2)])
    database.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    return database


def engine_calls(db, action) -> list[str]:
    """The engine calls ``action`` makes; it may not run the oracle over
    the database's tables itself (invariant checks outside it may)."""
    original = evaluation._eval

    def oracle(expr, state, *args, **kwargs):
        assert state is not db.state, f"evaluated {expr} around the engine"
        return original(expr, state, *args, **kwargs)

    engine = db.executor
    engine.calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_eval", oracle)
        action()
    return list(engine.calls)


def install(db, scenario_cls, name="V"):
    scenario = scenario_cls(db, sql_to_view(VIEW_SQL.format(name=name), db))
    scenario.install()
    return scenario


def insert(db, *rows):
    return UserTransaction(db).insert("R", list(rows))


def test_makesafe_transaction(db):
    scenario = install(db, BaseLogScenario)
    assert "batch" in engine_calls(db, lambda: scenario.execute(insert(db, (3, 1))))


def test_base_log_refresh(db):
    scenario = install(db, BaseLogScenario)
    scenario.execute(insert(db, (3, 1)))
    assert "batch" in engine_calls(db, scenario.refresh)
    assert db[scenario.view.mv_table] == db.evaluate(scenario.view.query)


def test_combined_propagate_and_partial_refresh(db):
    scenario = install(db, CombinedScenario)
    scenario.execute(insert(db, (3, 2)))
    assert "batch" in engine_calls(db, scenario.propagate)
    assert "batch" in engine_calls(db, scenario.partial_refresh)
    assert db[scenario.view.mv_table] == db.evaluate(scenario.view.query)


def test_shared_log_group_epoch(db):
    manager = ViewManager(db)
    manager.define_view("V", VIEW_SQL.format(name="V"), scenario="shared_log")
    manager.define_view("W", VIEW_SQL.format(name="W"), scenario="shared_log")
    manager.transaction().insert("R", [(3, 1)]).run()
    calls = engine_calls(db, manager.refresh_group)
    # The leader's (delete, insert) pair (W shares it through the epoch
    # cache), then each view's patch (delete, insert).
    assert calls.count("batch") == 6, calls
    assert not manager.is_stale("V") and not manager.is_stale("W")


def test_prime_and_read_footprint(db):
    expr = sql_to_view(VIEW_SQL.format(name="V"), db).query
    assert engine_calls(db, lambda: db.prime(expr)) == ["prime"]
    assert engine_calls(db, lambda: read_footprint(db, expr)) == ["footprint"]
