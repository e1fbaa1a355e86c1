"""Tests for view removal (uninstall) across scenarios."""

import pytest

from repro.errors import UnknownTableError
from repro.warehouse import ViewManager


@pytest.fixture
def manager():
    vm = ViewManager()
    vm.create_table("t", ["a"], rows=[(1,), (2,)])
    return vm


@pytest.mark.parametrize("scenario", ["immediate", "base_log", "diff_table", "combined"])
def test_drop_view_removes_all_internal_tables(manager, scenario):
    manager.define_view("V", "SELECT a FROM t", scenario=scenario)
    assert manager.db.internal_tables()
    manager.drop_view("V")
    assert manager.db.internal_tables() == ()
    assert "V" not in manager.views()


def test_drop_aggregate_view(manager):
    manager.define_view("agg", "SELECT a, COUNT(*) FROM t GROUP BY a")
    manager.drop_view("agg")
    assert manager.db.internal_tables() == ()


def test_drop_unknown_view(manager):
    with pytest.raises(UnknownTableError):
        manager.drop_view("nope")


def test_redefine_after_drop(manager):
    manager.define_view("V", "SELECT a FROM t", scenario="combined")
    manager.drop_view("V")
    manager.define_view("V", "SELECT a FROM t WHERE a > 1", scenario="combined")
    assert manager.query("V").support == frozenset({(2,)})


def test_drop_leaves_other_views_working(manager):
    manager.define_view("V", "SELECT a FROM t", scenario="combined")
    manager.define_view("W", "SELECT a FROM t WHERE a > 0", scenario="combined")
    manager.drop_view("V")
    manager.transaction().insert("t", [(3,)]).run()
    manager.check_invariants()
    assert (3,) in manager.query_fresh("W")


def test_transactions_after_drop_do_no_maintenance_work(manager):
    manager.define_view("V", "SELECT a FROM t", scenario="combined")
    manager.drop_view("V")
    before = manager.counter.tuples_out
    manager.transaction().insert("t", [(9,)]).run()
    # Only the user patch itself: one inserted row plus its literal.
    assert manager.counter.tuples_out - before <= 3

