"""An apply step's plan is built once per scenario, then reused.

A maintenance op's apply steps patch with the bags its compute step
evaluated, bound to the view's bound pair; their plans read nothing that
changes between runs.  So the second ``refresh`` / ``propagate`` /
``partial_refresh`` of a view calls no plan builder and executes the very
plan objects the first one did, and a view dropped and defined again
starts from fresh plans.
"""

from __future__ import annotations

import gc
import warnings
from collections import Counter

import pytest

from repro.algebra.predicates import Comparison, attr, const
from repro.core.plan import MaintenancePlan
from repro.core.scenarios import CombinedScenario, DiffTableScenario, LoggedScenario
from repro.extensions.scoped import scoped_partial_refresh
from repro.extensions.sharedlog import SharedLogScenario
from repro.storage.database import Database
from repro.warehouse import ViewManager

JOIN_SQL = (
    "SELECT c.custId, c.name, s.itemNo FROM customer c, sales s "
    "WHERE c.custId = s.custId AND c.score = 'High'"
)

#: Every builder an apply step of these scenarios names.
BUILDERS = (
    (LoggedScenario, "_log_refresh_plan"),
    (DiffTableScenario, "_apply_dt_plan"),
    (DiffTableScenario, "_normalize_plan"),
    (CombinedScenario, "_fold_plan"),
    (SharedLogScenario, "_mv_patch_plan"),
)

#: case -> (scenario, op kinds run twice each, refresh order)
CASES = {
    "base_log": ("base_log", ("refresh",), None),
    "combined/propagate_first": ("combined", ("propagate", "partial_refresh", "refresh"), "propagate_first"),
    "combined/partial_first": ("combined", ("refresh",), "partial_first"),
    "diff_table": ("diff_table", ("refresh",), None),
    "shared_log": ("shared_log", ("refresh",), None),
}


@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Calls per builder, counted from the next view definition on."""
    calls: Counter = Counter()
    for owner, name in BUILDERS:
        original = vars(owner)[name]

        def counted(self, *pair, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *pair)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def executed(monkeypatch) -> list:
    """Every plan executed, in order."""
    plans: list = []
    original = MaintenancePlan.execute

    def recorded(self, *args, **kwargs):
        plans.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MaintenancePlan, "execute", recorded)
    return plans


def define(manager: ViewManager, scenario: str, **options) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manager.define_view("V", JOIN_SQL, scenario=scenario, **options)


def build(scenario: str, **options) -> ViewManager:
    db = Database()
    customers = [(i, f"n{i}", "High" if i % 2 else "Low") for i in range(10)]
    db.create_table("customer", ("custId", "name", "score"), rows=customers)
    db.create_table("sales", ("custId", "itemNo", "quantity"), rows=[(i % 10, i, 1 + i % 3) for i in range(40)])
    manager = ViewManager(db)
    define(manager, scenario, **options)
    return manager


def run(manager: ViewManager, kind: str, order: str | None, tick: int, executed: list) -> list:
    """One backlog transaction, then op ``kind``; the plans the op executed."""
    manager.execute_sql(
        f"INSERT INTO sales VALUES ({tick % 10}, {900 + tick}, 2); DELETE FROM sales WHERE itemNo = {tick}"
    )
    executed.clear()
    if kind == "refresh" and order is not None:
        manager.scenario("V").refresh(order=order)
    else:
        getattr(manager, kind)("V")
    return list(executed)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_second_run_builds_no_plan(case, builds, executed):
    scenario, kinds, order = CASES[case]
    manager = build(scenario)
    for tick, kind in enumerate(kinds):
        first = run(manager, kind, order, 2 * tick, executed)
        before = Counter(builds)
        second = run(manager, kind, order, 2 * tick + 1, executed)
        assert builds == before, f"{kind} rebuilt {builds - before}"
        assert first and all(a is b for a, b in zip(first, second, strict=True)), kind
    assert sum(builds.values()) > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_view_defined_again_builds_fresh_plans(case, builds, executed):
    scenario, _, order = CASES[case]
    manager = build(scenario)
    old = run(manager, "refresh", order, 1, executed)
    manager.drop_view("V")
    built = sum(builds.values())
    define(manager, scenario)
    new = run(manager, "refresh", order, 2, executed)
    assert sum(builds.values()) > built
    assert new and not {id(plan) for plan in old} & {id(plan) for plan in new}
    assert manager.scenario("V").is_consistent()


def test_a_one_off_step_leaves_with_its_op():
    """``scoped_partial_refresh`` builds a new op per call: its plan is
    looked up like any other, and goes when the op does."""
    manager = build("diff_table")
    scenario = manager.scenario("V")
    held = len(scenario._plans)
    for tick in range(3):
        manager.execute_sql(f"INSERT INTO sales VALUES (1, {950 + tick}, 2)")
        scoped_partial_refresh(scenario, Comparison("<", attr("custId"), const(5)))
    gc.collect()
    assert len(scenario._plans) == held


def test_strong_minimality_normalizes_every_transaction_with_one_plan(builds, executed):
    """A strong-minimality DT view cancels ∇MV ∩ ΔMV after every
    transaction (``post_execute``), always with the plan the first built."""
    manager = build("diff_table", strong_minimality=True)
    plans = []
    for tick in range(2):
        executed.clear()
        manager.execute_sql(
            f"INSERT INTO sales VALUES ({tick}, {900 + tick}, 2); DELETE FROM sales WHERE itemNo = {tick}"
        )
        plans.append(executed[-1])
        assert builds["_normalize_plan"] == 1, f"transaction {tick}"
    assert plans[0] is plans[1]
    assert manager.scenario("V").invariant_holds()
