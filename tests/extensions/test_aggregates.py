"""Unit + randomized tests for incremental aggregate maintenance."""

import pytest

from repro.algebra.bag import Bag
from repro.core.transactions import UserTransaction
from repro.core.views import ViewDefinition
from repro.errors import SchemaError
from repro.extensions.aggregates import AggregateScenario, AggregateSpec, AggregateView
from repro.storage.database import Database

COUNT = AggregateSpec("count")


def make_scenario(aggregates=(COUNT, AggregateSpec("sum", "amount"))):
    db = Database()
    db.create_table(
        "orders",
        ["region", "amount"],
        rows=[("east", 10), ("east", 5), ("west", 7)],
    )
    view = AggregateView(
        "sales_by_region",
        ViewDefinition("base", db.ref("orders")),
        group_by=("region",),
        aggregates=tuple(aggregates),
    )
    scenario = AggregateScenario(db, view)
    scenario.install()
    return db, scenario


class TestSpecs:
    def test_sum_requires_attribute(self):
        with pytest.raises(SchemaError):
            AggregateSpec("sum")

    def test_count_rejects_attribute(self):
        with pytest.raises(SchemaError):
            AggregateSpec("count", "x")

    def test_unknown_function(self):
        with pytest.raises(SchemaError):
            AggregateSpec("avg", "x")

    def test_column_names(self):
        assert COUNT.column_name == "count"
        assert AggregateSpec("sum", "amount").column_name == "sum_amount"

    def test_group_by_validated(self):
        db = Database()
        db.create_table("t", ["a"], rows=[(1,)])
        with pytest.raises(SchemaError):
            AggregateView("v", ViewDefinition("b", db.ref("t")), ("nope",), (COUNT,))

    def test_count_required(self):
        db = Database()
        db.create_table("t", ["a"], rows=[(1,)])
        view = AggregateView(
            "v", ViewDefinition("b", db.ref("t")), ("a",), (AggregateSpec("sum", "a"),)
        )
        scenario = AggregateScenario(db, view)
        with pytest.raises(SchemaError):
            scenario.install()


class TestInstall:
    def test_initial_aggregation(self):
        __, scenario = make_scenario()
        assert scenario.read_view() == Bag([("east", 2, 15), ("west", 1, 7)])

    def test_consistent_after_install(self):
        __, scenario = make_scenario()
        assert scenario.is_consistent()
        scenario.check_invariant()


class TestMaintenance:
    def test_inserts_update_counts_and_sums(self):
        db, scenario = make_scenario()
        scenario.execute(UserTransaction(db).insert("orders", [("east", 100)]))
        assert not scenario.is_consistent()  # deferred
        scenario.refresh()
        assert scenario.read_view() == Bag([("east", 3, 115), ("west", 1, 7)])

    def test_deletes_update_counts_and_sums(self):
        db, scenario = make_scenario()
        scenario.execute(UserTransaction(db).delete("orders", [("east", 5)]))
        scenario.refresh()
        assert scenario.read_view() == Bag([("east", 1, 10), ("west", 1, 7)])

    def test_group_disappears_at_zero_count(self):
        db, scenario = make_scenario()
        scenario.execute(UserTransaction(db).delete("orders", [("west", 7)]))
        scenario.refresh()
        assert scenario.read_view() == Bag([("east", 2, 15)])

    def test_new_group_appears(self):
        db, scenario = make_scenario()
        scenario.execute(UserTransaction(db).insert("orders", [("north", 1), ("north", 2)]))
        scenario.refresh()
        assert ("north", 2, 3) in scenario.read_view()

    def test_churn_leaves_aggregates_unchanged(self):
        db, scenario = make_scenario()
        scenario.execute(
            UserTransaction(db).delete("orders", [("east", 10)]).insert("orders", [("east", 10)])
        )
        before = scenario.read_view()
        scenario.refresh()
        assert scenario.read_view() == before
        assert scenario.is_consistent()

    def test_invariant_holds_while_stale(self):
        db, scenario = make_scenario()
        scenario.execute(UserTransaction(db).insert("orders", [("east", 1)]))
        scenario.check_invariant()  # AGG mirrors the stale base MV
        scenario.propagate()
        scenario.check_invariant()

    def test_partial_refresh_without_propagate_changes_nothing(self):
        db, scenario = make_scenario()
        scenario.execute(UserTransaction(db).insert("orders", [("east", 1)]))
        before = scenario.read_view()
        scenario.partial_refresh()
        assert scenario.read_view() == before

    def test_multi_step_stream(self):
        db, scenario = make_scenario()
        steps = [
            UserTransaction(db).insert("orders", [("east", 3), ("west", 4)]),
            UserTransaction(db).delete("orders", [("west", 7)]),
            UserTransaction(db).insert("orders", [("south", 9)]).delete("orders", [("east", 5)]),
        ]
        for txn in steps:
            scenario.execute(txn)
            scenario.check_invariant()
            scenario.refresh()
            assert scenario.is_consistent()

    def test_count_only_view(self):
        db, scenario = make_scenario(aggregates=(COUNT,))
        scenario.execute(UserTransaction(db).insert("orders", [("west", 1)]))
        scenario.refresh()
        assert scenario.read_view() == Bag([("east", 2), ("west", 2)])

    def test_refresh_cost_is_delta_proportional(self):
        """A one-row change to a large base must refresh in O(1) ops."""
        def build(rows):
            db = Database()
            db.create_table("orders", ["region", "amount"], rows=rows)
            view = AggregateView(
                "v", ViewDefinition("b", db.ref("orders")), ("region",), (COUNT,)
            )
            scenario = AggregateScenario(db, view)
            scenario.install()
            scenario.execute(UserTransaction(db).insert("orders", [("zzz", 1)]))
            scenario.propagate()
            before = scenario.counter.tuples_out
            scenario.partial_refresh()
            return scenario.counter.tuples_out - before

        small = build([("east", index) for index in range(10)])
        large = build([("east", index) for index in range(2000)])
        assert large <= small * 2


@pytest.mark.parametrize("groups", [50, 500])
def test_a_durable_refresh_writes_only_the_changed_groups(tmp_path, groups):
    """The aggregate table is patched, not replaced: a 1-row insert and
    a refresh checkpoint the same few rows at 50 and at 500 groups."""
    from repro import obs
    from repro.robustness.durable import DurableWarehouse

    warehouse = DurableWarehouse(tmp_path / "wh.db")
    warehouse.create_table("t", ("g", "x"))
    warehouse.load("t", [(group, group) for group in range(groups)])
    warehouse.define_view("A", "SELECT g, COUNT(*), SUM(x) FROM t GROUP BY g")
    with obs.observed() as stack:
        warehouse.transaction().insert("t", [(7, 3)]).run()
        warehouse.refresh("A")
        metrics = stack.metrics.snapshot()
    assert not [name for name in metrics if name.startswith("checkpoint_rewrites")]
    # The base row, its log and differential rows, the group's old and new row.
    assert metrics["checkpoint_rows_appended"]["value"] <= 8
    scenario = warehouse.scenario("A")
    assert scenario.read_view() == scenario.expected()
    assert (7, 2, 10) in scenario.read_view()
    warehouse.close()


@pytest.mark.parametrize("seed", range(8))
def test_randomized_stream_matches_recomputation(seed):
    """Random insert/delete streams: incremental aggregates stay exact."""
    import random

    rng = random.Random(seed)
    db = Database()
    rows = [(rng.choice("abc"), rng.randint(1, 9)) for __ in range(30)]
    db.create_table("orders", ["region", "amount"], rows=rows)
    view = AggregateView(
        "v",
        ViewDefinition("base", db.ref("orders")),
        ("region",),
        (COUNT, AggregateSpec("sum", "amount")),
    )
    scenario = AggregateScenario(db, view)
    scenario.install()
    live = list(db["orders"])
    for __ in range(10):
        txn = UserTransaction(db)
        inserts = [(rng.choice("abcd"), rng.randint(1, 9)) for __ in range(rng.randint(0, 4))]
        if inserts:
            txn.insert("orders", inserts)
            live.extend(inserts)
        if live and rng.random() < 0.7:
            victims = [live.pop(rng.randrange(len(live))) for __ in range(min(3, len(live)))]
            txn.delete("orders", victims)
        if txn.is_empty():
            continue
        scenario.execute(txn)
        scenario.check_invariant()
        if rng.random() < 0.5:
            scenario.refresh()
            assert scenario.is_consistent()
    scenario.refresh()
    assert scenario.is_consistent()


class TestAggregateOverJoin:
    def test_example_1_1_with_aggregation(self):
        """The practical form of Example 1.1: quantity totals per customer."""
        from repro.sqlfront import sql_to_view

        db = Database()
        db.create_table(
            "customer", ["custId", "name", "address", "score"],
            rows=[(1, "ann", "x", "High"), (2, "bob", "y", "High")],
        )
        db.create_table(
            "sales", ["custId", "itemNo", "quantity", "salesPrice"],
            rows=[(1, 10, 2, 5.0), (1, 11, 3, 2.0), (2, 12, 1, 9.0)],
        )
        base = sql_to_view(
            """CREATE VIEW hv AS
               SELECT c.custId, s.quantity FROM customer c, sales s
               WHERE c.custId = s.custId AND c.score = 'High'""",
            db,
        )
        view = AggregateView(
            "qty_by_customer", base, ("custId",), (COUNT, AggregateSpec("sum", "quantity"))
        )
        scenario = AggregateScenario(db, view)
        scenario.install()
        assert scenario.read_view() == Bag([(1, 2, 5), (2, 1, 1)])
        scenario.execute(UserTransaction(db).insert("sales", [(1, 13, 10, 1.0)]))
        scenario.refresh()
        assert scenario.read_view() == Bag([(1, 3, 15), (2, 1, 1)])
