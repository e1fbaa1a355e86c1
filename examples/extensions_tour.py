"""Tour of the Section 7 future-work extensions, implemented.

1. **Shared sequenced log** — per-transaction logging cost independent
   of how many views are maintained.
2. **Query-scoped refresh** — make just the slice of the view a query
   needs fresh, leaving cold differentials pending.
3. **Reader-blocking simulation** — how much do refresh critical
   sections delay concurrent readers under different policies?

Run:  python examples/extensions_tour.py
"""

from repro.algebra.predicates import Comparison, attr, const
from repro.core import CombinedScenario, UserTransaction, ViewDefinition
from repro.extensions import (
    AggregateScenario,
    AggregateSpec,
    AggregateView,
    BlockingSimulation,
    scoped_query,
)
from repro.storage.database import Database
from repro.warehouse import ViewManager

# Manifest for `python -m repro lint examples/extensions_tour.py`.  The
# tour builds its views programmatically; the equivalent SQL is linted.
LINT_SCHEMA = "CREATE TABLE orders (id, region)"
LINT_QUERIES = {
    "V": "SELECT id, region FROM orders",
    "east_slice": "SELECT id, region FROM orders WHERE region = 'east'",
}


def shared_log_demo() -> None:
    print("1. shared sequenced log: cost per transaction vs number of views")
    for view_count in (1, 4, 16):
        manager = ViewManager()
        manager.create_table("orders", ["id", "region"], rows=[(1, "east"), (2, "west")])
        for index in range(view_count):
            manager.define_view(f"V{index}", manager.db.ref("orders"), scenario="shared_log")
        before = manager.counter.tuples_out
        manager.transaction().insert("orders", [(3, "east")]).run()
        cost = manager.counter.tuples_out - before
        print(f"   {view_count:>2} views -> {cost} tuple-ops per transaction")
    print("   (a per-view log would scale linearly with the view count)\n")


def scoped_refresh_demo() -> None:
    print("2. query-scoped refresh: freshen only the 'east' slice")
    db = Database()
    db.create_table("orders", ["id", "region"], rows=[(1, "east"), (2, "west")])
    scenario = CombinedScenario(db, ViewDefinition("V", db.ref("orders")))
    scenario.install()
    scenario.execute(
        UserTransaction(db).insert("orders", [(3, "east"), (4, "west"), (5, "west")])
    )
    east = Comparison("=", attr("region"), const("east"))
    fresh_east = scoped_query(scenario, east)
    print("   fresh east slice:", sorted(fresh_east))
    stale_view = scenario.read_view()
    print("   west rows still pending:", (4, "west") not in stale_view)
    scenario.check_invariant()
    print("   scenario invariant still holds: True\n")


def blocking_demo() -> None:
    print("3. reader blocking: one big nightly lock vs many tiny ones")
    sim = lambda: BlockingSimulation(reader_rate=2.0, horizon=86_400.0, seed=9)
    nightly = sim().run([(43_200.0, 120.0)])  # one 2-minute lock at noon
    hourly = sim().run([(3_600.0 * h, 0.5) for h in range(1, 24)])  # 24 x 0.5 s
    print(
        f"   nightly big refresh : {nightly.blocked:>4} readers blocked, "
        f"max wait {nightly.max_wait():6.1f}s"
    )
    print(
        f"   tiny partial locks  : {hourly.blocked:>4} readers blocked, "
        f"max wait {hourly.max_wait():6.1f}s"
    )
    print("   (Policy 2's precomputed differentials are the tiny-lock case)")


def aggregate_demo() -> None:
    print("\n4. incremental aggregates: revenue per region, maintained from deltas")
    db = Database()
    db.create_table(
        "orders", ["region", "amount"], rows=[("east", 10), ("east", 5), ("west", 7)]
    )
    view = AggregateView(
        "revenue",
        ViewDefinition("base", db.ref("orders")),
        group_by=("region",),
        aggregates=(AggregateSpec("count"), AggregateSpec("sum", "amount")),
    )
    scenario = AggregateScenario(db, view)
    scenario.install()
    print("   initial:", sorted(scenario.read_view()))
    scenario.execute(
        UserTransaction(db).insert("orders", [("east", 100)]).delete("orders", [("west", 7)])
    )
    scenario.refresh()
    print("   after a transaction + refresh:", sorted(scenario.read_view()))
    print("   consistent with recomputation:", scenario.is_consistent())


if __name__ == "__main__":
    shared_log_demo()
    scoped_refresh_demo()
    blocking_demo()
    aggregate_demo()
