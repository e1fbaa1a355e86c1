"""E14 — extension: incremental aggregate-view maintenance.

Example 1.1's footnote: "In practice, views with aggregation are more
likely."  The extension maintains COUNT/SUM views from the base query's
differential tables; this experiment verifies that (i) the incremental
aggregates exactly match recomputation across a retail day, and
(ii) aggregate refresh work is delta-proportional while recomputation
scales with the base-view size.
"""

from benchmarks.common import ExperimentResult, retail_setup, write_report
from repro.algebra.evaluation import CostCounter
from repro.extensions.aggregates import AggregateScenario, AggregateSpec, AggregateView
from repro.sqlfront import sql_to_view

BASE_SQL = """
CREATE VIEW hv AS
SELECT c.custId, s.quantity FROM customer c, sales s
WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'
"""


def build(initial_sales: int):
    db, __, workload = retail_setup(initial_sales=initial_sales, txn_inserts=10)
    base = sql_to_view(BASE_SQL, db)
    view = AggregateView(
        "qty_by_customer",
        base,
        group_by=("custId",),
        aggregates=(AggregateSpec("count"), AggregateSpec("sum", "quantity")),
    )
    scenario = AggregateScenario(db, view)
    scenario.install()
    return db, workload, scenario


def measure(initial_sales: int, txns: int):
    db, workload, scenario = build(initial_sales)
    for txn in workload.transactions(db, txns):
        scenario.execute(txn)
    scenario.propagate()
    before = scenario.counter.tuples_out
    scenario.partial_refresh()
    incremental_ops = scenario.counter.tuples_out - before

    probe = CostCounter()
    recompute_value = db.evaluate(scenario.view.query, counter=probe)
    recompute_ops = probe.tuples_out  # recomputation must rebuild the base join

    consistent = scenario.is_consistent()
    return {
        "base_rows": initial_sales,
        "txns": txns,
        "incremental_ops": incremental_ops,
        "recompute_ops": recompute_ops,
        "speedup": round(recompute_ops / max(incremental_ops, 1), 1),
        "exact": consistent,
    }


def run_experiment():
    return [
        measure(initial_sales=500, txns=5),
        measure(initial_sales=2000, txns=5),
        measure(initial_sales=8000, txns=5),
    ]


def test_e14_aggregate_views(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    result = ExperimentResult("E14", "aggregate views: incremental refresh vs recomputation")
    for row in rows:
        result.add(**row)
    write_report(result)

    # Exact at every scale.
    assert all(row["exact"] for row in rows)
    # Recomputation grows with base size; incremental work does not.
    incremental = [row["incremental_ops"] for row in rows]
    recompute = [row["recompute_ops"] for row in rows]
    assert recompute[-1] > 8 * recompute[0]
    assert incremental[-1] < incremental[0] * 3
    assert rows[-1]["speedup"] > rows[0]["speedup"]
