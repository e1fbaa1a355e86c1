"""Maintenance work tracks the delta, not the base table — as a count.

The paper's downtime argument (§5.3) and Figure 2's Product rule only pay
off if ``Del(E) × (F ∸ Del(F))`` is driven from the delta side.  This is
the guard: the same backlog — a few inserted sales, one re-scored
customer whose number of sales is held fixed — is maintained over a
2 000-row and a 20 000-row ``sales`` table, and the tuple-operation
count of the step must be **identical**.  Counts repeat exactly, so this
is a hard assertion, not a timing; before the join terms and keyed DML
probed the maintained hash indexes every one of these steps scanned
``sales`` and the count grew with it.

On a partitioned database the same guard holds the pruned refresh to the
flat one's standard and to "prune once, bind per epoch": identical
counts at both sizes, no plan compiled and no call into the pruning
analysis after the view is installed.

The guarantee belongs to the engine that keeps indexes (compiled).  The
interpreted oracle re-scans by design and the sqlite tier counts
pushed-down rows instead.

The second half holds the read side to the same standard: a keyed read
of a *pinned* snapshot costs one probe plus its bucket whether the view
has 300 rows or 30 000, each version of the view's bag builds its index
at most once however many snapshots share it, and an unkeyed read is a
single fused pass.
"""

from __future__ import annotations

import pytest

import repro.analysis.partitioning as partitioning
import repro.core.partition_refresh as partition_refresh
from repro.algebra.evaluation import CostCounter
from repro.exec import COMPILED, default_exec_mode
from repro.serve import ServeConfig, ViewServer
from repro.sqlfront.compiler import sql_to_expr
from repro.storage.partition import PartitionedDatabase
from repro.warehouse.manager import ViewManager

pytestmark = pytest.mark.skipif(
    default_exec_mode() != COMPILED,
    reason="delta-proportional access paths are the index-keeping engine's guarantee",
)

SIZES = (2_000, 20_000)
CUSTOMERS = 200
RESCORED = 7  # exactly FAN_OUT sales at every size
FAN_OUT = 5
JOIN_VIEW = (
    "SELECT c.custId, c.name, c.score, s.itemNo, s.quantity FROM customer c, sales s "
    "WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'"
)
GROUP_VIEWS = (
    JOIN_VIEW,
    "SELECT c.custId, c.name, s.itemNo FROM customer c, sales s "
    "WHERE c.custId = s.custId AND c.score = 'High'",
    "SELECT custId, itemNo, quantity FROM sales WHERE quantity != 0",
)
BACKLOG = (
    "INSERT INTO sales VALUES (11, 900, 2, 9.5), (12, 901, 0, 1.0), (13, 902, 1, 2.5)",
    f"UPDATE customer SET score = 'Low' WHERE custId = {RESCORED}",
    "INSERT INTO sales VALUES (11, 903, 4, 3.0)",
)


def warehouse(sales: int, views: dict[str, str], scenario: str, *, parts: int = 0) -> ViewManager:
    manager = ViewManager(PartitionedDatabase() if parts else None)
    manager.create_table("customer", ("custId", "name", "address", "score"))
    manager.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
    manager.load(
        "customer",
        [(c, f"customer-{c}", f"{c} Main St", "High" if c < 20 else "Low") for c in range(CUSTOMERS)],
    )
    others = [c for c in range(CUSTOMERS) if c != RESCORED]
    rows = [(RESCORED, item, 1 + item % 3, 5.0) for item in range(FAN_OUT)]
    rows += [(others[i % len(others)], i, i % 4, float(i)) for i in range(sales - FAN_OUT)]
    manager.load("sales", rows)
    for table in ("customer", "sales") if parts else ():
        manager.db.declare_partitioning(table, "custId", parts=parts, domain="custId")
    for name, sql in views.items():
        manager.define_view(name, sql, scenario=scenario)
    return manager


def ops_of(manager: ViewManager, step) -> tuple[int, dict[str, int]]:
    """Tuple-ops of one call, in total and by operator."""
    counter = manager.counter
    total, before = counter.tuples_out, dict(counter.by_operator)
    step()
    return counter.tuples_out - total, {
        op: count - before.get(op, 0)
        for op, count in counter.by_operator.items()
        if count != before.get(op, 0)
    }


def measured(scenario: str, views: dict[str, str], step_of) -> list[tuple[int, dict[str, int]]]:
    results = []
    for sales in SIZES:
        manager = warehouse(sales, views, scenario)
        for script in BACKLOG:
            manager.execute_sql(script)
        results.append(ops_of(manager, step_of(manager)))
        manager.check_invariants()
    return results


def assert_size_independent(results) -> None:
    (small_total, small_ops), (large_total, large_ops) = results
    assert small_ops == large_ops
    assert small_total == large_total
    # ...and small in absolute terms: nowhere near one pass over sales.
    assert large_total < SIZES[0] // 4, large_ops
    assert large_ops.get("scan", 0) < 100, large_ops


def test_base_log_refresh_with_a_rescore():
    results = measured("base_log", {"V": JOIN_VIEW}, lambda m: lambda: m.refresh("V"))
    assert_size_independent(results)
    # The re-scored customer's sales came out of the sales index, bucket
    # by bucket, corrected by this epoch's logged inserts.
    assert results[0][1]["index_join_patched"] >= FAN_OUT


def test_partitioned_base_log_refresh_is_pruned_once_and_bound_per_epoch(monkeypatch):
    analysis_calls = []
    for module, name in (
        (partitioning, "prune_expr"),
        (partitioning, "analyze_deltas"),
        (partition_refresh, "analyze_deltas"),
    ):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            analysis_calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    results = []
    for sales in SIZES:
        manager = warehouse(sales, {"V": JOIN_VIEW}, "base_log", parts=16)
        assert manager.scenario("V").partition_probe == "accepted"
        installed = len(analysis_calls)
        assert installed  # the one prune, at define_view
        counter = manager.counter
        epochs = (
            BACKLOG,
            (f"UPDATE customer SET score = 'High' WHERE custId = {RESCORED}",),  # re-score only
            ("INSERT INTO sales VALUES (150, 990, 1, 1.0)",),  # sales only; a key the view lacks
        )
        for epoch, scripts in enumerate(epochs):
            for script in scripts:
                manager.execute_sql(script)
            before = counter.plan_misses, counter.partition_prunes, counter.partitions_touched
            affected = manager.scenario("V")._pmaint.epoch_keys()["custId"]
            ops = ops_of(manager, lambda: manager.refresh("V"))
            # Compiled and primed beside the unpruned pair at install: not
            # even the first epoch compiles, and none re-runs the analysis.
            assert counter.plan_misses == before[0]
            assert len(analysis_calls) == installed
            assert counter.partition_prunes - before[1] == 4
            assert counter.partitions_touched - before[2] <= len(affected)
            assert counter.partition_fallbacks == 0
            manager.check_invariants()
            if epoch == 0:
                results.append(ops)
    assert_size_independent(results)
    # The same access paths as the flat database: the re-scored customer's
    # sales out of the sales index bucket by bucket, nothing copied out of
    # a base table first, no literal standing in for one.
    by_operator = results[0][1]
    assert counter.partitions_touched  # the MV was patched partition by partition
    assert by_operator["index_join_patched"] >= FAN_OUT
    assert "literal" not in by_operator and "partition_restrict" not in by_operator
    flat = measured("base_log", {"V": JOIN_VIEW}, lambda m: lambda: m.refresh("V"))
    assert results[0] == flat[0]


def test_combined_propagate_with_a_rescore():
    results = measured("combined", {"V": JOIN_VIEW}, lambda m: lambda: m.propagate("V"))
    assert_size_independent(results)


def test_shared_log_epoch_with_a_rescore():
    views = {f"V{index}": sql for index, sql in enumerate(GROUP_VIEWS)}
    results = measured("shared_log", views, lambda m: lambda: m.refresh_group())
    assert_size_independent(results)


def test_keyed_delete_script():
    script = f"DELETE FROM sales WHERE custId = {RESCORED} AND itemNo = 3"
    results = []
    for sales in SIZES:
        manager = warehouse(sales, {"V": JOIN_VIEW}, "base_log")
        results.append(ops_of(manager, lambda: manager.execute_sql(script)))
        assert manager.sql(f"SELECT itemNo FROM sales WHERE custId = {RESCORED}").distinct_count() == FAN_OUT - 1
    assert_size_independent(results)
    # Answered from the sales[custId] index define_view primed: one
    # probe, the customer's bucket examined, no second index on sales.
    assert results[0][1]["index_select"] == FAN_OUT
    assert [index.positions for index in manager.db.indexes.indexes_on("sales")] == [(0,)]


# ----------------------------------------------------------------------
# Pinned reads: access delay tracks the answer, not the view
# ----------------------------------------------------------------------

VIEW_SIZES = (300, 30_000)
SALES_VIEW = "SELECT custId, itemNo, quantity FROM sales WHERE quantity != 0"
KEYED_READ = "SELECT itemNo, quantity FROM {mv} WHERE custId = {key}"
KEYS = (RESCORED, RESCORED + 1)  # FAN_OUT view rows each, at every size


def view_server(size: int) -> tuple[ViewServer, str]:
    """A served single-table view of ``size`` rows; returns it with its table name."""
    server = ViewServer(ServeConfig(k=2, m=7))
    server.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
    others = [c for c in range(CUSTOMERS) if c not in KEYS]
    rows = [(key, item, 1 + item % 3, 5.0) for key in KEYS for item in range(FAN_OUT)]
    rows += [(others[i % len(others)], i, 1 + i % 4, float(i)) for i in range(size - len(rows))]
    server.load("sales", rows)
    server.define_view("V", SALES_VIEW, scenario="combined")
    mv = server.manager.scenario("V").view.mv_table
    assert server.current.table(mv).distinct_count() == size
    return server, mv


def pinned_ops(handle, sql: str, db) -> dict[str, int]:
    counter = CostCounter()
    handle.evaluate(sql_to_expr(sql, db), counter=counter)
    return dict(counter.by_operator)


def test_keyed_pinned_read_costs_a_probe_and_its_bucket():
    results = []
    for size in VIEW_SIZES:
        server, mv = view_server(size)
        with server.pin() as handle:
            first = pinned_ops(handle, KEYED_READ.format(mv=mv, key=KEYS[0]), server.db)
            # The first keyed read of a version pays for the index...
            assert first.pop("index_build") == size
            # ...every later one (another key: not a memo hit) only probes it.
            second = pinned_ops(handle, KEYED_READ.format(mv=mv, key=KEYS[1]), server.db)
        assert first == second
        results.append(second)
    assert results[0] == results[1] == {"index_probe": 1, "index_select": FAN_OUT}


def test_pinned_index_is_built_once_per_view_version_however_many_snapshots_share_it():
    server, mv = view_server(VIEW_SIZES[0])
    builds = []

    def read(handle, key) -> None:
        ops = pinned_ops(handle, KEYED_READ.format(mv=mv, key=key), server.db)
        assert "scan" not in ops
        builds.append(ops.get("index_build", 0))

    before = server.pin()
    server.execute_sql("INSERT INTO sales VALUES (11, 900, 2, 9.5)")  # logged; MV untouched
    after = server.pin()
    assert after.snapshot_id != before.snapshot_id
    assert after.table(mv) is before.table(mv)
    read(before, KEYS[0])
    read(after, KEYS[1])
    read(before, KEYS[1])
    server.read_fresh("V")  # a refresh patches MV: a new bag, a new version
    with server.pin() as refreshed:
        read(refreshed, KEYS[0])
        read(refreshed, KEYS[1])
    read(after, 11)
    assert builds == [VIEW_SIZES[0], 0, 0, VIEW_SIZES[0] + 1, 0, 0]
    before.release()
    after.release()


def test_a_refresh_with_an_empty_delta_keeps_the_pinned_index():
    """``(MV ∸ φ) ⊎ φ`` is the same bag: a write (new version, new snapshot)
    whose readers find the index the last version's readers built."""
    from repro import obs

    server, mv = view_server(VIEW_SIZES[0])
    server.read_fresh("V")
    with server.pin() as handle:
        ops = pinned_ops(handle, KEYED_READ.format(mv=mv, key=KEYS[0]), server.db)
        assert ops["index_build"] == VIEW_SIZES[0]
        bag, version = handle.table(mv), server.db.version_of(mv)
    with obs.observed() as stack:
        server.read_fresh("V")  # nothing recorded since: both deltas are empty
        assert server.db.version_of(mv) > version
        with server.pin() as refreshed:
            assert refreshed.table(mv) is bag
            ops = pinned_ops(refreshed, KEYED_READ.format(mv=mv, key=KEYS[1]), server.db)
        assert ops == {"index_probe": 1, "index_select": FAN_OUT}
        assert "pinned_index_builds" not in stack.metrics.snapshot()


def test_unkeyed_pinned_read_is_one_fused_pass():
    for size in VIEW_SIZES:
        server, mv = view_server(size)
        with server.pin() as handle:
            ops = pinned_ops(handle, f"SELECT itemNo FROM {mv} WHERE quantity > 2", server.db)
        assert ops == {"scan": size}
