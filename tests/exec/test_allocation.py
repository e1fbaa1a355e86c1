"""Allocation is the O(|Δ|) ruler: peak bytes per operation at two base sizes.

Tuple-op counts (``test_delta_proportional.py``) cannot see a ``dict``
copy, and the clock's noise drowns one.  ``tracemalloc``'s peak bytes see
every copy and repeat exactly, so this module measures what an operation
allocates on Example 1.1's view (sales to High customers: 600 customers,
30 of them High) over 3 000 and over 30 000 ``sales`` rows.  The view,
its delta and the answer of each keyed read are the same shape at both
sizes; only the base and the view grow.

The rule.  An operation is **gated** once its bytes no longer scale with
the base; until then it is **reported**: listed in :data:`REPORTED` with
its measured ratio and the reason it scales, measured on every run and
shown in the test's output, but never failed on.  A change that makes a
reported operation flat moves it to the gated tests; nothing moves back.

Gated:

* the first keyed pinned read of a view version made by a one-row
  refresh, against a keyed read of an unchanged version
  (:data:`FIRST_READ_BOUND`).  The new version inherits the last
  version's index and patches it by the view delta, so the first read
  allocates the index's bucket map and one copied bucket, not an index
  over the whole view.  Measured 1.68× at 3k and 1.48× at 30k under the
  compiled engine (CPython 3.11); rebuilding the index instead read
  4.73× and 10.5×.  Pinned reads run the same lowering under every
  engine, so the gate holds under all three.

The reported operations are in :data:`REPORTED`, with their 30k ÷ 3k
ratios as measured under the compiled engine (the interpreted engine's
refresh allocates a larger fixed amount, so its ratio reads lower).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.serve import ServeConfig, ViewServer
from repro.sqlfront.compiler import sql_to_expr

SIZES = (3_000, 30_000)
CUSTOMERS = 600
HIGH_EVERY = 20  # 30 High customers of 600
VIEW_SQL = (
    "SELECT c.custId, c.name, c.score, s.itemNo, s.quantity FROM customer c, sales s "
    "WHERE c.custId = s.custId AND s.quantity != 0 AND c.score = 'High'"
)
KEYED_READ = "SELECT itemNo, quantity FROM {mv} WHERE custId = {key}"

#: Peak bytes of the first keyed read of a refreshed version, at most
#: this multiple of a keyed read of an unchanged version, at each size.
FIRST_READ_BOUND = 2.5

#: Operation -> (30k ÷ 3k bytes as last measured, why it scales).
REPORTED = {
    "txn": (8.38, "a one-row SQL insert patches sales: Bag.patch clones the table's dict (ROADMAP item 2(a))"),
    "refresh": (6.39, "a one-row refresh patches the view: Bag.patch clones its dict (ROADMAP item 2(a))"),
}


def _peak(operation) -> int:
    """Peak bytes ``operation`` allocated above what was live before it."""
    gc.collect()
    tracemalloc.reset_peak()
    live = tracemalloc.get_traced_memory()[0]
    operation()
    return tracemalloc.get_traced_memory()[1] - live


def _measure(sales: int) -> dict[str, int]:
    server = ViewServer(ServeConfig(k=2, m=7))
    server.create_table("customer", ("custId", "name", "address", "score"))
    server.create_table("sales", ("custId", "itemNo", "quantity", "salesPrice"))
    server.load(
        "customer",
        [(c, f"n{c}", f"a{c}", "High" if c % HIGH_EVERY == 0 else "Low") for c in range(CUSTOMERS)],
    )
    server.load("sales", [(i % CUSTOMERS, i, 1 + i % 4, 5.0) for i in range(sales)])
    server.define_view("V", VIEW_SQL, scenario="combined")
    mv = server.manager.scenario("V").view.mv_table
    high = range(0, CUSTOMERS, HIGH_EVERY)

    def read(key: int) -> None:
        with server.pin() as handle:
            assert handle.evaluate(sql_to_expr(KEYED_READ.format(mv=mv, key=key), server.db))

    # Warm: every plan is compiled and the current version indexed.
    server.execute_sql(f"INSERT INTO sales VALUES ({high[0]}, {10**6 - 1}, 2, 9.5)")
    server.read_fresh("V")
    read(high[0])
    read(high[1])
    tracemalloc.start()
    try:
        bytes_ = {"steady_read": _peak(lambda: read(high[2]))}
        bytes_["txn"] = _peak(lambda: server.execute_sql(f"INSERT INTO sales VALUES ({high[3]}, {10**6}, 2, 9.5)"))
        bytes_["refresh"] = _peak(lambda: server.read_fresh("V"))
        bytes_["first_read"] = _peak(lambda: read(high[4]))
    finally:
        tracemalloc.stop()
    return bytes_


@pytest.fixture(scope="module")
def measured() -> dict[int, dict[str, int]]:
    return {sales: _measure(sales) for sales in SIZES}


@pytest.mark.parametrize("sales", SIZES)
def test_first_read_of_a_refreshed_version_allocates_like_a_steady_read(measured, sales):
    bytes_ = measured[sales]
    ratio = bytes_["first_read"] / bytes_["steady_read"]
    assert ratio <= FIRST_READ_BOUND, (
        f"{sales} sales: the first keyed read after a one-row refresh allocated {bytes_['first_read']} B, "
        f"{ratio:.2f}x a steady read's {bytes_['steady_read']} B"
    )


@pytest.mark.parametrize("operation", sorted(REPORTED))
def test_reported_operations(measured, operation, record_property):
    """Measured and shown, never gated (see the module docstring)."""
    small, large = (measured[sales][operation] for sales in SIZES)
    ratio = large / small
    record_property(f"{operation}_bytes", f"{small} -> {large} ({ratio:.2f}x)")
    print(f"{operation}: {small} B at {SIZES[0]} sales, {large} B at {SIZES[1]} ({ratio:.2f}x)")
