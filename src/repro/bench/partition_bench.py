"""Partitioned-maintenance benchmark (E21): ``python -m repro.bench.partition_bench``.

Measures affected-key pruning + partition-at-a-time apply
(:mod:`repro.core.partition_refresh` over a
:class:`~repro.storage.partition.PartitionedDatabase`) against the
unpartitioned whole-table refresh on the retail workload, and writes
``BENCH_partition.json``:

* **unpartitioned** — the baseline: a plain database on the same
  engine; ``refresh_BL`` evaluates the post-update deltas against
  ``PAST`` of the *whole* base tables and re-writes the MV through the
  generic plan path.
* **partitioned** — the subject: hash-partitioned base tables, the
  affected-key set extracted from the pending logs, base references
  rewritten to restricted (indexed) lookups, and the MV patched
  partition-by-partition via ``apply_parts``.

The sweep scales the ``sales`` table (10^5 smoke, 10^5 and 10^6 full)
while each refresh epoch's update stream touches roughly **0.1 % of
the partition keys** — the skewed-churn regime the paper's deferred
scenarios target, where refresh cost should track the affected slice,
not the table.

Correctness is checked two ways after every sweep point: the
partitioned MV must be bag-identical to the unpartitioned baseline's,
and both must digest-match a from-scratch evaluation of the view query
on the **interpreted oracle** over the final base state
(:func:`repro.robustness.journal.bag_digest`).

Usage::

    python -m repro.bench.partition_bench [--smoke] [--output PATH]

``--smoke`` shrinks the workload for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.algebra.evaluation import CostCounter, evaluate
from repro.core.scenarios import BaseLogScenario
from repro.exec import COMPILED
from repro.robustness.journal import bag_digest
from repro.sqlfront.compiler import sql_to_view
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload

__all__ = ["main", "run_e21", "run_all", "SCALES", "SMOKE_SCALES"]

#: (sales rows, engine) sweep points; the acceptance gate reads the 10^6 one.
SCALES = ((100_000, COMPILED), (1_000_000, COMPILED))
SMOKE_SCALES = ((20_000, COMPILED),)

#: Partitions declared per base table (and inherited by the MV).
PARTS = 32
#: Refresh epochs measured per sweep point.
EPOCHS = 3
#: Transactions per epoch; with ``txn_inserts`` sales rows each against
#: ``rows // CUSTOMER_ROW_RATIO`` customers this touches ~0.1 % of keys.
TXNS_PER_EPOCH = 2
CUSTOMER_ROW_RATIO = 50


def _config(rows: int) -> RetailConfig:
    return RetailConfig(
        customers=max(200, rows // CUSTOMER_ROW_RATIO),
        items=500,
        initial_sales=rows,
        txn_inserts=10,
        delete_fraction=0.3,
        promotion_fraction=0.2,
        seed=21,
    )


def _build(rows: int, mode: str, *, partitioned: bool):
    db = PartitionedDatabase(exec_mode=mode) if partitioned else Database(exec_mode=mode)
    workload = RetailWorkload(_config(rows))
    workload.setup_database(db)
    if partitioned:
        db.declare_partitioning("customer", "custId", parts=PARTS, domain="custId")
        db.declare_partitioning("sales", "custId", parts=PARTS, domain="custId")
    view = sql_to_view(VIEW_SQL, db)
    counter = CostCounter()
    scenario = BaseLogScenario(db, view, counter=counter)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scenario.install()
    return db, workload, scenario


def _drive(db, workload, scenario) -> list[dict[str, float]]:
    """Run the epochs; per-epoch refresh wall and tuple-op counts."""
    epochs: list[dict[str, float]] = []
    counter = scenario.counter
    log = scenario.log
    for __ in range(EPOCHS):
        for txn in workload.transactions(db, TXNS_PER_EPOCH):
            scenario.execute(txn)
        affected = set()
        for table in ("sales", "customer"):  # custId is column 0 in both
            for name in (log.delete_ref(table).name, log.insert_ref(table).name):
                for row in db[name].support:
                    affected.add(row[0])
        marker = counter.tuples_out
        touched = counter.partitions_touched
        start = time.perf_counter()
        scenario.refresh()
        epochs.append(
            {
                "wall_s": round(time.perf_counter() - start, 6),
                "ops": counter.tuples_out - marker,
                "affected_keys": len(affected),
                "partitions_touched": counter.partitions_touched - touched,
            }
        )
    return epochs


def _oracle_digest(db, view) -> str:
    """Digest of the view query evaluated on the interpreted oracle."""
    state = {name: db[name] for name in view.base_tables()}
    return bag_digest(evaluate(view.query, state))


def run_e21(rows: int, mode: str) -> dict[str, object]:
    """One sweep point: unpartitioned vs partitioned refresh at ``rows``."""
    base_db, base_w, base_s = _build(rows, mode, partitioned=False)
    part_db, part_w, part_s = _build(rows, mode, partitioned=True)
    assert part_s._pmaint is not None, "partitioned fast path failed to install"

    base_epochs = _drive(base_db, base_w, base_s)
    part_epochs = _drive(part_db, part_w, part_s)

    base_view = base_s.read_view()
    part_view = part_s.read_view()
    digest = bag_digest(part_view)
    oracle = _oracle_digest(part_db, part_s.view)
    identical = base_view == part_view and digest == oracle

    base_wall = sum(epoch["wall_s"] for epoch in base_epochs)
    part_wall = sum(epoch["wall_s"] for epoch in part_epochs)
    base_ops = sum(epoch["ops"] for epoch in base_epochs)
    part_ops = sum(epoch["ops"] for epoch in part_epochs)
    config = _config(rows)
    affected = max(epoch["affected_keys"] for epoch in part_epochs)
    return {
        "rows": rows,
        "mode": mode,
        "parts": PARTS,
        "customers": config.customers,
        "affected_key_fraction": round(affected / config.customers, 6),
        "unpartitioned": {"epochs": base_epochs, "wall_s": round(base_wall, 6), "ops": base_ops},
        "partitioned": {
            "epochs": part_epochs,
            "wall_s": round(part_wall, 6),
            "ops": part_ops,
            "partitions_touched": part_s.counter.partitions_touched,
            "partition_prunes": part_s.counter.partition_prunes,
            "partition_fallbacks": part_s.counter.partition_fallbacks,
        },
        "wall_speedup": round(base_wall / part_wall, 2) if part_wall else None,
        "tuple_op_reduction": round(base_ops / part_ops, 2) if part_ops else None,
        "digest": digest,
        "oracle_digest": oracle,
        "digest_identical": identical,
    }


def run_all(*, smoke: bool = False) -> dict[str, object]:
    scales = SMOKE_SCALES if smoke else SCALES
    points = [run_e21(rows, mode) for rows, mode in scales]
    return {
        "benchmark": "repro.bench.partition_bench",
        "smoke": smoke,
        "parts": PARTS,
        "epochs": EPOCHS,
        "experiments": {
            "E21_partition_pruning": {
                f"{point['mode']}@{point['rows']}": point for point in points
            }
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="shrunk workload (for CI)")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON (default: BENCH_partition.json at the repo root)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None:
        output = Path(__file__).resolve().parents[3] / "BENCH_partition.json"

    results = run_all(smoke=args.smoke)
    output.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")

    print(f"wrote {output}")
    failed = False
    for label, point in results["experiments"]["E21_partition_pruning"].items():
        print(
            f"E21 [{label}]: {point['unpartitioned']['wall_s']}s -> "
            f"{point['partitioned']['wall_s']}s wall ({point['wall_speedup']}x), "
            f"{point['tuple_op_reduction']}x tuple-ops, "
            f"{point['partitioned']['partitions_touched']} partitions touched, "
            f"affected keys {point['affected_key_fraction'] * 100:.2f}%, "
            f"digest {'ok' if point['digest_identical'] else 'MISMATCH'}"
        )
        failed = failed or not point["digest_identical"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
