"""E18 — extension: group refresh vs per-view refresh.

Section 7 leaves open how refresh work should scale when many views are
maintained together.  The group-refresh subsystem answers with three
layers — net-effect log compaction, one evaluation per distinct
``(pair, cursor)`` in an epoch, and a one-loop scheduler (each view runs
its own ``refresh`` op in registration order, a follower with its
leader's bags) — and this experiment measures the payoff on the retail
workload:

* the epoch's *evaluation* tuple-ops should be independent of the view
  count when views share structure: they scale with the number of
  *distinct* view structures, not with the number of registered views.
  Each view still patches its own ``MV``, so the epoch's lock-section
  tuple-ops (``apply_ops``, read off the ``LockLedger``) equal the
  per-view baseline's, view for view;
* the per-view baseline (each view refreshed in turn, no sharing) scales
  linearly, so the reduction at 16 shared-structure views must be ≥ 2×,
  with the shared evaluations doing it (``delta_cache_hits > 0``);
* compaction empties the shared log down to the net change, and the
  group result stays bag-equal to the per-view oracle.

The experiment runs on the interpreted engine like E1–E16 (see
``conftest.py``); the compiled engine's group epoch is measured by the
pipeline benchmark's ``multiview_group`` workload.
"""

from benchmarks.common import ExperimentResult, group_manager, write_report
from repro.exec import INTERPRETED

VIEW_COUNTS = (4, 8, 16)


def run_e18(mode: str, views: int) -> dict[str, object]:
    """One sweep point: per-view oracle vs one group epoch at ``views``."""
    baseline = group_manager(mode, views)
    subject = group_manager(mode, views)

    marker = baseline.counter.tuples_out
    baseline.ledger.reset()
    baseline.refresh_all()
    per_view = {
        "ops": baseline.counter.tuples_out - marker,
        "apply_ops": sum(section.tuple_ops for section in baseline.ledger.sections),
    }

    log_rows_before = subject.shared_log.log_size()
    marker = subject.counter.tuples_out
    hits_marker = subject.counter.delta_cache_hits
    subject.ledger.reset()
    subject.refresh_group()
    group = {
        "ops": subject.counter.tuples_out - marker,
        "apply_ops": sum(section.tuple_ops for section in subject.ledger.sections),
        "delta_cache_hits": subject.counter.delta_cache_hits - hits_marker,
        "log_rows_before": log_rows_before,
        "log_rows_after": subject.shared_log.log_size(),
    }
    group["eval_ops"] = group["ops"] - group["apply_ops"]

    for name in baseline.views():
        assert subject.query(name) == baseline.query(name), name
        assert not subject.is_stale(name), name

    reduction = round(per_view["ops"] / group["ops"], 2) if group["ops"] else None
    return {"views": views, "per_view": per_view, "group": group, "tuple_op_reduction": reduction}


def run_experiment():
    return {views: run_e18(INTERPRETED, views) for views in VIEW_COUNTS}


def test_e18_group_refresh_scales_with_distinct_structures(benchmark):
    points = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    result = ExperimentResult(
        "E18_group_refresh",
        description="per-view refresh vs one group epoch (interpreted engine)",
    )
    for views, point in points.items():
        result.add(
            views=views,
            per_view_ops=point["per_view"]["ops"],
            group_ops=point["group"]["ops"],
            group_eval_ops=point["group"]["eval_ops"],
            apply_ops=point["group"]["apply_ops"],
            reduction=point["tuple_op_reduction"],
            cache_hits=point["group"]["delta_cache_hits"],
            log_rows_before=point["group"]["log_rows_before"],
            log_rows_after=point["group"]["log_rows_after"],
        )
    write_report(result)

    sixteen = points[16]
    # The headline acceptance claim: >= 2x refresh tuple-op reduction for
    # 16 shared-structure views, driven by cross-view delta sharing.
    assert sixteen["tuple_op_reduction"] >= 2.0, sixteen
    assert sixteen["group"]["delta_cache_hits"] > 0, sixteen

    # The per-view baseline scales linearly with the view count ...
    assert points[16]["per_view"]["ops"] >= 3 * points[4]["per_view"]["ops"]
    # ... while the group epoch's evaluation work is independent of it
    # (all sweep points share the same four distinct view structures);
    # what grows is each view's own patch, the same as refreshing it alone.
    assert points[16]["group"]["eval_ops"] == points[4]["group"]["eval_ops"]
    for point in points.values():
        assert point["group"]["apply_ops"] == point["per_view"]["apply_ops"], point

    # Compaction drains the consumed log down to (at most) the net change.
    for point in points.values():
        assert point["group"]["log_rows_after"] <= point["group"]["log_rows_before"]
