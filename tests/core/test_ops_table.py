"""Static picture ≡ executed code, literally.

Every scenario declares each maintenance operation once, as a
:class:`~repro.core.ops.MaintenanceOp`; the runner executes that value
and the effect analyzer derives its footprint from the same value.  This
table holds the two against each other, cell by cell:

* the tables an executed op actually wrote (version-stamp diff) are
  within the derived ``OpEffects.writes``;
* the reader-visible tables the derivation says it writes were written
  inside an exclusive :class:`~repro.storage.locks.LockLedger` section;
* its tuple-op counts equal those the same seeded driver recorded at the
  commit before the ops became values (``ops_table_counts.json``).  One
  cell pair was re-recorded since: ``shared_log/* refresh`` reads 42 / 13
  (was 36 / 11) from the commit that made the shared log's delta pair one
  expression over bound leaves — the driver's transactions never touch
  ``C``, so the old per-epoch pair had ``C``'s literally empty delta
  folded away statically, where the one pair finds it empty at run time
  and still records the two unions (3 delta rows each) whose other operand
  that was.  Delta-sized; nothing reads a base table more.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.effects import op_effects
from tests.core.ops_table_cases import CASES, COUNTS_PATH, KINDS, LAYOUTS, build, drive

RECORDED = json.loads(COUNTS_PATH.read_text())
BASE_TABLES = {"C", "S"}


def declared_op(cell, kind):
    scenario = cell.scenario
    if cell.case == "C_partial_first" and kind == "refresh":
        return scenario._refresh_orders["partial_first"]
    return scenario.ops.get(kind)


@pytest.fixture(scope="module", params=[(case, layout) for case in CASES for layout in LAYOUTS], ids="/".join)
def cell(request):
    built = build(*request.param)
    drive(built)
    return built


@pytest.mark.parametrize("kind", KINDS)
def test_executed_op_stays_inside_its_derived_effects(cell, kind):
    op = declared_op(cell, kind)
    if op is None:
        assert kind not in cell.observed, f"{cell.case} ran an op its table does not declare"
        return
    seen = cell.observed[kind]
    effects = op_effects(cell.scenario, op)
    # makesafe rides on the user's own base-table patches.
    assert seen.written - BASE_TABLES <= effects.writes
    if kind != "makesafe":  # makesafe_IM patches MV inside the user transaction's own atomicity
        mv_writes = frozenset().union(*(step.effects.mv_writes() for step in effects.steps))
        assert seen.written_locked >= mv_writes


@pytest.mark.parametrize("kind", KINDS)
def test_tuple_ops_match_the_parent_commit(cell, kind):
    recorded = RECORDED[f"{cell.case}/{cell.layout}"]
    assert set(cell.observed) == set(recorded)
    if kind in recorded:
        assert cell.observed[kind].counts == recorded[kind]


def test_every_declared_kind_was_exercised(cell):
    assert set(cell.observed) == set(cell.scenario.ops)
