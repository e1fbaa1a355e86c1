"""Pin the E1–E16 experiments to the interpreted engine.

The experiments reproduce the *paper's* cost model: their assertions
(per-transaction overhead ratios, refresh-vs-recompute speedups, scaling
slopes) are statements about the algorithms of Figure 3 under a plain
scan/join executor, and several would change shape under the compiled
engine — e.g. index-probe joins make full recomputation nearly as cheap
as incremental maintenance on small bases, collapsing the E7 speedup the
paper predicts.  Running them interpreted keeps E1–E16 an apples-to-
apples reproduction and a stable oracle.

The engines' own numbers are measured by the pipeline benchmark
(``python3 bench/pipeline/run.py``; see ``docs/performance.md``), whose
engine grid re-runs ``backlog_refresh`` and ``multiview_group`` under
every engine against the interpreted oracle.  An experiment that
prices an engine-level mechanism rather than the paper's cost model
(E19's sanitizer wall ratio) names its engine explicitly.
"""

import os

import pytest

from repro.exec import ENV_VAR, INTERPRETED


@pytest.fixture(autouse=True)
def _interpreted_engine(monkeypatch):
    monkeypatch.setenv(ENV_VAR, INTERPRETED)


os.environ.setdefault(ENV_VAR, INTERPRETED)
