"""The 3-engine chaos grid: crash schedules and transient storms.

The acceptance bar of the self-healing layer, engine by engine: for
>= 50 seeded random crash schedules run on *each* of the three execution
tiers, killing and recovering the retail workload at every scheduled
point must leave the final view contents **bit-identical** — same
content digests — to an uninterrupted run on the interpreted oracle
engine.

Transient-fault storms are the second axis: with every ``flaky-*`` seam
raining seeded ``database is locked`` errors at p = 0.05, a warehouse on
any engine must complete every refresh with zero client-visible errors
(the sqlite tier falls back to its compiled plans), and any demotions
the storm forces must be visible in the metrics registry, never in an
exception.
"""

import os
import random

import pytest

from repro import obs
from repro.exec import MODES
from repro.robustness.faults import INJECTOR
from repro.robustness.harness import RetailCrashHarness, random_schedule
from repro.robustness.journal import bag_digest
from repro.robustness.recovery import recover

# Every test derives its rng from (SEED, engine, batch) alone, so the
# grid is order-independent: safe under pytest-randomly shuffling, and
# `-m chaos -p no:randomly` with REPRO_CHAOS_SCHEDULES pinned replays
# one exact matrix.
pytestmark = pytest.mark.chaos

SEED = 1996  # pinned: the year of the paper
# The acceptance bar is 50 schedules per engine, what the test suite
# runs; REPRO_CHAOS_SCHEDULES dials it down for a quick local replay.
SCHEDULES_PER_ENGINE = int(os.environ.get("REPRO_CHAOS_SCHEDULES", "50"))
BATCHES = 5

#: The grid's engine axis: ``exec_mode`` is the only engine setting.
ENGINES = MODES


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.fixture(scope="module")
def oracle_digests(tmp_path_factory):
    """Content digests of an uninterrupted run on the interpreted oracle."""
    harness = RetailCrashHarness(
        tmp_path_factory.mktemp("oracle") / "wh.db", exec_mode="interpreted"
    )
    result = harness.run()
    assert result.crashes == 0
    return {name: bag_digest(bag) for name, bag in result.contents.items()}


def digests(result):
    return {name: bag_digest(bag) for name, bag in result.contents.items()}


@pytest.mark.parametrize("engine", ENGINES)
def test_uninterrupted_run_matches_oracle_bit_for_bit(tmp_path, oracle_digests, engine):
    harness = RetailCrashHarness(tmp_path / "wh.db", exec_mode=engine)
    result = harness.run()
    assert result.crashes == 0
    assert result.green
    assert digests(result) == oracle_digests


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("batch", range(BATCHES))
def test_chaos_grid_crash_schedules_converge(tmp_path, oracle_digests, engine, batch):
    """50 seeded random crash schedules per engine, digest-checked."""
    rng = random.Random(SEED + 100 * ENGINES.index(engine) + batch)
    harness = RetailCrashHarness(tmp_path / "wh.db", exec_mode=engine)
    for index in range(SCHEDULES_PER_ENGINE // BATCHES):
        schedule = random_schedule(rng)
        result = harness.run(schedule)
        context = f"{engine} batch {batch} schedule {index}: {schedule}"
        assert result.green, context
        assert digests(result) == oracle_digests, context
        # Recovery after the dust settles is a no-op (idempotence).
        report = recover(harness.path)
        assert report.action == "none" and report.green, context


@pytest.mark.parametrize("engine", ENGINES)
def test_storm_completes_with_zero_client_errors(tmp_path, oracle_digests, engine):
    """p = 0.05 storm on every flaky seam: the workload never sees it."""
    harness = RetailCrashHarness(tmp_path / "wh.db", exec_mode=engine)
    stack = obs.enable(tracer=False, accounting=False)
    try:
        # run() raising anything at all would be a client-visible error.
        result = harness.run(storm_seed=SEED, storm_probability=0.05)
        counters = {
            name: snap["value"]
            for name, snap in stack.metrics.snapshot().items()
            if snap.get("type") == "counter"
        }
    finally:
        obs.disable()
    assert result.crashes == 0
    assert result.green
    assert digests(result) == oracle_digests
    if engine == "sqlite":
        # The sqlite tier visits flaky seams on every patch and every
        # evaluation, so a seeded p=0.05 storm is certain to have
        # rained — and been absorbed, not avoided.
        assert counters.get("faults_injected", 0) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_storm_and_crashes_composed(tmp_path, oracle_digests, engine):
    """Crash schedules and storms at once: recovery under bad weather."""
    rng = random.Random(SEED * 7 + ENGINES.index(engine))
    harness = RetailCrashHarness(tmp_path / "wh.db", exec_mode=engine)
    for index in range(3):
        schedule = random_schedule(rng)
        result = harness.run(
            schedule, storm_seed=SEED + index, storm_probability=0.05
        )
        context = f"{engine} schedule {index}: {schedule}"
        assert result.green, context
        assert digests(result) == oracle_digests, context


def test_sustained_storm_demotes_visibly(tmp_path, oracle_digests):
    """A storm heavy enough to exhaust retries demotes — in the metrics
    registry, not in the client's face."""
    harness = RetailCrashHarness(tmp_path / "wh.db", exec_mode="sqlite")
    stack = obs.enable(tracer=False, accounting=False)
    try:
        # Confined to the pushdown seam: raining p=0.75 on the
        # checkpoint's own write path would exhaust its retry budget
        # and legitimately fail the save — that is an availability
        # limit, not a fallback bug.
        result = harness.run(
            storm_seed=SEED,
            storm_probability=0.75,
            storm_points=frozenset({"flaky-pushdown-execute"}),
        )
        counters = {
            name: snap["value"]
            for name, snap in stack.metrics.snapshot().items()
            if snap.get("type") == "counter"
        }
    finally:
        obs.disable()
    assert result.crashes == 0
    assert result.green
    assert digests(result) == oracle_digests
    assert counters["engine_demotions"] >= 1
    assert counters["faults_injected"] > 0
