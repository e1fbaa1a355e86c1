"""Unit tests for the fault injector itself."""

import sqlite3

import pytest

from repro.robustness.faults import (
    CRASH_POINTS,
    FAULT_POINTS,
    INJECTOR,
    STORM_POINTS,
    FaultInjector,
    InjectedCrash,
    fault_point,
)
from repro.storage.persistence import with_retry


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


class TestInjectedCrash:
    def test_is_not_an_ordinary_exception(self):
        # `except Exception` must not swallow a simulated process death.
        assert issubclass(InjectedCrash, BaseException)
        assert not issubclass(InjectedCrash, Exception)

    def test_carries_point(self):
        crash = InjectedCrash("crash-mid-apply")
        assert crash.point == "crash-mid-apply"
        assert "crash-mid-apply" in str(crash)


class TestArming:
    def test_disarmed_fault_point_is_noop(self):
        fault_point("crash-mid-apply")
        assert INJECTOR.hits == {}  # not even counted when inactive

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            INJECTOR.arm("crash-nowhere")
        with pytest.raises(ValueError, match="unknown fault point"):
            INJECTOR.arm_transient("crash-nowhere")

    def test_hit_numbers_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            INJECTOR.arm("crash-mid-apply", hit=0)

    def test_crash_on_nth_visit_one_shot(self):
        INJECTOR.arm("crash-mid-apply", hit=3)
        fault_point("crash-mid-apply")
        fault_point("crash-mid-apply")
        with pytest.raises(InjectedCrash):
            fault_point("crash-mid-apply")
        fault_point("crash-mid-apply")  # one-shot: 4th visit passes
        assert INJECTOR.hits["crash-mid-apply"] == 4

    def test_arm_is_relative_to_visits_so_far(self):
        INJECTOR.trace()
        INJECTOR.active = True
        fault_point("crash-mid-apply")
        fault_point("crash-mid-apply")
        INJECTOR.arm("crash-mid-apply", hit=1)  # i.e. the *next* visit
        with pytest.raises(InjectedCrash):
            fault_point("crash-mid-apply")

    def test_multiple_hits_same_point(self):
        INJECTOR.arm("crash-mid-apply", hit=1)
        INJECTOR.arm("crash-mid-apply", hit=2)
        with pytest.raises(InjectedCrash):
            fault_point("crash-mid-apply")
        with pytest.raises(InjectedCrash):
            fault_point("crash-mid-apply")
        fault_point("crash-mid-apply")
        assert not INJECTOR.armed()

    def test_reset_disarms(self):
        INJECTOR.arm("crash-mid-apply")
        INJECTOR.reset()
        assert not INJECTOR.armed()
        fault_point("crash-mid-apply")  # nothing raised, nothing counted
        assert INJECTOR.hits == {}


class TestTransients:
    def test_transient_fires_for_bounded_visits(self):
        INJECTOR.arm_transient("flaky-save", times=2)
        for __ in range(2):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                fault_point("flaky-save")
        fault_point("flaky-save")  # third visit is clean
        assert not INJECTOR.armed()

    def test_transient_consumed_by_with_retry(self):
        INJECTOR.arm_transient("flaky-save", times=3)
        calls = []

        def save():
            calls.append(1)
            fault_point("flaky-save")
            return "saved"

        assert with_retry(save, sleep=lambda _s: None) == "saved"
        assert len(calls) == 4  # 3 transient failures + 1 success

    def test_custom_exception_factory(self):
        INJECTOR.arm_transient("flaky-save", exc_factory=lambda: RuntimeError("io"))
        with pytest.raises(RuntimeError, match="io"):
            fault_point("flaky-save")


class TestTracing:
    def test_trace_counts_without_raising(self):
        injector = FaultInjector()
        injector.trace()
        injector.fire("crash-mid-refresh")
        injector.fire("crash-mid-refresh")
        assert injector.hits["crash-mid-refresh"] == 2
        assert not injector.active


class TestCatalog:
    def test_catalog_names_are_stable(self):
        # Recovery tests and the CI matrix parametrize over these names.
        assert FAULT_POINTS == {
            "crash-before-journal",
            "crash-after-journal",
            "crash-mid-apply",
            "crash-mid-execute",
            "crash-mid-refresh",
            "crash-mid-propagate",
            "crash-mid-checkpoint",
            "crash-after-checkpoint",
            "crash-after-commit",
            "crash-mid-delta-cache",
            "crash-mid-partition-apply",
            "flaky-save",
            "flaky-mirror-upsert",
            "flaky-mirror-adopt",
            "flaky-mirror-reload",
            "flaky-index-create",
            "flaky-pushdown-execute",
            "flaky-pushdown-probe",
        }

    def test_storm_and_crash_points_partition_the_catalog(self):
        assert STORM_POINTS == {p for p in FAULT_POINTS if p.startswith("flaky-")}
        assert CRASH_POINTS == {p for p in FAULT_POINTS if p.startswith("crash-")}
        assert STORM_POINTS | CRASH_POINTS == FAULT_POINTS
        assert not STORM_POINTS & CRASH_POINTS


class TestStorms:
    def test_storm_rains_probabilistically_and_seeded(self):
        def fires(seed):
            INJECTOR.reset()
            INJECTOR.arm_storm(seed=seed, probability=0.5)
            hits = 0
            for __ in range(100):
                try:
                    fault_point("flaky-save")
                except sqlite3.OperationalError:
                    hits += 1
            return hits

        first = fires(42)
        assert 20 < first < 80  # p=0.5 over 100 visits
        assert fires(42) == first  # same seed, same rain

    def test_storm_only_accepts_flaky_points(self):
        with pytest.raises(ValueError, match="not transient storm points"):
            INJECTOR.arm_storm(seed=1, points=frozenset({"crash-mid-apply"}))
        with pytest.raises(ValueError, match="probability"):
            INJECTOR.arm_storm(seed=1, probability=1.5)

    def test_storm_never_rains_on_crash_points(self):
        INJECTOR.arm_storm(seed=7, probability=1.0)
        fault_point("crash-mid-apply")  # crash points stay dry
        with pytest.raises(sqlite3.OperationalError):
            fault_point("flaky-save")

    def test_storm_cleared_by_reset(self):
        INJECTOR.arm_storm(seed=7, probability=1.0)
        assert INJECTOR.armed()
        INJECTOR.reset()
        assert not INJECTOR.armed()
        fault_point("flaky-save")
