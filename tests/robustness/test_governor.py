"""The engine governor: demotion ladder, circuit breakers, probes.

The tentpole claim of the self-healing layer: a transient or permanent
backend failure inside any execution tier is invisible to the client —
the governor retries, demotes to the next tier (same answer, lower
gear), cools the broken tier down, and re-promotes only after a
digest-cross-checked probe over a healed backend.
"""

import sqlite3

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import evaluate as interpret
from repro.robustness.faults import INJECTOR
from repro.robustness.governor import (
    DEFAULT_COOLDOWN_OPS,
    GOVERNOR_LADDERS,
    CircuitBreaker,
    EngineGovernor,
    heal_engine_state,
)
from repro.robustness.journal import bag_digest
from repro.storage.database import Database


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.fixture()
def metrics():
    stack = obs.enable(tracer=False, accounting=False)
    yield lambda: {
        name: snap["value"]
        for name, snap in stack.metrics.snapshot().items()
        if snap.get("type") == "counter"
    }
    obs.disable()


def governed_db(exec_mode="sqlite", *, cooldown_ops=3):
    db = Database(exec_mode=exec_mode)
    governor = db.enable_governor(cooldown_ops=cooldown_ops, sleep=lambda delay: None)
    db.create_table("t", ("a", "b"), rows=[(1, "x"), (2, "y")])
    return db, governor


def bump(db, row):
    """Load one more row — busts version-stamped result memos so the
    next evaluate really runs the engine (and visits its fault points)."""
    db.load("t", [row])


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_starts_closed_and_runs(self):
        breaker = CircuitBreaker(cooldown_ops=2)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == 0
        assert all(breaker.allow() == "run" for __ in range(5))

    def test_trip_skips_for_cooldown_then_probes(self):
        breaker = CircuitBreaker(cooldown_ops=3)
        breaker.trip()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert breaker.allow() == "skip"
        assert breaker.allow() == "skip"
        assert breaker.allow() == "probe"
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # Half-open keeps asking for probes until a verdict lands.
        assert breaker.allow() == "probe"

    def test_close_resumes_running(self):
        breaker = CircuitBreaker(cooldown_ops=1)
        breaker.trip()
        assert breaker.allow() == "probe"
        breaker.close()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() == "run"

    def test_retrip_restarts_cooldown(self):
        breaker = CircuitBreaker(cooldown_ops=2)
        breaker.trip()
        assert breaker.allow() == "skip"
        breaker.trip()  # failed probe re-opens for a *fresh* cooldown
        assert breaker.trips == 2
        assert breaker.allow() == "skip"
        assert breaker.allow() == "probe"

    def test_cooldown_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_ops=0)


# ----------------------------------------------------------------------
# Ladder anchoring
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode, ladder",
    [
        ("sqlite", ("sqlite", "compiled", "interpreted")),
        ("compiled", ("compiled", "interpreted")),
        ("interpreted", ("interpreted",)),
    ],
)
def test_ladder_anchored_at_exec_mode(mode, ladder):
    assert GOVERNOR_LADDERS[mode] == ladder
    db = Database(exec_mode=mode)
    governor = db.enable_governor()
    assert governor.ladder == ladder
    # Every tier but the interpreted floor gets a breaker.
    assert set(governor.breakers) == set(ladder[:-1])


def test_enable_governor_is_idempotent():
    db = Database(exec_mode="compiled")
    first = db.enable_governor(cooldown_ops=5)
    second = db.enable_governor(cooldown_ops=9)
    assert first is second is db.governor
    assert first.breakers["compiled"].cooldown_ops == 5


def test_every_tier_answers_identically():
    db, governor = governed_db("sqlite")
    expected = Bag([(1, "x"), (2, "y")])
    ref = db.ref("t")
    for position in range(len(governor.ladder)):
        assert governor._evaluate_from(position, ref, None, None) == expected


# ----------------------------------------------------------------------
# Retry absorption (no demotion)
# ----------------------------------------------------------------------


def test_transient_blips_absorbed_by_retry(metrics):
    db, governor = governed_db()
    ref = db.ref("t")
    db.evaluate(ref)
    # Two consecutive locked errors: well within the policy's attempts.
    INJECTOR.arm_transient("flaky-pushdown-execute", times=2)
    bump(db, (3, "z"))
    assert db.evaluate(ref) == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert governor.active_tier() == "sqlite"
    assert governor.breakers["sqlite"].trips == 0
    counters = metrics()
    assert counters.get("engine_demotions", 0) == 0
    assert counters["faults_injected"] == 2


# ----------------------------------------------------------------------
# Demotion on retry exhaustion
# ----------------------------------------------------------------------


def test_retry_exhaustion_demotes_not_raises(metrics):
    db, governor = governed_db()
    ref = db.ref("t")
    db.evaluate(ref)
    # Exactly the policy's attempt budget: the tier is declared down.
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    assert db.evaluate(ref) == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert governor.active_tier() == "compiled"
    assert governor.breakers["sqlite"].state == CircuitBreaker.OPEN
    assert metrics()["engine_demotions"] == 1


def test_permanent_error_trips_immediately(metrics):
    db, governor = governed_db()
    ref = db.ref("t")
    db.evaluate(ref)
    # A non-transient sqlite3 error is not retried: one strike.
    INJECTOR.arm_transient(
        "flaky-pushdown-execute",
        times=1,
        exc_factory=lambda: sqlite3.DatabaseError("database disk image is malformed"),
    )
    bump(db, (3, "z"))
    assert db.evaluate(ref) == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert governor.active_tier() == "compiled"
    assert metrics()["engine_demotions"] == 1
    assert metrics()["faults_injected"] == 1


def test_open_breaker_skips_tier_without_touching_backend():
    db, governor = governed_db(cooldown_ops=10)
    ref = db.ref("t")
    db.evaluate(ref)
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    db.evaluate(ref)
    assert governor.breakers["sqlite"].state == CircuitBreaker.OPEN
    visits = INJECTOR.hits.get("flaky-pushdown-execute", 0)
    # Evaluations during the cooldown run the compiled tier; the
    # sqlite seam is never visited again.
    for index in range(3):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref)
    assert INJECTOR.hits.get("flaky-pushdown-execute", 0) == visits


# ----------------------------------------------------------------------
# The full demote → cooldown → probe → re-promote cycle
# ----------------------------------------------------------------------


def test_probe_repromotes_after_outage_ends(metrics):
    db, governor = governed_db(cooldown_ops=3)
    ref = db.ref("t")
    db.evaluate(ref)
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    db.evaluate(ref)
    assert governor.active_tier() == "compiled"
    # Three more evaluations: two cooldown skips, then the half-open
    # probe — which heals the mirror, cross-checks digests, and closes.
    for index in range(3):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref)
    assert governor.active_tier() == "sqlite"
    assert governor.breakers["sqlite"].state == CircuitBreaker.CLOSED
    counters = metrics()
    assert counters["engine_demotions"] == 1
    assert counters["engine_repromotions"] == 1
    # The probe resynced the mirror before trusting it again.
    assert counters.get("mirror_resyncs", 0) >= 1
    bump(db, (99, "q"))
    assert db.evaluate(ref) == Bag(
        [(1, "x"), (2, "y"), (3, "z"), (10, "w"), (11, "w"), (12, "w"), (99, "q")]
    )


def test_probe_that_errors_retrips(metrics):
    db, governor = governed_db(cooldown_ops=2)
    ref = db.ref("t")
    db.evaluate(ref)
    # Outage outlasts the first cooldown: the probe itself hits the
    # still-broken backend, fails, and re-opens the breaker.
    INJECTOR.arm_transient("flaky-pushdown-execute", times=7)
    bump(db, (3, "z"))
    db.evaluate(ref)
    assert governor.breakers["sqlite"].trips == 1
    for index in range(2):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref)
    assert governor.breakers["sqlite"].trips == 2
    assert governor.active_tier() == "compiled"
    assert metrics()["governor_probe_failures"] == 1
    # The client never saw any of it: answers stayed exact throughout.
    assert db.evaluate(ref) == Bag([(1, "x"), (2, "y"), (3, "z"), (10, "w"), (11, "w")])


def test_flaky_probe_seam_fails_gracefully(metrics):
    db, governor = governed_db(cooldown_ops=2)
    ref = db.ref("t")
    db.evaluate(ref)
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    db.evaluate(ref)
    # The probe's own seam raises: re-trip, keep serving the fallback.
    INJECTOR.arm_transient("flaky-governor-probe", times=1)
    for index in range(2):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref)
    assert governor.breakers["sqlite"].trips == 2
    assert metrics()["governor_probe_failures"] == 1
    assert INJECTOR.hits["flaky-governor-probe"] == 1


def test_probe_digest_mismatch_refuses_repromotion(metrics, monkeypatch):
    db, governor = governed_db(cooldown_ops=2)
    ref = db.ref("t")
    db.evaluate(ref)
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    db.evaluate(ref)
    # Sabotage: disable the heal step and corrupt the mirror behind the
    # dirty-tracking's back, so the probe's candidate answer is wrong.
    # No further writes: a wholesale ``load`` would mark the mirror
    # dirty and ``ensure`` would wipe the corruption with a reload
    # before the probe could even see it — and the result memo cannot
    # mask the probe either, because the last sqlite-tier success
    # predates the version bump above.
    monkeypatch.setattr(governor, "_heal_tier", lambda tier: None)
    mirror = db.executor.mirror
    mirror._conn.execute('UPDATE "t" SET c0 = c0 + 100')
    expected = Bag([(1, "x"), (2, "y"), (3, "z")])
    assert db.evaluate(ref) == expected  # cooldown: compiled serves
    assert db.evaluate(ref) == expected  # probe: candidate diverges
    # The cross-check caught the corruption: no re-promotion, and the
    # client got the reference (healthy-tier) answer, not the corrupt one.
    assert governor.breakers["sqlite"].trips == 2
    assert governor.breakers["sqlite"].state == CircuitBreaker.OPEN
    assert metrics()["governor_probe_failures"] == 1
    assert metrics().get("engine_repromotions", 0) == 0


def test_full_outage_falls_to_interpreted_floor():
    db, governor = governed_db(cooldown_ops=1000)
    ref = db.ref("t")
    db.evaluate(ref)
    # A sqlite outage leaves the compiled plans answering; with that
    # breaker tripped directly as well, only the floor remains.
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    assert bag_digest(db.evaluate(ref)) == bag_digest(interpret(ref, db.state))
    assert governor.active_tier() == "compiled"
    governor.breakers["compiled"].trip()
    assert governor.active_tier() == "interpreted"
    bump(db, (4, "u"))
    assert bag_digest(db.evaluate(ref)) == bag_digest(interpret(ref, db.state))
    assert db["t"] == Bag([(1, "x"), (2, "y"), (3, "z"), (4, "u")])
    snap = governor.snapshot()
    assert set(snap["breakers"]) == {"sqlite", "compiled"}
    assert all(breaker["state"] == "open" for breaker in snap["breakers"].values())


def test_interpreted_mode_has_no_breakers():
    db, governor = governed_db("interpreted")
    assert governor.ladder == ("interpreted",)
    assert governor.breakers == {}
    assert governor.active_tier() == "interpreted"
    assert db.evaluate(db.ref("t")) == Bag([(1, "x"), (2, "y")])


def test_governed_transaction_evaluations_survive_faults():
    """The governor hooks ``Database._apply``'s right-hand-side runs too."""
    from repro.core.transactions import UserTransaction

    db, governor = governed_db()
    db.evaluate(db.ref("t"))
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    txn = UserTransaction(db)
    txn.insert("t", [(7, "n")])
    txn.apply()
    assert db["t"] == Bag([(1, "x"), (2, "y"), (7, "n")])
    assert db.evaluate(db.ref("t")) == Bag([(1, "x"), (2, "y"), (7, "n")])


def test_snapshot_shape():
    db, governor = governed_db()
    snap = governor.snapshot()
    assert snap["mode"] == "sqlite"
    assert snap["active_tier"] == "sqlite"
    assert set(snap["breakers"]) == {"sqlite", "compiled"}
    assert snap["breakers"]["sqlite"] == {"state": "closed", "trips": 0}


def test_default_cooldown_is_operations_counted():
    db = Database(exec_mode="compiled")
    governor = db.enable_governor()
    assert governor.breakers["compiled"].cooldown_ops == DEFAULT_COOLDOWN_OPS


# ----------------------------------------------------------------------
# heal_engine_state: the recovery layer's post-crash audit
# ----------------------------------------------------------------------


def test_heal_repairs_corrupted_index(metrics):
    db = Database()
    db.create_table("t", ("a", "b"), rows=[(1, "x"), (2, "y")])
    index = db.indexes.get("t", (0,), db["t"])
    # Simulated torn maintenance: a bucket vanishes without a rollback.
    index._buckets.pop((1,))
    healed = heal_engine_state(db)
    assert healed["indexes"] == ["t[0]"]
    assert metrics()["index_rebuilds"] == 1
    assert db.indexes.get("t", (0,), db["t"]).lookup((1,)) == {(1, "x"): 1}
    # A second audit is a no-op.
    assert heal_engine_state(db) == {"indexes": [], "mirror": []}


def test_heal_resyncs_diverged_mirror(metrics):
    db, governor = governed_db()
    ref = db.ref("t")
    db.evaluate(ref)
    mirror = db.executor.mirror
    mirror._conn.execute("DELETE FROM t WHERE c0 = 1")
    assert mirror.divergent_tables(db) == ["t"]
    healed = heal_engine_state(db)
    assert healed["mirror"] == ["t"]
    assert metrics()["mirror_resyncs"] == 1
    assert mirror.divergent_tables(db) == []
    assert mirror.to_bag("t") == db["t"]


def test_heal_on_unbuilt_engine_state_is_clean():
    db = Database(exec_mode="sqlite")
    db.create_table("t", ("a",), rows=[(1,)])
    # Never evaluated: no executor, no mirror, no indexes — audits clean
    # without building any of them.
    assert heal_engine_state(db) == {"indexes": [], "mirror": []}
    assert db._executor is None
