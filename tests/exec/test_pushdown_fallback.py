"""The sqlite tier's fallback: retry, breaker, probe, reason codes.

A backend failure inside the push-down path is invisible to the client:
the executor retries transient errors, answers with its compiled plans
once retries run out (tripping its breaker), skips pushing while the
breaker cools down, and pushes again only after a digest-cross-checked
probe over a resynced mirror.  Every evaluation the compiled plans
answer in SQLite's place is reason-coded in ``pushdown_fallbacks``.
"""

import sqlite3
import sys

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import DupElim, Literal, UnionAll
from repro.algebra.predicates import Attr, Comparison, Const
from repro.algebra.schema import Schema
from repro.core.transactions import UserTransaction
from repro.exec import Executor, pushdown
from repro.exec.pushdown import PushdownExecutor
from repro.robustness.faults import INJECTOR
from repro.robustness.journal import bag_digest
from repro.robustness.recovery import heal_engine_state
from repro.storage.database import Database
from repro.warehouse.manager import ViewManager
from repro.workloads.retail import VIEW_SQL, RetailConfig, RetailWorkload


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(pushdown, "sleep", lambda delay: None)


@pytest.fixture()
def metrics():
    stack = obs.enable(tracer=False, accounting=False)
    yield lambda: {
        name: snap["value"]
        for name, snap in stack.metrics.snapshot().items()
        if snap.get("type") == "counter"
    }
    obs.disable()


def fallbacks(counters, reason):
    return counters.get(f'pushdown_fallbacks{{reason="{reason}"}}', 0)


def sqlite_db():
    db = Database(exec_mode="sqlite")
    db.create_table("t", ("a", "b"), rows=[(1, "x"), (2, "y")])
    return db


def bump(db, row):
    """Load one more row — busts the version-stamped result memo so the
    next evaluate really runs the engine (and visits its fault points)."""
    db.load("t", [row])


def tripped(monkeypatch, *, cooldown_ops):
    """A sqlite database whose breaker one exhausted retry budget opened."""
    monkeypatch.setattr(PushdownExecutor, "COOLDOWN_OPS", cooldown_ops)
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    bump(db, (3, "z"))
    assert db.evaluate(db.ref("t")) == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert db.executor.breaker == "open"
    return db


def test_breaker_starts_closed_and_pushes():
    db = sqlite_db()
    ref = db.ref("t")
    for index in range(3):
        bump(db, (10 + index, "w"))
        counter = CostCounter()
        assert db.evaluate(ref, counter=counter) == db["t"]
        assert counter.by_operator.get("pushdown", 0) > 0
    assert (db.executor.breaker, db.executor.trips) == ("closed", 0)


def test_breaker_state_reads_off_the_executor(monkeypatch):
    db = sqlite_db()
    assert (db.exec_mode, db.executor.breaker, db.executor.trips) == ("sqlite", "closed", 0)
    db = tripped(monkeypatch, cooldown_ops=3)
    assert (db.executor.breaker, db.executor.trips) == ("open", 1)
    # Only the sqlite tier has a backend, so only its executor has a breaker.
    assert not hasattr(Database(exec_mode="compiled").executor, "breaker")


def test_fallback_answers_what_the_push_answers():
    db = sqlite_db()
    expr = DupElim(db.ref("t").where(Comparison(">", Attr("a"), Const(0))))
    counter = CostCounter()
    pushed = db.executor.evaluate(expr, counter=counter)
    assert counter.by_operator.get("pushdown", 0) > 0
    assert Executor.evaluate(db.executor, expr) == pushed == Bag([(1, "x"), (2, "y")])


# ----------------------------------------------------------------------
# Retry absorption (no trip)
# ----------------------------------------------------------------------


def test_transient_blips_absorbed_by_retry(metrics):
    db = sqlite_db()
    ref = db.ref("t")
    db.evaluate(ref)
    # Two consecutive locked errors: well within the policy's attempts.
    INJECTOR.arm_transient("flaky-pushdown-execute", times=2)
    bump(db, (3, "z"))
    assert db.evaluate(ref) == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert (db.executor.breaker, db.executor.trips) == ("closed", 0)
    counters = metrics()
    assert counters.get("engine_demotions", 0) == 0
    assert counters["faults_injected"] == counters["lock_retries"] == 2


# ----------------------------------------------------------------------
# Tripping: retry exhaustion, permanent errors
# ----------------------------------------------------------------------


def test_retry_exhaustion_trips_and_falls_back(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=3)
    assert db.executor.trips == metrics()["engine_demotions"] == 1


def test_permanent_error_trips_in_one_strike(metrics):
    db = sqlite_db()
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
    assert (db.executor.breaker, db.executor.trips) == ("open", 1)
    assert metrics()["engine_demotions"] == metrics()["faults_injected"] == 1


def test_open_breaker_never_touches_the_seam(monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=10)
    ref = db.ref("t")
    visits = INJECTOR.hits.get("flaky-pushdown-execute", 0)
    # Evaluations during the cooldown run the compiled plans; the
    # push-down seam is never visited again.
    for index in range(3):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref) == db["t"]
    assert INJECTOR.hits.get("flaky-pushdown-execute", 0) == visits


def test_transaction_right_hand_sides_survive_faults():
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    txn = UserTransaction(db)
    txn.insert("t", [(7, "n")])
    txn.apply()
    assert db["t"] == Bag([(1, "x"), (2, "y"), (7, "n")])
    assert db.executor.trips == 1
    assert db.evaluate(db.ref("t")) == Bag([(1, "x"), (2, "y"), (7, "n")])


# ----------------------------------------------------------------------
# The half-open probe
# ----------------------------------------------------------------------


def test_open_breaker_skips_for_the_cooldown_then_probes(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=3)
    ref = db.ref("t")
    for skips in (1, 2):
        bump(db, (10 + skips, "w"))
        assert db.evaluate(ref) == db["t"]
        assert db.executor.breaker == "open"
        assert fallbacks(metrics(), "breaker_open") == skips
        assert metrics().get("engine_repromotions", 0) == 0
    # The cooldown is spent: this evaluation is the half-open probe.
    bump(db, (13, "w"))
    assert db.evaluate(ref) == db["t"]
    assert fallbacks(metrics(), "breaker_open") == 2
    assert metrics()["engine_repromotions"] == 1


def test_default_cooldown_is_operation_counted(metrics, monkeypatch):
    assert PushdownExecutor.COOLDOWN_OPS == 32
    db = tripped(monkeypatch, cooldown_ops=PushdownExecutor.COOLDOWN_OPS)
    ref = db.ref("t")
    # 31 evaluations skip the push, however little time they take; the
    # 32nd is the probe.
    for index in range(31):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref) == db["t"]
    assert db.executor.breaker == "open"
    assert fallbacks(metrics(), "breaker_open") == 31
    bump(db, (99, "q"))
    assert db.evaluate(ref) == db["t"]
    assert db.executor.breaker == "closed"


def test_closed_breaker_resumes_pushing(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=1)
    ref = db.ref("t")
    bump(db, (10, "w"))
    assert db.evaluate(ref) == db["t"]  # the probe closes the breaker
    assert db.executor.breaker == "closed"
    for index in range(3):
        bump(db, (20 + index, "v"))
        counter = CostCounter()
        assert db.evaluate(ref, counter=counter) == db["t"]
        assert counter.by_operator.get("pushdown", 0) > 0
    assert fallbacks(metrics(), "breaker_open") == 0
    assert (db.executor.breaker, db.executor.trips) == ("closed", 1)


def test_probe_heals_and_repromotes(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=3)
    ref = db.ref("t")
    # Three more evaluations: two cooldown skips, then the half-open
    # probe — which resyncs the mirror, cross-checks digests, and closes.
    for index in range(3):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref) == db["t"]
    assert (db.executor.breaker, db.executor.trips) == ("closed", 1)
    counters = metrics()
    assert counters["engine_demotions"] == counters["engine_repromotions"] == 1
    assert counters.get("mirror_resyncs", 0) >= 1
    # Closed again: the next evaluation is pushed.
    bump(db, (99, "q"))
    counter = CostCounter()
    assert db.evaluate(ref, counter=counter) == db["t"]
    assert counter.by_operator.get("pushdown", 0) > 0


def test_probe_that_errors_refuses(metrics, monkeypatch):
    # The outage outlasts the first cooldown: the probe's push exhausts
    # its retries against the still-broken backend and re-opens the
    # breaker.
    db = tripped(monkeypatch, cooldown_ops=2)
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    ref = db.ref("t")
    for index in range(2):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref) == db["t"]
    assert (db.executor.breaker, db.executor.trips) == ("open", 1)
    counters = metrics()
    assert counters["pushdown_probe_failures"] == 1
    assert counters.get("engine_repromotions", 0) == 0
    # The client never saw any of it: answers stayed exact throughout.
    assert db.evaluate(ref) == Bag([(1, "x"), (2, "y"), (3, "z"), (10, "w"), (11, "w")])


def test_refused_probe_restarts_the_cooldown(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=2)
    INJECTOR.arm_transient("flaky-pushdown-execute", times=5)
    ref = db.ref("t")
    for index in range(2):  # one skip, then a probe the outage refuses
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref) == db["t"]
    assert metrics()["pushdown_probe_failures"] == 1
    # A fresh cooldown, not a half-open breaker: one skip again, then
    # the next probe (the outage is over) closes the breaker.
    bump(db, (20, "v"))
    assert db.evaluate(ref) == db["t"]
    assert db.executor.breaker == "open"
    assert fallbacks(metrics(), "breaker_open") == 2
    bump(db, (21, "v"))
    assert db.evaluate(ref) == db["t"]
    counters = metrics()
    assert counters["engine_repromotions"] == 1 and db.executor.breaker == "closed"


def test_flaky_probe_seam_refuses(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=2)
    INJECTOR.arm_transient("flaky-pushdown-probe", times=1)
    ref = db.ref("t")
    for index in range(2):
        bump(db, (10 + index, "w"))
        assert db.evaluate(ref) == db["t"]
    assert db.executor.breaker == "open"
    assert metrics()["pushdown_probe_failures"] == 1
    assert INJECTOR.hits["flaky-pushdown-probe"] == 1


def test_probe_digest_mismatch_refuses(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=2)
    # Sabotage: disable the heal step and corrupt the mirror behind the
    # dirty-tracking's back, so the probe's candidate answer is wrong.
    # No further writes to ``t`` (a wholesale ``load`` would mark it
    # dirty and the next scan would reload over the corruption); two
    # new expressions over it miss the result memo instead.
    mirror = db.executor.mirror
    monkeypatch.setattr(mirror, "resync", lambda database: [])
    mirror._conn.execute('UPDATE "t" SET c0 = c0 + 100')
    expected = Bag([(1, "x"), (2, "y"), (3, "z")])
    assert db.evaluate(DupElim(db.ref("t"))) == expected  # cooldown: compiled
    positive = db.ref("t").where(Comparison(">", Attr("a"), Const(0)))
    assert db.evaluate(positive) == expected  # probe: the candidate diverges
    # The cross-check caught the corruption: no re-promotion, and the
    # client got the compiled answer, not the corrupt one.
    assert db.executor.breaker == "open"
    assert metrics()["pushdown_probe_failures"] == 1
    assert metrics().get("engine_repromotions", 0) == 0


# ----------------------------------------------------------------------
# Reason codes: one test per fallback the compiled plans answer
# ----------------------------------------------------------------------


def test_reason_mirror_unsupported(metrics):
    db = sqlite_db()
    db.create_table("u", ("x",), rows=[((1, 2),)])
    assert db.evaluate(DupElim(db.ref("u"))) == Bag([((1, 2),)])
    assert fallbacks(metrics(), "mirror_unsupported") == 1


def test_reason_too_deep(metrics):
    db = sqlite_db()
    schema = Schema(("a", "b"))
    expr = db.ref("t")
    for value in range(40):
        expr = UnionAll(Literal(Bag([(value, "v")]), schema), expr)
    assert db.evaluate(expr) == Executor.evaluate(db.executor, expr)
    assert fallbacks(metrics(), "too_deep") >= 1


def test_reason_backend_error(metrics, monkeypatch):
    tripped(monkeypatch, cooldown_ops=3)
    assert fallbacks(metrics(), "backend_error") == 1


def test_reason_breaker_open(metrics, monkeypatch):
    db = tripped(monkeypatch, cooldown_ops=3)
    bump(db, (4, "u"))
    db.evaluate(db.ref("t"))
    assert fallbacks(metrics(), "breaker_open") == 1


# ----------------------------------------------------------------------
# Concurrent group leaders under a storm
# ----------------------------------------------------------------------


def test_parallel_group_epoch_under_a_storm_equals_the_oracle(metrics, monkeypatch):
    # SQLite is down for the whole epoch and the cooldown is short, so
    # both leaders trip, skip and probe the one breaker concurrently.
    monkeypatch.setattr(PushdownExecutor, "COOLDOWN_OPS", 2)
    config = RetailConfig(customers=30, initial_sales=120, txn_inserts=6, delete_fraction=0.4, seed=18)
    queries = (VIEW_SQL, "SELECT custId, name FROM customer WHERE score = 'High'")

    def build(mode):
        workload = RetailWorkload(config)
        manager = ViewManager(exec_mode=mode)
        workload.setup_database(manager.db)
        for index in range(8):
            manager.define_view(f"V{index}", queries[index % 2], scenario="shared_log")
        for txn in workload.transactions(manager.db, 8):
            manager.execute(txn)
        return manager

    oracle = build("interpreted")
    oracle.refresh_group()
    subject = build("sqlite")
    INJECTOR.arm_storm(seed=1996, probability=1.0, points=frozenset({"flaky-pushdown-execute"}))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the leaders as often as possible
    try:
        subject.refresh_group(parallel=True, max_workers=2)
    finally:
        sys.setswitchinterval(interval)
        INJECTOR.reset()
    for name in oracle.views():
        assert bag_digest(subject.query(name)) == bag_digest(oracle.query(name)), name
    executor = subject.db.executor
    counters = metrics()
    assert executor.trips >= 1 and counters["pushdown_probe_failures"] >= 1
    assert executor.trips == counters["engine_demotions"]


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
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    mirror = db.executor.mirror
    mirror._conn.execute("DELETE FROM t WHERE c0 = 1")
    assert mirror.divergent_tables(db) == ["t"]
    healed = heal_engine_state(db)
    assert healed["mirror"] == ["t"]
    assert metrics()["mirror_resyncs"] == 1
    assert mirror.divergent_tables(db) == []
    assert mirror.to_bag("t") == db["t"]


def test_heal_on_unbuilt_engine_state_is_clean():
    db = sqlite_db()
    # Never evaluated: no executor, no mirror, no indexes — audits clean
    # without building any of them.
    assert heal_engine_state(db) == {"indexes": [], "mirror": []}
    assert db._executor is None
