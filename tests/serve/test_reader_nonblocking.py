"""Readers never acquire view exclusive locks — proven by attribution.

The paper's downtime metric is the exclusive-lock window refresh holds
on ``MV``.  The serving claim is that readers are *never in* that
window.  Wall-clock overlap tests for this are inherently flaky, so the
proof here is deterministic: every :class:`~repro.storage.locks.LockSection`
records the thread that held it, and after hammering the server with
reader threads concurrent to a maintenance worker, **zero** sections may
be attributed to a reader thread.  The lockset sanitizer cross-checks
that the maintenance path itself stayed clean.
"""

from __future__ import annotations

import sys
import threading
import time

from repro import obs
from repro.algebra.evaluation import evaluate
from repro.exec.compiler import PNode
from repro.robustness.journal import bag_digest
from repro.sqlfront.compiler import sql_to_expr

from tests.serve.conftest import build_server

READERS = 6
TICKS = 12


def _hammer(server, workload, *, readers: int = READERS, ticks: int = TICKS):
    """Ticks the server while reader threads read continuously."""
    stop = threading.Event()
    reads = []
    errors = []

    def _reader(index: int) -> None:
        count = 0
        try:
            while not stop.is_set():
                if count % 7 == 6:
                    with server.pin() as handle:
                        first = server.read_at(handle, "V")
                        second = server.read_at(handle, "V")
                        assert first is second
                else:
                    server.read("V")
                count += 1
                time.sleep(0.0002)  # think time: don't starve the writer's GIL slice
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
        reads.append(count)

    threads = [
        threading.Thread(target=_reader, args=(i,), name=f"reader-{i}", daemon=True)
        for i in range(readers)
    ]
    for thread in threads:
        thread.start()
    try:
        for _ in range(ticks):
            server.tick([workload.next_transaction(server.db)])
        assert server.wait_idle()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
    assert not errors, errors
    return sum(reads)


def test_readers_acquire_zero_exclusive_lock_sections():
    server, workload = build_server(k=1, m=3)
    server.start_workers(1)
    try:
        total_reads = _hammer(server, workload)
    finally:
        server.stop_workers()

    # Maintenance ran and took exclusive sections -- on worker threads.
    maintenance = server.ledger.sections_for_thread("maintenance-worker")
    assert server.actions_run > 0
    assert maintenance, "maintenance must have held the MV exclusive lock"
    # The deterministic nonblocking proof: no section is attributed to
    # any reader thread, ever.
    assert server.reader_lock_sections("reader") == 0
    assert "reader" not in {
        name.split("-")[0] for name in server.ledger.acquiring_threads()
    }
    assert total_reads > 0


def test_reader_threads_absent_from_ledger_even_synchronously():
    """Without a pool, maintenance runs on the ticking thread -- still not readers."""
    server, workload = build_server(k=1, m=2)
    total_reads = _hammer(server, workload, readers=3, ticks=8)
    assert total_reads > 0
    assert server.reader_lock_sections("reader") == 0


def test_sanitizer_clean_over_serving_stack():
    """The lockset sanitizer finds nothing to report on the serving path."""
    server, workload = build_server(k=1, m=3)
    with obs.observed(tracer=False, metrics=False, accounting=False, sanitizer=True) as stack:
        server.start_workers(2)
        try:
            _hammer(server, workload, readers=4, ticks=8)
        finally:
            server.stop_workers()
        findings = list(stack.sanitizer.findings)
    assert findings == []


def test_read_fresh_is_the_counterexample():
    """The synchronous path DOES attribute lock sections to its caller."""
    server, workload = build_server(k=2, m=4)
    server.tick([workload.next_transaction(server.db)])
    result = {}

    def _sync_reader() -> None:
        result["digest"] = bag_digest(server.read_fresh("V"))

    thread = threading.Thread(target=_sync_reader, name="reader-sync", daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    assert server.reader_lock_sections("reader-sync") > 0
    assert result["digest"] == bag_digest(server.read("V"))


# ----------------------------------------------------------------------
# Pinned evaluation: shared plans, readers at different versions
# ----------------------------------------------------------------------


def _shared_queries(server):
    """Expression objects every reader evaluates (so: the same plan nodes)."""
    mv = server.manager.scenario("V").view.mv_table
    return [
        sql_to_expr(text, server.db)
        for text in (
            "SELECT custId, itemNo FROM sales WHERE quantity >= 0",  # moves with every tick
            f"SELECT * FROM {mv}",
            f"SELECT itemNo, quantity FROM {mv} WHERE custId = 1",
            "SELECT itemNo FROM sales WHERE custId = 1",
            "SELECT c.name, s.itemNo FROM customer c, sales s WHERE c.custId = s.custId AND s.quantity > 1",
        )
    ]


def _pins_at_distinct_versions(server, workload, count: int):
    """``count`` pins, a tick apart, each with the oracle's answers over its own cut."""
    queries = _shared_queries(server)
    pins = []
    for _ in range(count):
        server.tick([workload.next_transaction(server.db)])
        handle = server.pin()
        frozen = {name: handle.table(name) for name in handle.table_names()}
        pins.append((handle, [evaluate(query, frozen) for query in queries]))
    assert len({expected[0] for _, expected in pins}) == count, "versions must answer differently"
    return queries, pins


def _evaluate_pinned_under_writes(server, workload, *, readers: int = READERS, ticks: int = TICKS):
    """Readers loop over shared queries at their own pins while the writer writes."""
    queries, pins = _pins_at_distinct_versions(server, workload, 4)
    stop = threading.Event()
    errors: list[BaseException] = []
    rounds = []

    def _reader(index: int) -> None:
        handle, expected = pins[index % len(pins)]
        count = 0
        try:
            while not stop.is_set():
                for query, answer in zip(queries, expected):
                    assert handle.evaluate(query) == answer, (index, handle.snapshot_id, str(query))
                count += 1
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
        rounds.append(count)

    threads = [
        threading.Thread(target=_reader, args=(i,), name=f"reader-{i}", daemon=True)
        for i in range(readers)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # preempt readers as often as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for tick in range(ticks):
            server.execute_sql(f"INSERT INTO sales VALUES (1, {900 + tick}, 2, 1.5)")
            server.tick([workload.next_transaction(server.db)])
            time.sleep(0.005)
        assert server.wait_idle()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(rounds) == readers and all(rounds), rounds
    for handle, _ in pins:
        handle.release()


def test_readers_pinned_at_different_versions_each_get_their_own_answers():
    """More readers than cores, four versions, one set of plan nodes."""
    server, workload = build_server(k=1, m=3)
    server.start_workers(1)
    try:
        _evaluate_pinned_under_writes(server, workload)
    finally:
        server.stop_workers()
    assert server.actions_run > 0
    assert server.reader_lock_sections("reader") == 0
    assert "reader" not in {name.split("-")[0] for name in server.ledger.acquiring_threads()}


def test_sanitizer_clean_over_pinned_evaluation():
    server, workload = build_server(k=1, m=3)
    with obs.observed(tracer=False, metrics=False, accounting=False, sanitizer=True) as stack:
        server.start_workers(2)
        try:
            _evaluate_pinned_under_writes(server, workload, readers=4, ticks=8)
        finally:
            server.stop_workers()
        findings = list(stack.sanitizer.findings)
    assert findings == []


def test_a_reader_preempted_anywhere_in_execute_never_leaves_a_torn_memo():
    """Every line boundary of ``PNode.execute`` as a preemption point, deterministically.

    Recent interpreters switch threads only at calls and backward jumps,
    so a thread test cannot land between two adjacent attribute stores;
    a line tracer can.  Reader A (pinned at one version) is stopped at
    each line of ``execute`` in turn while reader B (another version)
    runs the same node to completion; afterwards both versions must
    still read their own answers.  A memo kept as two attributes fails
    here: A's stamp ends up guarding B's value.
    """
    server, workload = build_server(k=1, m=3)
    queries, pins = _pins_at_distinct_versions(server, workload, 2)
    (reader_a, answers_a), (reader_b, answers_b) = pins
    query, answer_a, answer_b = queries[0], answers_a[0], answers_b[0]
    code = PNode.execute.__code__
    lines = sorted({line for _, _, line in code.co_lines() if line is not None})

    for target in lines:
        assert reader_b.evaluate(query) == answer_b  # memo now at B's stamp: A must recompute
        state = {"armed": True}

        def tracer(frame, event, arg):
            if frame.f_code is not code or not state["armed"]:
                return None

            def on_line(frame, event, arg):
                if event == "line" and frame.f_lineno == target and state["armed"]:
                    state["armed"] = False
                    assert reader_b.evaluate(query) == answer_b, f"B torn at line {target}"
                return on_line

            return on_line

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            assert reader_a.evaluate(query) == answer_a, f"A torn at line {target}"
        finally:
            sys.settrace(previous)
        assert reader_a.evaluate(query) == answer_a, f"A reads B's value after line {target}"
        assert reader_b.evaluate(query) == answer_b, f"B reads A's value after line {target}"
    for handle, _ in pins:
        handle.release()
