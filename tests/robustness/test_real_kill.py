"""Real process death: ``SIGKILL`` mid-stream, then recover and resume.

The in-process :class:`~repro.robustness.faults.InjectedCrash` harness
abandons Python objects at named points; it never leaves the *files* the
way a dead process does — a ``-wal`` with committed and uncommitted
frames in it, a ``-shm``, a half-written staging file — and so never
exercises SQLite's WAL replay.  Here a child process runs the retail
crash workload (with idempotency tokens) and is killed at seeded,
arbitrary instants; each restart recovers, reopens and carries on.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.robustness.harness import RetailCrashHarness
from repro.robustness.recovery import recover
from repro.storage.persistence import load_database

TXNS = 30
KILLS = 3

CHILD = """
import sys
from repro.robustness.harness import RetailCrashHarness
for step in RetailCrashHarness(sys.argv[1], seed=int(sys.argv[2]), txns=int(sys.argv[3])).resume():
    print(step, flush=True)
"""


def run_and_kill(path: Path, seed: int, kill_after_step: int, linger_s: float) -> None:
    """Run the workload in a child; ``SIGKILL`` it ``linger_s`` after it
    reports step ``kill_after_step`` durable."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(path), str(seed), str(TXNS)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    last = -1
    try:
        for line in child.stdout:
            last = int(line)
            if last == kill_after_step:
                time.sleep(linger_s)
                break
    finally:
        child.kill()  # SIGKILL
        _out, err = child.communicate(timeout=30)
    assert last == kill_after_step, f"child stopped at step {last}:\n{err}"
    assert child.returncode == -signal.SIGKILL


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkill_mid_stream_recovers_to_the_uninterrupted_state(tmp_path):
    seed = 96
    reference = tmp_path / "reference" / "wh.db"
    reference.parent.mkdir()
    RetailCrashHarness(reference, seed=seed, txns=TXNS).run()
    steps = len(RetailCrashHarness(reference, seed=seed, txns=TXNS)._ops())

    path = tmp_path / "killed" / "wh.db"
    path.parent.mkdir()
    rng = random.Random(seed)
    # Each restart re-drives the workload from step 0 (cheap no-ops up
    # to where the files already are), so later kills land later.
    kill_steps = sorted(rng.sample(range(2, steps - 1), KILLS))
    killed_with_sidecars = 0
    for kill_after_step in kill_steps:
        run_and_kill(path, seed, kill_after_step, linger_s=rng.uniform(0.0, 0.004))
        killed_with_sidecars += any(wal.stat().st_size for wal in path.parent.glob("*-wal"))
    assert killed_with_sidecars, "no kill left frames in a write-ahead log: nothing was replayed"

    # The parent is the last restart: recover, reopen, resume to the end.
    harness = RetailCrashHarness(path, seed=seed, txns=TXNS)
    assert list(harness.resume()) == list(range(steps))

    assert load_database(path).snapshot() == load_database(reference).snapshot()
    report = recover(path)
    assert report.pending is None and report.green and report.audits, report.format()
    assert sorted(entry.name for entry in path.parent.iterdir()) == ["wh.db", "wh.db.journal"]
