"""Mirror lifecycle edges: unsupported fallback, forget/re-ensure,
torn loads, and post-crash digest cross-checks.

The SQLite mirror is *derived* state with a self-description of its own
health: ``_dirty`` marks tables needing a reload, ``_unsupported``
marks tables SQLite cannot represent, and the new self-healing surface
(``table_digest`` / ``divergent_tables`` / ``resync``) lets the sqlite
tier's probe and the recovery runner prove — or restore — agreement with
the canonical :class:`~repro.storage.database.Database`.
"""

import sqlite3

import pytest

from repro.algebra.bag import Bag
from repro.algebra.schema import Schema
from repro.core.transactions import UserTransaction
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.storage.database import Database
from repro.storage.sqlite_backend import (
    MirrorUnsupported,
    SQLiteMirror,
    mirror_digest,
)


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def sqlite_db(rows=((1, "x"), (2, "y"))):
    db = Database(exec_mode="sqlite")
    db.create_table("t", ("a", "b"), rows=list(rows))
    return db


def patch_insert(db, table, rows):
    txn = UserTransaction(db)
    txn.insert(table, rows)
    txn.apply()


# ----------------------------------------------------------------------
# MirrorUnsupported: per-table fallback, then recovery via replace
# ----------------------------------------------------------------------


class Opaque:
    """A value SQLite cannot store faithfully."""


def test_unsupported_table_falls_back_per_table():
    db = sqlite_db()
    db.create_table("blobs", ("k", "v"), rows=[(1, Opaque())])
    # Both scans answer correctly; only ``t`` is actually mirrored.
    assert db.evaluate(db.ref("t")) == Bag([(1, "x"), (2, "y")])
    assert len(db.evaluate(db.ref("blobs"))) == 1
    mirror = db.executor.mirror
    assert mirror.is_mirrored("t")
    assert not mirror.is_mirrored("blobs")
    with pytest.raises(MirrorUnsupported):
        mirror.ensure("blobs", db.schema_of("blobs"), db["blobs"])


def test_unsupported_table_recovers_after_replace():
    db = sqlite_db()
    db.create_table("blobs", ("k", "v"), rows=[(1, Opaque())])
    db.evaluate(db.ref("blobs"))
    mirror = db.executor.mirror
    # A wholesale replacement with representable rows lifts the
    # unsupported mark; the next scan mirrors the table normally.
    db.set_table("blobs", Bag([(1, "ok"), (2, "fine")]))
    assert db.evaluate(db.ref("blobs")) == Bag([(1, "ok"), (2, "fine")])
    assert mirror.is_mirrored("blobs")
    assert mirror.table_digest("blobs") == mirror_digest(db["blobs"])


def test_resync_skips_unsupported_tables():
    db = sqlite_db()
    db.create_table("blobs", ("k", "v"), rows=[(1, Opaque())])
    db.evaluate(db.ref("t"))
    db.evaluate(db.ref("blobs"))
    mirror = db.executor.mirror
    # Nothing diverged, nothing to heal — and the unsupported table is
    # not a resync target (it has no mirrored schema to restore).
    assert mirror.divergent_tables(db) == []
    assert mirror.resync(db, names=["t", "blobs"]) == ["t"]
    assert not mirror.is_mirrored("blobs")


# ----------------------------------------------------------------------
# Forget / re-ensure cycles
# ----------------------------------------------------------------------


def test_drop_forgets_and_recreate_remirrors():
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    mirror = db.executor.mirror
    assert mirror.is_mirrored("t")
    db.drop_table("t")
    assert not mirror.is_mirrored("t")
    assert mirror.table_digest("t") is None
    db.create_table("t", ("a", "b"), rows=[(9, "q")])
    assert db.evaluate(db.ref("t")) == Bag([(9, "q")])
    assert mirror.is_mirrored("t")
    assert mirror.to_bag("t") == Bag([(9, "q")])


def test_degraded_table_reloads_on_next_scan():
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    mirror = db.executor.mirror
    # A backend fault inside the incremental fold is contained: the
    # canonical write succeeds, the mirror marks itself dirty.
    INJECTOR.arm_transient("flaky-mirror-upsert", times=1)
    patch_insert(db, "t", [(3, "z")])
    assert db["t"] == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert "t" in mirror._dirty
    assert mirror.table_digest("t") is None  # dirty ⇒ no digest claim
    # The next pushdown scan reloads wholesale and answers correctly.
    assert db.evaluate(db.ref("t")) == Bag([(1, "x"), (2, "y"), (3, "z")])
    assert "t" not in mirror._dirty
    assert mirror.table_digest("t") == mirror_digest(db["t"])


def test_forget_then_reensure_cycles_are_stable():
    db = sqlite_db()
    mirror = db.executor.mirror
    for round_number in range(3):
        # Load a fresh row each round: version-stamped result memos
        # would otherwise answer without ever touching the mirror.
        db.load("t", [(10 + round_number, "w")])
        assert db.evaluate(db.ref("t")) == db["t"]
        assert mirror.is_mirrored("t")
        mirror._forget("t")
        assert not mirror.is_mirrored("t")
    db.load("t", [(99, "q")])
    assert db.evaluate(db.ref("t")) == db["t"]
    assert mirror.to_bag("t") == db["t"]


# ----------------------------------------------------------------------
# Torn loads: the ensure guard
# ----------------------------------------------------------------------


def test_interrupted_first_reload_does_not_pass_as_current():
    mirror = SQLiteMirror()
    schema = Schema(("a", "b"))
    bag = Bag([(1, "x"), (2, "y")])
    INJECTOR.arm_transient("flaky-mirror-reload", times=1)
    with pytest.raises(sqlite3.OperationalError):
        mirror.ensure("t", schema, bag)
    # The shell exists but is marked dirty: an empty CREATE TABLE must
    # never be mistaken for loaded content by a retrying caller.
    assert "t" in mirror._schemas
    assert "t" in mirror._dirty
    assert mirror.table_digest("t") is None
    mirror.ensure("t", schema, bag)  # the retry
    assert mirror.to_bag("t") == bag
    assert mirror.table_digest("t") == mirror_digest(bag)
    mirror.close()


def test_interrupted_rescan_reload_stays_dirty():
    mirror = SQLiteMirror()
    schema = Schema(("a",))
    mirror.ensure("t", schema, Bag([(1,)]))
    mirror.on_replace("t", Bag([(5,), (6,)]))  # marks dirty, lazy reload
    INJECTOR.arm_transient("flaky-mirror-reload", times=1)
    with pytest.raises(sqlite3.OperationalError):
        mirror.ensure("t", schema, Bag([(5,), (6,)]))
    assert "t" in mirror._dirty
    mirror.ensure("t", schema, Bag([(5,), (6,)]))
    assert mirror.to_bag("t") == Bag([(5,), (6,)])
    mirror.close()


# ----------------------------------------------------------------------
# Digest cross-checks after a crash-interrupted on_patch
# ----------------------------------------------------------------------


def test_crash_mid_upsert_is_caught_by_digest_cross_check():
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    mirror = db.executor.mirror
    # An InjectedCrash is a BaseException: containment does NOT absorb
    # it (a real process death absorbs nothing), so it tears straight
    # through the listener without even a dirty mark.
    INJECTOR.arm("flaky-mirror-upsert", hit=1)
    with pytest.raises(InjectedCrash):
        patch_insert(db, "t", [(3, "z")])
    INJECTOR.reset()
    # The canonical transaction rolled back (nothing before the listener
    # seam commits partially), and the rollback's wholesale restore left
    # the mirror dirty — so it makes no digest claim at all until the
    # heal-step resync restores exact, digest-checked agreement.
    assert mirror.table_digest("t") is None
    assert mirror.resync(db) == ["t"]
    assert mirror.divergent_tables(db) == []
    assert mirror.table_digest("t") == mirror_digest(db["t"])
    assert db.evaluate(db.ref("t")) == db["t"]


def test_divergent_tables_flags_silent_corruption():
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    mirror = db.executor.mirror
    mirror._conn.execute('DELETE FROM "t" WHERE c0 = 1')
    assert mirror.divergent_tables(db) == ["t"]
    assert mirror.resync(db) == ["t"]
    assert mirror.divergent_tables(db) == []
    assert mirror.to_bag("t") == db["t"]


def test_resync_forgets_tables_dropped_from_database():
    # A standalone mirror holding a table the database does not: the
    # shape recovery meets when a restored snapshot predates the table.
    db = sqlite_db()
    mirror = SQLiteMirror()
    mirror.ensure("t", db.schema_of("t"), db["t"])
    mirror.ensure("ghost", Schema(("a",)), Bag([(1,)]))
    assert mirror.divergent_tables(db) == ["ghost"]
    assert mirror.resync(db) == ["ghost"]
    assert not mirror.is_mirrored("ghost")
    assert mirror.is_mirrored("t")
    mirror.close()


def test_digests_are_bool_int_insensitive():
    db = Database(exec_mode="sqlite")
    db.create_table("flags", ("k", "on"), rows=[(1, True), (2, False)])
    db.evaluate(db.ref("flags"))
    mirror = db.executor.mirror
    # SQLite stores bools as 0/1; the normalized digests still agree,
    # so the round trip is not misread as divergence.
    assert mirror.table_digest("flags") == mirror_digest(db["flags"])
    assert mirror.divergent_tables(db) == []


def test_resync_restores_requested_indexes():
    db = sqlite_db()
    db.evaluate(db.ref("t"))
    mirror = db.executor.mirror
    mirror.request_index("t", (0,))
    before = {
        name
        for (name,) in mirror._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }
    mirror.resync(db, names=["t"])
    after = {
        name
        for (name,) in mirror._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }
    # The reload path recreates both the canonical unique index and any
    # requested secondary indexes.
    assert before <= after
    assert any("t" in name for name in after)
