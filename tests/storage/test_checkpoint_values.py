"""A checkpoint binds its rows to SQLite as they are, and they come back as they went in.

A batch of ints, floats, strings and NULLs is bound without a Python call
per value; a batch holding a bool, or a value SQLite cannot store, goes
value by value through ``encode_value``.  The two paths write the same
bytes, a reloaded table equals the saved one in digest and in the type
of every value (``True`` stays ``True``, ``1.0`` stays a float), and an
unsupported value still refuses the checkpoint before ``COMMIT``.  A
table's patches go in one batch, in order, each patch's deletes before
its inserts: the rows and rowids one statement per patch would write.
"""

import sqlite3
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.algebra.bag import Bag
from repro.algebra.expr import Literal
from repro.errors import ReproError
from repro.robustness.durable import DurableWarehouse
from repro.robustness.journal import bag_digest
from repro.storage import persistence
from repro.storage.database import Database
from repro.storage.persistence import checkpoint_op, load_database, save_database, track_deltas
from tests.property.gen import _seeds

ATTRS = ("a", "b", "c")

ints = st.none() | st.integers(-(2**63), 2**63 - 1)
floats = st.none() | st.floats(allow_nan=False)
texts = st.none() | st.text(max_size=6).filter(lambda text: not text.startswith("\x00bool:"))
#: Each column keeps to one type (or NULL): values of different types
#: that compare equal (1, 1.0, True) would merge into one bag row.
plain_rows = st.lists(st.tuples(ints, floats, texts), max_size=8)
bool_rows = st.lists(st.tuples(ints, floats, st.booleans()), min_size=1, max_size=4)


def typed(bag: Bag) -> dict:
    """``bag``'s counts keyed by rows whose values carry their type."""
    return {tuple((type(value), value) for value in row): count for row, count in bag.items()}


def patch(db: Database, name: str, delete=(), insert=()) -> None:
    schema = db.schema_of(name)
    db.apply(patches={name: (Literal(Bag(delete), schema), Literal(Bag(insert), schema))})


def file_rows(path: Path) -> dict[str, list[tuple]]:
    """Every data table's rows in rowid order, each value beside its SQLite type."""
    with closing(sqlite3.connect(path)) as conn:
        names = [name for (name,) in conn.execute("SELECT name FROM __catalog__ ORDER BY name")]
        rows = {}
        for name in names:
            columns = [row[1] for row in conn.execute(f'PRAGMA table_info("{name}")')]
            selected = ", ".join(f"{column}, typeof({column})" for column in columns)
            rows[name] = conn.execute(f'SELECT {selected} FROM "{name}" ORDER BY rowid').fetchall()
        return rows


def checkpoint_history(path: Path, plain: list, late: list, flags: list) -> Database:
    """Three checkpoints of a tracked database; bools reach ``late`` only in patches."""
    db = Database()
    db.create_table("plain", ATTRS, rows=plain)
    db.create_table("late", ATTRS, rows=late)
    queue = track_deltas(db, path)
    try:
        save_database(db, path)
        patch(db, "late", insert=flags)
        patch(db, "plain", delete=plain[:1], insert=late[:2])
        save_database(db, path)
        patch(db, "late", delete=flags[:1])
        save_database(db, path)
    finally:
        queue.close()
    return db


def test_a_reloaded_table_keeps_every_value_and_its_type():
    for seed_value in _seeds():

        @seed(seed_value)
        @settings(max_examples=25, deadline=None, database=None)
        @given(plain_rows, plain_rows, bool_rows)
        def prop(plain, late, flags):
            with tempfile.TemporaryDirectory() as scratch:
                path = Path(scratch) / "state.db"
                db = checkpoint_history(path, plain, late, flags)
                loaded = load_database(path)
                for name in ("plain", "late"):
                    assert bag_digest(loaded[name]) == bag_digest(db[name]), name
                    assert typed(loaded[name]) == typed(db[name]), name

        prop()


def test_binding_as_is_writes_the_bytes_encoding_writes(tmp_path, monkeypatch):
    plain = [(1, 1.0, "x"), (None, -0.5, None), (2**40, None, "")]
    late = [(3, 3.0, "y")]
    flags = [(1, 1.0, True), (0, 0.0, False)]
    checkpoint_history(tmp_path / "as_is.db", plain, late, flags)
    monkeypatch.setattr(persistence, "_BINDABLE", frozenset())
    checkpoint_history(tmp_path / "encoded.db", plain, late, flags)
    assert file_rows(tmp_path / "as_is.db") == file_rows(tmp_path / "encoded.db")


def test_an_unsupported_value_refuses_the_checkpoint_before_commit(tmp_path):
    path = tmp_path / "wh.db"
    warehouse = DurableWarehouse(path)
    warehouse.create_table("t", ("a", "b"))
    warehouse.transaction().insert("t", [(1, "x"), (2, True)]).run()
    stamp, before = checkpoint_op(path), file_rows(path)
    with pytest.raises(ReproError, match="cannot serialize value of type bytes"):
        warehouse.load("t", [(3, b"raw")])
    assert checkpoint_op(path) == stamp
    assert file_rows(path) == before
    assert load_database(path)["t"] == Bag([(1, "x"), (2, True)])
    warehouse.close()


def test_a_tables_patches_append_in_order_each_patchs_deletes_first(tmp_path):
    path = tmp_path / "state.db"
    db = Database()
    db.create_table("t", ("a",), rows=[(i,) for i in range(10)])
    queue = track_deltas(db, path)
    try:
        save_database(db, path)
        patch(db, "t", delete=[(1,)], insert=[(20,)])
        patch(db, "t", delete=[(2,), (99,)], insert=[(21,)])
        save_database(db, path)
    finally:
        queue.close()
    appended = [(value, mult) for value, _type, mult, _mult_type in file_rows(path)["t"][10:]]
    assert appended == [(1, -1), (20, 1), (2, -1), (21, 1)]
