"""Unit tests for saving/loading databases to SQLite files."""

import sqlite3

import pytest

from repro.algebra.bag import Bag
from repro.errors import ReproError, SnapshotError
from repro.storage.database import Database
from repro.storage.persistence import load_database, save_database


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "mixed",
        ["i", "f", "s", "b", "n"],
        rows=[(1, 2.5, "text", True, None), (1, 2.5, "text", True, None), (0, -1.0, "o'x", False, None)],
    )
    database.create_table("__mv__V", ["x"], rows=[(42,)], internal=True)
    return database


class TestRoundTrip:
    def test_contents_preserved(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.snapshot() == db.snapshot()

    def test_schemas_preserved(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.schema_of("mixed") == db.schema_of("mixed")

    def test_internal_flag_preserved(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.is_internal("__mv__V")
        assert not loaded.is_internal("mixed")

    def test_multiplicities_preserved(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded["mixed"].multiplicity((1, 2.5, "text", True, None)) == 2

    def test_bool_round_trips_as_bool(self, tmp_path):
        # (In the engine itself True == 1, per Python semantics; what
        # persistence must guarantee is that a stored bool comes back a
        # bool, not the integer SQLite would naturally return.)
        database = Database()
        database.create_table("t", ["v"], rows=[(False,)])
        path = tmp_path / "state.db"
        save_database(database, path)
        loaded = load_database(path)
        value = next(iter(loaded["t"]))[0]
        assert value is False

    def test_overwrites_existing_file(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        save_database(db, path)  # second save must not fail
        assert load_database(path).snapshot() == db.snapshot()

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.db"
        save_database(Database(), path)
        assert load_database(path).table_names() == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_database(tmp_path / "nope.db")

    def test_unpersistable_value_rejected(self, tmp_path):
        database = Database()
        database.create_table("t", ["v"], rows=[((1, 2),)])  # nested tuple
        with pytest.raises(ReproError):
            save_database(database, tmp_path / "bad.db")


class TestFileIsPlainSQLite:
    def test_queryable_with_sqlite3(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        conn = sqlite3.connect(path)
        try:
            total = conn.execute('SELECT SUM(mult) FROM "mixed"').fetchone()[0]
            assert total == 3
        finally:
            conn.close()


class TestFailClosedOnForgedFiles:
    """A file no checkpoint could have written is refused, by table name."""

    @staticmethod
    def forge(path, *statements):
        conn = sqlite3.connect(path)
        try:
            with conn:
                for statement in statements:
                    conn.execute(statement)
        finally:
            conn.close()

    def test_negative_net_multiplicity(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        self.forge(path, 'INSERT INTO "__mv__V" VALUES (42, -2)')
        with pytest.raises(SnapshotError, match="__mv__V") as info:
            load_database(path)
        assert (info.value.code, info.value.table) == ("negative-multiplicity", "__mv__V")

    def test_zero_net_rows_are_absent(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        self.forge(path, 'INSERT INTO "__mv__V" VALUES (42, -1)', 'INSERT INTO "__mv__V" VALUES (7, 2)')
        assert load_database(path)["__mv__V"] == Bag([(7,), (7,)])

    def test_data_table_missing_from_catalog(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        self.forge(path, "DELETE FROM __catalog__ WHERE name = 'mixed'")
        with pytest.raises(SnapshotError, match="mixed") as info:
            load_database(path)
        assert (info.value.code, info.value.table) == ("uncatalogued-table", "mixed")

    def test_catalog_row_without_data_table(self, db, tmp_path):
        path = tmp_path / "state.db"
        save_database(db, path)
        self.forge(path, 'DROP TABLE "mixed"')
        with pytest.raises(SnapshotError, match="mixed") as info:
            load_database(path)
        assert (info.value.code, info.value.table) == ("missing-table", "mixed")


class TestResumeMaintenance:
    def test_deferred_state_survives_restart(self, tmp_path):
        """Save mid-deferral, reload, refresh — the view catches up."""
        from repro.core.scenarios import CombinedScenario
        from repro.core.transactions import UserTransaction
        from repro.core.views import ViewDefinition

        database = Database()
        database.create_table("R", ["a"], rows=[(1,), (2,)])
        view = ViewDefinition("V", database.ref("R"))
        scenario = CombinedScenario(database, view)
        scenario.install()
        scenario.execute(UserTransaction(database).insert("R", [(9,)]))
        scenario.propagate()
        scenario.execute(UserTransaction(database).delete("R", [(1,)]))

        path = tmp_path / "warehouse.db"
        save_database(database, path)
        restored = load_database(path)

        resumed = CombinedScenario(restored, view)
        resumed._installed = True  # tables already exist in the file
        resumed.check_invariant()
        resumed.refresh()
        assert resumed.is_consistent()
        assert restored["__mv__V"] == Bag([(2,), (9,)])
