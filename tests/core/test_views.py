"""Unit tests for view definitions and internal-table naming."""

import pytest

from repro.algebra.schema import Schema
from repro.core import naming
from repro.core.views import ViewDefinition
from repro.storage.database import Database


def make_view():
    db = Database()
    db.create_table("R", ["a"], rows=[(1,)])
    db.create_table("S", ["a"], rows=[(2,)])
    return ViewDefinition("V", db.ref("R").union_all(db.ref("S")))


class TestViewDefinition:
    def test_schema(self):
        assert make_view().schema == Schema(["a"])

    def test_base_tables(self):
        assert make_view().base_tables() == frozenset({"R", "S"})

    def test_mv_table_name(self):
        assert make_view().mv_table == "__mv__V"

    def test_dt_table_names(self):
        view = make_view()
        assert view.dt_delete_table == "__dt_del__V"
        assert view.dt_insert_table == "__dt_ins__V"

    def test_frozen(self):
        view = make_view()
        import dataclasses
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            view.name = "other"


class TestNaming:
    def test_log_names_include_owner_and_table(self):
        assert naming.log_delete_name("V", "R") == "__log_del__V__R"
        assert naming.log_insert_name("V", "R") == "__log_ins__V__R"

    def test_all_internal_names_are_prefixed(self):
        names = [
            naming.log_delete_name("V", "R"),
            naming.log_insert_name("V", "R"),
            naming.mv_name("V"),
            naming.dt_delete_name("V"),
            naming.dt_insert_name("V"),
        ]
        assert all(name.startswith("__") for name in names)
        assert len(set(names)) == len(names)


class TestExternalInputsOnly:
    """A view reads only external tables: one over an MV, log or
    differential table would never see that input change (transactions
    touch only external tables), so it is refused at definition."""

    @staticmethod
    def make_manager(scenario):
        import warnings

        from repro.warehouse import ViewManager

        manager = ViewManager()
        manager.create_table("R", ("a", "b"), rows=[(1, 2), (2, 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            manager.define_view("V1", "SELECT a, b FROM R", scenario=scenario)
            # A combined view, so differential tables exist too.
            manager.define_view("C", "SELECT a FROM R WHERE b != 3", scenario="combined")
        return manager

    @pytest.mark.parametrize("scenario", ["base_log", "combined", "shared_log"])
    def test_view_over_an_internal_table_is_rejected(self, scenario):
        from repro.errors import SchemaError

        manager = self.make_manager(scenario)
        internal = manager.db.internal_tables()
        assert {naming.mv_name("V1"), naming.dt_delete_name("C")} <= set(internal)
        assert any(name.startswith("__log_") for name in internal)
        catalog = manager.db.table_names()
        for table in internal:
            with pytest.raises(SchemaError, match="internal"):
                manager.define_view("V2", f"SELECT a FROM {table}", scenario=scenario)
            assert manager.db.table_names() == catalog, table
            assert manager.views() == ("V1", "C")
        manager.execute_sql("INSERT INTO R VALUES (5, 6)")
        manager.refresh_group()
        manager.check_invariants()

    def test_shared_log_add_view_rejects_an_internal_table(self):
        from repro.errors import SchemaError
        from repro.warehouse.manager import ViewManager

        db = Database()
        db.create_table("R", ["a"], rows=[(1,)])
        manager = ViewManager(db)
        manager.define_view("V1", db.ref("R"), scenario="shared_log")
        catalog = db.table_names()
        for table in db.internal_tables():
            with pytest.raises(SchemaError, match="internal"):
                manager.define_view("V2", db.ref(table), scenario="shared_log")
            assert db.table_names() == catalog
        assert manager.views() == ("V1",)
        assert set(manager.shared_log.cursors) == {"V1"}
