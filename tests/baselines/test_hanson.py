"""Unit tests for the Hanson-style suspended-updates baseline."""

from repro.algebra.bag import Bag
from repro.baselines.hanson import HansonDifferentialFiles
from repro.core.transactions import UserTransaction
from repro.exec import INTERPRETED
from repro.sqlfront import sql_to_view
from repro.storage.database import Database


def make_system(exec_mode=None):
    db = Database(exec_mode=exec_mode)
    db.create_table("R", ["a", "b"], rows=[(1, 1), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    view = sql_to_view(
        "CREATE VIEW V (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b", db
    )
    system = HansonDifferentialFiles(db, view)
    system.install()
    return db, view, system


class TestInstall:
    def test_splits_tables(self):
        db, __, __sys = make_system()
        for name in ("__han_base__R", "__han_del__R", "__han_ins__R"):
            assert db.has_table(name)
            assert db.is_internal(name)

    def test_mv_materialized_from_bases(self):
        db, view, system = make_system()
        assert system.read_view() == Bag([(1, 10), (2, 20)])

    def test_install_idempotent(self):
        __, __view, system = make_system()
        system.install()


class TestVirtualTables:
    def test_virtual_reflects_suspended_updates(self):
        db, __, system = make_system()
        system.execute(UserTransaction(db).insert("R", [(3, 1)]).delete("R", [(2, 2)]))
        assert system.read_table("R") == Bag([(1, 1), (3, 1)])
        # The stored base is untouched.
        assert db["__han_base__R"] == Bag([(1, 1), (2, 2)])

    def test_real_table_stays_in_sync(self):
        db, __, system = make_system()
        system.execute(UserTransaction(db).insert("R", [(3, 1)]))
        assert db["R"] == system.read_table("R")

    def test_query_cost_ratio_exceeds_one_after_updates(self):
        # A claim about the interpreted scan cost model: the sqlite tier runs
        # the virtual scan as one pushed statement, counted by its output rows.
        db, __, system = make_system(INTERPRETED)
        system.execute(UserTransaction(db).insert("R", [(3, 1), (4, 1)]))
        assert system.query_cost_ratio("R") > 1.0


class TestRefresh:
    def test_refresh_applies_suspended_updates(self):
        db, view, system = make_system()
        system.execute(UserTransaction(db).insert("R", [(3, 1)]).delete("S", [(2, 20)]))
        assert not system.is_consistent()
        system.refresh()
        assert system.is_consistent()
        assert system.read_view() == db.evaluate(view.query)

    def test_refresh_absorbs_into_base(self):
        db, __, system = make_system()
        system.execute(UserTransaction(db).insert("R", [(3, 1)]))
        system.refresh()
        assert db["__han_base__R"] == db["R"]
        assert db["__han_del__R"] == Bag.empty()
        assert db["__han_ins__R"] == Bag.empty()

    def test_multiple_rounds(self):
        db, view, system = make_system()
        for step in range(3):
            system.execute(UserTransaction(db).insert("R", [(10 + step, 1)]))
            system.refresh()
            assert system.is_consistent()

    def test_churn_handled(self):
        db, view, system = make_system()
        system.execute(UserTransaction(db).delete("R", [(1, 1)]).insert("R", [(1, 1)]))
        system.refresh()
        assert system.is_consistent()

    def test_refresh_takes_lock(self):
        db, view, system = make_system()
        system.refresh()
        assert system.ledger.section_count(view.mv_table) == 1

    def test_self_join_view_correct(self):
        # Hanson's approach is immune to the state bug even on self-joins,
        # because the pre-update state is physically available.
        db = Database()
        db.create_table("T", ["a", "b"], rows=[(1, 1)])
        view = sql_to_view(
            "CREATE VIEW W (x, y) AS SELECT t1.a, t2.a FROM T t1, T t2 WHERE t1.b = t2.b", db
        )
        system = HansonDifferentialFiles(db, view)
        system.install()
        system.execute(UserTransaction(db).insert("T", [(2, 1)]))
        system.refresh()
        assert system.is_consistent()
        assert len(system.read_view()) == 4
