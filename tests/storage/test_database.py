"""Unit tests for database states and transaction execution."""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.algebra.expr import Monus, UnionAll, singleton
from repro.algebra.schema import Schema
from repro.errors import SchemaError, TransactionError, UnknownTableError
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database()
    database.create_table("R", ["a"], rows=[(1,), (2,)])
    database.create_table("S", ["b"], rows=[(10,)])
    database.create_table("hidden", ["h"], internal=True)
    return database


class TestCatalog:
    def test_create_and_read(self, db):
        assert db["R"] == Bag([(1,), (2,)])

    def test_schema_of(self, db):
        assert db.schema_of("R") == Schema(["a"])

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table("R", ["x"])

    def test_initial_rows_arity_checked(self):
        database = Database()
        with pytest.raises(SchemaError):
            database.create_table("T", ["a"], rows=[(1, 2)])

    def test_drop(self, db):
        db.drop_table("R")
        assert not db.has_table("R")
        with pytest.raises(UnknownTableError):
            db["R"]

    def test_internal_partition(self, db):
        assert db.is_internal("hidden")
        assert not db.is_internal("R")
        assert set(db.external_tables()) == {"R", "S"}
        assert db.internal_tables() == ("hidden",)

    def test_ref(self, db):
        ref = db.ref("R")
        assert ref.name == "R"
        assert ref.table_schema == Schema(["a"])

    def test_unknown_table_errors(self, db):
        with pytest.raises(UnknownTableError):
            db.ref("nope")
        with pytest.raises(UnknownTableError):
            db.schema_of("nope")

    def test_total_rows(self, db):
        assert db.total_rows() == 3


class TestMutation:
    def test_load_appends(self, db):
        db.load("R", [(3,), (1,)])
        assert db["R"] == Bag([(1,), (1,), (2,), (3,)])

    def test_set_table(self, db):
        db.set_table("R", Bag([(9,)]))
        assert db["R"] == Bag([(9,)])

    def test_set_table_arity_checked(self, db):
        with pytest.raises(SchemaError):
            db.set_table("R", Bag([(1, 2)]))


class TestApply:
    def test_simple_assignment(self, db):
        db.apply({"R": singleton((7,), Schema(["a"]))})
        assert db["R"] == Bag([(7,)])

    def test_simultaneous_swap(self, db):
        # Both RHS read the pre-transaction state: a swap must work.
        db.apply({"R": db.ref("S"), "S": db.ref("R")})
        assert db["R"] == Bag([(10,)])
        assert db["S"] == Bag([(1,), (2,)])

    def test_incremental_form(self, db):
        ref = db.ref("R")
        delete = singleton((1,), Schema(["a"]))
        insert = singleton((5,), Schema(["a"]))
        db.apply({"R": UnionAll(Monus(ref, delete), insert)})
        assert db["R"] == Bag([(2,), (5,)])

    def test_restrict_to_external(self, db):
        with pytest.raises(TransactionError):
            db.apply({"hidden": singleton((1,), Schema(["h"]))}, restrict_to_external=True)

    def test_assignment_arity_checked(self, db):
        with pytest.raises(SchemaError):
            db.apply({"R": db.ref("hidden").product(db.ref("hidden"))})

    def test_failed_transaction_changes_nothing(self, db):
        before = db.snapshot()
        with pytest.raises(SchemaError):
            db.apply({"S": singleton((5,), Schema(["b"])), "R": db.ref("R").product(db.ref("R"))})
        assert db.snapshot() == before

    def test_memo_shared_across_assignments(self):
        # The interpreted engine shares one memo across a transaction's
        # right-hand sides (the compiled engine fuses projection chains
        # into per-plan pipelines instead, so its scan charges differ).
        db = Database(exec_mode="interpreted")
        db.create_table("R", ["a"], rows=[(1,), (2,)])
        db.create_table("S", ["b"], rows=[(10,)])
        counter = CostCounter()
        shared = db.ref("R").project(["a"])
        db.apply({"R": shared, "S": shared.project(["a"], ["b"])}, counter=counter)
        assert counter.by_operator["scan"] == 2  # R scanned once, not twice

    def test_unknown_target_rejected(self, db):
        with pytest.raises(UnknownTableError):
            db.apply({"nope": singleton((1,), Schema(["x"]))})

    def test_an_empty_patch_is_still_a_write(self, db):
        """``(R ∸ φ) ⊎ φ`` keeps the very bag (and what is derived from it),
        but the transaction happened: new version, listeners told."""

        class Listener:
            seen = []

            def on_patch(self, name, delete, insert, before, after):
                self.seen.append((name, len(delete), len(insert), before is after))

        listener = Listener()
        db.add_write_listener(listener)
        bag, version = db["R"], db.version_of("R")
        index = bag.derived("marker", lambda _bag: object())
        empty = singleton((1,), Schema(["a"])).monus(singleton((1,), Schema(["a"])))
        db.apply(patches={"R": (empty, empty)})
        assert db["R"] is bag
        assert db["R"].derived("marker", lambda _bag: object()) is index
        assert db.version_of("R") > version
        assert listener.seen == [("R", 0, 0, True)]


class TestSnapshots:
    def test_snapshot_restore(self, db):
        snap = db.snapshot()
        db.apply({"R": singleton((0,), Schema(["a"]))})
        db.restore(snap)
        assert db["R"] == Bag([(1,), (2,)])

    def test_restore_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.restore({"nope": Bag([(1,)])})

    def test_clone_is_independent(self, db):
        clone = db.clone()
        db.apply({"R": singleton((0,), Schema(["a"]))})
        assert clone["R"] == Bag([(1,), (2,)])
        assert clone.is_internal("hidden")

    def test_repr(self, db):
        assert "R[2]" in repr(db)
