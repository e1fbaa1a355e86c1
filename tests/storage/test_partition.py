"""PartitionedDatabase: specs, routing, restricted reads, epoch applies."""

import pytest

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.errors import SchemaError, UnknownTableError
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.storage.partition import PartitionedDatabase, PartitionSpec, stable_key_hash


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def make_db(mode="compiled", *, parts=4):
    db = PartitionedDatabase(exec_mode=mode)
    db.create_table("R", ["k", "v"], rows=[(i, f"v{i}") for i in range(10)])
    db.declare_partitioning("R", "k", parts=parts, domain="k")
    return db


class TestPartitionSpec:
    def test_hash_routing_is_stable_and_in_range(self):
        spec = PartitionSpec("R", "k", 0, 8)
        for value in (0, 17, "alice", None, (1, 2)):
            pid = spec.partition_of(value)
            assert 0 <= pid < 8
            assert pid == spec.partition_of(value)  # deterministic

    def test_string_hash_is_process_stable(self):
        # crc32-based, not the per-process salted builtin hash.
        assert stable_key_hash("customer-7") == 42760520

    def test_range_scheme_uses_bounds(self):
        spec = PartitionSpec("R", "k", 0, 0, scheme="range", bounds=(10, 20))
        assert spec.parts == 3
        assert spec.partition_of(5) == 0
        assert spec.partition_of(10) == 0  # (-inf, 10]
        assert spec.partition_of(11) == 1
        assert spec.partition_of(99) == 2

    def test_range_bounds_must_be_sorted(self):
        with pytest.raises(SchemaError, match="sorted"):
            PartitionSpec("R", "k", 0, 0, scheme="range", bounds=(20, 10))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SchemaError, match="scheme"):
            PartitionSpec("R", "k", 0, 4, scheme="radix")

    def test_co_partitioned_needs_same_layout_and_domain(self):
        a = PartitionSpec("R", "k", 0, 4, domain="k")
        b = PartitionSpec("S", "rk", 1, 4, domain="k")
        c = PartitionSpec("T", "k", 0, 8, domain="k")
        d = PartitionSpec("U", "k", 0, 4, domain="other")
        assert a.co_partitioned(b)
        assert not a.co_partitioned(c)  # part count drifted
        assert not a.co_partitioned(d)  # different domain


class TestDeclarePartitioning:
    def test_slices_cover_existing_rows(self):
        db = make_db()
        assert sum(db.partition_sizes("R")) == 10
        union = Bag.empty()
        for pid in range(4):
            union = union.union_all(db.partition_slice("R", pid))
        assert union == db["R"]

    def test_redeclare_identical_is_idempotent(self):
        db = make_db()
        spec = db.partition_spec("R")
        assert db.declare_partitioning("R", "k", parts=4, domain="k") is spec

    def test_redeclare_different_layout_rejected(self):
        db = make_db()
        with pytest.raises(SchemaError, match="partitioned differently"):
            db.declare_partitioning("R", "k", parts=8)

    def test_unknown_table_rejected(self):
        db = PartitionedDatabase()
        with pytest.raises(UnknownTableError):
            db.declare_partitioning("missing", "k")

    def test_dropped_table_can_be_redeclared_with_another_layout(self):
        db = make_db()
        db.drop_table("R")
        assert db.partition_spec("R") is None
        db.create_table("R", ["k", "v"], rows=[(1, "a")])
        spec = db.declare_partitioning("R", "k", parts=8)
        assert db.partition_spec("R") is spec
        assert sum(db.partition_sizes("R")) == 1

    def test_generic_writes_keep_slices_in_sync(self):
        db = make_db()
        db.set_table("R", Bag([(1, "x"), (5, "y"), (5, "y")]))
        assert sum(db.partition_sizes("R")) == 2  # distinct rows
        union = Bag.empty()
        for pid in range(4):
            union = union.union_all(db.partition_slice("R", pid))
        assert union == Bag([(1, "x"), (5, "y"), (5, "y")])


class TestAffectedKeysAndRestrict:
    def test_affected_keys_project_the_key_column(self):
        db = make_db()
        keys = db.affected_keys({"R": Bag([(3, "v3"), (7, "zzz"), (3, "other")])})
        assert keys == {"k": {3, 7}}

    def test_restrict_returns_exactly_matching_rows(self):
        db = make_db()
        counter = CostCounter()
        bag = db.restrict("R", [3, 7, 99], counter=counter)
        assert bag == Bag([(3, "v3"), (7, "v7")])
        assert counter.index_probes >= 3

    def test_restrict_accepts_generators(self):
        db = make_db()
        assert db.restrict("R", (k for k in (1, 2))) == Bag([(1, "v1"), (2, "v2")])

    def test_restrict_empty_keys(self):
        db = make_db()
        assert db.restrict("R", []) == Bag.empty()

    @pytest.mark.parametrize("mode", ["compiled", "sqlite"])
    def test_restrict_preserves_duplicates(self, mode):
        db = PartitionedDatabase(exec_mode=mode)
        db.create_table("R", ["k", "v"], rows=[(1, "a"), (1, "a"), (2, "b")])
        db.declare_partitioning("R", "k", parts=4)
        assert db.restrict("R", [1]) == Bag([(1, "a"), (1, "a")])

    def test_sqlite_restrict_with_null_key_falls_back_correctly(self):
        # A NULL key is a key like any other: the restriction matches it
        # the way the in-memory key index does (SQL `IN` would not).
        db = PartitionedDatabase(exec_mode="sqlite")
        db.create_table("R", ["k", "v"], rows=[(None, "n"), (1, "a")])
        db.declare_partitioning("R", "k", parts=4)
        assert db.restrict("R", [None]) == Bag([(None, "n")])


class TestApplyParts:
    def test_patch_semantics_match_generic_apply(self):
        db = make_db()
        delete = Bag([(3, "v3")])
        insert = Bag([(3, "new3"), (11, "v11")])
        touched = db.apply_parts({"R": (delete, insert)})
        expected = Bag([(i, f"v{i}") for i in range(10) if i != 3]).union_all(insert)
        assert db["R"] == expected
        spec = db.partition_spec("R")
        assert touched["R"] == {spec.partition_of(3), spec.partition_of(11)}

    def test_over_delete_floors_at_zero(self):
        db = make_db()
        db.apply_parts({"R": (Bag([(3, "v3"), (3, "v3"), (3, "v3")]), Bag.empty())})
        assert (3, "v3") not in db["R"].support
        assert len(db["R"]) == 9

    def test_clears_install_in_same_epoch(self):
        db = make_db()
        db.create_table("log", ["k", "v"], rows=[(1, "pending")])
        db.apply_parts({"R": (Bag.empty(), Bag([(20, "v20")]))},
                       clears={"log": Bag.empty()})
        assert not db["log"]
        assert (20, "v20") in db["R"].support

    def test_unpartitioned_target_rejected(self):
        db = make_db()
        db.create_table("flat", ["x"], rows=[(1,)])
        with pytest.raises(UnknownTableError, match="not partitioned"):
            db.apply_parts({"flat": (Bag.empty(), Bag.empty())})

    def test_counter_records_partitions(self):
        db = make_db()
        counter = CostCounter()
        db.apply_parts({"R": (Bag.empty(), Bag([(0, "x"), (1, "y")]))}, counter=counter)
        assert counter.partitions_touched == 2

    def test_crash_between_partitions_rolls_back_completely(self):
        db = make_db(parts=8)
        db.create_table("log", ["k", "v"], rows=[(1, "pending")])
        before = db["R"]
        version = db.version_of("R")
        # A delta spanning many partitions guarantees the between-
        # partitions fault point is visited.
        delete = Bag([(i, f"v{i}") for i in range(8)])
        INJECTOR.arm("crash-mid-partition-apply")
        with pytest.raises(InjectedCrash):
            db.apply_parts({"R": (delete, Bag([(50, "new")]))},
                           clears={"log": Bag.empty()})
        assert db["R"] == before
        assert db["log"] == Bag([(1, "pending")])
        assert db.version_of("R") == version
        # The rolled-back database is fully usable afterwards.
        db.apply_parts({"R": (Bag.empty(), Bag([(60, "v60")]))})
        assert (60, "v60") in db["R"].support

    def test_crash_rollback_restores_sqlite_mirror(self):
        db = make_db("sqlite", parts=8)
        from repro.algebra.expr import TableRef

        scan = TableRef("R", db.schema_of("R"))
        before = db.evaluate(scan)
        INJECTOR.arm("crash-mid-partition-apply")
        with pytest.raises(InjectedCrash):
            db.apply_parts({"R": (Bag([(i, f"v{i}") for i in range(8)]), Bag.empty())})
        assert db.evaluate(scan) == before


class TestKeyMigration:
    def test_row_moves_between_partitions(self):
        db = make_db()
        spec = db.partition_spec("R")
        old_pid = spec.partition_of(1)
        new_pid = spec.partition_of(42)
        assert old_pid != new_pid or spec.parts == 1
        db.apply_parts({"R": (Bag([(1, "v1")]), Bag([(42, "v1")]))})
        assert (1, "v1") not in db["R"].support
        assert (42, "v1") in db["R"].support
        assert (42, "v1") in db.partition_slice("R", new_pid).support
