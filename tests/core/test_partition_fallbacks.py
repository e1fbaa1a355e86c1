"""Partitioned-maintenance fallback paths, exercised one by one.

The affected-key fast path must *refuse* quietly whenever its
preconditions fail — RVM702 layout drift, unprunable plans (RVM701),
missing specs, the interpreted oracle — and the scenario must keep
producing oracle-identical results through the whole-table path it falls
back to.  The partition apply itself must stay all-or-nothing under a
``crash-mid-partition-apply``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.algebra.bag import Bag
from repro.analysis.diagnostics import AnalysisWarning
from repro.core.partition_refresh import PartitionedMaintenance
from repro.core.scenarios import BaseLogScenario, CombinedScenario
from repro.core.transactions import UserTransaction
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.journal import bag_digest
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase

SQL = (
    "CREATE VIEW V (custId, item) AS "
    "SELECT c.custId, s.item FROM C c, S s WHERE c.custId = s.custId"
)
#: The join key is projected away: nothing keys the MV rows.
SQL_NO_KEY = (
    "CREATE VIEW V (name, item) AS "
    "SELECT c.name, s.item FROM C c, S s WHERE c.custId = s.custId"
)
#: No key equality at all: a cross product cannot be pruned per key.
SQL_CROSS = (
    "CREATE VIEW V (name, item) AS SELECT c.name, s.item FROM C c, S s"
)


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def _tables(db) -> None:
    db.create_table("C", ["custId", "name"], rows=[(i, f"n{i}") for i in range(8)])
    db.create_table("S", ["custId", "item"], rows=[(i % 6, f"i{i % 3}") for i in range(20)])


def _scenario(db, sql=SQL, cls=BaseLogScenario):
    scenario = cls(db, sql_to_view(sql, db))
    scenario.install()
    return scenario


def _stream(db, scenario, rounds=3):
    """A few maintained transactions followed by a refresh."""
    for index in range(rounds):
        txn = UserTransaction(db)
        txn.insert("S", [(index % 6, f"i{index % 3}"), (index + 1, "fresh")])
        txn.delete("S", [(index % 6, f"i{index % 3}")])
        scenario.execute(txn)
    scenario.refresh()


def _oracle_digest(sql=SQL, rounds=3) -> str:
    db = Database(exec_mode="interpreted")
    _tables(db)
    scenario = _scenario(db, sql)
    _stream(db, scenario, rounds)
    return bag_digest(scenario.read_view())


class TestProbeRefusals:
    def test_plain_database_is_ineligible(self):
        db = Database(exec_mode="compiled")
        _tables(db)
        scenario = _scenario(db)
        assert scenario._pmaint is None

    def test_interpreted_oracle_stays_unpartitioned(self):
        db = PartitionedDatabase(exec_mode="interpreted")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        scenario = _scenario(db)
        assert scenario._pmaint is None

    def test_missing_spec_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        # S undeclared: the probe must not partially commit.
        scenario = _scenario(db)
        assert scenario._pmaint is None

    def test_rvm702_layout_drift_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=4, domain="custId")
        with pytest.warns(AnalysisWarning, match="RVM702"):
            scenario = _scenario(db)
        assert scenario._pmaint is None

    def test_no_mv_key_column_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        scenario = _scenario(db, SQL_NO_KEY)
        assert scenario._pmaint is None

    def test_unkeyed_plan_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        with pytest.warns(AnalysisWarning, match="RVM701"):
            scenario = _scenario(db, SQL_CROSS)
        assert scenario._pmaint is None

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize(
        "sql", [SQL_NO_KEY, SQL_CROSS], ids=["no-mv-key", "cross-product"]
    )
    def test_fallback_still_matches_oracle(self, sql):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        scenario = _scenario(db, sql)
        _stream(db, scenario)
        assert bag_digest(scenario.read_view()) == _oracle_digest(sql)


class TestRuntimeFallbacks:
    def _partitioned_scenario(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        scenario = _scenario(db)
        assert scenario._pmaint is not None
        return db, scenario

    def test_refresh_log_false_falls_back_to_whole_table(self, monkeypatch):
        """A runtime prune failure degrades to refresh_BL, not an error."""
        db, scenario = self._partitioned_scenario()
        monkeypatch.setattr(
            scenario._pmaint, "pruned_deltas", lambda keys, counter=None: None
        )
        _stream(db, scenario)
        # The whole-table path ran: log cleared, contents oracle-identical.
        assert scenario.log.recorded_changes() == 0
        assert bag_digest(scenario.read_view()) == _oracle_digest()

    def test_refresh_handles_empty_epoch_without_locking(self):
        db, scenario = self._partitioned_scenario()
        assert scenario._pmaint.epoch_deltas_if_pending(scenario) is None  # nothing pending
        scenario.refresh()
        assert scenario.ledger.sections == []
        assert scenario.staleness_entries() == 0

    def test_chunked_tasks_refuse_unchunkable_plans(self, monkeypatch):
        db, scenario = self._partitioned_scenario()
        monkeypatch.setattr(
            "repro.core.partition_refresh.analyze_deltas",
            lambda deltas, specs, log_map: SimpleNamespace(
                prunable=True, chunkable=False
            ),
        )
        assert scenario._pmaint.chunked_group_tasks(scenario, order=0) is None


class TestApplyPartsCrash:
    def test_crash_mid_partition_apply_rolls_back_every_slice(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("S", "custId", parts=4, domain="custId")
        before_digest = bag_digest(db["S"])
        before_version = db.version_of("S")
        before_sizes = db.partition_sizes("S")

        # The patch spans several partitions, so the fault point (between
        # per-partition installs) fires with some slices already staged.
        delete = Bag([(0, "i0")])
        insert = Bag([(1, "xx"), (2, "yy"), (3, "zz")])
        INJECTOR.arm("crash-mid-partition-apply", hit=1)
        with pytest.raises(InjectedCrash):
            db.apply_parts({"S": (delete, insert)})

        assert bag_digest(db["S"]) == before_digest
        assert db.version_of("S") == before_version
        assert db.partition_sizes("S") == before_sizes

        # Disarmed, the identical epoch applies cleanly.
        touched = db.apply_parts({"S": (delete, insert)})
        assert touched["S"]  # some partitions were mutated
        assert bag_digest(db["S"]) != before_digest
