"""Partitioned-maintenance fallback paths, exercised one by one.

The affected-key fast path must *refuse* whenever its preconditions
fail — RVM702 layout drift, unprunable plans (RVM701), missing specs,
the interpreted oracle — say which one it was (``partition_probe`` on
the scenario, ``partition_probe{outcome=…}`` in the metrics), and the
scenario must keep producing oracle-identical results through the
whole-table path it falls back to.  The partition apply itself must
stay all-or-nothing under a ``crash-mid-partition-apply``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.algebra.bag import Bag
from repro.analysis.diagnostics import AnalysisWarning
from repro.core.partition_refresh import PROBE_OUTCOMES
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
        assert scenario.partition_probe == "no_api"

    def test_interpreted_oracle_stays_unpartitioned(self):
        db = PartitionedDatabase(exec_mode="interpreted")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        scenario = _scenario(db)
        assert scenario._pmaint is None
        assert scenario.partition_probe == "interpreted"

    def test_missing_spec_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        # S undeclared: the probe must not partially commit.
        scenario = _scenario(db)
        assert scenario._pmaint is None
        assert scenario.partition_probe == "unspecced"

    def test_rvm702_layout_drift_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=4, domain="custId")
        with pytest.warns(AnalysisWarning, match="RVM702"):
            scenario = _scenario(db)
        assert scenario._pmaint is None
        assert scenario.partition_probe == "rvm702"

    def test_no_mv_key_column_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        scenario = _scenario(db, SQL_NO_KEY)
        assert scenario._pmaint is None
        assert scenario.partition_probe == "unkeyed"

    def test_unkeyed_plan_refuses(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("C", "custId", parts=8, domain="custId")
        db.declare_partitioning("S", "custId", parts=8, domain="custId")
        with pytest.warns(AnalysisWarning, match="RVM701"):
            scenario = _scenario(db, SQL_CROSS)
        assert scenario._pmaint is None
        assert scenario.partition_probe == "rvm701"
        # The install-time verdict is the one whole-table fallback on record.
        assert scenario.counter.partition_fallbacks == 1

    def test_every_verdict_is_counted_by_outcome(self):
        def declared(c_parts=8, s_parts=8, mode="compiled"):
            db = PartitionedDatabase(exec_mode=mode)
            _tables(db)
            db.declare_partitioning("C", "custId", parts=c_parts, domain="custId")
            db.declare_partitioning("S", "custId", parts=s_parts, domain="custId")
            return db

        half = PartitionedDatabase(exec_mode="compiled")
        _tables(half)
        half.declare_partitioning("C", "custId", parts=8, domain="custId")
        plain = Database(exec_mode="compiled")
        _tables(plain)
        installs = {
            "accepted": (declared(), SQL),
            "no_api": (plain, SQL),
            "interpreted": (declared(mode="interpreted"), SQL),
            "unspecced": (half, SQL),
            "rvm702": (declared(s_parts=4), SQL),
            "rvm701": (declared(), SQL_CROSS),
            "unkeyed": (declared(), SQL_NO_KEY),
        }
        assert set(installs) == set(PROBE_OUTCOMES)
        with obs.observed() as stack, pytest.warns(AnalysisWarning):
            for outcome, (db, sql) in installs.items():
                assert _scenario(db, sql).partition_probe == outcome
            counted = stack.metrics.snapshot()
        for outcome in PROBE_OUTCOMES:
            assert counted[f'partition_probe{{outcome="{outcome}"}}']["value"] == 1

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

    def test_refresh_handles_empty_epoch_without_locking(self):
        db, scenario = self._partitioned_scenario()
        assert scenario.log.is_empty()  # nothing pending
        scenario.refresh()
        assert scenario.ledger.sections == []
        assert scenario.staleness_entries() == 0


class TestApplyPartsCrash:
    def test_crash_mid_partition_apply_rolls_back_every_slice(self):
        db = PartitionedDatabase(exec_mode="compiled")
        _tables(db)
        db.declare_partitioning("S", "custId", parts=4, domain="custId")
        before_digest = bag_digest(db["S"])
        before_version = db.version_of("S")
        before_sizes = db.partition_sizes("S")

        # The patch spans several partitions, so the fault point (between
        # partition groups) fires with part of the epoch already routed.
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
