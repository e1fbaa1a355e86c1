"""The dynamic lockset sanitizer: algorithm units and live integration."""

from repro import obs
from repro.analysis.mutations import apply_mutation
from repro.core.scenarios import BaseLogScenario
from repro.core.transactions import UserTransaction
from repro.obs.sanitizer import NULL_SANITIZER, LocksetSanitizer, NullSanitizer
from repro.sqlfront import sql_to_view
from repro.storage.database import Database
from repro.storage.partition import PartitionedDatabase

VIEW_SQL = "CREATE VIEW V (a, c) AS SELECT r.a, s.c FROM R r, S s WHERE r.b = s.b"
#: The same join with the partition key in its output, so a partitioned
#: layout refreshes it through the pruned path.
KEYED_VIEW_SQL = "CREATE VIEW V (a, b, c) AS SELECT r.a, r.b, s.c FROM R r, S s WHERE r.b = s.b"
MV = "__mv__V"


def make_scenario(exec_mode="compiled"):
    db = Database(exec_mode=exec_mode)
    db.create_table("R", ["a", "b"], rows=[(1, 1), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    scenario = BaseLogScenario(db, sql_to_view(VIEW_SQL, db))
    scenario.install()
    return scenario


def make_partitioned_scenario():
    db = PartitionedDatabase(exec_mode="compiled")
    db.create_table("R", ["a", "b"], rows=[(1, 1), (2, 2)])
    db.create_table("S", ["b", "c"], rows=[(1, 10), (2, 20)])
    db.declare_partitioning("R", "b", parts=4, domain="b")
    db.declare_partitioning("S", "b", parts=4, domain="b")
    scenario = BaseLogScenario(db, sql_to_view(KEYED_VIEW_SQL, db))
    scenario.install()
    assert scenario.partition_probe == "accepted"
    return scenario


class TestLocksetAlgorithm:
    def test_access_with_lock_held_is_clean(self):
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.lock_acquired(MV)
        sanitizer.on_read([MV])
        sanitizer.on_write([MV])
        sanitizer.lock_released(MV)
        sanitizer.op_exit("refresh")
        assert sanitizer.findings == []

    def test_unlocked_read_and_write_fire(self):
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.on_read([MV])
        sanitizer.on_write([MV])
        sanitizer.op_exit("refresh")
        assert [f.code for f in sanitizer.findings] == ["RVM601", "RVM602"]
        assert all(f.table == MV and f.op == "refresh" for f in sanitizer.findings)

    def test_lockset_is_the_intersection_across_accesses(self):
        # First access under the lock, second without: the candidate
        # lockset shrinks to empty on the second access.
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.lock_acquired(MV)
        sanitizer.on_read([MV])
        sanitizer.lock_released(MV)
        assert sanitizer.findings == []
        sanitizer.on_read([MV])
        assert [f.code for f in sanitizer.findings] == ["RVM601"]

    def test_findings_dedup_on_code_table_op(self):
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.on_read([MV])
        sanitizer.on_read([MV])
        sanitizer.on_read([MV])
        assert len(sanitizer.findings) == 1

    def test_untracked_ops_are_not_judged(self):
        sanitizer = LocksetSanitizer()
        for op in ("makesafe", "propagate"):
            sanitizer.op_enter(op, "V")
            sanitizer.on_write([MV])
            sanitizer.op_exit(op)
        sanitizer.on_write([MV])  # no op open at all
        assert sanitizer.findings == []

    def test_non_mv_tables_are_not_judged(self):
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.on_write(["R", "log_V"])
        assert sanitizer.findings == []

    def test_reentrant_lock_counting(self):
        sanitizer = LocksetSanitizer()
        sanitizer.lock_acquired(MV)
        sanitizer.lock_acquired(MV)
        sanitizer.lock_released(MV)
        assert MV in sanitizer.held_locks()  # still held once
        sanitizer.lock_released(MV)
        assert MV not in sanitizer.held_locks()

    def test_nested_ops_judge_by_innermost(self):
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.op_enter("propagate", "V")
        sanitizer.on_write([MV])  # innermost op is untracked
        sanitizer.op_exit("propagate")
        assert sanitizer.findings == []
        sanitizer.on_write([MV])  # back under refresh, no lock
        assert [f.code for f in sanitizer.findings] == ["RVM602"]

    def test_report_and_reset(self):
        sanitizer = LocksetSanitizer()
        sanitizer.op_enter("refresh", "V")
        sanitizer.on_read([MV])
        report = sanitizer.report()
        assert [d.code for d in report] == ["RVM601"]
        assert report.errors
        sanitizer.reset()
        assert sanitizer.findings == []
        assert len(sanitizer.report()) == 0


class TestNullSanitizer:
    def test_disabled_and_inert(self):
        null = NullSanitizer()
        assert not null.enabled
        null.op_enter("refresh", "V")
        null.lock_acquired(MV)
        null.on_read([MV])
        null.on_write([MV])
        null.lock_released(MV)
        null.op_exit("refresh")

    def test_default_obs_stack_has_no_sanitizer(self):
        assert obs.current().sanitizer is NULL_SANITIZER or not obs.current().sanitizer.enabled
        assert obs.active_sanitizer() is None


class TestIntegration:
    def test_clean_refresh_has_zero_findings(self):
        scenario = make_scenario()
        with obs.observed(sanitizer=True) as stack:
            scenario.execute(UserTransaction(scenario.db).insert("R", [(5, 1)]))
            scenario.refresh()
        assert stack.sanitizer.findings == []

    def test_dropped_lock_is_caught_at_runtime(self):
        for build in (make_scenario, make_partitioned_scenario):
            scenario = build()
            with apply_mutation("dropped_lock"):
                with obs.observed(sanitizer=True) as stack:
                    scenario.execute(UserTransaction(scenario.db).insert("R", [(5, 1)]))
                    scenario.refresh()
            codes = {f.code for f in stack.sanitizer.findings}
            assert codes == {"RVM601", "RVM602"}, build.__name__

    def test_sanitizer_observed_alone(self):
        with obs.observed(tracer=False, metrics=False, accounting=False, sanitizer=True) as stack:
            assert obs.is_enabled()
            assert obs.active_sanitizer() is stack.sanitizer
        assert obs.active_sanitizer() is None

    def test_sanitizer_does_not_change_results(self):
        plain = make_scenario()
        plain.execute(UserTransaction(plain.db).insert("R", [(5, 1)]))
        plain.refresh()
        sanitized = make_scenario()
        with obs.observed(sanitizer=True):
            sanitized.execute(UserTransaction(sanitized.db).insert("R", [(5, 1)]))
            sanitized.refresh()
        assert plain.read_view() == sanitized.read_view()

    def test_observed_reset_clears_findings(self):
        with obs.observed(sanitizer=True) as stack:
            stack.sanitizer.op_enter("refresh", "V")
            stack.sanitizer.on_read([MV])
            assert stack.sanitizer.findings
            stack.reset()
            assert stack.sanitizer.findings == []
