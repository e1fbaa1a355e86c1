"""Property tests: net-effect log compaction is semantics-preserving.

Per-view logs (:meth:`repro.core.logs.Log.compact`): cancelling
``▼R min ▲R`` from both sides must leave ``PAST(L, Q)`` unchanged for
every query, keep the log weakly minimal, and produce the same
materialized view after refresh — while never growing the log.  The
evaluated ``(▼Q, ▲Q)`` pair may differ (churn tuples no longer appear on
both sides); only its *net effect* is preserved.

Shared sequenced logs (:meth:`repro.extensions.sharedlog.SharedLog.compact`):
segment folding between cursor boundaries must preserve
``net_deltas_since(c)`` *bit-exactly* for every registered cursor, so
``INV_BL``-relative invariants keep holding for every view.
"""

import pytest

from repro.core.differential import post_update_delta
from repro.core.logs import Log
from repro.core.scenarios import BaseLogScenario, CombinedScenario
from repro.core.views import ViewDefinition
from repro.warehouse.manager import ViewManager
from repro.workloads.randgen import RandomExpressionGenerator

TRIALS = 12


def logged_pair(seed, scenario_cls):
    """Two identically-seeded scenarios with recorded (uncompacted) churn."""
    instances = []
    for _ in range(2):
        gen = RandomExpressionGenerator(seed, tables=3, max_rows=6)
        db = gen.database()
        view = ViewDefinition("V", gen.query(db, depth=3))
        scenario = scenario_cls(db, view)
        scenario.install()
        for _ in range(3):
            scenario.execute(gen.transaction(db, allow_over_delete=True))
        instances.append(scenario)
    return instances


class TestLogCompaction:
    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_past_state_and_weak_minimality_preserved(self, seed):
        plain, compacted = logged_pair(seed, BaseLogScenario)
        size_before = compacted.log.recorded_changes()
        compacted.compact_log()
        assert compacted.log.recorded_changes() <= size_before
        assert compacted.log.is_weakly_minimal()
        # PAST(L, Q) — the state the log reconstructs — is unchanged, so
        # INV_BL still holds over the compacted log.
        assert plain.invariant_holds()
        assert compacted.invariant_holds()
        eta_plain = plain.log.substitution().apply(plain.view.query)
        eta_compacted = compacted.log.substitution().apply(compacted.view.query)
        assert plain.db.evaluate(eta_plain) == compacted.db.evaluate(eta_compacted)

    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_refresh_after_compaction_matches_oracle(self, seed):
        plain, compacted = logged_pair(seed, BaseLogScenario)
        compacted.compact_log()
        plain.refresh()
        compacted.refresh()
        assert compacted.read_view() == plain.read_view()
        assert compacted.is_consistent()

    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_net_effect_of_deltas_preserved(self, seed):
        """(▼Q, ▲Q) may change tuple-for-tuple, but MV ∸ ▼Q ⊎ ▲Q may not."""
        plain, compacted = logged_pair(seed, BaseLogScenario)
        compacted.compact_log()
        mv = plain.read_view()
        assert mv == compacted.read_view()
        results = []
        for scenario in (plain, compacted):
            delete_expr, insert_expr = post_update_delta(scenario.log, scenario.view.query)
            delete = scenario.db.evaluate(delete_expr)
            insert = scenario.db.evaluate(insert_expr)
            results.append(mv.patch(delete, insert))
        assert results[0] == results[1]

    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_combined_scenario_invariant_survives_compaction(self, seed):
        plain, compacted = logged_pair(seed, CombinedScenario)
        compacted.compact_log()
        assert compacted.invariant_holds()  # INV_C audit
        compacted.propagate()
        compacted.partial_refresh()
        plain.refresh()
        assert compacted.read_view() == plain.read_view()

    def test_churn_compacts_to_nothing(self):
        """A delete/insert round trip leaves a net-empty log."""
        gen = RandomExpressionGenerator(0, tables=1, max_rows=4)
        db = gen.database()
        log = Log(db, db.external_tables())
        log.install()
        table = db.external_tables()[0]
        rows = db[table]
        assert rows, "seed produced an empty table"
        from repro.core.transactions import UserTransaction

        out = UserTransaction(db)
        out.delete(table, rows)
        db.apply(patches=log.extend_patches(out))
        db.apply(patches={table: (out.delete_expr(table), out.insert_expr(table))})
        back = UserTransaction(db)
        back.insert(table, rows)
        db.apply(patches=log.extend_patches(back))
        db.apply(patches={table: (back.delete_expr(table), back.insert_expr(table))})
        assert log.recorded_changes() == 2 * len(rows)
        log.compact()
        assert log.recorded_changes() == 0


class TestSharedLogCompaction:
    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_net_deltas_bit_exact_for_every_cursor(self, seed):
        gen = RandomExpressionGenerator(seed, tables=3, max_rows=6)
        manager = ViewManager(gen.database())
        db, log = manager.db, manager.shared_log
        # Views registered at different times => staggered cursors.
        queries = [gen.query(db, depth=3) for _ in range(3)]
        manager.define_view("V0", queries[0], scenario="shared_log")
        for round_index, query in enumerate(queries[1:], start=1):
            for _ in range(2):
                manager.execute(gen.transaction(db, allow_over_delete=True))
            manager.define_view(f"V{round_index}", query, scenario="shared_log")
        for _ in range(2):
            manager.execute(gen.transaction(db, allow_over_delete=True))

        before = {
            (table, cursor): log.net_deltas_since(table, cursor)
            for table in log.tables
            for cursor in set(log.cursors.values())
        }
        size_before = log.log_size()
        log.compact()
        assert log.log_size() <= size_before
        for (table, cursor), expected in before.items():
            assert log.net_deltas_since(table, cursor) == expected, (
                table,
                cursor,
            )
        for name in manager.views():
            assert manager.scenario(name).invariant_holds(), name

    @pytest.mark.parametrize("seed", range(TRIALS))
    def test_group_refresh_after_compaction_matches_per_view_oracle(self, seed):
        def build():
            gen = RandomExpressionGenerator(seed, tables=3, max_rows=6)
            manager = ViewManager(gen.database())
            for index in range(3):
                manager.define_view(f"V{index}", gen.query(manager.db, depth=3), scenario="shared_log")
            for _ in range(3):
                manager.execute(gen.transaction(manager.db, allow_over_delete=True))
            return manager

        oracle = build()
        subject = build()
        oracle.refresh_all()  # sequential, uncompacted oracle
        subject.refresh_group()
        for name in oracle.views():
            assert subject.query(name) == oracle.query(name), name
            assert not subject.is_stale(name), name
