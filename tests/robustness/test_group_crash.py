"""Scripted crashes during group refresh: recovery must roll forward.

The group-refresh epoch is journaled as a *single* intent, so a crash
anywhere inside it — before any view is patched, between two views'
patches, or after the checkpoint but before the commit mark — must be
resolved by :func:`repro.robustness.recovery.recover` into the same
state an uninterrupted run reaches.  The companion contract is pruning:
on a journaled database the shared log must never prune past the last
*committed* checkpoint, so the entries a roll-forward replay needs are
still there.
"""

import pytest

from repro.robustness.durable import DurableWarehouse
from repro.robustness.faults import INJECTOR, InjectedCrash
from repro.robustness.recovery import recover

VIEW_SQL = {
    "TotalsA": "SELECT item, qty FROM sales WHERE qty >= 2",
    "TotalsB": "SELECT item, qty FROM sales WHERE qty >= 2",
    "Joined": "SELECT sales.item, items.price FROM sales, items WHERE sales.item = items.item",
    "Prices": "SELECT item, price FROM items",
}

SALES = [("apple", 1), ("apple", 3), ("pear", 2), ("plum", 5)]
ITEMS = [("apple", 10), ("pear", 7), ("plum", 3)]

CHURN = [
    {"sales": ([("apple", 1)], [("fig", 4), ("fig", 4)])},
    {"items": ([("plum", 3)], [("plum", 4), ("date", 9)])},
    {"sales": ([("fig", 4)], [("pear", 2)]), "items": ([], [("fig", 1)])},
]


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.reset()
    yield
    INJECTOR.reset()


def build(path):
    wh = DurableWarehouse(path)
    wh.create_table("sales", ("item", "qty"), rows=SALES)
    wh.create_table("items", ("item", "price"), rows=ITEMS)
    for name, sql in VIEW_SQL.items():
        wh.define_view(name, sql, scenario="shared_log")
    for deltas in CHURN:
        txn = wh.transaction()
        for table, (delete, insert) in deltas.items():
            if delete:
                txn.delete(table, delete)
            if insert:
                txn.insert(table, insert)
        txn.run()
    return wh


@pytest.fixture()
def oracle(tmp_path):
    with build(tmp_path / "oracle.db") as wh:
        wh.refresh_group()
        return {name: wh.query(name) for name in wh.views()}


def assert_recovered_matches(path, oracle):
    with DurableWarehouse.open(path) as wh:  # auto_recover=True
        assert set(wh.views()) == set(oracle)
        for name, expected in oracle.items():
            assert wh.query(name) == expected, name
            assert not wh.is_stale(name), name
        wh.check_invariants()
    # Recovery is idempotent: a second pass finds nothing pending.
    report = recover(path)
    assert report.action == "none" and report.green


@pytest.mark.parametrize("hit", [1, 2, 3, 4])
def test_crash_mid_group_refresh_rolls_forward(tmp_path, oracle, hit):
    """hit=1 dies in the first view's patch; hit>=2 dies mid-group,
    *between* earlier views' applied patches and later ones'."""
    path = tmp_path / "wh.db"
    wh = build(path)
    INJECTOR.arm("crash-mid-refresh", hit=hit)
    with pytest.raises(InjectedCrash):
        wh.refresh_group()
    wh.close()
    INJECTOR.reset()
    assert_recovered_matches(path, oracle)


def test_crash_after_checkpoint_is_already_applied(tmp_path, oracle):
    path = tmp_path / "wh.db"
    wh = build(path)
    INJECTOR.arm("crash-after-checkpoint", hit=1)
    with pytest.raises(InjectedCrash):
        wh.refresh_group()
    wh.close()
    INJECTOR.reset()
    report = recover(path)
    assert report.action == "already_applied"
    assert report.green
    assert_recovered_matches(path, oracle)


def test_crash_before_journal_leaves_pre_state(tmp_path, oracle):
    path = tmp_path / "wh.db"
    wh = build(path)
    INJECTOR.arm("crash-before-journal", hit=1)
    with pytest.raises(InjectedCrash):
        wh.refresh_group()
    wh.close()
    INJECTOR.reset()
    report = recover(path)
    assert report.action == "none"  # intent never reached the journal
    # The views are still stale but a fresh group refresh catches up.
    with DurableWarehouse.open(path) as reopened:
        reopened.refresh_group()
        for name, expected in oracle.items():
            assert reopened.query(name) == expected, name


def test_pruning_defers_to_committed_watermark(tmp_path):
    """On a journaled db the shared log keeps entries a replay may need:
    the prune floor only advances when a checkpoint commits."""
    path = tmp_path / "wh.db"
    wh = build(path)
    assert wh.manager.shared_log.log_size() > 0  # churn is logged, floor not yet advanced

    INJECTOR.arm("crash-mid-refresh", hit=3)
    with pytest.raises(InjectedCrash):
        wh.refresh_group()
    wh.close()
    INJECTOR.reset()

    # The crashed epoch advanced some cursors in memory, but the prune
    # floor stayed at the last committed checkpoint — the reloaded
    # journal replay still finds every entry it needs.
    with DurableWarehouse.open(path) as recovered:
        recovered.check_invariants()
        # After recovery's own committed refresh_group every cursor is
        # at the head and the watermark has advanced: the log drains.
        assert recovered.manager.shared_log.log_size() == 0


def test_clean_group_refresh_is_durable(tmp_path, oracle):
    """A clean epoch checkpoints exactly the per-view refresh state."""
    path = tmp_path / "wh.db"
    with build(path) as wh:
        wh.refresh_group()
        assert wh.manager.exec_stats()["delta_cache_hits"] > 0
    assert_recovered_matches(path, oracle)
