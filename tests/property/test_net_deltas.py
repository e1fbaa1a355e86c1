"""``compose_deltas`` is ``makesafe_BL``'s weakly-minimal fold, in linear time.

One kernel nets a run of ``(delete, insert)`` deltas for the shared log:
its cursors' folds and its compaction.  It is held here to the recurrence it replaces,
spelled with :class:`Bag` operations — ``▼ := ▼ ⊎ (∇ ∸ ▲)``,
``▲ := (▲ ∸ ∇) ⊎ Δ`` — over random runs that delete rows no earlier
delta inserted; to associativity over any split of a run into segments,
which is what lets :meth:`SharedLog.compact` fold segments and seed each
cursor's fold from them; and, end to end, to a compacted shared log
whose every cursor's ``binding_since`` is a memo hit equal to
``net_deltas_since`` on an uncompacted twin.

Values come from a tiny range so rows collide across deltas.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.bag import Bag, compose_deltas
from repro.core.substitution import pair_binding
from repro.extensions.sharedlog import SharedLog, shared_log_name
from repro.storage.database import Database

rows = st.tuples(st.integers(0, 2))
bags = st.dictionaries(rows, st.integers(1, 3), max_size=3).map(Bag.from_counts)
deltas = st.tuples(bags, bags)
runs = st.lists(deltas, max_size=8)


def bag_fold(run):
    """The recurrence as ``makesafe_BL`` spells it, one bag operation at a time."""
    net_delete, net_insert = Bag.empty(), Bag.empty()
    for delete, insert in run:
        net_delete, net_insert = (
            net_delete.union_all(delete.monus(net_insert)),
            net_insert.monus(delete).union_all(insert),
        )
    return net_delete, net_insert


def as_bags(net):
    deletes, inserts = net
    for counts in net:
        assert all(count > 0 for count in counts.values())
    return Bag.from_counts(deletes), Bag.from_counts(inserts)


@given(runs)
def test_compose_equals_the_bag_recurrence(run):
    assert as_bags(compose_deltas(run)) == bag_fold(run)


@given(runs, bags)
def test_applying_the_net_equals_applying_the_run(run, start):
    net_delete, net_insert = as_bags(compose_deltas(run))
    state = start
    for delete, insert in run:
        state = state.patch(delete, insert)
    assert start.patch(net_delete, net_insert) == state


@given(runs, st.lists(st.integers(0, 8), max_size=4))
def test_compose_is_associative_over_any_split(run, cuts):
    bounds = [0, *sorted(min(cut, len(run)) for cut in cuts), len(run)]
    segments = [compose_deltas(run[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert as_bags(compose_deltas(segments)) == as_bags(compose_deltas(run))


def log_database(entries):
    """A database whose shared log of ``R`` holds ``entries`` (seq -> delta)."""
    db = Database()
    db.create_table("R", ("a",))
    log = SharedLog(db)
    log.track("R")
    counts = {}
    for seq, (delete, insert) in entries.items():
        for op, side in (("D", delete), ("I", insert)):
            for (value,), count in side.items():
                counts[(seq, op, value)] = count
    db.set_table(shared_log_name("R"), Bag.from_counts(counts))
    return db, log


@given(st.data())
def test_compaction_seeds_every_cursors_fold(data):
    run = data.draw(st.lists(deltas, min_size=1, max_size=8))
    cursors = data.draw(st.lists(st.integers(0, len(run)), min_size=1, max_size=4))
    entries = {seq: delta for seq, delta in enumerate(run, start=1)}
    _db, log = log_database(entries)
    _twin_db, twin = log_database(entries)
    log.cursors = {f"v{index}": cursor for index, cursor in enumerate(cursors)}
    log.compact()

    def refold(*_args):
        raise AssertionError("binding_since re-folded the log after compact()")

    log.net_deltas_since = refold
    for cursor in cursors:
        net_delete, net_insert = twin.net_deltas_since("R", cursor)
        expected = pair_binding({"R": (net_insert, net_delete)})
        assert log.binding_since(cursor, ("R",)) == expected
    # Replay from the compacted table itself still agrees.
    del log.net_deltas_since
    for cursor in cursors:
        assert log.net_deltas_since("R", cursor) == twin.net_deltas_since("R", cursor)
