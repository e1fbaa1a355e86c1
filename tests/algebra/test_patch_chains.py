"""Property tests of long patch chains and of the operators' adopted results.

A table write is ``Bag.patch``: one clone of the table's dict plus the
delta.  A chain of patches that delete rows leaves deleted slots in every
result's dict, which is exactly where a copy that re-inserts row by row
and a copy that clones part ways.  Every version along a chain stays
reachable here, as a snapshot pin would keep it, and each must keep its
rows, its derived index and its independence from the dicts handed out by
``counts()``.

A version a reader indexes hands its index on: the next version's first
keyed read patches it copy-on-write instead of building one.  Every held
version's index, inherited or built, must equal a fresh build of that
version, and no version's index may change when its child inherits from
it, even with two readers resolving the same inheritance at once.

The operators adopt the dicts they build (``Bag._from_clean``) instead of
re-validating them through ``Bag(counts=…)``; the second half checks that
what they adopt is what the validating constructor would have made:
strictly positive counts and the same arity, ``None`` for an empty result.
"""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.bag import Bag
from repro.algebra.evaluation import CostCounter
from repro.exec.indexes import FROZEN_INDEXES, HashIndex

KEY = (HashIndex, (0,))


def _index(bag: Bag) -> HashIndex:
    return bag.derived(KEY, lambda held: HashIndex.build((0,), held))


def _row(rng: random.Random) -> tuple[int, int]:
    return rng.randrange(150), rng.randrange(4)


def _delta(rng: random.Random, current: Bag) -> tuple[Bag, Bag]:
    """Deletes of present rows (some beyond their count) and of absent
    ones, and inserts of fresh rows and of rows just deleted."""
    present = sorted(current.support)
    deleted = rng.sample(present, min(len(present), rng.randrange(5, 30)))
    delete = {row: rng.randrange(1, 4) for row in deleted}
    for _ in range(rng.randrange(3)):
        delete[(1000 + rng.randrange(10), 0)] = 1
    insert: dict[tuple[int, int], int] = {}
    for _ in range(rng.randrange(0, 15)):
        row = _row(rng)
        insert[row] = insert.get(row, 0) + 1
    for row in deleted[: rng.randrange(3)]:
        insert[row] = insert.get(row, 0) + 1
    return Bag(counts=delete), Bag(counts=insert)


def _expected(current: Bag, delete: Bag, insert: Bag) -> Bag:
    """``(X ∸ delete) ⊎ insert`` row by row, validated by the constructor."""
    counts = {}
    for row in current.support | delete.support | insert.support:
        counts[row] = max(current.multiplicity(row) - delete.multiplicity(row), 0) + insert.multiplicity(row)
    return Bag(counts=counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=20, max_value=32))
def test_a_dirty_patch_chain_keeps_every_held_version(seed, steps):
    rng = random.Random(seed)
    current = Bag(_row(rng) for _ in range(rng.randrange(200, 400)))
    held: list[tuple[Bag, dict]] = []
    for _ in range(steps):
        # Pin this version: its rows as a plain dict, and an index over it.
        held.append((current, {row: count for row, count in current.items()}))
        _index(current)
        delete, insert = _delta(rng, current)
        patched = current.patch(delete, insert)
        assert patched == _expected(current, delete, insert)
        assert patched == current.monus(delete).union_all(insert)
        assert patched.arity == (2 if patched else None)
        # A dict handed out by counts() is the caller's: mutating it
        # reaches neither the bag nor the next patch.
        loose = patched.counts()
        loose.clear()
        loose[(-1, -1)] = 7
        assert patched == _expected(current, delete, insert)
        for version, rows in held:
            assert {row: count for row, count in version.items()} == rows
        current = patched
    for version, rows in held:
        assert version.derived_keys() == (KEY,)
        assert _index(version)._buckets == HashIndex.build((0,), version)._buckets
        assert len(version) == sum(rows.values())


def _pinned(bag: Bag, counter: CostCounter | None = None) -> HashIndex:
    """The index a pinned keyed read on column 0 finds or makes."""
    return FROZEN_INDEXES.get("t", (0,), bag, counter=counter)


def _frozen_copy(index: HashIndex) -> dict:
    return {key: dict(bucket) for key, bucket in index._buckets.items()}


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=20, max_value=32))
def test_every_held_version_indexes_as_a_fresh_build_inherited_or_built(seed, steps):
    """Every third version is patched again before anyone reads it, so its
    child builds; every other read version's child inherits."""
    rng = random.Random(seed)
    current = Bag(_row(rng) for _ in range(rng.randrange(200, 400)))
    held: list[tuple[Bag, HashIndex, dict]] = []
    parent_read, delta_rows, inherited = False, 0, 0
    for step in range(steps):
        read = step % 3 != 2
        if read:
            counter = CostCounter()
            index = _pinned(current, counter)
            assert index._buckets == HashIndex.build((0,), current)._buckets
            if parent_read:
                assert counter.by_operator == {"index_maint": delta_rows}
                inherited += 1
            else:
                assert counter.by_operator == {"index_build": len(current)}
            held.append((current, index, _frozen_copy(index)))
        delete, insert = _delta(rng, current)
        current = current.patch(delete, insert)
        parent_read, delta_rows = read, delete.distinct_count() + insert.distinct_count()
        for version, index, buckets in held:
            # A pinned version keeps the very index it had, unchanged.
            assert _pinned(version) is index
            assert index._buckets == buckets
    assert inherited > 0


def test_a_child_inherits_across_floored_deletes_and_leaves_its_parent_alone():
    parent = Bag([(1, 0), (1, 0), (1, 1), (2, 0), (3, 0), (3, 1)] + [(key, 0) for key in range(4, 12)])
    index = _pinned(parent)
    FROZEN_INDEXES.get("t", (1,), parent)
    before = _frozen_copy(index)
    delete = Bag(counts={(1, 0): 5, (2, 0): 1, (9, 9): 2})  # beyond the count, a whole bucket, an absent row
    insert = Bag(counts={(1, 0): 1, (5, 0): 2})
    child = parent.patch(delete, insert)
    assert child.derived_keys() == ((HashIndex, (0,)), (HashIndex, (1,)))  # inheritable before it is read
    counter = CostCounter()
    inherited = _pinned(child, counter)
    assert counter.by_operator == {"index_maint": 5}
    # The record is dropped once used: the parent's other index is no
    # longer the child's to inherit.
    assert child.derived_keys() == ((HashIndex, (0,)),)
    assert inherited._buckets == HashIndex.build((0,), child)._buckets
    assert inherited.lookup((1,)) == {(1, 0): 1, (1, 1): 1} and inherited.lookup((2,)) == {}
    assert index._buckets == before
    assert inherited.lookup((3,)) is index.lookup((3,))  # an untouched bucket is shared


def test_two_readers_resolving_one_inheritance_never_see_a_partial_index(monkeypatch):
    """Reader A stops inside its patch of the inherited index; reader B
    resolves the same inheritance meanwhile.  Both must get a whole index."""
    parent = Bag((key % 40, key) for key in range(400))
    parents_index = _pinned(parent)
    before = _frozen_copy(parents_index)
    delete = Bag((key % 40, key) for key in range(0, 400, 7))
    insert = Bag((key % 40, key) for key in range(400, 430))
    child = parent.patch(delete, insert)
    expected = HashIndex.build((0,), child)._buckets
    a_inside, b_done = threading.Event(), threading.Event()
    original = HashIndex.apply_delta

    def paused(self, delete, insert):
        if threading.current_thread().name == "reader-a":
            a_inside.set()
            assert b_done.wait(5.0)
        return original(self, delete, insert)

    monkeypatch.setattr(HashIndex, "apply_delta", paused)
    seen: dict[str, HashIndex] = {}
    errors: list[BaseException] = []

    def reader(name: str) -> None:
        try:
            if name == "reader-b":
                assert a_inside.wait(5.0)
            index = _pinned(child)
            assert index._buckets == expected
            seen[name] = index
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
        finally:
            if name == "reader-b":
                b_done.set()

    threads = [threading.Thread(target=reader, args=(name,), name=name) for name in ("reader-a", "reader-b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert not errors, errors
    # Both did the work; B stored first, so A's store found B's index.
    assert seen["reader-a"] is seen["reader-b"] is _pinned(child)
    assert parents_index._buckets == before


def test_readers_racing_on_each_new_version_all_get_a_whole_index():
    """More reader threads than cores, switching every microsecond.  The
    writer patches a version only after the readers indexed its parent, so
    every version's first reads race to inherit.  Every reader must get an
    index equal to a fresh build, and no version's index may change after."""
    readers, steps = 6, 30
    rng = random.Random(7)
    versions = [Bag(_row(rng) for _ in range(300))]
    gate = threading.Barrier(readers + 1)
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            for step in range(steps):
                gate.wait(10.0)  # the writer has published versions[step]
                version = versions[step]
                assert _pinned(version)._buckets == HashIndex.build((0,), version)._buckets
                gate.wait(10.0)  # every reader is done with it
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
            gate.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=reader, name=f"reader-{i}") for i in range(readers)]
    try:
        for thread in threads:
            thread.start()
        held = []
        for step in range(steps):
            gate.wait(10.0)
            gate.wait(10.0)
            index = _pinned(versions[step])
            held.append((index, _frozen_copy(index)))
            versions.append(versions[step].patch(*_delta(rng, versions[step])))
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    for version, (index, buckets) in zip(versions, held):
        assert _pinned(version) is index and index._buckets == buckets


rows = st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
bags = st.lists(rows, max_size=10).map(Bag)


def _results(x: Bag, y: Bag) -> dict[str, Bag]:
    return {
        "union_all": x.union_all(y),
        "monus": x.monus(y),
        "monus_self": x.monus(x),
        "select": x.select(lambda row: row[0] < 2),
        "select_none": x.select(lambda row: False),
        "project": x.project((1,)),
        "project_wide": x.project((1, 0, 1)),
        "project_nothing": x.project(()),
        "dedup": x.dedup(),
        "product": x.product(y),
        "product_empty": x.product(Bag.empty()),
        "min_": x.min_(y),
        "max_": x.max_(y),
        "max_empty": Bag.empty().max_(y),
        "except_": x.except_(y),
        "except_self": x.except_(x),
    }


@given(bags, bags)
def test_adopted_results_equal_what_the_constructor_builds(x, y):
    for name, result in _results(x, y).items():
        rebuilt = Bag(counts={row: count for row, count in result.items()})
        assert all(count > 0 for _, count in result.items()), name
        assert result == rebuilt, name
        assert result.arity == rebuilt.arity, name
        assert (result.arity is None) == (not result), name


def test_adopted_results_of_empty_operands_have_no_arity():
    x = Bag([(1, 2), (1, 2), (3, 4)])
    for name, result in _results(x, Bag.empty()).items():
        rebuilt = Bag(counts={row: count for row, count in result.items()})
        assert result.arity == rebuilt.arity, name
    for name, result in _results(Bag.empty(), x).items():
        assert result.arity == Bag(counts={row: count for row, count in result.items()}).arity, name
