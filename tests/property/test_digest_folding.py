"""``bag_digest`` is a content digest: equal bags, and only equal bags, digest equal.

Values are drawn so that rows collide across operands (tiny ranges) and
so that ``1``, ``1.0`` and ``True`` — one bag element, three spellings —
meet in one bag.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.bag import Bag
from repro.robustness.journal import bag_digest

values = st.sampled_from([0, 1, 2, 1.0, True, 2.5, "x", None])
rows = st.tuples(values, values)
bags = st.lists(rows, max_size=8).map(Bag)


@given(st.lists(rows, max_size=12), st.randoms(use_true_random=False))
def test_equal_bags_built_in_different_orders_digest_equal(items, rng):
    shuffled = list(items)
    rng.shuffle(shuffled)
    first, second = Bag(items), Bag(shuffled)
    assert first == second
    assert bag_digest(first) == bag_digest(second)


@given(bags, bags)
def test_different_bags_digest_differently(x, y):
    assert (bag_digest(x) == bag_digest(y)) == (x == y)
