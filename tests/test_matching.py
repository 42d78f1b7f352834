import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldgen import matching
from goldgen import permgen as pg


def brute_force(cost):
    """Reference by trying every permutation: the largest costs of the
    pairings with the smallest total, and the smallest largest cost of any
    pairing."""
    n = len(cost)
    if n == 0:
        return {0.0}, 0.0
    pairings = [[cost[i][p[i]] for i in range(n)]
                for p in itertools.permutations(range(n))]
    best = min(sum(c) for c in pairings)
    return {max(c) for c in pairings if sum(c) == best}, min(map(max, pairings))


# two families of n coefficient rows with small integer entries: every
# max-abs cost and every pairing total is an exact integer, so pairings
# tie on their total as often as they can
families = st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[
        st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2),
                 min_size=n, max_size=n)
    ] * 2)
)


class TestSetDistance:
    @settings(deadline=None)
    @given(families)
    def test_equals_some_sum_optimal_pairing(self, ab):
        a, b = (np.array(f, dtype=float).reshape(len(f), 2) for f in ab)
        cost = np.abs(a[:, None] - b[None, :]).max(axis=-1).tolist()
        maxima, min_max = brute_force(cost)
        d = matching.set_distance(a, b)
        assert d in maxima
        assert d >= min_max

    def test_empty(self):
        assert matching.set_distance([], []) == 0.0
        assert matching.set_distance(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0

    def test_depth3_family_bit_exact(self):
        b, c = 0.3 - 0.7j, -0.4 + 0.2j
        closed = [p.coeffs for p in pg.nested_radical_family(b, c)[2]]
        tree = pg.generation_tree([b, c], depth=3)
        engine = [node.poly.coeffs for node in tree.level(3)]
        engine = [engine[i] for i in np.random.default_rng(3).permutation(8)]
        cost = [[float(np.max(np.abs(p - q))) for q in engine] for p in closed]
        maxima, _ = brute_force(cost)
        assert matching.set_distance(closed, engine) in maxima


class TestDistances:
    def test_coefficient_rows_use_max_abs(self):
        # costs [[3, 1], [2, 1]]: the swapped pairing has the smaller total
        a = [[0, 0], [1, 1j]]
        b = [[3, 0], [1, 0]]
        assert matching.set_distance(a, b) == 2.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            matching.set_distance([0, 1], [0])
        with pytest.raises(ValueError):
            matching.set_distance([], [0])

    def test_set_distance_is_sum_optimal_then_max(self):
        # identity pairing: total 1.0, largest edge 1.0; swapped pairing:
        # total 1.17, largest edge 0.58.  set_distance keeps the first.
        a = np.array([0.0, 0.3 + 0.5j])
        b = np.array([0.0, 0.3 - 0.5j])
        assert matching.set_distance(a, b) == pytest.approx(1.0)
