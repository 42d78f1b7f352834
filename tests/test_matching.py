import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from goldgen import matching
from goldgen import permgen as pg
from goldgen.polycore import MonicPoly


def brute_force_bottleneck(cost):
    """Reference: minimum over every permutation of the largest matched cost."""
    n = len(cost)
    if n == 0:
        return 0.0
    return min(
        max(cost[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def has_perfect_matching(allowed):
    match = maximum_bipartite_matching(csr_matrix(allowed.astype(np.int8)))
    return bool(np.all(match >= 0))


square_costs = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestBottleneck:
    @settings(deadline=None)
    @given(square_costs)
    def test_equals_brute_force(self, rows):
        cost = np.array(rows, dtype=float).reshape(len(rows), len(rows))
        assert matching.bottleneck(cost) == brute_force_bottleneck(cost.tolist())

    def test_size_12_certificate(self):
        rng = np.random.default_rng(5)
        cost = rng.integers(0, 40, size=(12, 12)).astype(float)
        v = matching.bottleneck(cost)
        assert v in cost
        assert has_perfect_matching(cost <= v)
        assert not has_perfect_matching(cost < v)

    def test_empty(self):
        assert matching.bottleneck(np.zeros((0, 0))) == 0.0

    def test_depth3_family_bit_exact(self):
        b, c = 0.3 - 0.7j, -0.4 + 0.2j
        closed = pg.nested_radical_family(b, c)[2]
        tree = pg.generation_tree(MonicPoly([b, c]), depth=3)
        engine = [node.poly for node in tree.level(3)]
        engine = [engine[i] for i in np.random.default_rng(3).permutation(8)]
        cost = [
            [float(np.max(np.abs(p.coeffs - q.coeffs))) for q in engine]
            for p in closed
        ]
        assert pg.match_poly_sets(closed, engine) == brute_force_bottleneck(cost)


class TestDistances:
    def test_coefficient_rows_use_max_abs(self):
        a = [[0, 0], [1, 1j]]
        b = [[3, 0], [1, 0]]
        np.testing.assert_array_equal(
            matching.distance_matrix(a, b), [[3.0, 1.0], [2.0, 1.0]]
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            matching.distance_matrix([0, 1], [0])

    def test_set_distance_is_sum_optimal_then_max(self):
        # identity pairing: total 1.0, largest edge 1.0; swapped pairing:
        # total 1.17, largest edge 0.58.  set_distance keeps the first.
        a = np.array([0.0, 0.3 + 0.5j])
        b = np.array([0.0, 0.3 - 0.5j])
        assert matching.set_distance(a, b) == pytest.approx(1.0)
        assert matching.bottleneck(matching.distance_matrix(a, b)) == (
            pytest.approx(abs(0.3 + 0.5j))
        )
