import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldgen import permgen as pg
from goldgen.errors import DegenerateZeros, NonFiniteState, TreeBudgetExceeded
from goldgen.matching import set_distance
from goldgen.polycore import (
    MonicPoly,
    Tolerances,
    canonical_order,
    check_distinct,
    coeffs_from_zeros,
    zeros_batch,
)


def assert_tree_json(text: str, tree) -> None:
    """`text` is, byte for byte, json.dumps of the tree's document built
    value by value, with each node's coeffs read from its own polynomial.
    Fails at the first difference: pytest's own diff of two long one-line
    strings runs for minutes."""

    def pairs(a):
        return [[float(z.real), float(z.imag)] for z in np.asarray(a)]

    want = json.dumps({
        "seed": pairs(tree.levels[0][1][0]),
        "depth": tree.depth,
        "nodes": [
            {"mu": list(addr), "coeffs": pairs(node.poly.coeffs),
             "zeros": pairs(node.zeros)}
            for addr, node in sorted(tree.nodes.items())
        ],
    })
    if text != want:
        i = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b),
                 min(len(text), len(want)))
        lo = max(i - 40, 0)
        pytest.fail(f"differs at {i}: {text[lo:i + 40]!r} != {want[lo:i + 40]!r}")


def parent_zeros(tree, addr):
    """The zeros that the node at `addr` is an ordering of: its parent's, or
    the seed's for a level-1 node."""
    return tree.levels[0][2][0] if len(addr) == 1 else tree.nodes[addr[:-1]].zeros


def canonical_sort(x):
    x = np.asarray(x, dtype=np.complex128)
    return x[canonical_order(x)]


class TestCanonicalSort:
    def test_real_parts_ascending(self):
        out = canonical_sort([2.0, -1.0, 0.5])
        np.testing.assert_array_equal(out, [-1.0, 0.5, 2.0])

    def test_tie_breaks_on_imag(self):
        out = canonical_sort([1 + 2j, 1 - 1j, 0.0])
        np.testing.assert_array_equal(out, [0.0, 1 - 1j, 1 + 2j])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateZeros):
            check_distinct([1.0, 1.0 + 1e-12])


class TestMuIndexing:
    def test_identity_is_mu1(self):
        for n in range(1, 6):
            assert pg.mu_to_perm(1, n) == tuple(range(1, n + 1))

    def test_reversal_is_last(self):
        for n in range(1, 6):
            assert pg.mu_to_perm(math.factorial(n), n) == tuple(
                range(n, 0, -1)
            )

    def test_n3_lexicographic_table(self):
        want = [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]
        assert [pg.mu_to_perm(m, 3) for m in range(1, 7)] == want

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pg.mu_to_perm(0, 3)
        with pytest.raises(ValueError):
            pg.mu_to_perm(7, 3)

    def test_roundtrip_exhaustive(self):
        # row mu - 1 of the itertools order GenerationTree.perms expands in
        for n in range(1, 7):
            want = list(itertools.permutations(range(1, n + 1)))
            assert [pg.mu_to_perm(mu, n) for mu in range(1, len(want) + 1)] == want

    def test_rank_order_matches_sorted_tuples(self):
        for n in (3, 4):
            lex = sorted(itertools.permutations(range(1, n + 1)))
            got = [pg.mu_to_perm(m, n) for m in range(1, math.factorial(n) + 1)]
            assert got == lex

    @given(st.integers(2, 7), st.data())
    def test_roundtrip_property(self, n, data):
        mu = data.draw(st.integers(1, math.factorial(n)))
        row = itertools.islice(itertools.permutations(range(1, n + 1)), mu - 1, None)
        assert pg.mu_to_perm(mu, n) == next(row)

    def test_apply_mu(self):
        # lift orders the zeros canonically, then applies the mu-th
        # permutation: (30, 10, 20) -> (10, 20, 30) -> (20, 10, 30)
        frames = np.array([[30, 10, 20], [31, 11, 21]], dtype=np.complex128)
        zeros, order = pg.lift(frames, 3)
        np.testing.assert_array_equal(frames[:, order], [[20, 10, 30], [21, 11, 31]])
        assert zeros.shape == (2, 3)


class TestGenerationStep:
    def test_zero_swap_changes_coeffs(self):
        root = pg.generation_tree([0, -1], 0).levels[0][2][0]  # zeros -1, 1
        coeffs = [root[pg.lift(root[None], mu)[1]] for mu in (1, 2)]
        np.testing.assert_allclose(coeffs[0], [-1, 1], atol=1e-10)
        np.testing.assert_allclose(coeffs[1], [1, -1], atol=1e-10)

    def test_child_zeros_consistent(self):
        root = pg.generation_tree([0.3 - 1j, -0.8, 1.1 + 0.2j], 0).levels[0][2][0]
        (zeros,), order = pg.lift(root[None], 4)
        back = coeffs_from_zeros(zeros)
        np.testing.assert_allclose(back, root[order], atol=1e-9)

    def test_address_extends(self):
        tree = pg.generation_tree(MonicPoly([0, -1]), depth=2)
        assert tree.nodes[(2, 1)].address == (2, 1)
        for addr in tree.nodes:
            assert len(addr) == 1 or addr[:-1] in tree.nodes


class TestGenerationTree:
    def test_level_sizes(self):
        tree = pg.generation_tree(MonicPoly([1.0, -1.0 + 0.5j]), depth=3)
        assert [len(tree.level(k)) for k in (1, 2, 3)] == [2, 4, 8]
        assert not tree.failed

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            pg.generation_tree(MonicPoly([1.0, -1.0 + 0.5j]), depth=-1)

    def test_budget_enforced(self):
        with pytest.raises(TreeBudgetExceeded):
            pg.generation_tree(MonicPoly([0, 0, 0, -1.0]), depth=5,
                               node_budget=100)

    def test_degenerate_seed_fatal(self):
        # zeros of z^2 - 2z + 1 coincide; the seed itself fails
        from goldgen.polycore import Tolerances

        with pytest.raises(DegenerateZeros):
            pg.generation_tree(
                MonicPoly([-2.0, 1.0]), depth=1,
                tol=Tolerances(sep_tol=1e-6),
            )

    def test_failed_branches_recorded(self):
        # seed zeros (1, 2): the swapped child is z^2 + 2z + 1 = (z+1)^2,
        # a double root, so branch (2,) halts while (1,) survives
        from goldgen.polycore import Tolerances

        tree = pg.generation_tree(
            MonicPoly([-3.0, 2.0]), depth=1, tol=Tolerances(sep_tol=1e-6)
        )
        assert set(tree.nodes) == {(1,)}
        assert set(tree.failed) == {(2,)}

    def test_level_batch_matches_single_steps(self):
        tree = pg.generation_tree(MonicPoly([1.0, -1.0 + 0.5j, 0.3j]), depth=2)
        assert len(tree.nodes) == 6 + 36 and not tree.failed
        for addr, node in tree.nodes.items():
            parent = parent_zeros(tree, addr)
            (zeros,), order = pg.lift(parent[None], addr[-1])
            np.testing.assert_array_equal(node.poly.coeffs, parent[order])
            np.testing.assert_allclose(node.zeros, zeros, atol=1e-12)

    def test_nodes_pass_the_checks_they_skip(self):
        # nodes are built unchecked from zeros_batch rows; their coeffs are
        # what the seed check asks for (finite complex128 vectors), their zeros
        # pass the separation check and are in the canonical order the next
        # level branches on
        tree = pg.generation_tree(MonicPoly([1.0, -1.0 + 0.5j, 0.3j]), depth=2)
        for node in tree.nodes.values():
            coeffs = node.poly.coeffs
            assert coeffs.dtype == node.zeros.dtype == np.complex128
            assert coeffs.shape == (3,) and np.isfinite(coeffs).all()
            check_distinct(node.zeros, 1e-8 * max(1.0, np.abs(coeffs).max()))
            np.testing.assert_array_equal(canonical_order(node.zeros),
                                          np.arange(len(node.zeros)))

    def test_failed_branch_message_matches_single_step(self):
        tol = Tolerances(sep_tol=1e-6)
        tree = pg.generation_tree(MonicPoly([-3.0, 2.0]), depth=1, tol=tol)
        with pytest.raises(DegenerateZeros) as exc:
            pg.lift(tree.levels[0][2], 2, tol)
        assert type(tree.failed[(2,)]) is DegenerateZeros
        assert str(tree.failed[(2,)]) == str(exc.value)

    @pytest.mark.parametrize("n, depth, sep_tol", [(2, 3, 1e-8), (3, 3, 0.5), (4, 2, 0.5)])
    def test_levels_are_views_of_the_level_arrays(self, n, depth, sep_tol):
        # level(k) is the address-ordered slice of `nodes`, and every node's
        # coeffs are bit for bit its parent's zeros in the mu-th order
        rng = np.random.default_rng([n, depth])
        seed = MonicPoly(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        tree = pg.generation_tree(seed, depth, tol=Tolerances(sep_tol=sep_tol))
        for k in range(depth + 2):
            want = [nd for a, nd in sorted(tree.nodes.items()) if len(a) == k]
            got = tree.level(k)
            assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
        for addr, node in tree.nodes.items():
            assert node.address == addr
            perm = np.array(pg.mu_to_perm(addr[-1], n)) - 1
            assert node.poly.coeffs.tobytes() == parent_zeros(tree, addr)[perm].tobytes()
        assert tree.levels[0][1][0].tobytes() == seed.coeffs.tobytes()

    def test_rows_reach_zeros_batch_c_ordered(self, monkeypatch):
        # the order of numpy's complex sums follows the memory layout, so a
        # strided batch could round a row differently from its one-row solve
        seen = []

        def checked(coeffs, tol):
            seen.append(coeffs.shape)
            assert coeffs.flags.c_contiguous
            return zeros_batch(coeffs, tol)

        monkeypatch.setattr(pg, "zeros_batch", checked)
        pg.generation_tree(MonicPoly([1.0, -1.0 + 0.5j, 0.3j]), depth=2,
                           tol=Tolerances(sep_tol=0.5))
        assert [shape[1] for shape in seen] == [3, 3] and seen[0][0] == 6

    @pytest.mark.parametrize("coeffs, text", [
        ([], "degree must be >= 1"),
        ([[1.0, 2.0]], "expected a 1-d vector"),
        ([1.0, np.nan], "non-finite entries"),
    ], ids=["empty", "2-d", "nan"])
    def test_seed_is_checked_in_any_form(self, coeffs, text):
        # the seed check is generation_tree's own: a MonicPoly is a plain
        # record, so it refuses the same seeds with the same text
        for seed in (coeffs, np.array(coeffs), MonicPoly(coeffs)):
            with pytest.raises(ValueError) as exc:
                pg.generation_tree(seed, 1)
            assert str(exc.value) == text

    def test_one_zero_seed_keeps_to_the_budget(self):
        # at N = 1 each level has one node, but an address holds `depth`
        # entries: 2**depth - 1 nodes' worth of entries is what is budgeted
        tree = pg.generation_tree(MonicPoly([0.5 + 0.1j]), depth=19)
        assert len(tree.nodes) == 19 and (1,) * 19 in tree.nodes
        for depth in (20, 10**18):
            start = time.perf_counter()
            with pytest.raises(TreeBudgetExceeded):
                pg.generation_tree(MonicPoly([0.5 + 0.1j]), depth)
            assert time.perf_counter() - start < 0.5
        assert len(pg.generation_tree([1.0], 3, node_budget=7).nodes) == 3
        with pytest.raises(TreeBudgetExceeded):
            pg.generation_tree([1.0], 4, node_budget=7)

    def test_json_schema_fields(self):
        tree = pg.generation_tree(MonicPoly([1.0, -1.0]), depth=1)
        d = json.loads(tree.to_json())
        assert set(d) == {"seed", "depth", "nodes"}
        assert d["depth"] == 1
        assert d["seed"] == [[1.0, 0.0], [-1.0, 0.0]]
        for node in d["nodes"]:
            assert set(node) == {"mu", "coeffs", "zeros"}
            assert all(len(pair) == 2 for pair in node["coeffs"])


class TestTreeJson:
    # (4, 3) is left out: 14424 nodes, over a second, and nothing the
    # smaller trees do not already exercise.  sep_tol 0.5 fails branches at
    # inner levels of the N = 3 and 4 trees (test_sep_tol_fails_inner_branches)
    @pytest.mark.parametrize("n, depth, sep_tol", [
        pytest.param(n, depth, sep_tol,
                     id=f"{n}-{depth}" + (f"-sep{sep_tol}" if sep_tol > 1e-8 else ""))
        for n in (1, 2, 3, 4) for depth in range(4) for sep_tol in (1e-8, 0.5)
        if (n, depth) != (4, 3)
    ])
    def test_bytes_match_json_dumps(self, n, depth, sep_tol):
        rng = np.random.default_rng([n, depth])
        seed = MonicPoly(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        tree = pg.generation_tree(seed, depth, tol=Tolerances(sep_tol=sep_tol))
        assert_tree_json(tree.to_json(), tree)

    @pytest.mark.parametrize("n, depth, levels", [(3, 3, {2, 3}), (4, 2, {1, 2})])
    def test_sep_tol_fails_inner_branches(self, n, depth, levels):
        rng = np.random.default_rng([n, depth])
        seed = MonicPoly(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        tree = pg.generation_tree(seed, depth, tol=Tolerances(sep_tol=0.5))
        assert {len(a) for a in tree.failed} == levels
        assert len(tree.level(depth)) > 0

    def test_bytes_match_when_a_whole_level_fails(self):
        # zeros 4w, 4w^2 (w^3 = 1): both children have a double zero
        tree = pg.generation_tree(MonicPoly([4.0, 16.0]), 2, tol=Tolerances(sep_tol=1e-6))
        assert set(tree.failed) == {(1,), (2,)} and not tree.nodes
        assert tree.level(1) == [] and tree.level(2) == []
        assert_tree_json(tree.to_json(), tree)
        assert tree.to_json().endswith('"depth": 2, "nodes": []}')

    @pytest.mark.parametrize("seed, sep_tol, text, failed", [
        ([-3.0, 2.0], 1e-6, '"mu": [1, 1, 1]', True),
        ([complex(1, -0.0), complex(-0.0, 0.5)], 1e-8, "-0.0", False),
        ([0.7 - 0.2j, 1e-100 * (0.3 + 0.4j)], 1e-8, "e-101", False),
        ([1e100 * (0.7 - 0.2j), 0.3 + 0.4j], 1e-8, "e+99", True),
    ])
    def test_bytes_match_on_edge_trees(self, seed, sep_tol, text, failed):
        tree = pg.generation_tree(MonicPoly(seed), 3, tol=Tolerances(sep_tol=sep_tol))
        out = tree.to_json()
        assert_tree_json(out, tree)
        assert text in out
        assert len(tree.nodes) > 1 and bool(tree.failed) == failed


class TestClosedFormFamily:
    def test_generation1_solves_seed(self):
        b, c = 0.7 - 0.3j, -1.2 + 0.5j
        gen1, _, _ = pg.nested_radical_family(b, c)
        for p in gen1:
            # each gen-1 coefficient vector is a zero pair of z^2 + bz + c
            for z in p.coeffs:
                assert abs(z * z + b * z + c) < 1e-12

    def test_matches_tree_engine(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            try:
                fam = pg.nested_radical_family(b, c)
            except DegenerateZeros:
                continue
            tree = pg.generation_tree(MonicPoly([b, c]), depth=3)
            if tree.failed:
                continue
            for k, closed in enumerate(fam, start=1):
                engine = [node.poly.coeffs for node in tree.level(k)]
                assert set_distance([p.coeffs for p in closed], engine) < 1e-9

    def test_radicals_take_the_upper_branch_on_the_cut(self):
        # b = 0 - 0j gives r0 = sqrt(-4 - 0j), which numpy puts at -2i: the
        # principal branch is +2i, so generation 1's first child is (i, -i)
        gen1, _, _ = pg.nested_radical_family(complex(0.0, -0.0), 1.0)
        assert complex(np.sqrt(complex(-4.0, -0.0))) == -2j
        assert gen1[0].coeffs.tolist() == [1j, -1j]

    def test_degenerate_radicand_rejected(self):
        with pytest.raises(DegenerateZeros):
            pg.nested_radical_family(2.0, 1.0)  # b^2 - 4c = 0

    @pytest.mark.parametrize("b, c", [(1e200, 1e300), (np.nan, 1.0), (1.0, np.inf),
                                      (1e300 + 1e300j, 0.0), (1e155, 1.0)])
    def test_overflow_is_a_goldgen_error(self, b, c):
        # radicals or coefficients that overflow or are NaN
        with pytest.raises(NonFiniteState):
            pg.nested_radical_family(b, c)


class TestMatchPolySets:
    def test_permuted_families_match(self):
        fam = [MonicPoly([1, 2]), MonicPoly([3, 4]), MonicPoly([5, 6])]
        assert pg.match_poly_sets(fam, fam[::-1]) == 0
        assert pg.match_poly_sets([], []) == 0.0

    def test_distance_reported(self):
        a = [MonicPoly([0, 0]), MonicPoly([1, 1])]
        b = [MonicPoly([1, 1]), MonicPoly([0, 0.5])]
        assert pg.match_poly_sets(a, b) == pytest.approx(0.5)
        # the sum-optimal pairing (total 1.0, largest 1.0), not the pairing
        # with the smaller largest cost (total 1.17, largest 0.58)
        a = [MonicPoly([0]), MonicPoly([0.3 + 0.5j])]
        b = [MonicPoly([0]), MonicPoly([0.3 - 0.5j])]
        assert pg.match_poly_sets(a, b) == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pg.match_poly_sets([MonicPoly([0, 0])], [])
