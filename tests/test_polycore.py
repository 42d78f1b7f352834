import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from goldgen import polycore as pc
from goldgen.errors import DegenerateZeros, GoldgenError, RootSolveFailed


def elem_sym(z):
    """sigma_m(z), m = 1..N, read off the fold under coeff_motion."""
    z = np.asarray(z, dtype=np.complex128)
    return np.array(pc.fold(z, np.zeros_like(z))[0])


def brute_elem_sym(z, m):
    return sum(
        np.prod([z[i] for i in idx])
        for idx in itertools.combinations(range(len(z)), m)
    )


complex_entries = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


class TestElemSym:
    def test_sum(self):
        assert elem_sym([2, 3])[0] == 5

    def test_product(self):
        assert elem_sym([2, 3])[1] == 6

    def test_pairs(self):
        # brute force over index pairs: 1*2 + 1*3 + 2*3 = 11
        assert elem_sym([1, 2, 3])[1] == pytest.approx(11)

    @given(st.lists(complex_entries, min_size=2, max_size=6))
    def test_matches_brute_force(self, z):
        got = elem_sym(z)
        for m in range(1, len(z) + 1):
            want = brute_elem_sym(z, m)
            assert abs(got[m - 1] - want) <= 1e-9 * (1 + abs(want))

    @given(st.lists(complex_entries, min_size=2, max_size=6), st.data())
    def test_permutation_invariant(self, z, data):
        perm = data.draw(st.permutations(z))
        got, want = elem_sym(perm), elem_sym(z)
        assert np.all(np.abs(got - want) <= 1e-15 * (1 + np.abs(want)))


def brute_excl_matrix(x):
    """S[n, m-1] = sigma_{n,m}(x): the sum, over the (m-1)-subsets of the
    indices other than n, of the products of their entries."""
    n = len(x)
    s = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        rest = [x[j] for j in range(n) if j != i]
        for m in range(n):
            s[i, m] = sum(math.prod(c) for c in itertools.combinations(rest, m))
    return s


def excl_matrix(z):
    """S[n-1, m-1] = sigma_{n,m}(z) for distinct z, read off
    [R^{-1}]_{mn} = (-1)^m sigma_{n,m}."""
    rinv = pc.r_matrix_inverse(z, sep_tol=0.0)
    return ((-1.0) ** np.arange(1, len(z) + 1)[:, None] * rinv).T


class TestElemSymExcl:
    def test_m1_is_one(self):
        assert np.all(excl_matrix([1.5, -2, 7])[:, 0] == 1)

    def test_two_entries(self):
        assert excl_matrix([5, 7])[0, 1] == 7

    def test_three_entries(self):
        # only admissible subset for n=2, m=3 is {1, 3}: product 1*3
        assert excl_matrix([1, 2, 3])[1, 2] == 3

    @given(st.lists(complex_entries, min_size=2, max_size=6, unique=True))
    def test_matches_brute_force(self, z):
        got, want = excl_matrix(z), brute_excl_matrix(z)
        assert np.all(np.abs(got - want) <= 1e-9 * (1 + np.abs(want)))


def motion_inputs(min_size, max_size):
    """(x, v) of one length, x with distinct entries."""
    return st.integers(min_size, max_size).flatmap(lambda n: st.tuples(
        st.lists(complex_entries, min_size=n, max_size=n, unique=True),
        st.lists(complex_entries, min_size=n, max_size=n),
    ))


class TestCoeffMotion:
    @settings(max_examples=60, deadline=None)
    @given(motion_inputs(2, 12))
    # products below the normal range: entry 7 differs by one subnormal
    @example(([0, 1, 2, 1.5, 0.75, 0.875, 1.666838434846956e-76, -2, 0.5],
              [0] * 8 + [5.557910752655363e-249]))
    def test_velocity_matches_brute_force(self, xv):
        # ydot = signs * (S^T v), with S from explicit subset products: a
        # route that shares no code with the fold
        x, v = (np.array(a, dtype=np.complex128) for a in xv)
        s = brute_excl_matrix(x)
        signs = (-1.0) ** np.arange(1, len(x) + 1)
        _, y_dot = pc.coeff_motion(x, v)
        want = signs * (s.T @ v)
        # relative to the summed magnitudes, the scale rounding acts on,
        # plus the absolute underflow term of the standard error model
        # (a product that underflows is off by up to half a subnormal)
        scale = np.abs(s).T @ np.abs(v)
        tiny = np.finfo(float).smallest_subnormal
        assert np.all(np.abs(y_dot - want) <= 1e-12 * scale + 4 * tiny)

    @given(motion_inputs(1, 12), st.data())
    def test_permutation_invariant(self, xv, data):
        x, v = (np.array(a, dtype=np.complex128) for a in xv)
        p = np.array(data.draw(st.permutations(range(len(x)))))
        y, y_dot = pc.coeff_motion(x, v)
        y_p, y_dot_p = pc.coeff_motion(x[p], v[p])
        assert np.array_equal(y_p, y) and np.array_equal(y_dot_p, y_dot)


class TestMinPairwiseGap:
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_batch_rows_equal_single_calls(self, b, n, data):
        row = st.lists(complex_entries, min_size=n, max_size=n)
        rows = np.array(data.draw(st.lists(row, min_size=b, max_size=b)),
                        dtype=np.complex128)
        want = [pc.min_pairwise_gap(r) for r in rows]
        # a Fortran-ordered batch gives the same rows
        for batch in (rows, np.asfortranarray(rows)):
            gaps = pc.min_pairwise_gap(batch)
            assert gaps.shape == (b,)
            assert gaps.tolist() == want


class TestVieta:
    def test_expand_quadratic(self):
        np.testing.assert_allclose(pc.coeffs_from_zeros([1, 2]), [-3, 2])

    def test_zero_root_kills_constant(self):
        assert pc.coeffs_from_zeros([0, 2.5, -1j])[-1] == 0

    def test_quadratic_roundtrip(self):
        b, c = 0.7 - 0.2j, -1.1 + 0.4j
        r0 = np.sqrt(b * b - 4 * c)
        zeros = [(-b + r0) / 2, (-b - r0) / 2]
        np.testing.assert_allclose(pc.coeffs_from_zeros(zeros), [b, c], atol=1e-14)

    def test_duplicate_zeros_rejected(self):
        with pytest.raises(DegenerateZeros):
            pc.coeffs_from_zeros([1.0, 1.0])


class TestRootFinder:
    def test_simple_factorization(self):
        zs = pc.zeros_from_coeffs([-3, 2])
        np.testing.assert_allclose(zs, [1, 2], atol=1e-10)

    def test_plus_minus_one(self):
        zs = pc.zeros_from_coeffs([0, -1])
        np.testing.assert_allclose(zs, [-1, 1], atol=1e-10)

    def test_double_root_rejected(self):
        # a double root splits at the rounding scale; any separation
        # tolerance above that catches it
        with pytest.raises(DegenerateZeros):
            pc.zeros_from_coeffs([0, 0], pc.Tolerances(sep_tol=1e-6))

    def test_residuals_small(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if pc.min_pairwise_gap(z) < 1e-2:
                continue
            p = pc.coeffs_from_zeros(z)
            zs = pc.zeros_from_coeffs(p)
            res = np.abs(np.polyval(np.concatenate(([1.0], p)), zs)).max()
            assert res <= 1e-11 * max(1.0, float(np.max(np.abs(p))))

    def test_roundtrip_set_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if pc.min_pairwise_gap(z) < 1e-2:
                continue
            zs = pc.zeros_from_coeffs(pc.coeffs_from_zeros(z))
            got = np.sort_complex(np.round(zs, 8))
            want = np.sort_complex(np.round(z, 8))
            np.testing.assert_allclose(got, want, atol=1e-7)


class TestRMatrices:
    def test_r_hand_computed(self):
        r = pc.r_matrix([1, -1])
        np.testing.assert_allclose(r, [[-0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_r_zero_one(self):
        r = pc.r_matrix([0, 1])
        np.testing.assert_allclose(r, [[0, 1], [-1, -1]], atol=1e-15)

    def test_r_scaling_row_structure(self):
        # R_{nm}(lam x) = lam^{1-m} R_{nm}(x)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        lam = 0.7 - 1.3j
        r = pc.r_matrix(x)
        rl = pc.r_matrix(lam * x)
        scale = lam ** (1.0 - np.arange(1, 5))
        np.testing.assert_allclose(rl, r * scale[None, :], rtol=1e-10)

    def test_rinv_hand_computed(self):
        rinv = pc.r_matrix_inverse([1, -1])
        np.testing.assert_allclose(rinv, [[-1, -1], [-1, 1]], atol=1e-15)
        prod = pc.r_matrix([1, -1]) @ rinv
        np.testing.assert_allclose(prod, np.eye(2), atol=1e-14)

    def test_product_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if pc.min_pairwise_gap(x) < 1e-2:
                continue
            r = pc.r_matrix(x)
            rinv = pc.r_matrix_inverse(x)
            np.testing.assert_allclose(r @ rinv, np.eye(n), atol=1e-9)
            np.testing.assert_allclose(rinv @ r, np.eye(n), atol=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateZeros):
            pc.r_matrix([1.0, 1.0 + 1e-12])


class TestDerivativeTransfer:
    def test_zero_velocity_maps_to_zero(self):
        x = np.array([1, -1], dtype=complex)
        assert np.all(pc.r_matrix(x) @ np.zeros(2) == 0)
        assert np.all(pc.coeff_motion(x, np.zeros(2, dtype=complex))[1] == 0)

    def test_hand_computed_forward(self):
        np.testing.assert_allclose(
            pc.r_matrix([1, -1]) @ [1, 0], [-0.5, -0.5], atol=1e-15
        )

    def test_hand_computed_backward(self):
        x, v = np.array([1, -1], dtype=complex), np.array([1, 1], dtype=complex)
        np.testing.assert_allclose(pc.coeff_motion(x, v)[1], [-2, 0], atol=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if pc.min_pairwise_gap(x) < 5e-2:
                continue
            vd = rng.normal(size=n) + 1j * rng.normal(size=n)
            back = pc.coeff_motion(x, pc.r_matrix(x) @ vd)[1]
            np.testing.assert_allclose(back, vd, atol=1e-10)

    def test_velocity_matches_finite_difference(self):
        # move the coefficients along a straight path, compare dx/dt
        rng = np.random.default_rng(9)
        z = np.array([0.8 + 0.2j, -0.5 - 0.4j, 0.1 + 0.9j])
        p0 = pc.coeffs_from_zeros(z)
        ydot = rng.normal(size=3) + 1j * rng.normal(size=3)
        h = 1e-6
        za = pc.zeros_from_coeffs(p0 - h * ydot)
        zb = pc.zeros_from_coeffs(p0 + h * ydot)
        fd = (zb - za) / (2 * h)
        x0 = pc.zeros_from_coeffs(p0)
        np.testing.assert_allclose(
            pc.r_matrix(x0) @ ydot, fd, atol=1e-6
        )


class TestAcceleration:
    def test_reduces_to_goldfish_term(self):
        from goldgen import dynamics

        x = np.array([0.4 + 0.1j, -0.9 + 0.3j, 0.2 - 0.7j])
        v = np.array([1.0, -0.5 + 0.5j, 0.25j])
        acc = pc.accel_transfer(x, v, pc.pair_diffs(x), np.zeros(3))
        gold = dynamics.rhs(x, v, dynamics.ModelSpec("goldfish"))
        np.testing.assert_allclose(acc, gold, atol=1e-12)

    def test_hand_computed(self):
        x, v = np.array([1, -1], dtype=complex), np.array([1, 1], dtype=complex)
        np.testing.assert_allclose(
            pc.accel_transfer(x, v, pc.pair_diffs(x), np.zeros(2)), [1, -1],
            atol=1e-15,
        )

    def test_second_finite_difference(self):
        # quadratic coefficient path y(t) = y0 + y1 t + y2 t^2 / 2
        rng = np.random.default_rng(13)
        z = np.array([0.8 + 0.2j, -0.5 - 0.4j, 0.1 + 0.9j])
        y0 = pc.coeffs_from_zeros(z)
        y1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        y2 = rng.normal(size=3) + 1j * rng.normal(size=3)

        def roots_at(t):
            y = y0 + y1 * t + 0.5 * y2 * t * t
            return pc.zeros_from_coeffs(y)

        h = 1e-4
        fd2 = (roots_at(h) - 2 * roots_at(0.0) + roots_at(-h)) / h**2
        x0 = roots_at(0.0)
        v0 = pc.r_matrix(x0) @ y1
        np.testing.assert_allclose(
            pc.accel_transfer(x0, v0, pc.pair_diffs(x0), y2), fd2, atol=1e-5
        )


def _lattice_zeros(rng, batch, n):
    """(batch, n) zero sets with gaps of at least 0.3 relative to their size:
    distinct cells of a 4x4 lattice of spacing 0.5, jittered, then scaled
    and shifted per row.  Sizes stay near 1 because the tolerances scale
    with max(1, max_k |y_k|), not with the size of the zeros."""
    cells = np.array([rng.choice(16, n, replace=False) for _ in range(batch)])
    z = 0.5 * (cells % 4 + 1j * (cells // 4)) - (0.75 + 0.75j)
    z = z + 0.1 * (rng.uniform(-1, 1, z.shape) + 1j * rng.uniform(-1, 1, z.shape))
    size = 10.0 ** rng.uniform(-0.3, 0.3, (batch, 1))
    shift = rng.uniform(-1, 1, (batch, 1)) + 1j * rng.uniform(-1, 1, (batch, 1))
    return size * (z + shift)


class TestBatchRoots:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_batch_matches_wrapper_and_numpy(self, n, batch, seed):
        from goldgen.matching import set_distance

        rng = np.random.default_rng(seed)
        coeffs = np.array([np.poly(z)[1:] for z in _lattice_zeros(rng, batch, n)])
        zeros, errors = pc.zeros_batch(coeffs)
        assert errors == {}
        for row, got in zip(coeffs, zeros):
            size = max(1.0, float(np.max(np.abs(got))))
            single = pc.zeros_from_coeffs(row)
            assert set_distance(got, single) <= 1e-10 * size
            assert set_distance(got, np.roots(np.concatenate(([1.0], row)))) <= 1e-10 * size
            # rows come back in canonical order
            np.testing.assert_array_equal(got, got[pc.canonical_order(got)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 40), st.integers(0, 2**32 - 1),
           st.sets(st.sampled_from([1, 2, 3, 4])),
           st.sampled_from([pc.DEFAULT_SEP_TOL, 1e-300]),
           st.sampled_from([pc.MAX_SWEEPS, 4, 2, 1]))
    def test_row_does_not_depend_on_its_batch(self, n, batch, seed, extras, sep_tol,
                                              sweeps):
        # every row goes through the same operations whatever else shares
        # its call, in whatever memory layout.  Row kinds: 0 near size 1,
        # and in some batches 1 with a close pair (more sweeps), 2 non-finite,
        # 3 and 4 scaled by 2^40 and 2^-40 (the only rows that are rescaled).
        # A budget of 4 sweeps stalls some rows, one sweep leaves the start
        # visible in the zeros, and with two, rows that settle before their
        # second step share a call with rows that stall after it.  A batch
        # of kinds 0 and 1 keeps the caller's memory layout through the
        # start, where a layout-dependent sum would show
        rng = np.random.default_rng(seed)
        zeros = _lattice_zeros(rng, batch, n)
        # an exact power of two per row brings max_k |y_k|^(1/k) within a
        # factor sqrt(2) of 1, so zeros_batch does not rescale the row
        mag = np.abs(np.array([np.poly(z)[1:] for z in zeros]))
        e = np.rint(np.max(np.log2(mag) / np.arange(1, n + 1), axis=1)).astype(int)
        kind = rng.choice([0, *sorted(extras)], batch)
        e[kind == 3] -= 40
        e[kind == 4] += 40
        zeros = np.ldexp(zeros.real, -e[:, None]) + 1j * np.ldexp(zeros.imag, -e[:, None])
        if n > 1:
            zeros[kind == 1, 1] = zeros[kind == 1, 0] + 1e-4
        coeffs = np.array([np.poly(z)[1:] for z in zeros], dtype=complex)
        coeffs[kind == 2, rng.integers(0, n)] = rng.choice([np.nan, np.inf])
        tol = pc.Tolerances(sep_tol=sep_tol)

        def solved(rows):
            out, errors = pc.zeros_batch(rows, tol)
            return [(z.tobytes(), repr(errors.get(r))) for r, z in enumerate(out)]

        with mock.patch.object(pc, "MAX_SWEEPS", sweeps):
            together = solved(coeffs)
            alone = [solved(row[None])[0] for row in coeffs]
            reversed_ = solved(coeffs[::-1])[::-1]  # a negatively strided view
            fortran = solved(np.asfortranarray(coeffs))
        assert together == alone == reversed_ == fortran

    def test_linear_rows(self):
        # N = 1: the zero is -y_1; a NaN row is reported on its own
        y = np.array([[0.5 - 2j], [1e12 + 3j], [np.nan], [-1e-9j], [0.0]])
        zeros, errors = pc.zeros_batch(y)
        assert list(errors) == [2]
        assert isinstance(errors[2], RootSolveFailed)
        for r in (0, 1, 3, 4):
            assert abs(zeros[r, 0] + y[r, 0]) <= 1e-12 * max(1.0, abs(y[r, 0]))
        # the start is the zero itself, exactly, at any normal scale: tiny
        # rows, whose residual tolerance the start would meet, come back exact
        k = np.array([-24, -35, -60, -300, -1049])
        tiny = (np.ldexp(1.0, k)[:, None] * (0.3 + 0.4j) * np.array([1, 1j, -1, -1j]))
        zeros, errors = pc.zeros_batch(tiny.reshape(-1, 1))
        assert errors == {}
        np.testing.assert_array_equal(zeros, -tiny.reshape(-1, 1))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_empty_batch(self, n, monkeypatch):
        # no row can leave an empty working set, so no sweep may run
        calls = []
        horner = pc._horner

        def counted(*args):
            calls.append(1)
            return horner(*args)

        monkeypatch.setattr(pc, "_horner", counted)
        zeros, errors = pc.zeros_batch(np.zeros((0, n), dtype=complex))
        assert zeros.shape == (0, n) and zeros.dtype == complex and errors == {}
        assert len(calls) <= 1

    def test_canonical_order_rowwise(self):
        x = np.array([[1 + 2j, 1 - 1j, -3 + 0j], [0j, -1j, 1j]])
        order = pc.canonical_order(x)
        np.testing.assert_array_equal(order, [[2, 1, 0], [1, 0, 2]])

    def test_canonical_order_is_lexsort_order(self):
        # numpy's complex sort is (re, im) order; lexsort is the reference
        ties = np.array([1 + 2j, 1 - 1j, -3 + 0j, 1 + 0j, 1 - 1j])
        zeros = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), -1j,
                          complex(-0.0, -1.0), complex(0.0, 1.0), 0j])
        rng = np.random.default_rng(11)
        batch = rng.integers(-2, 3, (8, 6)) + 1j * rng.integers(-2, 3, (8, 6))
        for x in (ties, zeros, batch, batch.real):
            np.testing.assert_array_equal(pc.canonical_order(x),
                                          np.lexsort((x.imag, x.real), axis=-1))

    def test_zeros_batch_rows_in_lexsort_order(self):
        rng = np.random.default_rng(5)
        sets = [*_lattice_zeros(rng, 20, 4), [1, 1 + 1j, 1 - 1j, -2],
                [-1j, 1j, 0.5, -0.5], [2 + 1j, 2 - 1j, 2, 3j]]
        zeros, errors = pc.zeros_batch(np.array([np.poly(z)[1:] for z in sets]))
        assert errors == {}
        for row in zeros:
            np.testing.assert_array_equal(np.lexsort((row.imag, row.real)), range(4))

    def test_non_finite_iterates_are_refused(self, monkeypatch):
        # a NaN start breaks the iteration down: every row, rescaled or not,
        # ends in the non-finite-iterates error
        monkeypatch.setattr(pc, "_START_ROTATION", np.nan)
        pc._start_angles.cache_clear()  # the angles are cached by n
        try:
            for n in range(1, 5):
                coeffs = np.array([np.poly(range(1, n + 1))[1:],
                                   np.full(n, 1e40 - 3e39j), np.full(n, 1e-40j)])
                _, errors = pc.zeros_batch(coeffs)
                assert sorted(errors) == [0, 1, 2]
                for err in errors.values():
                    assert isinstance(err, RootSolveFailed)
                    assert str(err) == "root iterates became non-finite (NaN or infinite)"
        finally:
            monkeypatch.undo()
            pc._start_angles.cache_clear()

    def test_bad_rows_reported_per_row(self):
        good = np.poly([1.0, 2.0])[1:]
        double = np.poly([-1.0, -1.0])[1:]
        huge = [1e200, 1e300]  # residual cannot reach root_tol * scale
        coeffs = np.array([good, double, good, huge], dtype=complex)
        zeros, errors = pc.zeros_batch(coeffs, pc.Tolerances(sep_tol=1e-6))
        assert sorted(errors) == [1, 3]
        assert isinstance(errors[1], DegenerateZeros)
        assert isinstance(errors[3], RootSolveFailed)
        np.testing.assert_allclose(zeros[0], [1.0, 2.0], atol=1e-12)
        np.testing.assert_array_equal(zeros[0], zeros[2])

    def test_non_finite_rows_reported_per_row(self):
        good = np.poly([1.0, 2.0])[1:]
        coeffs = np.array([good, [np.inf, 1.0], good, [0.5, np.nan]], dtype=complex)
        zeros, errors = pc.zeros_batch(coeffs)
        assert sorted(errors) == [1, 3]
        for r in (1, 3):
            assert isinstance(errors[r], RootSolveFailed)
            assert "non-finite coefficients" in str(errors[r])
        alone, _ = pc.zeros_batch(good[None, :])
        np.testing.assert_array_equal(zeros[0], alone[0])
        np.testing.assert_array_equal(zeros[2], alone[0])

    @pytest.mark.parametrize("row", [[-1.5e308 + 1.5e308j], [0, -1.5e308 + 1.5e308j],
                                     [-1.5e308 + 1.5e308j, 1]])
    def test_overflowing_modulus_is_refused(self, row):
        # finite parts whose modulus overflows would give an inf scale
        # ("gap inf <= inf") or iterates past float range: each row is
        # refused up front, and a row beside it in the batch keeps its bits
        good = np.poly([1.0, 2.0])[1:]
        alone, _ = pc.zeros_batch(good[None, :len(row)])
        zeros, errors = pc.zeros_batch(np.array([good[:len(row)], row]))
        assert list(errors) == [1]
        assert isinstance(errors[1], RootSolveFailed)
        assert str(errors[1]) == "non-finite coefficients: some |y_k| is NaN or overflows"
        np.testing.assert_array_equal(zeros[0], alone[0])

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (1, 2, 2)])
    def test_coefficient_array_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=r"\(B, N\) coefficient array"):
            pc.zeros_batch(np.zeros(shape, dtype=complex))

    def test_large_coefficients_are_rescaled(self):
        # zeros of z^10 + 1e40 have modulus 1e4, but z^10 overflows near
        # a start radius of 1e40: the power-of-two substitution avoids it
        coeffs = np.zeros(10, dtype=complex)
        coeffs[-1] = 1e40
        # sep_tol * scale is absolute (scale = 1e40): keep it below the gaps
        zs = pc.zeros_from_coeffs(coeffs, pc.Tolerances(sep_tol=1e-40))
        np.testing.assert_allclose(np.abs(zs), 1e4, rtol=1e-12)
        np.testing.assert_allclose(zs**10, -1e40, rtol=1e-10)

    def test_overflowing_coefficients_raise(self):
        with pytest.raises(RootSolveFailed):
            pc.zeros_from_coeffs([1e120, 1e200, 1.0])

    @pytest.mark.parametrize("coeffs, sweeps, verdict", [
        ([-3, 2], pc.MAX_SWEEPS, None),
        ([1e200, 1e300], pc.MAX_SWEEPS, "RootSolveFailed: root residual"),
        ([1e100 * (0.7 - 0.2j), 0.3 + 0.4j], pc.MAX_SWEEPS, None),
        (np.poly(np.arange(1, 13))[1:], pc.MAX_SWEEPS,
         "RootSolveFailed: Aberth iteration stalled"),
        ([-6, 11, -6], 4, None),
        ([-6, 11, -6], 3, "RootSolveFailed: Aberth iteration stalled"),
        ([1e200, 1e300], 4, "RootSolveFailed: root residual"),
        ([1e200, 1e300], 3, "RootSolveFailed: Aberth iteration stalled"),
    ], ids=["settle", "floor-refused", "floor-accepted", "stall",
            "settle-at-last-top", "one-sweep-short-of-settling",
            "floor-at-last-step", "one-sweep-short-of-the-floor"])
    def test_verdict_by_exit(self, coeffs, sweeps, verdict, monkeypatch):
        # a row leaves the iteration when its residual settles, when its
        # last step fell below the step floor (a residual that cannot reach
        # the tolerance; the last two rows are refused for it, the third is
        # accepted), or stalls when neither holds within MAX_SWEEPS steps.
        # Wilkinson-3 settles after its 4th step and [1e200, 1e300]'s 4th
        # step falls below the floor: with 4 sweeps neither stalls, with 3
        # both do
        monkeypatch.setattr(pc, "MAX_SWEEPS", sweeps)
        _, errors = pc.zeros_batch(np.array([coeffs], dtype=complex))
        got = [f"{type(e).__name__}: {e}" for e in errors.values()]
        if verdict is None:
            assert got == []
        else:
            assert len(got) == 1 and got[0].startswith(verdict), got

    def test_stall_raises(self, monkeypatch):
        p = pc.coeffs_from_zeros([0.3, -0.7 + 0.2j, 0.5j])
        monkeypatch.setattr(pc, "MAX_SWEEPS", 1)
        with pytest.raises(RootSolveFailed, match="stalled"):
            pc.zeros_from_coeffs(p)


def _mp_poly(coeffs):
    return [mpmath.mpc(1)] + [mpmath.mpc(c.real, c.imag) for c in coeffs]


def _mp_residual(coeffs, x) -> float:
    """Exact-arithmetic |p(x)| of the float coefficients at a float point."""
    return float(abs(mpmath.polyval(_mp_poly(coeffs), mpmath.mpc(x.real, x.imag))))


def _mp_zeros(coeffs) -> np.ndarray:
    with mpmath.workdps(60):
        roots = mpmath.polyroots(_mp_poly(coeffs), maxsteps=200, extraprec=200)
    return np.array([complex(r) for r in roots])


class TestRootFinderOracle:
    """mpmath at 60 digits pins the finder's documented guarantees: a
    returned zero set has residual <= root_tol * scale in exact arithmetic,
    lies close to the true zeros and has gap > sep_tol * scale; otherwise
    the finder raises."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_wilkinson(self, n):
        from goldgen.matching import set_distance

        coeffs = np.poly(np.arange(1, n + 1))[1:].astype(complex)
        scale = float(np.max(np.abs(coeffs)))
        tol = pc.Tolerances()
        if n >= 11:
            # double-precision Horner cannot certify these residuals
            with pytest.raises(RootSolveFailed):
                pc.zeros_from_coeffs(coeffs, tol)
            return
        zs = pc.zeros_from_coeffs(coeffs, tol)
        with mpmath.workdps(60):
            assert max(_mp_residual(coeffs, x) for x in zs) <= tol.root_tol * scale
        assert set_distance(zs, _mp_zeros(coeffs)) <= 1e-8
        assert pc.min_pairwise_gap(zs) > tol.sep_tol * scale

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8])
    @pytest.mark.parametrize("sep_tol", [1e-8, 1e-6])
    def test_clustered(self, delta, sep_tol):
        from goldgen.matching import set_distance

        coeffs = np.poly([1 + delta, 1 - delta, -0.5 + 1j, -0.5 - 1j, 0.3j])[1:]
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        tol = pc.Tolerances(sep_tol=sep_tol)
        truth = _mp_zeros(coeffs)
        try:
            zs = pc.zeros_from_coeffs(coeffs, tol)
        except DegenerateZeros:
            # refused only when the true pair really is within sep_tol * scale
            # (up to the rounding spread of a double zero, ~1e-8 here)
            assert pc.min_pairwise_gap(truth) <= sep_tol * scale + 1e-7
            return
        with mpmath.workdps(60):
            assert max(_mp_residual(coeffs, x) for x in zs) <= tol.root_tol * scale
        assert pc.min_pairwise_gap(zs) > sep_tol * scale
        # a pair at distance 2 delta is resolved to ~ eps / delta
        assert set_distance(zs, truth) <= 1e-15 / delta + 1e-12

    # What the absolute acceptance rule gets wrong: silently wrong zeros it
    # lets through, and converged zeros it refuses for some starts.  These
    # pins turn red when that rule is mended; remove their marks then.

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    def test_exact_double_zero_is_refused(self):
        # z^2: today the start circle, +-(1.4e-8 + 5.8e-9j), is accepted
        with pytest.raises(DegenerateZeros):
            pc.zeros_from_coeffs([0, 0])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    def test_small_zeros_are_resolved_or_refused(self):
        from goldgen.matching import set_distance

        # every zero of size 1e-3: |p| < root_tol on the whole start circle,
        # and today the first sweep is accepted, 0.45 of the largest zero off
        z = 1e-3 * np.array([0.9 + 0.1j, -0.6 + 0.7j, -0.4 - 0.8j, 0.3 - 0.5j,
                             0.1 + 0.6j])
        coeffs = np.poly(z)[1:]
        truth = _mp_zeros(coeffs)
        try:
            zs = pc.zeros_from_coeffs(coeffs)
        except GoldgenError:
            return
        assert set_distance(zs, truth) <= 1e-9 * float(np.max(np.abs(truth)))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    @pytest.mark.parametrize("b, c", [(0.7 - 0.2j, 1e-100 * (0.3 + 0.4j)),
                                      (1e100 * (0.7 - 0.2j), 0.3 + 0.4j)])
    def test_tiny_zero_beside_a_large_one(self, b, c):
        # z^2 + b z + c: the small zero is -c/b to within ~1e-100 relative.
        # Today the first comes back 4e75 relative off and the second as 0
        small = -c / b
        try:
            zs = pc.zeros_from_coeffs([b, c])
        except GoldgenError:
            return
        assert abs(zs[np.argmin(np.abs(zs))] - small) <= 1e-9 * abs(small)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=[Phase.generate])  # a shrunk seed is just another seed
    @given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_every_scale_resolved_or_refused(self, n, batch, seed):
        from scipy.optimize import linear_sum_assignment

        # lattice zeros scaled by 2^k, k in -60..60, per row or in some rows
        # per zero: each row comes back within 1e-9 of each true zero,
        # relative to that zero, or is refused
        rng = np.random.default_rng(seed)
        zeros = _lattice_zeros(rng, batch, n)
        per_zero = rng.random(batch) < 0.3
        k = np.where(per_zero[:, None], rng.integers(-60, 61, (batch, n)),
                     rng.integers(-60, 61, (batch, 1)))
        zeros = np.ldexp(zeros.real, k) + 1j * np.ldexp(zeros.imag, k)
        coeffs = np.array([np.poly(z)[1:] for z in zeros], dtype=complex)
        got, errors = pc.zeros_batch(coeffs)
        assert all(isinstance(e, GoldgenError) for e in errors.values())
        powers = np.arange(1, n + 1)
        for r in sorted(set(range(batch)) - set(errors)):
            # mpmath starts near the unit circle: give it the row in the exact
            # power-of-two substitution z = 2^e w that balances it
            e = int(np.rint(np.max(np.log2(np.abs(coeffs[r])) / powers)))
            w = np.ldexp(coeffs[r].real, -e * powers) + 1j * np.ldexp(
                coeffs[r].imag, -e * powers)
            truth = np.ldexp(1.0, e) * _mp_zeros(w)
            rel = np.abs(got[r][:, None] - truth[None, :]) / np.abs(truth)
            worst = rel[linear_sum_assignment(rel)].max()
            assert worst <= 1e-9, (r, k[r].tolist(), worst)

    @pytest.mark.xfail(strict=True, reason="ROADMAP items 6 and 11")
    def test_wilkinson_survives_start_rotation(self, monkeypatch):
        from goldgen.matching import set_distance

        # acceptance must not rest on the start: today Wilkinson-10 is
        # refused at 5 of these 10 rotations (-4, -2, +1, +3, +4)
        rotation = pc._START_ROTATION
        try:
            for shift in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
                monkeypatch.setattr(pc, "_START_ROTATION", rotation + shift * 1e-15)
                pc._start_angles.cache_clear()  # the angles are cached by n
                for n in range(3, 11):
                    zs = pc.zeros_from_coeffs(np.poly(range(1, n + 1))[1:])
                    assert set_distance(zs, np.arange(1, n + 1)) <= 1e-8
        finally:
            monkeypatch.undo()
            pc._start_angles.cache_clear()
