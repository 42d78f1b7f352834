import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldgen import polycore as pc
from goldgen.errors import DegenerateZeros, RootSolveFailed


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
        assert pc.elem_sym_all([2, 3])[0] == 5

    def test_product(self):
        assert pc.elem_sym_all([2, 3])[1] == 6

    def test_pairs(self):
        # brute force over index pairs: 1*2 + 1*3 + 2*3 = 11
        assert pc.elem_sym_all([1, 2, 3])[1] == pytest.approx(11)

    @given(st.lists(complex_entries, min_size=2, max_size=6))
    def test_matches_brute_force(self, z):
        got = pc.elem_sym_all(z)
        for m in range(1, len(z) + 1):
            want = brute_elem_sym(z, m)
            assert abs(got[m - 1] - want) <= 1e-9 * (1 + abs(want))

    @given(st.lists(complex_entries, min_size=2, max_size=6), st.data())
    def test_permutation_invariant(self, z, data):
        perm = data.draw(st.permutations(z))
        got, want = pc.elem_sym_all(perm), pc.elem_sym_all(z)
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
    def test_velocity_matches_brute_force(self, xv):
        # ydot = signs * (S^T v), with S from explicit subset products: a
        # route that shares no code with the fold
        x, v = (np.array(a, dtype=np.complex128) for a in xv)
        s = brute_excl_matrix(x)
        signs = (-1.0) ** np.arange(1, len(x) + 1)
        _, y_dot = pc.coeff_motion(x, v)
        want = signs * (s.T @ v)
        # relative to the summed magnitudes, the scale rounding acts on
        scale = np.abs(s).T @ np.abs(v)
        assert np.all(np.abs(y_dot - want) <= 1e-12 * scale)

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
        assert np.all(pc.zeros_velocity([1, -1], [0, 0]) == 0)
        assert np.all(pc.coeffs_velocity([1, -1], [0, 0]) == 0)

    def test_hand_computed_forward(self):
        np.testing.assert_allclose(
            pc.zeros_velocity([1, -1], [1, 0]), [-0.5, -0.5], atol=1e-15
        )

    def test_hand_computed_backward(self):
        np.testing.assert_allclose(
            pc.coeffs_velocity([1, -1], [1, 1]), [-2, 0], atol=1e-15
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
            if pc.min_pairwise_gap(x) < 5e-2:
                continue
            vd = rng.normal(size=n) + 1j * rng.normal(size=n)
            back = pc.coeffs_velocity(x, pc.zeros_velocity(x, vd))
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
            pc.zeros_velocity(x0, ydot), fd, atol=1e-6
        )


class TestAcceleration:
    def test_reduces_to_goldfish_term(self):
        from goldgen import dynamics

        x = np.array([0.4 + 0.1j, -0.9 + 0.3j, 0.2 - 0.7j])
        v = np.array([1.0, -0.5 + 0.5j, 0.25j])
        acc = pc.zeros_acceleration(x, v, np.zeros(3))
        gold = dynamics.rhs_goldfish(x, v)
        np.testing.assert_allclose(acc, gold, atol=1e-12)

    def test_hand_computed(self):
        np.testing.assert_allclose(
            pc.zeros_acceleration([1, -1], [1, 1], [0, 0]), [1, -1], atol=1e-15
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
        v0 = pc.zeros_velocity(x0, y1)
        np.testing.assert_allclose(
            pc.zeros_acceleration(x0, v0, y2), fd2, atol=1e-5
        )


class TestIdentityResiduals:
    def test_matched_pair(self):
        z = np.array([0.3 + 1j, -0.8, 1.2 - 0.4j])
        p = pc.coeffs_from_zeros(z)
        res = pc.identity_residuals(p, z)
        assert res["identity1"] < 1e-12
        assert res["identity2"] < 1e-12

    def test_mismatched_pair(self):
        res = pc.identity_residuals([0, -1], [1, 2])  # z^2 - 1
        assert res["identity1"] == pytest.approx(3.0)  # |p(2)|

    def test_identities_agree_for_vieta_coeffs(self):
        z = np.array([1.5, -0.5 + 0.7j, 0.2 - 0.3j])
        p = pc.coeffs_from_zeros(z)
        res = pc.identity_residuals(p, z)
        assert abs(res["identity1"] - res["identity2"]) < 1e-13


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
           st.sampled_from([pc.MAX_SWEEPS, 4, 1]))
    def test_row_does_not_depend_on_its_batch(self, n, batch, seed, extras, sep_tol,
                                              sweeps):
        # every row goes through the same operations whatever else shares
        # its call, in whatever memory layout.  Row kinds: 0 near size 1,
        # and in some batches 1 with a close pair (more sweeps), 2 non-finite,
        # 3 and 4 scaled by 2^40 and 2^-40 (the only rows that are rescaled).
        # A budget of 4 sweeps stalls some rows, one sweep leaves the start
        # visible in the zeros.  A batch of kinds 0 and 1 keeps the caller's
        # memory layout through the start, where a layout-dependent sum
        # would show
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

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_empty_batch(self, n):
        zeros, errors = pc.zeros_batch(np.zeros((0, n), dtype=complex))
        assert zeros.shape == (0, n) and errors == {}

    def test_canonical_order_rowwise(self):
        x = np.array([[1 + 2j, 1 - 1j, -3 + 0j], [0j, -1j, 1j]])
        order = pc.canonical_order(x)
        np.testing.assert_array_equal(order, [[2, 1, 0], [1, 0, 2]])

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
