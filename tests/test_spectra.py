import numpy as np
import pytest

from goldgen import spectra as sp
from goldgen.polycore import zeros_from_coeffs


class TestHermite:
    def test_monic_coeffs_low_degrees(self):
        # H2 -> z^2 - 1/2, H3 -> z^3 - 3z/2, H4 -> z^4 - 3z^2 + 3/4
        np.testing.assert_allclose(sp.hermite_monic_coeffs(2), [0, -0.5])
        np.testing.assert_allclose(sp.hermite_monic_coeffs(3), [0, -1.5, 0])
        np.testing.assert_allclose(
            sp.hermite_monic_coeffs(4), [0, -3.0, 0, 0.75]
        )

    def test_eval_matches_explicit(self):
        # H3(x) = 8x^3 - 12x
        for x in (0.3, -1.2, 2.0):
            v, d = sp.hermite_eval(3, x)
            assert v == pytest.approx(8 * x**3 - 12 * x)
            assert d == pytest.approx(24 * x**2 - 12)

    def test_zeros_n2(self):
        np.testing.assert_allclose(
            sp.hermite_zeros(2), [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12
        )

    def test_zeros_n3(self):
        np.testing.assert_allclose(
            sp.hermite_zeros(3), [-np.sqrt(1.5), 0.0, np.sqrt(1.5)],
            atol=1e-12,
        )

    def test_zeros_real_and_symmetric(self):
        for n in range(2, 11):
            z = sp.hermite_zeros(n)
            assert np.all(z.imag == 0)
            np.testing.assert_allclose(z, -z[::-1], atol=1e-12)

    def test_degree_range(self):
        with pytest.raises(ValueError):
            sp.hermite_zeros(1)
        with pytest.raises(ValueError):
            sp.hermite_zeros(13)

    def test_equilibrium_residual(self):
        for n in range(2, 11):
            assert sp.equilibrium_residual(sp.hermite_zeros(n)) < 1e-9
        # a non-equilibrium configuration has a visible residual
        assert sp.equilibrium_residual([1.0, -1.0]) > 0.4


class TestMMatrix:
    def test_rows_sum_to_zero(self):
        m = sp.m_matrix([0.3, -0.7, 1.4])
        np.testing.assert_allclose(m.sum(axis=1), 0, atol=1e-14)

    def test_off_diagonal_values(self):
        m = sp.m_matrix([0.0, 2.0])
        np.testing.assert_allclose(m, [[0.25, -0.25], [-0.25, 0.25]])

    def test_spectrum_at_hermite_zeros(self):
        for n in range(2, 9):
            rep = sp.eig_small(sp.m_matrix(sp.hermite_zeros(n)))
            np.testing.assert_allclose(
                rep.eigenvalues.real, np.arange(n), atol=1e-6
            )
            np.testing.assert_allclose(rep.eigenvalues.imag, 0, atol=1e-6)

    def test_spectrum_elsewhere_differs(self):
        rep = sp.eig_small(sp.m_matrix([0.0, 1.0, 5.0]))
        diff = np.abs(rep.eigenvalues - np.arange(3))
        assert np.max(diff) > 1e-3


class TestSimilarity:
    def test_preserves_spectrum(self):
        x = sp.hermite_zeros(4)
        # any separated point set works for the conjugating matrix
        x_mu1 = zeros_from_coeffs(x)
        m1 = sp.similarity_m1(x, x_mu1)
        rep = sp.eig_small(m1)
        np.testing.assert_allclose(rep.eigenvalues.real, np.arange(4), atol=1e-6)
        np.testing.assert_allclose(rep.eigenvalues.imag, 0, atol=1e-6)


class TestJacobian:
    def test_linear_field_exact(self):
        a = np.array([[1.0, 2.0], [0.5j, -1.0]])
        jac = sp.jacobian_fd(lambda z: a @ z, np.array([0.3, -0.8 + 0.2j]))
        np.testing.assert_allclose(jac, a, atol=1e-9)

    def test_flow_jacobian_is_i_times_one_plus_m(self):
        for n in (2, 3, 5, 8):
            x = sp.hermite_zeros(n)
            jac = sp.jacobian_fd(sp.equilibrium_flow, x)
            want = 1j * (np.eye(n) + sp.m_matrix(x))
            np.testing.assert_allclose(jac, want, atol=1e-5)

    def test_flow_vanishes_at_equilibrium(self):
        x = sp.hermite_zeros(6)
        assert np.max(np.abs(sp.equilibrium_flow(x))) < 1e-9


class TestEigSmall:
    def test_char_poly_2x2(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        # char poly z^2 - 5z - 2
        np.testing.assert_allclose(sp.char_poly_coeffs(m), [-5.0, -2.0],
                                   atol=1e-12)

    def test_diagonal_matrix(self):
        rep = sp.eig_small(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(rep.eigenvalues, [-1.0, 2.0, 3.0],
                                   atol=1e-9)

    def test_complex_rotation(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = sp.eig_small(m)
        # real parts are rounding noise, so order by imaginary part
        got = rep.eigenvalues[np.argsort(rep.eigenvalues.imag)]
        np.testing.assert_allclose(got, [-1j, 1j], atol=1e-9)

    def test_repeated_eigenvalues_cluster(self):
        rep = sp.eig_small(np.eye(3))
        np.testing.assert_allclose(rep.eigenvalues, [1.0, 1.0, 1.0],
                                   atol=1e-4)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            sp.eig_small(np.eye(13))

    def test_residual_reported(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rep = sp.eig_small(m)
        assert rep.max_residual < 1e-8
