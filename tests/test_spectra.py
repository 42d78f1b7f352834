import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from goldgen import spectra as sp
from goldgen.polycore import zeros_from_coeffs


class TestHermite:
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
        for n in range(2, 13):
            z = sp.hermite_zeros(n)
            assert np.all(z.imag == 0)
            np.testing.assert_allclose(z, -z[::-1], atol=1e-12)
            # Gauss-Hermite nodes: an independent oracle, kept out of src/
            np.testing.assert_allclose(z.real, hermgauss(n)[0], rtol=0,
                                       atol=1e-13)

    def test_degree_range(self):
        with pytest.raises(ValueError):
            sp.hermite_zeros(1)
        with pytest.raises(ValueError):
            sp.hermite_zeros(13)

    def test_equilibrium_residual(self):
        for n in range(2, 13):
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
            lam = np.sort(np.linalg.eigvals(sp.m_matrix(sp.hermite_zeros(n))))
            np.testing.assert_allclose(lam.real, np.arange(n), atol=1e-6)
            np.testing.assert_allclose(lam.imag, 0, atol=1e-6)

    def test_spectrum_elsewhere_differs(self):
        lam = np.sort(np.linalg.eigvals(sp.m_matrix([0.0, 1.0, 5.0])))
        diff = np.abs(lam - np.arange(3))
        assert np.max(diff) > 1e-3


class TestSimilarity:
    def test_preserves_spectrum(self):
        x = sp.hermite_zeros(4)
        # any separated point set works for the conjugating matrix
        x_mu1 = zeros_from_coeffs(x)
        m1 = sp.similarity_m1(x, x_mu1)
        lam = np.sort(np.linalg.eigvals(m1))
        np.testing.assert_allclose(lam.real, np.arange(4), atol=1e-6)
        np.testing.assert_allclose(lam.imag, 0, atol=1e-6)


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
