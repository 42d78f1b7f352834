"""Hermite zero spectra and equilibrium linearization checks.

Hermite zeros (equilibria of the associated solvable flow) as the
eigenvalues of the Jacobi matrix of H_n, the pair-interaction matrix M with
spectrum {0, 1, ..., N-1}, its similarity transform built from generation-1
zeros, and finite-difference Jacobians.  Spectra themselves come from
numpy's LAPACK eigensolvers; only the unordered eigenvalue set is compared.
"""

from __future__ import annotations

import numpy as np

from .polycore import check_distinct, pair_diffs, r_matrix, r_matrix_inverse


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of H_n, ascending: the eigenvalues of its symmetric tridiagonal
    Jacobi matrix, off-diagonal sqrt(k/2) (Golub & Welsch 1969).  Real, but
    returned as complex128 like every other zero set."""
    if not 2 <= n <= 12:
        raise ValueError("supported degree range is 2..12")
    jacobi = np.diag(np.sqrt(np.arange(1, n) / 2.0), -1)
    return np.linalg.eigvalsh(jacobi).astype(np.complex128)


def m_matrix(x) -> np.ndarray:
    """M_{nm} = -(x_n - x_m)^{-2} off-diagonal; rows sum to zero."""
    x = np.asarray(x, dtype=np.complex128)
    check_distinct(x, 0.0)
    # the reciprocal first: squaring the inf diagonal would give NaN
    m = -(1.0 / pair_diffs(x)) ** 2
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def similarity_m1(x, x_mu1) -> np.ndarray:
    """R(x_mu1) M(x) R(x_mu1)^{-1}; same spectrum as M(x) for any
    invertible R."""
    r = r_matrix(x_mu1)
    rinv = r_matrix_inverse(x_mu1)
    return r @ m_matrix(x) @ rinv


def jacobian_fd(fun, x) -> np.ndarray:
    """Central finite-difference Jacobian of a vector field at x, with step
    1e-6 (1 + |x_m|) in coordinate m."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    jac = np.empty((n, n), dtype=np.complex128)
    for m in range(n):
        hm = 1e-6 * (1.0 + abs(x[m]))
        e = np.zeros(n, dtype=np.complex128)
        e[m] = hm
        jac[:, m] = (fun(x + e) - fun(x - e)) / (2.0 * hm)
    return jac


def equilibrium_flow(gamma) -> np.ndarray:
    """First-order field i (gamma_m - sum_{l != m} (gamma_m - gamma_l)^{-1});
    its equilibria are the Hermite zeros."""
    g = np.asarray(gamma, dtype=np.complex128)
    return 1j * (g - np.sum(1.0 / pair_diffs(g), axis=1))
