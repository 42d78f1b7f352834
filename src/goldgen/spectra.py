"""Hermite zero spectra and equilibrium linearization checks.

Hermite zeros (equilibria of the associated solvable flow), the pair-
interaction matrix M with spectrum {0, 1, ..., N-1}, its similarity
transform built from generation-1 zeros, finite-difference Jacobians, and
a small dense eigenvalue solver (characteristic polynomial by the trace
recursion + the package root finder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateZeros
from .polycore import (
    MonicPoly,
    Tolerances,
    canonical_order,
    eval_poly,
    min_pairwise_gap,
    pair_diffs,
    r_matrix,
    r_matrix_inverse,
    zeros_from_coeffs,
)


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray  # sorted by (re, im)
    max_residual: float


def hermite_monic_coeffs(n: int) -> np.ndarray:
    """Coefficients (after the leading 1) of the monic rescaling of the
    physicists' Hermite polynomial H_n, via h_{k+1} = z h_k - (k/2) h_{k-1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    hk_1 = np.array([1.0 + 0j])  # h_0
    hk = np.array([1.0 + 0j, 0.0])  # h_1 = z
    if n == 1:
        return hk[1:]
    for k in range(1, n):
        nxt = np.convolve(hk, [1.0 + 0j, 0.0])
        nxt[2:] -= (k / 2.0) * hk_1
        hk_1, hk = hk, nxt
    return hk[1:]


def hermite_eval(n: int, x: complex) -> tuple[complex, complex]:
    """(H_n(x), H_n'(x)) by the three-term recurrence; exact for polishing."""
    hprev, h = 1.0 + 0j, 2.0 * x
    if n == 0:
        return 1.0 + 0j, 0.0 + 0j
    for k in range(1, n):
        hprev, h = h, 2.0 * x * h - 2.0 * k * hprev
    return h, 2.0 * n * hprev  # H_n' = 2 n H_{n-1}


def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of H_n: root-find the monic coefficients, then Newton-polish
    with the recurrence evaluation.  Returned in canonical order."""
    if not 2 <= n <= 12:
        raise ValueError("supported degree range is 2..12")
    x = zeros_from_coeffs(hermite_monic_coeffs(n))
    for i in range(n):
        for _ in range(50):
            v, d = hermite_eval(n, x[i])
            if d == 0:
                break
            step = v / d
            x[i] -= step
            if abs(step) < 1e-15 * (1 + abs(x[i])):
                break
    # Hermite zeros are real; drop rounding-level imaginary parts
    x = np.where(np.abs(x.imag) < 1e-10, x.real + 0j, x)
    return x[canonical_order(x)]


def equilibrium_residual(x) -> float:
    """max_n |x_n - sum_{l != n} (x_n - x_l)^{-1}|; vanishes at Hermite zeros."""
    x = np.asarray(x, dtype=np.complex128)
    return float(np.max(np.abs(x - np.sum(1.0 / pair_diffs(x), axis=1))))


def m_matrix(x) -> np.ndarray:
    """M_{nm} = -(x_n - x_m)^{-2} off-diagonal; rows sum to zero."""
    x = np.asarray(x, dtype=np.complex128)
    if min_pairwise_gap(x) <= 0:
        raise DegenerateZeros("coincident points in m_matrix")
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    m = -1.0 / (diff * diff)
    np.fill_diagonal(m, 0.0)
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


def char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients (after the leading 1) by the
    Faddeev-LeVerrier trace recursion."""
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    coeffs = np.empty(n, dtype=np.complex128)
    mk = np.zeros((n, n), dtype=np.complex128)
    c = 1.0 + 0j
    eye = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        mk = m @ (mk + c * eye)
        c = -np.trace(mk) / k
        coeffs[k - 1] = c
    return coeffs


def eig_small(m: np.ndarray) -> SpectrumReport:
    """All eigenvalues of a small (n <= 12) dense matrix via its
    characteristic polynomial and the simultaneous root finder."""
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    if n > 12:
        raise ValueError("eig_small supports n <= 12")
    p = MonicPoly(char_poly_coeffs(m))
    # eigenvalues may legitimately coincide more closely than zero sets
    lam = zeros_from_coeffs(p.coeffs, Tolerances(root_tol=1e-10, sep_tol=0.0))
    scale = max(1.0, float(np.max(np.abs(p.coeffs))))
    resid = max(abs(eval_poly(p, z)[0]) for z in lam) / scale
    # zeros_from_coeffs returns the zeros in canonical (re, im) order
    return SpectrumReport(eigenvalues=lam, max_residual=float(resid))
