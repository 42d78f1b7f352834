"""Complex monic-polynomial algebra.

Symmetric functions, the zeros<->coefficients maps, a simultaneous
(Aberth-Ehrlich) root finder, the R / R^{-1} matrices and the first- and
second-derivative transfer relations between a polynomial's zeros and its
coefficients.  Each identity has one entry point, shared by the public
functions and the dynamics kernel: fold (sigma_m(x) and their derivative
along v in one O(N^2) pass, as two Python lists, under coeff_motion,
coeffs_from_zeros and the columns of r_matrix_inverse), the N x N pair
terms (pair_diffs, goldfish_force, prefactor), r_matrix and
accel_transfer.  Every function here takes and returns plain arrays;
MonicPoly, a record of a coefficient vector that checks nothing, is kept
for the generation tree's node views and the closed-form family.

The kernel primitives (fold, coeff_rows, coeff_motion, accel_transfer,
prefactor) check nothing; the public functions validate their inputs
(accel_transfer's callers run check_distinct or the kernel's guard first),
and the dynamics kernel checks each recursion level twice: the collision
guard on the smallest modulus of the level's pair_diffs, and one
finiteness check of fold's two lists, in scalar Python before coeff_rows
makes them coeff_motion's (2, N) array (timeit, N = 3 / 8: the 2N scalar
tests take 0.8 / 1.2 us, numpy's isfinite plus a reduce 3.1 us at either
N).  That one check suffices because the fold carries every non-finite
input into sigma_1 = sum x_n or its velocity sum v_n, and because a
non-finite y_ddot makes every entry of accel_transfer's result
non-finite, which the kernel's check of the final acceleration catches.

The fold is scalar Python and the pair terms numpy.  The recurrence is
sequential, so in numpy it costs 2N or more small array calls at numpy's
fixed per-call price; the scalar fold is N(N+1)/2 complex updates.  Against
the former batched numpy recurrence, coeff_motion took 10 / 12 / 21 / 28 /
28 us instead of 27 / 33 / 51 / 64 / 54 us at N = 2 / 3 / 6 / 8 / 12
(interleaved, 2 cores).  The pair terms are a few whole-array calls at any
N; a kernel doing them in scalar Python as well ran 2.2x slower at N = 8.

Conventions: a degree-N monic polynomial is stored as the ordered vector
(y_1, ..., y_N) where y_m multiplies z^{N-m}; the leading 1 is implicit.
All vectors are numpy complex128 arrays.

Root finding is batched: `zeros_batch` takes a (B, N) array of coefficient
rows, runs one vectorised Aberth-Ehrlich iteration over all of them and
reports a failure per row; `zeros_from_coeffs` raises the first one.
Callers hand it a whole time grid or a whole tree level at once.  Every
row starts cold, from a circle around its root centroid.  Warm starts from
the previous frame's zeros would save sweeps, but they make frame k wait
for frame k-1, so the frames could no longer share one call: on a
241-frame depth-1 path at N=3, one cold batched call took 1.6-1.9 ms and
frame-by-frame warm starts through the same core 48-59 ms (the former
one-polynomial-at-a-time loop: 82-103 ms).  Labels across frames come
from `solvers.track_zeros` instead.

Most of a small call is numpy's fixed price per call, so the iteration
forms nothing it then discards: a row that is done leaves the working set
before the pair differences and the step of that sweep, the start forms
only rows 1..N of the shifted coefficients, and the loop's tests are
np.count_nonzero, not the costlier any()/all() methods.

A row's zeros and errors are the same, bit for bit, whatever other rows
share its call and whatever the memory layout of the batch.  Each max over
a row's N entries is np.maximum over the columns in turn (row_max), and
min_pairwise_gap reduces over the pairs axis of a (pairs, B) array: whole-
column passes, where numpy would run one short reduction per row (on
(241, 3), about 3 us in place of 15-20 us).  The two complex sums, the
start's shifted coefficients and the Aberth correction, stay numpy
reductions over the last axis of C-ordered arrays, because numpy's order of
summation, and so the rounding, follows the memory layout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateZeros, RootSolveFailed

DEFAULT_SEP_TOL = 1e-8
MAX_SWEEPS = 200  # read at call time
_POLISH_STEPS = 5
# rounding level of a step in the rescaled variable w, where |w| <= 2 sqrt(2)
_STEP_FLOOR = 1e-16 * (1.0 + 2.0 * math.sqrt(2.0))
# rotation (radians) of the starting circle, chosen so that no start sits on
# a symmetry axis of the polynomial
_START_ROTATION = 0.401257302210934


def as_vector(v) -> np.ndarray:
    """v as a complex128 array; ValueError unless it is 1-d and finite."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    return a


def pair_diffs(x: np.ndarray) -> np.ndarray:
    """x_n - x_l for a complex vector x, with inf on the diagonal."""
    diff = x[:, None] - x  # C-ordered, so ravel() is a view
    # the diagonal as a strided view; adding an inf/0 table would turn -0.0
    # differences into +0.0
    diff.ravel()[:: len(x) + 1] = np.inf
    return diff


@functools.cache
def _pairs(n: int):
    """Index arrays (i, j) of the n(n-1)/2 pairs i < j."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def min_pairwise_gap(x):
    """Smallest |x_i - x_j| over all pairs (inf for a single point): a float
    for a vector, one value per row for a (B, N) batch.

    Each pair is taken once (|x_i - x_j| = |x_j - x_i| bit for bit), the
    pairs along the first axis of a C-ordered (pairs, B) array, so the min
    runs as whole-row passes, not as one short reduction per batch row.
    """
    x = np.asarray(x, dtype=np.complex128)
    i, j = _pairs(x.shape[-1])
    gap = np.minimum.reduce(np.abs(x.T[i] - x.T[j]), axis=0, initial=np.inf)
    return float(gap) if x.ndim == 1 else gap


def row_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each row of a (B, N) array (NaN if the row holds
    one), as np.maximum over its columns in turn: N whole-column passes in
    place of one short reduction per row, with the same result."""
    out = a[:, 0]
    for k in range(1, a.shape[1]):
        out = np.maximum(out, a[:, k])
    return out


def check_distinct(x, sep_tol: float = DEFAULT_SEP_TOL) -> None:
    gap = min_pairwise_gap(x)
    if gap <= sep_tol:
        raise DegenerateZeros(
            f"minimum pairwise gap {gap:.3e} <= sep_tol {sep_tol:.3e}"
        )


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial z^N + sum_m coeffs[m-1] z^{N-m}: a plain record of
    its coefficient vector, which it does not check."""

    coeffs: np.ndarray


@dataclass(frozen=True)
class Tolerances:
    """The four tolerances of a run, one record from the config to every
    check: the integrator's error test (ode_rel, ode_abs), the root
    finder's residual (root_tol) and the separation of zeros, which the
    root finder, the tracker and the collision guard share (sep_tol)."""

    ode_rel: float = 1e-9
    ode_abs: float = 1e-12
    root_tol: float = 1e-12
    sep_tol: float = DEFAULT_SEP_TOL


def fold(x: np.ndarray, v: np.ndarray) -> tuple[list, list]:
    """The generating recurrence in forward mode, in scalar complex
    arithmetic: step k folds in (x_k, v_k) by e_j += x_k e_{j-1} and
    d_j += v_k e_{j-1} + x_k d_{j-1} for j = k..1, so e_j = sigma_j(x) and
    d_j = sum_n sigma_{n,j}(x) v_n.  The pairs go in the order of x sorted
    by (real, imag): for distinct x both depend only on the set of pairs,
    bit for bit.  x and v: complex128 vectors, not validated here.
    """
    e = [1.0 + 0j] + [0j] * len(x)
    d = [0j] * len(e)
    pairs = sorted(zip(x.tolist(), v.tolist()), key=lambda p: (p[0].real, p[0].imag))
    for k, (xk, vk) in enumerate(pairs, 1):
        for j in range(k, 0, -1):
            ej = e[j - 1]
            d[j] += vk * ej + xk * d[j - 1]
            e[j] += xk * ej
    return e[1:], d[1:]


@functools.cache
def _signs_powers(n: int):
    """(-1)^m for m = 1..n and the powers N - m of the transfer identities."""
    signs = (-1.0) ** np.arange(1, n + 1)
    powers = (n - 1 - np.arange(n))[None, :]
    signs.flags.writeable = powers.flags.writeable = False
    return signs, powers


def coeff_motion(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients y of prod_n (z - x_n) and their velocity ydot = R^{-1} v,
    the two rows of one (2, N) array (so `y, y_dot = coeff_motion(x, v)`):
    y_m = (-1)^m sigma_m(x), ydot_m = (-1)^m sum_n sigma_{n,m}(x) v_n.

    One O(N^2) forward-mode fold gives both; needs no distinctness.  A
    non-finite entry of x or v makes y_1 or ydot_1 non-finite, so one
    finiteness check of the result, or of fold's lists, covers the inputs
    too.  x and v must be complex128 vectors; not validated here.
    """
    return coeff_rows(*fold(x, v))


def coeff_rows(e: list, d: list) -> np.ndarray:
    """coeff_motion's (2, N) array (y, ydot) from fold's lists e and d."""
    return _signs_powers(len(e))[0] * np.array((e, d))


def goldfish_force(v: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """sum_{l != n} 2 v_n v_l / (x_n - x_l), given diff = pair_diffs(x)."""
    return 2.0 * v * np.add.reduce(v[None, :] / diff, axis=1)


def prefactor(recip: np.ndarray) -> np.ndarray:
    """prod_{l != n} (x_n - x_l)^{-1} for each n, given the fresh array
    recip = 1 / pair_diffs(x), whose diagonal (0) it sets to 1: a product
    of reciprocals, to limit overflow."""
    recip.ravel()[:: len(recip) + 1] = 1.0
    return np.multiply.reduce(recip, axis=1)


def accel_transfer(x: np.ndarray, v: np.ndarray, diff: np.ndarray,
                   y_ddot: np.ndarray) -> np.ndarray:
    """Second-derivative transfer from coefficients to zeros:

    xddot_n = sum_{l != n} 2 v_n v_l / (x_n - x_l)
              - [prod_{l != n} (x_n - x_l)^{-1}] sum_m x_n^{N-m} yddot_m

    given diff = pair_diffs(x).  One reciprocal of diff serves both terms:
    the force as 2 v (recip @ v), then the prefactor.  A non-finite entry of
    y_ddot makes every entry of the result non-finite.  Inputs are
    complex128 vectors; not validated here.
    """
    _, powers = _signs_powers(len(x))
    recip = 1.0 / diff
    force = 2.0 * v * (recip @ v)
    return force - prefactor(recip) * ((x[:, None] ** powers) @ y_ddot)


def coeffs_from_zeros(zs) -> np.ndarray:
    """Vieta map: y_m = (-1)^m sigma_m of the zeros."""
    x = as_vector(zs)
    check_distinct(x)
    return coeff_motion(x, np.zeros_like(x))[0]


@functools.cache
def _start_angles(n: int) -> np.ndarray:
    """Unit vectors of the starting circle, rotated by _START_ROTATION."""
    angles = np.exp(1j * (2.0 * np.pi * np.arange(n) / n + _START_ROTATION))
    angles.flags.writeable = False
    return angles


@functools.cache
def _tables(n: int):
    """Constants of the degree-n iteration: 1/k for k = 1..n, and the
    binomials C(n-j, k-j) and powers k-j (zero above the diagonal) that give
    the coefficients of p(u + c) from those of p(z), for rows k = 1..n only:
    row 0 is the leading 1, which the start does not read."""
    k, j = np.indices((n + 1, n + 1))
    binom = np.array([[math.comb(n - jj, kk - jj) if jj <= kk else 0
                       for jj in range(n + 1)] for kk in range(n + 1)])
    tables = (1.0 / np.arange(1, n + 1), binom[1:].astype(float),
              np.maximum(k - j, 0)[1:])
    for t in tables:
        t.flags.writeable = False
    return tables


def _horner(cols, x):
    """p(x) and p'(x) elementwise for the monic rows whose coefficient
    columns, each of shape (B, 1), are `cols`; x has shape (B, M)."""
    val = x + cols[0]
    if len(cols) == 1:
        return val, np.ones_like(x)
    der = val + x
    val *= x
    val += cols[1]
    for c in cols[2:]:
        der *= x
        der += val
        val *= x
        val += c
    return val, der


def canonical_order(x) -> np.ndarray:
    """Indices that order x along its last axis by ascending real part, ties
    by ascending imaginary part (numpy's complex sort order): the canonical
    order of a zero set, taken row by row for a batch."""
    return np.argsort(x, axis=-1, kind="stable")


def zeros_batch(coeffs, tol: Tolerances = Tolerances()):
    """Zeros of every row of a (B, N) array of monic coefficient vectors.

    One Aberth-Ehrlich iteration runs on all rows at once.  A row leaves
    the working set in one place, at the top of a sweep, keeping its
    current iterate: when its residual there is within tolerance or its
    previous step fell to rounding level.  The loop has MAX_SWEEPS + 1
    tops, and a row still working at the last one has stalled.  Every
    row is then Newton-polished; an empty batch returns at once.  Each row
    is first put in the exact power-of-two substitution z = 2^e w that brings
    max_k |y_k|^(1/k) within a factor sqrt(2) of 1, so the iterates neither
    overflow nor underflow and every zero satisfies |w| <= 2 sqrt(2)
    (Fujiwara's bound).  The start is a circle around the root centroid c
    whose radius is max_k |t_k|^(1/k) for the coefficients t of p(u + c).

    Each row keeps the scalar guarantees, with scale = max(1, max_k |y_k|):
    residual <= root_tol * scale, else RootSolveFailed (also for a row with
    a non-finite entry or a coefficient whose modulus overflows, one that
    does not converge within MAX_SWEEPS or one whose iterates become
    non-finite); minimum pairwise gap > sep_tol * scale, else
    DegenerateZeros.

    Returns (zeros, errors): zeros[b] holds row b's zeros in canonical
    order, and errors maps each failed row, in increasing row order, to the
    exception it raises (its zeros are then meaningless).  Neither depends
    on the other rows of the batch.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[1] < 1:
        raise ValueError("expected a (B, N) coefficient array with N >= 1")
    b, n = c.shape
    if not b:
        return np.empty((0, n), dtype=np.complex128), {}
    mag = np.abs(c)
    # a NaN or infinite part, or finite parts whose modulus overflows
    finite = np.isfinite(mag).all(axis=1)
    if np.count_nonzero(finite) < b:  # such a row is solved as z^N and then failed
        c = np.where(finite[:, None], c, 0.0)
        mag = np.where(finite[:, None], mag, 0.0)
    inv_deg, binom, power = _tables(n)
    scale = np.maximum(1.0, row_max(mag))
    res_tol = tol.root_tol * scale
    sep = tol.sep_tol * scale
    with np.errstate(all="ignore"):
        e = np.rint(row_max(np.log2(mag) * inv_deg))
        e_finite = np.isfinite(e)
        if np.count_nonzero(e_finite) < b:  # all-zero rows
            e[~e_finite] = 0.0
        e = e.astype(np.int64)
        rescaled = np.count_nonzero(e)
        if rescaled:
            ek = e[:, None] * np.arange(1, n + 1)
            c = np.ldexp(c.real, -ek) + 1j * np.ldexp(c.imag, -ek)
            # |p(2^e w)| = 2^(eN) |p_w(w)| exactly: the tolerances move with e
            tol_w, sep_w = np.ldexp(res_tol, -e * n), np.ldexp(sep, -e)
        else:
            tol_w, sep_w = res_tol, sep

        center = -c[:, :1] / n
        full = np.concatenate((np.ones((b, 1)), c), axis=1)
        # the n + 1 distinct powers of the centre, spread by np.take into a
        # C-ordered table: numpy's order of summation follows the memory
        # layout, so a strided table would change the sum's bits.  Only
        # rows 1..n of p(u + c) are formed; row 0 is the leading 1
        table = np.take(center ** np.arange(n + 1), power, axis=1)
        shifted = np.add.reduce(binom * full[:, None, :] * table, axis=2)
        radius = row_max(np.abs(shifted) ** inv_deg)[:, None]
        # p = (z - c)^N has radius 0: for N > 1 start just off the multiple
        # zero; for N = 1 the centre is the zero, exactly
        if n > 1:
            radius = np.maximum(radius, 2.0**-26 * (1.0 + np.abs(center)))
        x = center + radius * _start_angles(n)

        out = np.empty_like(x)
        stalled = np.zeros(b, dtype=bool)
        rows = np.arange(b)
        work_c, work_tol = c, tol_w
        cols = [work_c[:, k, None] for k in range(n)]
        floor = False
        for sweep in range(MAX_SWEEPS + 1):
            val, der = _horner(cols, x)
            # a row leaves before its step, keeping its iterate, when its
            # residual has settled (a NaN residual too: the final check
            # rejects it) or when its previous step fell below rounding at
            # the largest possible |w|; one still working at the last top
            # has stalled
            done = ~(row_max(np.abs(val)) > work_tol) | floor
            if sweep == MAX_SWEEPS:
                stalled[rows] = ~done
                done[:] = True
            if np.count_nonzero(done):
                out[rows[done]] = x[done]
                keep = ~done
                rows = rows[keep]
                if not rows.size:
                    break
                x, val, der = x[keep], val[keep], der[keep]
                work_c, work_tol = work_c[keep], work_tol[keep]
                cols = [work_c[:, k, None] for k in range(n)]
            # x_n - x_l with an inf diagonal, C-ordered: the sum of the
            # reciprocals runs along the last axis in memory order
            diff = np.subtract(x[:, :, None], x[:, None, :], order="C")
            diff.reshape(len(x), n * n)[:, :: n + 1] = np.inf
            step = val / (der - val * np.add.reduce(1.0 / diff, axis=2))
            x = x - step
            floor = row_max(np.abs(step)) <= _STEP_FLOOR

        # Newton polish, up to _POLISH_STEPS steps per root; a pass that
        # changes no root would change none afterwards either
        cols = [c[:, k, None] for k in range(n)]
        x = out
        val, der = _horner(cols, x)
        if np.count_nonzero(stalled):  # reported with its residual before polish
            pre = row_max(np.abs(val))
        polish_tol = 1e-3 * tol_w[:, None]
        for _ in range(_POLISH_STEPS):
            need = (np.abs(val) > polish_tol) & (der != 0)
            if not np.count_nonzero(need):
                break
            polished = np.where(need, x - val / der, x)
            if not np.count_nonzero(polished != x):
                break
            x = polished
            val, der = _horner(cols, x)
        res = row_max(np.abs(val))
        gap = min_pairwise_gap(x)
        failed = stalled | ~finite | ~((res <= tol_w) & (gap > sep_w))
        if rescaled:
            x = np.ldexp(x.real, e[:, None]) + 1j * np.ldexp(x.imag, e[:, None])
            failed |= ~np.isfinite(x).all(axis=1)
        errors = {}
        if np.count_nonzero(failed):
            for r in np.flatnonzero(failed):
                if not finite[r]:
                    err = RootSolveFailed(
                        "non-finite coefficients: some |y_k| is NaN or overflows"
                    )
                elif not np.isfinite(x[r]).all():
                    err = RootSolveFailed(
                        "root iterates became non-finite (NaN or infinite)"
                    )
                elif stalled[r]:
                    err = RootSolveFailed(
                        "Aberth iteration stalled; max residual "
                        f"{np.ldexp(pre[r], e[r] * n):.3e}"
                    )
                elif not res[r] <= tol_w[r]:
                    err = RootSolveFailed(
                        f"root residual {np.ldexp(res[r], e[r] * n):.3e} exceeds "
                        f"{res_tol[r]:.3e}"
                    )
                else:
                    err = DegenerateZeros(
                        f"near-multiple root: gap {np.ldexp(gap[r], e[r]):.3e} "
                        f"<= {sep[r]:.3e}"
                    )
                errors[int(r)] = err
    return np.sort(x, axis=1), errors


def zeros_from_coeffs(coeffs, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Zeros of a monic coefficient vector, or of every row of a (B, N)
    batch, in canonical order: zeros_batch with the same guarantees, raising
    the first failed row's error.

    Raises RootSolveFailed on non-convergence or a residual above
    root_tol * scale, and DegenerateZeros when two zeros lie within
    sep_tol * scale, where scale = max(1, max_k |y_k|) of the row.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    zeros, errors = zeros_batch(c[None] if c.ndim == 1 else c, tol)
    if errors:
        raise next(iter(errors.values()))
    return zeros[0] if c.ndim == 1 else zeros


def r_matrix(x, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """R_{nm} = -[prod_{l != n} (x_n - x_l)^{-1}] x_n^{N-m}."""
    x = as_vector(x)
    check_distinct(x, sep_tol)
    _, powers = _signs_powers(len(x))
    return -prefactor(1.0 / pair_diffs(x))[:, None] * x[:, None] ** powers


def r_matrix_inverse(x, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """[R^{-1}]_{nm} = (-1)^n sigma_{m,n}(x), so that R R^{-1} = I: column m
    is coeff_motion's coefficient velocity for a unit velocity of zero m."""
    x = as_vector(x)
    check_distinct(x, sep_tol)
    eye = np.eye(len(x), dtype=np.complex128)
    return np.column_stack([coeff_motion(x, e)[1] for e in eye])
