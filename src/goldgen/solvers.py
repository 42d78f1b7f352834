"""Algebraic solution paths for the solvable hierarchy.

Closed forms for the linear two-mode seed and the isochronous goldfish
model, lifting of a solved seed path through generation layers by root
extraction (one batched solve per layer over the whole time grid),
continuity-based zero tracking (a nearest-zero certificate per frame, with
optimal assignment where it fails), and numerical period detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec
from .errors import DegenerateModes, NoPeriodFound, NonFiniteState, TrackingAmbiguity
from .matching import distance_matrix, second_best, sum_optimal
from .permgen import mu_to_perm
from .polycore import (
    Tolerances,
    canonical_order,
    check_distinct,
    coeff_motion,
    min_pairwise_gap,
    zeros_batch,
)

DEFAULT_PERIOD_TOL = 1e-6
AMBIGUITY_TOL = 1e-12  # read at call time


@dataclass
class LabeledPath:
    """Zero trajectories with consistent particle labels across times."""

    times: np.ndarray
    values: np.ndarray  # shape (T, N) complex

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape[0] != len(self.times):
            raise ValueError("times/values length mismatch")

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass
class PeriodReport:
    base_period: float
    multiplier: int
    residual: float


def solve_linear_seed(x0, v0, a: complex, ia_sign: int, t: float):
    """Exact two-mode solution (x, v) of xddot = (i - a) xdot + ia_sign * i a x
    at time t after the state (x0, v0).

    For ia_sign=+1 the characteristic roots are exactly {i, -a}.  `t` may
    be an array: grid[:, None] gives the whole path, one row per time.
    Raises NonFiniteState when the solution overflows.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    v0 = np.asarray(v0, dtype=np.complex128)
    a = complex(a)
    b = 1j - a
    disc = np.sqrt(complex(b * b + 4 * ia_sign * 1j * a))
    lam_p = (b + disc) / 2
    lam_m = (b - disc) / 2
    if abs(lam_p - lam_m) < 1e-10:
        raise DegenerateModes(
            f"characteristic roots coincide: {lam_p:.6g} ~ {lam_m:.6g}"
        )
    # A + B = x0, lam_p A + lam_m B = v0
    A = (v0 - lam_m * x0) / (lam_p - lam_m)
    B = (lam_p * x0 - v0) / (lam_p - lam_m)
    ep = np.exp(lam_p * t)
    em = np.exp(lam_m * t)
    x = A * ep + B * em
    v = lam_p * A * ep + lam_m * B * em
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise NonFiniteState("linear seed solution overflows")
    return x, v


def _solved(coeff_rows, tol: Tolerances) -> np.ndarray:
    """Zeros of every row, raising the first row's failure."""
    zeros, errors = zeros_batch(coeff_rows, tol)
    if errors:
        raise next(iter(errors.values()))
    return zeros


def solve_iso_goldfish_at(
    x0,
    v0,
    omega: float,
    t,
    tol: Tolerances = Tolerances(),
) -> np.ndarray:
    """Zero set solving the isochronous goldfish model at time t.

    The polynomial's coefficient vector evolves linearly (its second
    derivative equals i*omega times its first), so the coefficients at
    time t are y(t) = y0 + w(t) ydot0 with w(t) = (e^{i omega t} - 1) /
    (i omega), or w(t) = t in the omega=0 (plain goldfish) limit, where
    (y0, ydot0) is the coefficient motion of (x0, v0).  The positions are
    the roots of that polynomial, returned canonically ordered
    (semantically unordered).  `t` may be an array of times: the result
    then holds one zero set per time, all found in one batched solve.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    v0 = np.asarray(v0, dtype=np.complex128)
    times = np.asarray(t, dtype=float)
    check_distinct(x0, tol.sep_tol)
    flat = times.reshape(-1)
    if omega == 0.0:
        weight = flat.astype(np.complex128)
        recur = flat == 0.0
    else:
        phase = np.exp(1j * omega * flat) - 1.0
        weight = phase / (1j * omega)
        # t a multiple of the base period: the configuration recurs
        recur = (flat == 0.0) | (np.abs(phase) < 1e-12)
    # rows that overflow fail in _solved as non-finite coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        y0, y_dot0 = coeff_motion(x0, v0)
        rows = y0 + weight[~recur, None] * y_dot0
    out = np.empty((len(flat), len(x0)), dtype=np.complex128)
    if recur.any():
        out[recur] = x0[canonical_order(x0)]
    if not recur.all():
        out[~recur] = _solved(rows, tol)
    return out.reshape(times.shape + x0.shape)


def _certify(clouds: np.ndarray):
    """Nearest-zero pairing of every frame k-1 with frame k, and whether it
    is certified to be the one optimal assignment would choose.

    Let d be the largest distance from a zero of frame k-1 to its nearest
    zero of frame k, and g the smallest gap in frame k-1.  If d < g/2 the
    nearest zeros form a permutation.  Any other pairing changes the
    partner of at least two zeros, and each new partner is at least g - d
    away where the nearest is at most d, so its total squared cost exceeds
    the nearest pairing's by at least 2 ((g - d)^2 - d^2) = 2 g (g - 2 d).
    A frame is certified when that bound clears twice the ambiguity
    threshold plus the rounding in the summed costs; optimal assignment
    would then pick the same pairing and pass the same checks.
    """
    n = clouds.shape[1]
    prev, cur = clouds[:-1], clouds[1:]
    dist = np.abs(prev[:, :, None] - cur[:, None, :])
    nearest = dist.argmin(axis=2)
    near = dist.min(axis=2)
    d = near.max(axis=1)
    g = min_pairwise_gap(prev)  # inf for a single zero
    best = (near**2).sum(axis=1)
    is_perm = (np.sort(nearest, axis=1) == np.arange(n)).all(axis=1)
    margin = 2.0 * g * (g - 2.0 * d)
    rounding = 16.0 * n * np.finfo(float).eps * (best + n * dist.max(axis=(1, 2)) ** 2)
    ok = (
        is_perm
        & (d < 0.5 * g)
        & (margin > 2.0 * AMBIGUITY_TOL * np.maximum(1.0, best) + rounding)
    )
    return nearest, ok


def _assign(prev, cur, k: int) -> np.ndarray:
    """Sum-optimal pairing of the labelled zeros `prev` with frame k's
    zeros `cur` (row i goes to column cols[i]), or TrackingAmbiguity."""
    cost = distance_matrix(prev, cur) ** 2
    if not np.isfinite(cost).all():
        raise TrackingAmbiguity(f"frame {k}: non-finite matching costs")
    cols = sum_optimal(cost)
    best = cost[np.arange(len(cols)), cols].sum()
    disp = np.max(np.abs(cur[cols] - prev))
    half_gap = 0.5 * min_pairwise_gap(prev)
    if disp >= half_gap:
        raise TrackingAmbiguity(
            f"frame {k}: displacement {disp:.3e} >= half gap "
            f"{half_gap:.3e}; refine the time grid"
        )
    if len(prev) > 1:
        second = second_best(cost, cols)
        if second - best <= AMBIGUITY_TOL * max(1.0, best):
            raise TrackingAmbiguity(
                f"frame {k}: ambiguous matching (gap {second - best:.3e}); "
                "refine the time grid"
            )
    return cols


def track_zeros(frames, times=None, tol: Tolerances = Tolerances()) -> LabeledPath:
    """Label the zeros of a polynomial path by continuity.

    `frames` is a (T, N) array of zeros (or a sequence of zero vectors),
    one frame per grid time.  Labels start from the canonical order of the
    first frame and propagate by minimal-total-squared-distance matching
    between consecutive frames.  A frame whose nearest-zero pairing is
    certified optimal (see `_certify`) takes it directly; any other frame
    is matched by optimal assignment.  Raises DegenerateZeros when two
    zeros of the first frame lie within tol.sep_tol, and TrackingAmbiguity
    when the matching is not well-posed: the best and second-best
    matchings nearly tie, or some label moves farther than half the
    previous frame's minimum gap.
    """
    if len(frames) < 2:
        raise TrackingAmbiguity("need at least two frames to track")
    clouds = np.asarray(frames, dtype=np.complex128)
    if times is None:
        times = np.arange(len(clouds), dtype=float)
    check_distinct(clouds[0], tol.sep_tol)
    # label -> index into each frame; composed on lists, cheaper than numpy
    # for a handful of labels
    idx = canonical_order(clouds[0]).tolist()
    order = [idx]
    nearest, certified = _certify(clouds)
    nearest, certified = nearest.tolist(), certified.tolist()
    for k in range(1, len(clouds)):
        if certified[k - 1]:
            idx = [nearest[k - 1][i] for i in idx]
        else:
            idx = _assign(clouds[k - 1][idx], clouds[k], k).tolist()
        order.append(idx)
    out = np.take_along_axis(clouds, np.array(order), axis=1)
    return LabeledPath(times=np.asarray(times, dtype=float), values=out)


def _seed_labeled_path(spec: ModelSpec, x0, v0, grid, tol: Tolerances) -> LabeledPath:
    """Closed-form path of the seed model of `spec` from (x0, v0) at grid[0]
    (labels = components)."""
    elapsed = grid - grid[0]
    if spec.kind == "linear_seed":
        x, _ = solve_linear_seed(x0, v0, spec.a, spec.ia_sign, elapsed[:, None])
        return LabeledPath(grid, x)
    if spec.kind == "iso_goldfish":
        clouds = solve_iso_goldfish_at(x0, v0, spec.omega, elapsed, tol)
        path = track_zeros(clouds, grid, tol)
        # frame 0 is x0 in canonical order: relabel it to the order of x0
        return LabeledPath(grid, path.values[:, np.argsort(canonical_order(x0))])
    raise ValueError(f"seed kind {spec.kind!r} has no closed-form path")


def solve_generation_path(
    spec: ModelSpec,
    x0,
    v0,
    mu,
    grid,
    tol: Tolerances = Tolerances(),
) -> LabeledPath:
    """Labeled zero path by the algebraic route, from the seed state (x0, v0)
    at grid[0], one generation level per entry of mu.

    Level 0 is the closed-form path of the seed model that spec's kind,
    omega, a and ia_sign name (its depth is not read).  At each level the
    coefficient path is the level's permutation of the previous labeled
    path, with the permutation fixed at grid[0] and carried by the labels;
    the zeros of all times are then extracted in one batched solve and
    continuity-tracked.
    """
    mu = tuple(int(m) for m in mu)
    grid = np.asarray(grid, dtype=float)
    path = _seed_labeled_path(spec, x0, v0, grid, tol)
    for mu_j in mu:
        perm = np.asarray(mu_to_perm(mu_j, path.n)) - 1
        label_order = canonical_order(path.values[0])[perm]
        path = track_zeros(_solved(path.values[:, label_order], tol), grid, tol)
    return path


def detect_period(
    path: LabeledPath,
    T: float,
    p_max: int,
    period_tol: float = DEFAULT_PERIOD_TOL,
) -> PeriodReport:
    """Smallest integer p <= p_max with x(t + pT) = x(t) (labeled, uniform
    over the available overlap)."""
    times = path.times
    if len(times) < 3:
        raise NoPeriodFound("path too short")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-6, atol=1e-12):
        raise ValueError("detect_period needs a uniform grid")
    per = T / dt
    if not np.isfinite(per):
        raise ValueError("base period / grid spacing overflows")
    shift = int(round(per))
    if shift < 1 or abs(per - shift) > 1e-6 * per:
        raise ValueError("grid spacing must divide the base period")
    scale = max(1.0, float(np.max(np.abs(path.values))))
    for p in range(1, p_max + 1):
        s = p * shift
        if s >= len(times) - 1:
            break
        overlap = min(len(times) - s, shift + 1)
        dev = np.max(np.abs(path.values[s : s + overlap] - path.values[:overlap]))
        if dev < period_tol * scale:
            return PeriodReport(base_period=T, multiplier=p, residual=float(dev))
    raise NoPeriodFound(f"no period multiple p <= {p_max} found")
