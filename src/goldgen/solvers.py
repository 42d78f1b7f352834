"""Algebraic solution paths for the solvable hierarchy.

Closed forms for the linear two-mode seed and the (isochronous) goldfish
model, lifting of a solved seed path through generation layers by the
generation step `permgen.lift` (one batched solve per layer over the whole
time grid, starting from exactly the state that `simulate` starts from),
continuity-based zero tracking (a geometric certificate per frame that the
nearest-zero pairing is the unique optimal one; steps that fail it are
bisected), and numerical period detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec
from .errors import (DegenerateModes, GoldgenError, NoPeriodFound, NonFiniteState,
                     TrackingAmbiguity)
from .permgen import lift
from .polycore import (
    Tolerances,
    canonical_order,
    check_distinct,
    coeff_motion,
    min_pairwise_gap,
    row_max,
    zeros_from_coeffs,
)

DEFAULT_PERIOD_TOL = 1e-6
# a step is certified when d/g (see _certify) is below 1/2 less its rounding
_HALF_GAP = 0.5 - 4 * np.finfo(float).eps
# solve_generation_path halves an uncertified step at most this many times
_HALVINGS = 8


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


@dataclass
class PeriodReport:
    base_period: float
    multiplier: int
    residual: float


def solve_linear_seed(x0, v0, a: complex, ia_sign: int, t: float):
    """Exact two-mode solution (x, v) of xddot = (i - a) xdot + ia_sign * i a x
    at time t after the state (x0, v0).

    For ia_sign=+1 the characteristic roots are exactly {i, -a}.  The modes
    enter as expm1 (x = x0 + A (e^{lam+ t} - 1) + B (e^{lam- t} - 1)), so at
    t = 0 the result is (x0, v0) exactly.  `t` may be an array: grid[:, None]
    gives the whole path, one row per time.  Raises NonFiniteState when the
    solution overflows.
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
    ep = np.expm1(lam_p * t)
    em = np.expm1(lam_m * t)
    x = x0 + A * ep + B * em
    v = v0 + lam_p * A * ep + lam_m * B * em
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise NonFiniteState("linear seed solution overflows")
    return x, v


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
    # rows that overflow fail in zeros_from_coeffs as non-finite coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        y0, y_dot0 = coeff_motion(x0, v0)
        rows = y0 + weight[~recur, None] * y_dot0
    out = np.empty((len(flat), len(x0)), dtype=np.complex128)
    if recur.any():
        out[recur] = x0[canonical_order(x0)]
    if not recur.all():
        out[~recur] = zeros_from_coeffs(rows, tol)
    return out.reshape(times.shape + x0.shape)


def _certify(clouds: np.ndarray):
    """Nearest-zero pairing of every frame k-1 with frame k, and d/g: the
    largest distance d from a zero of frame k-1 to its nearest zero of
    frame k over the smallest gap g in frame k-1 (NaN for a non-finite
    frame).

    If d < g/2, two zeros cannot share a nearest zero, so the pairing is a
    permutation, and any other pairing gives some zero another's nearest
    partner, at least g - d > d away: every cost that grows with distance
    is uniquely minimised by the nearest pairing.  d and g are computed to
    within a few ulps, so a ratio below _HALF_GAP proves d < g/2.

    The nearest distances and their indices are built one zero of frame k
    at a time, over (T-1, N) arrays: the distance by np.minimum (so NaN
    propagates), the index by a strict < (the first nearest, as argmin).
    """
    prev, nxt = clouds[:-1], clouds[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.abs(prev - nxt[:, :1])
        nearest = np.zeros(near.shape, dtype=np.intp)
        for j in range(1, clouds.shape[1]):
            dist = np.abs(prev - nxt[:, j, None])
            np.copyto(nearest, j, where=dist < near)
            near = np.minimum(near, dist)
        ratio = row_max(near) / min_pairwise_gap(prev)
    return nearest, ratio


def track_zeros(frames, times=None, tol: Tolerances = Tolerances()) -> LabeledPath:
    """Label the zeros of a polynomial path by continuity.

    `frames` is a (T, N) array of zeros (or a sequence of zero vectors),
    one frame per grid time.  Labels start from the canonical order of the
    first frame and each zero passes its label to its nearest zero in the
    next frame.  Every step must be certified (see `_certify`): each zero
    moves less than half the previous frame's smallest gap, which makes
    this pairing the unique sum-optimal one.  Raises DegenerateZeros when
    two zeros of the first frame lie within tol.sep_tol, and
    TrackingAmbiguity, carrying every uncertified step in `intervals`, when
    some step is not certified (a non-finite frame included).

    The labels of frame k are the first frame's order followed by the
    nearest-zero maps of steps 1..k.  These prefix compositions come from a
    doubling (Hillis-Steele) scan over the (T, N) index array: ceil(log2 T)
    whole-array passes, no loop over frames.
    """
    if len(frames) < 2:
        raise TrackingAmbiguity("need at least two frames to track")
    clouds = np.asarray(frames, dtype=np.complex128)
    if times is None:
        times = np.arange(len(clouds), dtype=float)
    check_distinct(clouds[0], tol.sep_tol)
    nearest, ratio = _certify(clouds)
    bad = np.flatnonzero(~(ratio < _HALF_GAP))
    if bad.size:
        k = bad[0]
        raise TrackingAmbiguity(
            f"t={times[k]:.6g}..{times[k + 1]:.6g}: a zero moves {ratio[k]:.3g} of "
            "the smallest gap, not under half: the grid does not resolve it", bad)
    # order[k, label] is the flat index k*N + i of the label's zero in frame
    # k.  Row k starts as step k's nearest-zero map (row 0: the canonical
    # order).  The pass at offset s looks up each row k >= s at the entries
    # row k - s holds, moved s rows on, so row k then composes rows
    # k-2s+1..k; once s >= T every row composes rows 0..k
    t, n = clouds.shape
    order = np.empty((t, n), dtype=np.intp)
    order[0] = canonical_order(clouds[0])
    np.add(nearest, n * np.arange(1, t)[:, None], out=order[1:])
    s = 1
    while s < t:
        order[s:] = order.ravel()[order[:-s] + s * n]
        s *= 2
    return LabeledPath(times=np.asarray(times, dtype=float), values=clouds.ravel()[order])


def _seed_labeled_path(spec: ModelSpec, x0, v0, grid, tol: Tolerances) -> LabeledPath:
    """Closed-form path of the seed model of `spec` from (x0, v0) at grid[0]
    (labels = components, frame 0 = x0 exactly).  The plain goldfish seed is
    the iso-goldfish one at omega = 0; like `rhs`, it ignores spec.omega."""
    elapsed = grid - grid[0]
    if spec.kind == "linear_seed":
        x, _ = solve_linear_seed(x0, v0, spec.a, spec.ia_sign, elapsed[:, None])
        return LabeledPath(grid, x)
    omega = spec.omega if spec.kind == "iso_goldfish" else 0.0
    path = track_zeros(solve_iso_goldfish_at(x0, v0, omega, elapsed, tol), grid, tol)
    # frame 0 is x0 in canonical order: relabel it to the order of x0
    return LabeledPath(grid, path.values[:, np.argsort(canonical_order(x0))])


def solve_generation_path(
    spec: ModelSpec,
    x0,
    v0,
    mu,
    grid,
    tol: Tolerances = Tolerances(),
) -> LabeledPath:
    """Labeled zero path of `spec` by the algebraic route, from the seed
    state (x0, v0) at grid[0], one level per mu entry (len(mu) == depth).

    The seed's level, spec.depth, is the closed-form path of the seed model
    that spec's kind, omega, a and ia_sign name; level depth - j - 1 is the
    generation step mu[j] (permgen.lift) of the level above, its labels fixed
    at grid[0], continuity-tracked.  Frame 0 of every level is, bit for bit,
    the state that build_initial_state lifts (x0, v0) to.

    A step that some level cannot track (see `track_zeros`) is bisected,
    the seed closed form and every level solved and tracked again through
    the added times; only the grid rows are returned.  A step still refused
    after _HALVINGS halvings of its grid step, or too narrow to halve in
    floating point, raises TrackingAmbiguity, so a true collision is refused.
    Every failure carries the level it happened at.
    """
    mu = tuple(int(m) for m in mu)
    if len(mu) != spec.depth:
        raise ValueError(f"{len(mu)} mu entries for a depth-{spec.depth} model")
    times = grid = np.asarray(grid, dtype=float)
    # how many halvings of its grid step made each time (0 on the grid);
    # the step after a time is as deep as the deeper of its two ends
    halved = np.zeros(len(grid), dtype=int)
    while True:
        level = spec.depth
        try:
            path = _seed_labeled_path(spec, x0, v0, times, tol)
            for m in mu:
                level -= 1
                path = track_zeros(lift(path.values, m, tol)[0], times, tol)
            return LabeledPath(grid, path.values[halved == 0])
        except GoldgenError as e:
            e.level = level
            if not isinstance(e, TrackingAmbiguity) or not len(e.intervals):
                raise
            at = np.asarray(e.intervals, dtype=int)
            lo, hi = times[at], times[at + 1]
            mid = 0.5 * (lo + hi)
            depth = np.maximum(halved[at], halved[at + 1])
            if np.any(depth >= _HALVINGS) or not np.all((lo < mid) & (mid < hi)):
                raise TrackingAmbiguity(
                    f"{e}, even halved to 2^-{_HALVINGS} of the grid step or to one ulp",
                    intervals=at,
                    level=level,
                ) from e
            times = np.insert(times, at + 1, mid)
            halved = np.insert(halved, at + 1, depth + 1)


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
