"""Algebraic solution paths for the solvable hierarchy.

Closed forms for the linear two-mode seed and the isochronous goldfish
model, lifting of a solved seed path through generation layers by repeated
root extraction, continuity-based zero tracking (optimal assignment
between consecutive frames), and numerical period detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ModelSpec, PhaseState
from .errors import (
    DegenerateModes,
    DegenerateZeros,
    NoPeriodFound,
    TrackingAmbiguity,
)
from .matching import distance_matrix, second_best, sum_optimal
from .permgen import canonical_sort, mu_to_perm
from .polycore import (
    DEFAULT_SEP_TOL,
    MonicPoly,
    RootOptions,
    min_pairwise_gap,
    zeros_from_coeffs,
)

DEFAULT_PERIOD_TOL = 1e-6
DEFAULT_AMBIGUITY_TOL = 1e-12


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

    def to_csv(self) -> str:
        cols = ["t"] + [
            f"x{i}_{p}" for i in range(1, self.n + 1) for p in ("re", "im")
        ]
        lines = [",".join(cols)]
        for t, row in zip(self.times, self.values):
            out = [f"{t:.17g}"]
            for z in row:
                out += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            lines.append(",".join(out))
        return "\n".join(lines) + "\n"


@dataclass
class PeriodReport:
    base_period: float
    multiplier: int
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "base_period": self.base_period,
            "multiplier": self.multiplier,
            "residual": self.residual,
        }


def solve_linear_seed(
    x0, v0, a: complex, ia_sign: int, t: float, mode_tol: float = 1e-10
) -> PhaseState:
    """Exact two-mode solution of xddot = (i - a) xdot + ia_sign * i a x.

    For ia_sign=+1 the characteristic roots are exactly {i, -a}.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    v0 = np.asarray(v0, dtype=np.complex128)
    a = complex(a)
    b = 1j - a
    disc = np.sqrt(complex(b * b + 4 * ia_sign * 1j * a))
    lam_p = (b + disc) / 2
    lam_m = (b - disc) / 2
    if abs(lam_p - lam_m) < mode_tol:
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
    return PhaseState(x, v, t)


def solve_iso_goldfish_at(
    x0,
    v0,
    omega: float,
    t: float,
    opts: RootOptions | None = None,
) -> np.ndarray:
    """Zero set solving the isochronous goldfish model at time t.

    The polynomial's coefficient vector evolves linearly (its second
    derivative equals i*omega times its first), so the positions are the
    N roots of
      sum_l v0_l prod_{j != l} (z - x0_j)
        = [i w / (e^{i w t} - 1)] prod_j (z - x0_j),
    with the omega=0 (plain goldfish) limit replacing the bracket by 1/t.
    Returned canonically ordered; semantically unordered.
    """
    opts = opts or RootOptions()
    x0 = np.asarray(x0, dtype=np.complex128)
    v0 = np.asarray(v0, dtype=np.complex128)
    n = len(x0)
    if min_pairwise_gap(x0) <= opts.sep_tol:
        raise DegenerateZeros("initial positions not well separated")
    if t == 0.0:
        return canonical_sort(x0)
    if omega == 0.0:
        cpole = 1.0 / t
    else:
        phase = np.exp(1j * omega * t) - 1.0
        if abs(phase) < 1e-12:
            # t is a multiple of the base period: the configuration recurs
            return canonical_sort(x0)
        cpole = 1j * omega / phase
    # full product prod_j (z - x0_j), descending powers, length n+1
    full = np.array([1.0 + 0j])
    for xj in x0:
        full = np.convolve(full, [1.0 + 0j, -xj])
    coeffs = -cpole * full
    w = v0
    for l in range(n):
        part = np.array([1.0 + 0j])
        for j in range(n):
            if j != l:
                part = np.convolve(part, [1.0 + 0j, -x0[j]])
        coeffs[1:] += w[l] * part
    monic = coeffs[1:] / coeffs[0]
    zs = zeros_from_coeffs(MonicPoly(monic), opts)
    return zs.zeros


def track_zeros(
    frames,
    times=None,
    ambiguity_tol: float = DEFAULT_AMBIGUITY_TOL,
) -> LabeledPath:
    """Label the zeros of a polynomial path by continuity.

    `frames` is a sequence of MonicPoly or of zero vectors, one per grid
    time.  Labels start from the canonical order of the first frame and
    propagate by minimal-total-squared-distance matching between
    consecutive frames.  Raises TrackingAmbiguity when the matching is not
    well-posed: the best and second-best matchings nearly tie, or some
    label moves farther than half the previous frame's minimum gap.
    """
    clouds = []
    for f in frames:
        if isinstance(f, MonicPoly):
            clouds.append(zeros_from_coeffs(f).zeros)
        else:
            clouds.append(np.asarray(f, dtype=np.complex128))
    if len(clouds) < 2:
        raise TrackingAmbiguity("need at least two frames to track")
    if times is None:
        times = np.arange(len(clouds), dtype=float)
    out = np.empty((len(clouds), len(clouds[0])), dtype=np.complex128)
    out[0] = canonical_sort(clouds[0])
    for k in range(1, len(clouds)):
        prev = out[k - 1]
        cur = clouds[k]
        cost = distance_matrix(prev, cur) ** 2
        cols = sum_optimal(cost)
        best = cost[np.arange(len(cols)), cols].sum()
        matched = cur[cols]
        disp = np.max(np.abs(matched - prev))
        half_gap = 0.5 * min_pairwise_gap(prev)
        if disp >= half_gap:
            raise TrackingAmbiguity(
                f"frame {k}: displacement {disp:.3e} >= half gap "
                f"{half_gap:.3e}; refine the time grid"
            )
        if len(prev) > 1:
            second = second_best(cost, cols)
            if second - best <= ambiguity_tol * max(1.0, best):
                raise TrackingAmbiguity(
                    f"frame {k}: ambiguous matching (gap "
                    f"{second - best:.3e})"
                )
        out[k] = matched
    return LabeledPath(times=np.asarray(times, dtype=float), values=out)


def _seed_labeled_path(
    spec: ModelSpec, state0: PhaseState, grid, opts: RootOptions
) -> tuple[LabeledPath, np.ndarray]:
    """Closed-form seed path plus its velocity path (labels = components)."""
    grid = np.asarray(grid, dtype=float)
    if spec.kind == "linear_seed":
        xs = np.empty((len(grid), state0.n), dtype=np.complex128)
        vs = np.empty_like(xs)
        for i, t in enumerate(grid):
            st = solve_linear_seed(state0.x, state0.v, spec.a, spec.ia_sign, t)
            xs[i] = st.x
            vs[i] = st.v
        return LabeledPath(grid, xs), vs
    if spec.kind == "iso_goldfish":
        clouds = [
            solve_iso_goldfish_at(state0.x, state0.v, spec.omega, t, opts)
            for t in grid
        ]
        path = track_zeros(clouds, times=grid)
        # shift labels so the first frame equals the given ordering of x0
        perm = np.argsort(
            sum_optimal(distance_matrix(path.values[0], state0.x) ** 2)
        )
        xs = path.values[:, perm]
        vs = _fd_velocities(grid, xs)
        return LabeledPath(grid, xs), vs
    raise ValueError(f"seed kind {spec.kind!r} has no closed-form path")


def _fd_velocities(grid: np.ndarray, xs: np.ndarray) -> np.ndarray:
    return np.gradient(xs, grid, axis=0)


def solve_generation_path(
    seed_spec: ModelSpec,
    seed_state0: PhaseState,
    mu,
    grid,
    opts: RootOptions | None = None,
) -> LabeledPath:
    """Depth-k labeled zero path by the algebraic route.

    Level 0 is the closed-form seed path.  At each level the coefficient
    path is the level's permutation of the previous labeled path, with the
    permutation fixed at t=0 and carried by the labels; the zeros are then
    root-extracted per time and continuity-tracked.
    """
    opts = opts or RootOptions()
    mu = tuple(int(m) for m in mu)
    grid = np.asarray(grid, dtype=float)
    path, _ = _seed_labeled_path(seed_spec, seed_state0, grid, opts)
    for mu_j in mu:
        first = path.values[0]
        order = np.lexsort((first.imag, first.real))
        perm = np.asarray([p - 1 for p in mu_to_perm(mu_j, path.n)])
        label_order = order[perm]
        coeff_path = path.values[:, label_order]
        clouds = []
        for row in coeff_path:
            clouds.append(zeros_from_coeffs(MonicPoly(row), opts).zeros)
        path = track_zeros(clouds, times=grid)
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
    shift = int(round(per))
    if abs(per - shift) > 1e-6 * per:
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
