"""Goldfish-type right-hand sides and an adaptive ODE integrator.

The hierarchy: a solvable seed model (goldfish / isochronous goldfish /
linear two-mode seed) plus generation models whose accelerations follow
from the second-derivative transfer identity: the coefficient vector of
the associated polynomial evolves under the depth-(k-1) model, and the
coordinates are the polynomial's zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, GoldgenError, StepSizeUnderflow
from .permgen import apply_mu
from .polycore import (
    DEFAULT_SEP_TOL,
    MonicPoly,
    RootOptions,
    accel_transfer,
    canonical_order,
    coeff_motion,
    goldfish_force,
    min_pairwise_gap,
    pair_diffs,
    r_matrix,
    zeros_from_coeffs,
)

SEED_KINDS = ("goldfish", "iso_goldfish", "linear_seed")
_MAX_STEPS = 1_000_000  # accepted plus rejected steps of one integrate call


@dataclass(frozen=True)
class PhaseState:
    x: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.complex128))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.complex128))
        if self.x.shape != self.v.shape:
            raise ValueError("positions and velocities differ in shape")

    @classmethod
    def trusted(cls, x: np.ndarray, v: np.ndarray, t: float = 0.0) -> "PhaseState":
        """A state from complex128 vectors of equal length, not re-validated."""
        s = object.__new__(cls)
        object.__setattr__(s, "x", x)
        object.__setattr__(s, "v", v)
        object.__setattr__(s, "t", t)
        return s

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ModelSpec:
    """Which member of the hierarchy to simulate.

    kind 'generation' wraps a solvable seed spec; `depth` counts how many
    zero->coefficient layers sit between the integrated coordinates and
    the seed.  The equations of motion do not depend on the branch mu that
    the initial data were lifted through (build_initial_state).
    """

    kind: str
    omega: float = 0.0
    a: complex = 0.0
    ia_sign: int = +1
    depth: int = 0
    seed: "ModelSpec | None" = None

    def __post_init__(self):
        if self.kind not in SEED_KINDS + ("generation",):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "generation":
            if self.seed is None or self.depth < 1:
                raise ValueError("generation model needs a seed and depth >= 1")
            if self.seed.kind not in SEED_KINDS:
                raise ValueError("generation must nest over a seed kind")
        if self.ia_sign not in (+1, -1):
            raise ValueError("ia_sign must be +1 or -1")


@dataclass
class IntegratorOptions:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    sep_tol: float = DEFAULT_SEP_TOL
    first_step: float = 1e-4


@dataclass
class Trajectory:
    """Positions x and velocities v, each (T, N), one row per output time."""

    times: np.ndarray
    x: np.ndarray
    v: np.ndarray
    steps: int = 0
    rejected_error: int = 0
    rejected_guard: int = 0
    rhs_calls: int = 0
    min_gap: float = np.inf

    @property
    def rejected(self) -> int:
        """Steps rejected by the error test or by the collision guard."""
        return self.rejected_error + self.rejected_guard


def _guarded_diffs(x: np.ndarray, sep_tol: float, level=None) -> np.ndarray:
    """pair_diffs(x), once the smallest gap has passed the collision guard
    (CollisionError tagged with `level` otherwise)."""
    diff = pair_diffs(x)
    gap = np.minimum.reduce(np.abs(diff), axis=None, initial=np.inf)
    if gap <= sep_tol:
        raise CollisionError(
            f"minimum gap {gap:.3e} <= sep_tol {sep_tol:.3e}", level=level
        )
    return diff


def rhs_goldfish(s: PhaseState, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """xddot_n = sum_{l != n} 2 xdot_n xdot_l / (x_n - x_l)."""
    return goldfish_force(s.v, _guarded_diffs(s.x, sep_tol))


def rhs_iso_goldfish(
    s: PhaseState, omega: float, sep_tol: float = DEFAULT_SEP_TOL
) -> np.ndarray:
    """Goldfish forces plus the isochronizing i*omega*xdot term."""
    return rhs_goldfish(s, sep_tol) + 1j * omega * s.v


def rhs_linear_seed(s: PhaseState, a: complex, ia_sign: int = +1) -> np.ndarray:
    """xddot_n = (i - a) xdot_n + ia_sign * i a x_n.

    ia_sign=-1 is the force as printed in the source model; ia_sign=+1 is
    the sign consistent with the model's displayed two-mode solution
    (modes e^{it}, e^{-at}).  Both are kept; +1 is the default everywhere
    a closed form is used as an oracle.
    """
    return (1j - a) * s.v + ia_sign * (1j * a * s.x)


def seed_rhs(s: PhaseState, spec: ModelSpec, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    if spec.kind == "goldfish":
        return rhs_goldfish(s, sep_tol)
    if spec.kind == "iso_goldfish":
        return rhs_iso_goldfish(s, spec.omega, sep_tol)
    if spec.kind == "linear_seed":
        return rhs_linear_seed(s, spec.a, spec.ia_sign)
    raise ValueError(f"not a seed kind: {spec.kind}")


def _finite(*arrays) -> None:
    for a in arrays:
        if not np.logical_and.reduce(np.isfinite(a)):
            raise ValueError("non-finite entries")


def _generation_accel(x, v, seed: ModelSpec, depth: int, sep_tol: float,
                      level: int) -> np.ndarray:
    """Acceleration of the zeros x (velocities v) of a depth-`depth` model.

    One pass per level: the pair differences are built and guarded once
    and serve the whole transfer; x is validated once per level.  The
    coefficient motion and the acceleration come from the polycore
    primitives (coeff_motion, accel_transfer) that the public transfer
    functions are built from, so the result equals their composition to
    the bit.
    """
    diff = _guarded_diffs(x, sep_tol, level)
    _finite(x, v)
    y, y_dot = coeff_motion(x, v)
    if depth > 1:
        y_ddot = _generation_accel(y, y_dot, seed, depth - 1, sep_tol, level + 1)
    else:
        try:
            y_ddot = seed_rhs(PhaseState.trusted(y, y_dot), seed, sep_tol)
        except CollisionError as e:
            raise CollisionError(str(e), level=level + 1) from e
    _finite(y_ddot)
    return accel_transfer(x, v, diff, y_ddot)


def rhs(s: PhaseState, spec: ModelSpec, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """Acceleration of the model `spec` in the state s.

    For a depth-k generation model the coefficient vector y of
    prod(z - x_n) and its velocity are reconstructed algebraically from
    (x, xdot); its acceleration is the depth-(k-1) right-hand side; the
    second-derivative transfer identity then gives the acceleration of the
    zeros.  A collision at recursion level j (0 = the integrated
    coordinates) raises CollisionError with level j.
    """
    if spec.kind == "generation":
        return _generation_accel(s.x, s.v, spec.seed, spec.depth, sep_tol, level=0)
    return seed_rhs(s, spec, sep_tol)


def build_initial_state(seed_state: PhaseState, mu, sep_tol: float = DEFAULT_SEP_TOL):
    """Lift seed initial data through a mu-address to generation-k data.

    Per level: sort the current positions canonically (velocities carried
    along), apply the level's permutation to get the next coefficient
    vector and its velocity, root-extract the next positions, and map the
    velocities through R.  Both the root extraction and R use sep_tol.
    """
    mu = tuple(int(m) for m in mu)
    x = np.asarray(seed_state.x, dtype=np.complex128)
    v = np.asarray(seed_state.v, dtype=np.complex128)
    for j, mu_j in enumerate(mu):
        order = canonical_order(x)
        y = apply_mu(mu_j, x[order])
        y_dot = apply_mu(mu_j, v[order])
        try:
            zs = zeros_from_coeffs(MonicPoly(y), RootOptions(sep_tol=sep_tol))
        except GoldgenError as e:
            raise type(e)(f"level {j + 1}: {e}") from e
        x = zs.zeros  # already canonically ordered
        v = r_matrix(x, sep_tol) @ y_dot
    return PhaseState(x, v, t=seed_state.t)


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [np.array(row) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4
# Shampine's quartic interpolant: u(t + theta h) = u + h (P^T K)^T [theta..theta^4]
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_POWERS = np.arange(1, 5)


def integrate(
    spec: ModelSpec,
    s0: PhaseState,
    t1: float,
    out_times,
    opts: IntegratorOptions | None = None,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with dense output (Shampine quartic),
    Hairer PI control and a collision guard.

    The complex state (x, v) is advanced directly (RK stages are linear
    combinations); the error norm runs over real and imaginary parts.
    Steps run freely towards t1 (only the last one is clipped), and each
    output time inside an accepted step is filled from the step's quartic
    interpolant, with no extra right-hand-side calls; the output at t1 is
    the last step's end state.  The outputs are the rows of one (T, 2N)
    array, which the trajectory's x and v view.  The step size follows
    Hairer's PI controller (0.9 err^-0.17 err_prev^0.04 within [0.2, 10],
    no growth right after a rejection).  Steps predicted to bring particles
    within 10*sep_tol of each other are rejected and halved; a step end or
    an output state at or below sep_tol aborts with CollisionError.
    """
    opts = opts or IntegratorOptions()
    t0 = s0.t
    out_times = np.asarray(out_times, dtype=float)
    if out_times[0] != t0:
        raise ValueError("output grid must start at the initial time")
    if np.any(np.diff(out_times) <= 0):
        raise ValueError("output grid must be strictly increasing")
    if out_times[-1] != t1:
        raise ValueError("output grid must end at t1")

    n = s0.n
    guarded = spec.kind in ("goldfish", "iso_goldfish", "generation")
    # row k holds the state (x, v) at out_times[k]; rows < filled are written
    out = np.empty((len(out_times), 2 * n), dtype=np.complex128)
    traj = Trajectory(out_times, out[:, :n], out[:, n:])
    # stage k_i of the state u = (x, v) is row i: (v, acceleration)
    K = np.empty((7, 2 * n), dtype=np.complex128)

    def stage(i, t, u):
        traj.rhs_calls += 1
        K[i, :n] = u[n:]
        K[i, n:] = rhs(PhaseState.trusted(u[:n], u[n:], t), spec, opts.sep_tol)

    u = np.concatenate([s0.x, s0.v])
    t = t0
    t_end = out_times[-1]
    h = min(opts.first_step, abs(t1 - t0))
    out[0] = u
    filled = 1
    if guarded:
        traj.min_gap = min_pairwise_gap(u[:n])
    stage(0, t, u)
    err_prev = 1e-4  # Hairer's starting value
    no_growth = False
    while t < t_end:
        if traj.steps + traj.rejected > _MAX_STEPS:
            raise StepSizeUnderflow("step budget exhausted")
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"step size underflow at t={t:.6g}")
        last = t + 1.01 * h >= t_end
        if last:
            h = t_end - t
        # the last stage is evaluated at u5 (its row of A is B5)
        collided = False
        try:
            for i in range(1, 7):
                u5 = u + h * np.dot(_DP_A[i], K[:i])
                stage(i, t + _DP_C[i] * h, u5)
        except CollisionError:
            if min_pairwise_gap(u[:n]) <= opts.sep_tol:
                raise
            collided = True
        if guarded and not collided:
            gap = min_pairwise_gap(u5[:n])
            if gap <= opts.sep_tol:
                raise CollisionError(f"collision at t~{t + h:.6g}: gap {gap:.3e}")
            collided = gap <= 10.0 * opts.sep_tol
        if collided:
            traj.rejected_guard += 1
            no_growth = True
            h *= 0.5
            if h < 1e-12 * max(1.0, abs(t)):
                gap = min_pairwise_gap(u[:n])
                raise CollisionError(
                    f"collision approaching t~{t:.6g}: gap {gap:.3e} "
                    f"and shrinking, step size collapsed"
                )
            continue
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(u), np.abs(u5))
        err = np.sqrt(np.mean((np.abs(h * np.dot(_DP_E, K)) / scale) ** 2))
        if err > 1.0:
            traj.rejected_error += 1
            no_growth = True
            h *= max(0.2, 0.9 * err ** -0.2)
            continue
        # outputs in (t, t_new]: from the interpolant inside, u5 at t_new
        t_new = t_end if last else t + h
        stop = int(np.searchsorted(out_times, t_new, side="right"))
        inner = stop - 1 if out_times[stop - 1] == t_new else stop
        if inner > filled:
            taus = out_times[filled:inner]
            theta = (taus - t) / h
            us = out[filled:inner]
            us[:] = u + h * np.dot(theta[:, None] ** _POWERS, np.dot(_DP_P.T, K))
            if guarded:
                gaps = min_pairwise_gap(us[:, :n])
                k = int(np.argmin(gaps))
                if gaps[k] <= opts.sep_tol:
                    raise CollisionError(
                        f"collision at t~{taus[k]:.6g}: gap {gaps[k]:.3e}"
                    )
                traj.min_gap = min(traj.min_gap, float(gaps[k]))
        if inner < stop:
            out[inner] = u5
        filled = stop
        traj.steps += 1
        if guarded:
            traj.min_gap = min(traj.min_gap, gap)
        t, u = t_new, u5
        K[0] = K[6]  # first same as last
        # Hairer's PI controller (HNW I, II.4): alpha = 0.17, beta = 0.04
        fac = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 10.0
        fac = min(1.0 if no_growth else 10.0, max(0.2, fac))
        no_growth = False
        err_prev = max(err, 1e-4)
        h *= fac
    return traj
