"""Goldfish-type right-hand sides and an adaptive ODE integrator.

The hierarchy: a solvable seed model (goldfish / isochronous goldfish /
linear two-mode seed) plus generation models whose accelerations follow
from the second-derivative transfer identity: the coefficient vector of
the associated polynomial evolves under the depth-(k-1) model, and the
coordinates are the polynomial's zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, GoldgenError, NonFiniteState, StepSizeUnderflow
from .permgen import lift
from .polycore import (
    DEFAULT_SEP_TOL,
    Tolerances,
    accel_transfer,
    coeff_motion,
    goldfish_force,
    min_pairwise_gap,
    pair_diffs,
    r_matrix,
)

SEED_KINDS = ("goldfish", "iso_goldfish", "linear_seed")
_MAX_STEPS = 1_000_000  # accepted plus rejected steps of one integrate call
_FIRST_STEP = 1e-4


@dataclass(frozen=True)
class ModelSpec:
    """Which member of the hierarchy to simulate: the solvable seed model
    `kind` (with its omega, a and ia_sign) under `depth` zero->coefficient
    layers; depth 0 is the seed model itself.  The equations of motion do
    not depend on the branch mu that the initial data were lifted through
    (build_initial_state).
    """

    kind: str
    omega: float = 0.0
    a: complex = 0.0
    ia_sign: int = +1
    depth: int = 0

    def __post_init__(self):
        if self.kind not in SEED_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.ia_sign not in (+1, -1):
            raise ValueError("ia_sign must be +1 or -1")


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


def _guarded_diffs(x: np.ndarray, sep_tol: float, level: int = 0) -> np.ndarray:
    """pair_diffs(x), once the smallest gap has passed the collision guard
    (CollisionError at `level` otherwise)."""
    diff = pair_diffs(x)
    gap = np.minimum.reduce(np.abs(diff), axis=None, initial=np.inf)
    if gap <= sep_tol:
        raise CollisionError(
            f"minimum gap {gap:.3e} <= sep_tol {sep_tol:.3e}", level=level
        )
    return diff


def rhs_goldfish(x, v, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """xddot_n = sum_{l != n} 2 xdot_n xdot_l / (x_n - x_l)."""
    return goldfish_force(v, _guarded_diffs(x, sep_tol))


def rhs_iso_goldfish(x, v, omega: float, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """Goldfish forces plus the isochronizing i*omega*xdot term."""
    return rhs_goldfish(x, v, sep_tol) + 1j * omega * v


def rhs_linear_seed(x, v, a: complex, ia_sign: int = +1) -> np.ndarray:
    """xddot_n = (i - a) xdot_n + ia_sign * i a x_n.

    ia_sign=-1 is the force as printed in the source model; ia_sign=+1 is
    the sign consistent with the model's displayed two-mode solution
    (modes e^{it}, e^{-at}).  Both are kept; +1 is the default everywhere
    a closed form is used as an oracle.
    """
    return (1j - a) * v + ia_sign * (1j * a * x)


def seed_rhs(x, v, spec: ModelSpec, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    if spec.kind == "goldfish":
        return rhs_goldfish(x, v, sep_tol)
    if spec.kind == "iso_goldfish":
        return rhs_iso_goldfish(x, v, spec.omega, sep_tol)
    return rhs_linear_seed(x, v, spec.a, spec.ia_sign)


def _finite(a: np.ndarray, what: str, level: int) -> None:
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NonFiniteState(f"non-finite {what}", level=level)


def _generation_accel(x, v, spec: ModelSpec, sep_tol: float, level: int) -> np.ndarray:
    """Acceleration of the zeros x (velocities v) at recursion level `level`
    of the model `spec` (depth > level).

    Per level, the numpy pair differences are built once: their smallest
    modulus is the collision guard, and accel_transfer takes one reciprocal
    of them for both of its terms.  y and its velocity come from
    coeff_motion (one scalar forward-mode fold over the sorted zeros) as
    one array, and that array is the level's only finiteness check: a
    non-finite x_n or v_n makes y_1 or ydot_1 non-finite.  A non-finite
    y_ddot from the level below needs no check of its own either, because
    it makes every entry of the transfer non-finite, up to rhs's check of
    the final acceleration.  These are the polycore primitives of the
    public transfer functions, so the result equals their composition to
    the bit.
    """
    diff = _guarded_diffs(x, sep_tol, level)
    motion = coeff_motion(x, v)
    _finite(motion, "coefficients", level + 1)
    y, y_dot = motion
    if level + 1 < spec.depth:
        y_ddot = _generation_accel(y, y_dot, spec, sep_tol, level + 1)
    else:
        try:
            y_ddot = seed_rhs(y, y_dot, spec, sep_tol)
        except CollisionError as e:
            e.level = level + 1
            raise
    return accel_transfer(x, v, diff, y_ddot)


def rhs(x, v, spec: ModelSpec, sep_tol: float = DEFAULT_SEP_TOL) -> np.ndarray:
    """Acceleration of the model `spec` at positions x, velocities v.

    For a depth-k generation model the coefficient vector y of
    prod(z - x_n) and its velocity are reconstructed algebraically from
    (x, xdot); its acceleration is the depth-(k-1) right-hand side; the
    second-derivative transfer identity then gives the acceleration of the
    zeros.  A failure carries its level j (0 = the integrated coordinates,
    spec.depth = the seed's): a collision raises CollisionError, and
    non-finite coefficients (level j >= 1's coordinates) or a non-finite
    acceleration (level 0) raise NonFiniteState (a seed model returns its
    force unchecked).
    """
    if spec.depth > 0:
        acc = _generation_accel(x, v, spec, sep_tol, level=0)
        _finite(acc, "acceleration", 0)
        return acc
    return seed_rhs(x, v, spec, sep_tol)


def build_initial_state(x, v, mu, tol: Tolerances = Tolerances()):
    """Lift seed initial data through a mu-address to generation-k data.

    Per level: the next positions are the zeros of the level's generation
    step (permgen.lift), and the velocities, in the order that step gives
    the coefficients, are mapped through R.  Both the root extraction and R
    use tol.  Returns the positions and velocities (x, v).  A failure of
    step j gets level len(mu) - j - 1, the level whose zeros it makes.
    """
    x = np.asarray(x, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    for j, mu_j in enumerate(mu):
        try:
            (x,), order = lift(x[None], int(mu_j), tol)
            v = r_matrix(x, tol.sep_tol) @ v[order]
        except GoldgenError as e:
            e.level = len(mu) - j - 1
            raise
    return x, v


# Dormand-Prince 5(4) tableau; the rows that multiply the complex stages are
# stored complex, so no product casts them per call (same values, same bits)
_DP_A = [np.array(row, dtype=np.complex128) for row in (
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
_DP_E = (_DP_B5 - _DP_B4).astype(np.complex128)
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
], dtype=np.complex128)
_POWERS = np.arange(1, 5)
_GAP_BATCH = 64  # accepted step ends per batched min_gap update


def integrate(
    spec: ModelSpec,
    x0,
    v0,
    out_times,
    tol: Tolerances = Tolerances(),
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with dense output (Shampine quartic),
    Hairer PI control and a collision guard, from the state (x0, v0) at
    out_times[0] to out_times[-1].

    The complex state (x, v) is advanced directly (RK stages are linear
    combinations); the error norm runs over real and imaginary parts, and a
    step is accepted only when it is at most 1 (so a NaN norm rejects the
    step, and a run whose step size underflows on one raises NonFiniteState);
    tol gives its ode_rel, ode_abs and sep_tol.
    Steps run freely towards the last output time (only the last one is
    clipped), and each output time inside an accepted step is filled from
    the step's quartic interpolant, with no extra right-hand-side calls; the
    last output is the last step's end state.  The outputs are the rows of
    one (T, 2N) array, which the trajectory's x and v view.  The step size
    follows Hairer's PI controller (0.9 err^-0.17 err_prev^0.04 within
    [0.2, 10], no growth right after a rejection).  A step with a stage
    within sep_tol at any level is rejected and halved (the last stage is
    the end state, so every accepted state passed the guard), and the run
    aborts with CollisionError once that collapses the step size; a close
    approach that stays above sep_tol is left to the error test.  An
    initial state or an interpolated output at or below sep_tol aborts.

    Checks, and where they run: a non-finite x0 or v0 raises
    NonFiniteState before the first step, once per run; each stage's rhs
    guards every recursion level and checks a generation model's
    coefficients and acceleration (see _generation_accel), and the error
    test rejects a seed model's non-finite stage.  Interpolated outputs are
    guarded as they are written.  Step ends need no guard of their own, as
    each is a last stage's state, so their gaps only feed min_gap, in one
    batched call per _GAP_BATCH accepted steps.
    """
    out_times = np.asarray(out_times, dtype=float)
    if np.any(np.diff(out_times) <= 0):
        raise ValueError("output grid must be strictly increasing")

    n = len(x0)
    guarded = spec.depth > 0 or spec.kind != "linear_seed"
    # row k holds the state (x, v) at out_times[k]; rows < filled are written
    out = np.empty((len(out_times), 2 * n), dtype=np.complex128)
    traj = Trajectory(out_times, out[:, :n], out[:, n:])
    # stage k_i of the state u = (x, v) is row i: (v, acceleration)
    K = np.empty((7, 2 * n), dtype=np.complex128)

    def stage(i, u):
        traj.rhs_calls += 1
        K[i, :n] = u[n:]
        K[i, n:] = rhs(u[:n], u[n:], spec, tol.sep_tol)

    u = np.concatenate([x0, v0], dtype=np.complex128)
    _finite(u, "initial state", 0)
    abs_u = np.abs(u)
    ends = np.empty((_GAP_BATCH, n), dtype=np.complex128)
    n_ends = 0
    t = out_times[0]
    t_end = out_times[-1]
    h = min(_FIRST_STEP, t_end - t)
    out[0] = u
    filled = 1
    if guarded:
        traj.min_gap = min_pairwise_gap(u[:n])
    stage(0, u)
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
        try:
            for i in range(1, 7):
                u5 = u + h * np.dot(_DP_A[i], K[:i])
                stage(i, u5)
        except CollisionError as e:
            traj.rejected_guard += 1
            no_growth = True
            h *= 0.5
            if h < 1e-12 * max(1.0, abs(t)):
                gap = min_pairwise_gap(u[:n])
                raise CollisionError(
                    f"collision approaching t~{t:.6g}: gap {gap:.3e} "
                    f"and shrinking, step size collapsed",
                    level=e.level,
                ) from e
            continue
        abs_u5 = np.abs(u5)
        scale = np.maximum(abs_u, abs_u5)
        scale *= tol.ode_rel
        scale += tol.ode_abs
        r = np.dot(_DP_E, K)
        r *= h
        r = np.abs(r)
        r /= scale
        err = math.sqrt(np.add.reduce(r * r) / r.size)
        if not err <= 1.0:
            traj.rejected_error += 1
            no_growth = True
            h *= max(0.2, 0.9 * err ** -0.2)
            if h < 1e-14 * max(1.0, abs(t)) and not math.isfinite(err):
                raise NonFiniteState(f"non-finite stage at t={t:.6g}", level=0)
            continue
        # outputs in (t, t_new]: from the interpolant inside, u5 at t_new
        t_new = t_end if last else t + h
        stop = int(np.searchsorted(out_times, t_new, side="right"))
        inner = stop - 1 if out_times[stop - 1] == t_new else stop
        if inner > filled:
            taus = out_times[filled:inner]
            theta = (taus - t) / h
            us = out[filled:inner]
            np.dot(theta[:, None] ** _POWERS, np.dot(_DP_P.T, K), out=us)
            us *= h
            us += u
            if guarded:
                gaps = min_pairwise_gap(us[:, :n])
                k = int(np.argmin(gaps))
                if gaps[k] <= tol.sep_tol:
                    raise CollisionError(
                        f"collision at t~{taus[k]:.6g}: gap {gaps[k]:.3e}", level=0
                    )
                traj.min_gap = min(traj.min_gap, float(gaps[k]))
        if inner < stop:
            out[inner] = u5
        filled = stop
        traj.steps += 1
        if guarded:
            ends[n_ends] = u5[:n]
            n_ends += 1
            if n_ends == _GAP_BATCH or last:
                gap = float(min_pairwise_gap(ends[:n_ends]).min())
                traj.min_gap = min(traj.min_gap, gap)
                n_ends = 0
        t, u, abs_u = t_new, u5, abs_u5
        K[0] = K[6]  # first same as last
        # Hairer's PI controller (HNW I, II.4): alpha = 0.17, beta = 0.04
        fac = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 10.0
        fac = min(1.0 if no_growth else 10.0, max(0.2, fac))
        no_growth = False
        err_prev = max(err, 1e-4)
        h *= fac
    return traj
