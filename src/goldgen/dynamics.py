"""Goldfish-type right-hand sides and an adaptive ODE integrator.

The hierarchy: a solvable seed model (goldfish / isochronous goldfish /
linear two-mode seed) plus generation models whose accelerations follow
from the second-derivative transfer identity: the coefficient vector of
the associated polynomial evolves under the depth-(k-1) model, and the
coordinates are the polynomial's zeros.  One recursion (_accel) runs the
levels, the seed model last.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from cmath import isfinite
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, GoldgenError, NonFiniteState, StepSizeUnderflow
from .permgen import lift
from .polycore import (
    DEFAULT_SEP_TOL,
    Tolerances,
    accel_transfer,
    coeff_rows,
    fold,
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


def _guarded_diffs(x: np.ndarray, sep_tol: float, level: int) -> np.ndarray:
    """pair_diffs(x), once the smallest gap has passed the collision guard
    (CollisionError at `level` otherwise)."""
    diff = pair_diffs(x)
    gap = np.minimum.reduce(np.abs(diff), axis=None, initial=np.inf)
    if gap <= sep_tol:
        raise CollisionError(
            f"minimum gap {gap:.3e} <= sep_tol {sep_tol:.3e}", level=level
        )
    return diff


def rhs_linear_seed(x, v, a: complex, ia_sign: int = +1) -> np.ndarray:
    """xddot_n = (i - a) xdot_n + ia_sign * i a x_n.

    ia_sign=-1 is the force as printed in the source model; ia_sign=+1 is
    the sign consistent with the model's displayed two-mode solution
    (modes e^{it}, e^{-at}).  Both are kept; +1 is the default everywhere
    a closed form is used as an oracle.
    """
    return (1j - a) * v + ia_sign * (1j * a * x)


def _accel(x, v, spec: ModelSpec, sep_tol: float, level: int) -> np.ndarray:
    """Acceleration of the zeros x (velocities v) at recursion level `level`
    of the model `spec`.  Level spec.depth is the seed: rhs_linear_seed, or
    goldfish_force past the collision guard (plus i*omega*v for
    iso_goldfish).  Every other level builds its numpy pair differences
    once: their smallest modulus is the collision guard, and accel_transfer
    takes one reciprocal of them for both of its terms.  y and its velocity
    come from fold (one scalar forward-mode fold over the sorted zeros) as
    two Python lists, and the level's only finiteness check runs on those
    2N scalars (cmath.isfinite) before coeff_rows makes them the (2, N)
    array that coeff_motion returns: a non-finite x_n or v_n makes y_1 or
    ydot_1 non-finite.  A non-finite y_ddot from the level below needs no
    check of its own either, because it makes every entry of the transfer
    non-finite, up to rhs's check of the final acceleration.  fold and
    coeff_rows are coeff_motion, so the result equals the composition of
    coeff_motion and accel_transfer to the bit.
    """
    if level == spec.depth:
        if spec.kind == "linear_seed":
            return rhs_linear_seed(x, v, spec.a, spec.ia_sign)
        acc = goldfish_force(v, _guarded_diffs(x, sep_tol, level))
        return acc + 1j * spec.omega * v if spec.kind == "iso_goldfish" else acc
    diff = _guarded_diffs(x, sep_tol, level)
    e, d = fold(x, v)
    if not (all(map(isfinite, e)) and all(map(isfinite, d))):
        raise NonFiniteState("non-finite coefficients", level=level + 1)
    y, y_dot = coeff_rows(e, d)
    return accel_transfer(x, v, diff, _accel(y, y_dot, spec, sep_tol, level + 1))


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
    force unchecked).  Both finiteness checks run in scalar Python, on the
    fold's lists (see _accel) and on acc.tolist(): at small N that is a
    fraction of numpy's fixed price for isfinite plus a reduce.
    """
    acc = _accel(x, v, spec, sep_tol, 0)
    if spec.depth > 0 and not all(map(isfinite, acc.tolist())):
        raise NonFiniteState("non-finite acceleration", level=0)
    return acc


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
    step, and a run whose step size underflows on a non-finite stage raises
    NonFiniteState, on finite stages StepSizeUnderflow);
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
    NonFiniteState before the first step, once per run (one numpy isfinite);
    each stage's rhs guards every recursion level and checks a generation
    model's coefficients and acceleration in scalar Python (see _accel and
    rhs), and the error test rejects a seed model's non-finite stage.
    Interpolated outputs are guarded when their batch is written (below):
    the run raises for the first step, in time, that holds an output at or
    below sep_tol, naming that step's closest output, as if each step had
    been guarded on its own.  Step ends need no guard of their own, as each
    is a last stage's state, so their gaps only feed min_gap.

    Per step the loop pays numpy's call price only for the stages, the
    error test and a few row copies.  The seven stages are the rows of one
    (7, 3N) array, row i holding (x_i, v_i, a_i), so the derivatives
    k_i = (v_i, a_i) are one view of it: a stage forms its state in place
    and stores only its acceleration, and first-same-as-last copies one
    row.  An accepted step with output times inside it records its rows,
    t and h and a copy of its stage rows, and its outputs are written in a
    batch: once per _GAP_BATCH such steps or step ends, after the last
    step, and before a GoldgenError leaves the loop (a collision among the
    batch's outputs, the earlier failure, is then raised in its place).  A
    batch forms P^T K for all its steps in one stacked matmul (bit for bit
    the per-step product), theta and its powers for all its rows at once,
    and one min_pairwise_gap over all its rows and step ends.  Only the
    product of a step's theta rows with its P^T K, and the h and u it
    scales and shifts by, stay per step: stacked per-row products run
    BLAS's matrix-vector path, whose sums round differently.  The output
    rows a step covers are found by bisecting the grid as a Python list from
    the first unwritten row, t and the counters are Python numbers, and the
    trajectory's counters are stored once, at the end.  The stages call the
    module-level rhs, so a wrapper bound to dynamics.rhs sees every call.
    """
    out_times = np.asarray(out_times, dtype=float)
    if np.any(np.diff(out_times) <= 0):
        raise ValueError("output grid must be strictly increasing")

    # every model is autonomous: steps run in the time elapsed since t0, so the
    # step-size floors and theta keep their digits at any t0 (messages add t0)
    t0 = float(out_times[0])
    times = (out_times - t0).tolist()
    n = len(x0)
    guarded = spec.depth > 0 or spec.kind != "linear_seed"
    sep_tol = float(tol.sep_tol)
    # row k holds the state (x, v) at out_times[k]; rows < filled are written
    out = np.empty((len(times), 2 * n), dtype=np.complex128)
    # row i of S is stage i: its state (x_i, v_i) and acceleration a_i
    S = np.empty((7, 3 * n), dtype=np.complex128)
    K = S[:, n:]
    stages = [(_DP_A[i], K[:i], S[i, :2 * n], S[i, :n], S[i, n:2 * n], S[i, 2 * n:])
              for i in range(1, 7)]
    du = np.empty(2 * n, dtype=np.complex128)
    u, u5, x5 = S[0, :2 * n], S[6, :2 * n], S[6, :n]  # the step's start and end

    u[:n] = x0
    u[n:] = v0
    if not np.isfinite(u).all():
        raise NonFiniteState("non-finite initial state", level=0)
    abs_u = np.abs(u)
    # accepted steps whose interpolated rows are not yet written: their
    # (first row, stop row, t, h) and stage rows; x of the unflushed step ends
    pending = []
    pending_S = np.empty((_GAP_BATCH, 7, 3 * n), dtype=np.complex128)
    ends = np.empty((_GAP_BATCH, n), dtype=np.complex128)
    n_ends = 0
    steps = rejected_error = rejected_guard = 0
    min_gap = min_pairwise_gap(u[:n]) if guarded else np.inf

    def flush():
        """Write the pending steps' interpolated rows and fold their gaps and
        the pending step ends' into min_gap; clears the batch first, so a
        flush on the way out of a failed flush finds nothing to do."""
        nonlocal n_ends, min_gap
        batch, n_batch_ends = pending[:], n_ends
        pending.clear()
        n_ends = 0
        if batch:
            PK = np.matmul(_DP_P.T, pending_S[:len(batch), :, n:])
            theta = np.array([(tau - t_j) / h_j for a, b, t_j, h_j in batch
                              for tau in times[a:b]])
            powers = theta[:, None] ** _POWERS
            i = 0
            for j, (a, b, _, h_j) in enumerate(batch):
                us = out[a:b]
                np.dot(powers[i:i + b - a], PK[j], out=us)
                us *= h_j
                us += pending_S[j, 0, :2 * n]
                i += b - a
        if not guarded or not (batch or n_batch_ends):
            return
        # rows r0..r1 are the batch's outputs and the step ends on output
        # times between them, which are already written
        r0, r1 = (batch[0][0], batch[-1][1]) if batch else (0, 0)
        gaps = min_pairwise_gap(np.concatenate((out[r0:r1, :n], ends[:n_batch_ends])))
        if batch and gaps[:r1 - r0].min() <= sep_tol:
            for a, b, _, _ in batch:
                g = gaps[a - r0:b - r0]
                if g.min() <= sep_tol:
                    k = int(np.argmin(g))
                    raise CollisionError(
                        f"collision at t~{t0 + times[a + k]:.6g}: gap {g[k]:.3e}", level=0
                    )
        min_gap = min(min_gap, float(gaps.min()))

    t = times[0]
    t_end = times[-1]
    # not capped at the span: the step-size floor below is tested before
    # the last-step clip, which shortens the step to a span of any length
    h = _FIRST_STEP
    out[0] = u
    filled = 1
    S[0, 2 * n:] = rhs(u[:n], u[n:], spec, sep_tol)
    rhs_calls = 1
    err_prev = 1e-4  # Hairer's starting value
    no_growth = False
    try:
        while t < t_end:
            if steps + rejected_error + rejected_guard > _MAX_STEPS:
                raise StepSizeUnderflow("step budget exhausted")
            if h < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflow(f"step size underflow at t={t0 + t:.6g}")
            last = t + 1.01 * h >= t_end
            if last:
                h = t_end - t
            # the last stage is evaluated at u5 (its row of A is B5)
            try:
                for a_i, k_i, u_i, x_i, v_i, acc_i in stages:
                    np.dot(a_i, k_i, out=du)
                    du *= h
                    np.add(u, du, out=u_i)
                    rhs_calls += 1
                    acc_i[:] = rhs(x_i, v_i, spec, sep_tol)
            except CollisionError as e:
                rejected_guard += 1
                no_growth = True
                h *= 0.5
                if h < 1e-12 * max(1.0, abs(t)):
                    gap = min_pairwise_gap(u[:n])
                    raise CollisionError(
                        f"collision approaching t~{t0 + t:.6g}: gap {gap:.3e} "
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
                rejected_error += 1
                no_growth = True
                h *= max(0.2, 0.9 * err ** -0.2)
                # finite stages whose norm overflows end at the step floor
                if h < 1e-14 * max(1.0, abs(t)) and not np.isfinite(K).all():
                    raise NonFiniteState(f"non-finite stage at t={t0 + t:.6g}", level=0)
                continue
            # outputs in (t, t_new]: from the interpolant inside, u5 at t_new;
            # rows before `filled` lie at or before t, so the search starts there
            t_new = t_end if last else t + h
            stop = bisect_right(times, t_new, filled)
            inner = stop - 1 if times[stop - 1] == t_new else stop
            if inner > filled:
                pending_S[len(pending)] = S
                pending.append((filled, inner, t, h))
            if inner < stop:
                out[inner] = u5
            filled = stop
            steps += 1
            if guarded:
                ends[n_ends] = x5
                n_ends += 1
            if last or n_ends == _GAP_BATCH or len(pending) == _GAP_BATCH:
                flush()
            t, abs_u = t_new, abs_u5
            S[0] = S[6]  # first same as last: u is now u5
            # Hairer's PI controller (HNW I, II.4): alpha = 0.17, beta = 0.04
            fac = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 10.0
            fac = min(1.0 if no_growth else 10.0, max(0.2, fac))
            no_growth = False
            err_prev = max(err, 1e-4)
            h *= fac
    except GoldgenError:
        flush()  # a collision among the pending outputs is raised in its place
        raise
    return Trajectory(out_times, out[:, :n], out[:, n:], steps=steps,
                      rejected_error=rejected_error, rejected_guard=rejected_guard,
                      rhs_calls=rhs_calls, min_gap=min_gap)
