"""Bundled verification suites.

Each suite returns a list of Check records (name, measured residual,
threshold, pass flag).  The CLI prints them; the acceptance tests assert
them.  All randomness is seeded for reproducibility.  A draw is redrawn
only when it fails a precondition of its check (a degenerate radicand, a
gap below 0.3); an engine failure on a draw ends the suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, permgen, polycore, solvers, spectra
from .dynamics import ModelSpec
from .errors import DegenerateZeros, GoldgenError
from .matching import set_distance


@dataclass
class Check:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual < self.threshold


def _random_zero_sets(rng, count):
    """Random sets of 2 to 8 points in the unit square, gaps above 1e-3."""
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 9))
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if polycore.min_pairwise_gap(z) > 1e-3:
            out.append(z)
    return out


def suite_identities() -> list[Check]:
    rng = np.random.default_rng(0)
    sets = _random_zero_sets(rng, 200)
    worst_id = worst_rr = worst_vel = 0.0
    for z in sets:
        scale = max(1.0, float(np.max(np.abs(z))) ** len(z))
        res = polycore.identity_residuals(polycore.coeffs_from_zeros(z), z)
        worst_id = max(worst_id, res["identity1"] / scale, res["identity2"] / scale)
        r = polycore.r_matrix(z, sep_tol=1e-6)
        rinv = polycore.r_matrix_inverse(z, sep_tol=1e-6)
        eye = np.eye(len(z))
        worst_rr = max(
            worst_rr,
            float(np.max(np.abs(r @ rinv - eye))),
            float(np.max(np.abs(rinv @ r - eye))),
        )
        vd = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
        back = polycore.coeffs_velocity(z, polycore.zeros_velocity(z, vd))
        worst_vel = max(worst_vel, float(np.max(np.abs(back - vd))))
    return [
        Check("identity1/identity2 residual", worst_id, 1e-9),
        Check("R * Rinv = I", worst_rr, 1e-9),
        Check("velocity transfer roundtrip", worst_vel, 1e-9),
    ]


def suite_radical_family() -> list[Check]:
    rng = np.random.default_rng(0)
    worst = [0.0, 0.0, 0.0]
    sizes_ok = True
    done = 0
    while done < 50:
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        try:
            fam = permgen.nested_radical_family(b, c, tol=1e-3)
        except DegenerateZeros:
            continue
        tree = permgen.generation_tree([b, c], depth=3)
        for lvl in (1, 2, 3):
            engine = [node.poly.coeffs for node in tree.level(lvl)]
            closed = [p.coeffs for p in fam[lvl - 1]]
            if len(engine) != len(closed):
                sizes_ok = False
                continue
            worst[lvl - 1] = max(worst[lvl - 1], set_distance(engine, closed))
        done += 1
    checks = [
        Check(f"closed-form vs engine, generation {lvl}", worst[lvl - 1], 1e-9)
        for lvl in (1, 2, 3)
    ]
    checks.append(Check("level sizes (2, 4, 8)", 0.0 if sizes_ok else 1.0, 0.5))
    return checks


def suite_goldfish() -> list[Check]:
    rng = np.random.default_rng(0)
    n = 3
    omega = 1.0
    spec = ModelSpec("iso_goldfish", omega=omega)
    worst_mid = worst_ret = 0.0
    done = 0
    while done < 20:
        x0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        v0 = 0.5 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        if polycore.min_pairwise_gap(x0) < 0.3:
            continue
        times = np.linspace(0.0, 2 * np.pi, 101)
        traj = dynamics.integrate(spec, x0, v0, times)
        alg = solvers.solve_iso_goldfish_at(x0, v0, omega, traj.times)
        worst_mid = max(worst_mid, *map(set_distance, alg, traj.x))
        # the grid ends at exactly one period
        worst_ret = max(worst_ret, set_distance(alg[-1], x0))
        done += 1
    return [
        Check("ODE vs algebraic (iso-goldfish)", worst_mid, 1e-6),
        Check("set return after one period", worst_ret, 1e-6),
        *suite_linear_seed(),
    ]


def suite_linear_seed() -> list[Check]:
    rng = np.random.default_rng(1)
    n = 3
    a = 0.3 + 0.1j
    x0 = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    v0 = 0.5 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    spec = ModelSpec("linear_seed", a=a, ia_sign=+1)
    times = np.linspace(0.0, 2 * np.pi, 101)
    traj = dynamics.integrate(spec, x0, v0, times)
    cf_x, _ = solvers.solve_linear_seed(x0, v0, a, +1, traj.times[:, None])
    worst = float(np.max(np.abs(cf_x - traj.x)))
    # observed order of the second finite difference vs the RHS
    t_probe = 1.0
    errs = []
    hs = [1e-2, 5e-3]
    for h in hs:
        xm, _ = solvers.solve_linear_seed(x0, v0, a, +1, t_probe - h)
        x, v = solvers.solve_linear_seed(x0, v0, a, +1, t_probe)
        xp, _ = solvers.solve_linear_seed(x0, v0, a, +1, t_probe + h)
        fd2 = (xp - 2 * x + xm) / h**2
        acc = dynamics.rhs_linear_seed(x, v, a, +1)
        errs.append(float(np.max(np.abs(fd2 - acc))))
    order = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    return [
        Check("linear seed: closed form vs integrator", worst, 1e-8),
        Check("linear seed: FD order >= 1.9", 1.9 - order, 0.0 + 1e-12),
    ]


def suite_generations() -> list[Check]:
    rng = np.random.default_rng(0)
    n = 3
    checks = []

    # pointwise: general generation RHS vs the simplified depth-1 form.
    # The simplified expression carries the seed force's printed (-) sign,
    # so the generation model here nests the ia_sign=-1 seed.
    worst_simpl = 0.0
    a = 0.4 - 0.2j
    gen1 = ModelSpec("linear_seed", a=a, ia_sign=-1, depth=1)
    count = 0
    while count < 100:
        nn = int(rng.integers(2, 5))
        x = rng.uniform(-1, 1, nn) + 1j * rng.uniform(-1, 1, nn)
        v = rng.uniform(-1, 1, nn) + 1j * rng.uniform(-1, 1, nn)
        if polycore.min_pairwise_gap(x) < 0.2:
            continue
        general = dynamics.rhs(x, v, gen1)
        gold = dynamics.rhs_goldfish(x, v)
        pref = polycore.prefactor(1.0 / polycore.pair_diffs(x))
        simplified = gold + (1j - a) * v - 1j * a * pref * x**nn
        worst_simpl = max(worst_simpl, float(np.max(np.abs(general - simplified))))
        count += 1
    checks.append(Check("depth-1 RHS vs simplified form", worst_simpl, 1e-10))

    # algebraic path vs direct integration, depth 1 and 2, a in {0, 0.5}
    for a_val in (0.0, 0.5):
        for depth in (1, 2):
            spec = ModelSpec("linear_seed", a=a_val, ia_sign=+1, depth=depth)
            mu = tuple([2] * depth)
            x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
            v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
            grid = np.linspace(0.0, 2 * np.pi, 241)
            path = solvers.solve_generation_path(spec, x0, v0, mu, grid)
            traj = dynamics.integrate(spec, *dynamics.build_initial_state(x0, v0, mu), grid)
            worst = max(map(set_distance, traj.x, path.values))
            checks.append(Check(f"solvability depth {depth}, a={a_val}", worst, 1e-6))

    # permutation machinery
    worst_rank = 0
    for nn in range(1, 7):
        for mu_i in range(1, math.factorial(nn) + 1):
            if permgen.perm_to_mu(permgen.mu_to_perm(mu_i, nn), nn) != mu_i:
                worst_rank += 1
    checks.append(Check("mu rank/unrank roundtrip (N<=6)", float(worst_rank), 0.5))

    bad = 0
    for nn in range(2, 5):
        z = np.array(
            [0.3 * k + 0.1j * ((-1) ** k) * k for k in range(1, nn + 1)],
            dtype=np.complex128,
        )
        tree = permgen.generation_tree(polycore.coeffs_from_zeros(z), depth=1)
        children = {
            tuple(np.round(node.poly.coeffs, 9).tolist()) for node in tree.level(1)
        }
        orderings = {
            tuple(np.round(np.array(p), 9).tolist())
            for p in itertools.permutations(tree.seed.zeros)
        }
        if children != orderings:
            bad += 1
    checks.append(Check("children cover all orderings (N<=4)", float(bad), 0.5))
    return checks


def suite_isochrony() -> list[Check]:
    n = 3
    sspec0 = ModelSpec("linear_seed", a=0.0, ia_sign=+1, depth=1)
    x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
    v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
    T = 2 * np.pi
    p_max = math.factorial(n)
    steps_per = 240
    grid = np.linspace(0.0, (p_max + 1) * T, (p_max + 1) * steps_per + 1)
    path = solvers.solve_generation_path(sspec0, x0, v0, (2,), grid)
    try:
        solvers.detect_period(path, T, p_max)
        ok = 0.0
    except GoldgenError:
        ok = 1.0
    checks = [Check(f"a=0 generation-1 period p <= {p_max}", ok, 0.5)]

    # a > 0: asymptotic isochrony.  The configuration (as a set) at t+T
    # approaches the one at t; labels may still exchange, which is the
    # p > 1 phenomenon, so the decaying observable is the set deviation.
    sspec = ModelSpec("linear_seed", a=0.5, ia_sign=+1, depth=1)
    grid = np.linspace(0.0, 6 * T, 6 * steps_per + 1)
    path = solvers.solve_generation_path(sspec, x0, v0, (2,), grid)
    periods = path.values[:-1].reshape(6, steps_per, -1)  # the frames of each period
    devs = [max(map(set_distance, periods[j + 1], periods[j])) for j in range(5)]
    decreasing = all(devs[i + 1] < devs[i] for i in range(4))
    checks.append(
        Check("a=0.5 deviation strictly decreasing", 0.0 if decreasing else 1.0, 0.5)
    )
    return checks


def suite_hermite() -> list[Check]:
    worst_eq = 0.0
    worst_spec = 0.0
    for n in range(2, 11):
        x = spectra.hermite_zeros(n)
        worst_eq = max(worst_eq, spectra.equilibrium_residual(x))
        lam = np.linalg.eigvals(spectra.m_matrix(x))
        worst_spec = max(
            worst_spec, float(np.max(np.abs(np.sort(lam.real) - np.arange(n))))
        )
        worst_spec = max(worst_spec, float(np.max(np.abs(lam.imag))))
    checks = [
        Check("Hermite equilibrium residual", worst_eq, 1e-9),
        Check("spectrum of M = {0..N-1}", worst_spec, 1e-6),
    ]

    # all first-generation branches share the spectrum (exhaustive N <= 4)
    worst_branch = 0.0
    for n in (2, 3, 4):
        x = spectra.hermite_zeros(n)
        base = np.sort(np.linalg.eigvals(spectra.m_matrix(x)).real)
        for mu1 in range(1, math.factorial(n) + 1):
            m1 = spectra.similarity_m1(x, permgen.lift(x[None], mu1)[0][0])
            lam = np.linalg.eigvals(m1)
            worst_branch = max(
                worst_branch,
                float(np.max(np.abs(np.sort(lam.real) - base))),
                float(np.max(np.abs(lam.imag))),
            )
    checks.append(Check("branch spectra equal (N<=4)", worst_branch, 1e-6))

    # FD Jacobian of the equilibrium flow = i (I + M)
    worst_jac = 0.0
    for n in range(2, 9):
        x = spectra.hermite_zeros(n)
        jac = spectra.jacobian_fd(spectra.equilibrium_flow, x)
        target = 1j * (np.eye(n) + spectra.m_matrix(x))
        worst_jac = max(worst_jac, float(np.max(np.abs(jac - target))))
    checks.append(Check("FD Jacobian = i(I+M)", worst_jac, 1e-5))
    return checks


SUITES = {
    "identities": suite_identities,
    "radical-family": suite_radical_family,
    "goldfish": suite_goldfish,
    "generations": suite_generations,
    "isochrony": suite_isochrony,
    "hermite": suite_hermite,
}
