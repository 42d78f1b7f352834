import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from goldgen import dynamics as dyn
from goldgen import polycore as pc
from goldgen import solvers as sv
from goldgen.errors import (
    DegenerateModes,
    DegenerateZeros,
    GoldgenError,
    NoPeriodFound,
    NonFiniteState,
    RootSolveFailed,
    TrackingAmbiguity,
)
from goldgen.matching import set_distance

X0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
V0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])


class TestLinearSeed:
    def test_modes_are_i_and_minus_a(self):
        a = 0.5
        x, _ = sv.solve_linear_seed([1.0], [1j], a, +1, 2.0)
        np.testing.assert_allclose(x, [np.exp(2j)], atol=1e-12)
        x, _ = sv.solve_linear_seed([1.0], [-a], a, +1, 2.0)
        np.testing.assert_allclose(x, [np.exp(-2 * a)], atol=1e-12)

    def test_initial_conditions(self):
        x, v = sv.solve_linear_seed(X0, V0, 0.3 - 0.2j, +1, 0.0)
        np.testing.assert_allclose(x, X0)
        np.testing.assert_allclose(v, V0)

    def test_satisfies_ode(self):
        a, t, h = 0.4 + 0.1j, 1.3, 1e-5
        xm = sv.solve_linear_seed(X0, V0, a, +1, t - h)[0]
        x0 = sv.solve_linear_seed(X0, V0, a, +1, t)[0]
        xp = sv.solve_linear_seed(X0, V0, a, +1, t + h)[0]
        acc = (xp - 2 * x0 + xm) / h**2
        vel = (xp - xm) / (2 * h)
        np.testing.assert_allclose(acc, (1j - a) * vel + 1j * a * x0, atol=1e-5)

    def test_degenerate_modes(self):
        # ia_sign=+1 modes are i and -a: confluent when a = -i
        with pytest.raises(DegenerateModes):
            sv.solve_linear_seed([1.0], [0.0], -1j, +1, 1.0)

    def test_overflow_is_an_error(self):
        # the damped mode e^{-a t} grows like e^{800} backwards in time
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                sv.solve_linear_seed(X0, V0, 0.5, +1, np.array([[0.0], [-1600.0]]))

    def test_both_signs_solve_their_ode(self):
        a, t, h = 0.5, 0.7, 1e-5
        for sgn in (+1, -1):
            xm = sv.solve_linear_seed(X0, V0, a, sgn, t - h)[0]
            x0 = sv.solve_linear_seed(X0, V0, a, sgn, t)[0]
            xp = sv.solve_linear_seed(X0, V0, a, sgn, t + h)[0]
            acc = (xp - 2 * x0 + xm) / h**2
            vel = (xp - xm) / (2 * h)
            np.testing.assert_allclose(
                acc, (1j - a) * vel + sgn * 1j * a * x0, atol=1e-5
            )


class TestIsoGoldfishClosedForm:
    def test_t0_returns_initial_set(self):
        out = sv.solve_iso_goldfish_at(X0, V0, 1.0, 0.0)
        np.testing.assert_allclose(out, X0[pc.canonical_order(X0)])

    def test_period_recurrence(self):
        out = sv.solve_iso_goldfish_at(X0, V0, 1.0, 2 * np.pi)
        np.testing.assert_allclose(out, X0[pc.canonical_order(X0)], atol=1e-10)

    def test_near_period_is_solved_not_snapped(self):
        # 5e-13 past one period, fast zeros have moved about 1.35e-11 from
        # X0 along their returned velocities 100 V0: solved, not set to X0
        dt = 5e-13
        out = sv.solve_iso_goldfish_at(X0, 100 * V0, 1.0, 2 * np.pi + dt)
        assert set_distance(out, X0) > 1e-11
        assert set_distance(out, X0 + dt * 100 * V0) < 1e-13

    def test_matches_ode_omega1(self):
        spec = dyn.ModelSpec("iso_goldfish", omega=1.0)
        grid = np.linspace(0.0, 2 * np.pi, 41)
        traj = dyn.integrate(spec, X0, V0, grid)
        for x, t in zip(traj.x, grid):
            alg = sv.solve_iso_goldfish_at(X0, V0, 1.0, t)
            assert set_distance(alg, x) < 1e-7

    def test_omega0_limit_is_goldfish(self):
        spec = dyn.ModelSpec("goldfish")
        grid = np.linspace(0.0, 0.8, 9)
        traj = dyn.integrate(spec, X0, V0, grid)
        for x, t in zip(traj.x, grid):
            alg = sv.solve_iso_goldfish_at(X0, V0, 0.0, t)
            assert set_distance(alg, x) < 1e-7

    def test_zero_velocity_is_stationary(self):
        out = sv.solve_iso_goldfish_at(X0, np.zeros(3), 1.0, 1.234)
        assert set_distance(out, X0) < 1e-10


class TestTrackZeros:
    def test_labels_follow_rotation(self):
        ts = np.linspace(0.0, 0.5, 21)
        frames = [np.array([np.exp(1j * t), -np.exp(1j * t)]) for t in ts]
        path = sv.track_zeros(frames, times=ts)
        np.testing.assert_allclose(path.values[:, 0], -np.exp(1j * ts))
        np.testing.assert_allclose(path.values[:, 1], np.exp(1j * ts))

    def test_coarse_grid_ambiguous(self):
        # antipodal pair rotating by pi/2 per frame: matchings tie exactly
        ts = np.array([0.0, np.pi / 2, np.pi])
        frames = [np.array([np.exp(1j * t), -np.exp(1j * t)]) for t in ts]
        with pytest.raises(TrackingAmbiguity):
            sv.track_zeros(frames, times=ts)

    def test_large_jump_rejected(self):
        frames = [np.array([1.0, -1.0]), np.array([1.0j, -1.0j])]
        with pytest.raises(TrackingAmbiguity):
            sv.track_zeros(frames)

    def test_needs_two_frames(self):
        with pytest.raises(TrackingAmbiguity):
            sv.track_zeros([np.array([1.0, -1.0])])

    def test_first_frame_checked_against_configured_sep_tol(self):
        # two zeros 5e-9 apart drifting by 1e-10 per frame: degenerate under
        # the default sep_tol 1e-8, a regular path under a configured 1e-10
        ts = np.arange(5.0)
        frames = np.array([0.5, 0.5 + 5e-9, -0.7 + 0.2j]) + 1e-10 * ts[:, None]
        with pytest.raises(DegenerateZeros, match="sep_tol 1.000e-08"):
            sv.track_zeros(frames, ts)
        path = sv.track_zeros(frames, ts, pc.Tolerances(sep_tol=1e-10))
        np.testing.assert_array_equal(path.values, frames[:, [2, 0, 1]])


class TestGenerationPath:
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_matches_ode(self, depth, a):
        spec = dyn.ModelSpec("linear_seed", a=a, depth=depth)
        mu = (2,) * depth
        grid = np.linspace(0.0, 2 * np.pi, 121)
        path = sv.solve_generation_path(spec, X0, V0, mu, grid)
        traj = dyn.integrate(spec, *dyn.build_initial_state(X0, V0, mu), grid)
        dev = max(map(set_distance, path.values, traj.x))
        assert dev < 1e-6

    def test_initial_frame_consistent_with_lift(self):
        spec = dyn.ModelSpec("linear_seed", a=0.5, depth=1)
        grid = np.linspace(0.0, 0.5, 11)
        path = sv.solve_generation_path(spec, X0, V0, (3,), grid)
        x, _ = dyn.build_initial_state(X0, V0, (3,))
        assert set_distance(path.values[0], x) < 1e-10
        # seed zeros tied in real part: the closed form at time 0 moves the
        # second by 3.5e-17, which must not reorder the coefficients
        x0, v0 = np.array([0.04 + 0.5j, 0.04]), np.array([0.0, 1j])
        path = sv.solve_generation_path(spec, x0, v0, (1,), grid)
        x, _ = dyn.build_initial_state(x0, v0, (1,))
        assert set_distance(path.values[0], x) < 1e-10

    def test_frame0_is_the_lifted_state(self):
        # real seeds: the level-1 zeros hold a conjugate pair tied in real
        # part, so any rounding difference between the two routes can swap
        # the pair in the canonical order and change the level-2 polynomial
        rng = np.random.default_rng(33)
        grid = np.array([0.0, 1e-3])
        specs = [dyn.ModelSpec(kind, omega=1.0, a=0.5, depth=depth)
                 for kind in ("linear_seed", "iso_goldfish") for depth in (1, 2, 3)]
        compared = 0
        for _ in range(10):
            x0 = np.round(rng.uniform(-1, 1, 3), 2)
            v0 = np.round(rng.uniform(-1, 1, 3), 2)
            for spec in specs:
                mu = tuple(rng.integers(1, 7, spec.depth))
                try:
                    x, _ = dyn.build_initial_state(x0, v0, mu)
                except GoldgenError:
                    continue
                path = sv.solve_generation_path(spec, x0, v0, mu, grid)
                assert np.array_equal(path.values[0], x), (x0, v0, spec, mu)
                compared += 1
        assert compared >= 50

    def test_iso_goldfish_seed_supported(self):
        seed_spec = dyn.ModelSpec("iso_goldfish", omega=1.0)
        grid = np.linspace(0.0, 1.0, 41)
        path = sv.solve_generation_path(
            dyn.ModelSpec("iso_goldfish", omega=1.0, depth=1), X0, V0, (1,), grid)
        assert path.values.shape == (41, 3)
        # labels start as the components of x0
        np.testing.assert_array_equal(
            sv.solve_generation_path(seed_spec, X0, V0, (), grid).values[0], X0)

    @pytest.mark.parametrize("depth, mu", [(2, (2,)), (0, (2,)), (1, ())])
    def test_mu_must_match_depth(self, depth, mu):
        # one level per mu entry: a depth-2 model with one mu entry would
        # silently return a depth-1 path
        spec = dyn.ModelSpec("linear_seed", a=0.5, depth=depth)
        with pytest.raises(ValueError, match="mu entries"):
            sv.solve_generation_path(spec, X0, V0, mu, np.linspace(0.0, 0.5, 11))


class TestDetectPeriod:
    def _cos_path(self, p, T, n_periods=8, pts_per=40):
        ts = np.linspace(0.0, n_periods * T, n_periods * pts_per + 1)
        vals = np.stack(
            [np.cos(2 * np.pi * ts / (p * T)),
             np.sin(2 * np.pi * ts / (p * T))], axis=1
        ).astype(np.complex128)
        return sv.LabeledPath(ts, vals)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_finds_multiplier(self, p):
        rep = sv.detect_period(self._cos_path(p, 1.5), T=1.5, p_max=6)
        assert rep.multiplier == p
        assert rep.residual < 1e-9

    def test_no_period_raises(self):
        ts = np.linspace(0.0, 10.0, 401)
        vals = np.exp(ts)[:, None].astype(np.complex128)
        with pytest.raises(NoPeriodFound):
            sv.detect_period(sv.LabeledPath(ts, vals), T=1.0, p_max=6)

    def test_two_rows_needed(self):
        path = sv.LabeledPath([0.0], np.zeros((1, 1)))
        with pytest.raises(ValueError, match="at least two rows"):
            sv.detect_period(path, T=1.0, p_max=3)

    def test_path_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sv.LabeledPath(np.arange(3.0), np.zeros((2, 1)))

    def test_nonuniform_grid_rejected(self):
        ts = np.array([0.0, 0.1, 0.5, 0.6])
        vals = np.zeros((4, 1), dtype=np.complex128)
        with pytest.raises(ValueError):
            sv.detect_period(sv.LabeledPath(ts, vals), T=0.2, p_max=3)

    def test_incommensurate_period_rejected(self):
        path = self._cos_path(1, 1.5)
        with pytest.raises(ValueError):
            sv.detect_period(path, T=1.511, p_max=3)


# antipodal pair turning by pi/2 per frame: the two pairings tie exactly
TIE = [np.array([np.exp(1j * t), -np.exp(1j * t)]) for t in (0.0, 0.3, 0.3 + np.pi / 2)]
# a jump past half the gap
JUMP = [np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.array([1.0j, -1.0j])]
# near tie within the half-gap limit: the two pairings of {1, -1} with
# {e + iy, -e - iy} differ in total squared cost by 8e = 8e-13
NEAR_TIE = [np.array([1.0, -1.0]), np.array([1e-13 + 3e-7j, -1e-13 - 3e-7j])]


def _lsa_labels(frames):
    """Reference labelling: canonical first frame, then per frame the
    sum-optimal (scipy LSA) pairing of squared distances, and per step the
    largest move over the previous frame's smallest gap."""
    clouds = np.asarray(frames, dtype=np.complex128)
    out = np.empty_like(clouds)
    out[0] = clouds[0][pc.canonical_order(clouds[0])]
    ratios = []
    for k in range(1, len(clouds)):
        rows, cols = linear_sum_assignment(np.abs(out[k - 1][:, None] - clouds[k]) ** 2)
        out[k, rows] = clouds[k][cols]
        ratios.append(np.abs(out[k] - out[k - 1]).max() / pc.min_pairwise_gap(out[k - 1]))
    return out, np.array(ratios)


def _against_lsa(frames):
    """Check track_zeros against the LSA reference: it returns the LSA
    labels when every LSA step moves each zero under half the gap, and
    otherwise refuses exactly the steps where some zero moves at least
    that far.  Returns whether it refused."""
    want, ratios = _lsa_labels(frames)
    far = np.flatnonzero(ratios >= sv._HALF_GAP)
    try:
        got = sv.track_zeros(frames).values
    except TrackingAmbiguity as e:
        np.testing.assert_array_equal(e.intervals, far)
        assert far.size
        return True
    assert not far.size
    np.testing.assert_array_equal(got, want)
    return False


def _shuffled_path(rng, n, frames, step):
    """Zeros moving on smooth curves, each frame in random order."""
    ts = np.arange(frames) * step
    base = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    speed = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    z = base + 0.5 * np.exp(1j * ts[:, None]) * speed + 0.1 * ts[:, None] * speed
    return [row[rng.permutation(n)] for row in z]


class TestCertifiedTracking:
    def test_matches_forced_assignment(self):
        rng = np.random.default_rng(17)
        refused = [
            _against_lsa(_shuffled_path(rng, n, 80, step))
            for n in (1, 2, 3, 5, 7)
            for step in (0.01, 0.05, 0.2)
        ]
        assert any(refused) and not all(refused)

    @pytest.mark.parametrize("frames", [TIE, JUMP, NEAR_TIE])
    def test_same_error_as_forced_assignment(self, frames):
        # the tie and the jump move a zero past half the gap and are
        # refused; the near tie keeps the LSA labels
        assert _against_lsa(frames) == (frames is not NEAR_TIE)

    def test_near_tie_is_an_ambiguity(self):
        # no longer one: each zero moves 0.5 - 2.75e-14 of the gap, so the
        # nearest pairing is the unique optimum however close the costs
        path = sv.track_zeros(NEAR_TIE)
        np.testing.assert_array_equal(
            path.values, [[-1.0, 1.0], [-1e-13 - 3e-7j, 1e-13 + 3e-7j]])

    def test_uncertified_frame_still_accepted(self):
        # one zero moving by 0.05 per frame: the cost margin the old
        # certificate needed is not needed, the geometric one holds
        frames = [np.array([1.0, -1.0]), np.array([1.05, -1.0]), np.array([1.1, -1.0])]
        _, ratio = sv._certify(np.array(frames))
        np.testing.assert_allclose(ratio, [0.025, 0.05 / 2.05])
        assert _against_lsa(frames) is False
        np.testing.assert_array_equal(
            sv.track_zeros(frames).values, [[-1.0, 1.0], [-1.0, 1.05], [-1.0, 1.1]])

    def test_generation_path_frames_certified(self, monkeypatch):
        # the README path: every level tracks the grid itself, no refinement
        calls = []
        real = sv.track_zeros
        monkeypatch.setattr(
            sv, "track_zeros", lambda f, t, tol: calls.append(len(t)) or real(f, t, tol))
        grid = np.linspace(0.0, 2 * np.pi, 241)
        path = sv.solve_generation_path(
            dyn.ModelSpec("linear_seed", a=0.5, depth=2), X0, V0, (2, 5), grid
        )
        assert path.values.shape == (241, 3)
        assert calls == [241, 241]

    def test_failed_frame_raises_its_error(self):
        good = pc.coeffs_from_zeros([1.0, -1.0])
        huge = [1e200, 1e300]  # residual cannot reach root_tol * scale
        double = [-2.0, 1.0]  # (z - 1)^2
        rows, tol = np.array([good, huge, double]), pc.Tolerances(sep_tol=1e-6)
        with pytest.raises(RootSolveFailed):
            pc.zeros_from_coeffs(rows, tol)
        with pytest.raises(DegenerateZeros):
            pc.zeros_from_coeffs(rows[::-1], tol)

    def test_overflowing_costs_are_an_ambiguity(self):
        # zeros near 1e200 track (no squared costs to overflow); a frame
        # holding inf or NaN is refused
        big = np.array([1e200, -1e200 + 1e199j])
        path = sv.track_zeros([big, big * (1 + 1e-3j), big * (1 + 2e-3j)])
        np.testing.assert_array_equal(path.values[:, 0].real < 0, True)
        for bad in (np.inf, np.nan, complex(np.inf, np.nan)):
            with pytest.raises(TrackingAmbiguity) as exc:
                sv.track_zeros([big, np.array([bad, -1e200]), big])
            np.testing.assert_array_equal(exc.value.intervals, [0, 1])


def _nearest_labels(frames):
    """Per-frame reference for the label scan: canonical first frame, then
    each label moves to the first nearest zero of the next frame; and the
    steps where the largest move is not under _HALF_GAP of the previous
    frame's smallest gap (NaN included)."""
    clouds = np.asarray(frames, dtype=np.complex128)
    n = clouds.shape[1]
    idx = pc.canonical_order(clouds[0])
    out, refused = [clouds[0][idx]], []
    for k in range(1, len(clouds)):
        prev, nxt = clouds[k - 1], clouds[k]
        with np.errstate(all="ignore"):
            dist = np.abs(prev[:, None] - nxt[None, :])
            gaps = np.abs(prev[:, None] - prev[None, :])[~np.eye(n, dtype=bool)]
            ratio = dist.min(axis=1).max() / (gaps.min() if n > 1 else np.inf)
        if not ratio < sv._HALF_GAP:
            refused.append(k - 1)
        idx = dist.argmin(axis=1)[idx]
        out.append(nxt[idx])
    return np.array(out), np.array(refused, dtype=int)


class TestLabelScan:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 300), st.floats(0.001, 0.3),
           st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(0, 299), st.integers(0, 5),
                              st.sampled_from([np.inf, np.nan, complex(np.inf, np.nan)])),
                    max_size=2))
    def test_matches_per_frame_reference(self, n, frames, step, seed, bad):
        # smooth paths in shuffled order, some moving too far in a step for
        # the certificate, some with inf or NaN zeros after the first frame
        rng = np.random.default_rng(seed)
        path = np.array(_shuffled_path(rng, n, frames, step))
        for k, i, value in bad:
            path[1 + k % (frames - 1), i % n] = value
        want, refused = _nearest_labels(path)
        if refused.size:
            with pytest.raises(TrackingAmbiguity) as exc:
                sv.track_zeros(path)
            np.testing.assert_array_equal(exc.value.intervals, refused)
        else:
            np.testing.assert_array_equal(sv.track_zeros(path).values, want)


# a bench-style input (linear seed, a = 0, N = 4, mu = (20,)) whose level-1
# zeros move 0.61 of their smallest gap in one step of the 241-point grid
SWEPT_X0 = np.array([-0.2785747051566412 + 0.5003234256719118j,
                     0.05658909205151419 - 0.6026742044113065j,
                     -0.4766188493070871 - 0.650266589475081j,
                     0.9394484242814685 + 0.478127007912986j])
SWEPT_V0 = np.array([-0.0684929991032448 - 0.28091060670263834j,
                     0.1472875665731083 - 0.008269894051938297j,
                     -0.215730276592797 + 0.0812262265508056j,
                     0.14476646013906685 - 0.19914035889348106j])


def _labelled_deviation(path, traj):
    """Largest distance between the two labelled paths, with the labels
    matched by nearest zero at the first time."""
    labels = [int(np.argmin(np.abs(traj.x[0] - z))) for z in path.values[0]]
    return np.abs(path.values - traj.x[:, labels]).max()


class TestRefinedGenerationPath:
    def test_refused_input_now_solves(self, monkeypatch):
        spec = dyn.ModelSpec("linear_seed", a=0.0, depth=1)
        grid = np.linspace(0.0, 2 * np.pi, 241)
        tracked = []
        real = sv.track_zeros
        monkeypatch.setattr(
            sv, "track_zeros", lambda f, t, tol: tracked.append(len(t)) or real(f, t, tol))
        path = sv.solve_generation_path(spec, SWEPT_X0, SWEPT_V0, (20,), grid)
        assert max(tracked) > 241  # the grid alone does not resolve it
        traj = dyn.integrate(spec, *dyn.build_initial_state(SWEPT_X0, SWEPT_V0, (20,)), grid)
        np.testing.assert_array_equal(path.times, grid)
        assert _labelled_deviation(path, traj) < 1e-6

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.sampled_from([{"kind": "linear_seed", "a": 0.0},
                              {"kind": "linear_seed", "a": 0.5},
                              {"kind": "iso_goldfish", "omega": 1.0}]),
        x=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2, max_size=3),
        v=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3, max_size=3),
        mu=st.integers(1, 6),
        frames=st.integers(2, 6),
    )
    def test_solve_agrees_with_simulate(self, seed, x, v, mu, frames):
        # coarse grids, so that some inputs need refinement; where simulate
        # succeeds, solve agrees or refuses a step it cannot resolve
        spec = dyn.ModelSpec(**seed, depth=1)
        x, v = np.array(x), np.array(v[: len(x)])
        mu = (min(mu, math.factorial(len(x))),)
        grid = np.linspace(0.0, 1.5, frames)
        try:
            traj = dyn.integrate(spec, *dyn.build_initial_state(x, v, mu), grid)
        except GoldgenError:
            return
        try:
            path = sv.solve_generation_path(spec, x, v, mu, grid)
        except TrackingAmbiguity as e:
            assert "2^-8" in str(e)
            return
        assert max(map(set_distance, path.values, traj.x)) < 1e-6

    @pytest.mark.parametrize("t0, rate", [(0.0, 2.0), (1e13, 40.0)])
    def test_head_on_collision_is_refused(self, t0, rate):
        # y(t) = z^2 - (1 - rate t): the zeros +-sqrt(1 - rate t) meet at
        # t = 1/rate, so no labelled path runs through it, however fine the
        # grid.  At t0 = 1e13 the steps are a few ulps of t wide: halving
        # reaches one ulp before 2^-8 of the step, and must stop there
        spec = dyn.ModelSpec("iso_goldfish", omega=0.0)
        grid = t0 + np.array([0.0, 0.7, 1.4]) / rate
        with pytest.raises(GoldgenError) as exc:
            sv.solve_generation_path(spec, [1.0, -1.0], [-rate / 2, rate / 2], (), grid)
        assert "2^-8" in str(exc.value)
