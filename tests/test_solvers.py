import numpy as np
import pytest

from goldgen import dynamics as dyn
from goldgen import polycore as pc
from goldgen import solvers as sv
from goldgen.errors import (
    DegenerateModes,
    DegenerateZeros,
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

    def test_first_frame_checked_against_configured_sep_tol(self, monkeypatch):
        # two zeros 5e-9 apart drifting by 1e-10 per frame: degenerate under
        # the default sep_tol 1e-8, a regular path under a configured 1e-10.
        # Swapping the pair changes the squared cost by ~1e-17, below the
        # absolute ambiguity threshold, so that threshold is lowered too
        monkeypatch.setattr(sv, "AMBIGUITY_TOL", 1e-20)
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

    def test_nonuniform_grid_rejected(self):
        ts = np.array([0.0, 0.1, 0.5, 0.6])
        vals = np.zeros((4, 1), dtype=np.complex128)
        with pytest.raises(ValueError):
            sv.detect_period(sv.LabeledPath(ts, vals), T=0.2, p_max=3)

    def test_incommensurate_period_rejected(self):
        path = self._cos_path(1, 1.5)
        with pytest.raises(ValueError):
            sv.detect_period(path, T=1.511, p_max=3)


def _tracked(frames):
    """track_zeros' labelled values, or the type and message it raised."""
    try:
        return sv.track_zeros(frames).values
    except TrackingAmbiguity as e:
        return type(e), str(e)


def _forced_assignment(monkeypatch, frames):
    """The same call with every frame left uncertified, so each one goes
    through optimal assignment and its second-best check."""
    real = sv._certify

    def uncertified(clouds):
        return real(clouds)[0], np.zeros(len(clouds) - 1, dtype=bool)

    with monkeypatch.context() as m:
        m.setattr(sv, "_certify", uncertified)
        return _tracked(frames)


def _shuffled_path(rng, n, frames, step):
    """Zeros moving on smooth curves, each frame in random order."""
    ts = np.arange(frames) * step
    base = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    speed = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    z = base + 0.5 * np.exp(1j * ts[:, None]) * speed + 0.1 * ts[:, None] * speed
    return [row[rng.permutation(n)] for row in z]


class TestCertifiedTracking:
    def test_matches_forced_assignment(self, monkeypatch):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 7):
            for step in (0.01, 0.05, 0.2):
                frames = _shuffled_path(rng, n, 80, step)
                got = _tracked(frames)
                want = _forced_assignment(monkeypatch, frames)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("frames", [
        # antipodal pair turning by pi/2 per frame: the matchings tie
        [np.array([np.exp(1j * t), -np.exp(1j * t)]) for t in (0.0, 0.3, 0.3 + np.pi / 2)],
        # a jump past half the gap
        [np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.array([1.0j, -1.0j])],
        # near tie within the half-gap limit: the two pairings of {1, -1}
        # with {e + iy, -e - iy} differ in cost by 8e = 8e-13
        [np.array([1.0, -1.0]), np.array([1e-13 + 3e-7j, -1e-13 - 3e-7j])],
    ])
    def test_same_error_as_forced_assignment(self, monkeypatch, frames):
        got = _tracked(frames)
        assert isinstance(got, tuple) and got[0] is TrackingAmbiguity
        assert got == _forced_assignment(monkeypatch, frames)

    def test_near_tie_is_an_ambiguity(self):
        frames = [np.array([1.0, -1.0]), np.array([1e-13 + 3e-7j, -1e-13 - 3e-7j])]
        with pytest.raises(TrackingAmbiguity, match="ambiguous matching"):
            sv.track_zeros(frames)

    def test_uncertified_frame_still_accepted(self, monkeypatch):
        # moving one zero by delta leaves a second-best margin of 8 + 4 delta
        # while the certificate proves only 8 - 8 delta: with an ambiguity
        # threshold of 5 the frame needs the assignment and passes it
        frames = [np.array([1.0, -1.0]), np.array([1.05, -1.0]), np.array([1.1, -1.0])]
        calls = []
        real = sv._assign
        monkeypatch.setattr(sv, "_assign", lambda *a: calls.append(a[2]) or real(*a))
        monkeypatch.setattr(sv, "AMBIGUITY_TOL", 5.0)
        got = _tracked(frames)
        assert calls == [1, 2]
        np.testing.assert_array_equal(got, _forced_assignment(monkeypatch, frames))

    def test_generation_path_frames_certified(self, monkeypatch):
        calls = []
        real = sv._assign
        monkeypatch.setattr(sv, "_assign", lambda *a: calls.append(a[2]) or real(*a))
        grid = np.linspace(0.0, 2 * np.pi, 241)
        path = sv.solve_generation_path(
            dyn.ModelSpec("linear_seed", a=0.5, depth=2), X0, V0, (2, 5), grid
        )
        assert path.values.shape == (241, 3)
        assert len(calls) <= 0.01 * 2 * 240

    def test_failed_frame_raises_its_error(self):
        good = pc.coeffs_from_zeros([1.0, -1.0]).coeffs
        huge = [1e200, 1e300]  # residual cannot reach root_tol * scale
        with pytest.raises(RootSolveFailed):
            sv._solved(np.array([good, huge, good]), pc.Tolerances())

    def test_overflowing_costs_are_an_ambiguity(self):
        # squared distances of zeros near 1e200 overflow to inf
        prev = np.array([1e200, -1e200])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrackingAmbiguity, match="non-finite"):
                sv._assign(prev, prev[::-1], 1)
