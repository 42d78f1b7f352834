import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldgen import dynamics as dyn
from goldgen import polycore as pc
from goldgen.errors import CollisionError, DegenerateZeros, GoldgenError


def random_state(rng, n, gap=0.3):
    while True:
        x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if pc.min_pairwise_gap(x) > gap:
            break
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return dyn.PhaseState(x, v)


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dyn.ModelSpec("bogus")

    def test_generation_needs_seed(self):
        with pytest.raises(ValueError):
            dyn.ModelSpec("generation", depth=1)
        with pytest.raises(ValueError):
            dyn.ModelSpec("generation", depth=0, seed=dyn.ModelSpec("goldfish"))

    def test_nested_generation_rejected(self):
        inner = dyn.ModelSpec("generation", depth=1, seed=dyn.ModelSpec("goldfish"))
        with pytest.raises(ValueError):
            dyn.ModelSpec("generation", depth=1, seed=inner)

    def test_ia_sign_validated(self):
        with pytest.raises(ValueError):
            dyn.ModelSpec("linear_seed", ia_sign=2)


class TestSeedRHS:
    def test_goldfish_two_body(self):
        s = dyn.PhaseState([1, -1], [1, 1])
        np.testing.assert_allclose(dyn.rhs_goldfish(s), [1, -1])

    def test_goldfish_zero_velocity(self):
        s = dyn.PhaseState([1, -1, 1j], [0, 0, 0])
        np.testing.assert_allclose(dyn.rhs_goldfish(s), 0)

    def test_iso_reduces_at_omega0(self):
        rng = np.random.default_rng(0)
        s = random_state(rng, 4)
        np.testing.assert_allclose(
            dyn.rhs_iso_goldfish(s, 0.0), dyn.rhs_goldfish(s)
        )

    def test_iso_extra_term(self):
        rng = np.random.default_rng(1)
        s = random_state(rng, 3)
        np.testing.assert_allclose(
            dyn.rhs_iso_goldfish(s, 2.5) - dyn.rhs_goldfish(s), 2.5j * s.v
        )

    def test_linear_seed_signs(self):
        s = dyn.PhaseState([1.0], [1.0])
        a = 0.5
        plus = dyn.rhs_linear_seed(s, a, +1)
        minus = dyn.rhs_linear_seed(s, a, -1)
        np.testing.assert_allclose(plus, [(1j - a) + 1j * a])
        np.testing.assert_allclose(minus, [(1j - a) - 1j * a])

    def test_collision_guard(self):
        s = dyn.PhaseState([0.0, 1e-12], [1.0, 1.0])
        with pytest.raises(CollisionError):
            dyn.rhs_goldfish(s)


class TestGenerationRHS:
    def test_depth1_iso_matches_transfer(self):
        # build x from a coefficient state, compare rhs against the
        # explicit transfer pipeline
        rng = np.random.default_rng(2)
        y_state = random_state(rng, 3)
        x = pc.zeros_from_coeffs(pc.MonicPoly(y_state.x)).zeros
        v = pc.zeros_velocity(x, y_state.v)
        spec = dyn.ModelSpec(
            "generation", depth=1, seed=dyn.ModelSpec("iso_goldfish", omega=1.0)
        )
        got = dyn.rhs(dyn.PhaseState(x, v), spec)
        y_ddot = dyn.rhs_iso_goldfish(y_state, 1.0)
        want = pc.zeros_acceleration(x, v, y_ddot)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_depth2_equals_nesting_by_hand(self):
        rng = np.random.default_rng(3)
        s = random_state(rng, 3)
        spec2 = dyn.ModelSpec(
            "generation", depth=2, seed=dyn.ModelSpec("goldfish")
        )
        got = dyn.rhs(s, spec2)
        # manual two-level unwind
        signs = (-1.0) ** np.arange(1, 4)
        y = signs * pc.elem_sym_all(s.x)
        ydot = pc.coeffs_velocity(s.x, s.v)
        spec1 = dyn.ModelSpec(
            "generation", depth=1, seed=dyn.ModelSpec("goldfish")
        )
        yddot = dyn.rhs(dyn.PhaseState(y, ydot), spec1)
        want = pc.zeros_acceleration(s.x, s.v, yddot)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_collision_reports_level(self):
        # coefficients coincide while zeros stay separated
        x = pc.zeros_from_coeffs(pc.MonicPoly([0.5, 0.5 + 1e-13])).zeros
        spec = dyn.ModelSpec(
            "generation", depth=1, seed=dyn.ModelSpec("goldfish")
        )
        with pytest.raises(CollisionError) as exc:
            dyn.rhs(dyn.PhaseState(x, [1.0, 1.0]), spec)
        assert exc.value.level == 1


def reference_seed(x, v, seed):
    """The seed forces written out."""
    if seed.kind == "linear_seed":
        return (1j - seed.a) * v + seed.ia_sign * (1j * seed.a * x)
    pc.check_distinct(x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)
    acc = 2.0 * v * np.sum(v[None, :] / diff, axis=1)
    if seed.kind == "iso_goldfish":
        acc = acc + 1j * seed.omega * v
    return acc


def reference_generation(x, v, seed, depth):
    """The generation RHS composed from the public polycore transfer
    functions, one level at a time."""
    if depth == 0:
        return reference_seed(x, v, seed)
    signs = (-1.0) ** np.arange(1, len(x) + 1)
    y = signs * pc.elem_sym_all(x)
    y_dot = pc.coeffs_velocity(x, v)
    y_ddot = reference_generation(y, y_dot, seed, depth - 1)
    return pc.zeros_acceleration(x, v, y_ddot)


unit_complex = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                  allow_infinity=False)


class TestGenerationKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 3),
        st.sampled_from(dyn.SEED_KINDS),
        st.floats(0.0, 3.0),
        unit_complex,
        st.sampled_from([1, -1]),
        st.data(),
    )
    def test_rhs_equals_transfer_composition(self, n, depth, kind, omega, a,
                                             ia_sign, data):
        x = np.array(data.draw(st.lists(unit_complex, min_size=n, max_size=n)))
        v = np.array(data.draw(st.lists(unit_complex, min_size=n, max_size=n)))
        seed = dyn.ModelSpec(kind, omega=omega, a=a, ia_sign=ia_sign)
        spec = dyn.ModelSpec("generation", depth=depth, seed=seed)
        try:
            want = reference_generation(x, v, seed, depth)
        except (GoldgenError, ValueError):
            # some level collides: the kernel refuses the state as well
            with pytest.raises((GoldgenError, ValueError)):
                dyn.rhs(dyn.PhaseState(x, v), spec)
            return
        got = dyn.rhs(dyn.PhaseState(x, v), spec)
        assert np.array_equal(got, want, equal_nan=True)

    def test_configured_sep_tol_reaches_every_level(self):
        # two zeros 5e-9 apart: a collision under the default sep_tol, a
        # regular state under a configured 1e-10
        s = dyn.PhaseState([0.5, 0.5 + 5e-9, -0.7 + 0.2j], [-0.1, 0.1, 0.2j])
        spec = dyn.ModelSpec(
            "generation", depth=1, seed=dyn.ModelSpec("linear_seed", a=0.5)
        )
        with pytest.raises(CollisionError) as exc:
            dyn.rhs(s, spec)
        assert exc.value.level == 0
        assert np.all(np.isfinite(dyn.rhs(s, spec, sep_tol=1e-10)))
        traj = dyn.integrate(spec, s, 1e-6, out_times=np.linspace(0, 1e-6, 5),
                             opts=dyn.IntegratorOptions(sep_tol=1e-10))
        assert traj.steps > 0
        assert pc.min_pairwise_gap(traj.x[-1]) > 5e-9

    def test_configured_sep_tol_reaches_inner_levels(self):
        # well-separated zeros whose coefficients (level 1 of a depth-2
        # model) lie 5e-9 apart
        y = np.array([0.5, 0.5 + 5e-9, -0.7 + 0.2j])
        x = pc.zeros_from_coeffs(pc.MonicPoly(y)).zeros
        assert pc.min_pairwise_gap(x) > 1.0
        s = dyn.PhaseState(x, [-0.1, 0.1, 0.2j])
        spec = dyn.ModelSpec(
            "generation", depth=2, seed=dyn.ModelSpec("linear_seed", a=0.5)
        )
        with pytest.raises(CollisionError) as exc:
            dyn.rhs(s, spec)
        assert exc.value.level == 1
        assert np.all(np.isfinite(dyn.rhs(s, spec, sep_tol=1e-10)))


class TestBuildInitialState:
    def test_depth1_positions_are_roots(self):
        seed = dyn.PhaseState([0.6 + 0.1j, -0.7 - 0.2j], [0.1, -0.3j])
        lifted = dyn.build_initial_state(seed, (1,))
        # coefficient vector is the sorted seed positions
        y = np.sort_complex(seed.x)
        want = pc.zeros_from_coeffs(pc.MonicPoly(y)).zeros
        np.testing.assert_allclose(np.sort_complex(lifted.x),
                                   np.sort_complex(want), atol=1e-10)

    def test_velocity_transfer_consistent(self):
        seed = dyn.PhaseState([0.6 + 0.1j, -0.7 - 0.2j, 0.2 + 0.9j],
                              [0.1, -0.3j, 0.2 + 0.1j])
        lifted = dyn.build_initial_state(seed, (3,))
        # invert: coefficients of lifted.x should move at the permuted
        # seed velocity
        ydot = pc.coeffs_velocity(lifted.x, lifted.v)
        order = np.lexsort((seed.x.imag, seed.x.real))
        from goldgen.permgen import apply_mu
        want = apply_mu(3, seed.v[order])
        np.testing.assert_allclose(ydot, want, atol=1e-10)

    def test_root_extraction_uses_sep_tol(self):
        # mu=2 makes the coefficients (0, -6.25e-18): zeros +-2.5e-9
        seed = dyn.PhaseState([0.0, -6.25e-18], [0.1, 0.2])
        with pytest.raises(DegenerateZeros):
            dyn.build_initial_state(seed, (2,))
        lifted = dyn.build_initial_state(seed, (2,), sep_tol=1e-10)
        assert pc.min_pairwise_gap(lifted.x) > 1e-10

    def test_two_levels_compose(self):
        seed = dyn.PhaseState([0.6 + 0.1j, -0.7 - 0.2j], [0.1, -0.3j])
        once = dyn.build_initial_state(seed, (2,))
        twice_direct = dyn.build_initial_state(seed, (2, 1))
        twice_stepwise = dyn.build_initial_state(once, (1,))
        np.testing.assert_allclose(twice_direct.x, twice_stepwise.x, atol=1e-10)
        np.testing.assert_allclose(twice_direct.v, twice_stepwise.v, atol=1e-10)


class TestIntegrator:
    def test_linear_seed_against_closed_form(self):
        from goldgen.solvers import solve_linear_seed

        s0 = dyn.PhaseState([0.9 + 0.1j, -0.2 - 0.5j], [0.1 - 0.2j, 0.25 + 0.1j])
        spec = dyn.ModelSpec("linear_seed", a=0.5)
        grid = np.linspace(0.0, 3.0, 31)
        traj = dyn.integrate(spec, s0, 3.0, out_times=grid)
        ref = solve_linear_seed(s0.x, s0.v, 0.5, +1, grid[:, None])
        np.testing.assert_allclose(traj.x, ref.x, atol=1e-8)
        np.testing.assert_allclose(traj.v, ref.v, atol=1e-8)

    def test_output_grid_respected(self):
        s0 = dyn.PhaseState([1.0, -1.0], [0.1, -0.1])
        grid = np.array([0.0, 0.25, 1.0, 1.5])
        traj = dyn.integrate(dyn.ModelSpec("goldfish"), s0, 1.5, out_times=grid)
        assert list(traj.times) == list(grid)
        assert traj.x.shape == traj.v.shape == (4, 2)
        assert traj.steps > 0

    def test_grid_must_start_at_t0(self):
        s0 = dyn.PhaseState([1.0, -1.0], [0.1, -0.1])
        with pytest.raises(ValueError):
            dyn.integrate(dyn.ModelSpec("goldfish"), s0, 1.0,
                          out_times=[0.5, 1.0])

    def test_grid_must_increase(self):
        s0 = dyn.PhaseState([1.0, -1.0], [0.1, -0.1])
        for grid in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                dyn.integrate(dyn.ModelSpec("goldfish"), s0, 1.0, out_times=grid)

    def test_grid_must_end_at_t1(self):
        s0 = dyn.PhaseState([1.0, -1.0], [0.1, -0.1])
        with pytest.raises(ValueError, match="end at t1"):
            dyn.integrate(dyn.ModelSpec("goldfish"), s0, 1.0,
                          out_times=[0.0, 0.5, 0.9])

    def test_iso_goldfish_periodicity(self):
        # omega=2: base period pi; labeled positions recur up to a permutation,
        # and the coefficient path recurs exactly
        s0 = dyn.PhaseState([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j],
                            [0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        spec = dyn.ModelSpec("iso_goldfish", omega=2.0)
        T = np.pi
        traj = dyn.integrate(spec, s0, T, out_times=[0.0, T / 2, T])
        start = pc.coeffs_from_zeros(s0.x).coeffs
        end = pc.coeffs_from_zeros(traj.x[-1]).coeffs
        np.testing.assert_allclose(end, start, atol=1e-7)

    def test_head_on_collision_detected(self):
        # velocities diverge approaching the collision, so the run aborts
        # either on the gap guard or on step-size collapse
        from goldgen.errors import StepSizeUnderflow

        s0 = dyn.PhaseState([1.0, -1.0], [-1.0, 1.0])
        with pytest.raises((CollisionError, StepSizeUnderflow)):
            dyn.integrate(dyn.ModelSpec("goldfish"), s0, 5.0,
                          out_times=np.linspace(0, 5, 11))

    def test_min_gap_tracked(self):
        s0 = dyn.PhaseState([1.0, -1.0], [0.1j, -0.1j])
        traj = dyn.integrate(dyn.ModelSpec("goldfish"), s0, 1.0,
                             out_times=np.linspace(0, 1, 11))
        assert 0 < traj.min_gap <= 2.0


def readme_model():
    """The README's example: N=3, depth 2 over the damped linear seed."""
    seed = dyn.ModelSpec("linear_seed", a=0.5)
    spec = dyn.ModelSpec("generation", depth=2, seed=seed)
    s0 = dyn.build_initial_state(
        dyn.PhaseState([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j],
                       [0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j]),
        (2, 2),
    )
    return spec, s0, 0.02618 * np.arange(241)


class TestDenseOutput:
    def test_grid_independence(self):
        # the steps depend on t1 only; outputs come from the interpolant
        spec, s0, grid = readme_model()
        fine = dyn.integrate(spec, s0, grid[-1], out_times=grid)
        ends = dyn.integrate(spec, s0, grid[-1], out_times=grid[[0, -1]])
        assert (fine.steps, fine.rejected, fine.rhs_calls) == (
            ends.steps, ends.rejected, ends.rhs_calls)
        assert np.array_equal(fine.x[-1], ends.x[-1])
        assert np.array_equal(fine.v[-1], ends.v[-1])

    def test_step_count_ceiling(self):
        # 173 steps when this ceiling was set; the clipped-step integrator
        # with the mistuned controller took 433
        spec, s0, grid = readme_model()
        traj = dyn.integrate(spec, s0, grid[-1], out_times=grid)
        assert traj.steps <= 1.2 * 173
        assert len(traj.x) == len(grid)

    def test_linear_seed_every_frame(self):
        from goldgen.solvers import solve_linear_seed

        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        grid = np.linspace(0.0, 2 * np.pi, 241)
        traj = dyn.integrate(dyn.ModelSpec("linear_seed", a=0.5),
                             dyn.PhaseState(x0, v0), grid[-1], out_times=grid)
        ref = solve_linear_seed(x0, v0, 0.5, +1, grid[:, None])
        np.testing.assert_allclose(traj.x, ref.x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(traj.v, ref.v, rtol=0, atol=1e-8)

    def test_iso_goldfish_every_frame(self):
        from goldgen.matching import set_distance
        from goldgen.solvers import solve_iso_goldfish_at

        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        grid = np.linspace(0.0, 2 * np.pi, 241)
        traj = dyn.integrate(dyn.ModelSpec("iso_goldfish", omega=1.0),
                             dyn.PhaseState(x0, v0), grid[-1], out_times=grid)
        assert list(traj.times) == list(grid)
        for alg, x in zip(solve_iso_goldfish_at(x0, v0, 1.0, traj.times), traj.x):
            assert set_distance(alg, x) < 1e-8

    @pytest.mark.parametrize("grid", [np.linspace(0.0, 2.0, 401),
                                      np.array([0.0, 0.7, 2.0])])
    def test_every_row_written(self, grid):
        # the outputs are rows of one preallocated array: on the dense grid
        # each step fills a block of interpolated rows, on the sparse one a
        # single interior row, and either way every row must be written
        from goldgen.solvers import solve_linear_seed

        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        traj = dyn.integrate(dyn.ModelSpec("linear_seed", a=0.5),
                             dyn.PhaseState(x0, v0), 2.0, out_times=grid)
        if len(grid) > 3:
            assert traj.steps * 4 < len(grid)
        ref = solve_linear_seed(x0, v0, 0.5, +1, grid[:, None])
        assert traj.x.shape == traj.v.shape == (len(grid), 3)
        np.testing.assert_allclose(traj.x, ref.x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(traj.v, ref.v, rtol=0, atol=1e-8)

    def test_min_gap_covers_every_written_state(self):
        spec, s0, grid = readme_model()
        opts = dyn.IntegratorOptions()
        traj = dyn.integrate(spec, s0, grid[-1], out_times=grid, opts=opts)
        assert opts.sep_tol < traj.min_gap <= pc.min_pairwise_gap(traj.x).min()

    def test_output_state_guard(self, monkeypatch):
        # an interpolated output at or below sep_tol aborts the run: force
        # only the batched gap of the interpolated outputs to zero
        gap = dyn.min_pairwise_gap

        def outputs_collide(xs):
            return np.zeros(len(xs)) if np.ndim(xs) == 2 else gap(xs)

        monkeypatch.setattr(dyn, "min_pairwise_gap", outputs_collide)
        s0 = dyn.PhaseState([1.0, -1.0], [0.1, -0.1])
        with pytest.raises(CollisionError, match="collision at t~0.25"):
            dyn.integrate(dyn.ModelSpec("goldfish"), s0, 1.0,
                          out_times=[0.0, 0.25, 1.0])


class TestIntegratorCounters:
    def run_counted(self, monkeypatch, *args, **kwargs):
        calls = []
        rhs = dyn.rhs
        monkeypatch.setattr(dyn, "rhs", lambda *a: calls.append(1) or rhs(*a))
        traj = dyn.integrate(*args, **kwargs)
        assert traj.rhs_calls == len(calls)
        assert traj.rejected == traj.rejected_error + traj.rejected_guard
        return traj

    def test_error_rejections(self, monkeypatch):
        # a first step of 1 fails the error test; six RHS calls per attempt
        # plus the first stage of the first step
        s0 = dyn.PhaseState([1.0, -1.0], [-1.0 + 0.5j, 1.0])
        traj = self.run_counted(monkeypatch, dyn.ModelSpec("goldfish"), s0, 2.0,
                                out_times=np.linspace(0, 2, 11),
                                opts=dyn.IntegratorOptions(first_step=1.0))
        assert traj.rejected_error > 0 and traj.rejected_guard == 0
        assert traj.rhs_calls == 6 * (traj.steps + traj.rejected_error) + 1

    def test_guard_rejection_mid_stage(self, monkeypatch):
        # a first step of 5 puts the second stage 0.005 from a collision
        # (<= sep_tol 0.006); the guard rejects it after one RHS call
        s0 = dyn.PhaseState([1.0 + 0.005j, -1.0], [-1.0, 1.0])
        traj = self.run_counted(
            monkeypatch, dyn.ModelSpec("goldfish"), s0, 5.0,
            out_times=np.linspace(0, 5, 11),
            opts=dyn.IntegratorOptions(sep_tol=0.006, first_step=5.0))
        assert traj.rejected_guard == 1
        assert traj.rhs_calls == 6 * (traj.steps + traj.rejected_error) + 1 + 1
        assert traj.min_gap > 10 * 0.006

