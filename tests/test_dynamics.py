import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldgen import dynamics as dyn
from goldgen import polycore as pc
from goldgen.errors import (
    CollisionError,
    DegenerateZeros,
    GoldgenError,
    NonFiniteState,
    StepSizeUnderflow,
)


GOLDFISH_PAIR = ([1.0, -1.0], [0.1, -0.1])


def random_state(rng, n, gap=0.3):
    while True:
        x = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if pc.min_pairwise_gap(x) > gap:
            break
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return x, v


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dyn.ModelSpec("bogus")

    def test_generation_needs_seed(self):
        # a generation is named by its seed kind; "generation" alone is not one
        with pytest.raises(ValueError, match="unknown model kind"):
            dyn.ModelSpec("generation", depth=1)
        spec = dyn.ModelSpec("iso_goldfish", omega=1.0, depth=1)
        assert spec.kind == "iso_goldfish" and spec.depth == 1

    def test_nested_generation_rejected(self):
        inner = dyn.ModelSpec("goldfish", depth=1)
        with pytest.raises(ValueError, match="unknown model kind"):
            dyn.ModelSpec(inner, depth=1)

    def test_generation_is_a_depth_not_a_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            dyn.ModelSpec("generation", depth=1)
        with pytest.raises(ValueError, match="depth"):
            dyn.ModelSpec("goldfish", depth=-1)
        assert dyn.ModelSpec("goldfish", depth=2).depth == 2

    def test_ia_sign_validated(self):
        with pytest.raises(ValueError):
            dyn.ModelSpec("linear_seed", ia_sign=2)


class TestSeedRHS:
    def test_goldfish_two_body(self):
        x, v = np.array([1, -1], dtype=complex), np.array([1, 1], dtype=complex)
        np.testing.assert_allclose(dyn.rhs_goldfish(x, v), [1, -1])

    def test_goldfish_zero_velocity(self):
        x, v = np.array([1, -1, 1j]), np.zeros(3, dtype=complex)
        np.testing.assert_allclose(dyn.rhs_goldfish(x, v), 0)

    def test_iso_reduces_at_omega0(self):
        rng = np.random.default_rng(0)
        x, v = random_state(rng, 4)
        np.testing.assert_allclose(
            dyn.rhs_iso_goldfish(x, v, 0.0), dyn.rhs_goldfish(x, v)
        )

    def test_iso_extra_term(self):
        rng = np.random.default_rng(1)
        x, v = random_state(rng, 3)
        np.testing.assert_allclose(
            dyn.rhs_iso_goldfish(x, v, 2.5) - dyn.rhs_goldfish(x, v), 2.5j * v
        )

    def test_linear_seed_signs(self):
        x, v = np.array([1.0 + 0j]), np.array([1.0 + 0j])
        a = 0.5
        plus = dyn.rhs_linear_seed(x, v, a, +1)
        minus = dyn.rhs_linear_seed(x, v, a, -1)
        np.testing.assert_allclose(plus, [(1j - a) + 1j * a])
        np.testing.assert_allclose(minus, [(1j - a) - 1j * a])

    def test_collision_guard(self):
        with pytest.raises(CollisionError):
            dyn.rhs_goldfish(np.array([0.0, 1e-12]), np.array([1.0, 1.0]))


class TestGenerationRHS:
    def test_depth1_iso_matches_transfer(self):
        # build x from a coefficient state, compare rhs against the
        # explicit transfer pipeline
        rng = np.random.default_rng(2)
        y, y_dot = random_state(rng, 3)
        x = pc.zeros_from_coeffs(y)
        v = pc.zeros_velocity(x, y_dot)
        spec = dyn.ModelSpec("iso_goldfish", omega=1.0, depth=1)
        got = dyn.rhs(x, v, spec)
        y_ddot = dyn.rhs_iso_goldfish(y, y_dot, 1.0)
        want = pc.zeros_acceleration(x, v, y_ddot)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_depth2_equals_nesting_by_hand(self):
        rng = np.random.default_rng(3)
        x, v = random_state(rng, 3)
        spec2 = dyn.ModelSpec("goldfish", depth=2)
        got = dyn.rhs(x, v, spec2)
        # manual two-level unwind
        signs = (-1.0) ** np.arange(1, 4)
        y = signs * pc.elem_sym_all(x)
        ydot = pc.coeffs_velocity(x, v)
        spec1 = dyn.ModelSpec("goldfish", depth=1)
        yddot = dyn.rhs(y, ydot, spec1)
        want = pc.zeros_acceleration(x, v, yddot)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_collision_reports_level(self):
        # coefficients coincide while zeros stay separated
        x = pc.zeros_from_coeffs([0.5, 0.5 + 1e-13])
        spec = dyn.ModelSpec("goldfish", depth=1)
        with pytest.raises(CollisionError) as exc:
            dyn.rhs(x, np.array([1.0, 1.0]), spec)
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
        spec = dyn.ModelSpec(kind, omega=omega, a=a, ia_sign=ia_sign, depth=depth)
        try:
            want = reference_generation(x, v, spec, depth)
        except (GoldgenError, ValueError):
            # some level collides: the kernel refuses the state as well
            with pytest.raises((GoldgenError, ValueError)):
                dyn.rhs(x, v, spec)
            return
        got = dyn.rhs(x, v, spec)
        assert np.array_equal(got, want, equal_nan=True)

    def test_configured_sep_tol_reaches_every_level(self):
        # two zeros 5e-9 apart: a collision under the default sep_tol, a
        # regular state under a configured 1e-10
        x = np.array([0.5, 0.5 + 5e-9, -0.7 + 0.2j])
        v = np.array([-0.1, 0.1, 0.2j])
        spec = dyn.ModelSpec("linear_seed", a=0.5, depth=1)
        with pytest.raises(CollisionError) as exc:
            dyn.rhs(x, v, spec)
        assert exc.value.level == 0
        assert np.all(np.isfinite(dyn.rhs(x, v, spec, sep_tol=1e-10)))
        traj = dyn.integrate(spec, x, v, np.linspace(0, 1e-6, 5),
                             pc.Tolerances(sep_tol=1e-10))
        assert traj.steps > 0
        assert pc.min_pairwise_gap(traj.x[-1]) > 5e-9

    def test_overflow_is_a_goldgen_error(self):
        # finite zeros near 1e200 whose coefficient y_2 = -1e400 overflows
        spec = dyn.ModelSpec("linear_seed", a=0.5, depth=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                dyn.rhs(np.array([1e200, -1e200 + 0j]), np.array([1.0, 1.0 + 0j]), spec)

    def test_level_1_overflow_is_a_goldgen_error(self):
        # zeros 1e200 and 1e100 have finite coefficients (-1e200, 1e300),
        # whose own product, level 1's sigma_2, overflows
        x, v = np.array([1e200, 1e100 + 0j]), np.array([1.0, 1.0 + 0j])
        assert np.all(np.isfinite(pc.coeff_motion(x, v)))
        spec = dyn.ModelSpec("linear_seed", a=0.5, depth=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                dyn.rhs(x, v, spec)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(1, 3),
        st.sampled_from(dyn.SEED_KINDS),
        st.sampled_from(["x", "v"]),
        st.sampled_from(["real", "imag"]),
        st.sampled_from([np.nan, np.inf, -np.inf]),
        st.data(),
    )
    def test_non_finite_state_is_refused(self, n, depth, kind, where, part,
                                         bad, data):
        # the one finiteness check per level, on the coefficients, must
        # catch a non-finite entry of the integrated state
        # the n-th roots of unity: far apart, so no collision guard refuses them
        x = np.exp(2j * np.pi * np.arange(n) / n)
        v = np.array(data.draw(st.lists(unit_complex, min_size=n, max_size=n)))
        k = data.draw(st.integers(0, n - 1))
        state = x if where == "x" else v
        z = state[k]
        state[k] = complex(bad, z.imag) if part == "real" else complex(z.real, bad)
        spec = dyn.ModelSpec(kind, omega=1.0, a=0.5, depth=depth)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                dyn.rhs(x, v, spec)

    def test_configured_sep_tol_reaches_inner_levels(self):
        # well-separated zeros whose coefficients (level 1 of a depth-2
        # model) lie 5e-9 apart
        y = np.array([0.5, 0.5 + 5e-9, -0.7 + 0.2j])
        x = pc.zeros_from_coeffs(y)
        assert pc.min_pairwise_gap(x) > 1.0
        v = np.array([-0.1, 0.1, 0.2j])
        spec = dyn.ModelSpec("linear_seed", a=0.5, depth=2)
        with pytest.raises(CollisionError) as exc:
            dyn.rhs(x, v, spec)
        assert exc.value.level == 1
        assert np.all(np.isfinite(dyn.rhs(x, v, spec, sep_tol=1e-10)))


class TestBuildInitialState:
    def test_depth1_positions_are_roots(self):
        x0 = np.array([0.6 + 0.1j, -0.7 - 0.2j])
        x, _ = dyn.build_initial_state(x0, np.array([0.1, -0.3j]), (1,))
        # coefficient vector is the sorted seed positions
        want = pc.zeros_from_coeffs(np.sort_complex(x0))
        np.testing.assert_allclose(np.sort_complex(x),
                                   np.sort_complex(want), atol=1e-10)

    def test_velocity_transfer_consistent(self):
        x0 = np.array([0.6 + 0.1j, -0.7 - 0.2j, 0.2 + 0.9j])
        v0 = np.array([0.1, -0.3j, 0.2 + 0.1j])
        x, v = dyn.build_initial_state(x0, v0, (3,))
        # invert: coefficients of the lifted x should move at the permuted
        # seed velocity
        ydot = pc.coeffs_velocity(x, v)
        order = np.lexsort((x0.imag, x0.real))
        want = v0[order][[1, 0, 2]]  # mu = 3: the permutation (2, 1, 3)
        np.testing.assert_allclose(ydot, want, atol=1e-10)

    def test_root_extraction_uses_sep_tol(self):
        # mu=2 makes the coefficients (0, -6.25e-18): zeros +-2.5e-9
        seed = ([0.0, -6.25e-18], [0.1, 0.2])
        with pytest.raises(DegenerateZeros):
            dyn.build_initial_state(*seed, (2,))
        x, _ = dyn.build_initial_state(*seed, (2,), pc.Tolerances(sep_tol=1e-10))
        assert pc.min_pairwise_gap(x) > 1e-10

    def test_two_levels_compose(self):
        seed = ([0.6 + 0.1j, -0.7 - 0.2j], [0.1, -0.3j])
        once = dyn.build_initial_state(*seed, (2,))
        twice_direct = dyn.build_initial_state(*seed, (2, 1))
        twice_stepwise = dyn.build_initial_state(*once, (1,))
        np.testing.assert_allclose(twice_direct[0], twice_stepwise[0], atol=1e-10)
        np.testing.assert_allclose(twice_direct[1], twice_stepwise[1], atol=1e-10)


class TestIntegrator:
    def test_linear_seed_against_closed_form(self):
        from goldgen.solvers import solve_linear_seed

        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j])
        spec = dyn.ModelSpec("linear_seed", a=0.5)
        grid = np.linspace(0.0, 3.0, 31)
        traj = dyn.integrate(spec, x0, v0, grid)
        ref_x, ref_v = solve_linear_seed(x0, v0, 0.5, +1, grid[:, None])
        np.testing.assert_allclose(traj.x, ref_x, atol=1e-8)
        np.testing.assert_allclose(traj.v, ref_v, atol=1e-8)

    def test_output_grid_respected(self):
        grid = np.array([0.0, 0.25, 1.0, 1.5])
        traj = dyn.integrate(dyn.ModelSpec("goldfish"), *GOLDFISH_PAIR, grid)
        assert list(traj.times) == list(grid)
        assert traj.x.shape == traj.v.shape == (4, 2)
        assert traj.steps > 0

    def test_grid_must_increase(self):
        for grid in ([0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                dyn.integrate(dyn.ModelSpec("goldfish"), *GOLDFISH_PAIR, grid)

    def test_grid_carries_time(self):
        # every model is autonomous: the state (x0, v0) at out_times[0]
        # evolves as it would from time 0
        x0, v0 = GOLDFISH_PAIR
        spec = dyn.ModelSpec("linear_seed", a=0.5)
        later = dyn.integrate(spec, x0, v0, 1.0 + np.array([0.0, 0.25, 1.5]))
        early = dyn.integrate(spec, x0, v0, np.array([0.0, 0.25, 1.5]))
        assert list(later.times) == [1.0, 1.25, 2.5]
        np.testing.assert_allclose(later.x, early.x, rtol=0, atol=1e-12)

    def test_iso_goldfish_periodicity(self):
        # omega=2: base period pi; labeled positions recur up to a permutation,
        # and the coefficient path recurs exactly
        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        spec = dyn.ModelSpec("iso_goldfish", omega=2.0)
        T = np.pi
        traj = dyn.integrate(spec, x0, v0, [0.0, T / 2, T])
        start = pc.coeffs_from_zeros(x0)
        end = pc.coeffs_from_zeros(traj.x[-1])
        np.testing.assert_allclose(end, start, atol=1e-7)

    def test_head_on_collision_detected(self):
        # velocities diverge approaching the collision, so the run aborts
        # either on the gap guard or on step-size collapse
        with pytest.raises((CollisionError, StepSizeUnderflow)):
            dyn.integrate(dyn.ModelSpec("goldfish"), [1.0, -1.0], [-1.0, 1.0],
                          np.linspace(0, 5, 11))

    def test_collapse_keeps_the_stage_level(self, monkeypatch):
        # every stage after the first collides at level 1: the guard halves
        # the step until it collapses, and the final error keeps that level
        rhs = dyn.rhs
        calls = []

        def inner_collision(*args):
            if calls:
                raise CollisionError("inner collision", level=1)
            calls.append(1)
            return rhs(*args)

        monkeypatch.setattr(dyn, "rhs", inner_collision)
        with pytest.raises(CollisionError, match="step size collapsed") as exc:
            dyn.integrate(dyn.ModelSpec("goldfish"), [1.0, -1.0], [-1.0, 1.0], [0.0, 1.0])
        assert exc.value.level == 1

    def test_close_approach_passes_the_guard(self):
        # the smallest gap, 0.141, is far above sep_tol: the run takes the
        # same steps whether sep_tol is 0.015 or 0.013
        runs = [dyn.integrate(dyn.ModelSpec("goldfish"), [1.0 + 0.01j, -1.0],
                              [-1.0, 1.0], np.linspace(0, 1, 11),
                              pc.Tolerances(sep_tol=sep_tol))
                for sep_tol in (0.015, 0.013)]
        for traj in runs:
            assert traj.rejected_guard == 0
            assert 0.141 < traj.min_gap < 0.142
        assert runs[0].steps == runs[1].steps
        assert np.array_equal(runs[0].x, runs[1].x)

    def test_non_finite_error_norm_rejects(self):
        # the first stages overflow to inf, so the error norm is NaN: each
        # attempt is rejected until the step size underflows, and the run
        # then names the non-finite state, not the step size
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState, match="at t=0"):
                dyn.integrate(dyn.ModelSpec("linear_seed", a=0.5), [1.0, -1.0],
                              [1e308, 1e308], np.linspace(0, 1, 5))

    def test_step_budget_ends_the_run(self, monkeypatch):
        # this run takes 58 steps to t = 1; a budget of 5 stops it
        monkeypatch.setattr(dyn, "_MAX_STEPS", 5)
        with pytest.raises(StepSizeUnderflow, match="step budget exhausted"):
            dyn.integrate(dyn.ModelSpec("linear_seed", a=0.5), [0.9 + 0.1j, -0.2 - 0.5j],
                          [0.1 - 0.2j, 0.25 + 0.1j], np.linspace(0, 1, 5),
                          pc.Tolerances(ode_rel=1e-12, ode_abs=1e-12))

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("kind", dyn.SEED_KINDS)
    @pytest.mark.parametrize("where", ["x0", "v0"])
    def test_non_finite_initial_state_raises_at_once(self, monkeypatch, depth,
                                                     kind, where):
        # refused before the first right-hand side, at every depth; at
        # depth 0 it once ended in StepSizeUnderflow at t=0
        def no_rhs(*args):
            raise AssertionError("rhs called")

        monkeypatch.setattr(dyn, "rhs", no_rhs)
        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        (x0 if where == "x0" else v0)[1] = np.nan
        spec = dyn.ModelSpec(kind, omega=1.0, a=0.5, depth=depth)
        with pytest.raises(NonFiniteState):
            dyn.integrate(spec, x0, v0, [0.0, 1.0])

    def test_min_gap_tracked(self):
        traj = dyn.integrate(dyn.ModelSpec("goldfish"), [1.0, -1.0],
                             [0.1j, -0.1j], np.linspace(0, 1, 11))
        assert 0 < traj.min_gap <= 2.0


def readme_model():
    """The README's example: N=3, depth 2 over the damped linear seed."""
    spec = dyn.ModelSpec("linear_seed", a=0.5, depth=2)
    s0 = dyn.build_initial_state(
        [0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j],
        [0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j],
        (2, 2),
    )
    return spec, s0, 0.02618 * np.arange(241)


class TestDenseOutput:
    def test_grid_independence(self):
        # the steps depend on t1 only; outputs come from the interpolant
        spec, s0, grid = readme_model()
        fine = dyn.integrate(spec, *s0, grid)
        ends = dyn.integrate(spec, *s0, grid[[0, -1]])
        assert (fine.steps, fine.rejected, fine.rhs_calls) == (
            ends.steps, ends.rejected, ends.rhs_calls)
        assert np.array_equal(fine.x[-1], ends.x[-1])
        assert np.array_equal(fine.v[-1], ends.v[-1])

    def test_step_count_ceiling(self):
        # 173 steps when this ceiling was set; the clipped-step integrator
        # with the mistuned controller took 433
        spec, s0, grid = readme_model()
        traj = dyn.integrate(spec, *s0, grid)
        assert traj.steps <= 1.2 * 173
        assert len(traj.x) == len(grid)

    def test_linear_seed_every_frame(self):
        from goldgen.solvers import solve_linear_seed

        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        grid = np.linspace(0.0, 2 * np.pi, 241)
        traj = dyn.integrate(dyn.ModelSpec("linear_seed", a=0.5), x0, v0, grid)
        ref_x, ref_v = solve_linear_seed(x0, v0, 0.5, +1, grid[:, None])
        np.testing.assert_allclose(traj.x, ref_x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(traj.v, ref_v, rtol=0, atol=1e-8)

    def test_iso_goldfish_every_frame(self):
        from goldgen.matching import set_distance
        from goldgen.solvers import solve_iso_goldfish_at

        x0 = np.array([0.9 + 0.1j, -0.2 - 0.5j, -0.8 + 0.6j])
        v0 = np.array([0.1 - 0.2j, 0.25 + 0.1j, -0.15 + 0.05j])
        grid = np.linspace(0.0, 2 * np.pi, 241)
        traj = dyn.integrate(dyn.ModelSpec("iso_goldfish", omega=1.0), x0, v0, grid)
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
        traj = dyn.integrate(dyn.ModelSpec("linear_seed", a=0.5), x0, v0, grid)
        if len(grid) > 3:
            assert traj.steps * 4 < len(grid)
        ref_x, ref_v = solve_linear_seed(x0, v0, 0.5, +1, grid[:, None])
        assert traj.x.shape == traj.v.shape == (len(grid), 3)
        np.testing.assert_allclose(traj.x, ref_x, rtol=0, atol=1e-8)
        np.testing.assert_allclose(traj.v, ref_v, rtol=0, atol=1e-8)

    def test_min_gap_covers_every_written_state(self):
        spec, s0, grid = readme_model()
        tol = pc.Tolerances()
        traj = dyn.integrate(spec, *s0, grid, tol)
        assert tol.sep_tol < traj.min_gap <= pc.min_pairwise_gap(traj.x).min()

    def test_output_state_guard(self, monkeypatch):
        # an interpolated output at or below sep_tol aborts the run: force
        # only the batched gap of the interpolated outputs to zero
        gap = dyn.min_pairwise_gap

        def outputs_collide(xs):
            return np.zeros(len(xs)) if np.ndim(xs) == 2 else gap(xs)

        monkeypatch.setattr(dyn, "min_pairwise_gap", outputs_collide)
        with pytest.raises(CollisionError, match="collision at t~0.25"):
            dyn.integrate(dyn.ModelSpec("goldfish"), *GOLDFISH_PAIR,
                          [0.0, 0.25, 1.0])


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
        monkeypatch.setattr(dyn, "_FIRST_STEP", 1.0)
        traj = self.run_counted(monkeypatch, dyn.ModelSpec("goldfish"),
                                [1.0, -1.0], [-1.0 + 0.5j, 1.0],
                                np.linspace(0, 2, 11))
        assert traj.rejected_error > 0 and traj.rejected_guard == 0
        assert traj.rhs_calls == 6 * (traj.steps + traj.rejected_error) + 1

    def test_guard_rejection_mid_stage(self, monkeypatch):
        # a first step of 5 puts the second stage 0.005 from a collision
        # (<= sep_tol 0.006); the guard rejects it after one RHS call
        monkeypatch.setattr(dyn, "_FIRST_STEP", 5.0)
        traj = self.run_counted(
            monkeypatch, dyn.ModelSpec("goldfish"), [1.0 + 0.005j, -1.0], [-1.0, 1.0],
            np.linspace(0, 5, 11), pc.Tolerances(sep_tol=0.006))
        assert traj.rejected_guard == 1
        assert traj.rhs_calls == 6 * (traj.steps + traj.rejected_error) + 1 + 1
        assert traj.min_gap > 10 * 0.006

