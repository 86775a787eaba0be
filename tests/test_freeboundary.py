import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congested_ns import discrete_ops, freeboundary, profiles
from congested_ns.core import PhysicalParams, ValidationError, make_grid
from congested_ns.freeboundary import (
    DenominatorTooSmall,
    HypothesisViolated,
    _first_guess,
    apply_boundary_map,
    assemble_solution,
    boundary_velocity,
    invariant_set_check,
    make_path,
    path_h1_norm,
    picard_solve,
    reconstruction_residuals,
    validate_hypotheses,
)
from congested_ns.parabolic import regularized_log, step_u, step_v, truncation_mollifier
from congested_ns.perturbations import initial_data_fields
from congested_ns.profiles import traveling_wave, wave_u, wave_v


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(50.0, 513)


@pytest.fixture(scope="module")
def wave_init(params, small_grid):
    v0, u0 = initial_data_fields("none", 0.0, 2.0, 0.5, params, small_grid)
    return validate_hypotheses(v0, u0, small_grid, params)


@pytest.fixture(scope="module")
def bump_init(params, small_grid):
    v0, u0 = initial_data_fields("gaussian_bump", 1e-3, 2.0, 0.5, params, small_grid)
    return validate_hypotheses(v0, u0, small_grid, params)


class TestValidateHypotheses:
    def test_wave_data_passes_everything(self, wave_init):
        assert all(item["pass"] for item in wave_init.hypothesis_report.values())

    def test_wave_compatibility_residual_tiny(self, wave_init):
        residual = wave_init.hypothesis_report["H3: compatibility bracket at 0"]["residual"]
        assert abs(residual) <= 1e-10

    def test_wave_effective_velocity_tail_vanishes(self, wave_init, small_grid):
        # for exact wave data the transported velocity is the constant limit
        assert np.max(np.abs(wave_init.w0 - 0.0)) <= 1e-12
        assert np.max(np.abs(wave_init.W0)) <= 1e-12

    def test_wave_compat_speed_exact(self, wave_init, params):
        assert wave_init.compat_speed == pytest.approx(params.s, abs=1e-12)

    def test_negative_interface_slope_rejected(self, params, small_grid, wave):
        g = make_grid(50.0, 513)
        prof = traveling_wave(params, g)
        v0 = prof.v_bar - 2.0 * g.x * np.exp(-g.x)  # negative slope at 0+
        v0[0] = 1.0
        u0 = prof.u_bar.copy()
        with pytest.raises(HypothesisViolated, match="H4"):
            validate_hypotheses(v0, u0, g, params)

    def test_wrong_endpoint_rejected(self, params, small_grid):
        prof = traveling_wave(params, small_grid)
        v0 = prof.v_bar + 0.05
        with pytest.raises(HypothesisViolated, match="H1"):
            validate_hypotheses(v0, prof.u_bar, small_grid, params)

    def test_nonstrict_mode_reports_without_raising(self, params, small_grid):
        prof = traveling_wave(params, small_grid)
        v0 = prof.v_bar + 0.05
        init = validate_hypotheses(v0, prof.u_bar, small_grid, params, strict=False)
        assert not init.hypothesis_report["H1: congested endpoint values"]["pass"]

    def test_integrated_tails_anchor_at_right_end(self, bump_init):
        assert bump_init.V0[-1] == 0.0
        assert bump_init.W0[-1] == 0.0

    def test_source_is_mollified_slope_of_w0(self, small_grid, bump_init, wave_init):
        expected = truncation_mollifier(small_grid) * bump_init.dxw0
        assert bump_init.source.tobytes() == expected.tobytes()
        assert bump_init.source_eval(small_grid.x).tobytes() == expected.tobytes()
        # the exact wave transports no source, so no evaluator is built for it
        assert not np.any(wave_init.source)
        assert wave_init.source_eval is None

    def test_w0_at_array_equals_pointwise_floats(self, small_grid, bump_init):
        xi = np.concatenate((small_grid.x[::37], [0.0, 1.2345, small_grid.R,
                                                  small_grid.R + 0.5, 3.0 * small_grid.R]))
        batch = bump_init.w0_at(xi)
        assert batch.shape == xi.shape
        singles = [bump_init.w0_at(float(p)) for p in xi]
        assert all(type(v) is float for v in singles)
        assert batch.tobytes() == np.array(singles).tobytes()

    def test_perturbed_data_keeps_compatibility(self, params, small_grid, bump_init):
        # triple-zero envelope leaves the wave's bracket intact
        residual = bump_init.hypothesis_report["H3: compatibility bracket at 0"]["residual"]
        assert abs(residual) <= 1e-6


class TestBoundaryVelocity:
    def test_wave_speed_recovered(self, params, grid, wave):
        got = boundary_velocity(wave.u_bar, params.u_plus, grid, params, wave)
        assert got == pytest.approx(params.s, abs=1e-14)

    def test_flat_velocity_gives_zero(self, params, grid, wave):
        u = np.full(grid.n, params.u_minus)
        assert abs(boundary_velocity(u, params.u_plus, grid, params, wave)) <= 2e-5

    def test_denominator_floor(self, params, grid, wave):
        with pytest.raises(DenominatorTooSmall):
            boundary_velocity(wave.u_bar, params.u_minus, grid, params, wave)

    @pytest.mark.parametrize("w0_at_y", [np.nan, 1.0 - 1e-9])
    def test_nan_or_small_denominator_fails_floor(self, params, grid, wave, w0_at_y):
        # u_minus = 1: the margin is NaN or 1e-9, below the 1e-8 floor
        with pytest.raises(DenominatorTooSmall):
            boundary_velocity(wave.u_bar, w0_at_y, grid, params, wave)

    def test_reads_the_four_trace_nodes_only(self, params, grid, wave, rng):
        # the speed is the wave slope plus trace0 on u - uwave, bit for bit
        u = wave.u_bar + 1e-3 * rng.normal(size=grid.n)
        u[0] = params.u_minus
        du = (profiles.boundary_slope_constants(params)["du"]
              + discrete_ops.trace0(u - wave.u_bar, grid, 1))
        got = boundary_velocity(u, params.u_plus, grid, params, wave)
        assert got == -params.mu * du / (params.u_minus - params.u_plus)


@given(mu=st.floats(0.5, 2.0), v_plus=st.floats(1.5, 3.0),
       u_plus=st.floats(-1.0, 1.0), jump=st.floats(0.5, 2.0))
@settings(max_examples=40, deadline=None)
def test_exact_wave_is_steady_across_parameters(mu, v_plus, u_plus, jump):
    # at every front in the band, not only the fixture's: one step of each
    # stepper keeps the sampled wave to roundoff, and the interface speed
    # of the wave is s
    params = PhysicalParams(mu=mu, v_plus=v_plus, u_minus=u_plus + jump, u_plus=u_plus)
    grid = make_grid(20.0, 257)
    wave = traveling_wave(params, grid)
    reg = regularized_log(2.0 * v_plus)
    v = step_v(wave.v_bar, params.s, 0.0, grid, 1e-3, reg, params, wave)
    assert np.max(np.abs(v - wave.v_bar)) <= 1e-11
    u = step_u(wave.u_bar, wave.v_bar, params.s, grid, 1e-3, params, wave)
    assert np.max(np.abs(u - wave.u_bar)) <= 1e-12
    speed = boundary_velocity(wave.u_bar, params.u_plus, grid, params, wave)
    assert speed == pytest.approx(params.s, abs=1e-14)


class TestPaths:
    def test_make_path_integrates_speed(self):
        t = np.linspace(0.0, 1.0, 101)
        path = make_path(t, np.full(101, 2.0))
        np.testing.assert_allclose(path.y, 2.0 * t, rtol=0, atol=1e-12)
        assert path.y[0] == 0.0

    def test_make_path_rejects_nonpositive_speed(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValidationError, match="positive"):
            make_path(t, np.zeros(11))
        # NaN fails every comparison, so it needs its own check
        for bad in (np.nan, np.inf, -np.inf):
            speeds = np.ones(11)
            speeds[1] = bad
            with pytest.raises(ValidationError, match="finite and positive"):
                make_path(t, speeds)

    def test_h1_norm_of_line(self):
        t = np.linspace(0.0, 2.0, 201)
        f = 3.0 * np.ones(201)
        # constant: H1 norm = sqrt(int 3^2) = 3 sqrt(2)
        assert path_h1_norm(t, f) == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)

    def test_h1_norm_includes_derivative(self):
        t = np.linspace(0.0, 1.0, 401)
        f = np.sin(2 * np.pi * t)
        oracle = np.sqrt(
            np.trapezoid(f**2, t) + np.trapezoid((2 * np.pi * np.cos(2 * np.pi * t)) ** 2, t)
        )
        assert path_h1_norm(t, f) == pytest.approx(oracle, rel=1e-3)


class TestBoundaryMap:
    def test_wave_line_is_fixed_point(self, params, small_grid, wave_init):
        t = np.arange(0, 51) * 1e-2
        line = make_path(t, np.full(t.size, params.s))
        out = apply_boundary_map(line, wave_init, small_grid, params, dt=1e-2)
        assert np.max(np.abs(out.ydot - params.s)) <= 1e-10
        assert out.y[0] == 0.0

    def test_output_initial_speed_set_by_data(self, params, small_grid, wave_init):
        # the output speed at t=0 comes from the data regardless of the input
        t = np.arange(0, 26) * 1e-2
        ydot = np.full(t.size, params.s)
        ydot[1:] = 0.5 * params.s
        path = make_path(t, ydot)
        out = apply_boundary_map(path, wave_init, small_grid, params, dt=1e-2)
        assert out.ydot[0] == pytest.approx(wave_init.compat_speed, abs=1e-12)

    def test_rejects_wrong_initial_speed(self, params, small_grid, wave_init):
        t = np.arange(0, 26) * 1e-2
        path = make_path(t, np.full(t.size, 0.5 * params.s))
        with pytest.raises(ValidationError, match="data-determined"):
            apply_boundary_map(path, wave_init, small_grid, params, dt=1e-2)


class TestPicard:
    def test_wave_converges_immediately(self, params, small_grid, wave_init):
        traj = picard_solve(wave_init, small_grid, params, T_final=0.5, dt=1e-2, tol=1e-8)
        assert all(w.iterations <= 3 for w in traj.windows)
        beta_h1 = path_h1_norm(traj.t, traj.ydot - params.s)
        assert beta_h1 <= 1e-8

    def test_perturbed_run_contracts(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3,
                            tol=1e-10, window=0.25)
        ratios = traj.windows[0].ratios
        assert len(ratios) >= 1
        assert all(r < 1.0 for r in ratios)
        # the H2 metric is logged for every iterate and dominates H1
        w = traj.windows[0]
        assert len(w.h2_distances) == w.iterations
        assert all(h2 >= d - 1e-15 for h2, d in zip(w.h2_distances, w.distances))

    def test_infinite_tolerance_returns_first_iterate(self, params, small_grid,
                                                      bump_init, wave):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.1, dt=1e-2,
                            tol=np.inf, window=0.1)
        t = np.arange(0, 11) * 1e-2
        guess = make_path(t, np.full(t.size, bump_init.compat_speed))
        one_map = apply_boundary_map(guess, bump_init, small_grid, params, dt=1e-2)
        assert traj.windows[0].iterations == 1
        np.testing.assert_allclose(traj.ydot, one_map.ydot, rtol=0, atol=1e-12)

    def test_fixed_point_self_consistency(self, params, small_grid, bump_init):
        tol = 1e-8
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3,
                            tol=tol, window=0.25)
        remapped = apply_boundary_map(traj.path, bump_init, small_grid, params, dt=2e-3)
        moved = path_h1_norm(traj.t, remapped.ydot - traj.ydot)
        assert moved < 2.0 * tol

    def test_path_independent_of_window_partition(self, params):
        # every window after the first starts at the boundary_velocity of its
        # carried state, so the speed path has no jump at window starts and
        # the solution does not depend on where they fall
        tol = 1e-10
        grid = make_grid(50.0, 257)
        v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        short, long_ = (picard_solve(init, grid, params, T_final=1.0, dt=1.0 / 256, tol=tol,
                                     window=window, stride=256) for window in (0.0625, 0.25))
        assert len(short.windows) == 4 * len(long_.windows)
        assert np.max(np.abs(short.y - long_.y)) <= 3.0 * tol

    @pytest.mark.parametrize("m", [1, 2, 3, 25])
    def test_first_guess_continues_a_cubic(self, m):
        # the previous window's m + 1 speeds are a cubic in t (of degree m
        # when m < 3), so the fit is exact and the guess continues it
        coef = np.array([1.0, 0.3, -2.0, 5.0])[:min(3, m) + 1]

        def speed(t):
            return np.polynomial.polynomial.polyval(t, coef)

        dt, steps, offset = 0.01, m, 0.125  # a window as long as the previous one
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a rank-deficient fit warns
            guess = _first_guess(1.0 + offset, steps, dt, speed(dt * np.arange(-m, 1)))
        assert guess[0] == 1.0 + offset
        np.testing.assert_allclose(guess, speed(dt * np.arange(steps + 1)) + offset,
                                   rtol=0, atol=1e-12)

    def test_first_guess_of_the_first_window_is_flat(self):
        np.testing.assert_array_equal(_first_guess(1.25, 10, 0.01, None), np.full(11, 1.25))

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0}, {"stride": 2.5}, {"stride": 10.0}, {"window": -1.0}, {"window": 0.0}, {"window": np.nan},
        {"window": np.inf}, {"T_final": np.nan}, {"T_final": np.inf}, {"T_final": 0.0},
        {"T_final": -0.1}, {"dt": np.nan}, {"dt": np.inf}, {"dt": -1e-2},
        # finite and positive, but T_final / dt overflows
        {"dt": 1e-310},
        # a bad tolerance, not a PicardStalled or NewtonDiverged after marching
        {"tol": np.nan}, {"tol": 0.0}, {"tol": -1e-8},
        {"newton_tol": np.nan}, {"newton_tol": 0.0}])
    def test_rejects_bad_stride_and_window(self, params, small_grid, wave_init, kwargs):
        # a typed error, not the OverflowError or ValueError of round()
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            picard_solve(wave_init, small_grid, params, **{"T_final": 0.1, "dt": 1e-2,
                                                           **kwargs})

    def test_wave_sampled_once_per_solve(self, params, small_grid, bump_init, monkeypatch):
        calls = []
        original = profiles.wave_v

        def counting_wave_v(params, x):
            calls.append(x)
            return original(params, x)

        monkeypatch.setattr(profiles, "wave_v", counting_wave_v)
        counts = []
        for T_final in (0.05, 0.2):  # N and 4N steps, one and four windows
            calls.clear()
            picard_solve(bump_init, small_grid, params, T_final=T_final, dt=1e-2,
                         window=0.05)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_no_interpolant_built_per_march(self, params, small_grid, bump_init,
                                            monkeypatch):
        builds = []
        original = discrete_ops.monotone_interpolator

        def counting(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(discrete_ops, "monotone_interpolator", counting)
        monkeypatch.setattr(freeboundary, "monotone_interpolator", counting)
        for T_final in (0.05, 0.2):  # one and four windows
            picard_solve(bump_init, small_grid, params, T_final=T_final, dt=1e-2,
                         window=0.05)
        assert builds == []

    def test_stored_rows_are_the_steps_of_an_every_step_solve(self, params, small_grid,
                                                              bump_init):
        # stride 7 divides neither the 25-step window nor the 53 steps, so
        # stored steps fall inside windows and the last one is unaligned
        every, strided = (picard_solve(bump_init, small_grid, params, T_final=0.53, dt=0.01,
                                       window=0.25, stride=stride) for stride in (1, 7))
        np.testing.assert_array_equal(strided.stored_idx, [0, 7, 14, 21, 28, 35, 42, 49, 53])
        np.testing.assert_array_equal(every.stored_idx, np.arange(54))
        assert strided.stored_idx.dtype.kind == "i"
        np.testing.assert_array_equal(strided.v, every.v[strided.stored_idx])
        np.testing.assert_array_equal(strided.u, every.u[strided.stored_idx])
        # every row is the state of its step, stepped along the solved path
        wave = traveling_wave(params, small_grid)
        reg = regularized_log(2.0 * float(np.max(bump_init.v0)))
        v, u = bump_init.v0, bump_init.u0
        for k in range(1, every.t.size):
            src = bump_init.source_eval.shifted(every.y[k])
            v = step_v(v, every.ydot[k], src, small_grid, 0.01, reg, params, wave)
            u = step_u(u, v, every.ydot[k], small_grid, 0.01, params, wave)
            assert every.v[k].tobytes() == v.tobytes()
            assert every.u[k].tobytes() == u.tobytes()

    def test_stride_beyond_every_integer_type_stores_first_and_last(
            self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.05, dt=1e-2,
                            stride=10**20)
        np.testing.assert_array_equal(traj.stored_idx, [0, 5])
        assert traj.stored_idx.dtype.kind == "i"
        assert traj.v.shape == traj.u.shape == (2, small_grid.n)

    def test_trajectory_shapes_and_pressure_identity(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.2, dt=2e-3,
                            tol=1e-9, stride=10)
        assert traj.t.size == 101
        assert traj.v.shape[0] == traj.stored_idx.size
        # stored pressure equals the ODE closure along the path
        for step in traj.stored_idx:
            expected = traj.ydot[step] * (params.u_minus - bump_init.w0_at(traj.y[step]))
            assert traj.p_s[step] == pytest.approx(expected, abs=1e-12)


class TestInvariantSet:
    def test_exact_line_passes(self, params):
        t = np.linspace(0.0, 1.0, 101)
        path = make_path(t, np.full(101, params.s))
        rep = invariant_set_check(path, 2.0, params)
        assert rep["pass"]
        assert rep["beta_h1"] == 0.0

    def test_fast_path_fails_upper_bound(self, params):
        t = np.linspace(0.0, 1.0, 101)
        path = make_path(t, np.full(101, 4.0))
        rep = invariant_set_check(path, 2.0, params)
        assert not rep["upper_ok"]
        assert not rep["pass"]

    def test_converged_run_is_inside(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3, tol=1e-9)
        rep = invariant_set_check(traj.path, 2.0, params)
        assert rep["pass"]


@pytest.fixture(scope="module")
def wave_traj(params, small_grid, wave_init):
    return picard_solve(wave_init, small_grid, params, T_final=0.5, dt=1e-2, stride=10)


class TestAssembleAndReconstruction:
    def test_wave_snapshot_matches_shifted_profile(self, params, small_grid, wave_traj):
        idx = wave_traj.stored_idx.size - 1
        step = wave_traj.stored_idx[idx]
        t = wave_traj.t[step]
        x, v, u, p = assemble_solution(wave_traj, small_grid, params, idx)
        xi = x - params.s * t
        v_exact = np.where(xi < 0.0, 1.0, np.asarray(wave_v(params, np.maximum(xi, 0.0))))
        u_exact = np.where(xi < 0.0, params.u_minus,
                           np.asarray(wave_u(params, np.maximum(xi, 0.0))))
        assert np.max(np.abs(v - v_exact)) <= 1e-8
        assert np.max(np.abs(u - u_exact)) <= 1e-8

    def test_volume_continuous_at_interface(self, params, small_grid, wave_traj):
        x, v, u, p = assemble_solution(wave_traj, small_grid, params, 2)
        n_left = x.size - small_grid.n
        assert v[n_left - 1] == 1.0           # congested side
        assert v[n_left] == pytest.approx(1.0, abs=1e-12)  # free side boundary node

    def test_pressure_zero_on_free_side(self, params, small_grid, wave_traj):
        x, v, u, p = assemble_solution(wave_traj, small_grid, params, 1)
        n_left = x.size - small_grid.n
        assert np.all(p[n_left:] == 0.0)
        assert np.all(p[:n_left] == p[0])

    def test_reconstruction_residual_wave(self, params, small_grid, wave_init, wave_traj):
        res = reconstruction_residuals(wave_traj, wave_init, small_grid, params)
        assert np.max(res) <= 1e-9

    def test_reconstruction_residual_perturbed(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3, stride=25)
        res = reconstruction_residuals(traj, bump_init, small_grid, params)
        assert res[0] <= 1e-10  # zero shift at t=0: pure discretization error
        assert np.max(res) <= 1e-3

    def test_reconstruction_builds_one_interpolant_and_no_wave(
            self, params, small_grid, bump_init, monkeypatch):
        trajs = [picard_solve(bump_init, small_grid, params, T_final=0.1, dt=1e-2,
                              stride=stride) for stride in (1, 5)]
        assert trajs[0].stored_idx.size != trajs[1].stored_idx.size
        builds, wave_calls = [], []
        original_interp = discrete_ops.monotone_interpolator
        original_wave_v = profiles.wave_v

        def counting_interp(*args):
            builds.append(1)
            return original_interp(*args)

        def counting_wave_v(*args):
            wave_calls.append(1)
            return original_wave_v(*args)

        monkeypatch.setattr(discrete_ops, "monotone_interpolator", counting_interp)
        monkeypatch.setattr(profiles, "wave_v", counting_wave_v)
        for traj in trajs:
            builds.clear()
            reconstruction_residuals(traj, bump_init, small_grid, params)
            assert len(builds) == 1
        assert wave_calls == []
