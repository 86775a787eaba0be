import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congested_ns import discrete_ops, freeboundary, profiles
from congested_ns.core import Grid, PhysicalParams, ValidationError, make_grid
from congested_ns.diagnostics import bootstrap_monitor
from congested_ns.discrete_ops import cumulative_trapezoid
from congested_ns.freeboundary import (
    ROW_BLOCK,
    DenominatorTooSmall,
    HypothesisViolated,
    PicardStalled,
    WindowReport,
    _march,
    apply_boundary_map,
    assemble_solution,
    boundary_velocity,
    make_path,
    picard_solve,
    reconstruction_residuals,
    running_h1_norm,
    validate_hypotheses,
)
from congested_ns.parabolic import (
    RegularizedLog,
    StepWork,
    linear_parabolic_step,
    step_u,
    step_v,
    truncation_mollifier,
)
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


def predicted_path(speeds, positions, z, y0, init, dt):
    """The path a predicting march fills from its speeds z, with the speeds
    and positions of the two nodes before node 0: z[0] at node 0, then at
    node k the numerators N = z (u_minus - w0(y)) of nodes k-3 .. k-1,
    extrapolated quadratically, over the denominator at y[k-1] plus the
    trapezoid step to the quadratic extrapolation of the speeds, or z[k-1]
    where that is not finite and positive.  Positions add the trapezoid
    steps from y0 in cumulative_trapezoid's order."""
    u_minus = init.params.u_minus
    zs = [*speeds.tolist(), *z.tolist()]
    ns = [zk * (u_minus - init.w0_at(p)) for zk, p in zip(zs, [*positions.tolist(), y0])]
    ydot, y, running = [zs[2]], [y0], 0.0
    for k in range(1, z.size):
        z3, z2, z1 = zs[k - 1:k + 2]
        n3, n2, n1 = ns[k - 1:k + 2]
        y_hat = y[k - 1] + 0.5 * (ydot[k - 1] + (3.0 * z1 - 3.0 * z2 + z3)) * dt
        d_hat = u_minus - init.w0_at(y_hat)
        guess = (3.0 * n1 - 3.0 * n2 + n3) / d_hat if d_hat > 0.0 else np.nan
        ydot.append(guess if 0.0 < guess < np.inf else z1)
        running += 0.5 * (ydot[k - 1] + ydot[k]) * dt
        y.append(y0 + running)
        ns.append(zs[k + 2] * (u_minus - init.w0_at(y[k])))
    return np.array(ydot)


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

    def test_violation_carries_the_report(self, params, small_grid):
        prof = traveling_wave(params, small_grid)
        v0 = prof.v_bar + 0.05
        with pytest.raises(HypothesisViolated) as info:
            validate_hypotheses(v0, prof.u_bar, small_grid, params)
        entry = info.value.report["H1: congested endpoint values"]
        assert not entry["pass"]
        assert entry["v0_at_0_minus_1"] == pytest.approx(0.05)
        # every hypothesis has its entry, and failures names the failed ones
        assert len(info.value.report) == 5
        failed = [name for name, item in info.value.report.items() if not item["pass"]]
        assert len(info.value.failures) == len(failed)
        assert all(f.startswith(name) for f, name in zip(info.value.failures, failed))

    def test_wave_log_is_the_log_step_v_takes(self, params, grid):
        # step_v's residual holds a(vwave + g) - ln vwave: with both logs from
        # one function it vanishes at g = 0, so the wave is its exact steady state
        v0, u0 = initial_data_fields("gaussian_bump", 1e-2, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        value, _ = init.reg(init.wave.v_bar)
        assert value.tobytes() == init.wave.log_v_bar.tobytes()

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

    def test_datum_keeps_the_second_derivative_of_w0(self, small_grid, bump_init):
        # the one w0'' of the H2 check, the initial energy and the trace identities
        expected = discrete_ops.derivative(bump_init.w0, small_grid, 2)
        assert bump_init.d2w0.tobytes() == expected.tobytes()
        assert not bump_init.d2w0.flags.writeable
        assert bump_init.hypothesis_report["H2: weighted regularity of w0"]["sqrtx_dx2w0_L2"] == (
            discrete_ops.norm(expected, small_grid, discrete_ops.NormKind.WEIGHTED_SQRT_X))

    def test_w0_at_array_equals_pointwise_floats(self, small_grid, bump_init):
        xi = np.concatenate((small_grid.x[::37], [0.0, 1.2345, small_grid.R,
                                                  small_grid.R + 0.5, 3.0 * small_grid.R]))
        batch = bump_init.w0_eval(xi)
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
        du = wave.du0 + discrete_ops.trace0(u - wave.u_bar, grid, 1)
        got = boundary_velocity(u, params.u_plus, grid, params, wave)
        assert got == -params.mu * du / (params.u_minus - params.u_plus)

    def test_a_head_reads_the_whole_wave_four_values(self, params, grid, wave, rng):
        # every head of the wave carries the first four u_bar values as
        # Python floats, so the speed on a head of u is the whole u's, bit for bit
        u = wave.u_bar + 1e-3 * rng.normal(size=grid.n)
        work = StepWork(grid, wave)
        work.head(201)
        head_grid, head_wave = work.grid, work.wave
        assert head_grid.n == 201 and np.shares_memory(head_grid.x, grid.x)
        assert head_wave.u_lead == wave.u_lead == tuple(wave.u_bar[:4].tolist())
        assert all(type(value) is float for value in wave.u_lead)
        whole = boundary_velocity(u, params.u_plus, grid, params, wave)
        assert boundary_velocity(u[:201], params.u_plus, head_grid, params, head_wave) == whole


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
    reg = RegularizedLog(2.0 * v_plus)
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

    @pytest.mark.parametrize("t", [[], [0.0, 0.1, 0.05], [0.0, 0.1, 0.1], [0.0, np.nan, 0.2],
                                   [0.0, 0.1, np.inf]])
    def test_make_path_rejects_a_mesh_that_is_empty_or_not_increasing(self, t):
        # an empty mesh once gave one position for no speed, and a backward
        # step moved the interface left at positive speed
        with pytest.raises(ValidationError, match="strictly increasing"):
            make_path(np.array(t), np.ones(len(t)))

    def test_h1_norm_of_line(self):
        t = np.linspace(0.0, 2.0, 201)
        f = 3.0 * np.ones(201)
        # constant: H1 norm = sqrt(int 3^2) = 3 sqrt(2)
        assert float(running_h1_norm(t, f)[-1]) == pytest.approx(3.0 * np.sqrt(2.0), rel=1e-12)

    def test_running_h1_norm_starts_at_zero(self):
        # the integral over [0, t_0] is empty, whether the path has one node or more
        t = np.linspace(0.0, 1.0, 11)
        f = 2.0 + np.sin(t)
        assert running_h1_norm(t, f)[0] == 0.0
        np.testing.assert_array_equal(running_h1_norm(t[:1], f[:1]), [0.0])

    def test_running_h1_norm_rejects_a_non_uniform_mesh(self, params):
        # a valid path mesh, on which a first-step dt would misweigh every node
        t = np.linspace(0.0, 1.0, 101) ** 2
        path = make_path(t, params.s + 0.01 * np.sin(3.0 * t))
        with pytest.raises(ValidationError, match="uniform time mesh"):
            bootstrap_monitor(path, params, 0.05)

    def test_h1_norm_includes_derivative(self):
        t = np.linspace(0.0, 1.0, 401)
        f = np.sin(2 * np.pi * t)
        oracle = np.sqrt(
            np.trapezoid(f**2, t) + np.trapezoid((2 * np.pi * np.cos(2 * np.pi * t)) ** 2, t)
        )
        assert float(running_h1_norm(t, f)[-1]) == pytest.approx(oracle, rel=1e-3)


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

    def test_rejects_times_off_the_step_mesh(self, params, small_grid, wave_init):
        # a path on a 0.02 mesh marched with dt=0.01 would carry wrong time labels
        t = np.arange(0, 26) * 2e-2
        path = make_path(t, np.full(t.size, wave_init.compat_speed))
        with pytest.raises(ValidationError, match="uniform mesh"):
            apply_boundary_map(path, wave_init, small_grid, params, dt=1e-2)


class TestPicard:
    def test_wave_converges_immediately(self, params, small_grid, wave_init):
        traj = picard_solve(wave_init, small_grid, params, T_final=0.5, dt=1e-2, tol=1e-8)
        assert all(w.iterations <= 3 for w in traj.windows)
        beta_h1 = float(running_h1_norm(traj.t, traj.ydot - params.s)[-1])
        assert beta_h1 <= 1e-8

    def test_perturbed_run_contracts(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3,
                            tol=1e-10, window=0.25)
        ratios = traj.windows[0].ratios
        assert len(ratios) >= 1
        assert all(r < 1.0 for r in ratios)

    def test_window_report_derives_iterations_and_ratios(self):
        report = WindowReport(t_start=0.5, distances=[2.0, 0.5, 0.0, 0.0])
        assert report.iterations == 4
        assert report.ratios == [0.25, 0.0, 0.0]  # 0 after a zero distance
        assert WindowReport(t_start=0.0).ratios == []

    def test_stall_carries_its_window_start_and_last_ratio(self, params, small_grid,
                                                           bump_init):
        with pytest.raises(PicardStalled, match="after 3 iterations") as info:
            picard_solve(bump_init, small_grid, params, T_final=0.05, dt=1e-2,
                         tol=1e-300, max_iter=3)
        assert info.value.t == 0.0
        assert np.isfinite(info.value.last_ratio)

    @pytest.mark.parametrize("history", ["converged", "negative", "nan"])
    def test_predicting_march_is_one_plain_map_evaluation(self, params, small_grid,
                                                          bump_init, history):
        # a carried state after one converged window, and its last two speeds
        # and positions before the next window's node 0
        dt, steps = 0.01, 10
        first = picard_solve(bump_init, small_grid, params, T_final=0.1, dt=dt, window=0.1)
        v, u, y0 = first.v[-1], first.u[-1], first.y[-1]
        speeds = {"converged": first.ydot[-3:-1],
                  # a prediction that is not finite and positive takes z[k-1]
                  "negative": np.array([-1e3, first.ydot[-2]]),
                  "nan": np.array([np.nan, first.ydot[-2]])}[history]
        positions = first.y[-3:-1]
        # the flat guess's first speed is not z[0]: the march writes z[0] there
        ydot = np.full(steps + 1, first.ydot[-1])
        y = y0 + cumulative_trapezoid(ydot, dt)
        zdot, *_ = _march(v, u, ydot, y, bump_init, dt, 0.1, history=(speeds, positions))
        # the filled path is the prediction from the march's own speeds
        assert ydot.tobytes() == predicted_path(speeds, positions, zdot, y0, bump_init,
                                                dt).tobytes()
        assert (ydot[1] == zdot[0]) == (history != "converged")
        assert y.tobytes() == (y0 + cumulative_trapezoid(ydot, dt)).tobytes()
        # marching the filled path again, as a given path, repeats every speed
        again, *_ = _march(v, u, ydot.copy(), y.copy(), bump_init, dt, 0.1)
        assert again.tobytes() == zdot.tobytes()

    def test_plain_march_writes_its_positions_from_its_speeds(self, params, small_grid,
                                                              bump_init):
        # the march reads only y[0]: a buffer of NaN past it gives the same
        # speeds as the true positions, and it is filled with the trapezoid
        # integral of the speeds it steps with
        dt, steps = 0.01, 10
        first = picard_solve(bump_init, small_grid, params, T_final=0.1, dt=dt, window=0.1)
        v, u, y0 = first.v[-1], first.u[-1], first.y[-1]
        ydot = first.ydot[-1] + 1e-3 * np.sin(np.arange(steps + 1.0))
        y = np.full(steps + 1, np.nan)
        y[0] = y0
        zdot, *_ = _march(v, u, ydot, y, bump_init, dt, 0.1)
        assert y.tobytes() == (y0 + cumulative_trapezoid(ydot, dt)).tobytes()
        again, *_ = _march(v, u, ydot, y0 + cumulative_trapezoid(ydot, dt), bump_init, dt, 0.1)
        assert again.tobytes() == zdot.tobytes()

    def test_solve_positions_integrate_each_window_from_its_start(self, params):
        # the definitive march of each window writes the run's positions: the
        # window's start plus the trapezoid integral of the speeds it stepped
        # with.  Those are the stored ones, except at node 0, where a later
        # window steps from its own start speed (_march's start rule) and the
        # run keeps the last speed of the window before
        grid = make_grid(50.0, 257)
        v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        dt, steps = 2e-3, 125  # windows of 0.25 / s, each start a stored row
        traj = picard_solve(init, grid, params, T_final=1.0, dt=dt, stride=steps)
        starts = [round(w.t_start / dt) for w in traj.windows]
        assert starts == traj.stored_idx[:-1].tolist() == [0, 125, 250, 375]
        for row, k0 in enumerate(starts):
            speeds = traj.ydot[k0:k0 + steps + 1].copy()
            if k0:
                speeds[0] = boundary_velocity(traj.u[row], init.w0_at(traj.y[k0]), grid,
                                              params, init.wave)
            expected = traj.y[k0] + cumulative_trapezoid(speeds, dt)
            assert traj.y[k0:k0 + steps + 1].tobytes() == expected.tobytes()

    def test_march_sets_its_own_first_speed(self, params, small_grid, bump_init):
        # the first speed comes from the march's start, never from the given path
        dt, steps = 0.01, 5
        first = picard_solve(bump_init, small_grid, params, T_final=0.1, dt=dt, window=0.1)
        v, u, y0 = first.v[-1], first.u[-1], first.y[-1]
        carried = boundary_velocity(u, bump_init.w0_at(y0), small_grid, params, bump_init.wave)
        for guess in (0.5 * params.s, 2.0 * params.s):
            ydot = np.full(steps + 1, guess)
            y = cumulative_trapezoid(ydot, dt)
            zdot, *_ = _march(bump_init.v0, bump_init.u0, ydot, y, bump_init, dt, 0.0)
            assert zdot[0] == bump_init.compat_speed
            zdot, *_ = _march(v, u, ydot, y0 + y, bump_init, dt, 0.1)
            assert zdot[0] == carried
        # the carried start is the speed the solve itself marched to
        assert carried == pytest.approx(first.ydot[-1], abs=1e-6)

    def test_every_window_converges_in_at_most_three_iterations(self, params, small_grid,
                                                                bump_init):
        # each window's first march predicts its own path, window 0 from the
        # path held flat at compat_speed before t = 0, so its first iterate
        # starts within a few tol of the fixed point
        traj = picard_solve(bump_init, small_grid, params, T_final=1.0, dt=2e-3, tol=1e-8,
                            stride=500)
        assert len(traj.windows) == 4
        assert all(w.iterations <= 3 for w in traj.windows)

    def test_bootstrap_datum_to_t2_takes_at_most_twelve_iterations(self, params):
        # the predicted speed follows the kinks the PCHIP-sampled w0 puts in
        # the denominator, so every window after the first converges in one
        # or two iterations ([4, 1, 1, 1, 1, 1, 1, 2]; [4, 2, 2, 2, 2, 2, 2, 3]
        # when the speed itself is extrapolated)
        grid = make_grid(50.0, 257)
        v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        traj = picard_solve(init, grid, params, T_final=2.0, dt=2e-3, tol=1e-8, stride=1000)
        assert len(traj.windows) == 8
        assert sum(w.iterations for w in traj.windows) <= 12

    def test_newton_floor_does_not_stall_picard_at_newton_tol(self, params):
        # every step whose residual is not exactly zero takes its one
        # linearized update, so the map is a fixed sequence of operations in
        # the speeds: no stopping test switches where a residual crosses a
        # tolerance and makes the map jump by about that tolerance, which
        # would stall this run at picard_tol = 1e-8 (it converges in 47
        # iterations)
        grid = make_grid(50.0, 257)
        v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        traj = picard_solve(init, grid, params, T_final=10.0, dt=2e-3, tol=1e-8, stride=5000)
        assert len(traj.windows) == 40
        assert all(w.distances[-1] <= 1e-8 for w in traj.windows)

    @pytest.mark.parametrize("dt", [0.125, 0.25])
    def test_large_step_short_windows_converge(self, params, dt):
        # dt = 0.125 and 0.25 on windows of 0.25: two steps and one step per
        # window, where the quadratic prediction leans hardest on the two
        # speeds before node 0.  With one step, the second window's history
        # is one flat speed before t = 0 and the speed at t = 0
        grid = make_grid(50.0, 257)
        v0, u0 = initial_data_fields("gaussian_bump", 0.005, 2.0, 1.0, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        traj = picard_solve(init, grid, params, T_final=2.0, dt=dt, tol=1e-8, window=None)
        assert len(traj.windows) == 8
        assert all(w.distances[-1] <= 1e-8 for w in traj.windows)
        assert np.all(np.isfinite(traj.ydot)) and np.all(traj.ydot > 0.0)

    def test_self_partitioned_first_iterate_is_one_map_of_its_prediction(
            self, params, small_grid, bump_init):
        # with window=None, window 0's first march predicts its own path from
        # the path held flat before t = 0, at compat_speed and position 0.
        # That path, rebuilt from the returned first iterate, marched again as
        # a given path repeats every speed: the predicting march is one plain
        # map evaluation
        dt = 1e-2  # one window of 0.25 / s
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=dt, tol=np.inf,
                            window=None)
        assert [w.iterations for w in traj.windows] == [1]
        c = bump_init.compat_speed
        predicted = predicted_path(np.array([c, c]), np.zeros(2), traj.ydot, 0.0, bump_init, dt)
        assert np.any(predicted != c)  # not the flat guess a fixed window starts from
        again = apply_boundary_map(make_path(traj.t, predicted), bump_init, small_grid, params,
                                   dt=dt)
        assert again.ydot.tobytes() == traj.ydot.tobytes()

    @pytest.mark.parametrize("mu, v_plus", [(1.0, 2.0), (1.1, 2.2)])
    def test_exact_front_is_the_same_with_window_0_predicted(self, mu, v_plus):
        # u_minus = v_plus - 1 and u_plus = 0 give s = 1 exactly.  On the exact
        # front every speed is s bit for bit, so window 0's prediction is the
        # flat path, and the run equals one at a caller-fixed window of 0.25 / s
        params = PhysicalParams(mu=mu, v_plus=v_plus, u_minus=v_plus - 1.0, u_plus=0.0)
        grid = make_grid(50.0, 513)
        v0, u0 = initial_data_fields("none", 0.0, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        predicted, fixed = (picard_solve(init, grid, params, T_final=1.0, dt=1e-2,
                                         window=window, stride=10)
                            for window in (None, 0.25 / params.s))
        assert len(predicted.windows) == 4
        assert np.all(predicted.ydot == params.s)
        for name in ("t", "y", "ydot", "p_s", "stored_idx", "v", "u"):
            assert getattr(predicted, name).tobytes() == getattr(fixed, name).tobytes()
        assert ([w.distances for w in predicted.windows]
                == [w.distances for w in fixed.windows])

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
        moved = float(running_h1_norm(traj.t, remapped.ydot - traj.ydot)[-1])
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

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0}, {"stride": 2.5}, {"stride": 10.0}, {"window": -1.0}, {"window": 0.0}, {"window": np.nan},
        {"window": np.inf}, {"T_final": np.nan}, {"T_final": np.inf}, {"T_final": 0.0},
        {"T_final": -0.1}, {"dt": np.nan}, {"dt": np.inf}, {"dt": -1e-2},
        # finite and positive, but T_final / dt overflows, or is not whole
        {"dt": 1e-310}, {"dt": 3e-3}, {"window": 0.015},
        # a bad tolerance, not a PicardStalled after marching
        {"tol": np.nan}, {"tol": 0.0}, {"tol": -1e-8},
        # an iteration cap below one, or not an integer
        {"max_iter": 0}, {"max_iter": -1}, {"max_iter": 2.5}])
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
            # the datum's validation samples the wave, the solve reads it
            init = validate_hypotheses(bump_init.v0, bump_init.u0, small_grid, params)
            picard_solve(init, small_grid, params, T_final=T_final, dt=1e-2, window=0.05)
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
        # on the active nodes [0, m] that its window's last march recorded,
        # the wave past them
        wave = traveling_wave(params, small_grid)
        reg = RegularizedLog(2.0 * float(np.max(bump_init.v0)))
        v, u = bump_init.v0, bump_init.u0
        for k in range(1, every.t.size):
            report = every.windows[(k - 1) // 25]  # 25 steps per window
            if k % 25 == 1:
                m = report.active_start
            sub_grid = Grid(R=small_grid.x[m], n=m + 1, dx=small_grid.dx,
                            x=small_grid.x[:m + 1])
            src = bump_init.source_eval.shifted(every.y[k])[:m + 1]
            v = step_v(v[:m + 1], every.ydot[k], src, sub_grid, 0.01, reg, params,
                       wave.head(m + 1))
            u = step_u(u[:m + 1], v, every.ydot[k], sub_grid, 0.01, params, wave.head(m + 1))
            v = np.concatenate((v, wave.v_bar[m + 1:]))
            u = np.concatenate((u, wave.u_bar[m + 1:]))
            assert every.v[k].tobytes() == v.tobytes()
            assert every.u[k].tobytes() == u.tobytes()
            m = {round(t / 0.01): to for t, _, to in report.widenings[-1]}.get(k, m)
        # the cut engages on this datum, and widens
        assert every.windows[0].active_start < small_grid.n - 1
        assert every.windows[0].widenings[-1]

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


class TestActiveLength:
    """Each march steps only the nodes [0, m] past which the state is the wave."""

    @staticmethod
    def _cut_and_full(monkeypatch, *args, **kwargs):
        """picard_solve as it runs, and with every march at full width."""
        cut = picard_solve(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(freeboundary, "ACTIVE_GUARD", 10**9)
            full = picard_solve(*args, **kwargs)
        assert all(w.active_start == w.active_nodes == args[1].n - 1 for w in full.windows)
        return cut, full

    def test_cut_solve_equals_full_width_solve(self, params, small_grid, bump_init,
                                               monkeypatch):
        # criterion 3's largest bump too, where v at full width took ulp noise
        # from a wave log that step_v's regularized log did not reproduce.
        # Its first step's speed-deviation source alone moves node m = 383 by
        # 1.2e-20, so the cut widens before that step
        grid = make_grid(50.0, 2049)
        v0, u0 = initial_data_fields("gaussian_bump", 1e-2, 2.0, 0.5, params, grid)
        criterion_3 = validate_hypotheses(v0, u0, grid, params)
        floor = freeboundary.ACTIVE_FLOOR
        for init, kwargs in ((bump_init, dict(T_final=0.53, dt=0.01, window=0.25, stride=1)),
                             (criterion_3, dict(T_final=0.02, dt=1e-3))):
            cut, full = self._cut_and_full(monkeypatch, init, init.grid, params, **kwargs)
            first = cut.windows[0]
            assert first.active_start < first.active_nodes < init.grid.n - 1
            # one record per march, the last the pass that keeps the fields;
            # each march starts again at active_start and widens on its own path
            assert len(first.widenings) == first.iterations + 1
            assert all(march[0][1] == first.active_start for march in first.widenings)
            for name in ("ydot", "y", "v"):
                assert getattr(cut, name).tobytes() == getattr(full, name).tobytes()
            assert np.max(np.abs(cut.u - full.u)) <= floor
            # past the active nodes the stored state is the wave
            last = cut.windows[-1].active_nodes
            assert np.all(cut.v[-1, last:] == init.wave.v_bar[last:])
            assert np.all(cut.u[-1, last:] == init.wave.u_bar[last:])

    def test_march_leaves_its_carried_input_state_untouched(self, params, bump_init):
        # every Picard march of a window restarts from the state carried to
        # the window, the end state of the march before it.  Made read-only,
        # that state is only read: the march writes the state it owns and the
        # rows it keeps, also when it widens, and a second march repeats it
        dt = 0.01
        ydot = np.full(3, bump_init.compat_speed)
        y = cumulative_trapezoid(ydot, dt)
        _, v, u = _march(bump_init.v0, bump_init.u0, ydot, y, bump_init, dt, 0.0)
        v.setflags(write=False)
        u.setflags(write=False)
        before = v.tobytes() + u.tobytes()
        # at twice the wave speed, the speed-deviation source widens the head
        # before the second step
        fast = np.full(11, 2.0 * params.s)
        rows = np.full((2, 2, 2, bump_init.grid.n), np.nan)  # march, kept step, field
        marches = []
        for i in range(2):
            report = WindowReport(t_start=0.02)
            keep = {k: tuple(rows[i, j]) for j, k in enumerate((1, 10))}
            marches.append(_march(v, u, fast.copy(), y[-1] + cumulative_trapezoid(fast, dt),
                                  bump_init, dt, 0.02, keep=keep, report=report))
            assert [len(march) for march in report.widenings] == [1]
            assert report.widenings[0][0][1] == report.active_start
        assert v.tobytes() + u.tobytes() == before
        (z, v_end, u_end), again = marches
        assert [a.tobytes() for a in again] == [z.tobytes(), v_end.tobytes(), u_end.tobytes()]
        assert rows[0].tobytes() == rows[1].tobytes()
        assert rows[0, 1].tobytes() == np.stack((v_end, u_end)).tobytes()
        # a step before the widening keeps the wave past its head
        head = report.active_start + 1
        assert np.all(rows[0, 0, 0, head:] == bump_init.wave.v_bar[head:])
        assert np.all(rows[0, 0, 1, head:] == bump_init.wave.u_bar[head:])

    def test_steps_give_the_same_bytes_with_their_output_aliased_to_their_input(
            self, params, wave_init, bump_init, monkeypatch):
        # the march hands step_v and step_u its state's head as both input
        # and output.  Each step of an exact-front march, and of a bump march
        # that takes updates and widens its head, repeated from a copy of its
        # input into a new array and into that input itself, gives the bytes
        # the march got
        calls = []

        def recording(fn):
            def step(*args, **kwargs):
                copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
                result = fn(*args, **kwargs)
                calls.append((fn, copies, result.copy()))
                return result
            return step

        dt = 0.01
        # the bump march starts from a carried state at twice the wave speed,
        # which widens its head before its second step
        start = np.full(3, bump_init.compat_speed)
        _, v, u = _march(bump_init.v0, bump_init.u0, start, cumulative_trapezoid(start, dt),
                         bump_init, dt, 0.0)
        for name in ("step_v", "step_u"):
            monkeypatch.setattr(freeboundary, name, recording(getattr(freeboundary, name)))
        for init, v, u, speed, t_start in ((wave_init, wave_init.v0, wave_init.u0, params.s, 0.0),
                                          (bump_init, v, u, 2.0 * params.s, 2 * dt)):
            calls.clear()
            ydot = np.full(11, speed)
            _march(v, u, ydot, cumulative_trapezoid(ydot, dt), init, dt, t_start)
            assert len(calls) == 20
            for fn, (state, *rest), result in calls:
                fresh = fn(state.copy(), *rest)
                aliased = state.copy()
                assert fn(aliased, *rest, out=aliased) is aliased
                assert fresh.tobytes() == aliased.tobytes() == result.tobytes()
            v_calls = [(args, result) for fn, args, result in calls if fn is step_v]
            heads = {args[3].n for args, _ in v_calls}
            updated = [args[0].tobytes() != result.tobytes() for args, result in v_calls]
            if init is wave_init:  # the exact wave is a discrete steady state
                assert heads == {freeboundary.ACTIVE_GUARD + 1} and not any(updated)
            else:
                assert len(heads) == 2 and all(updated)

    def test_steps_give_the_same_bytes_with_and_without_the_marchs_workspace(
            self, params, wave_init, bump_init, monkeypatch):
        # the march hands step_v and step_u one StepWork, whose head it moves
        # at each widening.  Each step of an exact-front march, and of a bump
        # march that takes updates and widens its head, repeated from a copy
        # of its input with a workspace of its own, gives the bytes the march
        # got; so does the first step after a widening
        steps = []

        def recording(fn):
            def step(*args, out, work):
                state = args[0].copy()
                rest = [a.copy() if isinstance(a, np.ndarray) else a for a in args[1:]]
                result = fn(*args, out=out, work=work)
                alone = fn(state, *rest)
                steps.append((fn, args[3].n, alone.tobytes() == result.tobytes(),
                              state.tobytes() != result.tobytes()))
                return result
            return step

        dt = 0.01
        start = np.full(3, bump_init.compat_speed)
        _, v, u = _march(bump_init.v0, bump_init.u0, start, cumulative_trapezoid(start, dt),
                         bump_init, dt, 0.0)
        for name in ("step_v", "step_u"):
            monkeypatch.setattr(freeboundary, name, recording(getattr(freeboundary, name)))
        for init, v, u, speed, t_start in ((wave_init, wave_init.v0, wave_init.u0, params.s, 0.0),
                                          (bump_init, v, u, 2.0 * params.s, 2 * dt)):
            steps.clear()
            ydot = np.full(11, speed)
            _march(v, u, ydot, cumulative_trapezoid(ydot, dt), init, dt, t_start)
            assert len(steps) == 20 and all(same for _, _, same, _ in steps)
            heads = [nodes for fn, nodes, _, _ in steps if fn is step_v]
            updated = [changed for fn, _, _, changed in steps if fn is step_v]
            if init is wave_init:  # the exact wave is a discrete steady state
                assert set(heads) == {freeboundary.ACTIVE_GUARD + 1} and not any(updated)
            else:  # widened before the second step
                assert heads[0] < heads[1] == heads[-1] and all(updated)

    def test_a_step_rejects_the_workspace_of_another_head(self, params, wave_init):
        grid, wave = wave_init.grid, wave_init.wave
        work = StepWork(grid, wave)
        work.head(17)
        with pytest.raises(ValidationError, match="another wave"):
            step_v(wave.v_bar, params.s, 0.0, grid, 1e-3, wave_init.reg, params, wave, work=work)
        with pytest.raises(ValidationError, match="another wave"):
            step_u(wave.u_bar, wave.v_bar, params.s, grid, 1e-3, params, wave, work=work)
        with pytest.raises(ValidationError, match="17 nodes"):
            linear_parabolic_step(np.zeros(grid.n), np.ones(grid.n), 0.0, np.zeros(grid.n),
                                  grid, 1e-3, work=work)
        with pytest.raises(ValidationError, match="workspace's width"):
            work.head(grid.n + 1)
        # the whole head runs on the whole grid and wave themselves
        work.head(grid.n)
        assert work.grid is grid and work.wave is wave
        step_v(wave.v_bar, params.s, 0.0, grid, 1e-3, wave_init.reg, params, wave, work=work)

    def test_exact_front_marches_the_guard_band(self, params, small_grid, wave_init,
                                                monkeypatch):
        cut, full = self._cut_and_full(monkeypatch, wave_init, small_grid, params,
                                       T_final=0.5, dt=0.01)
        for w in cut.windows:
            assert w.active_start == w.active_nodes == freeboundary.ACTIVE_GUARD
            assert not any(w.widenings)
        for name in ("ydot", "y", "p_s", "v", "u"):
            assert getattr(cut, name).tobytes() == getattr(full, name).tobytes()


class TestDatumSetting:
    """A datum runs only on the grid and params it was validated on."""

    @pytest.mark.parametrize("other", ["params", "R", "n"])
    def test_solver_rejects_another_setting(self, params, small_grid, wave_init, other):
        grid, run_params = small_grid, params
        if other == "params":
            run_params = PhysicalParams(mu=1.3, v_plus=2.0, u_minus=1.0, u_plus=0.0)
        else:
            grid = make_grid(40.0, 513) if other == "R" else make_grid(50.0, 257)
        with pytest.raises(ValidationError, match="validated on"):
            picard_solve(wave_init, grid, run_params, T_final=0.5, dt=1e-2)
        path = make_path(np.arange(0, 26) * 1e-2, np.full(26, wave_init.compat_speed))
        with pytest.raises(ValidationError, match="validated on"):
            apply_boundary_map(path, wave_init, grid, run_params, dt=1e-2)

    def test_equal_setting_runs(self, params, wave_init):
        # equal values, other objects: the datum's own setting
        same = PhysicalParams(mu=params.mu, v_plus=params.v_plus, u_minus=params.u_minus,
                              u_plus=params.u_plus)
        traj = picard_solve(wave_init, make_grid(50.0, 513), same, T_final=0.1, dt=1e-2)
        assert traj.windows


def _admissible(monitor: dict, M: float) -> bool:
    """Whether the monitored path lies in the admissible set with constant M:
    speeds in [1/M, M] and running H1 norm of the speed deviation at most M."""
    return (monitor["min_speed"] >= 1.0 / M and monitor["max_speed"] <= M
            and monitor["max_running_h1"] <= M)


class TestInvariantSet:
    """Membership in the admissible path set, read off bootstrap_monitor."""

    def test_exact_line_passes(self, params):
        t = np.linspace(0.0, 1.0, 101)
        monitor = bootstrap_monitor(make_path(t, np.full(101, params.s)), params, 0.05)
        assert monitor["min_speed"] == monitor["max_speed"] == params.s
        assert monitor["max_running_h1"] == 0.0
        assert _admissible(monitor, 2.0)

    def test_fast_path_fails_upper_bound(self, params):
        t = np.linspace(0.0, 1.0, 101)
        monitor = bootstrap_monitor(make_path(t, np.full(101, 4.0)), params, 0.05)
        assert monitor["max_speed"] == 4.0 > 2.0
        # the constant deviation 3 has H1(0, 1) norm 3
        assert monitor["max_running_h1"] == pytest.approx(3.0, rel=1e-12)
        assert not _admissible(monitor, 2.0)

    def test_converged_run_is_inside(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3, tol=1e-9)
        monitor = bootstrap_monitor(traj.path, params, 0.05)
        assert monitor["min_speed"] == np.min(traj.ydot)
        assert monitor["max_speed"] == np.max(traj.ydot)
        assert _admissible(monitor, 2.0)


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

    @pytest.mark.parametrize("t_index", [1.0, np.float64(2.0), 99, -1, "1", True, False])
    def test_assemble_rejects_a_bad_index(self, params, small_grid, wave_traj, t_index):
        # a float index used to raise numpy's IndexError, and a bool, a mask
        # of the stored steps, a TypeError
        with pytest.raises(ValidationError, match="stored-time index"):
            assemble_solution(wave_traj, small_grid, params, t_index)

    def test_reconstruction_residual_wave(self, params, small_grid, wave_init, wave_traj):
        res = reconstruction_residuals(wave_traj, wave_init, small_grid, params)
        assert np.max(res) <= 1e-9

    def test_reconstruction_residual_perturbed(self, params, small_grid, bump_init):
        traj = picard_solve(bump_init, small_grid, params, T_final=0.25, dt=2e-3, stride=25)
        res = reconstruction_residuals(traj, bump_init, small_grid, params)
        assert res[0] <= 1e-10  # zero shift at t=0: pure discretization error
        assert np.max(res) <= 1e-3

    def test_reconstruction_builds_no_interpolant_and_no_wave(
            self, params, small_grid, bump_init, monkeypatch):
        # the datum's w0 table and wave serve every block of ROW_BLOCK stored
        # times: 11 stored times take two blocks, 3 take one
        trajs = [picard_solve(bump_init, small_grid, params, T_final=0.1, dt=1e-2,
                              stride=stride) for stride in (1, 5)]
        assert trajs[0].stored_idx.size > ROW_BLOCK >= trajs[1].stored_idx.size
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
        monkeypatch.setattr(freeboundary, "monotone_interpolator", counting_interp)
        monkeypatch.setattr(profiles, "wave_v", counting_wave_v)
        for traj in trajs:
            reconstruction_residuals(traj, bump_init, small_grid, params)
        assert builds == wave_calls == []
