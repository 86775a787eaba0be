import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from congested_ns import cli, diagnostics, discrete_ops, freeboundary
from congested_ns.core import PhysicalParams, ValidationError, make_grid
from congested_ns.diagnostics import (
    bootstrap_monitor,
    coercivity_check,
    coercivity_weight,
    energy_report,
    initial_energy,
    l1_bound_report,
    linearized_operator,
    path_difference_inequality,
    shifted_weight_inequality,
    trace_identities,
    write_diagnostic_records,
)
from congested_ns.discrete_ops import (
    NormKind,
    derivative,
    integrate,
    norm,
    shift_sample,
    stencil_derivative,
    tail_integral,
    trace0,
    trapezoid_weights,
)
from congested_ns.freeboundary import (
    HEAD_HALO,
    ROW_BLOCK,
    assemble_solution,
    make_path,
    picard_solve,
    reconstruction_residuals,
    running_h1_norm,
    time_derivative,
    validate_hypotheses,
)
from congested_ns.perturbations import initial_data_fields
from congested_ns.profiles import effective_velocity_about_wave, traveling_wave


@pytest.fixture(scope="module")
def gridc(params):
    return make_grid(15.0, 2049)


@pytest.fixture(scope="module")
def wavec(params, gridc):
    return traveling_wave(params, gridc)


class TestIntegratedPerturbation:
    def test_zero_for_wave(self, gridc, wavec):
        V = tail_integral(wavec.v_bar - wavec.v_bar, gridc)
        np.testing.assert_array_equal(V, 0.0)

    def test_exponential_tail(self, params):
        g = make_grid(40.0, 4001)
        prof = traveling_wave(params, g)
        v = prof.v_bar + np.exp(-g.x)
        V = tail_integral(v - prof.v_bar, g)
        np.testing.assert_allclose(V, -np.exp(-g.x), rtol=0, atol=3e-5)

    def test_derivative_recovers_perturbation(self, params, gridc, wavec):
        v = wavec.v_bar + 0.1 * np.exp(-((gridc.x - 5.0) ** 2))
        V = tail_integral(v - wavec.v_bar, gridc)
        np.testing.assert_allclose(
            derivative(V, gridc, 1)[1:-1], (v - wavec.v_bar)[1:-1], rtol=0, atol=1e-4
        )


class TestLinearizedOperator:
    def test_wave_slope_spans_kernel(self, params):
        g = make_grid(15.0, 4096)
        prof = traveling_wave(params, g)
        out = linearized_operator(prof.dv_bar, prof, g, params)
        assert norm(out, g, NormKind.L2) <= 1e-5

    def test_linearity_and_zero(self, params, gridc, wavec, rng):
        z = linearized_operator(np.zeros(gridc.n), wavec, gridc, params)
        np.testing.assert_array_equal(z, 0.0)
        f = rng.normal(size=gridc.n)
        a = linearized_operator(2.5 * f, wavec, gridc, params)
        b = linearized_operator(f, wavec, gridc, params)
        np.testing.assert_allclose(a, 2.5 * b, rtol=1e-12, atol=1e-12)

    def test_constant_coefficient_closed_form(self, params):
        # with a constant background the operator is -s g - (mu/c) g'
        g = make_grid(10.0, 2001)
        c = 1.7
        fake = traveling_wave(params, g)
        object.__setattr__(fake, "v_bar", np.full(g.n, c))
        f = np.sin(g.x)
        out = linearized_operator(f, fake, g, params)
        exact = -params.s * f - params.mu / c * np.cos(g.x)
        np.testing.assert_allclose(out[1:-1], exact[1:-1], rtol=0, atol=1e-5)


def _random_smooth(rng, grid, with_trace):
    x = grid.x
    phi = np.zeros_like(x)
    dphi = np.zeros_like(x)
    d2phi = np.zeros_like(x)
    for _ in range(4):
        A = rng.uniform(-1, 1)
        c = rng.uniform(2.5, 6.0)
        w = rng.uniform(0.6, 1.4)
        e = np.exp(-((x - c) ** 2) / (2 * w**2))
        phi += A * e
        dphi += A * e * (-(x - c) / w**2)
        d2phi += A * e * (((x - c) / w**2) ** 2 - 1.0 / w**2)
    if with_trace:
        B, lam = rng.uniform(0.2, 1.0), rng.uniform(0.8, 2.0)
        e = np.exp(-lam * x)
        phi += B * e
        dphi -= lam * B * e
        d2phi += lam**2 * B * e
    return phi, dphi, d2phi


class TestCoercivity:
    def test_identity_compact_support(self, params, rng):
        g = make_grid(15.0, 4096)
        prof = traveling_wave(params, g)
        for _ in range(10):
            phi, dphi, d2phi = _random_smooth(rng, g, with_trace=False)
            res = coercivity_check(phi, prof, g, params, dphi=dphi, d2phi=d2phi)
            rel = abs(res["gap"]) / max(abs(res["lhs"]), abs(res["rhs"]))
            assert rel <= 1e-8

    def test_identity_with_boundary_trace(self, params, rng):
        g = make_grid(15.0, 4096)
        prof = traveling_wave(params, g)
        for _ in range(10):
            phi, dphi, d2phi = _random_smooth(rng, g, with_trace=True)
            res = coercivity_check(phi, prof, g, params, dphi=dphi, d2phi=d2phi)
            rel = abs(res["gap"]) / max(abs(res["lhs"]), abs(res["rhs"]))
            assert rel <= 1e-6

    def test_zero_function(self, params, gridc, wavec):
        res = coercivity_check(np.zeros(gridc.n), wavec, gridc, params,
                               dphi=np.zeros(gridc.n), d2phi=np.zeros(gridc.n))
        assert res["lhs"] == 0.0
        assert res["rhs"] == 0.0

    def test_finite_difference_fallback_is_second_order(self, params, rng):
        rels = []
        for n in (1025, 2049):
            g = make_grid(15.0, n)
            prof = traveling_wave(params, g)
            r = np.random.default_rng(7)
            phi, _, _ = _random_smooth(r, g, with_trace=True)
            res = coercivity_check(phi, prof, g, params)
            rels.append(abs(res["gap"]) / abs(res["lhs"]))
        assert rels[1] < rels[0]

    def test_weighted_form_reports_bound(self, params, rng):
        g = make_grid(15.0, 4096)
        prof = traveling_wave(params, g)
        rho = coercivity_weight(g, params)
        phi, dphi, d2phi = _random_smooth(rng, g, with_trace=True)
        res = coercivity_check(phi, prof, g, params, rho=rho, dphi=dphi, d2phi=d2phi)
        assert np.isfinite(res["gap"])
        assert res["measured_constant"] >= 0.0
        assert res["rho_w2inf"] >= 2.0


class TestCoercivityWeight:
    def test_boundary_values(self, params, gridc):
        rho = coercivity_weight(gridc, params)
        assert rho[0] == pytest.approx(2.0, abs=1e-14)
        expected_slope = -4.0 * params.s / params.mu
        assert trace0(rho, gridc, 1) == pytest.approx(expected_slope, abs=1e-4)

    def test_range(self, params, gridc):
        rho = coercivity_weight(gridc, params)
        assert np.min(rho) >= 1.0
        assert np.max(rho) <= 2.0


@pytest.fixture(scope="module")
def tilt_run(params):
    grid = make_grid(50.0, 1025)
    v0, u0 = initial_data_fields("w0_tilt", 0.05, 2.0, 0.5, params, grid)
    init = validate_hypotheses(v0, u0, grid, params)
    traj = picard_solve(init, grid, params, T_final=0.5, dt=2e-3, tol=1e-9, stride=50)
    return grid, init, traj


class TestTraceIdentities:
    def test_wave_run_all_residuals_vanish(self, params, small_init_traj=None):
        grid = make_grid(50.0, 513)
        v0, u0 = initial_data_fields("none", 0.0, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        traj = picard_solve(init, grid, params, T_final=0.2, dt=2e-3, tol=1e-9, stride=20)
        rep = trace_identities(traj, init, grid, params, traj.stored_idx.size - 1)
        assert abs(rep.g1_at0) <= 1e-9
        assert abs(rep.residual_value) <= 1e-9
        assert abs(rep.residual_slope) <= 1e-9

    def test_tilted_run_value_identity(self, params, tilt_run):
        grid, init, traj = tilt_run
        for idx in range(traj.stored_idx.size):
            rep = trace_identities(traj, init, grid, params, idx)
            assert abs(rep.residual_value) <= 5e-4
            assert rep.t2 >= 0.0

    def test_tilted_run_slope_identity(self, params, tilt_run):
        grid, init, traj = tilt_run
        rep = trace_identities(traj, init, grid, params, traj.stored_idx.size - 1)
        scale = max(abs(rep.dx_g1_at0), 1e-3)
        assert abs(rep.residual_slope) <= 0.05 * scale

    def test_evaluators_built_once_per_datum(self, params, tilt_run, monkeypatch):
        # the datum builds the w0' and w0'' evaluators on the first trace
        # read: two builds across all stored indices, none while no trace is read
        grid, init, traj = tilt_run
        indices = range(traj.stored_idx.size)
        singles = [trace_identities(traj, init, grid, params, i) for i in indices]
        builds = []
        original = discrete_ops.monotone_interpolator

        def counting(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(freeboundary, "monotone_interpolator", counting)
        fresh = replace(traj, init=replace(init))
        initial_energy(fresh.init, grid, params)
        energy_report(fresh, fresh.init, grid, params, 0.5)
        assert builds == []
        assert [trace_identities(fresh, fresh.init, grid, params, i) for i in indices] == singles
        assert len(singles) > 2 and len(builds) == 2

    @pytest.mark.parametrize("t_index", [99, -1, 2.5, [0, 5], [1.0, 2], True, False])
    def test_index_outside_the_stored_rows_rejected(self, synthetic_run, t_index):
        traj = synthetic_run(257, np.arange(5))
        with pytest.raises(ValidationError, match="stored-time index"):
            trace_identities(traj, traj.init, traj.init.grid, traj.init.params, t_index)

    def test_numpy_integer_indices_accepted(self, synthetic_run):
        traj = synthetic_run(257, np.arange(5))
        args = (traj, traj.init, traj.init.grid, traj.init.params)
        assert trace_identities(*args, np.int64(4)) == trace_identities(*args, 4)

    def test_second_order_identity_bounded(self, params, tilt_run):
        grid, init, traj = tilt_run
        rep = trace_identities(traj, init, grid, params, traj.stored_idx.size - 1)
        assert np.isfinite(rep.residual_second_order)


class TestBootstrapMonitor:
    def test_exact_wave_passes(self, params):
        t = np.linspace(0.0, 5.0, 501)
        path = make_path(t, np.full(t.size, params.s))
        rep = bootstrap_monitor(path, params, delta=0.05)
        assert rep["pass_half_delta"]
        assert rep["max_running_h1"] <= 1e-12

    def test_constructed_violation_fails(self, params):
        t = np.linspace(0.0, 5.0, 501)
        path = make_path(t, np.full(t.size, params.s + 0.05))
        rep = bootstrap_monitor(path, params, delta=0.05)
        assert not rep["pass_half_delta"]

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0, -0.05])
    def test_rejects_bad_delta(self, params, delta):
        t = np.linspace(0.0, 1.0, 11)
        path = make_path(t, np.full(t.size, params.s))
        with pytest.raises(ValidationError, match="delta must be finite and positive"):
            bootstrap_monitor(path, params, delta=delta)

    def test_running_norm_is_monotone(self, params, rng):
        t = np.linspace(0.0, 2.0, 201)
        path = make_path(t, params.s + 0.01 * np.abs(np.sin(3 * t)) + 1e-3)
        rep = bootstrap_monitor(path, params, delta=0.5)
        assert np.all(np.diff(rep["running_h1"]) >= -1e-15)


class TestAppendixInequalities:
    def test_shifted_weight_zero_function(self, params):
        g = make_grid(20.0, 501)
        t = np.linspace(0.0, 2.0, 101)
        path = make_path(t, np.ones(101))
        res = shifted_weight_inequality(np.zeros(g.n), path, 1.0, g)
        assert res["lhs"] == 0.0
        assert res["rhs"] == 0.0

    def test_shifted_weight_exponential_closed_form(self, params):
        # straight path at unit speed: rhs = M int z e^{-2z} dz = M/4; at
        # M = 1 the bound saturates as T grows, so check with a margin
        g = make_grid(30.0, 2001)
        t = np.linspace(0.0, 20.0, 2001)
        path = make_path(t, np.ones(t.size))
        res = shifted_weight_inequality(np.exp(-g.x), path, 1.2, g)
        assert res["rhs"] == pytest.approx(1.2 / 4.0, rel=1e-4)
        assert res["lhs"] <= res["rhs"]
        assert res["lhs"] == pytest.approx(0.25, rel=1e-3)

    def test_shifted_weight_random_instances(self, params, rng):
        g = make_grid(20.0, 401)
        t, weights = np.linspace(0.0, 3.0, 151), trapezoid_weights(g.x)
        for _ in range(100):
            M = rng.uniform(1.1, 4.0)
            F = rng.uniform(0.1, 2.0) * np.exp(-rng.uniform(0.3, 2.0) * g.x)
            path = make_path(t, rng.uniform(1.0 / M, M, t.size))
            res = shifted_weight_inequality(F, path, M, g)
            assert res["lhs"] <= res["rhs"] * (1 + 1e-12)
            # the inner integral row by row, the rule in x once per time
            shifted = discrete_ops.shift_sample(
                discrete_ops.monotone_interpolator(F, g, 0.0), path.y)
            inner = np.array([integrate(row**2, weights) for row in shifted])
            assert res["lhs"] == float(np.trapezoid(inner, path.t))

    def test_shifted_weight_builds_one_interpolant(self, monkeypatch):
        builds = []
        original = discrete_ops.monotone_interpolator

        def counting(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(discrete_ops, "monotone_interpolator", counting)
        monkeypatch.setattr(diagnostics, "monotone_interpolator", counting)
        g = make_grid(20.0, 401)
        counts = []
        for nodes in (11, 151):
            builds.clear()
            t = np.linspace(0.0, 3.0, nodes)
            shifted_weight_inequality(np.exp(-g.x), make_path(t, np.ones(nodes)), 1.5, g)
            counts.append(len(builds))
        assert counts == [1, 1]

    def test_shifted_weight_rejects_slow_path(self, params):
        g = make_grid(20.0, 401)
        t = np.linspace(0.0, 3.0, 151)
        path = make_path(t, np.full(t.size, 0.1))
        with pytest.raises(Exception, match="t/M"):
            shifted_weight_inequality(np.exp(-g.x), path, 2.0, g)

    def test_path_difference_identical_paths(self, params):
        g = make_grid(20.0, 401)
        t = np.linspace(0.0, 2.0, 101)
        p = make_path(t, np.ones(t.size))
        w0 = params.u_plus + np.exp(-g.x)
        res = path_difference_inequality(w0, p, p, 2.0, g)
        assert res["lhs_L2"] == 0.0

    def test_path_difference_constant_w0(self, params, rng):
        g = make_grid(20.0, 401)
        t = np.linspace(0.0, 2.0, 101)
        p1 = make_path(t, rng.uniform(0.5, 2.0, t.size))
        p2 = make_path(t, rng.uniform(0.5, 2.0, t.size))
        res = path_difference_inequality(np.full(g.n, params.u_plus), p1, p2, 2.0, g)
        assert res["lhs_L2"] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("t2", [np.linspace(0.0, 1.0, 101), np.linspace(0.0, 2.0, 51)])
    def test_path_difference_rejects_paths_on_other_meshes(self, params, t2):
        # both L2(0, T) norms integrate on one mesh: equal lengths on another
        # interval used to pass, unequal lengths to raise numpy's ValueError
        g = make_grid(20.0, 401)
        p1 = make_path(np.linspace(0.0, 2.0, 101), np.ones(101))
        p2 = make_path(t2, np.ones(t2.size))
        w0 = params.u_plus + np.exp(-g.x)
        with pytest.raises(ValidationError, match="one time mesh"):
            path_difference_inequality(w0, p1, p2, 2.0, g)

    @pytest.mark.parametrize("M", [0.0, -1.0, np.nan, np.inf])
    def test_inequalities_reject_a_bad_constant(self, params, M):
        g = make_grid(10.0, 101)
        t = np.linspace(0.0, 1.0, 11)
        path = make_path(t, np.ones(t.size))
        with pytest.raises(ValidationError, match="M must be finite and positive"):
            shifted_weight_inequality(np.exp(-g.x), path, M, g)
        with pytest.raises(ValidationError, match="M must be finite and positive"):
            path_difference_inequality(np.exp(-g.x), path, path, M, g)

    def test_path_difference_random_instances(self, params, rng):
        g = make_grid(20.0, 401)
        t = np.linspace(0.0, 2.0, 101)
        for _ in range(100):
            M = rng.uniform(1.2, 3.0)
            w0 = params.u_plus + rng.uniform(0.05, 0.5) * np.exp(-rng.uniform(0.4, 2.0) * g.x)
            p1 = make_path(t, rng.uniform(1.0 / M, M, t.size))
            p2 = make_path(t, rng.uniform(1.0 / M, M, t.size))
            res = path_difference_inequality(w0, p1, p2, M, g)
            assert res["lhs_L2"] <= res["rhs_L2"] * (1 + 1e-12)


@pytest.fixture(scope="module")
def bump_run(params):
    grid = make_grid(50.0, 1025)
    v0, u0 = initial_data_fields("gaussian_bump", 1e-2, 2.0, 0.5, params, grid)
    init = validate_hypotheses(v0, u0, grid, params)
    traj = picard_solve(init, grid, params, T_final=0.5, dt=2e-3, tol=1e-9, stride=25)
    return grid, init, traj


class TestEnergies:
    def test_wave_initial_energy_negligible(self, params):
        grid = make_grid(50.0, 2049)
        v0, u0 = initial_data_fields("none", 0.0, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        assert initial_energy(init, grid, params) <= 1e-12

    def test_wave_run_energies_negligible(self, params):
        grid = make_grid(50.0, 513)
        v0, u0 = initial_data_fields("none", 0.0, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        traj = picard_solve(init, grid, params, T_final=0.2, dt=2e-3, tol=1e-9, stride=10)
        rep = energy_report(traj, init, grid, params, 0.2)
        for name in ("e0", "e1", "e2", "e3", "e4", "e5"):
            assert getattr(rep, name) <= 1e-12

    def test_energy_decomposition_identity(self, params, bump_run):
        grid, init, traj = bump_run
        rep = energy_report(traj, init, grid, params, 0.5)
        assert rep.horizon_total == pytest.approx(rep.initial_total + rep.beta_h1**2,
                                                  rel=1e-14)

    def test_energies_match_an_independent_recomputation(self, params, bump_run):
        # first energy levels of the volume (e1) and velocity (e4) from norm
        # calls on every stored row, with np.gradient as the time derivative
        grid, init, traj = bump_run
        rep = energy_report(traj, init, grid, params, 0.5)
        times = traj.stored_times
        assert times[-1] == pytest.approx(0.5)  # stride 25 divides the 250 steps
        dts = times[1] - times[0]

        def first_level(fields, background, dx_norm):
            F = fields - background
            Ft = np.gradient(F, dts, axis=0, edge_order=2)
            sup = max(norm(f, grid, NormKind.H1) ** 2 for f in F)
            dx_sq = [norm(derivative(f, grid, 1), grid, dx_norm) ** 2 for f in F]
            dt_sq = [norm(ft, grid, NormKind.L2) ** 2 for ft in Ft]
            return sup + np.trapezoid(dx_sq, dx=dts) + np.trapezoid(dt_sq, dx=dts)

        assert rep.e1 == pytest.approx(first_level(traj.v, traj.init.wave.v_bar, NormKind.L2),
                                       rel=1e-13)
        assert rep.e4 == pytest.approx(first_level(traj.u, traj.init.wave.u_bar, NormKind.H1),
                                       rel=1e-13)

    def test_energies_positive_for_perturbation(self, params, bump_run):
        grid, init, traj = bump_run
        rep = energy_report(traj, init, grid, params, 0.5)
        assert rep.initial_total > 0.0
        assert rep.e0 > 0.0
        assert all(np.isfinite(getattr(rep, f)) for f in
                   ("e0", "e1", "e2", "e3", "e4", "e5"))

    def test_speed_deviation_norm_at_time_zero_is_zero(self, params, bump_run):
        # the H1(0, 0) norm of the speed deviation is over an empty interval
        grid, init, traj = bump_run
        assert energy_report(traj, init, grid, params, 0.0).beta_h1 == 0.0

    def test_beta_h1_is_the_monitors_running_norm(self, params, bump_run):
        # one definition of the speed deviation's H1 norm: at every stored
        # time the energy report reads the running norm the monitor gates on
        grid, init, traj = bump_run
        running = bootstrap_monitor(traj.path, params, 0.05)["running_h1"]
        for step in traj.stored_idx:
            rep = energy_report(traj, init, grid, params, traj.t[step])
            assert rep.beta_h1 == running[step]

    @pytest.mark.parametrize("t", [np.nan, -1.0])
    def test_energy_report_rejects_bad_time(self, params, bump_run, t):
        grid, init, traj = bump_run
        with pytest.raises(ValidationError, match="non-negative time"):
            energy_report(traj, init, grid, params, t)

    def test_l1_diagnostic_reports_modest_constant(self, params, bump_run):
        from congested_ns.diagnostics import l1_bound_report

        grid, init, traj = bump_run
        rep = l1_bound_report(traj, init, grid, params)
        assert rep["sup_l1_deviation"] > 0.0
        assert rep["rhs_factor"] > 0.0
        assert rep["measured_constant"] <= 1.0  # logged constant, not asserted by design

    def test_growth_estimate_bound_holds(self, params, bump_run):
        grid, init, traj = bump_run
        rep = energy_report(traj, init, grid, params, 0.5)
        assert rep.growth_lhs >= 0.0
        assert rep.growth_constant <= 1.0  # bound holds with constant 1 here
        assert np.isfinite(rep.growth_constant_plain)

    def test_growth_estimate_drops_an_unaligned_final_snapshot(self, params, bump_run):
        # stride 60 stores t = 0, 0.12, ..., 0.48 and the final 0.5; the time
        # norms run over the uniform stored times, as the energies do
        grid, init, traj = bump_run
        coarse = picard_solve(init, grid, params, T_final=0.5, dt=2e-3, tol=1e-9, stride=60)
        rep = energy_report(coarse, init, grid, params, 0.5)
        assert rep.horizon == pytest.approx(0.48, abs=1e-12)
        aligned = energy_report(traj, init, grid, params, 0.5)
        assert aligned.horizon == pytest.approx(0.5, abs=1e-12)
        assert rep.growth_constant_plain == pytest.approx(aligned.growth_constant_plain,
                                                          rel=5e-3)

    def test_growth_estimate_builds_no_interpolant(self, params, bump_run, monkeypatch):
        grid, init, traj = bump_run
        builds = []
        original = discrete_ops.monotone_interpolator

        def counting(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(discrete_ops, "monotone_interpolator", counting)
        monkeypatch.setattr(diagnostics, "monotone_interpolator", counting)
        energy_report(traj, init, grid, params, 0.5)
        assert builds == []


def _whole_history_energies(traj, init, grid, params, t):
    """energy_report's arithmetic for its energy fields on whole stored-time
    x node histories, one stored row at a time: the oracle of the row-block
    pass."""
    prof = traj.init.wave
    m, dts = diagnostics._uniform_prefix(traj, t)
    ydots = traj.ydot[traj.stored_idx[:m]]
    dx, weights = grid.dx, trapezoid_weights(grid.x)

    def sq(fields):
        return [integrate(f**2, weights) for f in fields]

    G = traj.v[:m] - prof.v_bar
    Gt = time_derivative(G, dts)
    Gtt = time_derivative(Gt, dts)
    g_sq = np.empty((9, m))
    V0_sq = np.empty(m)
    for i in range(m):
        V = tail_integral(traj.v[i] - prof.v_bar, grid)
        V0_sq[i] = V[0] ** 2
        gxx = stencil_derivative(G[i], dx, 2)
        g_sq[:, i] = sq((V, G[i], stencil_derivative(G[i], dx, 1), gxx,
                         stencil_derivative(gxx, dx, 1), Gt[i], stencil_derivative(Gt[i], dx, 1),
                         stencil_derivative(Gt[i], dx, 2), Gtt[i]))
    V_sq, g, gx, gxx, gxxx, gt, gtx, gtxx, gtt = g_sq

    H = traj.u[:m] - prof.u_bar
    Ht = time_derivative(H, dts)
    Htt = time_derivative(Ht, dts)
    h_sq = np.empty((7, m))
    for i in range(m):
        hx = stencil_derivative(H[i], dx, 1)
        h_sq[:, i] = sq((H[i], hx, stencil_derivative(hx, dx, 1), Ht[i],
                         stencil_derivative(Ht[i], dx, 1), stencil_derivative(Ht[i], dx, 2),
                         Htt[i]))
    h, hx, hxx, ht, htx, htxx, htt = h_sq

    n_path = int(traj.t.searchsorted(t + 1e-12, side="right"))
    beta_h1 = running_h1_norm(traj.t, traj.ydot - params.s)[n_path - 1]
    total0 = initial_energy(init, grid, params)
    return dict(
        e0=float(np.max(V_sq + ydots * V0_sq) + np.trapezoid(g, dx=dts)),
        e1=float(np.max(g + gx) + np.trapezoid(gx, dx=dts) + np.trapezoid(gt, dx=dts)),
        e2=float(np.max(gt + gxx) + np.trapezoid(gtx, dx=dts)),
        e3=float(np.max(gtx + gxxx) + np.trapezoid(gtt, dx=dts)
                 + np.trapezoid(gtxx, dx=dts)),
        e4=float(np.max(h + hx) + np.trapezoid(hx + hxx, dx=dts) + np.trapezoid(ht, dx=dts)),
        e5=float(np.max(htx) + np.trapezoid(htt, dx=dts) + np.trapezoid(htxx, dx=dts)),
        initial_total=total0, horizon_total=total0 + beta_h1**2, beta_h1=float(beta_h1),
    )


def _whole_history_growth(traj, init, grid, params):
    """energy_report's arithmetic for its growth fields at the final time on
    whole stored-time x node histories, one stored row at a time: the oracle
    of the row-block pass."""
    prof = traj.init.wave
    m, dts = diagnostics._uniform_prefix(traj, traj.t[-1])
    dvbar, weights = prof.dv_bar, trapezoid_weights(grid.x)
    G = traj.v[:m] - prof.v_bar
    Gt = time_derivative(G, dts)
    sq = np.empty((4, m))
    for i, step in enumerate(traj.stored_idx[:m]):
        src = init.source_eval.shifted(traj.y[step]) + (traj.ydot[step] - params.s) * dvbar
        sq[:, i] = [integrate(f**2, weights) for f in
                    (G[i], stencil_derivative(G[i], grid.dx, 1), Gt[i], src)]
    g_sq, dxg_sq, dtg_sq, src_sq = sq

    T = float(traj.stored_times[m - 1])
    lhs = float(np.sqrt(np.max(g_sq + dxg_sq)) + np.sqrt(np.trapezoid(dtg_sq, dx=dts))
                + np.sqrt(np.trapezoid(dxg_sq, dx=dts)))
    base = float(np.sqrt(g_sq[0] + dxg_sq[0])) + float(np.sqrt(np.trapezoid(src_sq, dx=dts)))
    envelope = float(np.exp((1.0 + float(np.max(np.abs(dvbar))) ** 2) * T))
    plain_base = base + float(np.sqrt(np.trapezoid(g_sq, dx=dts)))
    return {"lhs": lhs, "rhs_exponential_factor": base * envelope,
            "measured_constant": lhs / (base * envelope),
            "rhs_plain_factor": plain_base, "measured_constant_plain": lhs / plain_base,
            "horizon": T}


B = ROW_BLOCK
# (stored steps, the stored row of the report time or None for the last step,
# the synthetic_run deviation shape)
ROW_CASES = {
    **{f"{m}_rows": (np.arange(m), None, "bump") for m in (1, 2, 3, 4, B - 1, B, B + 1,
                                                          2 * B + 3)},
    # a prefix ending inside the second block, then the stride-60 bump run's
    # stored steps, whose final snapshot is off the spacing and dropped
    "prefix": (np.arange(2 * B + 3), B + 2, "bump"),
    "stride_60": (np.array([0, 60, 120, 180, 240, 250]), None, "bump"),
    # heads of every kind: just the halo, the whole grid, one far node of the
    # datum's row only; and two rows of a deviation growing linearly
    **{f"head_{shape}": (np.arange(B + 2), None, shape) for shape in ("wave", "edge", "row0")},
    "2_rows_growing": (np.array([0, 10]), None, "growing"),
}


# EnergyReport's growth fields by the names _whole_history_growth gives them
GROWTH_FIELDS = {"growth_lhs": "lhs", "growth_rhs": "rhs_exponential_factor",
                 "growth_constant": "measured_constant", "growth_rhs_plain": "rhs_plain_factor",
                 "growth_constant_plain": "measured_constant_plain", "horizon": "horizon"}


def _per_row_deviations(traj) -> dict[str, list[float]]:
    """Trajectory.deviations by norm of one stored row at a time, the
    reconstruction residual against its own one-shift target."""
    init, grid, wave = traj.init, traj.init.grid, traj.init.wave
    out = {key: [] for key in ("v_l1", "v_l2", "v_h1", "v_linf", "u_l2", "u_linf",
                               "reconstruction")}
    for i, step in enumerate(traj.stored_idx):
        g, h = traj.v[i] - wave.v_bar, traj.u[i] - wave.u_bar
        for key, f, kind in (("v_l1", g, NormKind.L1), ("v_l2", g, NormKind.L2),
                             ("v_h1", g, NormKind.H1), ("v_linf", g, NormKind.LINF),
                             ("u_l2", h, NormKind.L2), ("u_linf", h, NormKind.LINF)):
            out[key].append(norm(f, grid, kind))
        w_s = effective_velocity_about_wave(traj.u[i], traj.v[i], grid, init.params, wave)
        target = shift_sample(init.w0_eval, traj.y[step])
        out["reconstruction"].append(norm(w_s - target, grid, NormKind.L2))
    return out


class TestRowBlockPass:
    """The certificates walk the stored history ROW_BLOCK rows at a time and
    give, bit for bit, what the whole-history arithmetic gives."""

    @pytest.mark.parametrize("rows, shape, u_plus", [
        # one block, a full block, and walks that cross a block boundary
        *(pytest.param(rows, "bump", 0.0, id=str(rows)) for rows in (1, B, B + 1, 2 * B + 1)),
        # the head is just the halo, the whole grid, and reaches one far
        # node of the datum's row only
        *(pytest.param(B + 1, shape, 0.0, id=shape) for shape in ("wave", "edge", "row0")),
        # past the head the reconstruction integrand is u_plus - w0(x + y)
        pytest.param(B + 1, "bump", 0.5, id="u_plus"),
    ])
    def test_deviations_equal_per_row_norms(self, synthetic_run, params, rows, shape, u_plus):
        params = replace(params, u_minus=params.u_minus + u_plus, u_plus=u_plus)
        traj = synthetic_run(257, np.arange(rows) * 7, shape=shape, params=params)
        dev = traj.deviations
        assert {key: dev[key].tolist() for key in dev} == _per_row_deviations(traj)
        assert traj.deviations is dev
        with pytest.raises(ValueError, match="read-only"):
            dev["v_l2"][0] = 0.0

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_energy_report_equals_whole_history(self, synthetic_run, case):
        stored_idx, row_t, shape = ROW_CASES[case]
        traj = synthetic_run(257, stored_idx, shape=shape)
        t = traj.t[-1] if row_t is None else traj.stored_times[row_t]
        args = (traj, traj.init, traj.init.grid, traj.init.params)
        rep = asdict(energy_report(*args, t))
        oracle = _whole_history_energies(*args, t)
        assert {k: rep[k] for k in oracle} == oracle

    @pytest.mark.parametrize("case", ROW_CASES)
    def test_growth_estimate_equals_whole_history(self, synthetic_run, case):
        stored_idx, _, shape = ROW_CASES[case]
        traj = synthetic_run(257, stored_idx, shape=shape)
        args = (traj, traj.init, traj.init.grid, traj.init.params)
        rep = energy_report(*args, traj.t[-1])
        assert ({name: getattr(rep, field) for field, name in GROWTH_FIELDS.items()}
                == _whole_history_growth(*args))

    def test_two_rows_take_the_mean_slope(self, synthetic_run):
        # two stored rows of a deviation growing linearly from zero: both rows
        # take the slope (G[1] - G[0]) / dts, time_derivative's rule, so the
        # energies of the time derivatives are not zero
        traj = synthetic_run(257, [0, 10], shape="growing")
        grid, dts = traj.init.grid, traj.stored_times[1]
        rep = energy_report(traj, traj.init, grid, traj.init.params, traj.t[-1])
        G = traj.v - traj.init.wave.v_bar
        gt = norm((G[1] - G[0]) / dts, grid, NormKind.L2) ** 2
        g1, h1 = norm(G[1], grid, NormKind.L2) ** 2, norm(G[1], grid, NormKind.H1) ** 2
        assert gt > 0.0 and rep.e5 > 0.0
        # growth_lhs = sqrt(max(g + gx)) + sqrt(int gt) + sqrt(int gx), with
        # g = gx = 0 in the first row
        expected = np.sqrt(h1) + np.sqrt(dts * gt) + np.sqrt(dts * (h1 - g1) / 2.0)
        assert rep.growth_lhs == pytest.approx(expected, rel=1e-12)

    def test_deviation_integrals_sum_the_heads_intervals(self, synthetic_run, monkeypatch):
        # each block integrates its deviations over the head's P nodes, against
        # the head's own trapezoid weights; only the reconstruction target and
        # the growth bound's source, which are no deviations, take all n, and
        # every walk computes each of its two weight rows once
        traj = synthetic_run(257, np.arange(2 * B + 3))
        x, P, n, blocks = traj.init.grid.x, traj.head, traj.init.grid.n, 3
        assert HEAD_HALO < P < n
        calls = []

        def recording(F, weights):
            calls.append((F.shape[-1], weights))
            return discrete_ops.integrate(F, weights)

        for module in (freeboundary, diagnostics):
            monkeypatch.setattr(module, "integrate", recording)
        walks = {"deviations": (lambda: traj.deviations, [P, P, P, P, n] * blocks),
                 "energy_report": (lambda: energy_report(traj, traj.init, traj.init.grid,
                                                         traj.init.params, traj.t[-1]),
                                   ([P] * 9 + [n]) * blocks + [P] * 7 * blocks)}
        for name, (walk, expected) in walks.items():
            calls.clear()
            walk()
            assert [nodes for nodes, _ in calls] == expected, name
            assert len({id(weights) for _, weights in calls}) == 2, name
            for nodes, weights in calls:
                assert weights.tobytes() == trapezoid_weights(x[:nodes]).tobytes(), name

    def test_exact_front_growth_source_is_zero_without_whole_rows(self, params, monkeypatch):
        # on the exact front there is no source and ydot = s, so the growth
        # bound's source (ydot - s) vwave' is 0: energy_report writes 0 for
        # its norms instead of integrating whole rows of zeros, and reports
        # the bits it reports when the zeros are integrated, as they are
        # with a source evaluator that samples 0
        grid = make_grid(50.0, 257)
        v0, u0 = initial_data_fields("none", 0.0, 2.0, 0.5, params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        traj = picard_solve(init, grid, params, T_final=0.4, dt=1e-2, stride=2)
        assert init.source_eval is None and np.all(traj.ydot == params.s)
        zero_source = replace(init, source_eval=discrete_ops.monotone_interpolator(
            np.zeros(grid.n), grid, 0.0))
        integrated = replace(traj, init=zero_source)
        nodes = []

        def recording(F, weights):
            nodes.append(F.shape[-1])
            return discrete_ops.integrate(F, weights)

        monkeypatch.setattr(diagnostics, "integrate", recording)
        report = energy_report(traj, init, grid, params, traj.t[-1])
        assert grid.n not in nodes
        nodes.clear()
        expected = energy_report(integrated, zero_source, grid, params, traj.t[-1])
        assert grid.n in nodes
        assert asdict(report) == asdict(expected)

    def test_heads_past_the_pairwise_block_agree_with_whole_rows(self, synthetic_run):
        # a head of more than numpy's 128 pairwise terms: its sums group the
        # terms otherwise than the whole rows' do, within an ulp or two
        traj = synthetic_run(1025, np.arange(B + 3) * 7)
        assert 129 < traj.head < 1025
        dev, oracle = traj.deviations, _per_row_deviations(traj)
        for key in oracle:
            np.testing.assert_allclose(dev[key], oracle[key], rtol=1e-15, atol=0, err_msg=key)
        args = (traj, traj.init, traj.init.grid, traj.init.params)
        rep = asdict(energy_report(*args, traj.t[-1]))
        growth = _whole_history_growth(*args)
        expected = {**_whole_history_energies(*args, traj.t[-1]),
                    **{field: growth[name] for field, name in GROWTH_FIELDS.items()}}
        for key, value in expected.items():
            np.testing.assert_allclose(rep[key], value, rtol=1e-15, atol=0, err_msg=key)

    @pytest.mark.parametrize("shape", ["wave", "bump", "edge", "row0"])
    def test_head_spans_every_difference(self, synthetic_run, shape):
        traj = synthetic_run(257, np.arange(B + 2), shape=shape)
        wave = traj.init.wave
        differs = np.any(traj.v != wave.v_bar, axis=0) | np.any(traj.u != wave.u_bar, axis=0)
        last = np.nonzero(differs)[0].max() if differs.any() else -1
        assert traj.head == min(last + 1 + HEAD_HALO, 257)
        assert {"wave": traj.head == HEAD_HALO, "bump": HEAD_HALO < traj.head < 200,
                "edge": traj.head == 257, "row0": traj.head == 204 + 1 + HEAD_HALO}[shape]


@pytest.fixture(scope="module")
def front_sized_run(synthetic_run):
    # the stored history of steady_wave to T=4: 401 rows of 2049 nodes
    return synthetic_run(2049, np.arange(0, 4001, 10), dt=1e-3)


def _peak_above_live_mib(fn, *args) -> float:
    """Peak of the memory fn allocates above what is live when it is called."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - live) / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("certificate", ["energy_report", "reconstruction_residuals",
                                         "run_summary"])
def test_certificates_hold_no_whole_history(front_sized_run, certificate):
    # one whole-history array of this run is 6.3 MiB; the certificates walk
    # it in blocks, so they stay within 2 MiB of what is already live
    traj = front_sized_run
    args = (traj, traj.init, traj.init.grid, traj.init.params)
    calls = {
        "energy_report": (energy_report, *args, traj.t[-1]),
        "reconstruction_residuals": (reconstruction_residuals, *args),
        "run_summary": (cli._run_summary, traj,
                        bootstrap_monitor(traj.path, traj.init.params, 0.05), 1.0),
    }
    assert _peak_above_live_mib(*calls[certificate]) <= 2.0


# each post-solve certificate as called on a run, its datum, grid and params
_CERTIFICATES = {
    "energy_report": lambda *run: energy_report(*run, 0.06),
    "l1_bound_report": l1_bound_report,
    "trace_identities": lambda *run: trace_identities(*run, 1),
    "reconstruction_residuals": reconstruction_residuals,
    "assemble_solution": lambda traj, init, grid, params: assemble_solution(traj, grid, params, 1),
    "initial_energy": lambda traj, init, grid, params: initial_energy(init, grid, params),
}


class TestCertificateInputs:
    """A certificate of a run reads the run's own datum and setting; another
    one gave wrong values without an error."""

    @pytest.fixture(scope="class")
    def run(self, synthetic_run):
        return synthetic_run(513, [0, 10, 20, 30])

    @pytest.mark.parametrize("name", [name for name in _CERTIFICATES
                                      if name not in ("assemble_solution", "initial_energy")])
    def test_another_datum_is_rejected(self, params, run, name):
        grid = run.init.grid
        v0, u0 = initial_data_fields("w0_tilt", 0.05, 2.0, 0.5, params, grid)
        tilt = validate_hypotheses(v0, u0, grid, params)
        with pytest.raises(ValidationError, match="own datum"):
            _CERTIFICATES[name](run, tilt, grid, params)
        _CERTIFICATES[name](run, run.init, grid, params)

    @pytest.mark.parametrize("name", list(_CERTIFICATES))
    @pytest.mark.parametrize("other", ["R", "params"])
    def test_another_setting_is_rejected(self, params, run, name, other):
        grid, run_params = run.init.grid, params
        if other == "R":
            grid = make_grid(40.0, 513)
        else:
            run_params = PhysicalParams(mu=1.3, v_plus=2.0, u_minus=1.0, u_plus=0.0)
        with pytest.raises(ValidationError, match="validated on"):
            _CERTIFICATES[name](run, run.init, grid, run_params)


def test_write_diagnostic_records(tmp_path):
    records = [{"t": 0.0, "check": "demo", "lhs": 1.0, "rhs": 2.0, "gap": 1.0, "pass": True}]
    out = tmp_path / "records.jsonl"
    write_diagnostic_records(out, records)
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    decoded = json.loads(lines[0])
    assert decoded["check"] == "demo"
    assert decoded["pass"] is True
