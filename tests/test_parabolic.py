import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from congested_ns.core import PhysicalParams, ValidationError, make_grid
from congested_ns.discrete_ops import stencil_derivative
from congested_ns.parabolic import (
    MaximumPrincipleViolated,
    RegularizedLog,
    TridiagonalSolveError,
    _solve_tridiagonal,
    linear_parabolic_step,
    step_u,
    step_v,
    truncation_mollifier,
)
from congested_ns.profiles import traveling_wave, wave_u, wave_v
from conftest import run_python


def interior_flux_balance(state, new, a, b, grid, dt):
    """Mass change of the interior vs. net boundary flux for one step.

    With f = 0 the implicit step conserves sum(dx * h) up to the flux
    difference through the first and last faces; both numbers are returned
    so the telescoping can be asserted to roundoff.
    """
    dx = grid.dx
    a_face = 0.5 * (a[:-1] + a[1:])
    flux = b * 0.5 * (new[:-1] + new[1:]) - a_face * (new[1:] - new[:-1]) / dx
    mass_change = float(np.sum(dx * (new[1:-1] - state[1:-1])))
    net_inflow = float(dt * (flux[0] - flux[-1]))
    return mass_change, net_inflow


@pytest.fixture(scope="module")
def reg():
    return RegularizedLog(4.0)


class TestRegularizedLog:
    def test_matches_log_on_core(self, reg):
        val, slope = reg(1.0)
        assert val == pytest.approx(0.0, abs=1e-15)
        assert slope == pytest.approx(1.0)
        val, slope = reg(np.e)
        assert val == pytest.approx(1.0, rel=1e-14)
        assert slope == pytest.approx(1.0 / np.e, rel=1e-14)

    def test_function_is_c1_across_junctions(self, reg):
        eps = 1e-9
        junctions = [0.25, 0.5, reg.bar_c, 2.0 * reg.bar_c]
        for xj in junctions:
            v_lo, s_lo = reg(xj - eps)
            v_hi, s_hi = reg(xj + eps)
            assert abs(v_hi - v_lo) < 1e-7
            assert abs(s_hi - s_lo) < 1e-6

    def test_slope_is_derivative_of_value(self, reg):
        # central quotient on a piece without slope kinks
        for x in (0.3, 0.7, 2.0, 5.0, 9.0):
            h = 1e-6
            v_lo, _ = reg(x - h)
            v_hi, _ = reg(x + h)
            _, slope = reg(x)
            assert (v_hi - v_lo) / (2 * h) == pytest.approx(slope, rel=1e-6, abs=1e-8)

    def test_nan_gives_nan(self, reg):
        x = np.array([np.nan, 1.0, np.nan, 0.3, 9.0])
        val, slope = reg(x)
        assert np.isnan(val[[0, 2]]).all() and np.isnan(slope[[0, 2]]).all()
        assert np.isfinite(val[[1, 3, 4]]).all() and np.isfinite(slope[[1, 3, 4]]).all()
        val, slope = reg(np.full(4, np.nan))
        assert np.isnan(val).all() and np.isnan(slope).all()
        val, slope = reg(float("nan"))
        assert np.isnan(val) and np.isnan(slope)

    @pytest.mark.parametrize("x", [1.5, 0.3, 20.0, float("nan")])
    def test_scalar_gives_zero_dimensional_arrays(self, reg, x):
        for out in reg(x):
            assert type(out) is np.ndarray and out.shape == ()

    @given(x=st.lists(st.floats(1.0 - 1e-9, 4.0 + 1e-9), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_is_np_log_and_reciprocal_bit_for_bit(self, reg, x):
        # the log is np.log and its slope 1/x, bit for bit, on the range
        # step_v admits, and they are written into the pair given as out
        x = np.array(x + [1.0 - 1e-9, reg.bar_c + 1e-9])
        out = np.empty_like(x), np.empty_like(x)
        val, slope = reg(x, out)
        assert val is out[0] and slope is out[1]
        assert val.tobytes() == np.log(x).tobytes()
        assert slope.tobytes() == (1.0 / x).tobytes()

    @pytest.mark.parametrize("bar_c", [1.0, 0.5, -2.0, np.nan, np.inf, 1e308])
    def test_rejects_bad_cap(self, bar_c):
        with pytest.raises(ValidationError, match="bar_c must exceed 1, with 2 bar_c finite"):
            RegularizedLog(bar_c)


class TestLinearParabolicStep:
    def test_eigenfunction_decay(self):
        R, dt = 4.0, 0.05
        g = make_grid(R, 401)
        state = np.sin(np.pi * g.x / R)
        out = linear_parabolic_step(state, np.ones(g.n), 0.0, np.zeros(g.n), g, dt)
        # the sine mode is an exact eigenvector of the discrete operator
        lam_h = (2.0 - 2.0 * np.cos(np.pi * g.dx / R)) / g.dx**2
        np.testing.assert_allclose(out, state / (1.0 + dt * lam_h), rtol=0, atol=1e-12)
        # and the continuum decay factor is matched to O(dx^2)
        np.testing.assert_allclose(
            out, state / (1.0 + dt * (np.pi / R) ** 2), rtol=0, atol=5.0 * g.dx**2
        )

    def test_matches_dense_solve_of_flux_form(self, rng):
        # the implicit step of d_t h + b d_x h - d_x(a d_x h) = f, h = 0 at the
        # ends, written row by row from the face fluxes F = b h - a d_x h
        g = make_grid(4.0, 61)
        dt, b = 0.03, -0.8
        a = 1.0 + 0.5 * np.sin(g.x) + 0.1 * rng.random(g.n)
        f = np.cos(2.0 * g.x) + 0.1 * rng.normal(size=g.n)
        state = np.exp(-((g.x - 2.0) ** 2)) + 0.01 * rng.normal(size=g.n)

        def flux(i):  # F_{i+1/2} as a row acting on h_0 .. h_{n-1}
            row = np.zeros(g.n)
            a_face = 0.5 * (a[i] + a[i + 1])
            row[i] = 0.5 * b + a_face / g.dx
            row[i + 1] = 0.5 * b - a_face / g.dx
            return row

        matrix = np.zeros((g.n, g.n))
        for i in range(1, g.n - 1):
            matrix[i] = (flux(i) - flux(i - 1)) / g.dx
            matrix[i, i] += 1.0 / dt
        expected = np.zeros(g.n)  # h_0 = h_{n-1} = 0: the boundary columns drop out
        expected[1:-1] = np.linalg.solve(matrix[1:-1, 1:-1], state[1:-1] / dt + f[1:-1])
        out = linear_parabolic_step(state, a, b, f, g, dt)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_interior_mass_balance_telescopes(self, rng):
        g = make_grid(6.0, 301)
        a = 1.0 + 0.5 * np.sin(g.x)
        b = 0.3
        state = np.exp(-((g.x - 3.0) ** 2)) + 0.01 * rng.normal(size=g.n)
        out = linear_parabolic_step(state, a, b, np.zeros(g.n), g, 0.02)
        mass_change, net_inflow = interior_flux_balance(state, out, a, b, g, 0.02)
        assert mass_change == pytest.approx(net_inflow, rel=1e-11, abs=1e-13)

    def test_rejects_nonpositive_diffusion(self):
        g = make_grid(1.0, 33)
        with pytest.raises(ValidationError, match="diffusion"):
            linear_parabolic_step(np.zeros(g.n), np.zeros(g.n), 0.0, np.zeros(g.n), g, 0.1)

    @pytest.mark.parametrize("name", ["a", "b", "f"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_raises_typed_error(self, name, bad):
        g = make_grid(1.0, 33)
        coeffs = {"a": np.ones(g.n), "b": 0.5, "f": np.ones(g.n)}
        if name == "b":
            coeffs["b"] = bad
        else:
            coeffs[name][10] = bad
        with np.errstate(all="ignore"), \
                pytest.raises((ValidationError, TridiagonalSolveError)):
            linear_parabolic_step(np.zeros(g.n), coeffs["a"], coeffs["b"], coeffs["f"], g, 0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.1])
    def test_rejects_bad_dt(self, dt):
        g = make_grid(1.0, 33)
        with pytest.raises(ValidationError, match="dt must be finite and positive"):
            linear_parabolic_step(np.zeros(g.n), np.ones(g.n), 0.0, np.zeros(g.n), g, dt)

    def test_rejects_coefficient_of_wrong_shape(self):
        g = make_grid(1.0, 33)
        for a, f in ((np.ones(g.n + 1), np.zeros(g.n)), (1.0, np.zeros(g.n)),
                     (np.ones(g.n), np.zeros(g.n - 1)), (np.ones(g.n), 0.0)):
            with pytest.raises(ValidationError, match="shape"):
                linear_parabolic_step(np.zeros(g.n), a, 0.0, f, g, 0.1)

    def test_homogeneous_l2_decay_with_transport(self, rng):
        # with f=0 the step may grow the norm only through transport,
        # by at most a (1 + C dt) factor
        g = make_grid(6.0, 301)
        dt = 0.01
        b = 0.5
        state = np.exp(-((g.x - 3.0) ** 2))
        out = linear_parabolic_step(state, np.ones(g.n), b, np.zeros(g.n), g, dt)
        n0 = np.sqrt(np.trapezoid(state**2, g.x))
        n1 = np.sqrt(np.trapezoid(out**2, g.x))
        growth_cap = 1.0 + dt * b**2  # measured transport constant C = b^2
        assert n1 <= n0 * growth_cap


class TestStepV:
    def test_wave_is_discrete_steady_state(self, params, grid, wave, reg):
        out = step_v(wave.v_bar.copy(), params.s, 0.0, grid, 1e-3, reg, params, wave)
        assert np.max(np.abs(out - wave.v_bar)) <= 1e-11

    def test_manufactured_steady_state_stays_steady(self, params):
        # the line from v(0) = 1 to the wave's v(R) solves the equation with
        # the source -ydot v' - mu (ln v)''; the wave-anchored scheme keeps a
        # state other than the wave steady up to dt * dx^2
        g = make_grid(5.0, 2001)
        prof = traveling_wave(params, g)
        ydot, slope = 0.7, (prof.v_bar[-1] - 1.0) / g.R
        v = 1.0 + slope * g.x
        source = -ydot * slope + params.mu * slope**2 / v**2
        out = step_v(v, ydot, source, g, 1e-5, RegularizedLog(4.0), params, prof)
        assert np.max(np.abs(out - v)) <= 1e-9

    def test_small_perturbation_decays_toward_wave(self, params, reg):
        g = make_grid(50.0, 513)
        prof = traveling_wave(params, g)
        bump = 0.01 * g.x * np.exp(-g.x)
        v = prof.v_bar + bump
        v[0] = 1.0
        dt = 1e-2
        out = step_v(v.copy(), params.s, 0.0, g, dt, reg, params, prof)
        # reference: many tiny steps over the same horizon
        ref = v.copy()
        for _ in range(100):
            ref = step_v(ref, params.s, 0.0, g, dt / 100.0, reg, params, prof)
        d0 = np.sqrt(np.trapezoid((v - prof.v_bar) ** 2, g.x))
        d1 = np.sqrt(np.trapezoid((out - prof.v_bar) ** 2, g.x))
        dref = np.sqrt(np.trapezoid((ref - prof.v_bar) ** 2, g.x))
        assert d1 < d0
        assert d1 == pytest.approx(dref, rel=0.02)

    def test_guess_within_newton_tol_gets_one_newton_update(self, params, reg):
        # on the wave a speed off s leaves only the transport source in the
        # first residual, here inside (0, 1e-10]: the step still takes its
        # one linearized update instead of returning the guess, and takes it
        # the same way on every call
        g = make_grid(50.0, 513)
        prof = traveling_wave(params, g)
        dt, ydot = 1e-3, params.s + 1e-8
        first = float(np.max(np.abs((dt * (ydot - params.s)) * prof.dv_bar[1:-1])))
        assert 0.0 < first <= 1e-10
        out = step_v(prof.v_bar, ydot, 0.0, g, dt, reg, params, prof)
        assert np.any(out != prof.v_bar)
        one_update = step_v(prof.v_bar, ydot, 0.0, g, dt, reg, params, prof)
        assert out.tobytes() == one_update.tobytes()

    def test_update_is_a_linearization_of_the_implicit_step(self, params, reg):
        # the implicit-Euler equation of the deviation g = v - vwave, written
        # out: g_new - g_old - dt ydot D0 g_new - dt mu D2 (a(v_new) - ln vwave)
        # - dt (ydot - s) vwave' = 0 on the interior.  One update with the
        # exact slope leaves a residual quadratic in the perturbation: 10x
        # smaller bumps leave about 100x less (a wrong slope, about 10x)
        g = make_grid(50.0, 513)
        prof = traveling_wave(params, g)
        dt, ydot = 1e-2, params.s

        def implicit_residual(new, old):
            d_new, d_old = new - prof.v_bar, old - prof.v_bar
            q = reg(new)[0] - prof.log_v_bar
            return (d_new[1:-1] - d_old[1:-1]
                    - dt * ydot * (d_new[2:] - d_new[:-2]) / (2.0 * g.dx)
                    - dt * params.mu * (q[2:] - 2.0 * q[1:-1] + q[:-2]) / g.dx**2
                    - dt * (ydot - params.s) * prof.dv_bar[1:-1])

        left = {}
        for amplitude in (2e-2, 2e-3):
            v = prof.v_bar + amplitude * np.exp(-((g.x - 3.0) / 0.7) ** 2)
            v[0] = 1.0
            out = step_v(v, ydot, 0.0, g, dt, reg, params, prof)
            before = np.max(np.abs(implicit_residual(v, v)))
            left[amplitude] = np.max(np.abs(implicit_residual(out, v)))
            assert left[amplitude] < 1e-3 * before
        assert left[2e-2] >= 50.0 * left[2e-3]

    def test_maximum_principle_guard_trips(self, params, grid, wave):
        # the wave is an admissible input under the cap v_plus = 2, and a
        # strong source drives the result out of [1, bar_c]: above the cap,
        # or below 1 next to the congested end
        tight = RegularizedLog(params.v_plus)
        for source in (100.0, -100.0):
            with pytest.raises(MaximumPrincipleViolated, match="v left \\[1, bar_c\\]"):
                step_v(wave.v_bar.copy(), params.s, source, grid, 1e-3, tight, params, wave)

    @pytest.mark.parametrize("node,value", [(1, 1.0 - 2e-9), (1, 0.5), (1000, 4.0 + 2e-9),
                                            (1000, 40.0), (1000, -np.inf)])
    def test_rejects_input_outside_the_maximum_principle(self, params, grid, wave, reg,
                                                         node, value):
        # the step admits exactly the range it returns, [1, bar_c] within 1e-9
        v = wave.v_bar.copy()
        v[node] = value
        with pytest.raises(ValidationError, match="requires v in \\[1, bar_c\\] = \\[1, 4\\]"):
            step_v(v, params.s, 0.0, grid, 1e-3, reg, params, wave)

    @pytest.mark.parametrize("node,value", [(1, 1.0 - 0.5e-9), (1000, 4.0 + 0.5e-9)])
    def test_admits_input_at_the_range_within_its_tolerance(self, params, grid, wave, reg,
                                                             node, value):
        v = wave.v_bar.copy()
        v[node] = value
        out = step_v(v, params.s, 0.0, grid, 1e-3, reg, params, wave)
        assert np.isfinite(out).all()

    def test_rejects_wrong_left_boundary(self, params, grid, reg, wave):
        bad = wave.v_bar + 0.1
        with pytest.raises(ValidationError, match="v\\(0\\) = 1"):
            step_v(bad, params.s, 0.0, grid, 1e-3, reg, params, wave)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
    def test_rejects_bad_dt(self, params, grid, reg, wave, dt):
        with pytest.raises(ValidationError, match="dt must be finite and positive"):
            step_v(wave.v_bar, params.s, 0.0, grid, dt, reg, params, wave)

    @pytest.mark.parametrize("source", [np.nan, np.inf, -np.inf, np.array(np.inf)])
    def test_rejects_non_finite_scalar_source(self, params, grid, reg, wave, source):
        with pytest.raises(ValidationError, match="source must be finite"):
            step_v(wave.v_bar, params.s, source, grid, 1e-3, reg, params, wave)


class TestStepU:
    def test_wave_is_discrete_steady_state(self, params, grid, wave):
        out = step_u(wave.u_bar.copy(), wave.v_bar, params.s, grid, 1e-3, params, wave)
        assert np.max(np.abs(out - wave.u_bar)) <= 1e-12

    def test_exponential_steady_state_with_unit_volume(self, params):
        # with v = 1, A + B exp(-ydot x / mu) solves the equation; matched to
        # u(0) = u_minus and the wave's u(R) it stays steady up to dt * dx^2
        g = make_grid(5.0, 2001)
        prof = traveling_wave(params, g)
        ydot = 0.9
        decay = np.exp(-ydot * g.x / params.mu)
        B = (params.u_minus - prof.u_bar[-1]) / (1.0 - decay[-1])
        u = params.u_minus - B + B * decay
        u[0] = params.u_minus
        out = step_u(u, np.ones(g.n), ydot, g, 1e-5, params, prof)
        assert np.max(np.abs(out - u)) <= 1e-9

    def test_heat_equation_eigen_decay_with_unit_volume(self, params):
        R, dt = 10.0, 0.01
        g = make_grid(R, 801)
        line = params.u_minus + (float(wave_u(params, R)) - params.u_minus) * g.x / R
        mode = np.sin(np.pi * g.x / R)
        u = line + mode
        out = step_u(u, np.ones(g.n), 0.0, g, dt, params, traveling_wave(params, g))
        lam = (np.pi / R) ** 2
        expected = line + mode / (1.0 + params.mu * dt * lam)
        assert np.max(np.abs(out - expected)) <= 20.0 * g.dx**2

    @pytest.mark.parametrize("speed", [1.0, 0.93])
    def test_source_is_stencil_derivative_interior(self, grid, speed):
        # step_u builds its source on the interior nodes only; with the
        # whole-field stencil_derivative expression it replaced, the step is
        # the same bit for bit.  mu != 1 and u at the wave, with a long step
        # from a large volume bump, so that a last-bit change of the source
        # shows in the result
        params = PhysicalParams(mu=0.73, v_plus=2.3, u_minus=1.3, u_plus=0.0)
        wave = traveling_wave(params, grid)
        bump = np.exp(-((grid.x - 3.0) ** 2))
        noise = np.random.default_rng(7).standard_normal(grid.n)
        v = wave.v_bar + 0.5 * bump * (1.0 + 0.1 * noise)
        v[0] = 1.0
        u = wave.u_bar.copy()
        ydot, dt = speed * params.s, 1.0
        coupling = (1.0 / v - wave.inv_v_bar) * wave.du_bar
        f = stencil_derivative(coupling, grid.dx, 1)
        f *= params.mu
        f += (ydot - params.s) * wave.du_bar
        h = linear_parabolic_step(u - wave.u_bar, (1.0 / v) * params.mu, -ydot, f, grid, dt)
        np.testing.assert_array_equal(step_u(u, v, ydot, grid, dt, params, wave),
                                      h + wave.u_bar)

    def test_rejects_volume_below_one(self, params, grid, wave):
        bad_v = wave.v_bar - 0.5
        with pytest.raises(ValidationError, match="v >= 1"):
            step_u(wave.u_bar.copy(), bad_v, params.s, grid, 1e-3, params, wave)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
    def test_rejects_bad_dt(self, params, grid, wave, dt):
        with pytest.raises(ValidationError, match="dt must be finite and positive"):
            step_u(wave.u_bar, wave.v_bar, params.s, grid, dt, params, wave)


class TestTridiagonalSolve:
    def test_matches_banded_solve_bit_for_bit(self, rng):
        n = 300
        sub, sup = rng.normal(size=(2, n - 1))
        diag = 2.5 + rng.random(n)
        rhs = rng.normal(size=n)
        ab = np.zeros((3, n))
        ab[0, 1:] = sup
        ab[1] = diag
        ab[2, :-1] = sub
        # the solve consumes its arguments, and rhs is read again below
        got = _solve_tridiagonal(sub.copy(), diag.copy(), sup.copy(), rhs.copy(), 1e-3, 1.0)
        assert got.tobytes() == solve_banded((1, 1), ab, rhs).tobytes()

    @pytest.mark.parametrize("order", ["scipy.linalg.lapack first", "congested_ns first"])
    def test_dgtsv_is_scipy_lapack_routine(self, order):
        # the routine loaded from scipy's compiled module is the one object
        # scipy.linalg.lapack exports, whichever module is imported first
        imports = ["import scipy.linalg.lapack as lapack",
                   "import congested_ns.parabolic as parabolic"]
        if order == "congested_ns first":
            imports.reverse()
        out = run_python("-c", "; ".join([*imports, "print(parabolic.dgtsv is lapack.dgtsv)"]))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "True"

    def test_missing_lapack_module_names_the_folder_searched(self, tmp_path, monkeypatch):
        import importlib.util
        import re
        import types

        from congested_ns import parabolic

        scipy = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            parabolic._lapack_dgtsv()

    def test_singular_system_raises_typed_error(self):
        n = 20
        with pytest.raises(TridiagonalSolveError, match="singular"):
            _solve_tridiagonal(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1),
                               np.ones(n), 1e-3, 1.0)

    def test_non_finite_rhs_raises_typed_error(self):
        n = 20
        rhs = np.ones(n)
        rhs[5] = np.nan
        with pytest.raises(TridiagonalSolveError, match="non-finite"):
            _solve_tridiagonal(np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0),
                               rhs, 1e-3, 1.0)


STEPPER_INPUTS = [("step_v", "v"), ("step_v", "source"), ("step_u", "u"), ("step_u", "v"),
                  ("linear_parabolic_step", "state"), ("linear_parabolic_step", "a"),
                  ("linear_parabolic_step", "f")]


@pytest.mark.parametrize("node", ["first", "interior", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stepper,name", STEPPER_INPUTS,
                         ids=[f"{stepper}-{name}" for stepper, name in STEPPER_INPUTS])
def test_non_finite_field_input_raises_typed_error(params, stepper, name, bad, node):
    # each stepper checks its field inputs once, in the passes it makes
    # anyway: a range check that a NaN fails, the solve's finite-solution
    # check for interior entries, and scalar checks of the end entries, which
    # no solve reads (an infinite a at an end node would force its neighbour
    # to 0).  Whichever of them trips, the step never returns
    g = make_grid(50.0, 257)
    wave = traveling_wave(params, g)
    fields = {"v": wave.v_bar.copy(), "u": wave.u_bar.copy(), "source": np.zeros(g.n),
              "state": np.sin(np.pi * g.x / g.R), "a": np.ones(g.n), "f": np.ones(g.n)}
    fields[name][{"first": 0, "interior": g.n // 2, "last": g.n - 1}[node]] = bad
    calls = {
        "step_v": lambda: step_v(fields["v"], params.s, fields["source"], g, 1e-3,
                                 RegularizedLog(4.0), params, wave),
        "step_u": lambda: step_u(fields["u"], fields["v"], params.s, g, 1e-3, params, wave),
        "linear_parabolic_step": lambda: linear_parabolic_step(
            fields["state"], fields["a"], 0.5, fields["f"], g, 1e-3),
    }
    # under filterwarnings = error, a numpy warning on the way fails the test
    with pytest.raises((ValidationError, TridiagonalSolveError, MaximumPrincipleViolated)):
        calls[stepper]()


def test_truncation_mollifier_plateau_and_decay():
    g = make_grid(50.0, 2049)
    chi = truncation_mollifier(g)
    assert np.all(chi[g.x <= 48.0] == 1.0)
    assert np.all(chi[g.x >= 49.0] == 0.0)
    assert np.all(np.diff(chi) <= 1e-14)


def test_boundary_values_pinned_by_step(params, grid, wave, reg):
    out = step_v(wave.v_bar.copy(), params.s, 0.0, grid, 1e-3, reg, params, wave)
    assert out[0] == 1.0
    assert out[-1] == pytest.approx(float(wave_v(params, grid.R)), abs=1e-14)
    out_u = step_u(wave.u_bar.copy(), wave.v_bar, params.s, grid, 1e-3, params, wave)
    assert out_u[0] == params.u_minus
    assert out_u[-1] == pytest.approx(float(wave_u(params, grid.R)), abs=1e-14)
