import math

import numpy as np
import pytest

from congested_ns.core import PhysicalParams, make_grid
from congested_ns.discrete_ops import trace0
from congested_ns.profiles import (
    effective_velocity,
    effective_velocity_about_wave,
    profile_residual,
    traveling_wave,
    wave_dv,
    wave_v,
    write_profile_columns,
)


def test_wave_anchoring_and_endpoints(params, grid, wave):
    assert wave.v_bar[0] == pytest.approx(1.0, abs=1e-14)
    assert wave.u_bar[0] == pytest.approx(params.u_minus, abs=1e-14)
    assert wave.v_bar[-1] == pytest.approx(params.v_plus, abs=1e-12)
    assert wave.u_bar[-1] == pytest.approx(params.u_plus, abs=1e-12)


def test_wave_value_at_half():
    p = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
    # closed form evaluated independently: v(1/2) = 2 / (1 + e^{-1})
    expected = 2.0 / (1.0 + math.exp(-1.0))
    assert wave_v(p, 0.5) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.4621171572600098, rel=1e-12)


def test_wave_monotone_increasing(grid, wave):
    # strictly increasing until the tail saturates at v_plus in float64
    diffs = np.diff(wave.v_bar)
    assert np.all(diffs >= 0.0)
    assert np.all(diffs[grid.x[:-1] < 15.0] > 0.0)
    assert np.all(wave.v_bar[:-1] <= 2.0)


def test_velocity_is_affine_in_volume(params, grid, wave):
    res = profile_residual(wave, params, grid)
    assert res["algebraic_residual_norm"] <= 1e-14


def test_profile_ode_residual_second_order(params):
    norms = []
    for n in (513, 1025, 2049):
        g = make_grid(50.0, n)
        prof = traveling_wave(params, g)
        norms.append(profile_residual(prof, params, g)["ode_residual_norm"])
    # halving dx shrinks the discrete residual of the profile equation ~4x
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)
    assert norms[1] / norms[2] == pytest.approx(4.0, rel=0.2)


def test_profile_slope_at_interface(params, grid, wave):
    res = profile_residual(wave, params, grid)
    expected = params.s * (params.v_plus - 1.0) / params.mu
    assert res["slope0"] == pytest.approx(expected, abs=1e-5)
    assert float(wave_dv(params, 0.0)) == pytest.approx(expected, rel=1e-14)


def test_pressure_consistency_at_interface(params):
    # -mu d_x u(0+) approaches the congested pressure as dx -> 0
    errs = []
    for n in (513, 1025, 2049):
        g = make_grid(50.0, n)
        prof = traveling_wave(params, g)
        p_est = -params.mu * trace0(prof.u_bar, g, 1)
        errs.append(abs(p_est - params.p_minus))
    assert errs[-1] <= 1e-5
    assert errs[0] / errs[-1] > 8.0  # better than second order for this stencil


def test_effective_velocity_of_wave_is_constant(params):
    sups = []
    for n in (513, 2049):
        g = make_grid(50.0, n)
        prof = traveling_wave(params, g)
        w = effective_velocity(prof.u_bar, prof.v_bar, g, params.mu)
        sups.append(float(np.max(np.abs(w[1:] - params.u_plus))))
    assert sups[1] <= 1e-3
    assert sups[0] / sups[1] > 3.0


def test_effective_velocity_constant_volume(params, rng):
    g = make_grid(10.0, 257)
    u = rng.normal(size=g.n)
    w = effective_velocity(u, np.full(g.n, 1.7), g, params.mu)
    np.testing.assert_allclose(w, u, rtol=0, atol=1e-12)


def test_effective_velocity_exponential_volume():
    g = make_grid(3.0, 301)
    v = np.exp(g.x)
    w = effective_velocity(np.zeros(g.n), v, g, mu=1.0)
    # d/dx ln e^x = 1, so w = -1 away from the ends
    np.testing.assert_allclose(w[1:-1], -1.0, rtol=0, atol=1e-4)


def test_effective_velocity_rejects_nonpositive_volume(params):
    g = make_grid(1.0, 32)
    v = np.ones(g.n)
    v[5] = -0.1
    with pytest.raises(Exception, match="v > 0"):
        effective_velocity(np.zeros(g.n), v, g, params.mu)


def test_effective_velocity_about_wave_is_exact_on_wave(params, grid, wave):
    w = effective_velocity_about_wave(wave.u_bar, wave.v_bar, grid, params, wave)
    np.testing.assert_allclose(w, params.u_plus, rtol=0, atol=1e-14)


def test_boundary_slope_constants(wave):
    assert wave.dv0 == pytest.approx(1.0)
    assert wave.du0 == pytest.approx(-1.0)
    assert wave.d2u0 == pytest.approx(0.0, abs=1e-15)  # symmetric for v_plus = 2


def test_profile_snapshot_export(tmp_path, params, wave, grid):
    out = tmp_path / "profile.txt"
    write_profile_columns(out, grid, wave, params.mu)
    lines = out.read_text().splitlines()
    assert lines[0] == "x v u w"
    assert len(lines) == grid.n + 1
    first = [float(v) for v in lines[1].split()]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0)


def test_profile_snapshot_is_the_bytes_of_savetxt(tmp_path, params, wave, grid):
    write_profile_columns(tmp_path / "profile.txt", grid, wave, params.mu)
    w = effective_velocity(wave.u_bar, wave.v_bar, grid, params.mu)
    np.savetxt(tmp_path / "rows.txt", np.column_stack((grid.x, wave.v_bar, wave.u_bar, w)),
               fmt="%.17g", delimiter=" ", header="x v u w", comments="")
    assert (tmp_path / "profile.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()
