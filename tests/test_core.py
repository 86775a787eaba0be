import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from congested_ns.core import (
    PhysicalParams,
    ValidationError,
    as_field,
    derive_speed,
    make_grid,
    suggest_domain_length,
)


def test_derive_speed_direct_substitution():
    assert derive_speed(1.0, 0.0, 2.0) == 1.0
    assert derive_speed(2.0, 0.0, 2.0) == 2.0


def test_derive_speed_rejects_equal_velocities():
    with pytest.raises(ValidationError, match="u_minus must exceed u_plus"):
        derive_speed(1.0, 1.0, 2.0)


def test_derive_speed_rejects_small_v_plus():
    with pytest.raises(ValidationError, match="v_plus"):
        derive_speed(1.0, 0.0, 1.0)


def test_params_derived_quantities():
    p = PhysicalParams(mu=0.7, v_plus=3.0, u_minus=2.0, u_plus=-1.0)
    assert p.s == pytest.approx(1.5)
    assert p.p_minus == pytest.approx(1.5**2 * 2.0)


def test_speed_is_kept_per_instance_outside_equality():
    # s is derived once per instance; the kept value is no field, so it
    # takes no part in equality, and a replaced instance derives its own
    p = PhysicalParams(mu=0.7, v_plus=3.0, u_minus=2.0, u_plus=-1.0)
    assert p.s == derive_speed(2.0, -1.0, 3.0) and p.s is p.s
    assert p == PhysicalParams(mu=0.7, v_plus=3.0, u_minus=2.0, u_plus=-1.0)
    assert replace(p, u_minus=5.0).s == derive_speed(5.0, -1.0, 3.0)
    assert pickle.loads(pickle.dumps(p)) == p


def test_params_rejects_bad_viscosity():
    with pytest.raises(ValidationError, match="mu"):
        PhysicalParams(mu=0.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)


@pytest.mark.parametrize("name", ["mu", "v_plus", "u_minus", "u_plus"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_values(name, value):
    fields = {"mu": 1.0, "v_plus": 2.0, "u_minus": 1.0, "u_plus": 0.0, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        PhysicalParams(**fields)


@pytest.mark.parametrize("fields, name", [
    ({"mu": 1e-300}, "mu"), ({"mu": 1e300}, "mu"), ({"mu": 1e-110}, "mu"),
    ({"mu": 1e110}, "mu"),
    # s = u_minus - u_plus with v_plus = 2
    ({"u_minus": 1e160}, "s"), ({"u_minus": 1e-170}, "s"),
])
def test_params_reject_values_whose_powers_leave_float_range(fields, name):
    # finite, but boundary_slope_constants, p_minus or the trace identities
    # would divide by zero or overflow
    with pytest.raises(ValidationError, match=f"{name}=.* out of range"):
        PhysicalParams(**{"mu": 1.0, "v_plus": 2.0, "u_minus": 1.0, "u_plus": 0.0, **fields})


def test_params_accept_wide_finite_ranges():
    for mu in (1e-100, 1e100):
        assert PhysicalParams(mu=mu, v_plus=2.0, u_minus=1.0, u_plus=0.0).mu == mu
    fast = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1e150, u_plus=0.0)
    assert fast.p_minus == pytest.approx(1e300)


@given(
    mu=st.floats(0.05, 20.0),
    v_plus=st.floats(1.01, 50.0),
    u_minus=st.floats(-5.0, 5.0),
    gap=st.floats(0.01, 10.0),
)
def test_pressure_identity_holds_for_any_valid_params(mu, v_plus, u_minus, gap):
    p = PhysicalParams(mu=mu, v_plus=v_plus, u_minus=u_minus, u_plus=u_minus - gap)
    assert p.p_minus == pytest.approx(p.s**2 * (v_plus - 1.0), rel=1e-14)


def test_make_grid_spacing():
    g = make_grid(1.0, 17)
    assert g.dx == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert g.x[0] == 0.0
    assert g.x[-1] == 1.0


def test_make_grid_midpoint():
    g = make_grid(50.0, 2049)
    assert g.x[1024] == pytest.approx(25.0, abs=1e-12)


def test_make_grid_node_coordinates_match_formula():
    g = make_grid(13.0, 257)
    expected = np.arange(257) * 13.0 / 256.0
    np.testing.assert_allclose(g.x, expected, rtol=0, atol=1e-13)


def test_make_grid_rejections():
    with pytest.raises(ValidationError):
        make_grid(0.0, 100)
    with pytest.raises(ValidationError):
        make_grid(1.0, 2)
    with pytest.raises(ValidationError):
        make_grid(-5.0, 100)
    # finite R whose spacing squared overflows or underflows
    for R in (1e300, 1e-300, math.inf):
        with pytest.raises(ValidationError, match="spacing dx"):
            make_grid(R, 129)
    assert make_grid(1e150, 129).dx == 1e150 / 128


def test_grid_is_immutable():
    g = make_grid(1.0, 32)
    with pytest.raises(ValueError):
        g.x[0] = 1.0


def test_suggest_domain_length_controls_tail():
    p = PhysicalParams(mu=1.0, v_plus=2.0, u_minus=1.0, u_plus=0.0)
    R = suggest_domain_length(p, tail=1e-12)
    tail = p.v_plus * (p.v_plus - 1.0) * math.exp(-p.s * p.v_plus * R / p.mu)
    assert tail == pytest.approx(1e-12, rel=1e-6)


def test_as_field_validation():
    g = make_grid(1.0, 32)
    ok = as_field(np.zeros(32), g)
    assert ok.shape == (32,)
    with pytest.raises(ValidationError, match="shape"):
        as_field(np.zeros(31), g)
    bad = np.zeros(32)
    bad[3] = np.inf
    with pytest.raises(ValidationError, match="finite"):
        as_field(bad, g)
