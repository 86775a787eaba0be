import numpy as np
import pytest

from congested_ns.core import ValidationError, make_grid
from congested_ns.perturbations import FAMILIES, bump_envelope, initial_data_fields


def test_families_registry():
    assert FAMILIES == ("none", "gaussian_bump", "w0_tilt")


def test_envelope_unit_peak_and_triple_zero():
    g = make_grid(20.0, 4001)
    eta = bump_envelope(g.x, 2.0, 0.5)
    assert np.max(eta) == pytest.approx(1.0, rel=1e-4)
    # triple zero at 0: values near the origin rise at most cubically
    assert eta[1] <= (g.x[1] / 1.0) ** 3
    assert eta[0] == 0.0


def test_none_family_returns_wave(params, grid, wave):
    v0, u0 = initial_data_fields("none", 0.3, 2.0, 0.5, params, grid)
    np.testing.assert_array_equal(v0, wave.v_bar)
    np.testing.assert_array_equal(u0, wave.u_bar)


def test_gaussian_bump_perturbs_volume_only(params, grid, wave):
    v0, u0 = initial_data_fields("gaussian_bump", 0.01, 2.0, 0.5, params, grid)
    assert np.max(np.abs(v0 - wave.v_bar)) == pytest.approx(0.01, rel=1e-3)
    np.testing.assert_array_equal(u0, wave.u_bar)
    assert np.all(v0[1:] > 1.0)


def test_w0_tilt_perturbs_velocity_only(params, grid, wave):
    v0, u0 = initial_data_fields("w0_tilt", 0.05, 2.0, 0.5, params, grid)
    np.testing.assert_array_equal(v0, wave.v_bar)
    assert np.max(np.abs(u0 - wave.u_bar)) == pytest.approx(0.05, rel=1e-3)


def test_unknown_family_rejected(params, grid):
    with pytest.raises(ValidationError, match="family"):
        initial_data_fields("sawtooth", 0.1, 2.0, 0.5, params, grid)


def test_negative_amplitude_rejected(params, grid):
    with pytest.raises(ValidationError, match="amplitude"):
        initial_data_fields("gaussian_bump", -0.1, 2.0, 0.5, params, grid)


@pytest.mark.parametrize("amplitude", [np.nan, np.inf])
def test_non_finite_amplitude_rejected(params, grid, amplitude):
    with pytest.raises(ValidationError, match="amplitude"):
        initial_data_fields("gaussian_bump", amplitude, 2.0, 0.5, params, grid)


@pytest.mark.parametrize("center, width", [(0.0, 0.5), (-1.0, 0.5), (np.nan, 0.5),
                                           (np.inf, 0.5), (2.0, 0.0), (2.0, -1.0),
                                           (2.0, np.nan), (2.0, np.inf)])
def test_bad_center_or_width_rejected(params, grid, center, width):
    with pytest.raises(ValidationError, match="center and width"):
        initial_data_fields("gaussian_bump", 0.01, center, width, params, grid)
