"""Admissible perturbed initial data around the traveling wave.

Perturbation envelopes vanish to third order at x = 0 so the endpoint values,
the non-degeneracy signs, and the second-order compatibility bracket of the
wave carry over unchanged; they decay like Gaussians so every weighted norm
stays finite.

Families:
  none          -- the exact wave.
  gaussian_bump -- bump added to the specific volume (velocity untouched),
                   which tilts the effective velocity implicitly.
  w0_tilt       -- bump added to the velocity, so the initial effective
                   velocity deviates from its constant far-field value by
                   exactly the bump.
"""

from __future__ import annotations

import numpy as np

from .core import Grid, PhysicalParams, ValidationError
from .profiles import traveling_wave

FAMILIES = ("none", "gaussian_bump", "w0_tilt")


def bump_envelope(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """Unit-peak envelope with a triple zero at x = 0 and Gaussian decay."""
    if not (0.0 < center < np.inf and 0.0 < width < np.inf):
        raise ValidationError(f"bump center and width must be finite and positive "
                              f"(got center={center}, width={width})")
    raw = x**3 * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    fine = np.linspace(0.0, center + 8.0 * width, 20001)
    peak = np.max(fine**3 * np.exp(-((fine - center) ** 2) / (2.0 * width**2)))
    return raw / peak


def initial_data_fields(family: str, amplitude: float, center: float, width: float,
                        params: PhysicalParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Nodal (v0, u0) for the requested perturbation family."""
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown perturbation family {family!r} (choose from {FAMILIES})"
        )
    if not 0.0 <= amplitude < np.inf:
        raise ValidationError(f"perturbation amplitude must be finite and >= 0 "
                              f"(got {amplitude})")
    wave = traveling_wave(params, grid)
    v0 = wave.v_bar.copy()
    u0 = wave.u_bar.copy()
    if family == "none" or amplitude == 0.0:
        return v0, u0
    eta = bump_envelope(grid.x, center, width)
    if family == "gaussian_bump":
        v0 = v0 + amplitude * eta
    else:  # w0_tilt
        u0 = u0 + amplitude * eta
    return v0, u0
