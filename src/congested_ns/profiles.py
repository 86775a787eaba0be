"""Closed-form traveling-wave profiles and their defining relations.

On the half line x >= 0 the front is the logistic profile

    v(x) = v_plus / (1 + (v_plus - 1) exp(-s v_plus x / mu)),
    u(x) = u_plus + s v_plus - s v(x),

anchored so v(0) = 1 (the shift ambiguity of the wave is fixed this way).
The effective velocity u - mu d/dx ln v is identically u_plus for x > 0 and
the congested-side pressure is p_minus = s^2 (v_plus - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Grid, PhysicalParams, ValidationError, as_field, write_table
from .discrete_ops import derivative, stencil_derivative, trace0


def wave_v(params: PhysicalParams, x: np.ndarray | float) -> np.ndarray | float:
    """Specific-volume profile v(x) for x >= 0."""
    vp = params.v_plus
    return vp / (1.0 + (vp - 1.0) * np.exp(-params.s * vp * np.asarray(x) / params.mu))


def wave_u(params: PhysicalParams, x: np.ndarray | float) -> np.ndarray | float:
    """Velocity profile u(x) = u_plus + s v_plus - s v(x)."""
    s = params.s
    return params.u_plus + s * params.v_plus - s * wave_v(params, x)


def wave_dv(params: PhysicalParams, x: np.ndarray | float) -> np.ndarray | float:
    """Exact slope v'(x) = (s/mu) v (v_plus - v)."""
    v = wave_v(params, x)
    return params.s / params.mu * v * (params.v_plus - v)


_NODAL = ("v_bar", "u_bar", "log_v_bar", "dv_bar", "du_bar", "inv_v_bar")


@dataclass(frozen=True)
class Profiles:
    """Traveling-wave fields sampled on a grid.

    v_bar, u_bar  -- nodal samples of the profiles
    log_v_bar     -- np.log(v_bar), the value the regularized log of step_v
                     takes on v_bar, so the wave is its steady state exactly
    dv_bar        -- exact nodal slope of v_bar (from the closed form)
    du_bar        -- exact nodal slope of u_bar, -s dv_bar
    inv_v_bar     -- 1 / v_bar
    dv0, du0      -- exact one-sided slopes of the v and u profiles at x = 0+
    d2u0          -- exact one-sided second derivative of u at x = 0+
    u_lead        -- u_bar at the first four nodes, as Python floats
    """

    v_bar: np.ndarray = field(repr=False)
    u_bar: np.ndarray = field(repr=False)
    log_v_bar: np.ndarray = field(repr=False)
    dv_bar: np.ndarray = field(repr=False)
    du_bar: np.ndarray = field(repr=False)
    inv_v_bar: np.ndarray = field(repr=False)
    dv0: float
    du0: float
    d2u0: float
    u_lead: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in _NODAL:
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "u_lead", tuple(self.u_bar[:4].tolist()))

    def head(self, nodes: int) -> Profiles:
        """The profiles on the first `nodes` nodes of their grid, as views."""
        return replace(self, **{name: getattr(self, name)[:nodes] for name in _NODAL})


def traveling_wave(params: PhysicalParams, grid: Grid) -> Profiles:
    """Sample the traveling-wave profiles on `grid`.

    validate_hypotheses samples it once per datum and keeps it on InitialData
    as `wave`, which the solver and the diagnostics read.
    """
    s, mu, vp = params.s, params.mu, params.v_plus
    v_bar = np.asarray(wave_v(params, grid.x))
    dv_bar = np.asarray(wave_dv(params, grid.x))
    dv0 = s * (vp - 1.0) / mu
    return Profiles(
        v_bar=v_bar,
        u_bar=np.asarray(wave_u(params, grid.x)),
        log_v_bar=np.log(v_bar),
        dv_bar=dv_bar,
        du_bar=-s * dv_bar,
        inv_v_bar=1.0 / v_bar,
        dv0=dv0,
        du0=-s * dv0,
        d2u0=-s * (s**2 * (vp - 1.0) * (vp - 2.0) / mu**2),
    )


def profile_residual(profiles: Profiles, params: PhysicalParams, grid: Grid) -> dict:
    """Measure how well the sampled wave satisfies its defining relations.

    Returns the discrete L2 norm over interior nodes of the profile ODE
    s dv/dx + mu d2/dx2 ln v, the sup-norm of the algebraic velocity
    relation, and the one-sided slope of v at x = 0.
    """
    ode = (params.s * derivative(profiles.v_bar, grid, 1)
           + params.mu * derivative(profiles.log_v_bar, grid, 2))
    interior = ode[1:-1]
    ode_norm = float(np.sqrt(grid.dx * np.sum(interior**2)))
    algebraic = profiles.u_bar - (
        params.u_plus + params.s * params.v_plus - params.s * profiles.v_bar
    )
    return {
        "ode_residual_norm": ode_norm,
        "algebraic_residual_norm": float(np.max(np.abs(algebraic))),
        "slope0": trace0(profiles.v_bar, grid, 1),
    }


def effective_velocity(u: np.ndarray, v: np.ndarray, grid: Grid, mu: float) -> np.ndarray:
    """u - mu d/dx ln v, with one-sided stencils at both ends."""
    u = as_field(u, grid)
    v = as_field(v, grid)
    if np.any(v <= 0.0):
        raise ValidationError("effective velocity needs v > 0 everywhere")
    return u - mu * derivative(np.log(v), grid, 1)


def effective_velocity_about_wave(u: np.ndarray, v: np.ndarray, grid: Grid,
                                  params: PhysicalParams, wave: Profiles) -> np.ndarray:
    """u - mu d/dx ln v evaluated against the wave background.

    The wave part of the effective velocity is the exact constant u_plus, so
    only the deviation ln(v / vwave) = log1p((v - vwave)/vwave) is
    differenced numerically; for data near the wave this avoids losing the
    small perturbation in the finite differences of the O(1) background.
    `wave` is traveling_wave(params, grid).
    """
    u = as_field(u, grid)
    v = as_field(v, grid)
    if np.any(v <= 0.0):
        raise ValidationError("effective velocity needs v > 0 everywhere")
    return effective_velocity_of_deviation(v - wave.v_bar, u - wave.u_bar, wave.v_bar,
                                           grid.dx, params)


def effective_velocity_of_deviation(g: np.ndarray, h: np.ndarray, v_bar: np.ndarray,
                                    dx: float, params: PhysicalParams) -> np.ndarray:
    """u_plus + h - mu d_x log1p(g / vwave), the expression of
    effective_velocity_about_wave, on the deviations g = v - vwave and
    h = u - uwave, unvalidated: the nodes run along the first axis, at least
    three with spacing dx, so a 2-D array is a set of fields, one per column
    (stencil_derivative's layout); v_bar is vwave on those nodes, shaped to
    broadcast against g."""
    return params.u_plus + h - params.mu * stencil_derivative(np.log1p(g / v_bar), dx, 1)


def write_profile_columns(path, grid: Grid, profiles: Profiles, mu: float) -> None:
    """Write a plain-text snapshot with columns `x v u w` (one row per node)."""
    w = effective_velocity(profiles.u_bar, profiles.v_bar, grid, mu)
    write_table(path, "x v u w", " ", grid.x, profiles.v_bar, profiles.u_bar, w)
