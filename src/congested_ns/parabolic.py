"""Implicit time-stepping for the two half-line parabolic problems.

The specific-volume equation has a logarithmic diffusion which is regularized
outside the physically reachable range [1/2, bar_c] so the implicit solves can
never degenerate; inside that range nothing is changed and the maximum
principle keeps the solution there anyway.  The velocity equation is linear
with variable diffusion mu / v and is advanced by a conservative-flux
implicit-Euler step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import Grid, PhysicalParams, ValidationError, as_field
from .discrete_ops import stencil_derivative
from .profiles import Profiles


class NewtonDiverged(RuntimeError):
    """Newton iteration for the nonlinear step hit its iteration cap."""


class MaximumPrincipleViolated(RuntimeError):
    """A specific-volume iterate left the admissible range (1, bar_c]."""


class TridiagonalSolveError(RuntimeError):
    """The implicit linear system was singular or its solution not finite."""


EPS_MAX_PRINCIPLE = 1e-9

DEFAULT_NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class RegularizedLog:
    """C^1 surrogate for ln(x), linear-growth outside [1/2, bar_c].

    a(x) == ln(x) on [1/2, bar_c]; outside, quadratic matching pieces bend
    the slope to the clamp values and the function continues linearly, so
    nu <= a'(x) <= 1/nu everywhere.
    """

    bar_c: float
    nu: float

    def __post_init__(self) -> None:
        if not self.bar_c > 1.0:
            raise ValidationError(f"bar_c must exceed 1 (got {self.bar_c})")
        if not 0.0 < self.nu <= min(0.5, 1.0 / self.bar_c):
            raise ValidationError(
                f"nu must lie in (0, min(1/2, 1/bar_c)] (got {self.nu})"
            )

    def __call__(self, x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Return (a(x), a'(x)) elementwise; NaN entries give NaN in both."""
        x = np.asarray(x, dtype=float)
        # every entry in the core: the core branch's operations on the whole
        # array (a NaN fails both comparisons and takes the piecewise path)
        if x.ndim and x.size and 0.5 <= x.min() and x.max() <= self.bar_c:
            return np.log(x), 1.0 / x
        value = np.full_like(x, np.nan)
        slope = np.full_like(x, np.nan)

        inv_nu = 1.0 / self.nu
        # left bend: slope grows linearly from 2 at x=1/2 to 1/nu at x=1/4
        xl = 0.25
        kl = (inv_nu - 2.0) / (0.5 - xl)
        # right bend: slope falls linearly from 1/bar_c at bar_c to nu at 2*bar_c
        xr = 2.0 * self.bar_c
        kr = (1.0 / self.bar_c - self.nu) / (xr - self.bar_c)
        a_xl = np.log(0.5) - (2.0 * (0.5 - xl) + 0.5 * kl * (0.5 - xl) ** 2)
        a_xr = np.log(self.bar_c) + (1.0 / self.bar_c) * (xr - self.bar_c) - 0.5 * kr * (
            xr - self.bar_c
        ) ** 2

        core = (x >= 0.5) & (x <= self.bar_c)
        value[core] = np.log(x[core])
        slope[core] = 1.0 / x[core]

        bend_l = (x < 0.5) & (x >= xl)
        d = 0.5 - x[bend_l]
        value[bend_l] = np.log(0.5) - (2.0 * d + 0.5 * kl * d**2)
        slope[bend_l] = 2.0 + kl * d

        far_l = x < xl
        value[far_l] = a_xl + inv_nu * (x[far_l] - xl)
        slope[far_l] = inv_nu

        bend_r = (x > self.bar_c) & (x <= xr)
        d = x[bend_r] - self.bar_c
        value[bend_r] = np.log(self.bar_c) + (1.0 / self.bar_c) * d - 0.5 * kr * d**2
        slope[bend_r] = 1.0 / self.bar_c - kr * d

        far_r = x > xr
        value[far_r] = a_xr + self.nu * (x[far_r] - xr)
        slope[far_r] = self.nu

        return value, slope


def regularized_log(bar_c: float, nu: float | None = None) -> RegularizedLog:
    """Regularized log nonlinearity with the default slope floor 1/(2 bar_c)."""
    if nu is None:
        nu = 1.0 / (2.0 * bar_c)
    return RegularizedLog(bar_c=float(bar_c), nu=float(nu))


def truncation_mollifier(grid: Grid) -> np.ndarray:
    """C^2 cutoff: 1 for x <= R-2, 0 for x >= R-1, quintic blend between.

    Applied to initial data and source near the truncation boundary so the
    right Dirichlet value is compatible with the data at t = 0.
    """
    if grid.R > 3.0:
        lo, hi = grid.R - 2.0, grid.R - 1.0
    else:
        lo, hi = grid.R / 3.0, 2.0 * grid.R / 3.0
    theta = np.clip((grid.x - lo) / (hi - lo), 0.0, 1.0)
    smooth = 6.0 * theta**5 - 15.0 * theta**4 + 10.0 * theta**3
    return 1.0 - smooth


@dataclass
class LinearParabolicCoeffs:
    """Coefficients of d_t u + d_x(b u) + c u - d_x(a d_x u) = f.

    a (diffusion) must be bounded below by a positive constant; b, c, f may
    be scalars or nodal arrays.
    """

    a: np.ndarray | float
    b: np.ndarray | float = 0.0
    c: np.ndarray | float = 0.0
    f: np.ndarray | float = 0.0


def _nodal(value: np.ndarray | float, grid: Grid) -> np.ndarray | float:
    """A coefficient as the step uses it: a scalar stays a float and must be
    finite, an array must have the grid's shape.  Array entries are not checked
    here: a non-finite one makes the solution non-finite, which
    _solve_tridiagonal rejects."""
    if np.ndim(value) == 0:
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"coefficient must be finite (got {value})")
        return value
    value = np.asarray(value, dtype=float)
    if value.shape != (grid.n,):
        raise ValidationError(
            f"coefficient has shape {value.shape}, expected ({grid.n},) for this grid"
        )
    return value


def _faces(value: np.ndarray | float, scale: float) -> tuple:
    """scale times the arithmetic means of a coefficient at the faces i-1/2
    and i+1/2 of the interior rows i = 1..n-2; a scalar is its own mean and
    stays a scalar."""
    if np.ndim(value) == 0:
        return scale * value, scale * value
    face = value[:-1] + value[1:]
    face *= 0.5 * scale
    return face[:-1], face[1:]


def _interior(value: np.ndarray | float) -> np.ndarray | float:
    """A coefficient at the interior rows i = 1..n-2; a scalar is itself."""
    return value if np.ndim(value) == 0 else value[1:-1]


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray, dt: float, min_diffusion: float) -> np.ndarray:
    """Solve the system with sub-, main and super-diagonals (lengths n-1, n,
    n-1) by LAPACK gtsv; a singular system or a non-finite solution raises
    TridiagonalSolveError."""
    *_, x, info = dgtsv(sub, diag, sup, rhs)
    if info != 0 or not np.isfinite(x).all():
        raise TridiagonalSolveError(
            f"singular or non-finite implicit system (dt={dt:g}, "
            f"min diffusion={min_diffusion:g})"
        )
    return x


def linear_parabolic_step(state: np.ndarray, coeffs: LinearParabolicCoeffs, grid: Grid,
                          dt: float, left_bc: float, right_bc: float) -> np.ndarray:
    """One implicit-Euler step with Dirichlet values at both ends.

    Interior fluxes b u - a d_x u are evaluated at cell faces with arithmetic
    means, giving a conservative second-order discretization.
    """
    state = as_field(state, grid)
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and positive (got {dt})")
    a = _nodal(coeffs.a, grid)
    b = _nodal(coeffs.b, grid)
    # an infinite reaction pins its node to 0 instead of making the solution
    # non-finite, so an array c is checked in full
    c = as_field(coeffs.c, grid) if np.ndim(coeffs.c) else _nodal(coeffs.c, grid)
    f = _nodal(coeffs.f, grid)
    if np.ndim(a) == 0:
        a = np.full(grid.n, a)  # the diagonals are arrays
    min_a = float(a.min())
    if not min_a > 0.0:
        raise ValidationError(f"diffusion must be positive (min a = {min_a:g})")

    k_w, k_e = _faces(a, 1.0 / grid.dx**2)  # a_{i-1/2} / dx^2, a_{i+1/2} / dx^2
    b_w, b_e = _faces(b, 0.5 / grid.dx)     # b_{i-1/2} / (2 dx), b_{i+1/2} / (2 dx)

    # row i (interior): coefficients of u_{i-1}, u_i, u_{i+1}
    lo = -b_w - k_w
    hi = b_e - k_e
    di = k_w + k_e
    di += 1.0 / dt + _interior(c) + (b_e - b_w)
    rhs = state[1:-1] / dt + _interior(f)
    rhs[0] -= lo[0] * left_bc
    rhs[-1] -= hi[-1] * right_bc

    interior = _solve_tridiagonal(lo[1:], di, hi[:-1], rhs, dt, min_a)
    out = np.empty_like(state)
    out[0] = left_bc
    out[-1] = right_bc
    out[1:-1] = interior
    return out


def interior_flux_balance(state: np.ndarray, new: np.ndarray,
                          coeffs: LinearParabolicCoeffs, grid: Grid, dt: float) -> tuple[float, float]:
    """Mass change of the interior vs. net boundary flux for one step.

    With c = f = 0 the implicit step conserves sum(dx * u) up to the flux
    difference through the first and last faces; both numbers are returned
    so the telescoping can be asserted to roundoff.
    """
    a = _nodal(coeffs.a, grid)
    b = _nodal(coeffs.b, grid)
    dx = grid.dx
    a_face = a if np.ndim(a) == 0 else 0.5 * (a[:-1] + a[1:])
    b_face = b if np.ndim(b) == 0 else 0.5 * (b[:-1] + b[1:])
    flux = b_face * 0.5 * (new[:-1] + new[1:]) - a_face * (new[1:] - new[:-1]) / dx
    mass_change = float(np.sum(dx * (new[1:-1] - state[1:-1])))
    net_inflow = float(dt * (flux[0] - flux[-1]))
    return mass_change, net_inflow


def step_v(v: np.ndarray, ydot: float, source: np.ndarray | float, grid: Grid, dt: float,
           reg: RegularizedLog, params: PhysicalParams, wave: Profiles,
           newton_tol: float = DEFAULT_NEWTON_TOL) -> np.ndarray:
    """One implicit-Euler step of d_t v - ydot d_x v - mu d_xx a(v) = source.

    Dirichlet values v(0) = 1 and v(R) = wave profile at R.  The update is
    computed on the deviation g = v - vwave, for which the wave terms cancel
    through the profile identity s d_x vwave + mu d_xx ln vwave = 0 (with
    ln vwave from the closed form); the exact wave is therefore a discrete
    steady state to roundoff, instead of drifting at the truncation level.
    `wave` is traveling_wave(params, grid), sampled once by the caller.
    The nonlinear system is solved by damped Newton iteration with the
    analytic tridiagonal Jacobian of the discretized a(v).
    """
    v = as_field(v, grid)
    if abs(v[0] - 1.0) > 1e-9:
        raise ValidationError(f"step_v requires v(0) = 1 on input (got {v[0]!r})")
    if v.min() <= 0.0:
        raise ValidationError("step_v requires v > 0 on input")
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be finite and positive (got {dt})")
    src = as_field(source, grid) if np.ndim(source) else _nodal(source, grid)
    vbar = wave.v_bar
    ln_vbar = wave.log_v_bar
    c_adv = dt * ydot / (2.0 * grid.dx)
    c_dif = dt * params.mu / grid.dx**2

    g = v - vbar
    # the residual's constant part, g_old + dt (source + (ydot - s) d_x vwave)
    base = (dt * (ydot - params.s)) * wave.dv_bar[1:-1]
    base += dt * _interior(src)
    base += g[1:-1]
    g[0] = 0.0
    g[-1] = 0.0
    # vbar + g for the g last passed to residual, which the Newton loop
    # always keeps as its iterate: the Jacobian and the result read it
    w = np.empty(grid.n)

    def residual(g: np.ndarray) -> np.ndarray:
        """g_i - c_adv (g_{i+1} - g_{i-1}) - c_dif (q_{i+1} - 2 q_i + q_{i-1})
        - base_i, with q = a(vbar + g) - ln vbar, assembled in place."""
        q, _ = reg(np.add(vbar, g, out=w))
        q -= ln_vbar
        q *= c_dif
        out = g[:-2] - g[2:]
        out *= c_adv
        out += g[1:-1]
        out -= base
        out -= q[2:]
        out -= q[:-2]
        out += q[1:-1]
        out += q[1:-1]
        return out

    res = residual(g)
    res_norm = float(np.abs(res).max())
    for _ in range(NEWTON_MAX_ITER):
        if res_norm <= newton_tol:
            break
        _, slope = reg(w)
        slope *= c_dif
        delta = _solve_tridiagonal(c_adv - slope[1:-2], 1.0 + 2.0 * slope[1:-1],
                                   -c_adv - slope[2:-1], -res, dt, params.mu * reg.nu)

        # damped update: halve the step until the residual does not increase
        trial = np.zeros(grid.n)
        for _ in range(30):
            np.add(g[1:-1], delta, out=trial[1:-1])
            trial_res = residual(trial)
            trial_norm = float(np.abs(trial_res).max())
            if trial_norm <= res_norm or trial_norm <= newton_tol:
                break
            delta *= 0.5
        g, res, res_norm = trial, trial_res, trial_norm
    else:
        raise NewtonDiverged(
            f"Newton stalled at residual {res_norm:g} (tol {newton_tol:g}, dt={dt:g})"
        )

    low, high = w.min(), w.max()
    if low < 1.0 - EPS_MAX_PRINCIPLE or high > reg.bar_c + EPS_MAX_PRINCIPLE:
        raise MaximumPrincipleViolated(
            f"v left (1, bar_c]: range [{low:.12g}, {high:.12g}] vs bar_c = {reg.bar_c:g}"
        )
    return w


def step_u(u: np.ndarray, v: np.ndarray, ydot: float, grid: Grid, dt: float,
           params: PhysicalParams, wave: Profiles) -> np.ndarray:
    """One implicit-Euler step of d_t u - ydot d_x u - mu d_x((1/v) d_x u) = 0.

    Dirichlet values u(0) = u_minus and u(R) = wave profile at R.  As in
    step_v the update is computed on the deviation h = u - uwave, whose
    equation has homogeneous boundary values and the source

        (ydot - s) d_x uwave + mu d_x((1/v - 1/vwave) d_x uwave),

    the wave terms cancelling analytically; it is advanced by
    linear_parabolic_step with a = mu/v, b = -ydot.  `wave` is
    traveling_wave(params, grid), sampled once by the caller.
    """
    u = as_field(u, grid)
    v = as_field(v, grid)
    if v.min() < 1.0 - EPS_MAX_PRINCIPLE:
        raise ValidationError(f"step_u requires v >= 1 (min v = {np.min(v):g})")
    if abs(u[0] - params.u_minus) > 1e-9:
        raise ValidationError(
            f"step_u requires u(0) = u_minus on input (got {u[0]!r})"
        )
    inv_v = 1.0 / v
    coupling = inv_v - wave.inv_v_bar
    coupling *= wave.du_bar
    f = stencil_derivative(coupling, grid.dx, 1)
    f *= params.mu
    f += (ydot - params.s) * wave.du_bar
    inv_v *= params.mu  # the diffusion mu / v
    coeffs = LinearParabolicCoeffs(a=inv_v, b=-ydot, f=f)
    h = linear_parabolic_step(u - wave.u_bar, coeffs, grid, dt, left_bc=0.0, right_bc=0.0)
    h += wave.u_bar
    return h
