"""Scalar functionals and identities certifying the wave-stability theory.

Everything here measures: energies of a finished trajectory, coercivity of
the linearized operator around the wave, boundary-trace identities of the
transformed unknown driving the bootstrap, and the two auxiliary integral
inequalities (shifted-argument weighting and path-composition differences).
Checks report lhs/rhs pairs and measured constants; nothing here feeds back
into the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import Grid, PhysicalParams, ValidationError, as_field
from .discrete_ops import (
    NormKind,
    cumulative_trapezoid,
    derivative,
    monotone_interpolator,
    norm,
    row_trapezoid,
    shift_sample,
    stencil_derivative,
    trace0,
)
from .freeboundary import (
    ROW_BLOCK,
    BoundaryPath,
    InitialData,
    Trajectory,
    running_h1_norm,
    time_derivative,
)
from .profiles import Profiles


def linearized_operator(g: np.ndarray, profiles: Profiles, grid: Grid,
                        params: PhysicalParams) -> np.ndarray:
    """-s g - mu d_x(g / vwave): the operator whose x-derivative is the
    linearization of the volume equation around the wave.  The exact wave
    slope spans its kernel."""
    g = as_field(g, grid)
    return -params.s * g - params.mu * derivative(g / profiles.v_bar, grid, 1)


def coercivity_weight(grid: Grid, params: PhysicalParams) -> np.ndarray:
    """Weight 1 + exp(-4 s x / mu): value 2 and slope -4s/mu at x = 0,
    range within [1, 2], as the weighted coercivity bound requires."""
    return 1.0 + np.exp(-4.0 * params.s * grid.x / params.mu)


def coercivity_check(phi: np.ndarray, profiles: Profiles, grid: Grid, params: PhysicalParams,
                     rho: np.ndarray | None = None,
                     dphi: np.ndarray | None = None,
                     d2phi: np.ndarray | None = None) -> dict:
    """Quadrature check of the coercivity identities of the linearized operator.

    Without a weight: both sides of the exact identity

      int (A d_x phi) phi = mu int (d_x phi)^2 / vwave
                            + (s/2) phi(0)^2 + mu phi'(0) phi(0)

    are evaluated independently (Simpson quadrature; trapezoid would cost
    three digits of the achievable gap).  With a weight rho the weighted
    lower bound for the adjoint ordering is evaluated, whose unspecified
    compactness constant is reported as measured from the gap.

    Derivatives of phi may be supplied analytically; otherwise second-order
    finite differences are used (and dominate the gap).
    """
    # imported here, its only use: scipy.integrate loads scipy.special,
    # optimize and sparse, which would add a third of a second to every import
    # of the package
    from scipy.integrate import simpson

    phi = as_field(phi, grid)
    if dphi is None:
        dphi = derivative(phi, grid, 1)
    if d2phi is None:
        d2phi = derivative(dphi, grid, 1)
    dphi = as_field(dphi, grid)
    d2phi = as_field(d2phi, grid)
    x = grid.x
    vbar = profiles.v_bar
    dvbar = profiles.dv_bar
    s, mu = params.s, params.mu

    if rho is None:
        a_dphi = -s * dphi - mu * (d2phi / vbar - dphi * dvbar / vbar**2)
        lhs = float(simpson(a_dphi * phi, x=x))
        rhs = float(
            mu * simpson(dphi**2 / vbar, x=x)
            + 0.5 * s * phi[0] ** 2
            + mu * dphi[0] * phi[0]
        )
        return {"lhs": lhs, "rhs": rhs, "gap": lhs - rhs}

    rho = as_field(rho, grid)
    psi = phi / vbar
    dpsi = (dphi * vbar - phi * dvbar) / vbar**2
    d2vbar = s / mu * dvbar * (params.v_plus - 2.0 * vbar)
    d2psi = (d2phi - 2.0 * dpsi * dvbar - psi * d2vbar) / vbar
    dxA = -s * dphi - mu * d2psi
    lhs = float(simpson(dxA * psi * rho, x=x))
    drho = derivative(rho, grid, 1)
    d2rho = derivative(rho, grid, 2)
    rho_w2inf = float(max(np.max(np.abs(rho)), np.max(np.abs(drho)), np.max(np.abs(d2rho))))
    rhs = float(
        mu * simpson(dpsi**2 * rho, x=x)
        + phi[0] ** 2 * (0.5 * s * rho[0] - 0.5 * mu * drho[0])
        + mu * dpsi[0] * phi[0] * rho[0]
    )
    gap = lhs - rhs
    phi_l2sq = float(simpson(phi**2, x=x))
    measured_c = max(0.0, -gap) / (rho_w2inf * phi_l2sq) if phi_l2sq > 0 else 0.0
    return {"lhs": lhs, "rhs": rhs, "gap": gap,
            "rho_w2inf": rho_w2inf, "measured_constant": measured_c}


@dataclass(frozen=True)
class EnergyReport:
    """Energy functionals of a run up to a given time t.

    e0..e5 follow the estimate hierarchy: integrated-variable level, first
    energy level, two higher-regularity levels for the volume, and two for
    the velocity.  initial_total is the seven-summand initial energy.
    beta_h1 is the H1(0, t) norm of the interface-speed deviation ydot - s,
    the entry at t of the running norm bootstrap_monitor reports;
    horizon_total adds its square to initial_total.

    The growth fields measure the generic nonlinear-diffusion energy bound.
    The volume perturbation g and its source G (shifted effective-velocity
    gradient plus the speed-deviation term) are plugged into

        ||g||_{Linf H1} + ||d_t g|| + ||d_x g|| <=
            C (||g(0)||_{H1} + ||G||) exp((1 + ||d_x vwave||_inf^2) T).

    growth_lhs is the left side, growth_rhs the right side with C = 1 and
    growth_constant the C it takes to make the bound hold;
    growth_rhs_plain and growth_constant_plain are those of the sharper form
    that keeps ||g|| on the right in place of the exponential.  Norms in
    time run over the stored snapshots of _uniform_prefix, so the horizon T
    is the last stored time up to t on the stride spacing.
    """

    e0: float
    e1: float
    e2: float
    e3: float
    e4: float
    e5: float
    initial_total: float
    horizon_total: float
    beta_h1: float
    growth_lhs: float
    growth_rhs: float
    growth_constant: float
    growth_rhs_plain: float
    growth_constant_plain: float
    horizon: float


def initial_energy(init: InitialData, grid: Grid, params: PhysicalParams) -> float:
    """Seven-summand total initial energy of the perturbation."""
    init.check_run_on(grid, params)
    g0 = init.v0 - init.wave.v_bar
    h0 = init.u0 - init.wave.u_bar
    return float(
        norm(g0, grid, NormKind.H3) ** 2
        + norm(h0, grid, NormKind.H3) ** 2
        + norm(init.w0 - params.u_plus, grid, NormKind.L2) ** 2
        + norm(init.V0, grid, NormKind.L2) ** 2
        + norm(init.W0, grid, NormKind.WEIGHTED_ONE_PLUS_SQRT_X) ** 2
        + norm(init.dxw0, grid, NormKind.WEIGHTED_ONE_PLUS_SQRT_X) ** 2
        + norm(init.d2w0, grid, NormKind.WEIGHTED_ONE_PLUS_SQRT_X) ** 2
    )


def _uniform_prefix(traj: Trajectory, t: float) -> tuple[int, float]:
    """The stored snapshots the energy certificates use up to time t: their
    count m and their uniform spacing dts (1.0 for a single snapshot).

    Snapshots are stored every `stride` steps and at the final time; a
    trailing final snapshot off that spacing is dropped, because the time
    derivatives and integrals assume a uniform stored-time mesh.
    """
    times = traj.stored_times
    spacing = np.diff(times)
    m = times.searchsorted(t + 1e-12, side="right")
    if m >= 2 and spacing.size >= 2 and abs(spacing[m - 2] - spacing[0]) > 1e-12:
        m -= 1
    m = max(m, 1)
    return m, float(spacing[0]) if m > 1 else 1.0


def _row_blocks(F: np.ndarray, background: np.ndarray, m: int, dts: float):
    """Walk the first m stored rows of F in blocks of ROW_BLOCK rows, on the
    leading nodes of the rows that background covers (a head of the wave).

    Yields (rows, D, Dt, Dtt): the slice of stored rows, their deviations
    D = F[rows] - background, and the first and second time derivatives of
    the deviations, bit for bit those time_derivative gives across all m
    rows.  Each block is differentiated with a halo of three rows on each
    side: the central rule of the second derivative reaches two rows, its
    one-sided end rule three.  D, Dt and Dtt are node-major, one column per
    stored row, the layout stencil_derivative differentiates; only
    O(ROW_BLOCK) rows are live at a time.
    """
    nodes = background.size
    for start in range(0, m, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, m)
        lo, hi = max(start - 3, 0), min(stop + 3, m)
        # a block with its halo has three rows or more whenever m has, so the
        # mean-slope rule for fewer rows holds for the block as for the run
        D = F[lo:hi, :nodes] - background
        Dt = time_derivative(D, dts)
        Dtt = time_derivative(Dt, dts)
        inner = slice(start - lo, stop - lo)
        yield slice(start, stop), D[inner].T, Dt[inner].T, Dtt[inner].T


def energy_report(traj: Trajectory, init: InitialData, grid: Grid, params: PhysicalParams,
                  t: float) -> EnergyReport:
    """Assemble the energy functionals and the growth bound from stored
    snapshots up to time t.

    Suprema run over stored snapshots and time derivatives/integrals use the
    uniformly spaced stored times (_uniform_prefix), so with a coarse
    snapshot stride the suprema are lower bounds on the continuum values.
    The stored rows are walked ROW_BLOCK at a time on the nodes [0,
    traj.head), past which every deviation and its derivatives are exact
    zeros, so their norms sum the head's P - 1 intervals alone; the growth
    bound's source, which is no deviation, is taken on whole rows, and is
    exactly 0 on a block of rows where there is no source and ydot = s.
    """
    if not t >= 0.0:  # NaN fails
        raise ValidationError(f"t must be a non-negative time (got {t})")
    traj.check_certified_with(init, grid, params)
    prof = init.wave
    m, dts = _uniform_prefix(traj, t)
    ydots = traj.ydot[traj.stored_idx[:m]]
    dx = grid.dx

    # squared L2 norms per stored time, each spatial derivative of a block of
    # rows taken once and dropped once normed, one perturbation family
    # (volume with its source, then velocity) at a time
    head, widths = traj.head, np.diff(grid.x)

    def sq(F: np.ndarray) -> np.ndarray:
        """Squared L2 norms of the columns of F over F's own nodes."""
        return row_trapezoid((F**2).T, widths)

    g_sq = np.empty((10, m))
    V0_sq = np.empty(m)
    source = init.source_eval
    for rows, G, Gt, Gtt in _row_blocks(traj.v, prof.v_bar[:head], m, dts):
        cum = cumulative_trapezoid(G, dx)
        V = cum - cum[-1]  # -int_x^R G, the rule of tail_integral and InitialData.V0
        V0_sq[rows] = V[0] ** 2
        gxx = stencil_derivative(G, dx, 2)
        g_sq[:9, rows] = (sq(V), sq(G), sq(stencil_derivative(G, dx, 1)), sq(gxx),
                          sq(stencil_derivative(gxx, dx, 1)), sq(Gt),
                          sq(stencil_derivative(Gt, dx, 1)), sq(stencil_derivative(Gt, dx, 2)),
                          sq(Gtt))
        steps = traj.stored_idx[rows]
        ydot_dev = traj.ydot[steps] - params.s
        if source is None and not ydot_dev.any():
            # on the exact front the source (ydot - s) vwave' is 0 at every
            # node, and so are the squares row_trapezoid would sum
            g_sq[9, rows] = 0.0
        else:
            src = np.multiply.outer(ydot_dev, prof.dv_bar)
            if source is not None:
                src += shift_sample(source, traj.y[steps])
            g_sq[9, rows] = sq(src.T)
    V_sq, g, gx, gxx, gxxx, gt, gtx, gtxx, gtt, src = g_sq

    h_sq = np.empty((7, m))
    for rows, H, Ht, Htt in _row_blocks(traj.u, prof.u_bar[:head], m, dts):
        hx = stencil_derivative(H, dx, 1)
        h_sq[:, rows] = (sq(H), sq(hx), sq(stencil_derivative(hx, dx, 1)), sq(Ht),
                         sq(stencil_derivative(Ht, dx, 1)), sq(stencil_derivative(Ht, dx, 2)),
                         sq(Htt))
    h, hx, hxx, ht, htx, htxx, htt = h_sq

    e0 = np.max(V_sq + ydots * V0_sq) + np.trapezoid(g, dx=dts)
    e1 = np.max(g + gx) + np.trapezoid(gx, dx=dts) + np.trapezoid(gt, dx=dts)
    e2 = np.max(gt + gxx) + np.trapezoid(gtx, dx=dts)
    e3 = np.max(gtx + gxxx) + np.trapezoid(gtt, dx=dts) + np.trapezoid(gtxx, dx=dts)
    e4 = np.max(h + hx) + np.trapezoid(hx + hxx, dx=dts) + np.trapezoid(ht, dx=dts)
    e5 = np.max(htx) + np.trapezoid(htt, dx=dts) + np.trapezoid(htxx, dx=dts)

    T = float(traj.stored_times[m - 1])
    growth_lhs = float(np.sqrt(np.max(g + gx)) + np.sqrt(np.trapezoid(gt, dx=dts))
                       + np.sqrt(np.trapezoid(gx, dx=dts)))
    base = float(np.sqrt(g[0] + gx[0])) + float(np.sqrt(np.trapezoid(src, dx=dts)))
    growth_rhs = base * float(np.exp((1.0 + float(np.max(np.abs(prof.dv_bar)))**2) * T))
    plain = base + float(np.sqrt(np.trapezoid(g, dx=dts)))

    n_path = int(traj.t.searchsorted(t + 1e-12, side="right"))
    beta_h1 = float(running_h1_norm(traj.t, traj.ydot - params.s)[n_path - 1])
    total0 = initial_energy(init, grid, params)
    return EnergyReport(
        e0=float(e0), e1=float(e1), e2=float(e2), e3=float(e3), e4=float(e4),
        e5=float(e5), initial_total=total0, horizon_total=total0 + beta_h1**2,
        beta_h1=beta_h1, growth_lhs=growth_lhs, growth_rhs=growth_rhs,
        growth_constant=growth_lhs / growth_rhs if base > 0 else 0.0,
        growth_rhs_plain=plain,
        growth_constant_plain=growth_lhs / plain if plain > 0 else 0.0, horizon=T,
    )


@dataclass(frozen=True)
class TraceReport:
    """Boundary traces of the transformed unknown and identity residuals."""

    g1_at0: float
    dx_g1_at0: float
    r1: float
    t2: float
    t3: float
    r2: float
    residual_value: float
    residual_slope: float
    residual_second_order: float


def trace_identities(traj: Trajectory, init: InitialData, grid: Grid, params: PhysicalParams,
                     t_index: int) -> TraceReport:
    """Evaluate the boundary-trace identities at one stored time.

    The transformed unknown is applied to the volume perturbation; its value,
    slope, and weighted second derivative at x = 0 are compared against their
    closed-form expressions in terms of the interface speed deviation and the
    transported initial effective velocity, whose w0' and w0'' evaluators
    the datum builds once (init.trace_evals).  An index that is not an
    integer in [0, stored times) is a ValidationError, negative ones and
    bools included.
    """
    traj.check_stored_index(t_index)
    traj.check_certified_with(init, grid, params)
    prof = init.wave
    step = int(traj.stored_idx[t_index])
    s, mu, vp = params.s, params.mu, params.v_plus
    beta = float(traj.ydot[step] - s)
    xt = float(traj.y[step])

    g = traj.v[t_index] - prof.v_bar
    g1 = linearized_operator(g, prof, grid, params)
    g1_at0 = -s * g[0] - mu * trace0(g / prof.v_bar, grid, 1)
    dx_g1_at0 = trace0(g1, grid, 1)
    second = mu * trace0(derivative(g1, grid, 1) / prof.v_bar, grid, 1)

    W = init.w0_at(xt) - params.u_plus
    wp, wpp = (float(evaluate(xt)) for evaluate in init.trace_evals)

    t2 = W**2 / mu**2
    t3 = (
        -3.0 * beta * s * (vp - 1.0) * W / mu**2
        + 3.0 * (beta + s) * W**2 / mu**3
        - 3.0 * wp * W / mu**2
        + W**3 / mu**3
    )
    r1 = -beta * W / mu + mu * t2 + wp
    r2 = (
        s * (vp - 1.0) * beta * W / mu
        + (vp - 2.0) * s * mu * t2
        - mu**2 * t3
        + s * (vp - 2.0) * wp
        - mu * wpp
        - traj.ydot[step] * wp
    )

    return TraceReport(
        g1_at0=float(g1_at0),
        dx_g1_at0=float(dx_g1_at0),
        r1=float(r1),
        t2=float(t2),
        t3=float(t3),
        r2=float(r2),
        residual_value=float(g1_at0 - W),
        residual_slope=float(dx_g1_at0 - (beta * s * (vp - 1.0) / mu + r1)),
        residual_second_order=float(second + (s + beta) * dx_g1_at0 + r2),
    )


def bootstrap_monitor(path: BoundaryPath, params: PhysicalParams, delta: float) -> dict:
    """Running H1 norm of the interface-speed deviation against delta.

    Passing the delta/2 threshold at every time is the closing step of the
    continuation argument behind global existence.  The path lies in the
    admissible set with constant M when min_speed >= 1/M, max_speed <= M and
    max_running_h1 <= M.
    """
    if not 0.0 < delta < np.inf:
        raise ValidationError(f"delta must be finite and positive (got {delta})")
    running = running_h1_norm(path.t, path.ydot - params.s)
    return {
        "t": path.t.copy(),
        "running_h1": running,
        "max_running_h1": float(np.max(running)),
        "min_speed": float(np.min(path.ydot)),
        "max_speed": float(np.max(path.ydot)),
        "pass_half_delta": bool(np.all(running <= delta / 2.0)),
        "pass_delta": bool(np.all(running <= delta)),
    }


def shifted_weight_inequality(F: np.ndarray, path: BoundaryPath, M: float,
                              grid: Grid) -> dict:
    """Check int_0^T int_0^R F^2(x + y(t)) <= M int z F^2(z) dz.

    Requires a finite M > 0 and y(t) >= t/M along the path; F is tabulated
    on the grid with zero declared tail.
    """
    F = as_field(F, grid)
    if not 0.0 < M < np.inf:  # NaN fails
        raise ValidationError(f"M must be finite and positive (got {M})")
    if np.any(path.y < path.t / M - 1e-12):
        raise ValidationError("path violates y(t) >= t/M; inequality hypotheses fail")
    shifted = shift_sample(monotone_interpolator(F, grid, 0.0), path.y)
    # ROW_BLOCK rows at a time, squared in place: one pass over the whole table
    # would hold two more arrays of its size at once
    blocks = np.split(shifted, range(ROW_BLOCK, len(shifted), ROW_BLOCK))
    widths = np.diff(grid.x)
    inner = np.concatenate([row_trapezoid(np.square(b, out=b), widths) for b in blocks])
    lhs = float(np.trapezoid(inner, path.t))
    rhs = float(M * np.trapezoid(grid.x * F**2, grid.x))
    return {"lhs": lhs, "rhs": rhs}


def path_difference_inequality(w0: np.ndarray, path1: BoundaryPath, path2: BoundaryPath,
                               M: float, grid: Grid) -> dict:
    """Check ||w0(y1) - w0(y2)||_{L2(0,T)} <= M ||y1'-y2'||_{L2} ||sqrt(z) w0'||_{L2}.

    M must be finite and positive, and both paths must be on the same time
    mesh, the one the L2(0,T) norms integrate on."""
    w0 = as_field(w0, grid)
    if not 0.0 < M < np.inf:  # NaN fails
        raise ValidationError(f"M must be finite and positive (got {M})")
    if not np.array_equal(path1.t, path2.t):
        raise ValidationError("the two paths must share one time mesh")
    for p in (path1, path2):
        if np.min(p.ydot) < 1.0 / M - 1e-12 or np.max(p.ydot) > M + 1e-12:
            raise ValidationError("path speeds must lie in [1/M, M]")
    w0_eval = monotone_interpolator(w0, grid, float(w0[-1]))
    t = path1.t
    diff = w0_eval(path1.y) - w0_eval(path2.y)
    lhs = float(np.sqrt(np.trapezoid(diff**2, t)))
    dw = derivative(w0, grid, 1)
    weight = float(np.sqrt(np.trapezoid(grid.x * dw**2, grid.x)))
    speed_diff = float(np.sqrt(np.trapezoid((path1.ydot - path2.ydot) ** 2, t)))
    rhs = float(M * speed_diff * weight)
    return {"lhs_L2": lhs, "rhs_L2": rhs}


def l1_bound_report(traj: Trajectory, init: InitialData, grid: Grid,
                    params: PhysicalParams) -> dict:
    """Measure the L1 control of the volume perturbation along a run.

    The bound states sup_t ||v - vwave||_L1 <= C [ ||v0 - vwave||_L1
    + ||d_x w0||_L1 + ||d_x vwave||_L1 ]; the constant C it takes to make it
    hold is reported (logged, never asserted strictly).
    """
    traj.check_certified_with(init, grid, params)
    prof = init.wave
    lhs = np.max(traj.deviations["v_l1"])
    rhs_factor = (
        norm(init.v0 - prof.v_bar, grid, NormKind.L1)
        + norm(init.dxw0, grid, NormKind.L1)
        + norm(prof.dv_bar, grid, NormKind.L1)
    )
    return {
        "sup_l1_deviation": float(lhs),
        "rhs_factor": float(rhs_factor),
        "measured_constant": float(lhs / rhs_factor) if rhs_factor > 0 else 0.0,
    }


def write_diagnostic_records(path, records: list[dict]) -> None:
    """Write one JSON object per line with fields t, check, lhs, rhs, gap, pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
