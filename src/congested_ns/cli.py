"""Experiment orchestration: config parsing, preset experiments, outputs.

Config files are flat ``key = value`` lines with dotted sections, e.g.::

    preset = steady_wave
    grid.n = 2049
    perturbation.family = gaussian_bump
    perturbation.amplitude = 0.001

Every run writes a resolved-config echo, a trajectory CSV (header
``t,xtilde,xtilde_dot,p_s,l2_v_err,h1_v_err,l2_u_err,beta_h1_running``),
full-line snapshots (columns ``x v u w p``), JSON-lines diagnostics and a
summary JSON.  Numbers are printed with 17 significant digits so reruns are
bit-comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import PhysicalParams, ValidationError, make_grid
from .diagnostics import (
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
from .discrete_ops import NormKind, norm
from .freeboundary import (
    Trajectory,
    assemble_solution,
    is_multiple,
    make_path,
    path_h1_norm,
    picard_solve,
    reconstruction_residuals,
    running_h1_norm,
    validate_hypotheses,
)
from .perturbations import FAMILIES, initial_data_fields
from .profiles import effective_velocity_about_wave, traveling_wave

PRESETS = (
    "steady_wave",
    "convergence_order",
    "stability_sweep",
    "coercivity_suite",
    "trace_suite",
    "bootstrap_check",
    "appendix_lemmas",
)

# calibrated once against the frozen bootstrap_check perturbation (amplitude
# 0.005, width 1.0): measured initial energy 0.00108 <= c0 * delta^2 = 0.0015
# at delta = 0.05
BOOTSTRAP_C0 = 0.6


def fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass
class RunConfig:
    """Resolved configuration of one experiment."""

    preset: str = "steady_wave"
    out_dir: str = "out"
    seed: int = 0
    workers: int = 1
    mu: float = 1.0
    v_plus: float = 2.0
    u_minus: float = 1.0
    u_plus: float = 0.0
    R: float = 50.0
    n: int = 2049
    T_final: float = 1.0
    dt: float = 1e-3
    stride: int = 10
    window: float | None = None
    family: str = "none"
    amplitude: float = 0.0
    width: float = 0.5
    center: float = 2.0
    newton_tol: float = 1e-10
    picard_tol: float = 1e-8
    delta: float = 0.05
    sweep_amplitudes: tuple[float, ...] = (1e-4, 1e-3, 1e-2)

    def params(self) -> PhysicalParams:
        return PhysicalParams(mu=self.mu, v_plus=self.v_plus,
                              u_minus=self.u_minus, u_plus=self.u_plus)


_KEY_MAP = {
    "preset": ("preset", str),
    "out_dir": ("out_dir", str),
    "seed": ("seed", int),
    "workers": ("workers", int),
    "params.mu": ("mu", float),
    "params.v_plus": ("v_plus", float),
    "params.u_minus": ("u_minus", float),
    "params.u_plus": ("u_plus", float),
    "grid.R": ("R", float),
    "grid.n": ("n", int),
    "time.T_final": ("T_final", float),
    "time.dt": ("dt", float),
    "time.stride": ("stride", int),
    "time.window": ("window", float),
    "perturbation.family": ("family", str),
    "perturbation.amplitude": ("amplitude", float),
    "perturbation.width": ("width", float),
    "perturbation.center": ("center", float),
    "tolerances.newton_tol": ("newton_tol", float),
    "tolerances.picard_tol": ("picard_tol", float),
    "tolerances.delta": ("delta", float),
    "sweep.amplitudes": ("sweep_amplitudes",
                         lambda s: tuple(float(v) for v in s.split(","))),
}


class ConfigError(ValueError):
    """Config text could not be parsed or validated."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        out[key] = value
    return out


def config_from_mapping(mapping: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    updates = {}
    for key, raw in mapping.items():
        if key not in _KEY_MAP:
            raise ConfigError(f"unknown config field {key!r}")
        attr, conv = _KEY_MAP[key]
        try:
            updates[attr] = conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {key!r}: cannot parse {raw!r} ({exc})") from exc
    cfg = replace(cfg, **updates)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.preset not in PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r} (choose from {PRESETS})")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown perturbation.family {cfg.family!r}")
    for key, values in (("perturbation.amplitude", (cfg.amplitude,)),
                        ("sweep.amplitudes", cfg.sweep_amplitudes)):
        bad = [a for a in values if not 0.0 <= a < math.inf]
        if bad:
            raise ConfigError(f"{key} must be finite and >= 0 (got {bad[0]})")
    for key in ("time.dt", "time.T_final", "time.window", "tolerances.newton_tol",
                "tolerances.picard_tol", "tolerances.delta", "grid.R",
                "perturbation.width", "perturbation.center"):
        value = getattr(cfg, _KEY_MAP[key][0])
        if value is not None and not 0.0 < value < math.inf:  # window None: the default
            raise ConfigError(f"{key} must be finite and positive (got {value})")
    if not is_multiple(cfg.T_final, cfg.dt):
        raise ConfigError(f"time.T_final={cfg.T_final:g} must be a multiple of "
                          f"time.dt={cfg.dt:g}")
    if cfg.stride < 1:
        raise ConfigError(f"time.stride must be at least 1 (got {cfg.stride})")
    if cfg.n < 16:
        raise ConfigError(f"grid.n must be at least 16 (got {cfg.n})")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be at least 1 (got {cfg.workers})")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be at least 0 (got {cfg.seed})")
    try:
        cfg.params()
        make_grid(cfg.R, cfg.n)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.preset == "convergence_order":
        _convergence_levels(cfg)


def _convergence_levels(cfg: RunConfig) -> list[tuple[int, float, int]]:
    """(n, dt, stride) of the three convergence_order levels: dt grows as dx^2
    from time.dt on the finest grid (16, 4 and 1 times time.dt) and fields are
    stored every 0.08 time units.  A time.dt that gives some level no stored
    field or a step that does not divide T_final is a ConfigError."""
    levels = (513, 1025, 2049)
    out = []
    for n in levels:
        dt = cfg.dt * ((levels[-1] - 1) / (n - 1)) ** 2
        stride = int(round(0.08 / dt))
        if stride < 1:
            raise ConfigError(f"time.dt={cfg.dt:g} gives the n={n} level of convergence_order "
                              f"the step {dt:g}, too long to store a field every 0.08")
        if not is_multiple(cfg.T_final, dt):
            raise ConfigError(f"time.dt={cfg.dt:g} gives the n={n} level of convergence_order "
                              f"the step {dt:g}, which does not divide "
                              f"time.T_final={cfg.T_final:g}")
        out.append((n, dt, stride))
    return out


def presets() -> list[str]:
    """Names of the built-in experiments."""
    return list(PRESETS)


def preset_config(name: str) -> RunConfig:
    """Default configuration of a preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (choose from {PRESETS})")
    base = RunConfig(preset=name)
    tweaks: dict[str, dict] = {
        "steady_wave": dict(family="none", T_final=1.0, dt=1e-3, stride=10),
        "convergence_order": dict(family="gaussian_bump", amplitude=1e-2,
                                  T_final=0.96, dt=1e-3, stride=80),
        "stability_sweep": dict(family="gaussian_bump", T_final=1.0, dt=1e-3, stride=20),
        "coercivity_suite": dict(R=15.0, n=4096),
        "trace_suite": dict(family="w0_tilt", amplitude=0.05, T_final=1.0,
                            dt=1e-3, stride=50),
        "bootstrap_check": dict(family="gaussian_bump", amplitude=0.005, width=1.0,
                                T_final=20.0, dt=2e-3, stride=100, delta=0.05),
        "appendix_lemmas": dict(R=30.0, n=1025),
    }
    return replace(base, **tweaks[name])


def resolve_config(config_path: str | None, preset: str | None,
                   out_dir: str | None, overrides: list[str]) -> RunConfig:
    mapping: dict[str, str] = {}
    if config_path is not None:
        mapping.update(parse_config_text(Path(config_path).read_text(encoding="utf-8")))
    if preset is not None:
        mapping["preset"] = preset
    base = preset_config(mapping.get("preset", "steady_wave"))
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must look like key=value, got {ov!r}")
        key, value = (part.strip() for part in ov.split("=", 1))
        mapping[key] = value
    cfg = config_from_mapping(mapping, base=base)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg


def config_lines(cfg: RunConfig) -> str:
    """Re-serialize the resolved config in the flat key = value format."""
    reverse = {attr: key for key, (attr, _) in _KEY_MAP.items()}
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, float):
            text = fmt(value)
        elif isinstance(value, tuple):
            text = ",".join(fmt(v) for v in value)
        else:
            text = str(value)
        lines.append(f"{reverse[f.name]} = {text}")
    return "\n".join(lines) + "\n"


def _trajectory_csv(path: Path, traj: Trajectory) -> None:
    grid = traj.grid
    beta_running = running_h1_norm(traj.t, traj.ydot - traj.params.s)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,xtilde,xtilde_dot,p_s,l2_v_err,h1_v_err,l2_u_err,beta_h1_running\n")
        for i, step in enumerate(traj.stored_idx):
            g = traj.v[i] - traj.wave.v_bar
            h = traj.u[i] - traj.wave.u_bar
            row = (
                traj.t[step], traj.y[step], traj.ydot[step], traj.p_s[step],
                norm(g, grid, NormKind.L2), norm(g, grid, NormKind.H1),
                norm(h, grid, NormKind.L2), beta_running[step],
            )
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _snapshot_file(path: Path, traj: Trajectory, t_index: int) -> None:
    grid, params = traj.grid, traj.params
    x, v, u, p = assemble_solution(traj, grid, params, t_index)
    w = np.concatenate((np.full(x.size - grid.n, params.u_minus),
                        effective_velocity_about_wave(traj.u[t_index], traj.v[t_index], grid,
                                                      params, traj.wave)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x v u w p\n")
        for row in zip(x, v, u, w, p):
            fh.write(" ".join(fmt(val) for val in row) + "\n")


def _solve_from_config(cfg: RunConfig) -> Trajectory:
    params = cfg.params()
    grid = make_grid(cfg.R, cfg.n)
    v0, u0 = initial_data_fields(cfg.family, cfg.amplitude, cfg.center, cfg.width,
                                 params, grid)
    init = validate_hypotheses(v0, u0, grid, params)
    return picard_solve(init, grid, params, T_final=cfg.T_final, dt=cfg.dt,
                        tol=cfg.picard_tol, window=cfg.window, stride=cfg.stride,
                        newton_tol=cfg.newton_tol)


def _run_summary(cfg: RunConfig, traj: Trajectory) -> dict:
    grid, params, init = traj.grid, traj.params, traj.init
    monitor = bootstrap_monitor(traj.path, params, cfg.delta)
    recon = reconstruction_residuals(traj, init, grid, params)
    return {
        "converged": True,
        "iterations_per_window": [w.iterations for w in traj.windows],
        "max_drift_v_linf": float(np.max(np.abs(traj.v - traj.wave.v_bar))),
        "max_drift_u_linf": float(np.max(np.abs(traj.u - traj.wave.u_bar))),
        "max_drift_speed": float(np.max(np.abs(traj.ydot - params.s))),
        "max_drift_pressure": float(np.max(np.abs(traj.p_s - params.p_minus))),
        "beta_h1": path_h1_norm(traj.t, traj.ydot - params.s),
        "bootstrap_pass_half_delta": monitor["pass_half_delta"],
        "bootstrap_pass_delta": monitor["pass_delta"],
        "max_reconstruction_residual": float(np.max(recon)),
        "initial_energy": initial_energy(init, grid, params),
        "l1_diagnostic": l1_bound_report(traj, init, grid, params),
    }


def _emit_trajectory_outputs(out: Path, cfg: RunConfig, traj: Trajectory) -> dict:
    _trajectory_csv(out / "trajectory.csv", traj)
    picks = sorted({0, traj.stored_idx.size // 2, traj.stored_idx.size - 1})
    for t_index in picks:
        t_val = traj.t[traj.stored_idx[t_index]]
        _snapshot_file(out / f"snapshot_t{t_val:.6g}.txt", traj, t_index)
    return _run_summary(cfg, traj)


def _run_steady_wave(cfg: RunConfig, out: Path) -> dict:
    traj = _solve_from_config(cfg)
    summary = _emit_trajectory_outputs(out, cfg, traj)
    report = energy_report(traj, traj.init, traj.grid, traj.params, cfg.T_final)
    summary["energies"] = {k: getattr(report, k) for k in
                           ("e0", "e1", "e2", "e3", "e4", "e5",
                            "initial_total", "horizon_total", "beta_h1")}
    return summary


def _run_trace_suite(cfg: RunConfig, out: Path) -> dict:
    traj = _solve_from_config(cfg)
    summary = _emit_trajectory_outputs(out, cfg, traj)
    records = []
    worst = {"residual_value": 0.0, "residual_slope": 0.0, "residual_second_order": 0.0}
    reports = trace_identities(traj, traj.init, traj.grid, traj.params,
                               range(traj.stored_idx.size))
    for i, rep in enumerate(reports):
        t_val = float(traj.t[traj.stored_idx[i]])
        for key in worst:
            worst[key] = max(worst[key], abs(getattr(rep, key)))
        records.append({"t": t_val, "check": "trace_identities",
                        "lhs": rep.g1_at0, "rhs": rep.g1_at0 - rep.residual_value,
                        "gap": rep.residual_value, "pass": abs(rep.residual_value) <= 5e-4,
                        **asdict(rep)})
    write_diagnostic_records(out / "diagnostics.jsonl", records)
    summary["max_trace_residuals"] = worst
    summary["trace_identity_pass"] = worst["residual_value"] <= 5e-4
    return summary


def _run_bootstrap_check(cfg: RunConfig, out: Path) -> dict:
    traj = _solve_from_config(cfg)
    summary = _emit_trajectory_outputs(out, cfg, traj)
    e0 = summary["initial_energy"]
    monitor = bootstrap_monitor(traj.path, traj.params, cfg.delta)
    initial_sup = float(np.max(np.abs(traj.v[0] - traj.wave.v_bar)))
    final_sup = float(np.max(np.abs(traj.v[-1] - traj.wave.v_bar)))
    summary.update({
        "delta": cfg.delta,
        "c0": BOOTSTRAP_C0,
        "smallness_ok": e0 <= BOOTSTRAP_C0 * cfg.delta**2,
        "decay_ratio_at_T": final_sup / initial_sup if initial_sup > 0 else 0.0,
    })
    records = [{"t": float(t), "check": "bootstrap_running_h1",
                "lhs": float(r), "rhs": cfg.delta / 2.0,
                "gap": float(cfg.delta / 2.0 - r), "pass": bool(r <= cfg.delta / 2.0)}
               for t, r in zip(monitor["t"][::cfg.stride], monitor["running_h1"][::cfg.stride])]
    write_diagnostic_records(out / "diagnostics.jsonl", records)
    return summary


def _sweep_one(args: tuple) -> dict:
    cfg_kwargs, amplitude = args
    cfg = replace(RunConfig(**cfg_kwargs), amplitude=amplitude)
    traj = _solve_from_config(cfg)
    _trajectory_csv(Path(cfg.out_dir) / f"trajectory_amp{amplitude:g}.csv", traj)
    return {**_run_summary(cfg, traj), "amplitude": amplitude,
            "min_v": float(np.min(traj.v)), "max_v": float(np.max(traj.v))}


def _run_stability_sweep(cfg: RunConfig, out: Path) -> dict:
    cfg_kwargs = asdict(cfg)
    jobs = [(cfg_kwargs, a) for a in cfg.sweep_amplitudes]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_amp = list(pool.map(_sweep_one, jobs))
    else:
        per_amp = [_sweep_one(job) for job in jobs]
    return {
        "converged": all(s["converged"] for s in per_amp),
        "amplitudes": list(cfg.sweep_amplitudes),
        "runs": per_amp,
        "max_principle_ok": all(
            s["min_v"] >= 1.0 - 1e-9 for s in per_amp
        ),
    }


def _run_convergence_order(cfg: RunConfig, out: Path) -> dict:
    trajs = {}
    for n, dt, stride in _convergence_levels(cfg):
        lcfg = replace(cfg, n=n, dt=dt, stride=stride, picard_tol=1e-10)
        traj = _solve_from_config(lcfg)
        _trajectory_csv(out / f"trajectory_n{n}.csv", traj)
        trajs[n] = traj

    def level_diff(na: int, nb: int) -> float:
        ta, tb = trajs[na], trajs[nb]
        ratio = (nb - 1) // (na - 1)
        times_a = np.round(ta.t[ta.stored_idx], 9)
        times_b = np.round(tb.t[tb.stored_idx], 9)
        common = sorted(set(times_a) & set(times_b) - {0.0})
        worst = 0.0
        for tc in common:
            ia = int(np.where(times_a == tc)[0][0])
            ib = int(np.where(times_b == tc)[0][0])
            worst = max(worst, float(np.max(np.abs(ta.v[ia] - tb.v[ib][::ratio]))))
        return worst

    coarse, middle, fine = trajs
    e_coarse = level_diff(coarse, middle)
    e_fine = level_diff(middle, fine)
    ratio = e_coarse / e_fine if e_fine > 0 else np.inf
    return {
        "converged": True,
        "levels": list(trajs),
        "consecutive_differences": [e_coarse, e_fine],
        "reduction_ratio": ratio,
        "order_ok": ratio >= 3.5,
    }


def _random_smooth_function(rng: np.random.Generator, grid, with_trace: bool):
    """Random mixture of Gaussians (plus a decaying-exponential trace atom)
    with analytic first and second derivatives."""
    x = grid.x
    phi = np.zeros_like(x)
    dphi = np.zeros_like(x)
    d2phi = np.zeros_like(x)
    for _ in range(4):
        A = rng.uniform(-1.0, 1.0)
        c = rng.uniform(2.5, min(6.0, grid.R - 9.0))
        w = rng.uniform(0.6, 1.4)
        e = np.exp(-((x - c) ** 2) / (2.0 * w**2))
        phi += A * e
        dphi += A * e * (-(x - c) / w**2)
        d2phi += A * e * (((x - c) / w**2) ** 2 - 1.0 / w**2)
    if with_trace:
        B = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        lam = rng.uniform(0.8, 2.0)
        e = np.exp(-lam * x)
        phi += B * e
        dphi += -lam * B * e
        d2phi += lam**2 * B * e
    return phi, dphi, d2phi


def _run_coercivity_suite(cfg: RunConfig, out: Path) -> dict:
    params = cfg.params()
    grid = make_grid(cfg.R, cfg.n)
    prof = traveling_wave(params, grid)
    rng = np.random.default_rng(cfg.seed)
    records = []
    worst_gap = 0.0
    for k in range(100):
        phi, dphi, d2phi = _random_smooth_function(rng, grid, with_trace=True)
        res = coercivity_check(phi, prof, grid, params, dphi=dphi, d2phi=d2phi)
        rel = abs(res["gap"]) / max(abs(res["lhs"]), abs(res["rhs"]), 1e-300)
        worst_gap = max(worst_gap, rel)
        records.append({"t": float(k), "check": "coercivity_identity",
                        "lhs": res["lhs"], "rhs": res["rhs"], "gap": res["gap"],
                        "pass": rel <= 1e-6})
    kernel = linearized_operator(prof.dv_bar, prof, grid, params)
    kernel_norm = norm(kernel, grid, NormKind.L2)
    records.append({"t": -1.0, "check": "kernel_of_linearized_operator",
                    "lhs": kernel_norm, "rhs": 1e-5, "gap": 1e-5 - kernel_norm,
                    "pass": kernel_norm <= 1e-5})
    rho = coercivity_weight(grid, params)
    phi, dphi, d2phi = _random_smooth_function(rng, grid, with_trace=True)
    weighted = coercivity_check(phi, prof, grid, params, rho=rho, dphi=dphi, d2phi=d2phi)
    records.append({"t": -2.0, "check": "weighted_coercivity_bound",
                    "lhs": weighted["lhs"], "rhs": weighted["rhs"],
                    "gap": weighted["gap"],
                    "pass": weighted["measured_constant"] < np.inf})
    write_diagnostic_records(out / "diagnostics.jsonl", records)
    return {
        "converged": True,
        "worst_relative_gap": worst_gap,
        "identity_ok": worst_gap <= 1e-6,
        "kernel_norm": kernel_norm,
        "kernel_ok": kernel_norm <= 1e-5,
        "weighted_measured_constant": weighted["measured_constant"],
    }


def _run_appendix_lemmas(cfg: RunConfig, out: Path) -> dict:
    params = cfg.params()
    grid = make_grid(cfg.R, cfg.n)
    rng = np.random.default_rng(cfg.seed)
    records = []
    failures = 0
    x = grid.x
    t_nodes = np.linspace(0.0, 2.0, 101)
    for k in range(100):
        M = rng.uniform(1.2, 3.0)
        amp = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.5, 2.0)
        c = rng.uniform(1.0, 5.0)
        w = rng.uniform(0.5, 2.0)
        F = amp * (np.exp(-lam * x) + np.exp(-((x - c) ** 2) / (2.0 * w**2)))
        speeds = rng.uniform(1.0 / M, M, size=t_nodes.size)
        path = make_path(t_nodes, np.maximum(speeds, 1.0 / M))
        res = shifted_weight_inequality(F, path, M, grid)
        ok = res["lhs"] <= res["rhs"] * (1.0 + 1e-12)
        failures += 0 if ok else 1
        records.append({"t": float(k), "check": "shifted_weight_inequality",
                        "lhs": res["lhs"], "rhs": res["rhs"],
                        "gap": res["rhs"] - res["lhs"], "pass": ok})
    for k in range(100):
        M = rng.uniform(1.2, 3.0)
        amp = rng.uniform(0.05, 0.5)
        lam = rng.uniform(0.5, 2.0)
        w0 = params.u_plus + amp * np.exp(-lam * x)
        p1 = make_path(t_nodes, rng.uniform(1.0 / M, M, size=t_nodes.size))
        p2 = make_path(t_nodes, rng.uniform(1.0 / M, M, size=t_nodes.size))
        res = path_difference_inequality(w0, p1, p2, M, grid)
        ok = res["lhs_L2"] <= res["rhs_L2"] * (1.0 + 1e-12)
        failures += 0 if ok else 1
        records.append({"t": float(k), "check": "path_difference_inequality",
                        "lhs": res["lhs_L2"], "rhs": res["rhs_L2"],
                        "gap": res["rhs_L2"] - res["lhs_L2"], "pass": ok})
    write_diagnostic_records(out / "diagnostics.jsonl", records)
    return {"converged": True, "instances": 200, "counterexamples": failures,
            "all_hold": failures == 0}


_RUNNERS = {
    "steady_wave": _run_steady_wave,
    "convergence_order": _run_convergence_order,
    "stability_sweep": _run_stability_sweep,
    "coercivity_suite": _run_coercivity_suite,
    "trace_suite": _run_trace_suite,
    "bootstrap_check": _run_bootstrap_check,
    "appendix_lemmas": _run_appendix_lemmas,
}


def run(cfg: RunConfig) -> int:
    """Execute the configured preset; write outputs; return the exit status."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(config_lines(cfg), encoding="utf-8")
    started = time.time()
    try:
        summary = _RUNNERS[cfg.preset](cfg, out)
    except Exception as exc:
        # bad input exits 2, a solver failure 1; any other type is a defect
        # in the package, recorded as kind "internal" with where it was raised
        typed = isinstance(exc, (ValidationError, ConfigError, RuntimeError))
        failure = {"status": "error", "kind": type(exc).__name__ if typed else "internal",
                   "message": str(exc), "preset": cfg.preset}
        if not typed:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            failure["exception"] = type(exc).__name__
            failure["where"] = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
        if hasattr(exc, "t"):
            failure["t"] = exc.t
        (out / "summary.json").write_text(json.dumps(failure, indent=2), encoding="utf-8")
        print(json.dumps(failure), file=sys.stderr)
        return 2 if isinstance(exc, (ValidationError, ConfigError)) else 1
    summary = {"status": "ok", "preset": cfg.preset,
               "elapsed_seconds": round(time.time() - started, 3), **summary}
    (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="congested-ns",
        description="Free-boundary solver and verification experiments for the "
                    "partially congested flow model.",
    )
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--preset", metavar="NAME",
                        help=f"preset experiment, one of: {', '.join(PRESETS)}")
    parser.add_argument("--out-dir", metavar="PATH", help="output directory")
    parser.add_argument("--override", metavar="KEY=VALUE", action="append", default=[],
                        help="override a config field (repeatable)")
    args = parser.parse_args(argv)
    if args.config is None and args.preset is None:
        parser.error("provide --config and/or --preset")
    try:
        cfg = resolve_config(args.config, args.preset, args.out_dir, args.override)
    except (ConfigError, FileNotFoundError) as exc:
        print(json.dumps({"status": "error", "kind": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
