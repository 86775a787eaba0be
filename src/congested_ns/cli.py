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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .core import PhysicalParams, ValidationError, grid_spacing, make_grid, write_table
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
    DEFAULT_PICARD_TOL,
    Trajectory,
    assemble_solution,
    is_multiple,
    make_path,
    picard_solve,
    reconstruction_residuals,
    validate_hypotheses,
)
from .perturbations import FAMILIES, initial_data_fields
from .profiles import effective_velocity_about_wave, traveling_wave

# calibrated once against the frozen bootstrap_check perturbation (amplitude
# 0.005, width 1.0): measured initial energy 0.00108 <= c0 * delta^2 = 0.0015
# at delta = 0.05
BOOTSTRAP_C0 = 0.6

# the H1 distance between successive Picard iterates bottoms out at the
# rounding of the map, not at its contraction.  The map is a fixed sequence of
# floating-point operations in the speeds (one linearized update per step_v,
# no stopping test), so it has no jumps, but its rounding keeps two iterates
# apart: on the bootstrap_check datum's window at t=16.25 the distances level
# off at 4e-13 to 9e-13.  Below this tolerance, whether a window converges
# would depend on that rounding
PICARD_TOL_FLOOR = 1e-12


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _setting(key: str, default, rule: str = "", parse=None):
    """A RunConfig field: its dotted config key, the parser of its text (the
    type of its default unless given) and its range rule, "> b" or ">= b",
    which the value, or each entry of a tuple, must meet and be finite."""
    return field(default=default,
                 metadata={"key": key, "parse": parse or type(default), "rule": rule})


@dataclass
class RunConfig:
    """Resolved configuration of one experiment; each field's metadata is its
    config key, parser and range rule."""

    preset: str = _setting("preset", "steady_wave")
    out_dir: str = _setting("out_dir", "out")
    seed: int = _setting("seed", 0, ">= 0")
    workers: int = _setting("workers", 1, ">= 1")
    mu: float = _setting("params.mu", 1.0)
    v_plus: float = _setting("params.v_plus", 2.0)
    u_minus: float = _setting("params.u_minus", 1.0)
    u_plus: float = _setting("params.u_plus", 0.0)
    R: float = _setting("grid.R", 50.0, "> 0")
    n: int = _setting("grid.n", 2049, ">= 16")
    T_final: float = _setting("time.T_final", 1.0, "> 0")
    dt: float = _setting("time.dt", 1e-3, "> 0")
    stride: int = _setting("time.stride", 10, ">= 1")
    window: float | None = _setting("time.window", None, "> 0", parse=float)
    family: str = _setting("perturbation.family", "none")
    amplitude: float = _setting("perturbation.amplitude", 0.0, ">= 0")
    width: float = _setting("perturbation.width", 0.5, "> 0")
    center: float = _setting("perturbation.center", 2.0, "> 0")
    # read by no solver call: perfbench's lemma gate takes it as its relative
    # tolerance, and it goes with the next version of the benchmark
    newton_tol: float = _setting("tolerances.newton_tol", 1e-10, "> 0")
    picard_tol: float = _setting("tolerances.picard_tol", DEFAULT_PICARD_TOL,
                                 f">= {PICARD_TOL_FLOOR:g}")
    delta: float = _setting("tolerances.delta", 0.05, "> 0")
    sweep_amplitudes: tuple[float, ...] = _setting(
        "sweep.amplitudes", (1e-4, 1e-3, 1e-2), ">= 0",
        parse=lambda s: tuple(float(v) for v in s.split(",")))

    def params(self) -> PhysicalParams:
        return PhysicalParams(mu=self.mu, v_plus=self.v_plus,
                              u_minus=self.u_minus, u_plus=self.u_plus)


_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}


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
        if key not in _FIELDS:
            raise ConfigError(f"unknown config field {key!r}")
        f = _FIELDS[key]
        try:
            updates[f.name] = f.metadata["parse"](raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field {key!r}: cannot parse {raw!r} ({exc})") from exc
    cfg = replace(cfg, **updates)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """ConfigError unless each field meets its range rule and the fields fit
    together and with the preset."""
    if cfg.preset not in PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r} (choose from {PRESETS})")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown perturbation.family {cfg.family!r}")
    for f in fields(cfg):
        value, rule = getattr(cfg, f.name), f.metadata["rule"]
        if not rule or value is None:  # time.window None: the default
            continue
        op, bound = rule.split()
        low = float(bound)
        bad = [a for a in (value if isinstance(value, tuple) else (value,))
               if not (low < a < math.inf if op == ">" else low <= a < math.inf)]
        if bad:
            raise ConfigError(f"{f.metadata['key']} must be finite and {rule} (got {bad[0]})")
    for key, value in (("time.T_final", cfg.T_final), ("time.window", cfg.window)):
        if value is not None and not is_multiple(value, cfg.dt):
            raise ConfigError(f"{key}={value:g} must be a multiple of time.dt={cfg.dt:g}")
    try:
        cfg.params()
        grid_spacing(cfg.R, cfg.n)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.preset == "convergence_order":
        _convergence_levels(cfg)
    if cfg.preset == "coercivity_suite" and cfg.R < 11.5:
        raise ConfigError(f"coercivity_suite needs grid.R >= 11.5 to centre its test bumps "
                          f"in [2.5, min(6, grid.R - 9)] (got {cfg.R:g})")
    names = {_sweep_csv_name(a) for a in cfg.sweep_amplitudes}
    if cfg.preset == "stability_sweep" and len(names) < len(cfg.sweep_amplitudes):
        raise ConfigError(f"sweep.amplitudes {cfg.sweep_amplitudes} write two runs to one "
                          f"file, named by the amplitude to 6 significant digits")


def _convergence_levels(cfg: RunConfig) -> list[tuple[int, float, int]]:
    """(n, dt, stride) of the three convergence_order levels: dt grows as dx^2
    from time.dt on the finest grid (16, 4 and 1 times time.dt) and fields are
    stored every 0.08 time units.  A time.dt that gives some level no stored
    field or a step that does not divide T_final, or a set time.window, is a
    ConfigError."""
    levels = (513, 1025, 2049)
    out = []
    for n in levels:
        dt = cfg.dt * ((levels[-1] - 1) / (n - 1)) ** 2
        stride = int(round(0.08 / dt))
        if stride < 1:
            raise ConfigError(f"time.dt={cfg.dt:g} gives the n={n} level of convergence_order "
                              f"the step {dt:g}, too long to store a field every 0.08")
        for key, value in (("time.T_final", cfg.T_final), ("time.window", cfg.window)):
            if value is not None and not is_multiple(value, dt):
                raise ConfigError(f"time.dt={cfg.dt:g} gives the n={n} level of "
                                  f"convergence_order the step {dt:g}, which does not "
                                  f"divide {key}={value:g}")
        out.append((n, dt, stride))
    return out


def preset_config(name: str) -> RunConfig:
    """Default configuration of a preset."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r} (choose from {PRESETS})")
    base = RunConfig(preset=name)
    tweaks: dict[str, dict] = {
        "steady_wave": dict(family="none", T_final=1.0, dt=1e-3, stride=10),
        "convergence_order": dict(family="gaussian_bump", amplitude=1e-2,
                                  T_final=0.96, dt=1e-3, stride=80, picard_tol=1e-10),
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
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must look like key=value, got {ov!r}")
        key, value = (part.strip() for part in ov.split("=", 1))
        mapping[key] = value
    # the base is the defaults of the preset that runs, whichever layer named it
    cfg = config_from_mapping(mapping, base=preset_config(mapping.get("preset", "steady_wave")))
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg


def config_lines(cfg: RunConfig) -> str:
    """Re-serialize the resolved config in the flat key = value format."""
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
        lines.append(f"{f.metadata['key']} = {text}")
    return "\n".join(lines) + "\n"


def _record(t: float, check: str, lhs: float, rhs: float, ok: bool, **extra) -> dict:
    """A diagnostics.jsonl record; its gap is rhs - lhs."""
    return {"t": t, "check": check, "lhs": lhs, "rhs": rhs, "gap": rhs - lhs, "pass": ok,
            **extra}


def _trajectory_csv(path: Path, traj: Trajectory, beta_running: np.ndarray) -> None:
    """One row per stored time; beta_running is running_h1_norm of ydot - s."""
    idx, dev = traj.stored_idx, traj.deviations
    write_table(path, "t,xtilde,xtilde_dot,p_s,l2_v_err,h1_v_err,l2_u_err,beta_h1_running",
                ",", traj.t[idx], traj.y[idx], traj.ydot[idx], traj.p_s[idx], dev["v_l2"],
                dev["v_h1"], dev["u_l2"], beta_running[idx])


def _snapshot_file(path: Path, traj: Trajectory, t_index: int) -> None:
    grid, params = traj.init.grid, traj.init.params
    x, v, u, p = assemble_solution(traj, grid, params, t_index)
    w = np.concatenate((np.full(x.size - grid.n, params.u_minus),
                        effective_velocity_about_wave(traj.u[t_index], traj.v[t_index], grid,
                                                      params, traj.init.wave)))
    write_table(path, "x v u w p", " ", x, v, u, w, p)


def _solve_from_config(cfg: RunConfig) -> tuple[Trajectory, float]:
    """The run of the configured datum and the wall time inside picard_solve."""
    params = cfg.params()
    grid = make_grid(cfg.R, cfg.n)
    v0, u0 = initial_data_fields(cfg.family, cfg.amplitude, cfg.center, cfg.width,
                                 params, grid)
    init = validate_hypotheses(v0, u0, grid, params)
    started = time.perf_counter()
    traj = picard_solve(init, grid, params, T_final=cfg.T_final, dt=cfg.dt,
                        tol=cfg.picard_tol, window=cfg.window, stride=cfg.stride)
    return traj, time.perf_counter() - started


def _run_summary(traj: Trajectory, monitor: dict, solve_seconds: float) -> dict:
    grid, params, init = traj.init.grid, traj.init.params, traj.init
    recon = reconstruction_residuals(traj, init, grid, params)
    return {
        "solve_seconds": round(solve_seconds, 3),
        "converged": True,
        "iterations_per_window": [w.iterations for w in traj.windows],
        "active_nodes_per_window": [w.active_nodes for w in traj.windows],
        "active_widenings": sum(len(march) for w in traj.windows for march in w.widenings),
        "max_drift_v_linf": float(np.max(traj.deviations["v_linf"])),
        "max_drift_u_linf": float(np.max(traj.deviations["u_linf"])),
        "max_drift_speed": float(np.max(np.abs(traj.ydot - params.s))),
        "max_drift_pressure": float(np.max(np.abs(traj.p_s - params.p_minus))),
        "beta_h1": float(monitor["running_h1"][-1]),
        "bootstrap_pass_half_delta": monitor["pass_half_delta"],
        "bootstrap_pass_delta": monitor["pass_delta"],
        "max_reconstruction_residual": float(np.max(recon)),
        "initial_energy": initial_energy(init, grid, params),
        "l1_diagnostic": l1_bound_report(traj, init, grid, params),
    }


def _emit_trajectory_outputs(out: Path, cfg: RunConfig, traj: Trajectory,
                             solve_seconds: float) -> tuple[dict, dict]:
    """Write the trajectory CSV and snapshots; return the run summary, with
    the energy report at T_final as "energies", and the bootstrap monitor
    both read."""
    monitor = bootstrap_monitor(traj.path, traj.init.params, cfg.delta)
    _trajectory_csv(out / "trajectory.csv", traj, monitor["running_h1"])
    picks = sorted({0, traj.stored_idx.size // 2, traj.stored_idx.size - 1})
    for t_index in picks:
        t_val = traj.t[traj.stored_idx[t_index]]
        _snapshot_file(out / f"snapshot_t{t_val:.6g}.txt", traj, t_index)
    summary = _run_summary(traj, monitor, solve_seconds)
    summary["energies"] = asdict(energy_report(traj, traj.init, traj.init.grid,
                                               traj.init.params, cfg.T_final))
    return summary, monitor


def _run_steady_wave(cfg: RunConfig, out: Path) -> dict:
    traj, solve_seconds = _solve_from_config(cfg)
    return _emit_trajectory_outputs(out, cfg, traj, solve_seconds)[0]


def _run_trace_suite(cfg: RunConfig, out: Path) -> dict:
    traj, solve_seconds = _solve_from_config(cfg)
    summary, _ = _emit_trajectory_outputs(out, cfg, traj, solve_seconds)
    records = []
    worst = {"residual_value": 0.0, "residual_slope": 0.0, "residual_second_order": 0.0}
    for i in range(traj.stored_idx.size):
        rep = trace_identities(traj, traj.init, traj.init.grid, traj.init.params, i)
        t_val = float(traj.t[traj.stored_idx[i]])
        for key in worst:
            worst[key] = max(worst[key], abs(getattr(rep, key)))
        records.append(_record(t_val, "trace_identities", rep.g1_at0,
                               rep.g1_at0 - rep.residual_value,
                               abs(rep.residual_value) <= 5e-4, **asdict(rep)))
    write_diagnostic_records(out / "diagnostics.jsonl", records)
    summary["max_trace_residuals"] = worst
    summary["trace_identity_pass"] = worst["residual_value"] <= 5e-4
    return summary


def _run_bootstrap_check(cfg: RunConfig, out: Path) -> dict:
    traj, solve_seconds = _solve_from_config(cfg)
    summary, monitor = _emit_trajectory_outputs(out, cfg, traj, solve_seconds)
    e0 = summary["initial_energy"]
    initial_sup, final_sup = traj.deviations["v_linf"][[0, -1]].tolist()
    summary.update({
        "delta": cfg.delta,
        "c0": BOOTSTRAP_C0,
        # a product, which overflows to inf for a huge delta where ** raises
        "smallness_ok": e0 <= BOOTSTRAP_C0 * cfg.delta * cfg.delta,
        "decay_ratio_at_T": final_sup / initial_sup if initial_sup > 0 else 0.0,
        "min_speed": monitor["min_speed"],
        "max_speed": monitor["max_speed"],
    })
    records = [_record(float(t), "bootstrap_running_h1", float(r), cfg.delta / 2.0,
                       bool(r <= cfg.delta / 2.0))
               for t, r in zip(monitor["t"][::cfg.stride], monitor["running_h1"][::cfg.stride])]
    write_diagnostic_records(out / "diagnostics.jsonl", records)
    return summary


def _sweep_csv_name(amplitude: float) -> str:
    return f"trajectory_amp{amplitude:g}.csv"


def _sweep_one(cfg: RunConfig) -> dict:
    traj, solve_seconds = _solve_from_config(cfg)
    monitor = bootstrap_monitor(traj.path, traj.init.params, cfg.delta)
    _trajectory_csv(Path(cfg.out_dir) / _sweep_csv_name(cfg.amplitude), traj,
                    monitor["running_h1"])
    return {**_run_summary(traj, monitor, solve_seconds), "amplitude": cfg.amplitude,
            "min_v": float(np.min(traj.v)), "max_v": float(np.max(traj.v))}


def _run_stability_sweep(cfg: RunConfig, out: Path) -> dict:
    jobs = [replace(cfg, amplitude=a) for a in cfg.sweep_amplitudes]
    if cfg.workers > 1:
        # imported here: concurrent.futures and multiprocessing add about 20 ms
        # to every start of the package, and only this path uses them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_amp = list(pool.map(_sweep_one, jobs))
    else:
        per_amp = [_sweep_one(job) for job in jobs]
    return {
        "solve_seconds": round(sum(s["solve_seconds"] for s in per_amp), 3),
        "converged": all(s["converged"] for s in per_amp),
        "amplitudes": list(cfg.sweep_amplitudes),
        "runs": per_amp,
        "max_principle_ok": all(
            s["min_v"] >= 1.0 - 1e-9 for s in per_amp
        ),
    }


def _run_convergence_order(cfg: RunConfig, out: Path) -> dict:
    trajs = {}
    solve_seconds = 0.0
    for n, dt, stride in _convergence_levels(cfg):
        lcfg = replace(cfg, n=n, dt=dt, stride=stride)
        traj, seconds = _solve_from_config(lcfg)
        solve_seconds += seconds
        _trajectory_csv(out / f"trajectory_n{n}.csv", traj,
                        bootstrap_monitor(traj.path, traj.init.params, cfg.delta)["running_h1"])
        trajs[n] = traj

    def level_diff(na: int, nb: int) -> float:
        ta, tb = trajs[na], trajs[nb]
        ratio = (nb - 1) // (na - 1)
        common, rows_a, rows_b = np.intersect1d(np.round(ta.stored_times, 9),
                                                np.round(tb.stored_times, 9),
                                                return_indices=True)
        return max((float(np.max(np.abs(ta.v[ia] - tb.v[ib][::ratio])))
                    for tc, ia, ib in zip(common, rows_a, rows_b) if tc != 0.0), default=0.0)

    coarse, middle, fine = trajs
    e_coarse = level_diff(coarse, middle)
    e_fine = level_diff(middle, fine)
    ratio = e_coarse / e_fine if e_fine > 0 else np.inf
    return {
        "solve_seconds": round(solve_seconds, 3),
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
        records.append(_record(float(k), "coercivity_identity", res["lhs"], res["rhs"],
                               rel <= 1e-6))
    kernel = linearized_operator(prof.dv_bar, prof, grid, params)
    kernel_norm = norm(kernel, grid, NormKind.L2)
    records.append(_record(-1.0, "kernel_of_linearized_operator", kernel_norm, 1e-5,
                           kernel_norm <= 1e-5))
    rho = coercivity_weight(grid, params)
    phi, dphi, d2phi = _random_smooth_function(rng, grid, with_trace=True)
    weighted = coercivity_check(phi, prof, grid, params, rho=rho, dphi=dphi, d2phi=d2phi)
    records.append(_record(-2.0, "weighted_coercivity_bound", weighted["lhs"], weighted["rhs"],
                           weighted["measured_constant"] < np.inf))
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
        records.append(_record(float(k), "shifted_weight_inequality", res["lhs"], res["rhs"],
                               ok))
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
        records.append(_record(float(k), "path_difference_inequality", res["lhs_L2"],
                               res["rhs_L2"], ok))
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
PRESETS = tuple(_RUNNERS)


def _print_error(exc: BaseException, **extra) -> None:
    """The typed error record of a run that cannot write summary.json, on stderr."""
    print(json.dumps({"status": "error", "kind": type(exc).__name__, "message": str(exc),
                      **extra}), file=sys.stderr)


def run(cfg: RunConfig) -> int:
    """Execute the configured preset; write outputs; return the exit status."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_resolved.txt").write_text(config_lines(cfg), encoding="utf-8")
    except OSError as exc:  # an out_dir that names a file, or one that cannot be written
        _print_error(exc, preset=cfg.preset)
        return 2
    started = time.time()
    try:
        validate_config(cfg)
        summary = _RUNNERS[cfg.preset](cfg, out)
    except Exception as exc:
        # bad input exits 2, a solver failure or an allocation the machine
        # refuses 1; any other type is a defect in the package, recorded as
        # kind "internal" with where it was raised
        typed = isinstance(exc, (ValidationError, ConfigError, RuntimeError, MemoryError))
        # numpy raises its own private subclass of MemoryError
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        failure = {"status": "error", "kind": kind if typed else "internal",
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
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        # a config file that is missing, a directory or not UTF-8 text
        _print_error(exc)
        return 2
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
