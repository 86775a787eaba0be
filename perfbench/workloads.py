"""The benchmark's workloads: seeded inputs, correctness gates, reference scalars.

Each workload is a CLI preset run in process through ``congested_ns.cli.run``.
The seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``);
variant 0 is the preset itself, and every variant has reference scalars in
``reference.json``, so every seed is checked against recorded values.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 16
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# |drift| of v and of the interface speed on the exact front: roundoff level
FRONT_DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    solver: bool
    must_run: tuple[str, ...]


_SOLVER_MUST_RUN = (
    "cli.run", "freeboundary.picard_solve", "freeboundary._march",
    "freeboundary.validate_hypotheses", "freeboundary.InitialData.w0_at",
    "freeboundary.reconstruction_residuals", "parabolic.step_v", "parabolic.step_u",
    "parabolic._solve_tridiagonal", "parabolic.RegularizedLog.__call__",
    "parabolic.linear_parabolic_step", "profiles.traveling_wave",
    "profiles.effective_velocity_about_wave", "core.as_field", "discrete_ops.trace0",
    "discrete_ops.norm", "discrete_ops.monotone_interpolator",
    "discrete_ops.shift_sample", "diagnostics.bootstrap_monitor",
    "diagnostics.l1_bound_report", "perturbations.initial_data_fields",
    "cli._trajectory_csv", "cli._snapshot_file",
)

WORKLOADS = {
    w.name: w for w in (
        Workload("front_steady", "steady_wave", True,
                 _SOLVER_MUST_RUN + ("diagnostics.energy_report",)),
        Workload("bump_bootstrap", "bootstrap_check", True, _SOLVER_MUST_RUN),
        Workload("lemma_sweep", "appendix_lemmas", False,
                 ("cli.run", "diagnostics.shifted_weight_inequality",
                  "diagnostics.path_difference_inequality", "discrete_ops.shift_sample",
                  "discrete_ops.monotone_interpolator", "freeboundary.make_path",
                  "diagnostics.write_diagnostic_records")),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def overrides(name: str, seed: int, smoke: bool = False) -> dict:
    """RunConfig fields that define the workload's inputs for this seed."""
    k = variant_of(seed)
    rng = random.Random(f"{name}:{k}")
    if name == "front_steady":
        # s = (u_minus - u_plus) / (v_plus - 1) = 1, so the step count is fixed
        mu, v_plus = (1.0, 2.0) if k == 0 else (rng.uniform(0.8, 1.25), rng.uniform(1.8, 2.4))
        out = dict(T_final=4.0, mu=mu, v_plus=v_plus, u_minus=v_plus - 1.0, u_plus=0.0)
    elif name == "bump_bootstrap":
        center, width = (2.0, 1.0) if k == 0 else (rng.uniform(1.8, 2.2), rng.uniform(0.9, 1.1))
        out = dict(T_final=2.0, center=center, width=width)
    elif name == "lemma_sweep":
        out = dict(seed=k)
    else:
        raise KeyError(f"unknown workload {name!r} (choose from {sorted(WORKLOADS)})")
    if smoke:
        out["n"] = 513
        if WORKLOADS[name].solver:
            out["T_final"] = 0.25
    return out


def _final_position(out_dir: Path) -> float:
    with open(out_dir / "trajectory.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["xtilde"])


def key_scalars(name: str, out_dir: Path, summary: dict) -> dict:
    """Scalars compared against the reference, read from the run's outputs."""
    if WORKLOADS[name].solver:
        return {"beta_h1": summary["beta_h1"],
                "y_final": _final_position(out_dir),
                "iterations_per_window": summary["iterations_per_window"]}
    records = [json.loads(line) for line in
               (out_dir / "diagnostics.jsonl").read_text(encoding="utf-8").splitlines()]
    return {"lhs_sum": math.fsum(r["lhs"] for r in records),
            "worst_lhs_over_rhs": max(r["lhs"] / r["rhs"] for r in records)}


def certificate_errors(name: str, summary: dict) -> list[str]:
    """The workload's own certificate, from ``summary.json``."""
    if summary.get("status") != "ok":
        return [f"summary status {summary.get('status')!r}: {summary.get('message', '')}"]
    errors = []
    if WORKLOADS[name].solver:
        cap = max_iter()
        if any(n >= cap for n in summary["iterations_per_window"]):
            errors.append(f"a Picard window reached max_iter={cap}: "
                          f"{summary['iterations_per_window']}")
    if name == "front_steady":
        for key in ("max_drift_v_linf", "max_drift_speed"):
            if not abs(summary[key]) <= FRONT_DRIFT_TOL:
                errors.append(f"{key}={summary[key]:g} exceeds roundoff {FRONT_DRIFT_TOL:g}")
    elif name == "bump_bootstrap":
        if summary["bootstrap_pass_half_delta"] is not True:
            errors.append("bootstrap running H1 norm exceeded delta/2")
    elif summary["counterexamples"] != 0:
        errors.append(f"{summary['counterexamples']} counterexamples to the appendix lemmas")
    return errors


def max_iter() -> int:
    """Picard iteration cap the CLI passes to picard_solve (its default)."""
    import inspect

    from congested_ns.freeboundary import picard_solve
    return inspect.signature(picard_solve).parameters["max_iter"].default


def reference_errors(name: str, seed: int, scalars: dict, cfg) -> list[str]:
    """Compare key scalars with the recorded reference for this seed's variant.

    Tolerances come from the run's own solver tolerances, not from observed
    spread.  The Picard stopping rule bounds the H1 distance between the last
    two speed iterates by ``picard_tol``, so two correct solvers agree on the
    speed path to a small multiple of it: ``beta_h1`` (an H1 norm of the
    speed deviation) within ``10 picard_tol`` and the final position (the
    time integral of the speed) within ``10 picard_tol sqrt(T)``.  The lemma
    quantities are plain quadratures, compared at relative ``newton_tol``.
    Iterations per window may not exceed the reference count, so a faster
    iteration scheme passes and a slower or looser one does not.
    """
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name].get(str(variant_of(seed)))
    if ref is None:
        return [f"no reference for {name} variant {variant_of(seed)}"]
    errors = []
    if WORKLOADS[name].solver:
        its, ref_its = scalars["iterations_per_window"], ref["iterations_per_window"]
        if len(its) != len(ref_its):
            errors.append(f"{len(its)} windows, reference {len(ref_its)}")
        elif any(a > b for a, b in zip(its, ref_its)):
            errors.append(f"iterations per window {its} exceed reference {ref_its}")
        tol = 10.0 * cfg.picard_tol
        for key, bound in (("beta_h1", tol), ("y_final", tol * math.sqrt(cfg.T_final))):
            if not abs(scalars[key] - ref[key]) <= bound:
                errors.append(f"{key}={scalars[key]!r} differs from reference {ref[key]!r} "
                              f"by more than {bound:g}")
    else:
        for key in ("lhs_sum", "worst_lhs_over_rhs"):
            if not abs(scalars[key] - ref[key]) <= cfg.newton_tol * abs(ref[key]):
                errors.append(f"{key}={scalars[key]!r} differs from reference {ref[key]!r} "
                              f"by more than relative {cfg.newton_tol:g}")
    return errors
