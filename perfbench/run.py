"""Benchmark of congested_ns: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload front_steady --seed 0 --seconds 35 --trace 0

Run from the root of a checkout.  Every sample runs in its own fresh worker
process (perfbench/worker.py), one at a time, with BLAS/OpenMP pinned to one
thread.  Rounds of one set-up sample and one whole workload run repeat while
the next round is expected to end within --seconds (at least one round);
set-up is then sampled until there are SETUP_SAMPLES of it.  Interleaving
spreads the short set-up samples over the same minutes as the runs, so a
slow spell of the machine weighs on both alike.  With --trace 0 the
end-to-end metrics are medians over those samples; with --trace 1 each round
adds a traced run and the per-layer table is reported.  Times are scaled to
the reference machine speed by the probe in speed.py; the raw wall times are
printed and kept in the result file beside them.
Every run's outputs are checked (workloads.py); a run that fails a check
counts as failed.  The last line of standard output is the result object;
the same result, with quartiles, sample counts and the environment, is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _worker(workload: str, seed: int, mode: str, out_dir: Path, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out_dir)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads_pinned": {var: "1" for var in THREAD_VARS}}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    out_dir = OUT / f"{workload}-seed{seed}"
    modes = ("setup", "run", "trace") if trace else ("setup", "run")
    samples: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            samples[mode].append(_worker(workload, seed, mode, out_dir, smoke))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    setups = samples["setup"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(workload, seed, "setup", out_dir, smoke))
    if len({s["inputs_digest"] for batch in samples.values() for s in batch}) != 1:
        raise BenchError("the same seed produced different inputs")

    runs = samples["run"]
    attempted = len(runs)
    failed = sum(not r["ok"] for r in runs)
    errors = sorted({e for r in runs for e in r["errors"]})
    stats = {key: _stats([r[key] for r in runs])
             for key in ("run_s", "solve_s", "peak_rss_mb", "run_raw_s", "solve_raw_s",
                         "speed_factor")}
    stats.update({key: _stats([s[key] for s in setups])
                  for key in ("setup_s", "setup_raw_s")})
    result = {"workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
              "environment": {**_environment(), "versions": setups[0]["versions"]},
              "inputs_digest": setups[0]["inputs_digest"], "scalars": runs[-1]["scalars"],
              "attempted": attempted, "failed": failed, "errors": errors, "stats": stats,
              "ok_frac": (attempted - failed) / attempted}
    if trace:
        traced = samples["trace"]
        identity = sorted({e for r in traced for e in r["identity_errors"]})
        if identity:
            raise BenchError("trace identities failed:\n  " + "\n  ".join(identity))
        layers = {key: statistics.median_low(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        traced_run_s = statistics.median(r["run_raw_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_run_s / stats["run_raw_s"]["median"] - 1.0
        result["layers"] = layers
        result["failed"] += sum(not r["ok"] for r in traced)
        result["attempted"] += len(traced)
    return result


def result_line(result: dict, spec: dict) -> dict:
    """The result object, with metric names and units as in BENCHMARK.json."""
    if result["trace"]:
        values = result["layers"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {key: s["median"] for key, s in result["stats"].items()}
        values["ok_frac"] = result["ok_frac"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="congested_ns benchmark (one workload)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid and horizon, no reference comparison (self-tests)")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "congested_ns" / "__init__.py").is_file():
        print(f"no congested_ns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for e in result["errors"]:
        print(f"check failed: {e}")
    for key, s in result["stats"].items():
        print(f"{key}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
    for key, value in result.get("layers", {}).items():
        print(f"{key}: {value:.6g}")
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result_line(result, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
