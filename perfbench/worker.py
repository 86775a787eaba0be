"""Run one benchmark workload once, in this fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --out DIR [--smoke]

MODE is ``setup`` (import ``congested_ns`` and build and validate the
inputs, timed from interpreter start), ``run`` (also run the workload through
``congested_ns.cli.run`` and check its outputs) or ``trace`` (the same run
with every layer function wrapped by :mod:`tracing`).  Set-up and untraced
runs report raw wall times (``*_raw_s``) and the same times at the reference
machine speed measured by :mod:`speed` (``setup_s``, ``run_s``,
``solve_s``).  The last line of standard output is one JSON object; run.py
starts one worker per sample.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def _import_package():
    """Import the package from this checkout's ``src``, never another copy."""
    from congested_ns import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"congested_ns imported from {cli.__file__}, not from {SRC}")
    return cli


def _setup(cli, name: str, seed: int, smoke: bool, out_dir: Path):
    """Resolved config plus a digest of every generated input."""
    from congested_ns.core import make_grid
    from congested_ns.freeboundary import validate_hypotheses
    from congested_ns.perturbations import initial_data_fields

    w = workloads.WORKLOADS[name]
    cfg = replace(cli.preset_config(w.preset), out_dir=str(out_dir),
                  **workloads.overrides(name, seed, smoke))
    cli.validate_config(cfg)
    digest = hashlib.sha256(cli.config_lines(replace(cfg, out_dir="")).encode())
    params = cfg.params()
    grid = make_grid(cfg.R, cfg.n)
    if w.solver:
        v0, u0 = initial_data_fields(cfg.family, cfg.amplitude, cfg.center, cfg.width,
                                     params, grid)
        init = validate_hypotheses(v0, u0, grid, params)
        for arr in (init.v0, init.u0, init.w0):
            digest.update(arr.tobytes())
    return cfg, digest.hexdigest()


def _time_solve(cli, name: str, probe) -> list[float]:
    """Time the workload's compute entry points through ``cli``'s bindings.

    ``picard_solve`` on the solver workloads (one call per run), the two
    inequality checks on ``lemma_sweep`` (200 calls per run).  Time spent in
    the speed probe during a call is not counted.
    """
    entries = (("picard_solve",) if workloads.WORKLOADS[name].solver
               else ("shifted_weight_inequality", "path_difference_inequality"))
    elapsed: list[float] = []
    for attr in entries:
        fn = getattr(cli, attr)

        def timed(*args, _fn=fn, **kwargs):
            t0, probed = time.perf_counter(), probe.spent()
            try:
                return _fn(*args, **kwargs)
            finally:
                elapsed.append(time.perf_counter() - t0 - (probe.spent() - probed))

        setattr(cli, attr, timed)
    return elapsed


def _bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grid and horizon; implies --no-reference")
    ap.add_argument("--no-reference", action="store_true",
                    help="skip the comparison with reference.json (used to record it)")
    args = ap.parse_args(argv)

    cli = _import_package()
    cfg, inputs_digest = _setup(cli, args.workload, args.seed, args.smoke, args.out)
    setup_raw_s = time.perf_counter() - _T0
    import numpy
    import scipy
    from speed import SpeedProbe

    result = {"mode": args.mode, "inputs_digest": inputs_digest,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.mode == "setup":
        # set-up is too short for the timer; probe five times right after it
        factor = SpeedProbe().factor(extra=5)
        result.update({"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * factor,
                       "speed_factor": factor})
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        tracer.install()
    probe = SpeedProbe()
    solve_times = _time_solve(cli, args.workload, probe)
    shutil.rmtree(args.out, ignore_errors=True)
    # the traced run is not probed: its raw time is compared with untraced raw time
    with probe if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        rc = cli.run(cfg)
        run_raw_s = time.perf_counter() - t0 - probe.spent()
    solve_raw_s = sum(solve_times)
    probes = len(probe.samples)
    factor = probe.factor() if tracer is None else 1.0

    summary = json.loads((args.out / "summary.json").read_text(encoding="utf-8"))
    errors = [f"cli.run returned {rc}"] if rc != 0 else []
    errors += workloads.certificate_errors(args.workload, summary)
    scalars = {}
    if not errors:
        scalars = workloads.key_scalars(args.workload, args.out, summary)
        if not (args.smoke or args.no_reference):
            errors += workloads.reference_errors(args.workload, args.seed, scalars, cfg)
    result.update({
        "ok": not errors, "errors": errors, "scalars": scalars,
        "run_raw_s": run_raw_s, "solve_raw_s": solve_raw_s, "speed_factor": factor,
        "run_s": run_raw_s * factor, "solve_s": solve_raw_s * factor,
        "probes": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, summary.get("iterations_per_window", []),
                                       _bytes_written(args.out))
        result["layers"] = layers
        result["identity_errors"] = tracing.identity_errors(
            layers, tracer, workloads.WORKLOADS[args.workload].must_run,
            workloads.WORKLOADS[args.workload].solver)
        (args.out / "trace.json").write_text(json.dumps(tracer.report()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
