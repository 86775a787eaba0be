"""Self-tests of the benchmark: spec limits, result schema, metric names, determinism.

    python3 -m pytest perfbench/tests -q

Every workload is run at a tiny grid and horizon (``--smoke``), so the whole
file takes about 90 s.  These tests are not part of the package suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def _bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _worker(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    names = ([w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT_RE.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_reference_covers_every_variant():
    ref = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    for name in WORKLOAD_NAMES:
        assert sorted(ref[name], key=int) == [str(k) for k in range(workloads.VARIANTS)]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_schema_and_metric_names(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_inputs_and_bit_identical_scalars(tmp_path):
    for name in WORKLOAD_NAMES:
        a = _worker(name, 5, tmp_path / f"{name}-a")
        b = _worker(name, 5, tmp_path / f"{name}-b")
        other = _worker(name, 6, tmp_path / f"{name}-c")
        assert a["ok"] and b["ok"] and other["ok"]
        assert a["inputs_digest"] == b["inputs_digest"] != other["inputs_digest"]
        assert json.dumps(a["scalars"]) == json.dumps(b["scalars"])


def test_seed_zero_is_the_preset():
    assert workloads.overrides("front_steady", 0)["mu"] == 1.0
    assert workloads.overrides("bump_bootstrap", 0)["center"] == 2.0
    assert workloads.overrides("lemma_sweep", 0)["seed"] == 0
    assert workloads.overrides("bump_bootstrap", 16) == workloads.overrides("bump_bootstrap", 0)


def test_tracer_rebinds_import_time_bindings():
    code = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "import tracing\n"
        "from congested_ns import cli, freeboundary, parabolic\n"
        "step_v, solve = parabolic.step_v, freeboundary.picard_solve\n"
        "tracing.Tracer().install()\n"
        "assert freeboundary.step_v is parabolic.step_v is not step_v\n"
        "assert cli.picard_solve is freeboundary.picard_solve is not solve\n"
        "assert cli._RUNNERS['steady_wave'].__wrapped__.__module__ == 'congested_ns.cli'\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_samples_during_work_and_restores_the_timer():
    code = (
        "import signal, sys, time; sys.path.insert(0, 'perfbench')\n"
        "import speed\n"
        "probe = speed.SpeedProbe()\n"
        "with probe:\n"
        "    t0 = time.perf_counter()\n"
        "    while time.perf_counter() - t0 < 1.1:\n"
        "        sum(range(1000))\n"
        "assert len(probe.samples) >= 3, probe.samples\n"
        "assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL\n"
        "assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)\n"
        "assert 0.0 < probe.spent() < 0.5 and 0.0 < probe.factor() < 100.0\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=60)
