import contextlib
import inspect
import io
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congested_ns import cli, core, discrete_ops, freeboundary, parabolic, profiles
from congested_ns.cli import (
    ConfigError,
    PRESETS,
    RunConfig,
    _solve_from_config,
    config_from_mapping,
    config_lines,
    main,
    parse_config_text,
    preset_config,
    resolve_config,
    run,
)
from congested_ns.diagnostics import bootstrap_monitor, trace_identities
from congested_ns.freeboundary import ROW_BLOCK
from conftest import output_differences


def test_presets_enumeration():
    names = list(PRESETS)
    assert names == [
        "steady_wave", "convergence_order", "stability_sweep", "coercivity_suite",
        "trace_suite", "bootstrap_check", "appendix_lemmas",
    ]
    assert len(names) == 7


def test_preset_configs_round_trip():
    for name in PRESETS:
        cfg = preset_config(name)
        text = config_lines(cfg)
        parsed = config_from_mapping(parse_config_text(text))
        assert parsed == cfg


def test_every_field_round_trips_through_its_key():
    cfg = RunConfig(preset="trace_suite", out_dir="elsewhere", seed=3, workers=2, mu=1.5,
                    v_plus=3.0, u_minus=2.0, u_plus=0.5, R=40.0, n=1025, T_final=0.5,
                    dt=2e-3, stride=5, window=0.124, family="gaussian_bump", amplitude=0.01,
                    width=0.75, center=3.0, newton_tol=1e-11, picard_tol=1e-9, delta=0.1,
                    sweep_amplitudes=(0.002, 0.02))
    assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))
    assert config_from_mapping(parse_config_text(config_lines(cfg))) == cfg


def test_readme_lists_every_config_key():
    # the README's key table: the schema's keys in order, each default and
    # range rule as RunConfig states them
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| key | type | default | rule |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    schema = fields(RunConfig)
    assert [key.strip("`") for key, *_ in rows] == [f.metadata["key"] for f in schema]
    for (_, _, default, rule), f in zip(rows, schema):
        if f.default is not None:
            assert f.metadata["parse"](default.strip("`")) == f.default
        assert not f.metadata["rule"] or f"`{f.metadata['rule']}`" in rule


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        preset_config("warp_drive")
    with pytest.raises(ConfigError, match="preset"):
        config_from_mapping({"preset": "warp_drive"})


def test_parse_config_text_basics():
    text = """
    # comment
    preset = steady_wave
    grid.n = 257   # inline comment
    params.mu = 2.5
    """
    mapping = parse_config_text(text)
    assert mapping == {"preset": "steady_wave", "grid.n": "257", "params.mu": "2.5"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a config line")


def test_unknown_field_named_in_error():
    with pytest.raises(ConfigError, match="grid.m"):
        config_from_mapping({"grid.m": "100"})


def test_missing_value_field_named():
    with pytest.raises(ConfigError, match="v_plus"):
        config_from_mapping({"params.v_plus": "nope"})


def test_invalid_physics_rejected():
    with pytest.raises(ConfigError, match="u_minus"):
        config_from_mapping({"params.u_minus": "0.0", "params.u_plus": "0.0"})


@pytest.mark.parametrize("key", ["params.mu", "params.v_plus", "params.u_minus",
                                 "params.u_plus"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_physics_rejected(key, value):
    with pytest.raises(ConfigError, match=f"{key.split('.')[1]} must be finite"):
        config_from_mapping({key: value})


def test_override_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("preset = steady_wave\ngrid.n = 257\n")
    cfg = resolve_config(str(cfg_file), None, str(tmp_path / "out"), ["grid.n=129"])
    assert cfg.n == 129
    assert cfg.out_dir == str(tmp_path / "out")


def test_override_names_the_preset_that_supplies_the_defaults(tmp_path):
    out = str(tmp_path / "out")
    cfg = resolve_config(None, "steady_wave", out, ["preset=bootstrap_check"])
    assert cfg == replace(preset_config("bootstrap_check"), out_dir=out)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("preset = trace_suite\n")
    cfg = resolve_config(str(cfg_file), None, out, ["preset=steady_wave"])
    assert cfg == replace(preset_config("steady_wave"), out_dir=out)


def test_bad_override_rejected(tmp_path):
    with pytest.raises(ConfigError, match="key=value"):
        resolve_config(None, "steady_wave", str(tmp_path), ["grid.n:129"])


def _breach(f) -> str:
    """The value of a field next to the bound of its range rule that breaks it."""
    op, bound = f.metadata["rule"].split()
    if isinstance(f.default, int):
        return str(int(bound) - (op == ">="))
    return repr(float(bound) if op == ">" else math.nextafter(float(bound), -math.inf))


BAD_FIELDS = ["time.stride=0", "time.window=-1", "grid.n=8", "grid.R=0", "workers=0",
              "time.dt=nan", "time.T_final=inf", "time.dt=inf", "tolerances.newton_tol=nan",
              "time.window=nan", "tolerances.picard_tol=-1e-8", "tolerances.picard_tol=1e-13",
              "time.dt=0.003", "time.window=0.0015", "perturbation.amplitude=nan",
              "perturbation.width=nan", "perturbation.width=-1", "perturbation.center=0", "seed=-1",
              "sweep.amplitudes=-1", "sweep.amplitudes=0.001,nan"]
# and one breach of each range rule, from the schema
RULE_BREACHES = [f"{f.metadata['key']}={_breach(f)}" for f in fields(RunConfig)
                 if f.metadata["rule"]]


@pytest.mark.parametrize("override",
                         BAD_FIELDS + [b for b in RULE_BREACHES if b not in BAD_FIELDS])
def test_bad_time_and_grid_fields_rejected_when_parsed(tmp_path, capsys, override):
    out = tmp_path / "out"
    code = main(["--preset", "steady_wave", "--out-dir", str(out), "--override", override])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "ConfigError"
    assert override.split("=")[0] in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("override", ["params.mu=1e-300", "params.mu=1e300", "grid.R=1e300",
                                      "grid.R=1e-300"])
def test_out_of_range_finite_fields_rejected_when_parsed(tmp_path, capsys, override):
    # finite, but the wave's slopes or the grid spacing would leave float
    # range inside the run (once a ZeroDivisionError or OverflowError)
    out = tmp_path / "out"
    code = main(["--preset", "steady_wave", "--out-dir", str(out), "--override", override,
                 "--override", "grid.n=129", "--override", "time.T_final=0.01"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "ConfigError"
    key, value = override.split("=")
    assert f"{key.split('.')[1]}={float(value):g}" in record["message"]
    assert not out.exists()


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@given(mu=_log_uniform(-300, 300), R=_log_uniform(-300, 300),
       v_plus_minus_1=_log_uniform(-4, 4), u_plus=st.floats(-10.0, 10.0), jump=_log_uniform(-4, 4),
       amplitude=st.one_of(st.just(0.0), _log_uniform(-8, 0.5)), dt=_log_uniform(-8, 1))
@settings(max_examples=80, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow inside degenerate runs
def test_any_finite_input_ends_ok_or_typed(tmp_path_factory, mu, R, v_plus_minus_1, u_plus,
                                           jump, amplitude, dt):
    # a two-step run on a small grid: exit 0, or exit 1 or 2 with a typed
    # failure record, never kind "internal"
    fields = {"params.mu": mu, "grid.R": R, "params.v_plus": 1.0 + v_plus_minus_1,
              "params.u_plus": u_plus, "params.u_minus": u_plus + jump,
              "perturbation.amplitude": amplitude, "time.dt": dt, "time.T_final": 2.0 * dt}
    args = ["--preset", "steady_wave", "--out-dir", str(tmp_path_factory.mktemp("run")),
            "--override", "perturbation.family=gaussian_bump", "--override", "grid.n=129"]
    for key, value in fields.items():
        args += ["--override", f"{key}={value!r}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    if code == 0:
        return
    record = json.loads(err.getvalue().strip().splitlines()[-1])
    assert code in (1, 2)
    assert record["status"] == "error"
    assert record["kind"] != "internal", record


def test_convergence_order_window_checked_against_every_level(tmp_path, capsys):
    # a multiple of time.dt, but not of the n=513 level's step 0.016
    out = tmp_path / "out"
    code = main(["--preset", "convergence_order", "--out-dir", str(out),
                 "--override", "time.window=0.004"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "ConfigError"
    assert "the step 0.016, which does not divide time.window=0.004" in record["message"]
    assert not out.exists()
    # a whole number of steps on every level passes
    cfg = config_from_mapping({"time.window": "0.016"}, preset_config("convergence_order"))
    assert cfg.window == 0.016


@pytest.mark.parametrize("dt", ["0.01", "0.0032"])
def test_convergence_order_levels_rejected_when_parsed(tmp_path, capsys, dt):
    # the n=513 level steps 16 * time.dt: 0.16 stores no field every 0.08,
    # and 0.0512 does not divide T_final = 0.96
    out = tmp_path / "out"
    code = main(["--preset", "convergence_order", "--out-dir", str(out),
                 "--override", f"time.dt={dt}"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["kind"] == "ConfigError"
    assert f"time.dt={dt}" in record["message"]
    assert "convergence_order" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("override, tol", [([], 1e-10),
                                           (["--override", "tolerances.picard_tol=1e-6"], 1e-6)])
def test_convergence_order_levels_use_the_configured_picard_tol(tmp_path, monkeypatch,
                                                                override, tol):
    # each level records its tolerance and takes a single step, not the full run
    tols = []

    def one_step(init, grid, params, T_final, dt, tol, **kwargs):
        tols.append(tol)
        return freeboundary.picard_solve(init, grid, params, T_final=dt, dt=dt, tol=tol,
                                         **kwargs)

    monkeypatch.setattr(cli, "picard_solve", one_step)
    assert main(["--preset", "convergence_order", "--out-dir", str(tmp_path)] + override) == 0
    assert tols == [tol] * 3
    assert f"tolerances.picard_tol = {tol:.17g}" in (tmp_path / "config_resolved.txt").read_text()


SMALL = ["--override", "grid.n=257", "--override", "time.T_final=0.1",
         "--override", "time.dt=0.005", "--override", "time.stride=5"]


def test_steady_wave_run_outputs(tmp_path):
    out = tmp_path / "run1"
    code = main(["--preset", "steady_wave", "--out-dir", str(out)] + SMALL)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["max_drift_v_linf"] <= 1e-10
    # the exact front marches the guard band alone, never widened
    assert summary["active_nodes_per_window"] == [freeboundary.ACTIVE_GUARD]
    assert summary["active_widenings"] == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "config_resolved.txt").exists()
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "t,xtilde,xtilde_dot,p_s,l2_v_err,h1_v_err,l2_u_err,beta_h1_running"
    snapshots = list(out.glob("snapshot*.txt"))
    assert snapshots
    header = snapshots[0].read_text().splitlines()[0]
    assert header == "x v u w p"


def test_runs_are_bit_identical(tmp_path):
    bump = ["--override", "perturbation.family=gaussian_bump",
            "--override", "perturbation.amplitude=0.001"]
    for preset, extra in (("steady_wave", bump), ("trace_suite", [])):
        args = ["--preset", preset] + SMALL + extra
        code1 = main(args + ["--out-dir", str(tmp_path / preset / "a")])
        code2 = main(args + ["--out-dir", str(tmp_path / preset / "b")])
        assert code1 == code2 == 0
        # every output, not the trajectory alone; only wall times and out_dir differ
        assert len(list((tmp_path / preset / "a").iterdir())) > 2
        assert output_differences(tmp_path / preset / "a", tmp_path / preset / "b") == []


def test_trace_suite_records_each_stored_index(tmp_path):
    # one diagnostics.jsonl record per stored row, the report of
    # trace_identities at that index of the same run
    cfg = replace(preset_config("trace_suite"), n=257, T_final=0.1, dt=0.005, stride=5,
                  out_dir=str(tmp_path))
    assert run(cfg) == 0
    records = [json.loads(line)
               for line in (tmp_path / "diagnostics.jsonl").read_text().splitlines()]
    traj, _ = _solve_from_config(cfg)
    assert len(records) == traj.stored_idx.size > 2
    for i, rec in enumerate(records):
        rep = trace_identities(traj, traj.init, traj.init.grid, traj.init.params, i)
        assert rec["t"] == traj.t[traj.stored_idx[i]]
        assert {key: rec[key] for key in asdict(rep)} == asdict(rep)


def test_solve_seconds_is_the_time_inside_picard_solve(tmp_path, monkeypatch):
    def slow_solve(*args, **kwargs):
        time.sleep(0.2)
        return freeboundary.picard_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "picard_solve", slow_solve)
    assert main(["--preset", "steady_wave", "--out-dir", str(tmp_path)] + SMALL) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert 0.2 <= summary["solve_seconds"] <= summary["elapsed_seconds"]


def test_running_h1_column_is_the_bootstrap_monitor_norm(tmp_path):
    cfg = replace(preset_config("bootstrap_check"), n=257, T_final=0.1, dt=0.005,
                  stride=5, out_dir=str(tmp_path))
    assert run(cfg) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    column = np.array([float(row.split(",")[-1]) for row in rows])
    traj, _ = _solve_from_config(cfg)
    monitor = bootstrap_monitor(traj.path, traj.init.params, cfg.delta)
    np.testing.assert_array_equal(column, monitor["running_h1"][traj.stored_idx])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert column[-1] == summary["beta_h1"]


def test_bootstrap_check_builds_one_monitor(tmp_path, monkeypatch):
    calls = []

    def counting_monitor(*args):
        calls.append(1)
        return bootstrap_monitor(*args)

    monkeypatch.setattr(cli, "bootstrap_monitor", counting_monitor)
    cfg = replace(preset_config("bootstrap_check"), n=129, T_final=0.02, dt=0.005,
                  stride=2, out_dir=str(tmp_path))
    assert run(cfg) == 0
    assert calls == [1]


@pytest.mark.parametrize("preset, tables", [("steady_wave", 1), ("bootstrap_check", 2)])
def test_run_samples_each_datum_once(tmp_path, monkeypatch, preset, tables):
    # two waves (the perturbed datum, then its validation), the w0 table plus
    # the source's for a perturbed datum, one regularized log; the stored
    # rows span seven blocks of the post-solve certificates, in each of which
    # the reconstruction residual samples w0 through shift_sample, and the
    # growth bound the source of a perturbed datum
    originals = {"traveling_wave": profiles.traveling_wave,
                 "monotone_interpolator": discrete_ops.monotone_interpolator,
                 "RegularizedLog": parabolic.RegularizedLog,
                 "shift_sample": discrete_ops.shift_sample}
    calls = dict.fromkeys(originals, 0)
    for name, original in originals.items():

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every binding of the function, in its module and wherever it is imported
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("congested_ns") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    cfg = replace(preset_config(preset), n=257, T_final=0.5, dt=0.005, stride=2,
                  out_dir=str(tmp_path))
    assert run(cfg) == 0
    assert len(json.loads((tmp_path / "summary.json").read_text())
               ["iterations_per_window"]) == 2
    assert calls == {"traveling_wave": 2, "monotone_interpolator": tables,
                     "RegularizedLog": 1, "shift_sample": 7 * tables}


def test_picard_stall_record_carries_the_window_start(tmp_path, monkeypatch, capsys):
    # two iterations from the flat guess cannot reach a distance of 1e-12
    monkeypatch.setattr(cli, "picard_solve", partial(freeboundary.picard_solve, max_iter=2))
    cfg = replace(preset_config("bootstrap_check"), n=129, T_final=0.02, dt=0.005,
                  picard_tol=1e-12, out_dir=str(tmp_path))
    assert run(cfg) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["kind"] == "PicardStalled"
    assert summary["t"] == 0.0
    assert json.loads(capsys.readouterr().err.strip())["t"] == 0.0


def test_stride_beyond_every_integer_type_runs(tmp_path):
    out = tmp_path / "run"
    code = main(["--preset", "steady_wave", "--out-dir", str(out), "--override", "grid.n=129",
                 "--override", "time.T_final=0.02", "--override", "time.dt=0.01",
                 "--override", "time.stride=100000000000000000000"])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.02]


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("params.v_plus = banana\n")
    code = main(["--config", str(cfg_file), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip())
    assert record["status"] == "error"
    assert "v_plus" in record["message"]


def test_run_validates_a_config_built_in_code(tmp_path, capsys):
    # a ConfigError with exit 2, as --override seed=-1 is, not numpy's error inside the run
    out = tmp_path / "out"
    assert run(replace(preset_config("appendix_lemmas"), seed=-1, out_dir=str(out))) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kind"] == "ConfigError"
    assert "seed" in summary["message"]
    assert json.loads(capsys.readouterr().err) == summary


def test_grid_too_large_to_allocate_is_a_typed_failure(tmp_path, capsys):
    # checked without allocating when parsed; numpy refuses 10**11 nodes
    # before it allocates any of them
    out = tmp_path / "out"
    code = main(["--preset", "appendix_lemmas", "--out-dir", str(out),
                 "--override", "grid.n=100000000000"])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["kind"] == "MemoryError"
    assert json.loads(capsys.readouterr().err) == summary


@pytest.mark.parametrize("preset, overrides", [
    ("trace_suite", SMALL), ("bootstrap_check", SMALL),
    ("coercivity_suite", ["--override", "grid.n=257"]),
    ("appendix_lemmas", ["--override", "grid.n=257"])])
def test_every_diagnostic_record_gap_is_rhs_minus_lhs(tmp_path, preset, overrides):
    assert main(["--preset", preset, "--out-dir", str(tmp_path)] + overrides) == 0
    records = [json.loads(line)
               for line in (tmp_path / "diagnostics.jsonl").read_text().splitlines()]
    assert records
    for rec in records:
        assert rec["gap"] == rec["rhs"] - rec["lhs"], rec


def test_solver_failure_writes_machine_readable_record(tmp_path):
    out = tmp_path / "bad_run"
    cfg = preset_config("steady_wave")
    # horizon not commensurate with the step: rejected by run's config check
    cfg = replace(cfg, n=257, T_final=0.1, dt=0.003, out_dir=str(out))
    code = run(cfg)
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "error"
    assert "multiple" in summary["message"]
    assert (out / "config_resolved.txt").exists()


class TwoArgumentFailure(RuntimeError):
    """A solver error whose constructor takes more than the message."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_solver_failure_keeps_its_type_and_time(tmp_path, monkeypatch):
    original = freeboundary.step_u
    calls = []

    def failing_step_u(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise TwoArgumentFailure("step_u failed", 7)
        return original(*args, **kwargs)

    monkeypatch.setattr(freeboundary, "step_u", failing_step_u)
    cfg = replace(preset_config("steady_wave"), n=257, T_final=0.1, dt=0.01,
                  out_dir=str(tmp_path))
    with pytest.raises(TwoArgumentFailure) as info:
        _solve_from_config(cfg)
    assert info.value.code == 7
    assert info.value.t == pytest.approx(0.03)

    calls.clear()
    assert run(cfg) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["kind"] == "TwoArgumentFailure"
    assert summary["message"] == "step_u failed"
    assert summary["t"] == pytest.approx(0.03)


def test_unexpected_exception_writes_internal_record(tmp_path, monkeypatch, capsys):
    def broken_runner(cfg, out):
        return np.ones(3) @ np.ones(4)  # a numpy ValueError, a defect of the runner

    monkeypatch.setitem(cli._RUNNERS, "steady_wave", broken_runner)
    code = main(["--preset", "steady_wave", "--out-dir", str(tmp_path)])
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "error"
    assert summary["kind"] == "internal"
    assert summary["exception"] == "ValueError"
    assert "broken_runner" in summary["where"]
    # the same record, as one JSON line on the terminal
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == summary


def test_appendix_lemmas_preset(tmp_path):
    out = tmp_path / "lemmas"
    code = main(["--preset", "appendix_lemmas", "--out-dir", str(out),
                 "--override", "grid.n=257"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_hold"] is True
    assert summary["counterexamples"] == 0
    assert "solve_seconds" not in summary  # no solver runs
    lines = (out / "diagnostics.jsonl").read_text().splitlines()
    assert len(lines) == 200
    rec = json.loads(lines[0])
    assert set(rec) >= {"t", "check", "lhs", "rhs", "gap", "pass"}


def test_coercivity_suite_preset_small(tmp_path):
    out = tmp_path / "coerc"
    code = main(["--preset", "coercivity_suite", "--out-dir", str(out),
                 "--override", "grid.n=1025"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    # quadrature-limited at this reduced smoke resolution; the full-grid
    # bound is exercised by the acceptance suite
    assert summary["worst_relative_gap"] <= 1e-4
    assert "solve_seconds" not in summary
    assert (out / "diagnostics.jsonl").exists()


def test_stability_sweep_parallel_workers(tmp_path):
    out = tmp_path / "sweep"
    code = main(["--preset", "stability_sweep", "--out-dir", str(out),
                 "--override", "grid.n=257", "--override", "time.T_final=0.1",
                 "--override", "time.dt=0.005", "--override", "workers=2",
                 "--override", "sweep.amplitudes=0.0001,0.001"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_principle_ok"] is True
    assert len(summary["runs"]) == 2
    assert summary["solve_seconds"] == pytest.approx(
        sum(r["solve_seconds"] for r in summary["runs"]), abs=1e-3)
    assert (out / "trajectory_amp0.0001.csv").exists()


def test_sweep_amplitudes_that_share_a_file_name_are_rejected(tmp_path, capsys):
    # each amplitude's CSV is named by it to 6 significant digits, so these
    # three solves used to leave one file
    out = tmp_path / "sweep"
    code = main(["--preset", "stability_sweep", "--out-dir", str(out),
                 "--override", "sweep.amplitudes=0.001,0.0010000001,0.01"])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["kind"] == "ConfigError"
    assert "sweep.amplitudes" in record["message"]
    assert not out.exists()
    # the same amplitudes are fine where no sweep writes them
    resolve_config(None, "steady_wave", None, ["sweep.amplitudes=0.001,0.001"])


def test_trajectory_outputs_walk_the_stored_rows_once(synthetic_run, tmp_path, monkeypatch):
    # the CSV, the summary and the certificates read one cached walk: one
    # effective velocity per block of stored rows, plus one per snapshot, all
    # through the expression of effective_velocity_about_wave
    traj = synthetic_run(257, np.arange(0, 100, 5))
    calls = {"effective_velocity_about_wave": 0, "effective_velocity_of_deviation": 0}
    for name in calls:
        original = getattr(profiles, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod in (profiles, cli, freeboundary):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    cfg = replace(preset_config("steady_wave"), T_final=float(traj.t[-1]))
    cli._emit_trajectory_outputs(tmp_path, cfg, traj, 0.0)
    snapshots = len(list(tmp_path.glob("snapshot_t*.txt")))
    blocks = -(-traj.stored_idx.size // ROW_BLOCK)
    assert (snapshots, blocks) == (3, 3)
    assert calls == {"effective_velocity_about_wave": snapshots,
                     "effective_velocity_of_deviation": blocks + snapshots}


@pytest.mark.parametrize("rows", [0, 1, 3, 7])
@pytest.mark.parametrize("sep", [",", " "])
def test_written_table_is_the_bytes_of_savetxt(tmp_path, monkeypatch, rows, sep):
    # blocks of 3 rows: a whole block, a block and a part, and no row at all
    monkeypatch.setattr(core, "TABLE_BLOCK", 3)
    values = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, np.nan, np.inf, -np.inf,
                       1e300, -1e300, 1.0 / 3.0, -2.5, 1e-5, 123456789.0, 0.1])
    columns = [np.resize(np.roll(values, 3 * j), rows) for j in range(4)]
    core.write_table(tmp_path / "blocks.txt", "a b c d", sep, *columns)
    np.savetxt(tmp_path / "rows.txt", np.column_stack(columns), fmt="%.17g", delimiter=sep,
               header="a b c d", comments="")
    assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()


def test_tolerance_defaults_are_the_library_defaults():
    # one default per tolerance: the config's and those of the solver calls
    defaults = {name: p.default for name, p in
                inspect.signature(freeboundary.picard_solve).parameters.items()}
    cfg = RunConfig()
    assert cfg.picard_tol == defaults["tol"] == freeboundary.DEFAULT_PICARD_TOL


def test_cli_requires_config_or_preset(capsys):
    with pytest.raises(SystemExit):
        main([])
