"""Command-line front end: outputs, overrides, exit codes."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from liftquad import cli, harness
from liftquad.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from liftquad.config import build_config
from liftquad.harness import CSV_COLUMNS


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_flat_writes_trace(tmp_path, capsys):
    code = main(["flat", "--duration", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "flat.csv").read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 252
    assert "251 rows" in capsys.readouterr().out


def test_sim_reports_rmse_and_names_condition(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.duration = 1\ntrajectory.kind = hover\n")
    code = main(["sim", "--config", cfg, "--condition", "pd-df",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "pd-df.csv").exists()
    assert "E_p = " in capsys.readouterr().out


def test_sim_seed_and_duration_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.duration = 30\ntrajectory.kind = hover\n")
    code = main(["sim", "--config", cfg, "--duration", "0.5",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "126 rows" in out
    assert out.endswith(" m over 0.5 s\n")
    # the loop draws no randomness, so there is no seed to override
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--config", cfg, "--seed", "7", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG


def test_sim_divergence_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "\n".join([
        "sim.duration = 40", "sim.abort_radius = 5",
        "gains.kpp.x = 0", "gains.kpp.y = 0", "gains.kpp.z = 0",
        "gains.kvp.x = 0", "gains.kvp.y = 0", "gains.kvp.z = 0",
        "gains.kvi.x = 0", "gains.kvi.y = 0", "gains.kvi.z = 0",
        "gains.ktp.x = 0", "gains.ktp.y = 0", "gains.ktp.z = 0",
        "mode.rate_ff = false", ""]))
    code = main(["sim", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert "partial trace" in captured.err
    assert "abort radius" in captured.err
    # the partial trace is still a valid CSV
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) > 2


def test_near_zero_actuator_lag_exits_ok(tmp_path, capsys):
    # tau far below the plant step must pass the command through, not
    # overshoot into a crash outside the exit-code contract
    cfg = write_cfg(tmp_path, "\n".join([
        "sim.duration = 0.5", "sim.abort_radius = 1e300",
        "plant.tau_omega = 0.0001", "plant.tau_thrust = 0.0001", ""]))
    assert main(["sim", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    assert "E_p = " in capsys.readouterr().out


_OVERFLOWS = [
    ("sim", "model.mass = 1e300", "the plant"),
    ("sim", "model.cd0 = 1e300", "the controller"),
    ("flat", "model.wind.x = 1e200", "the flatness transform"),
    ("flat", "model.cd0 = 1e300", "the flatness transform")]


@pytest.mark.parametrize("command, override, layer", _OVERFLOWS,
                         ids=[f"{c}-{o}" for c, o, _ in _OVERFLOWS])
def test_non_finite_run_exits_as_divergence(tmp_path, capsys, command,
                                            override, layer):
    # a run whose arithmetic overflows is a divergence: exit 3, a partial
    # trace of the finite rows and one line of reason naming the layer
    # that overflowed, no warnings
    cfg = write_cfg(tmp_path, override + "\n")
    code = main([command, "--config", cfg, "--duration", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_DIVERGED
    path = tmp_path / f"{command}.csv"
    partial, reason = capsys.readouterr().err.splitlines()
    assert partial == f"wrote partial trace to {path}"
    assert re.fullmatch(r"error: the run went non-finite \(\w[\w ]* encountered"
                        r" in [\w ]+\) at t=\d+\.\d{3} s \(reference speed"
                        r" \d+\.\d\d m/s\)", reason)
    assert f" encountered in {layer}) at t=" in reason
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) < 252
    for line in lines[1:]:
        assert all(math.isfinite(float(x)) for x in line.split(","))


# the probe airframe: light, with a large and steep wing, so that its
# drag is stiff (a bound of 370.6 /s at the circle's 10 m/s)
_PROBE = "\n".join([
    "plant.mass = 0.2", "model.mass = 0.2", "plant.area = 1.0",
    "model.area = 1.0", "plant.cla = 6", "model.cla = 6",
    "limits.thrust_factor = 40", "sim.duration = 20"])
_NONE_FITS = "no sim.substeps passes within the budget of 100000000 plant steps"


@pytest.mark.parametrize("command, text, advice", [
    ("sim", "plant.cd0 = 1e300", _NONE_FITS),
    ("compare", "plant.cd0 = 1e300", _NONE_FITS),
    ("sim", "plant.mass = 1e-300", _NONE_FITS),
    ("check", "plant.mass = 5e-324", _NONE_FITS),
    ("sim", _PROBE + "\nsim.rate = 50",
     "the smallest sim.substeps that passes is 3"),
    ("flat", _PROBE + "\nsim.rate = 50",
     "the smallest sim.substeps that passes is 3"),
    ("compare", _PROBE + "\nsim.rate = 20\nsim.substeps = 6",
     "the smallest sim.substeps that passes is 7")],
    ids=["sim-plant.cd0 = 1e300", "compare-plant.cd0 = 1e300",
         "sim-plant.mass = 1e-300", "check-plant.mass = 5e-324",
         "sim-probe at 50 Hz", "flat-probe at 50 Hz",
         "compare-probe at 20 Hz"])
def test_plant_step_past_rk4s_drag_limit_is_a_config_error(
        tmp_path, capsys, command, text, advice):
    # refused before the run starts, in one line naming sim.substeps and
    # the fewest that pass, or saying that no count fits the budget;
    # the plant rows of the overflow cases above once ran into this.  A
    # config is valid for every subcommand or for none, so flat and
    # check, which integrate no plant, refuse it too.  A file that sets
    # sim.substeps has the refusal located at that line
    cfg = write_cfg(tmp_path, text + "\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    where = "".join(f"{cfg}:{n}: " for n, row in enumerate(
        text.splitlines(), start=1) if row.startswith("sim.substeps"))
    assert re.fullmatch(r"config error: " + re.escape(where) +
                        r"sim\.substeps = \d+ leaves a plant "
                        r"step of \S+ s, but RK4 on the wing's drag needs "
                        r"step \* \S+ /s <= 2\.785 \(peak airspeed \S+ "
                        r"m/s\); " + re.escape(advice), line)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("rate, fewest", [(50, 3), (20, 7)])
def test_named_substeps_run_the_probe_to_completion(tmp_path, capsys, rate,
                                                    fewest):
    # the count a refusal names is one that runs: 20 s of the probe with
    # no divergence (the substep counts below it that RK4 also survives
    # are refused, since the bound leaves a margin for tracking error)
    text = f"{_PROBE}\nsim.rate = {rate}\n"
    code = main(["sim", "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    named = int(capsys.readouterr().err.split()[-1])
    assert named == fewest
    code = main(["sim", "--config", write_cfg(
        tmp_path, f"{text}sim.substeps = {named}\n"), "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f"wrote {20 * rate + 1} rows" in out
    assert out.endswith(" m over 20 s\n")


_EDGES = ["plant.mass = 5e-324", "plant.cd0 = 1e300", "plant.area = 0",
          "trajectory.kind = hover"]


@pytest.mark.parametrize("edges", [
    combo for size in range(1, len(_EDGES) + 1)
    for combo in itertools.combinations(_EDGES, size)],
    ids=lambda combo: "+".join(edge.split(" = ")[0] for edge in combo))
def test_edge_airframes_meet_the_exit_code_contract(tmp_path, capsys, edges):
    # the step guard decides every combination of the extreme airframe
    # values and the still reference without raising anything but its
    # config error: check, which runs no plant, exits 0 or 2; sim may
    # also overflow in the plant (exit 3), and never shows a traceback
    cfg = write_cfg(tmp_path, "\n".join(edges) + "\n")
    codes = {}
    for command in ("check", "sim"):
        codes[command] = main([command, "--config", cfg, "--duration", "0.2",
                               "--out", str(tmp_path)])
        err = capsys.readouterr().err.splitlines()
        if codes[command] == EXIT_CONFIG:
            (line,) = err
            assert line.startswith("config error: sim.substeps = 1 ")
        elif codes[command] == EXIT_DIVERGED:
            assert err[-1].startswith("error: the run went non-finite ")
        else:
            assert codes[command] == EXIT_OK and not err
    assert codes["check"] in (EXIT_OK, EXIT_CONFIG)
    # the guard is the config's: both commands refuse or neither does
    assert (codes["check"] == EXIT_CONFIG) == (codes["sim"] == EXIT_CONFIG)


def test_check_reports_overflow_as_divergence(tmp_path, capsys):
    # the sweep overflows in the flatness transform: on the wind estimate
    # at once, and in the smooth branch's checks on a model of absurd drag
    for override, time in (("model.wind.x = 1e200", "0.000"),
                           ("model.cd0 = 1e300", "0.556")):
        cfg = write_cfg(tmp_path, override + "\n")
        code = main(["check", "--config", cfg, "--duration", "1"])
        assert code == EXIT_DIVERGED
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: the run went non-finite (overflow "
                               "encountered in the flatness transform) "
                               f"at t={time} s ")


def test_tick_count_is_bounded(tmp_path, capsys):
    # 6e12 rows would be refused by the allocator; the config refuses first
    cfg = write_cfg(tmp_path, "sim.rate = 100000000000\n")
    code = main(["sim", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "at most 10000000 rows" in err
    assert not (tmp_path / "sim.csv").exists()


@pytest.mark.parametrize("command, text, key", [
    ("sim", "sim.substeps = 1" + "0" * 400, "sim.substeps"),
    ("check", "sim.rate = 1" + "0" * 309 + "\nsim.duration = 1e-320",
     "sim.rate"),
    ("flat", "trajectory.kind = lemniscate\ntrajectory.omega = 1e200",
     "trajectory.omega"),
    ("flat", "trajectory.kind = lemniscate\ntrajectory.radius = 1e300",
     "trajectory.radius"),
    ("flat", "trajectory.kind = line\ntrajectory.p0.x = 1.7e308\n"
             "trajectory.speed_cap = 1e308", "trajectory.p0.x"),
    ("flat", "trajectory.kind = line\ntrajectory.speed_cap = 1e308",
     "trajectory.speed_cap"),
    ("sim", "sim.delay_ticks = 1" + "0" * 23, "sim.delay_ticks"),
    ("sim", "limits.thrust_factor = -1", "limits.thrust_factor"),
    ("check", "limits.thrust_factor = 1e308", "limits.thrust_factor"),
    ("flat", "trajectory.speed_cap = 0", "trajectory.speed_cap"),
    ("sim", "limits.omega_max = 0", "limits.omega_max"),
    ("sim", "gains.integrator_limit = -1", "gains.integrator_limit"),
    ("sim", "plant.tau_omega = -1", "plant.tau_omega"),
    ("sim", "plant.tau_thrust = -1", "plant.tau_thrust"),
    ("sim", "gains.kpp.x = -1", "gains.kpp.x"),
    ("compare", "gains.kvi.z = -1", "gains.kvi.z"),
    ("sim", "gains.kff.y = 2", "gains.kff.y"),
    ("sim", "plant.mass = 0", "plant.mass"),
    ("check", "model.rho = 0", "model.rho"),
    ("flat", "model.area = -1", "model.area"),
    ("compare", "plant.kappa_deg = 10", "plant.kappa_deg"),
    ("flat", "model.cd0 = -1", "model.cd0"),
    ("sim", "plant.cla = -1", "plant.cla")])
def test_out_of_range_key_is_a_config_error(tmp_path, capsys, command, text,
                                            key):
    # refused before the run starts: one line naming the key, located at
    # the file's line that sets it, no trace
    cfg = write_cfg(tmp_path, text + "\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    lineno = [row.split(" = ")[0] for row in text.splitlines()].index(key) + 1
    assert line.startswith(f"config error: {cfg}:{lineno}: {key} ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, kind, key", [
    ("flat", "lemniscate", "speed_cap"),
    ("check", "hover", "radius"),
    ("sim", "hover", "omega"),
    ("compare", "hover", "speed_cap"),
    ("flat", "line", "radius"),
    ("check", "line", "omega")])
def test_a_key_its_kind_never_reads_is_a_config_error(tmp_path, capsys,
                                                      command, kind, key):
    # a key that would change no output is refused, located, before the
    # run starts, as an unknown key is
    cfg = write_cfg(tmp_path, f"trajectory.kind = {kind}\n"
                              f"trajectory.{key} = 3\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {cfg}:2: trajectory.{key} does nothing for "
        f"trajectory.kind = {kind}"]
    assert not list(tmp_path.glob("*.csv"))


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bogus.key = 1\n")
    code = main(["sim", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unknown key" in err


@pytest.mark.parametrize("text, refusal", [
    ("sim.rate = 250\nsim.substeps = 0\n", "2: sim.substeps must be > 0"),
    ("sim.rate = 0\nsim.substeps = 1\n", "1: sim.rate must be > 0"),
    # both out of range: the rate is refused first
    ("sim.substeps = 0\nsim.rate = 0\n", "2: sim.rate must be > 0"),
])
def test_a_range_refusal_is_located_at_its_keys_line(tmp_path, capsys, text,
                                                      refusal):
    cfg = write_cfg(tmp_path, text)
    code = main(["check", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"config error: {cfg}:{refusal}"


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"sim.rate = 2\xff50\n")
    code = main(["sim", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot read config {path}: ")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["flat", "sim", "compare", "check"])
def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    code = main([command, "--duration", "0.1", "--out", str(out)])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot use --out {out}: ")
    assert out.read_text() == ""


@pytest.mark.parametrize("command, output", [
    ("flat", "flat.csv"), ("sim", "sim.csv"), ("compare", "pd-df.csv"),
    ("compare", "rate-ff-off.csv"), ("compare", "summary.txt")])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch,
                                             command, output):
    # an output path taken by a directory: one line naming it, exit 2,
    # before the run starts (stand-in runs fail if they are entered)
    entered = []

    def stand_in(cfg):
        entered.append(cfg)
        raise AssertionError("the run started")
    for name in ("feedforward_trace", "run_experiment", "condition_matrix"):
        monkeypatch.setattr(cli, name, stand_in)
    (tmp_path / output).mkdir()
    code = main([command, "--duration", "0.1", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: cannot write {tmp_path / output}: ")
    assert not entered


def test_check_creates_a_missing_out_directory(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert main(["check", "--duration", "0.1", "--out", str(out)]) == EXIT_OK
    assert out.is_dir() and not list(out.iterdir())


def test_bad_duration_override_exit_code(tmp_path, capsys):
    code = main(["check", "--duration", "-1", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("duration", ["nan", "inf"])
def test_non_finite_duration_override_exit_code(tmp_path, capsys, duration):
    code = main(["sim", "--duration", duration, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "sim.duration must be finite and > 0" in capsys.readouterr().err


def test_compare_writes_matrix(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.duration = 1\n")
    code = main(["compare", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_OK
    for name in ("pid-dfaf", "pd-dfaf", "pid-df", "pd-df", "rate-ff-off"):
        assert (tmp_path / f"{name}.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.startswith("duration 1 s\n")
    assert "rate-ff-off" in summary
    assert "pid-dfaf" in capsys.readouterr().out


def test_compare_never_fails_on_a_diverging_cell(tmp_path, capsys):
    # a controller model of absurd mass overflows the plant in every
    # cell: compare still exits 0, with each cell marked in the summary
    cfg = write_cfg(tmp_path, "model.mass = 1e300\n")
    code = main(["compare", "--config", cfg, "--duration", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert len(summary) == 7
    for line in summary[2:]:
        assert line.endswith("  diverged at t=0.00 s, ref speed 0.00 m/s")
    assert not capsys.readouterr().err


def test_check_prints_feasibility(capsys):
    code = main(["check", "--duration", "30"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "thrust demand" in out
    assert "feasible        yes" in out


def test_check_keeps_no_trace(tmp_path, monkeypatch):
    # check folds its report in one sweep: no attitude conversion and no
    # row write, where flat converts and writes each of its rows once
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper
    monkeypatch.setattr(harness, "mat_to_quat",
                        counted("mat_to_quat", harness.mat_to_quat))
    monkeypatch.setattr(harness.RunResult, "store",
                        counted("store", harness.RunResult.store))
    args = ["--duration", "0.2", "--out", str(tmp_path)]
    assert main(["check", *args]) == EXIT_OK
    assert not calls
    assert main(["flat", *args]) == EXIT_OK
    n_rows = build_config({}).replace(duration=0.2).n_rows
    assert calls == {"mat_to_quat": n_rows, "store": n_rows}


@pytest.mark.parametrize("text, line", [
    ("", "thrust demand   -14.777 N (limit -58.860 N)"),
    ("limits.thrust_factor = 1e306",
     "thrust demand   -14.777 N (limit -1.4715e+307 N)"),
    ("model.mass = 1e100",
     "thrust demand   -9.8513e+100 N (limit -3.9240e+101 N)")])
def test_check_prints_thrusts_of_any_size_in_bounded_width(tmp_path, capsys,
                                                           text, line):
    # five significant digits: a huge floor or demand once printed with
    # hundreds of digits
    cfg = write_cfg(tmp_path, text + "\n")
    assert main(["check", "--config", cfg, "--duration", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == line


def test_unknown_condition_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sim", "--condition", "nonsense"])


# test id -> (command, config, seconds, sha256 of its trace), on paths
# the thrust-floor probe in tests/test_control.py does not take: the
# open-loop figure-eight, a hover in wind with both actuator lags and a
# two-tick measurement delay, the stock circle's closed loop in the
# smooth regime, its open loop across the speed-cap switch at 11.111 s
# and a line's closed loop
_HOVER_GUST = ("trajectory.kind = hover\n"
               "plant.wind.x = 4.0\nplant.wind.y = -2.0\nplant.wind.z = 0.0\n"
               "plant.tau_omega = 0.03\nplant.tau_thrust = 0.05\n"
               "sim.delay_ticks = 2\n")
_TRACE_SHA256 = {
    "flat": (
        "flat", "trajectory.kind = lemniscate\n", 2,
        "8693198c94f00d6eb62f648595a5d5e8b21cab02882e1299a132d145ab110a02"),
    "sim": (
        "sim", _HOVER_GUST, 2,
        "99806fc9f7171cb6a2f0f9723aaa5b87169cd2f4e93b1b8316d63462354f7ebc"),
    "sim-circle": (
        "sim", "", 2,
        "7ab75d51e03a94fdec045ae237a1be8103b33e2e9e6cdaf744180ea9ec097d32"),
    "flat-circle-switch": (
        "flat", "", 12,
        "3e7c44af66c7f40ff40f26e29dfe876143d01114e8b2df6fbe3bad2535db8923"),
    "sim-line": (
        "sim", "trajectory.kind = line\ntrajectory.speed_cap = 7\n", 2,
        "d580bc6821a8b324c5b9c001a2b8af9dea2fe4b7259a1bda3d50f9962396a6dc"),
}


@pytest.mark.parametrize("name", sorted(_TRACE_SHA256))
def test_trace_is_unchanged(tmp_path, name):
    command, text, seconds, digest = _TRACE_SHA256[name]
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--duration", str(seconds),
                 "--out", str(tmp_path)]) == EXIT_OK
    trace = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == digest


# the stdout of a 2 s check on the four benchmark workloads' seed-0
# configs; the plant (the mismatch, the gust) leaves it as it is
_CIRCLE_CHECK = """\
thrust demand   -14.777 N (limit -58.860 N)
body-rate demand 0.1169 rad/s (limit 6.0000 rad/s)
singular ticks  139 / 501
alpha range     [0.4866, 0.5934] rad
feasible        yes
"""
# a plant and a model in different winds, at a floor of one weight of
# the model: the thrust floor binds on 2 rows of each DF cell
_WIND = ("plant.wind.x = 3\nplant.wind.y = -1\nmodel.wind.x = 2\n"
         "model.wind.y = -1\nmodel.mass = 1.8\nlimits.thrust_factor = 1.0\n")
_CHECK_STDOUT = {
    "circle": ("", _CIRCLE_CHECK),
    "lemniscate": ("trajectory.kind = lemniscate\n", """\
thrust demand   -11.632 N (limit -58.860 N)
body-rate demand 0.1439 rad/s (limit 6.0000 rad/s)
singular ticks  0 / 501
alpha range     [0.4123, 0.5636] rad
feasible        yes
"""),
    "hover-gust": (_HOVER_GUST, """\
thrust demand   -14.715 N (limit -58.860 N)
body-rate demand 0.0000 rad/s (limit 6.0000 rad/s)
singular ticks  501 / 501
alpha range     [0.5934, 0.5934] rad
feasible        yes
"""),
    "mismatch": ("plant.cd0 = 0.06\nplant.cla = 2.4\n", _CIRCLE_CHECK),
    "wind": (_WIND, """\
thrust demand   -17.216 N (limit -17.658 N)
body-rate demand 0.3590 rad/s (limit 6.0000 rad/s)
singular ticks  0 / 501
alpha range     [0.4930, 0.5312] rad
feasible        yes
"""),
}


@pytest.mark.parametrize("name", sorted(_CHECK_STDOUT))
def test_check_report_is_unchanged(tmp_path, capsys, name):
    text, report = _CHECK_STDOUT[name]
    cfg = write_cfg(tmp_path, text)
    assert main(["check", "--config", cfg, "--duration", "2"]) == EXIT_OK
    assert capsys.readouterr().out == report


# test id -> (config, sha256 of every file a 2 s compare writes).  At
# 20% drag/lift mismatch (the compare-mismatch benchmark's config) the
# cells that share a reference stream must write what five separate
# runs write.  The PD cells' traces on the hover-gust and on the
# zero-radius circle without integrator headroom hold -0 cells, which
# pin the sign of a velocity integral that never moves off zero
_HOVER_GUST_PID = (
    "99806fc9f7171cb6a2f0f9723aaa5b87169cd2f4e93b1b8316d63462354f7ebc")
_HOVER_GUST_PD = (
    "b1a6cfa98605ab7d777adbb4dd1c0f2f5c7cad8528a5f5dc62f28bf084e09cae")
_ZERO_RADIUS = (
    "823227057c7edd8e923f303b40f5bd6703b84cb884985f64fc47c30e363b8bee")
_COMPARE_SHA256 = {
    "mismatch": ("plant.cd0 = 0.06\nplant.cla = 2.4\n", {
        "pid-dfaf.csv":
            "faabd51c8c12816aa35e0520d2c25d8bba7fb68b4006b57c3ab13024d8a40ec8",
        "pd-dfaf.csv":
            "83fb8df17a57b4ad4ca7353b50415f793a9b412767ff8acb97619f2530fe1e24",
        "pid-df.csv":
            "870c94ab08561c3b7d932e95a474e1a4575b5882dd455dabb62c50d95d39b10c",
        "pd-df.csv":
            "b3585930185c695f6095f302a0e335ef845d09cd3a03addce3fcbedbc3aeca48",
        "rate-ff-off.csv":
            "321cc4933ef305ab6e8da0b4c83813ba0b8150a17616ac74141aeb401bc07ddf",
        # the summary lists the cells in CONDITIONS order, rate-ff-off third
        "summary.txt":
            "8aba16d35d725260451b135cc1c96120c518e9a192c66d85a7716edaa372d99d",
    }),
    # at rest the wing changes nothing, and the PID cells fly the trace
    # test_trace_is_unchanged[sim] pins
    "hover-gust": (_HOVER_GUST, {
        "pid-dfaf.csv": _HOVER_GUST_PID, "pd-dfaf.csv": _HOVER_GUST_PD,
        "rate-ff-off.csv": _HOVER_GUST_PID, "pid-df.csv": _HOVER_GUST_PID,
        "pd-df.csv": _HOVER_GUST_PD,
        "summary.txt":
            "b3046e6db8e1cc40f0c3a05611dc9958a3e0ae5cf0f5a7fc91a45fcbde5c7677",
    }),
    # a still reference whose integral is clamped to zero: every cell
    # flies alike
    "zero-radius": (
        "trajectory.radius = 0\ngains.integrator_limit = 0\n", {
            **{f"{name}.csv": _ZERO_RADIUS for name in (
                "pid-dfaf", "pd-dfaf", "rate-ff-off", "pid-df", "pd-df")},
            "summary.txt": "cbfbb665599c10c0acbd1700bb18c68ade7b1406be265a10"
                           "e7d48bb10c843abf",
        }),
    # the wind estimate and the thrust floor of the model each cell
    # believes, the wingless one included
    "wind": (_WIND, {
        "pid-dfaf.csv":
            "55dddc4ccbad7091de26a5a8c085f1beed6312bcf2ba1b5b9b9afe4a72dabcd3",
        "pd-dfaf.csv":
            "3ff58c0b6836d78a215e040617f3a34f71145cc989aed604b4c393d80af2353f",
        "rate-ff-off.csv":
            "be22bd1e399b99d7b094e4a8f530ba04d620cd141d462d9e4383e0503ee6eb08",
        "pid-df.csv":
            "736d9f5450e555c4220f42aabab9c2b93a466bdb3b2f7dba5143fcfb713f5ca7",
        "pd-df.csv":
            "cfcfa005bb01ee9c839c84d4781552120fc5446192055775d79c8f4b5fb9edb8",
        "summary.txt":
            "3fb63ea18b45251a6a1b517d7b1159f75d6807e0a141e34f5aaed99417112ff7",
    }),
}


@pytest.mark.parametrize("name", list(_COMPARE_SHA256))
def test_compare_outputs_are_unchanged(tmp_path, name):
    text, digests = _COMPARE_SHA256[name]
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--duration", "2",
                 "--out", str(out)]) == EXIT_OK
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == digests


@pytest.mark.parametrize("text", ["", _HOVER_GUST],
                         ids=["circle", "hover-gust"])
def test_pd_cell_is_the_config_with_no_velocity_integral(tmp_path, text):
    # --condition pd-dfaf sets gains.kvi = 0 and nothing else: the two
    # runs write the same bytes
    pd, kvi = tmp_path / "pd", tmp_path / "kvi"
    assert main(["sim", "--config", write_cfg(tmp_path, text), "--duration",
                 "3", "--condition", "pd-dfaf", "--out", str(pd)]) == EXIT_OK
    zeroed = text + "".join(f"gains.kvi.{axis} = 0\n" for axis in "xyz")
    assert main(["sim", "--config", write_cfg(tmp_path, zeroed, "kvi.cfg"),
                 "--duration", "3", "--out", str(kvi)]) == EXIT_OK
    assert ((pd / "pd-dfaf.csv").read_bytes()
            == (kvi / "sim.csv").read_bytes())


# modules no run may import: numpy, and dataclasses with the inspect it
# pulls in
_UNLOADED = ("numpy", "dataclasses", "inspect")
_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from liftquad.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([code, [name for name in %r if name in sys.modules]])
print(json.dumps(seen))
""" % (_UNLOADED,)


def test_no_run_imports_numpy(tmp_path):
    # every command, the exit-2 and exit-3 paths included, runs on the
    # standard library: numpy costs a fresh process more than a whole
    # short run, and only the trace's array views need it; nor does a
    # run import dataclasses or inspect, about a fifth of its set-up
    out = str(tmp_path / "out")
    bad = write_cfg(tmp_path, "sim.rate = 0\n", "bad.cfg")
    unstable = write_cfg(tmp_path, "plant.cd0 = 1e300\n", "unstable.cfg")
    overflow = write_cfg(tmp_path, "model.mass = 1e300\n", "overflow.cfg")
    wind = write_cfg(tmp_path, "model.wind.x = 1e200\n", "wind.cfg")
    runs = [([command, "--duration", "0.2", "--out", out], EXIT_OK)
            for command in ("sim", "flat", "compare", "check")]
    runs += [(["check", "--config", bad, "--out", out], EXIT_CONFIG),
             (["sim", "--config", unstable, "--out", out], EXIT_CONFIG),
             (["sim", "--config", overflow, "--duration", "0.2",
               "--out", out], EXIT_DIVERGED),
             (["check", "--config", wind, "--out", out], EXIT_DIVERGED)]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT,
         json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True, timeout=120, check=False,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[code, []] for _, code in runs]


def test_importing_the_cli_leaves_argparse_out(tmp_path):
    # argparse, and gettext under it, cost a fresh process about 3 ms:
    # only main() builds the parser, so a caller that imports the module
    # and loads a config pays for neither
    cfg = write_cfg(tmp_path, "sim.rate = 100\n")
    script = ("import sys, liftquad.cli as cli\n"
              f"cli.load_config({cfg!r})\n"
              "print([m for m in ('argparse', 'gettext')"
              " if m in sys.modules])")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
