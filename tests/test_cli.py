"""Command-line front end: outputs, overrides, exit codes."""

import numpy as np
import pytest

from liftquad.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
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
    code = main(["sim", "--config", cfg, "--duration", "0.5", "--seed", "7",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "126 rows" in out
    assert "seed 7" in out


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


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bogus.key = 1\n")
    code = main(["sim", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unknown key" in err


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
    assert summary.startswith("seed 0, duration 1 s\n")
    assert "rate-ff-off" in summary
    assert "pid-dfaf" in capsys.readouterr().out


def test_check_prints_feasibility(capsys):
    code = main(["check", "--duration", "30"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "thrust demand" in out
    assert "feasible        yes" in out


def test_unknown_condition_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sim", "--condition", "nonsense"])


def test_flat_trace_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["flat", "--duration", "2",
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    a = (tmp_path / "a" / "flat.csv").read_bytes()
    b = (tmp_path / "b" / "flat.csv").read_bytes()
    assert a == b
