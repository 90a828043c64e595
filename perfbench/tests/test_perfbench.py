"""Tests of the benchmark itself; run from the repository root:

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from liftquad.config import build_config, parse_config_text  # noqa: E402
import liftquad.cli as cli  # noqa: E402
import liftquad.harness as harness  # noqa: E402
from liftquad.harness import run_experiment  # noqa: E402


def test_seed_zero_gives_the_canonical_configs():
    assert WORKLOADS["sim-circle"].config_text(0) == ""
    assert WORKLOADS["compare-mismatch"].config_text(0) == (
        "plant.cd0 = 0.06\nplant.cla = 2.4\n")
    assert WORKLOADS["flat-lemniscate"].config_text(0) == (
        "trajectory.kind = lemniscate\n")
    hover = build_config(parse_config_text(
        WORKLOADS["hover-gust"].config_text(0)))
    assert list(hover.plant.v_wind) == [4.0, -2.0, 0.0]
    assert (hover.plant.tau_omega, hover.plant.tau_thrust) == (0.03, 0.05)
    assert hover.delay_ticks == 2


@pytest.mark.parametrize("seed", [1, 7, 123])
def test_other_seeds_are_reproducible_and_in_range(seed):
    for workload in WORKLOADS.values():
        assert workload.config_text(seed) == workload.config_text(seed)
    cfg = build_config(parse_config_text(
        WORKLOADS["compare-mismatch"].config_text(seed)))
    assert 1.15 <= cfg.plant.aero.cd0 / 0.05 <= 1.25
    assert cfg.plant.aero.cla / 2.0 == pytest.approx(cfg.plant.aero.cd0 / 0.05)
    hover = build_config(parse_config_text(
        WORKLOADS["hover-gust"].config_text(seed)))
    speed = float((hover.plant.v_wind @ hover.plant.v_wind) ** 0.5)
    assert 3.0 <= speed <= 5.0
    assert 0.02 <= hover.plant.tau_omega <= 0.05
    assert 0.02 <= hover.plant.tau_thrust <= 0.05


def _trace_bytes(tmp_path):
    cfg = build_config(parse_config_text("sim.duration = 0.1\n"))
    path = tmp_path / "sim.csv"
    run_experiment(cfg).write_csv(path)
    return path.read_bytes(), round(cfg.rate * cfg.duration) + 1


def test_gate_passes_a_good_trace_and_flags_each_defect(tmp_path):
    data, n_rows = _trace_bytes(tmp_path)
    assert gate.problems({"sim.csv": data}, [0], n_rows, ["sim.csv"]) == []

    lines = data.decode().splitlines()

    def edited(**columns):
        fields = lines[3].split(",")
        for index, value in columns.items():
            fields[int(index[1:])] = value
        return ("\n".join(lines[:3] + [",".join(fields)] + lines[4:])
                + "\n").encode()

    found = gate.problems({"sim.csv": edited(c18="1.5", c10="0.9")}, [0],
                          n_rows, ["sim.csv"])
    assert "sim.csv: positive thrust" in found
    assert "sim.csv: q not unit norm" in found
    assert "sim.csv: non-finite value" in gate.problems(
        {"sim.csv": edited(c1="nan")}, [0], n_rows, ["sim.csv"])

    short = "\n".join(lines[:-1]) + "\n"
    found = gate.problems({"sim.csv": short.encode()}, [3], n_rows,
                          ["sim.csv", "summary.txt"])
    assert f"sim.csv: {n_rows - 1} rows, expected {n_rows}" in found
    assert "exit codes [3]" in found
    assert "missing outputs ['summary.txt']" in found


def test_tracer_counts_the_programs_own_calls_and_restores_them(tmp_path):
    rebound = list(tracer.LAYER_CALLS) + list(tracer.RUN_CALLS)
    originals = [getattr(harness, name) for name in rebound]
    original_csv = harness.RunResult.write_csv
    config = tmp_path / "empty.cfg"
    config.write_text("", encoding="utf-8")
    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert cli.main(["compare", "--config", str(config), "--out",
                         str(tmp_path), "--duration", "0.1"]) == 0
    assert [getattr(harness, name) for name in rebound] == originals
    assert harness.RunResult.write_csv is original_csv
    assert cli.run_experiment is harness.run_experiment

    cfg = build_config({})
    n_rows = round(cfg.rate * 0.1) + 1
    metrics = {k: v for k, (v, _) in tracer.layer_metrics([tr]).items()}
    # five closed-loop runs, each sampling once more than it logs rows
    assert metrics["trajectories.calls"] == 5 * (n_rows + 1)
    assert metrics["flatness.calls"] == 5 * (n_rows + 1)
    assert metrics["dynamics.rk4_calls"] == 5 * (n_rows - 1) * cfg.substeps
    assert metrics["flatness.zero_velocity_ticks"] == 5 * n_rows
    assert metrics["harness.csv_bytes"] == sum(
        p.stat().st_size for p in tmp_path.glob("*.csv"))
    shares = [metrics[f"{layer}.share"] for layer in (
        "trajectories", "flatness", "control", "dynamics", "geom", "harness")]
    assert min(shares) > 0.0
    assert sum(shares) == pytest.approx(1.0)


def test_smoke_runs_every_workload_with_all_checks():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    # each workload runs untraced and traced; the traced outputs matched
    assert "PER-LAYER NUMBERS INVALID" not in proc.stdout
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for metric in bench["end_to_end"] + bench["per_layer"]:
            reported = result["metrics"][f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "sim-circle", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
