"""Measurement of one workload: the timed loops, set-up probes and gate.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import liftquad.cli
from liftquad.config import CONDITIONS, build_config, parse_config_text

import gate
import tracer
from calibrate import REFERENCE_S, Paced
from invoke import invoke

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


def expected_files(workload):
    names = {"sim": ["sim.csv"], "flat": ["flat.csv"],
             "check": ["check.txt"],
             "compare": [f"{c}.csv" for c in list(CONDITIONS)
                         + ["rate-ff-off"]] + ["summary.txt"]}
    return [name for command in workload.commands for name in names[command]]


def read_outputs(out_dir, check_text):
    outputs = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    if check_text is not None:
        outputs["check.txt"] = check_text.encode("utf-8")
    return outputs


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Case:
    """One workload at one seed: its config, expected outputs and gate."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = fresh_dir(work)
        self.config_text = workload.config_text(seed)
        self.config_path = work / "config.cfg"
        self.config_path.write_text(self.config_text, encoding="utf-8")
        cfg = build_config(parse_config_text(self.config_text))
        self.n_rows = round(cfg.rate * workload.duration) + 1
        sweeps = {"sim": 1, "flat": 1, "check": 1, "compare": 5}
        self.ticks = self.n_rows * sum(sweeps[c] for c in workload.commands)
        self.files = expected_files(workload)
        self.reference_sha = None
        self.reference_problems = None
        self.ep_m = float("nan")

    def judge(self, outputs, codes, source="run"):
        """Gate problems of one invocation; the first call fixes the
        reference trace every later invocation must reproduce."""
        sha = gate.trace_sha256(outputs)
        if self.reference_sha is None:
            self.reference_sha = sha
            self.reference_problems = gate.problems(
                outputs, codes, self.n_rows, self.files)
            self.ep_m = gate.ep_m(outputs)
            return list(self.reference_problems)
        if sha == self.reference_sha and not any(codes):
            return list(self.reference_problems)
        found = gate.problems(outputs, codes, self.n_rows, self.files)
        return found + [f"{source} trace differs from the first untraced "
                        f"trace of the set"]


def measure_setup(case, samples):
    """Scaled set-up seconds of fresh interpreters (after one discarded
    warm-up) and the peak RSS of a fresh process running one invocation."""
    out = fresh_dir(case.work / "child_out")
    child = [sys.executable, str(HERE / "child.py"), str(case.config_path)]
    setup = []
    rss = float("nan")
    problems = []
    for i in range(samples + 1):
        args = child
        if i == samples:
            args = child + [case.workload.name, repr(case.workload.duration),
                            str(out)]
        try:
            proc = subprocess.run(args, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            problems.append("set-up probe timed out")
            continue
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-200:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if i > 0:
            setup.append({"setup_raw_s": result["setup_s"],
                          "scale": REFERENCE_S / result["probe_s"]})
        if "peak_rss_mb" in result:
            rss = result["peak_rss_mb"]
            if any(result["codes"]):
                problems.append(f"set-up probe exit codes {result['codes']}")
    return setup, rss, problems


def untraced(case, out_dir):
    fresh_dir(out_dir)
    check_text, codes, wall, cpu = invoke(
        liftquad.cli, case.workload, case.config_path, out_dir)
    return read_outputs(out_dir, check_text), codes, wall, cpu


def traced(case, out_dir, tracers):
    """The same CLI invocation with the program's public calls rebound
    to span wrappers (see ``tracer.py``)."""
    fresh_dir(out_dir)
    tr = tracer.Tracer()
    with tracer.installed(tr):
        check_text, codes, wall, cpu = invoke(
            liftquad.cli, case.workload, case.config_path, out_dir)
    tracers.append(tr)
    return read_outputs(out_dir, check_text), codes, wall, cpu


def measured(case, pace, invocation, source="run"):
    """One invocation with its gate verdict and host-speed scale.

    The host's speed is probed around and inside it (see
    ``calibrate.py``).  An exception is recorded as a failed check, so no
    single invocation can abort the set.
    """
    sample = {"traced": source == "traced"}
    with pace.measuring() as speed:
        try:
            outputs, codes, wall, cpu = invocation()
        except Exception as exc:       # counted as a failure, the set goes on
            outputs = None
            sample["problems"] = [f"{source} raised {type(exc).__name__}: {exc}"]
    if outputs is not None:
        sample.update(wall_raw_s=wall - speed.probe_s,
                      cpu_raw_s=cpu - speed.probe_cpu_s,
                      problems=case.judge(outputs, codes, source))
    sample["scale"] = speed.scale
    return sample


def scaled_median(samples, key):
    values = [s[key] * s["scale"] for s in samples if key in s]
    return statistics.median(values) if values else float("nan")


def run_untraced(case, seconds, repeats):
    """Closed loop of untraced invocations for ``seconds`` (at least
    ``repeats`` of them), then ``2 * repeats`` fresh-process set-ups.
    The first invocation fixes the reference trace."""
    out = case.work / "out"
    pace = Paced()
    samples = []
    deadline = time.perf_counter() + seconds
    while len(samples) < repeats or time.perf_counter() < deadline:
        samples.append(measured(case, pace, lambda: untraced(case, out)))
    setup, rss, setup_problems = measure_setup(case, 2 * repeats)
    wall = scaled_median(samples, "wall_raw_s")
    metrics = {
        "wall_s": (wall, "s"),
        "ticks_per_s": (case.ticks / wall, "1/s"),
        "cpu_s": (scaled_median(samples, "cpu_raw_s"), "s"),
        "setup_s": (scaled_median(setup, "setup_raw_s"), "s"),
        "peak_rss_mb": (rss, "MB"),
        "wall_raw_s": (statistics.median(
            s["wall_raw_s"] for s in samples if "wall_raw_s" in s)
            if any("wall_raw_s" in s for s in samples) else float("nan"), "s"),
    }
    if case.ep_m == case.ep_m:     # open-loop workloads have no E_p
        metrics["ep_m"] = (case.ep_m, "m")
    return samples, setup, metrics, setup_problems


def run_traced(case, seconds, repeats):
    """Alternating untraced and traced invocations for ``seconds`` (at
    least ``repeats + 1`` of them, half traced); each traced trace must
    equal the first untraced one byte for byte."""
    out, traced_out = case.work / "out", case.work / "traced_out"
    pace = Paced()
    samples = []
    tracers = []
    deadline = time.perf_counter() + seconds
    while len(samples) < repeats + 1 or time.perf_counter() < deadline:
        samples.append(measured(case, pace, lambda: untraced(case, out)))
        done = len(tracers)
        samples.append(measured(case, pace,
                                lambda: traced(case, traced_out, tracers),
                                source="traced"))
        if len(tracers) > done:
            tracers[-1].exclude(pace.last.probes)
    if not tracers:
        return samples, [], {}, ["no traced invocation completed"]
    scale = statistics.median(s["scale"] for s in samples if s["traced"])
    metrics = {name: (value * scale if unit in ("us", "ms") else value, unit)
               for name, (value, unit) in tracer.layer_metrics(tracers).items()}
    metrics["harness.tracing_overhead_frac"] = (
        scaled_median([s for s in samples if s["traced"]], "wall_raw_s")
        / scaled_median([s for s in samples if not s["traced"]], "wall_raw_s")
        - 1.0, "frac")
    tracer.write_spans(tracers[-1], case.work / "spans.csv")
    return samples, [], metrics, []


def run_case(workload, seed, seconds, trace, work, repeats, env):
    """Measure one workload at one seed; returns the result record, also
    written to ``work/result.json``."""
    case = Case(workload, seed, work)
    runner = run_traced if trace else run_untraced
    samples, setup, metrics, extra_problems = runner(case, seconds, repeats)
    attempted = len(samples) + (1 if extra_problems else 0)
    failed = sum(1 for s in samples if s["problems"]) + (
        1 if extra_problems else 0)
    metrics["fail_frac"] = (failed / attempted, "frac")
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "trace": trace, "seconds": seconds, "duration": workload.duration,
        "config_text": case.config_text,
        "trace_sha256": case.reference_sha,
        "environment": env,
        "attempted": attempted, "failed": failed,
        "problems": sorted({p for s in samples for p in s["problems"]}
                           | set(extra_problems)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "setup_samples": setup,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1),
                                      encoding="utf-8")
    return record
