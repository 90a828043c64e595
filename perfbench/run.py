"""liftquad benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` a run measures the untraced CLI and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced invocations and reports the per-layer metrics.  ``all`` runs
every workload both ways.  ``--smoke`` runs every workload briefly with
every check on and no timing expectations.

Every invocation passes the correctness gate (see ``gate.py``); failures
are counted, never fatal.  A human-readable report goes to standard
output, followed by one JSON line; the full record, with the
environment, the seeds, the config text and ``trace_sha256``, is written
under ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy

from workloads import WORKLOADS

OUT_ROOT = Path(".perfbench_out")
# minimum timed invocations per run (twice as many fresh-process set-ups)
REPEATS = 3
SMOKE_DURATION = 0.2

# the metrics the final JSON line carries, as listed in BENCHMARK.json
END_TO_END = ("wall_s", "ticks_per_s", "cpu_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "trajectories.sample_us", "trajectories.calls",
    "flatness.transform_us", "flatness.calls",
    "flatness.zero_velocity_ticks", "flatness.axis_aligned_ticks",
    "control.thrust_sat_ticks", "control.omega_sat_ticks",
    "dynamics.rk4_calls", "dynamics.orth_resid_max",
    "geom.mat_to_quat_us", "harness.write_csv_us_per_row",
    "harness.csv_bytes", "harness.self_us",
    "harness.tick_us.p50", "harness.tick_us.p99",
    "harness.tracing_overhead_frac", "config.build_ms",
    "trajectories.share", "flatness.share", "control.share",
    "dynamics.share", "harness.share", "geom.share",
)


def environment(nproc, cpu_pinned):
    """Host context for a result; read-only."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": nproc,
        "cpus_used": 1,
        "cpu_pinned": cpu_pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
    }


def _git_sha():
    if not Path(".git").exists():     # a plain checkout: do not search upwards
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_report(record):
    env = record["environment"]
    kind = "traced, per layer" if record["trace"] else "untraced, end to end"
    n = sum(1 for s in record["samples"]
            if s["traced"] == bool(record["trace"]))
    print(f"== {record['workload']}  seed {record['seed']}  ({kind}; "
          f"n={n} invocations of {record['duration']:g} s simulated)")
    print(f"   env: nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, git {env['git_sha']}, cpu {env['cpu_model']!r} "
          f"(runs on {env['cpus_used']} CPU: CPU {env['cpu_pinned']}), "
          f"loadavg {env['loadavg']}")
    print(f"   trace_sha256 {record['trace_sha256']}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"   attempted {record['attempted']}, failed {record['failed']}")
    for problem in record["problems"]:
        print(f"   FAILED CHECK: {problem}")
    if record["trace"] and any(p.startswith("traced")
                               for p in record["problems"]):
        print("   PER-LAYER NUMBERS INVALID: the traced invocation did not "
              "reproduce the untraced trace")


def published(record):
    names = PER_LAYER if record["trace"] else END_TO_END
    return {name: record["metrics"][name] for name in names
            if name in record["metrics"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, briefly, all checks on")
    args = parser.parse_args(argv)

    if not (Path("src") / "liftquad" / "__init__.py").is_file():
        print("perfbench: src/liftquad not found; run from the root of a "
              "liftquad checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    # the host-speed probe and the invocations must share one CPU: two
    # CPUs of a shared host can run at different speeds at the same time.
    # The program is measured on that one CPU, so a change that adds
    # threads cannot lower wall_s here.
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    import measure      # imports liftquad, so only once src/ is on the path

    names = sorted(WORKLOADS) if args.smoke or args.workload == "all" \
        else [args.workload]
    traces = (0, 1) if len(names) > 1 else (args.trace,)
    seconds = 0.0 if args.smoke else args.seconds
    repeats = 1 if args.smoke else REPEATS
    records = []
    for name in names:
        workload = WORKLOADS[name]
        if args.smoke:
            workload = replace(workload, duration=SMOKE_DURATION)
        for trace in traces:
            work = OUT_ROOT / f"{name}-seed{args.seed}-trace{trace}"
            record = measure.run_case(workload, args.seed, seconds, trace,
                                      work, repeats,
                                      environment(len(allowed), cpu))
            print_report(record)
            records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = published(records[0])
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in published(r).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
