"""Traced run of the program itself: spans around its public calls.

For one traced invocation the benchmark rebinds, for the duration of
the call, the names the harness looks up in its own module globals:
``sample_trajectory``, ``flatness_transform``, ``controller_step``,
``actuator_lag``, ``rk4_step`` and ``mat_to_quat`` (the per-tick layer
calls), ``run_experiment`` and ``feedforward_trace`` (one closed-loop
or open-loop run each, also rebound in ``liftquad.cli``), plus
``cli.load_config`` and ``RunResult.write_csv``.  Each replacement
calls the original inside a span; ``liftquad.cli.main`` then runs
unchanged, so the counts and times are those of the code that runs.
Nothing under ``src/`` changes, and the originals are restored when the
invocation returns.  The outputs must match the untraced CLI byte for
byte; the benchmark checks that before it publishes any per-layer
number.

Spans live in memory as ``(name, start_ns, end_ns, parent)`` tuples,
where ``parent`` indexes the enclosing run span (-1 outside a run), and
are written out only when the run ends.

A tick is the stretch between two successive ``sample_trajectory``
calls of one run; the last tick ends with the run.  A run's first
sample calls beyond its row count (the closed loop's initial state) are
its prelude and belong to no tick.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import liftquad.cli as cli
import liftquad.harness as harness
from liftquad.flatness import SingularCase

SAMPLE = "trajectories.sample"
# harness global -> span name; the span's layer is the part before the dot
LAYER_CALLS = {
    "sample_trajectory": SAMPLE,
    "flatness_transform": "flatness.transform",
    "controller_step": "control.step",
    "actuator_lag": "dynamics.lag",
    "rk4_step": "dynamics.rk4",
    "mat_to_quat": "geom.mat_to_quat",
}
RUN_CALLS = {"run_experiment": "harness.closed_loop",
             "feedforward_trace": "harness.open_loop"}
_CONTROL_CTX_ARG = 7     # position of ``ctx`` in controller_step's arguments


@dataclass
class Run:
    """One closed- or open-loop run: its span, config and logged result."""

    index: int
    closed_loop: bool
    cfg: object
    result: object


class Tracer:
    """Spans and exact counts of one traced invocation."""

    def __init__(self):
        self.spans = []
        self.runs = []
        self.counts = Counter()
        self.rotations = []      # plant attitudes, for the orthonormality residual
        self.thrust_saturated = []   # ControllerContext flag after each tick
        self._stack = [-1]

    def layer(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            spans.append((name, start, clock(), stack[-1]))
            return out
        return traced

    def rk4(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        rotations = self.rotations

        def traced(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            spans.append(("dynamics.rk4", start, clock(), stack[-1]))
            rotations.append(out.R)
            return out
        return traced

    def control(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        saturated = self.thrust_saturated

        def traced(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            spans.append(("control.step", start, clock(), stack[-1]))
            saturated.append(args[_CONTROL_CTX_ARG].thrust_saturated)
            return out
        return traced

    def run(self, name, fn):
        def traced(cfg):
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(cfg)
                return result
            except harness.DivergenceError as exc:
                result = exc.result
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, self._stack[-1])
                self.runs.append(Run(index, name == RUN_CALLS["run_experiment"],
                                     cfg, result))
        return traced

    def write_csv(self, fn):
        spans, clock = self.spans, time.perf_counter_ns

        def traced(result, path):
            start = clock()
            fn(result, path)
            spans.append(("harness.write_csv", start, clock(), -1))
            self.counts["harness.csv_rows"] += len(result.t)
            self.counts["harness.csv_bytes"] += path.stat().st_size
        return traced

    def exclude(self, probes):
        """Take the host-speed probes, ``(start_ns, duration_ns)`` pairs
        that ran inside this invocation, out of every span: each time
        stamp moves back by the probe time before it."""
        if not probes:
            return
        starts = np.array([start for start, _ in probes], dtype=np.int64)
        before = np.concatenate(([0], np.cumsum([d for _, d in probes])))
        names, begin, end, parents = zip(*self.spans)
        begin, end = (np.array(stamps, dtype=np.int64) for stamps in (begin, end))
        begin -= before[np.searchsorted(starts, begin, "right")]
        end -= before[np.searchsorted(starts, end, "right")]
        self.spans = list(zip(names, begin.tolist(), end.tolist(), parents))

    def finish(self):
        """Exact counts read from the logged results, after the run."""
        self.counts["control.thrust_sat_ticks"] = sum(self.thrust_saturated)
        for run in self.runs:
            if run.result is None:
                continue
            singular = run.result.singular
            self.counts["flatness.zero_velocity_ticks"] += int(
                np.count_nonzero(singular == SingularCase.ZERO_VELOCITY))
            self.counts["flatness.axis_aligned_ticks"] += int(
                np.count_nonzero(singular == SingularCase.AXIS_ALIGNED))
            if run.closed_loop:
                self.counts["control.omega_sat_ticks"] += int(np.count_nonzero(
                    np.any(np.abs(run.result.omega)
                           >= run.cfg.limits.omega_max, axis=1)))


@contextmanager
def installed(tr):
    """Rebind the program's public calls to ``tr``'s span wrappers."""
    patches = []
    for attr, name in LAYER_CALLS.items():
        original = getattr(harness, attr)
        if attr == "rk4_step":
            wrapper = tr.rk4(original)
        elif attr == "controller_step":
            wrapper = tr.control(original)
        else:
            wrapper = tr.layer(name, original)
        patches.append((harness, attr, wrapper))
    for attr, name in RUN_CALLS.items():
        wrapper = tr.run(name, getattr(harness, attr))
        patches += [(harness, attr, wrapper), (cli, attr, wrapper)]
    patches.append((cli, "load_config",
                    tr.layer("config.build", cli.load_config)))
    patches.append((harness.RunResult, "write_csv",
                    tr.write_csv(harness.RunResult.write_csv)))
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tr
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        tr.finish()


def orth_residual_max(rotations):
    """Largest Frobenius norm of R^T R - I over the plant attitudes."""
    if not rotations:
        return 0.0
    r = np.asarray(rotations)
    gram = np.einsum("nki,nkj->nij", r, r) - np.eye(3)
    return float(np.max(np.sqrt(np.einsum("nij,nij->n", gram, gram))))


def layer_metrics(tracers):
    """Per-layer metrics over the traced invocations of one run.

    Times are totals over every call divided by the number of calls;
    counts are per invocation (they repeat exactly).  A layer's share is
    its time inside run spans over the total run time; the harness share
    is the run time no layer span covers, and ``harness.self_us`` is
    that time per logged row.
    """
    total_ns = Counter()
    calls = Counter()
    in_run_ns = Counter()
    run_ns = 0
    rows = 0
    ticks = []
    config_ns = []
    for tr in tracers:
        runs = {run.index for run in tr.runs}
        sample_starts = defaultdict(list)
        for name, start, end, parent in tr.spans:
            if name in RUN_CALLS.values():
                continue
            if name == "config.build":
                config_ns.append(end - start)
            total_ns[name] += end - start
            calls[name] += 1
            if parent in runs:
                in_run_ns[name.split(".")[0]] += end - start
                if name == SAMPLE:
                    sample_starts[parent].append(start)
        for run in tr.runs:
            _, start, end, _ = tr.spans[run.index]
            n_rows = len(run.result.t) if run.result is not None else 0
            run_ns += end - start
            rows += n_rows
            bounds = sample_starts[run.index] + [end]
            ticks.extend(np.diff(bounds)[-n_rows:] if n_rows else [])
    child_ns = sum(in_run_ns.values())
    last = tracers[-1]
    n_invocations = len(tracers)

    def per_call_us(name):
        return total_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    ticks_us = np.asarray(ticks, dtype=float) / 1e3
    metrics = {
        "trajectories.sample_us": (per_call_us(SAMPLE), "us"),
        "trajectories.calls": (calls[SAMPLE] // n_invocations, "count"),
        "flatness.transform_us": (per_call_us("flatness.transform"), "us"),
        "flatness.calls": (calls["flatness.transform"] // n_invocations,
                           "count"),
        "flatness.zero_velocity_ticks": (
            last.counts["flatness.zero_velocity_ticks"], "count"),
        "flatness.axis_aligned_ticks": (
            last.counts["flatness.axis_aligned_ticks"], "count"),
        "control.step_us": (per_call_us("control.step"), "us"),
        "control.thrust_sat_ticks": (last.counts["control.thrust_sat_ticks"],
                                     "count"),
        "control.omega_sat_ticks": (last.counts["control.omega_sat_ticks"],
                                    "count"),
        "dynamics.rk4_us": (per_call_us("dynamics.rk4"), "us"),
        "dynamics.rk4_calls": (calls["dynamics.rk4"] // n_invocations,
                               "count"),
        "dynamics.lag_us": (per_call_us("dynamics.lag"), "us"),
        "dynamics.orth_resid_max": (
            max(orth_residual_max(tr.rotations) for tr in tracers), "1"),
        "geom.mat_to_quat_us": (per_call_us("geom.mat_to_quat"), "us"),
        "harness.write_csv_us_per_row": (
            total_ns["harness.write_csv"] / 1e3
            / max(1, sum(tr.counts["harness.csv_rows"] for tr in tracers)),
            "us"),
        "harness.csv_bytes": (last.counts["harness.csv_bytes"], "bytes"),
        "harness.self_us": ((run_ns - child_ns) / max(1, rows) / 1e3, "us"),
        "harness.tick_us.p50": (float(np.percentile(ticks_us, 50)), "us"),
        "harness.tick_us.p99": (float(np.percentile(ticks_us, 99)), "us"),
        "config.build_ms": (float(np.median(config_ns)) / 1e6, "ms"),
    }
    for layer in ("trajectories", "flatness", "control", "dynamics", "geom"):
        metrics[f"{layer}.share"] = (in_run_ns[layer] / run_ns, "frac")
    metrics["harness.share"] = ((run_ns - child_ns) / run_ns, "frac")
    return metrics


def write_spans(tracer, path):
    """Dump one invocation's spans as CSV: index,name,start_ns,end_ns,parent."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,name,start_ns,end_ns,parent\n")
        for index, (name, start, end, parent) in enumerate(tracer.spans):
            handle.write(f"{index},{name},{start},{end},{parent}\n")
