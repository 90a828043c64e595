"""Workload definitions: seeded config text plus the CLI invocations to run.

Each workload is one closed-loop caller: the benchmark issues its CLI
commands in-process, one after another, with the next invocation
starting when the previous one returned.  The program sees only the
generated config file and the command-line arguments listed here.

Seed 0 gives the canonical configs; other seeds draw the quantities the
workload varies from fixed ranges with ``random.Random(seed)``, so the
same seed always yields the same text.

``duration`` is passed as the CLI's ``--duration`` flag.  It is shorter
than the stock 60 s so that one measured run holds a few invocations.
The traced program costs the same per tick, to about 1%, at these
durations as over 60 s: plant, controller and sampling cost the same
in the circle's accelerating and cruising phases, and a zero-velocity
flatness tick is only about 3% cheaper than a smooth one.  The durations
still keep the circle's start-up branch a minority: its first 139 ticks
(reference speed below 0.5 m/s) are 4.6% of a 12 s ``sim-circle`` run,
which also passes the end of the accelerating phase at 11.1 s, and
18.5% of each 3 s ``compare-mismatch`` cell (0.9% of a 60 s run).
"""

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple      # CLI subcommands, run in this order per invocation
    duration: float      # --duration passed to every command (s)

    def config_text(self, seed):
        return _CONFIGS[self.name](seed)


def _sim_circle(seed):
    # the stock circle: nothing is drawn, every seed sees the empty config
    return ""


def _compare_mismatch(seed):
    # plant drag and lift 20% above the model (criterion 6); other seeds
    # scale both coefficients by a factor in [1.15, 1.25]
    if seed == 0:
        return "plant.cd0 = 0.06\nplant.cla = 2.4\n"
    factor = random.Random(seed).uniform(1.15, 1.25)
    return f"plant.cd0 = {0.05 * factor!r}\nplant.cla = {2.0 * factor!r}\n"


def _flat_lemniscate(seed):
    return "trajectory.kind = lemniscate\n"


def _hover_gust(seed):
    if seed == 0:
        wind_x, wind_y, tau_omega, tau_thrust = 4.0, -2.0, 0.03, 0.05
    else:
        rng = random.Random(seed)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(3.0, 5.0)
        wind_x, wind_y = speed * math.cos(angle), speed * math.sin(angle)
        tau_omega, tau_thrust = rng.uniform(0.02, 0.05), rng.uniform(0.02, 0.05)
    return (f"trajectory.kind = hover\n"
            f"plant.wind.x = {wind_x!r}\nplant.wind.y = {wind_y!r}\n"
            f"plant.wind.z = 0.0\n"
            f"plant.tau_omega = {tau_omega!r}\n"
            f"plant.tau_thrust = {tau_thrust!r}\n"
            f"sim.delay_ticks = 2\n")


_CONFIGS = {
    "sim-circle": _sim_circle,
    "compare-mismatch": _compare_mismatch,
    "flat-lemniscate": _flat_lemniscate,
    "hover-gust": _hover_gust,
}

WORKLOADS = {w.name: w for w in (
    Workload("sim-circle",
             "liftquad sim on the stock circle: the most common run, "
             "dominated by the plant",
             ("sim",), 12.0),
    Workload("compare-mismatch",
             "liftquad compare at 20% drag/lift mismatch: five closed-loop "
             "cells recompute one shared open-loop reference",
             ("compare",), 3.0),
    Workload("flat-lemniscate",
             "liftquad flat then check on the figure-eight: open-loop "
             "sampling, flatness and CSV only, no plant or controller",
             ("flat", "check"), 10.0),
    Workload("hover-gust",
             "liftquad sim hovering in wind with actuator lag and delay: "
             "zero-velocity flatness branch on every tick",
             ("sim",), 4.0),
)}


def argv(command, config_path, out_dir, duration):
    """Arguments for ``liftquad.cli.main`` for one command."""
    return [command, "--config", str(config_path), "--out", str(out_dir),
            "--duration", repr(float(duration))]
