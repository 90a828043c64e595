"""Analytic reference trajectories with exact derivatives through jerk.

All references are planar (constant altitude): a circle flown with a
uniformly accelerating phase angle until a speed cap and at constant
angular rate after it, a Gerono-style figure-eight, a hover point and a
constant-speed straight line.  Velocity, acceleration and jerk come
from symbolic differentiation of the position law, not finite
differences.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .flatness import FlatSample


class TrajectoryKind(Enum):
    CIRCLE = "circle"
    LEMNISCATE = "lemniscate"
    HOVER = "hover"
    LINE = "line"


# Per-kind defaults for (radius, angular rate); the circle's speed cap
# defaults to 10 m/s and its yaw fallback to the initial flight heading
# (+y) so the standstill start hands off smoothly.
_DEFAULT_RADIUS = {TrajectoryKind.CIRCLE: 15.0, TrajectoryKind.LEMNISCATE: 20.0}
_DEFAULT_OMEGA = {TrajectoryKind.CIRCLE: 0.06, TrajectoryKind.LEMNISCATE: 0.33}

# Range rules: within them every sample a run can reach (t up to 10**7 s,
# its most rows at 1 Hz) has components below 1e25, so numpy squares
# them without overflow.
MAX_OFFSET = 1e7      # |p0| per axis (m)
MAX_RADIUS = 1e6      # m
MAX_OMEGA = 1e3       # rad/s
MAX_SPEED = 1e4       # |speed_cap| (m/s)


@dataclass(frozen=True)
class TrajectoryDef:
    """Reference definition.

    ``r`` and ``omega`` default per kind (15 m / 0.06 rad/s circle,
    20 m / 0.33 rad/s figure-eight); ``speed_cap`` bounds the circle's
    accelerating phase and sets the line speed; ``psi_fallback`` seeds
    the flatness yaw policy and doubles as the line heading.
    """

    kind: TrajectoryKind = TrajectoryKind.CIRCLE
    p0: np.ndarray = None
    r: float = None
    omega: float = None
    speed_cap: float = 10.0
    psi_fallback: float = None

    def __post_init__(self):
        p0 = np.zeros(3) if self.p0 is None else np.asarray(self.p0, float)
        object.__setattr__(self, "p0", p0)
        if self.r is None:
            object.__setattr__(self, "r", _DEFAULT_RADIUS.get(self.kind, 0.0))
        if self.omega is None:
            object.__setattr__(self, "omega", _DEFAULT_OMEGA.get(self.kind, 0.0))
        if self.psi_fallback is None:
            planar = self.kind in (TrajectoryKind.CIRCLE,
                                   TrajectoryKind.LEMNISCATE)
            object.__setattr__(self, "psi_fallback",
                               0.5 * math.pi if planar else 0.0)
        for key, value, low, high in (
                *((f"p0.{axis}", x, -MAX_OFFSET, MAX_OFFSET)
                  for axis, x in zip("xyz", p0)),
                ("radius", self.r, 0.0, MAX_RADIUS),
                ("omega", self.omega, 0.0, MAX_OMEGA),
                ("speed_cap", self.speed_cap, -MAX_SPEED, MAX_SPEED)):
            if not low <= value <= high:
                raise ValueError(
                    f"trajectory.{key} must be in [{low:g}, {high:g}]")
        if self.kind is TrajectoryKind.CIRCLE and self.speed_cap <= 0.0:
            raise ValueError("speed_cap must be > 0 for the circle")

    def switch_time(self):
        """Circle accelerate-to-constant switch instant ``cap/(r*omega)``;
        infinity for other kinds."""
        if self.kind is not TrajectoryKind.CIRCLE or self.r * self.omega == 0.0:
            return math.inf
        return self.speed_cap / (self.r * self.omega)


def _angle_states(traj, t):
    """Phase angle and its first three time derivatives for the circle:
    theta = 0.5*omega*t^2 while accelerating, linear in t after the
    speed cap is reached (position and velocity are continuous there)."""
    t_switch = traj.switch_time()
    if t <= t_switch:
        return 0.5 * traj.omega * t * t, traj.omega * t, traj.omega, 0.0
    rate = traj.speed_cap / traj.r
    theta = 0.5 * traj.omega * t_switch * t_switch + rate * (t - t_switch)
    return theta, rate, 0.0, 0.0


def sample(traj, t):
    """Flat reference at time ``t >= 0``; derivatives are exact."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    kind = traj.kind
    if kind is TrajectoryKind.HOVER:
        return FlatSample(traj.p0.copy(), np.zeros(3), np.zeros(3),
                          np.zeros(3), traj.psi_fallback)
    if kind is TrajectoryKind.LINE:
        heading = np.array([math.cos(traj.psi_fallback),
                            math.sin(traj.psi_fallback), 0.0])
        v = traj.speed_cap * heading
        return FlatSample(traj.p0 + t * v, v, np.zeros(3), np.zeros(3),
                          traj.psi_fallback)
    if kind is TrajectoryKind.CIRCLE:
        theta, d1, d2, d3 = _angle_states(traj, t)
        s, c = math.sin(theta), math.cos(theta)
        r = traj.r
        along = np.array([s, c, 0.0])
        inward = np.array([c, -s, 0.0])
        p = traj.p0 + r * np.array([1.0 - c, s, 0.0])
        v = r * d1 * along
        a = r * d2 * along + r * d1 * d1 * inward
        j = r * d3 * along + 3.0 * r * d1 * d2 * inward - r * d1 ** 3 * along
        return FlatSample(p, v, a, j, traj.psi_fallback)
    # figure-eight: x sweeps at half the phase rate of y
    u = traj.omega * t
    r, w = traj.r, traj.omega
    sh, ch = math.sin(0.5 * u), math.cos(0.5 * u)
    s, c = math.sin(u), math.cos(u)
    p = traj.p0 + np.array([r * (1.0 - ch), r * s, 0.0])
    v = np.array([0.5 * r * w * sh, r * w * c, 0.0])
    a = np.array([0.25 * r * w * w * ch, -r * w * w * s, 0.0])
    j = np.array([-0.125 * r * w ** 3 * sh, -r * w ** 3 * c, 0.0])
    return FlatSample(p, v, a, j, traj.psi_fallback)
