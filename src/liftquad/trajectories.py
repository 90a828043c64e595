"""Analytic reference trajectories with exact derivatives through jerk.

All references are planar (constant altitude): a circle flown with a
uniformly accelerating phase angle until a speed cap and at constant
angular rate after it, a Gerono-style figure-eight, a hover point and a
constant-speed straight line.  Velocity, acceleration and jerk come
from symbolic differentiation of the position law, not finite
differences.  A sample is Python floats: its vectors are 3-tuples.
"""

import math
from enum import Enum

from .flatness import FlatSample
from .record import ConfigError, Frozen, finite, float3


class TrajectoryKind(Enum):
    CIRCLE = "circle"
    LEMNISCATE = "lemniscate"
    HOVER = "hover"
    LINE = "line"


# Per-kind defaults for (radius, omega): omega is the circle's phase
# acceleration (rad/s^2) and the figure-eight's phase rate (rad/s).  The
# circle's speed cap defaults to 10 m/s and its yaw fallback to the
# initial flight heading (+y) so the standstill start hands off smoothly.
_DEFAULT_RADIUS = {TrajectoryKind.CIRCLE: 15.0, TrajectoryKind.LEMNISCATE: 20.0}
_DEFAULT_OMEGA = {TrajectoryKind.CIRCLE: 0.06, TrajectoryKind.LEMNISCATE: 0.33}
_ZERO = (0.0, 0.0, 0.0)

# Range rules: within them every sample a run can reach (t up to 10**7 s,
# its most rows at 1 Hz) has components below 1e25, so squaring them
# cannot overflow.
MAX_OFFSET = 1e7      # |p0| per axis (m)
MAX_RADIUS = 1e6      # m
MAX_OMEGA = 1e3       # rad/s^2 (circle) or rad/s (figure-eight)
MAX_SPEED = 1e4       # |speed_cap| (m/s)


class TrajectoryDef(Frozen):
    """Reference definition.

    ``r`` and ``omega`` default per kind: 15 m and 0.06 rad/s^2 on the
    circle, whose ``omega`` is the phase's angular acceleration up to the
    speed cap, and 20 m and 0.33 rad/s on the figure-eight, whose
    ``omega`` is the phase rate.  ``speed_cap`` bounds the circle's
    accelerating phase and sets the line speed; ``psi_fallback`` seeds
    the flatness yaw policy and doubles as the line heading.  ``p0`` is
    kept as a float 3-tuple.
    ``terms`` (derived, read-only) holds what a sample computes that does
    not depend on ``t``, each term by the operations :func:`sample`
    would apply, in their order: the circle's switch time, phase rate
    after it and phase at it, the figure-eight's six coefficients of
    velocity, acceleration and jerk, and the line's velocity; ``()`` in
    hover.
    """

    _fields = ("kind", "p0", "r", "omega", "speed_cap", "psi_fallback")
    __slots__ = _fields + ("terms",)

    def __init__(self, kind=TrajectoryKind.CIRCLE, p0=None, r=None,
                 omega=None, speed_cap=10.0, psi_fallback=None):
        if not isinstance(kind, TrajectoryKind):
            raise ConfigError(f"trajectory.kind must be a TrajectoryKind, "
                              f"got {kind!r}")
        p0 = _ZERO if p0 is None else float3("trajectory.p0", p0)
        if r is None:
            r = _DEFAULT_RADIUS.get(kind, 0.0)
        if omega is None:
            omega = _DEFAULT_OMEGA.get(kind, 0.0)
        if psi_fallback is None:
            planar = kind in (TrajectoryKind.CIRCLE, TrajectoryKind.LEMNISCATE)
            psi_fallback = 0.5 * math.pi if planar else 0.0
        r, omega, speed_cap, psi_fallback = map(
            finite, ("trajectory.radius", "trajectory.omega",
                     "trajectory.speed_cap", "trajectory.psi"),
            (r, omega, speed_cap, psi_fallback))
        for key, value, low, high in (
                *((f"p0.{axis}", x, -MAX_OFFSET, MAX_OFFSET)
                  for axis, x in zip("xyz", p0)),
                ("radius", r, 0.0, MAX_RADIUS),
                ("omega", omega, 0.0, MAX_OMEGA),
                ("speed_cap", speed_cap, -MAX_SPEED, MAX_SPEED)):
            if not low <= value <= high:
                raise ConfigError(
                    f"trajectory.{key} must be in [{low:g}, {high:g}]")
        if kind is TrajectoryKind.CIRCLE and speed_cap <= 0.0:
            raise ConfigError(
                "trajectory.speed_cap must be > 0 for the circle")
        self._set(kind, p0, r, omega, speed_cap, psi_fallback,
                  _terms(kind, r, omega, speed_cap, psi_fallback))

    def switch_time(self):
        """Circle accelerate-to-constant switch instant ``cap/(r*omega)``;
        infinity for other kinds."""
        return (self.terms[0] if self.kind is TrajectoryKind.CIRCLE
                else math.inf)

    def peak_speed(self):
        """Largest speed the reference reaches over any run, in closed
        form: the circle's cap (0 when ``r*omega == 0``),
        ``r*omega*sqrt(1.25)`` for the figure-eight (at half a lap),
        ``|speed_cap|`` on the line and 0 in hover."""
        kind = self.kind
        if kind is TrajectoryKind.CIRCLE:
            return self.speed_cap if self.r * self.omega != 0.0 else 0.0
        if kind is TrajectoryKind.LEMNISCATE:
            return self.r * self.omega * math.sqrt(1.25)
        if kind is TrajectoryKind.LINE:
            return abs(self.speed_cap)
        return 0.0


def _terms(kind, r, omega, speed_cap, psi):
    """A reference's terms that do not depend on ``t``, for
    ``TrajectoryDef.terms``."""
    if kind is TrajectoryKind.CIRCLE:
        if r * omega == 0.0:  # the speed cap is never reached
            return math.inf, 0.0, 0.0
        t_switch = speed_cap / (r * omega)
        return (t_switch, speed_cap / r,
                0.5 * omega * t_switch * t_switch)
    if kind is TrajectoryKind.LEMNISCATE:
        return (0.5 * r * omega, r * omega, 0.25 * r * omega * omega,
                -r * omega * omega, -0.125 * r * omega ** 3, -r * omega ** 3)
    if kind is TrajectoryKind.LINE:
        return speed_cap * math.cos(psi), speed_cap * math.sin(psi), 0.0
    return ()


def sample(traj, t):
    """Flat reference at time ``t >= 0``; derivatives are exact."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    kind = traj.kind
    x, y, z = traj.p0
    if kind is TrajectoryKind.HOVER:
        return FlatSample(traj.p0, _ZERO, _ZERO, _ZERO, traj.psi_fallback)
    if kind is TrajectoryKind.LINE:
        vx, vy, _ = velocity = traj.terms
        return FlatSample((x + t * vx, y + t * vy, z), velocity, _ZERO,
                          _ZERO, traj.psi_fallback)
    if kind is TrajectoryKind.CIRCLE:
        # the phase angle and its first three time derivatives:
        # theta = 0.5*omega*t^2 while accelerating, linear in t after the
        # speed cap is reached (position and velocity are continuous there)
        t_switch, rate, theta_switch = traj.terms
        if t <= t_switch:
            omega = traj.omega
            theta, d1, d2, d3 = 0.5 * omega * t * t, omega * t, omega, 0.0
        else:
            theta = theta_switch + rate * (t - t_switch)
            d1, d2, d3 = rate, 0.0, 0.0
        s, c = math.sin(theta), math.cos(theta)
        r = traj.r
        # multiples of the tangent (s, c, 0) and the inward normal (c, -s, 0)
        speed, tangential, centripetal = r * d1, r * d2, r * d1 * d1
        j_along, j_inward, j_turn = r * d3, 3.0 * r * d1 * d2, r * d1 ** 3
        return FlatSample(
            (x + r * (1.0 - c), y + r * s, z),
            (speed * s, speed * c, 0.0),
            (tangential * s + centripetal * c,
             tangential * c - centripetal * s, 0.0),
            (j_along * s + j_inward * c - j_turn * s,
             j_along * c - j_inward * s - j_turn * c, 0.0),
            traj.psi_fallback)
    # figure-eight: x sweeps at half the phase rate of y
    u, r = traj.omega * t, traj.r
    v_x, v_y, a_x, a_y, j_x, j_y = traj.terms
    sh, ch = math.sin(0.5 * u), math.cos(0.5 * u)
    s, c = math.sin(u), math.cos(u)
    return FlatSample(
        (x + r * (1.0 - ch), y + r * s, z),
        (v_x * sh, v_y * c, 0.0),
        (a_x * ch, a_y * s, 0.0),
        (j_x * sh, j_y * c, 0.0),
        traj.psi_fallback)
