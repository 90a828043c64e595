"""Analytic reference trajectories with exact derivatives through jerk.

All references are planar (constant altitude): a circle flown with a
uniformly accelerating phase angle until a speed cap and at constant
angular rate after it, a Gerono-style figure-eight, a hover point and a
constant-speed straight line.  Velocity, acceleration and jerk come
from symbolic differentiation of the position law, not finite
differences.  A sample is Python floats: its vectors are 3-tuples.
A kind is stated once: one row of ``_PER_KIND`` and one branch each of
``_terms``, for every constant, and of :func:`sample`, for what moves.
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


# One row per kind: the defaults of ``r``, ``omega`` and ``psi_fallback``,
# then the config keys the kind never reads.  ``omega`` is the circle's
# phase acceleration (rad/s^2) and the figure-eight's phase rate
# (rad/s); both planar kinds' yaw fallback is the initial flight heading
# (+y), so the standstill start hands off smoothly.
_PER_KIND = {
    TrajectoryKind.CIRCLE: (15.0, 0.06, 0.5 * math.pi, ()),
    TrajectoryKind.LEMNISCATE: (20.0, 0.33, 0.5 * math.pi,
                                ("trajectory.speed_cap",)),
    TrajectoryKind.HOVER: (0.0, 0.0, 0.0, ("trajectory.radius",
                                           "trajectory.omega",
                                           "trajectory.speed_cap")),
    TrajectoryKind.LINE: (0.0, 0.0, 0.0, ("trajectory.radius",
                                          "trajectory.omega")),
}
UNREAD_KEYS = {kind: row[3] for kind, row in _PER_KIND.items()}
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

    ``r``, ``omega`` and ``psi_fallback`` default per kind, by its row
    of ``_PER_KIND``.  ``omega`` is the circle's phase acceleration up to
    the speed cap and the figure-eight's phase rate; ``speed_cap`` bounds
    the circle's accelerating phase and sets the line speed;
    ``psi_fallback`` seeds the flatness yaw policy and doubles as the line
    heading.  ``p0`` is kept as a float 3-tuple.
    Derived, read-only, each in its kind's one branch of ``_terms``:
    ``switch_time``, the instant the circle reaches its speed cap
    (infinity for every other kind); ``peak_speed``, the largest speed
    the reference reaches over any run, in closed form; and ``terms``,
    what a sample computes that does not depend on ``t``, each term by
    the operations :func:`sample` would apply, in their order.  A
    hover's ``terms`` is its one sample, read-only, which :func:`sample`
    returns at every ``t``.
    """

    _fields = ("kind", "p0", "r", "omega", "speed_cap", "psi_fallback")
    __slots__ = _fields + ("switch_time", "peak_speed", "terms")

    def __init__(self, kind=TrajectoryKind.CIRCLE, p0=None, r=None,
                 omega=None, speed_cap=10.0, psi_fallback=None):
        if not isinstance(kind, TrajectoryKind):
            raise ConfigError(f"trajectory.kind must be a TrajectoryKind, "
                              f"got {kind!r}")
        p0 = _ZERO if p0 is None else float3("trajectory.p0", p0)
        default_r, default_omega, default_psi, _ = _PER_KIND[kind]
        r, omega, speed_cap, psi_fallback = map(
            finite, ("trajectory.radius", "trajectory.omega",
                     "trajectory.speed_cap", "trajectory.psi"),
            (default_r if r is None else r,
             default_omega if omega is None else omega, speed_cap,
             default_psi if psi_fallback is None else psi_fallback))
        for key, value, low, high in (
                *((f"p0.{axis}", x, -MAX_OFFSET, MAX_OFFSET)
                  for axis, x in zip("xyz", p0)),
                ("radius", r, 0.0, MAX_RADIUS),
                ("omega", omega, 0.0, MAX_OMEGA),
                ("speed_cap", speed_cap, -MAX_SPEED, MAX_SPEED)):
            if not low <= value <= high:
                raise ConfigError(
                    f"trajectory.{key} must be in [{low:g}, {high:g}]")
        self._set(kind, p0, r, omega, speed_cap, psi_fallback,
                  *_terms(kind, p0, r, omega, speed_cap, psi_fallback))


class _HeldSample(FlatSample):
    """A hover's one sample, which every caller shares: written once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{name!r}: a hover's sample is read-only")
        object.__setattr__(self, name, value)


def _terms(kind, p0, r, omega, speed_cap, psi):
    """``TrajectoryDef``'s derived ``(switch_time, peak_speed, terms)``:
    every constant of a reference, derived in its kind's one branch."""
    if kind is TrajectoryKind.CIRCLE:
        if speed_cap <= 0.0:
            raise ConfigError(
                "trajectory.speed_cap must be > 0 for the circle")
        if r * omega == 0.0:  # the speed cap is never reached
            return math.inf, 0.0, (0.0, 0.0)
        t_switch = speed_cap / (r * omega)
        return t_switch, speed_cap, (speed_cap / r,
                                     0.5 * omega * t_switch * t_switch)
    if kind is TrajectoryKind.LEMNISCATE:  # fastest at half a lap
        return math.inf, r * omega * math.sqrt(1.25), (
            0.5 * r * omega, r * omega, 0.25 * r * omega * omega,
            -r * omega * omega, -0.125 * r * omega ** 3, -r * omega ** 3)
    if kind is TrajectoryKind.LINE:
        return math.inf, abs(speed_cap), (
            speed_cap * math.cos(psi), speed_cap * math.sin(psi), 0.0)
    return math.inf, 0.0, _HeldSample(p0, _ZERO, _ZERO, _ZERO, psi)


def sample(traj, t):
    """Flat reference at time ``t >= 0``; derivatives are exact.  A
    hover's is ``traj.terms`` at every ``t``: one object that every
    caller shares, and which refuses assignment."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    kind = traj.kind
    if kind is TrajectoryKind.HOVER:
        return traj.terms
    x, y, z = traj.p0
    if kind is TrajectoryKind.LINE:
        vx, vy, _ = velocity = traj.terms
        return FlatSample((x + t * vx, y + t * vy, z), velocity, _ZERO,
                          _ZERO, traj.psi_fallback)
    if kind is TrajectoryKind.CIRCLE:
        # the phase angle and its first three time derivatives:
        # theta = 0.5*omega*t^2 while accelerating, linear in t after the
        # speed cap is reached.  Position and velocity are continuous
        # there; the tangential acceleration steps down by r*omega (0.9
        # m/s^2 at t = 11.111 s on the stock circle)
        t_switch, (rate, theta_switch) = traj.switch_time, traj.terms
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
