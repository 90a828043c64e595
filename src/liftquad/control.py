"""Cascaded tracking controller with flatness feedforward.

Position error feeds a velocity command, velocity error (plus an
optional clamped integral) feeds an acceleration demand, the demand is
turned into a desired attitude and collective thrust, and a
proportional attitude loop produces the body-rate command with the
flatness body rate added as feedforward.

The attitude step removes gravity and an attenuated model-based
aerodynamic acceleration (at the feedforward's attitude and airspeed,
the only place the wind estimate enters) from the demand; what remains
must come from the rotors.  :func:`liftquad.geom.thrust_attitude`, the
one kernel the feedforward at rest uses too, sets the desired body
z-axis against it and projects it on that axis for the thrust, clamped
by the kernel's one rule; below ``FREE_FALL_ACCEL``, the one free-fall
floor, it is free fall.  The lateral axis is completed from the
reference airspeed direction, which encodes the no-sideslip heading.

All functions are pure given an explicit :class:`ControllerContext`;
use one context per vehicle.

The tick runs on Python floats, in :mod:`liftquad.geom`'s conventions,
and makes no numpy call.  Float arithmetic does not raise on overflow,
so the step checks each value that a later clamp, branch or saturation
could hide: the velocity integral before its clamp, the demand's norm
before the free-fall and lateral-axis branches and the command before
saturation.  The numpy form of the controller is the test oracle in
``tests/oracles.py``.
"""

import math
from typing import NamedTuple

from .aero import GRAVITY, aero_accel
from .geom import (FREE_FALL_ACCEL, attitude_error, mat_to_quat,
                   overflow_error, thrust_attitude)
from .record import ConfigError, Frozen, Record, finite, float3

_GAINS = ("kpp", "kvp", "kvi", "kff", "ktp")
_LAYER = "the controller"


def _axis_vector(name, value):
    """Gain ``name`` as a float 3-tuple of entries >= 0, given as in
    :class:`ControlGains`."""
    try:
        iter(value)
    except TypeError:   # not a sequence: a scalar, or numpy's 0-d array
        if hasattr(value, "item"):  # numpy's: the Python scalar it holds
            value = value.item()
        value = (value,) * 3
    vec = float3(f"gains.{name}", value)
    for axis, k in zip("xyz", vec):
        if k < 0.0:
            raise ConfigError(f"gains.{name}.{axis} must be >= 0, got {k}")
    return vec


class ControlGains(Frozen):
    """Per-axis diagonal gains of the cascade, each a float 3-tuple.

    ``kpp``: position to velocity (1/s); ``kvp``: velocity to
    acceleration (1/s); ``kvi``: velocity integral (1/s^2); ``kff``:
    aerodynamic-feedforward attenuation, entries in [0, 1]; ``ktp``:
    attitude to body rate (1/s).  A gain is given as a scalar, which
    broadcasts to all three axes, or as any three numbers.
    ``integrator_limit`` clamps the integral term per axis (m/s^2).
    """

    __slots__ = _fields = (*_GAINS, "integrator_limit")

    def __init__(self, kpp=1.0, kvp=3.0, kvi=0.6, kff=0.8, ktp=8.0,
                 integrator_limit=3.0):
        gains = [_axis_vector(name, value)
                 for name, value in zip(_GAINS, (kpp, kvp, kvi, kff, ktp))]
        for axis, k in zip("xyz", gains[3]):
            if k > 1.0:
                raise ConfigError(f"gains.kff.{axis} must be <= 1, got {k}")
        integrator_limit = finite("gains.integrator_limit", integrator_limit)
        if integrator_limit < 0.0:
            raise ConfigError("gains.integrator_limit must be >= 0")
        self._set(*gains, integrator_limit)


class ControlLimits(Frozen):
    """Actuator saturation bounds: the collective thrust floor, counted
    in weights of the model a run believes (``thrust_factor`` >= 0), and
    a per-axis body-rate bound (rad/s)."""

    __slots__ = _fields = ("thrust_factor", "omega_max")

    def __init__(self, thrust_factor=4.0, omega_max=6.0):
        thrust_factor = finite("limits.thrust_factor", thrust_factor)
        omega_max = finite("limits.omega_max", omega_max)
        if thrust_factor < 0.0:
            raise ConfigError("limits.thrust_factor must be >= 0")
        if omega_max <= 0.0:
            raise ConfigError("limits.omega_max must be > 0")
        self._set(thrust_factor, omega_max)

    def thrust_min(self, params):
        """The thrust floor (N, <= 0) of the airframe ``params``:
        ``thrust_factor`` times its weight."""
        return -self.thrust_factor * params.mass * GRAVITY

    def bounds(self, params):
        """The ``(thrust_min(params), omega_max)`` a run saturates to."""
        return self.thrust_min(params), self.omega_max


class ControlInput(NamedTuple):
    """Saturated actuator command: collective thrust (N, <= 0) and body
    angular velocity (rad/s) as a float 3-tuple, the form the plant
    reads."""

    thrust: float
    omega: tuple


class ControllerContext(Record):
    """Mutable per-vehicle controller state.

    ``integrator`` is the clamped integral acceleration term (m/s^2) as
    a 3-tuple; ``thrust_saturated`` freezes the integrator for one step
    after the thrust command hit its floor; ``held_quat`` is the last
    desired attitude as a quaternion 4-tuple, held through free fall and
    exposed for logging.
    """

    __slots__ = _fields = ("integrator", "thrust_saturated", "held_quat")

    def __init__(self, integrator=(0.0, 0.0, 0.0), thrust_saturated=False,
                 held_quat=None):
        self.integrator, self.thrust_saturated, self.held_quat = (
            integrator, thrust_saturated, held_quat)


def _clip(v, bound):
    """Each component of the 3-vector ``v`` clipped to ``[-bound, bound]``,
    as a 3-tuple; written as comparisons, which cost half of what the
    ``min`` and ``max`` builtins do here."""
    x, y, z = v
    low = -bound
    return (bound if x > bound else low if x < low else x,
            bound if y > bound else low if y < low else y,
            bound if z > bound else low if z < low else z)


def position_loop(gains, p_ref, p, v_ref):
    """Velocity command from position error plus reference velocity."""
    (kx, ky, kz), (rx, ry, rz), (px, py, pz) = gains.kpp, p_ref, p
    vx, vy, vz = v_ref
    return (kx * (rx - px) + vx, ky * (ry - py) + vy, kz * (rz - pz) + vz)


def velocity_loop(gains, integrate, v_d, v, a_ref, integrator, dt):
    """Acceleration demand from velocity error.

    Returns ``(a_d, integrator')``.  The integrator stores the gain-scaled
    integral term directly, accumulates ``kvi * error * dt`` per call and
    is clamped per axis; it is passed through unchanged unless
    ``integrate`` is true.  A step of the integral that overflows raises
    ``FloatingPointError`` rather than reaching the clamp.
    """
    (dx, dy, dz), (vx, vy, vz) = v_d, v
    ex, ey, ez = dx - vx, dy - vy, dz - vz
    if integrate:
        (kx, ky, kz), (ix, iy, iz) = gains.kvi, integrator
        ix, iy, iz = ix + kx * ex * dt, iy + ky * ey * dt, iz + kz * ez * dt
        if not (math.isfinite(ix) and math.isfinite(iy)
                and math.isfinite(iz)):
            raise overflow_error(_LAYER)
        integrator = _clip((ix, iy, iz), gains.integrator_limit)
    (kx, ky, kz), (ix, iy, iz), (ax, ay, az) = gains.kvp, integrator, a_ref
    a_d = (kx * ex + ix + ax, ky * ey + iy + ay, kz * ez + iz + az)
    return a_d, integrator


def accel_to_attitude_thrust(params, gains, a_d, flat):
    """Desired attitude and collective thrust from an acceleration demand.

    The aerodynamic feedforward of ``params`` (+-0.0 on the wingless
    model), at the reference attitude (``flat.rotation``) and airspeed
    (``flat.airspeed``) and attenuated by ``kff``, is removed from the
    demand with gravity; what remains must come from the rotors.  Returns
    ``(rotation, thrust, free_fall)``, the rotation as three rows; in
    the free-fall case the rotation is the reference attitude and the
    thrust is zero.  A demand whose norm is not finite raises
    ``FloatingPointError`` before either case is chosen.
    """
    (ax, ay, az), rotation_ff = a_d, flat.rotation
    (kx, ky, kz), (fx, fy, fz) = gains.kff, aero_accel(
        params, rotation_ff, flat.airspeed)
    rx, ry, rz = rotor = (ax - kx * fx, ay - ky * fy, az - GRAVITY - kz * fz)
    rotor_norm = math.sqrt(rx * rx + ry * ry + rz * rz)
    if not math.isfinite(rotor_norm):
        raise overflow_error(_LAYER)
    if rotor_norm < FREE_FALL_ACCEL:
        return rotation_ff, 0.0, True
    (hx, _, _), (hy, _, _), (hz, _, _) = rotation_ff
    _, rotation, thrust = thrust_attitude(
        rotor, rotor_norm, (flat.wind_axis, (hx, hy, hz)), params.mass, rotor)
    return rotation, thrust, False


def attitude_loop(gains, rate_ff, q_d, q_current, omega_ref):
    """Body-rate command from the attitude error.

    The error is the rotation vector that turns the current attitude
    ``q_current`` onto the desired one ``q_d`` the short way round
    (:func:`liftquad.geom.attitude_error`); it is scaled by ``ktp`` and
    the flatness body rate is added if ``rate_ff`` is true.  Antipodal
    quaternion representations give the same command up to rounding.
    """
    (kx, ky, kz), (ex, ey, ez) = gains.ktp, attitude_error(q_current, q_d)
    if not rate_ff:
        return (kx * ex, ky * ey, kz * ez)
    wx, wy, wz = omega_ref
    return (kx * ex + wx, ky * ey + wy, kz * ez + wz)


def saturate(thrust_min, omega_max, thrust, omega):
    """Clip the thrust to ``[thrust_min, 0]`` and each body-rate axis to
    ``[-omega_max, omega_max]``; idempotent."""
    # clamped to [thrust_min, 0] by comparisons, half the cost of max and
    # min, in their order: a NaN passes, and -0.0 stays -0.0
    thrust = thrust_min if thrust_min > thrust else thrust
    # ControlInput without its NamedTuple __new__, a Python function that
    # costs more than the tuple
    return tuple.__new__(ControlInput, (0.0 if 0.0 < thrust else thrust,
                                        _clip(omega, omega_max)))


def controller_step(params, gains, rate_ff, bounds, sample, flat, state, ctx,
                    dt):
    """One controller tick of ``dt`` seconds (``1/sim.rate`` in a run);
    chains the four loops and saturates.

    ``params`` is the model the run believes (``cfg.model``), ``bounds``
    the limits' ``(thrust_min, omega_max)`` for it, ``rate_ff`` whether
    the flatness body rate is added to the command, ``sample`` the flat
    reference point, ``flat`` the matching flatness feedforward,
    ``state`` the measured ``(p, v, q)`` (any 3-, 3- and 4-sequences, in
    :mod:`liftquad.geom`'s conventions), ``ctx`` the per-vehicle context
    (mutated; in free fall it holds its desired attitude, if it has
    one).  The velocity integral runs on every tick but the one after
    the thrust hit its floor; a PD controller is ``gains.kvi = 0``, whose
    integral stays at +0.0.  Deterministic given its arguments.
    Raises ``FloatingPointError`` when the integral step, the demand or
    the unsaturated command is not finite.
    """
    p, v, q = state
    v_d = position_loop(gains, sample.p, p, sample.v)
    a_d, ctx.integrator = velocity_loop(
        gains, not ctx.thrust_saturated, v_d, v, sample.a, ctx.integrator, dt)
    rotation_d, thrust_d, free_fall = accel_to_attitude_thrust(
        params, gains, a_d, flat)
    if not free_fall or ctx.held_quat is None:
        ctx.held_quat = mat_to_quat(rotation_d)
    omega_d = wx, wy, wz = attitude_loop(gains, rate_ff, ctx.held_quat, q,
                                         flat.omega)
    if not (math.isfinite(thrust_d) and math.isfinite(wx)
            and math.isfinite(wy) and math.isfinite(wz)):
        raise overflow_error(_LAYER)
    thrust_min, omega_max = bounds
    command = saturate(thrust_min, omega_max, thrust_d, omega_d)
    ctx.thrust_saturated = bool(thrust_d < thrust_min)
    return command
