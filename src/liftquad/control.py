"""Cascaded tracking controller with flatness feedforward.

Position error feeds a velocity command, velocity error (plus an
optional clamped integral) feeds an acceleration demand, the demand is
turned into a desired attitude and collective thrust, and a
proportional attitude loop produces the body-rate command with the
flatness body rate added as feedforward.

The attitude step removes gravity and an attenuated model-based
aerodynamic acceleration (at the feedforward's attitude and airspeed,
the only place the wind estimate enters) from the demand; what remains
must come from the rotors, so the desired body z-axis opposes it and
the thrust is its projection on that axis.  The lateral axis is
completed from the reference airspeed direction, which encodes the
no-sideslip heading.

All functions are pure given an explicit :class:`ControllerContext`;
use one context per vehicle.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .aero import GRAVITY, GRAVITY_VEC, AeroParams, aero_accel
from .geom import (cross3, lateral_axis, mat_to_quat, norm, quat_conj,
                   quat_mul, quat_to_axis_angle)

# Acceleration-demand norm below which the thrust direction is
# undefined and the free-fall policy (hold attitude, zero thrust) is
# used instead.
FREE_FALL_ACCEL = 1e-6
THRUST_FLOOR_FACTOR = 4.0  # default thrust floor, in airframe weights
# Rejection threshold for lateral-axis candidates nearly parallel to
# the desired thrust axis.
_CROSS_TOL = 1e-6


def _axis_vector(value):
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return np.full(3, float(value))
    return value


@dataclass(frozen=True)
class ControlGains:
    """Per-axis diagonal gains of the cascade.

    ``kpp``: position to velocity (1/s); ``kvp``: velocity to
    acceleration (1/s); ``kvi``: velocity integral (1/s^2); ``kff``:
    aerodynamic-feedforward attenuation, entries in [0, 1]; ``ktp``:
    attitude to body rate (1/s).  Scalars broadcast to all three axes.
    ``integrator_limit`` clamps the integral term per axis (m/s^2).
    """

    kpp: np.ndarray = field(default_factory=lambda: np.full(3, 1.0))
    kvp: np.ndarray = field(default_factory=lambda: np.full(3, 3.0))
    kvi: np.ndarray = field(default_factory=lambda: np.full(3, 0.6))
    kff: np.ndarray = field(default_factory=lambda: np.full(3, 0.8))
    ktp: np.ndarray = field(default_factory=lambda: np.full(3, 8.0))
    integrator_limit: float = 3.0

    def __post_init__(self):
        for name in ("kpp", "kvp", "kvi", "kff", "ktp"):
            vec = _axis_vector(getattr(self, name))
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a scalar or 3-vector")
            if np.any(vec < 0.0):
                raise ValueError(f"{name} entries must be >= 0, got {vec}")
            object.__setattr__(self, name, vec)
        if np.any(self.kff > 1.0):
            raise ValueError(f"kff entries must be <= 1, got {self.kff}")
        if self.integrator_limit < 0.0:
            raise ValueError("integrator_limit must be >= 0")


@dataclass(frozen=True)
class ControlMode:
    """Feature switches for the experiment conditions.

    ``use_integrator`` picks PID vs PD on velocity; ``use_aero_feedforward``
    enables the model-based aerodynamic compensation;
    ``use_rate_feedforward`` adds the flatness body rate to the command.
    ``printed_accel_projection`` switches to the alternate published
    normalization for comparison runs: the thrust projection uses the
    raw acceleration demand (gravity and feedforward not removed) and is
    scaled by its norm; off by default because it no longer returns
    exactly the weight in hover.
    """

    use_integrator: bool = True
    use_aero_feedforward: bool = True
    use_rate_feedforward: bool = True
    printed_accel_projection: bool = False


@dataclass(frozen=True)
class ControlLimits:
    """Actuator saturation bounds: collective thrust floor (N, <= 0; the
    default is four times the default airframe weight) and a per-axis
    body-rate bound (rad/s)."""

    thrust_min: float = -THRUST_FLOOR_FACTOR * AeroParams.mass * GRAVITY
    omega_max: float = 6.0

    def __post_init__(self):
        if self.thrust_min > 0.0:
            raise ValueError("thrust_min must be <= 0")
        if self.omega_max <= 0.0:
            raise ValueError("omega_max must be > 0")


@dataclass(frozen=True)
class ControlInput:
    """Saturated actuator command: collective thrust (N, <= 0) and body
    angular velocity (rad/s), a numpy array from the controller and a
    float 3-tuple on the plant's side of the harness."""

    thrust: float
    omega: np.ndarray


class Measurement(NamedTuple):
    """What the controller reads of the vehicle: earth-frame position
    and velocity (3-vectors; the plant's are float tuples) and the
    body-to-earth attitude as a unit quaternion."""

    p: np.ndarray
    v: np.ndarray
    q: np.ndarray


@dataclass
class ControllerContext:
    """Mutable per-vehicle controller state.

    ``integrator`` is the clamped integral acceleration term (m/s^2);
    ``thrust_saturated`` freezes the integrator for one step after the
    thrust command hit its floor; ``held_quat`` is the last desired
    attitude as a quaternion, held through free fall and exposed for
    logging.
    """

    integrator: np.ndarray = field(default_factory=lambda: np.zeros(3))
    thrust_saturated: bool = False
    held_quat: np.ndarray | None = None


def position_loop(gains, p_ref, p, v_ref):
    """Velocity command from position error plus reference velocity."""
    return gains.kpp * (p_ref - p) + v_ref


def velocity_loop(gains, mode, v_d, v, a_ref, integrator, dt):
    """Acceleration demand from velocity error.

    Returns ``(a_d, integrator')``.  The integrator stores the gain-scaled
    integral term directly, accumulates ``kvi * error * dt`` per call and
    is clamped per axis; it is passed through unchanged in PD mode.
    """
    error = v_d - v
    if mode.use_integrator:
        limit = gains.integrator_limit
        integrator = np.clip(integrator + gains.kvi * error * dt, -limit, limit)
    return gains.kvp * error + integrator + a_ref, integrator


def accel_to_attitude_thrust(params, gains, mode, a_d, flat):
    """Desired attitude and collective thrust from an acceleration demand.

    The aerodynamic feedforward is evaluated at the reference attitude
    (``flat.rotation``) and reference airspeed (``flat.airspeed``),
    attenuated by ``kff`` and removed from the demand together with
    gravity; what remains must come from the rotors.  Returns
    ``(rotation, thrust, free_fall)``; in the free-fall case the
    rotation is the reference attitude and the thrust is zero.
    """
    a_rotor = a_d - GRAVITY_VEC
    if mode.use_aero_feedforward:
        a_ff = aero_accel(params, flat.rotation, flat.airspeed)
        a_rotor = a_rotor - gains.kff * a_ff
    rotor_norm = norm(a_rotor)
    if rotor_norm < FREE_FALL_ACCEL or (mode.printed_accel_projection
                                        and norm(a_d) < FREE_FALL_ACCEL):
        return flat.rotation, 0.0, True
    force = a_rotor / rotor_norm
    _, y_body = lateral_axis(force, (flat.wind_axis, flat.rotation[:, 0]),
                             _CROSS_TOL)
    z_body = -force
    x_body = cross3(y_body, z_body)
    rotation = np.column_stack((x_body, y_body, z_body))
    if mode.printed_accel_projection:
        thrust = -params.mass * float(a_rotor @ a_d) / norm(a_d)
    else:
        thrust = params.mass * float(z_body @ a_rotor)
    return rotation, min(thrust, 0.0), False


def attitude_loop(gains, mode, q_d, q_current, omega_ref):
    """Body-rate command from the attitude error.

    The error quaternion rotates the current attitude ``q_current`` onto
    the desired one ``q_d``; its axis-angle vector is scaled by ``ktp``
    and the flatness body rate is added unless rate feedforward is off.
    Antipodal quaternion representations give the identical command.
    """
    q_err = quat_mul(quat_conj(q_current), q_d)
    xi = quat_to_axis_angle(q_err).vector
    omega = gains.ktp * xi
    if mode.use_rate_feedforward:
        omega = omega + omega_ref
    return omega


def saturate(limits, thrust, omega):
    """Clip the thrust to ``[thrust_min, 0]`` and each body-rate axis to
    ``[-omega_max, omega_max]``; idempotent."""
    return ControlInput(
        float(np.clip(thrust, limits.thrust_min, 0.0)),
        np.clip(omega, -limits.omega_max, limits.omega_max))


def controller_step(params, gains, mode, limits, sample, flat, state, ctx, dt):
    """One 250 Hz controller tick; chains the four loops and saturates.

    ``sample`` is the flat reference point, ``flat`` the matching
    flatness feedforward, ``state`` the :class:`Measurement` (anything
    with ``p``, ``v`` and ``q``), ``ctx`` the per-vehicle context
    (mutated; in free fall it holds its desired attitude, if it has one).
    Deterministic given its arguments.
    """
    v_d = position_loop(gains, sample.p, state.p, sample.v)
    freeze = replace(mode, use_integrator=False) if ctx.thrust_saturated else mode
    a_d, ctx.integrator = velocity_loop(
        gains, freeze, v_d, state.v, sample.a, ctx.integrator, dt)
    rotation_d, thrust_d, free_fall = accel_to_attitude_thrust(
        params, gains, mode, a_d, flat)
    if not free_fall or ctx.held_quat is None:
        ctx.held_quat = mat_to_quat(rotation_d)
    omega_d = attitude_loop(gains, mode, ctx.held_quat, state.q, flat.omega)
    command = saturate(limits, thrust_d, omega_d)
    ctx.thrust_saturated = bool(thrust_d < limits.thrust_min)
    return command
