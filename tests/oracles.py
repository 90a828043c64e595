"""Independent reference implementations that the tests compare the
package against; none of them runs in a simulation.

* the wing- and wind-frame forms of the aerodynamic force and their
  frame rotations, oracles for :func:`liftquad.aero.aero_accel`;
* the quaternion-to-matrix map and the inverse of the skew matrix;
* the numpy forms of :func:`liftquad.geom.mat_to_quat` and of the
  controller (:func:`controller_step` and its four loops and
  :func:`saturate`), which the package computes on Python floats;
* a central-difference audit of the trajectories' analytic derivatives.
"""

import math
from dataclasses import replace

import numpy as np

from liftquad.aero import GRAVITY_VEC, aero_accel
from liftquad.control import (_CROSS_TOL, FREE_FALL_ACCEL, ControlInput)
from liftquad.geom import (EYE3, UNIT_TOL, NonOrthonormalError, cross3,
                           lateral_axis, norm, quat_conj, quat_mul,
                           quat_to_axis_angle)
from liftquad.trajectories import sample


def body_to_wing_rotation(kappa):
    """Coordinate transform from body axes to wing axes.

    Equals the transpose of a right-handed rotation by ``kappa`` about
    +y, i.e. ``rodrigues(e_y, kappa).T``.
    """
    c = math.cos(kappa)
    s = math.sin(kappa)
    return np.array([
        [c, 0.0, -s],
        [0.0, 1.0, 0.0],
        [s, 0.0, c],
    ])


def wing_to_wind_rotation(alpha):
    """Coordinate transform from wing axes to wind axes at angle of attack
    ``alpha``."""
    c = math.cos(alpha)
    s = math.sin(alpha)
    return np.array([
        [c, 0.0, s],
        [0.0, 1.0, 0.0],
        [-s, 0.0, c],
    ])


def aero_force_wind(params, airspeed, alpha):
    """Drag/side/lift magnitudes along the wind axes.

    Returns the parametric model ``qbar*S * [cd0 + cla*sin^2(a), 0,
    cla*sin(a)*cos(a)]``; the force acting on the airframe is the negative
    of this vector.
    """
    q_s = 0.5 * params.rho * params.area * airspeed * airspeed
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    return q_s * np.array([
        params.cd0 + params.cla * sa * sa,
        0.0,
        params.cla * sa * ca,
    ])


def aero_force_wing(params, rotation, airspeed_vec):
    """Force acting on the airframe, expressed in wing axes.

    ``rotation`` is the body-to-earth attitude; ``airspeed_vec`` is the
    earth-frame airspeed.  This form needs no angle of attack: the lift
    and drag fall out of the per-axis coefficients applied to the
    wing-frame airspeed components.
    """
    v_wing = body_to_wing_rotation(params.kappa) @ (rotation.T @ airspeed_vec)
    coeffs = np.array([params.cd0, params.cy0, params.cd0 + params.cla])
    speed = norm(airspeed_vec)
    return -0.5 * params.rho * params.area * speed * coeffs * v_wing


def quat_to_mat(q):
    """Rotation matrix of a unit quaternion [w, x, y, z]."""
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def unskew(m):
    """Inverse of :func:`liftquad.geom.skew` for an antisymmetric 3x3
    matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def derivative_check(traj, t, h):
    """Central-difference audit of the analytic derivatives.

    Compares ``(p(t+h)-p(t-h))/2h`` with v, and likewise v against a and
    a against j, at step ``h > 0``; returns the largest error relative
    to ``max(1, |exact|)``.  Keep ``t - h >= 0``.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    lo, mid, hi = sample(traj, t - h), sample(traj, t), sample(traj, t + h)
    worst = 0.0
    for minus, exact, plus in ((lo.p, mid.v, hi.p), (lo.v, mid.a, hi.v),
                               (lo.a, mid.j, hi.a)):
        diff = (plus - minus) / (2.0 * h)
        err = norm(diff - exact) / max(norm(exact), 1.0)
        worst = max(worst, err)
    return worst


def mat_to_quat(rotation):
    """Quaternion of a rotation matrix, canonical sign (w >= 0).

    Raises :class:`NonOrthonormalError` when ``rotation`` is not orthonormal
    within ``UNIT_TOL`` (Frobenius residual of R^T R - I) or has negative
    determinant.
    """
    r = np.asarray(rotation, dtype=float)
    residual = norm(r.T @ r - EYE3)
    if residual > UNIT_TOL or np.linalg.det(r) <= 0.0:
        raise NonOrthonormalError(f"orthonormality residual {residual:.3g} "
                                  f"exceeds {UNIT_TOL:g} or det <= 0")
    # Shepperd's method: branch on the largest diagonal combination to keep
    # the divisor well away from zero.
    t = np.trace(r)
    if t >= max(r[0, 0], r[1, 1], r[2, 2]):
        w = 0.5 * math.sqrt(max(0.0, 1.0 + t))
        f = 0.25 / w
        q = np.array([w,
                      f * (r[2, 1] - r[1, 2]),
                      f * (r[0, 2] - r[2, 0]),
                      f * (r[1, 0] - r[0, 1])])
    elif r[0, 0] >= max(r[1, 1], r[2, 2]):
        x = 0.5 * math.sqrt(max(0.0, 1.0 + r[0, 0] - r[1, 1] - r[2, 2]))
        f = 0.25 / x
        q = np.array([f * (r[2, 1] - r[1, 2]),
                      x,
                      f * (r[0, 1] + r[1, 0]),
                      f * (r[0, 2] + r[2, 0])])
    elif r[1, 1] >= r[2, 2]:
        y = 0.5 * math.sqrt(max(0.0, 1.0 + r[1, 1] - r[0, 0] - r[2, 2]))
        f = 0.25 / y
        q = np.array([f * (r[0, 2] - r[2, 0]),
                      f * (r[0, 1] + r[1, 0]),
                      y,
                      f * (r[1, 2] + r[2, 1])])
    else:
        z = 0.5 * math.sqrt(max(0.0, 1.0 + r[2, 2] - r[0, 0] - r[1, 1]))
        f = 0.25 / z
        q = np.array([f * (r[1, 0] - r[0, 1]),
                      f * (r[0, 2] + r[2, 0]),
                      f * (r[1, 2] + r[2, 1]),
                      z])
    q = q / norm(q)
    if q[0] < 0.0:
        q = -q
    return q


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
