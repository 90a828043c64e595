"""Independent reference implementations that the tests compare the
package against; none of them runs in a simulation.

* the wing- and wind-frame forms of the aerodynamic force and their
  frame rotations, oracles for :func:`liftquad.aero.aero_accel`;
* the quaternion-to-matrix map and the inverse of the skew matrix;
* the numpy forms of :func:`liftquad.geom.mat_to_quat`, of the
  controller (:func:`controller_step` and its four loops and
  :func:`saturate`) and of the flatness transform
  (:func:`flatness_transform` and its helpers), which the package
  computes on Python floats, with the numpy kernels the transform
  calls (:func:`cross3`, :func:`norm`, :data:`EYE3`, :func:`skew`,
  :func:`rodrigues`); the transform reads a
  :class:`liftquad.flatness.FlatSample` of numpy arrays, and the
  attitude loop computes its own error (:func:`attitude_error`, a numpy
  Hamilton product and an ``atan2`` angle), an oracle for
  :func:`liftquad.geom.attitude_error`;
* a central-difference audit of the trajectories' analytic derivatives,
  and the references sampled from their formulas with every term
  computed at each call, an oracle for
  :func:`liftquad.trajectories.sample`, which derives the terms that do
  not depend on ``t`` once per ``TrajectoryDef``;
* the trace CSV formatted one value at a time, an oracle for
  :meth:`liftquad.harness.RunResult.write_csv`, and the numpy form of
  :attr:`liftquad.harness.RunResult.rmse`;
* the peak position error below a reference speed, which criterion 7
  reads, with the reference speed sampled again from the trajectory;
* the feasibility report read back from an open-loop trace's columns,
  an oracle for the one-pass :func:`liftquad.harness.feasibility_check`;
* gravity as a numpy vector, :data:`GRAVITY_VEC`;
* the float kernels written with the ``min`` and ``max`` builtins,
  :func:`mat_to_quat_minmax`, :func:`attitude_error_minmax` (with the
  general wrap of an angle to ``(-pi, pi]``) and :func:`saturate_minmax`,
  oracles, bit for bit, for the package's comparisons in their place.
"""

import math

import numpy as np

from liftquad.aero import GRAVITY, aero_accel
from liftquad.control import FREE_FALL_ACCEL, ControlInput, _clip
from liftquad.flatness import (_TINY, DET_TOL, HADAMARD_TOL,
                               SPEED_SINGULAR_ENTER, SPEED_SINGULAR_EXIT,
                               FlatnessOutput, SingularCase, TransformContext,
                               thrust_and_alpha)
from liftquad.geom import (CROSS_ALIGN_TOL, SMALL_ANGLE, UNIT_TOL,
                           NonOrthonormalError, lateral_axis)
from liftquad.harness import COLUMNS, CSV_COLUMNS, FeasibilityReport
from liftquad.trajectories import TrajectoryKind, sample

GRAVITY_VEC = np.array([0.0, 0.0, GRAVITY])  # NED: +z is down
GRAVITY_VEC.setflags(write=False)
EYE3 = np.identity(3)
EYE3.setflags(write=False)
_EZ = np.array([0.0, 0.0, 1.0])


class NonUnitAxisError(ValueError):
    """Rotation axis is not unit length."""


def cross3(a, b):
    """Cross product of two 3-vectors; bit for bit ``numpy.cross(a, b)``,
    which computes each component as the same two products and one
    difference."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def norm(x):
    """2-norm of a float64 vector, or Frobenius norm of a matrix, as a
    numpy float64; bit for bit ``numpy.linalg.norm(x)``, which takes the
    square root of the same dot product of the flattened array."""
    x = x.ravel(order="K")
    return np.float64(math.sqrt(x.dot(x)))


def skew(v):
    """Skew-symmetric matrix of ``v``: ``skew(v) @ w == cross3(v, w)``."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def rodrigues(axis, angle):
    """Matrix of the right-handed rotation by ``angle`` about unit ``axis``.

    Raises :class:`NonUnitAxisError` if ``axis`` deviates from unit length
    by more than ``UNIT_TOL``.
    """
    axis = np.asarray(axis, dtype=float)
    n = norm(axis)
    if abs(n - 1.0) > UNIT_TOL:
        raise NonUnitAxisError(
            f"axis norm {n:.9g} is not 1 within {UNIT_TOL:g}")
    c = math.cos(angle)
    s = math.sin(angle)
    return c * EYE3 + (1.0 - c) * np.outer(axis, axis) + s * skew(axis)


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
    """Inverse of :func:`skew` for an antisymmetric 3x3 matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def csv_text(table):
    """The trace CSV of a result ``table``: the header, then each row,
    every value formatted on its own to 17 significant digits."""
    lines = [CSV_COLUMNS]
    for row in table:
        lines.append(",".join(f"{x:.17g}" for x in row.tolist()))
    return "".join(line + "\n" for line in lines)


def rmse(p_ref, p):
    """Root-mean-square Euclidean position error over two ``(n, 3)``
    series, the numpy form of :attr:`liftquad.harness.RunResult.rmse`: numpy's
    pairwise mean of the squared errors where the package rounds their
    sum once."""
    diff = np.asarray(p_ref, dtype=float) - np.asarray(p, dtype=float)
    return float(np.sqrt(np.mean(np.sum(diff ** 2, axis=1))))


def peak_error_below(result, trajectory, speed_below):
    """Largest position error of ``result`` over the rows whose reference
    speed is still below ``speed_below`` (0.0 when there is none).

    The trace holds no reference velocity, so each row's is sampled
    again from ``trajectory`` at the row's time, which the trace stores
    exactly as the run computed it."""
    peak = 0.0
    for row in result.table.tolist():
        x, y, z = sample(trajectory, row[COLUMNS["t"]]).v
        if math.sqrt(x * x + y * y + z * z) < speed_below:
            (px, py, pz), (rx, ry, rz) = (row[COLUMNS["p"]],
                                          row[COLUMNS["p_ref"]])
            dx, dy, dz = rx - px, ry - py, rz - pz
            peak = max(peak, math.sqrt(dx * dx + dy * dy + dz * dz))
    return peak


def feasibility_from_trace(cfg, trace):
    """The feasibility report of ``cfg`` read back from the columns of
    its :func:`liftquad.harness.feedforward_trace` ``trace``, with the
    built-in ``min`` and ``max`` over each column in row order."""
    thrust, alpha = trace.thrust.tolist(), trace.alpha.tolist()
    return FeasibilityReport(
        thrust_peak=min(thrust),
        thrust_min=cfg.limits.thrust_min(cfg.model),
        omega_peak=max(map(abs, trace.omega.ravel().tolist())),
        omega_max=cfg.limits.omega_max,
        singular_ticks=trace.n_rows - trace.singular.tolist().count(0.0),
        total_ticks=trace.n_rows,
        alpha_range=(min(alpha), max(alpha)),
    )


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
        minus, exact, plus = map(np.asarray, (minus, exact, plus))
        diff = (plus - minus) / (2.0 * h)
        err = norm(diff - exact) / max(norm(exact), 1.0)
        worst = max(worst, err)
    return worst


def sample_by_formula(traj, t):
    """The flat reference of ``traj`` at ``t >= 0`` as a tuple ``(p, v,
    a, j, psi)``, every term computed from ``traj``'s fields at this
    call, in the order of operations :func:`liftquad.trajectories.sample`
    keeps, so the two agree bit for bit."""
    kind, (x, y, z), psi = traj.kind, traj.p0, traj.psi_fallback
    zero = (0.0, 0.0, 0.0)
    if kind is TrajectoryKind.HOVER:
        return traj.p0, zero, zero, zero, psi
    if kind is TrajectoryKind.LINE:
        cap = traj.speed_cap
        vx, vy = cap * math.cos(psi), cap * math.sin(psi)
        return (x + t * vx, y + t * vy, z), (vx, vy, 0.0), zero, zero, psi
    r, w = traj.r, traj.omega
    if kind is TrajectoryKind.CIRCLE:
        t_switch = (math.inf if r * w == 0.0
                    else traj.speed_cap / (r * w))
        if t <= t_switch:
            theta, d1, d2, d3 = 0.5 * w * t * t, w * t, w, 0.0
        else:
            rate = traj.speed_cap / r
            theta = 0.5 * w * t_switch * t_switch + rate * (t - t_switch)
            d1, d2, d3 = rate, 0.0, 0.0
        s, c = math.sin(theta), math.cos(theta)
        speed, tangential, centripetal = r * d1, r * d2, r * d1 * d1
        j_along, j_inward, j_turn = r * d3, 3.0 * r * d1 * d2, r * d1 ** 3
        return ((x + r * (1.0 - c), y + r * s, z),
                (speed * s, speed * c, 0.0),
                (tangential * s + centripetal * c,
                 tangential * c - centripetal * s, 0.0),
                (j_along * s + j_inward * c - j_turn * s,
                 j_along * c - j_inward * s - j_turn * c, 0.0), psi)
    u = w * t
    sh, ch = math.sin(0.5 * u), math.cos(0.5 * u)
    s, c = math.sin(u), math.cos(u)
    return ((x + r * (1.0 - ch), y + r * s, z),
            (0.5 * r * w * sh, r * w * c, 0.0),
            (0.25 * r * w * w * ch, -r * w * w * s, 0.0),
            (-0.125 * r * w ** 3 * sh, -r * w ** 3 * c, 0.0), psi)


def mat_to_quat(rotation):
    """Quaternion of a rotation matrix, canonical sign (w >= 0).

    Raises :class:`NonOrthonormalError` when ``rotation`` is not orthonormal
    within ``UNIT_TOL`` (Frobenius residual of R^T R - I) or has negative
    determinant, and any matrix with a NaN entry.
    """
    r = np.asarray(rotation, dtype=float)
    residual = norm(r.T @ r - EYE3)
    if not (residual <= UNIT_TOL and np.linalg.det(r) > 0.0):
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
    return np.asarray(gains.kpp) * (p_ref - p) + v_ref


def velocity_loop(gains, integrate, v_d, v, a_ref, integrator, dt):
    """Acceleration demand from velocity error.

    Returns ``(a_d, integrator')``.  The integrator stores the gain-scaled
    integral term directly, accumulates ``kvi * error * dt`` per call and
    is clamped per axis; it is passed through unchanged unless
    ``integrate`` is true.
    """
    error = v_d - v
    if integrate:
        limit = gains.integrator_limit
        step = np.asarray(gains.kvi) * error * dt
        integrator = np.clip(integrator + step, -limit, limit)
    return np.asarray(gains.kvp) * error + integrator + a_ref, integrator


def accel_to_attitude_thrust(params, gains, a_d, flat):
    """Desired attitude and collective thrust from an acceleration demand.

    The aerodynamic feedforward of ``params`` (+-0.0 on the wingless
    model), at the reference attitude (``flat.rotation``) and airspeed
    (``flat.airspeed``) and attenuated by ``kff``, is removed from the
    demand with gravity; what remains must come from the rotors.  Returns
    ``(rotation, thrust, free_fall)``; in the free-fall case the
    rotation is the reference attitude and the thrust is zero.
    """
    a_ff = aero_accel(params, flat.rotation, flat.airspeed)
    a_rotor = a_d - GRAVITY_VEC - np.asarray(gains.kff) * a_ff
    rotor_norm = norm(a_rotor)
    if rotor_norm < FREE_FALL_ACCEL:
        return flat.rotation, 0.0, True
    force = a_rotor / rotor_norm
    _, y_body = lateral_axis(force, (flat.wind_axis, flat.rotation[:, 0]),
                             CROSS_ALIGN_TOL)
    z_body = -force
    x_body = cross3(y_body, z_body)
    rotation = np.column_stack((x_body, y_body, z_body))
    thrust = params.mass * float(z_body @ a_rotor)
    return rotation, min(thrust, 0.0), False


def attitude_error(q, q_d):
    """The rotation vector that turns the attitude ``q`` onto ``q_d`` the
    short way round: the error quaternion ``conj(q) q_d``, negated if
    its scalar part ``w`` is negative, turns by ``2 atan2(|v|, w)`` about
    its vector part ``v``."""
    w, v = q[0], -np.asarray(q[1:], dtype=float)
    dw, dv = q_d[0], np.asarray(q_d[1:], dtype=float)
    # the Hamilton product (w, v) (dw, dv)
    err_w, err_v = w * dw - v @ dv, w * dv + dw * v + cross3(v, dv)
    if err_w < 0.0:
        err_w, err_v = -err_w, -err_v
    turn = norm(err_v)
    if turn == 0.0:
        return np.zeros(3)
    return 2.0 * math.atan2(turn, err_w) / turn * err_v


def attitude_loop(gains, rate_ff, q_d, q_current, omega_ref):
    """Body-rate command from the attitude error.

    The error is the rotation vector that turns the current attitude
    ``q_current`` onto the desired one ``q_d`` the short way round
    (:func:`attitude_error`); it is scaled by ``ktp`` and the flatness
    body rate is added if ``rate_ff`` is true.
    """
    omega = np.asarray(gains.ktp) * attitude_error(q_current, q_d)
    if rate_ff:
        omega = omega + omega_ref
    return omega


def saturate(thrust_min, omega_max, thrust, omega):
    """Clip the thrust to ``[thrust_min, 0]`` and each body-rate axis to
    ``[-omega_max, omega_max]``; idempotent."""
    return ControlInput(
        float(np.clip(thrust, thrust_min, 0.0)),
        np.clip(omega, -omega_max, omega_max))


def controller_step(params, gains, rate_ff, limits, sample, flat, state, ctx,
                    dt):
    """One controller tick of ``dt`` seconds; chains the four loops and
    saturates.

    ``params`` is the model the run believes, in whose weights
    ``limits`` counts the thrust floor, ``rate_ff`` whether the
    flatness body rate is added to the command, ``sample`` the flat
    reference point, ``flat`` the matching flatness feedforward, ``state``
    the measured ``(p, v, q)`` as numpy arrays, ``ctx`` the per-vehicle
    context (mutated; in free fall it holds its desired attitude, if it
    has one).  Deterministic given its arguments.
    """
    p, v, q = state
    v_d = position_loop(gains, sample.p, p, sample.v)
    a_d, ctx.integrator = velocity_loop(
        gains, not ctx.thrust_saturated, v_d, v, sample.a, ctx.integrator, dt)
    rotation_d, thrust_d, free_fall = accel_to_attitude_thrust(
        params, gains, a_d, flat)
    if not free_fall or ctx.held_quat is None:
        ctx.held_quat = mat_to_quat(rotation_d)
    omega_d = attitude_loop(gains, rate_ff, ctx.held_quat, q, flat.omega)
    thrust_min = limits.thrust_min(params)
    command = saturate(thrust_min, limits.omega_max, thrust_d, omega_d)
    ctx.thrust_saturated = bool(thrust_d < thrust_min)
    return command


def wind_frame_accels(axis, accel):
    """Specific-force components along and across the airspeed direction.

    Returns ``(along, perp)`` with ``along = axis . (a - g)`` and
    ``perp = -|（I - axis axis^T)(a - g)| <= 0``; the cross-path component
    is negative because the lift-plus-thrust resultant points up (-z in
    the wind frame) in ordinary flight.
    """
    demand = accel - GRAVITY_VEC
    along = float(axis @ demand)
    perp = -float(norm(demand - along * axis))
    return along, perp


def symmetry_plane_vector(params, v_air, accel):
    """Vector the wing symmetry plane must contain (the body y-axis is its
    normal together with the airspeed direction)."""
    qa = params.rho * params.area * norm(v_air) / (2.0 * params.mass)
    return qa * params.cy0 * v_air - GRAVITY_VEC + accel


def body_rate_system(params, sample, rotation, thrust, v_air):
    """The 3x3 body-rate system ``a_mat @ omega = rhs`` that
    :func:`angular_velocity_from_flat` solves, as ``(a_mat, rhs, det)``;
    the airspeed ``v_air`` must not vanish."""
    airspeed = norm(v_air)
    (cdx, _, cdxz), (_, cy0, _), (_, _, cdz) = params.drag
    qa = params.rho * params.area * airspeed / (2.0 * params.mass)
    cz = thrust / params.mass
    vb = rotation.T @ v_air
    ab = rotation.T @ sample.a
    jb = rotation.T @ sample.j
    # d|v_a|/dt / |v_a|, from the airspeed magnitude derivative
    speed_rate = float(v_air @ sample.a) / (airspeed * airspeed)
    a01 = cz - qa * (2.0 * cdxz * vb[0] + (cdz - cdx) * vb[2])
    a10 = -cz + qa * (cdxz * vb[0] + (cdz - cy0) * vb[2])
    a12 = -qa * ((cdx - cy0) * vb[0] + cdxz * vb[2])
    a_mat = np.array([
        [qa * cdxz * vb[1], a01, -qa * (cdx - cy0) * vb[1]],
        [a10, 0.0, a12],
        [vb[2], 0.0, -vb[0]],
    ])
    rhs = np.array([
        jb[0] + qa * speed_rate * (cdx * vb[0] + cdxz * vb[2])
        + qa * (cdx * ab[0] + cdxz * ab[2]),
        jb[1] + qa * speed_rate * cy0 * vb[1] + qa * cy0 * ab[1],
        -GRAVITY * rotation[2, 1],
    ])
    # expanded along the middle column: no pivot to divide by
    det = a01 * (a10 * vb[0] + a12 * vb[2])
    return a_mat, rhs, det


def angular_velocity_from_flat(params, sample, rotation, thrust, v_air):
    """Body angular velocity consistent with the flat reference.

    Assembles and solves the 3x3 linear system obtained from the body
    x/y projections of the differentiated force balance together with
    the differentiated no-sideslip condition
    ``w_x*v_z - w_z*v_x = -g_y`` (body-frame airspeed components, body-y
    gravity component).  Returns ``None`` at zero airspeed and when the
    system determinant vanishes relative to the matrix scale or to the
    product of its row norms.
    """
    if norm(v_air) < _TINY:
        return None
    a_mat, rhs, det = body_rate_system(params, sample, rotation, thrust,
                                       v_air)
    scale = norm(a_mat)
    rows = norm(a_mat[0]) * norm(a_mat[1]) * norm(a_mat[2])
    if (scale < _TINY or abs(det) < DET_TOL * scale ** 3
            or abs(det) < HADAMARD_TOL * rows):
        return None
    return np.linalg.solve(a_mat, rhs)


def flatness_transform(params, sample, ctx=None):
    """Full flat-reference to feedforward mapping; total on its domain.

    The domain is every sample whose ``p``, ``v``, ``a``, ``j`` and
    ``psi`` are finite; outside it the call raises ``ValueError`` naming
    the first non-finite field, before it reads or changes ``ctx``.
    Inside it, singularities are resolved by policy (see the module
    docstring) and flagged in the output; arithmetic that overflows (a
    speed near 1e154, say) raises ``FloatingPointError`` under the
    strict error state the harness runs it in.  ``ctx`` carries the
    hysteresis state and the last good airspeed direction between calls;
    omitted, a fresh context makes the call a stateless per-sample
    transform.  The wind of ``params`` enters only through the airspeed.
    """
    for name in ("p", "v", "a", "j"):
        if not all(map(math.isfinite, getattr(sample, name).tolist())):
            raise ValueError(f"flat sample field {name} is not finite")
    if not math.isfinite(sample.psi):
        raise ValueError("flat sample field psi is not finite")
    if ctx is None:
        ctx = TransformContext()
    v_air = sample.v - np.array(params.wind)
    speed = norm(v_air)
    threshold = SPEED_SINGULAR_EXIT if ctx.in_singular else SPEED_SINGULAR_ENTER
    if speed < threshold:
        ctx.in_singular = True
        return _zero_velocity_output(params, sample, v_air, ctx.held_axis)
    axis = v_air / speed
    ctx.in_singular = False
    ctx.held_axis = axis.copy()
    along, perp = wind_frame_accels(axis, sample.a)
    # None: aerodynamics alone meet the demand; no thrust, chord on the path
    thrust, alpha = (thrust_and_alpha(params, speed, along, perp)
                     or (0.0, params.kappa))
    plane = symmetry_plane_vector(params, v_air, sample.a)
    plane_norm = norm(plane)
    cross = cross3(axis, plane)
    cross_norm = norm(cross)
    x_wind, singular = axis, SingularCase.NONE
    if cross_norm < CROSS_ALIGN_TOL * max(plane_norm, _TINY):
        # aligned-axis policy (e.g. vertical flight): lateral axis from
        # the yaw fallback, led by the airspeed axis, which only
        # qualifies in free fall in motion
        plane_ref = plane if plane_norm >= _TINY else -GRAVITY_VEC
        yaw_axis = np.array([math.cos(sample.psi), math.sin(sample.psi), 0.0])
        _, y_body = lateral_axis(plane_ref, (axis, yaw_axis),
                                 CROSS_ALIGN_TOL * norm(plane_ref))
        y_body = np.array(y_body)
        # the airspeed axis is only numerically parallel to the plane
        # vector; project it off y_b so the rotation stays orthonormal
        x_wind = axis - float(axis @ y_body) * y_body
        x_wind = x_wind / norm(x_wind)
        singular = SingularCase.AXIS_ALIGNED
    else:
        y_body = cross / cross_norm
    # the body x-axis is the wind x-axis rotated about y_b by alpha - kappa
    x_body = rodrigues(y_body, alpha - params.kappa) @ x_wind
    rotation = np.column_stack((x_body, y_body, cross3(x_body, y_body)))
    omega = angular_velocity_from_flat(params, sample, rotation, thrust, v_air)
    if omega is None:
        omega = np.zeros(3)
    return FlatnessOutput(rotation, thrust, alpha, omega, v_air, axis, singular)


def _zero_velocity_output(params, sample, v_air, held_axis):
    """Hover-regime policy: attitude from the held (when there is one) or
    fallback axis, thrust from the projection of the specific-force
    demand."""
    plane = symmetry_plane_vector(params, v_air, sample.a)
    plane_norm = norm(plane)
    yaw_axis = np.array([math.cos(sample.psi), math.sin(sample.psi), 0.0])
    if plane_norm < _TINY:
        # free-fall reference at rest: yaw-only attitude, no thrust
        rotation = rodrigues(_EZ, sample.psi)
        return FlatnessOutput(rotation, 0.0, params.kappa, np.zeros(3), v_air,
                              yaw_axis, SingularCase.ZERO_VELOCITY)
    headings = (yaw_axis,) if held_axis is None else (held_axis, yaw_axis)
    axis, y_body = lateral_axis(plane, headings, CROSS_ALIGN_TOL * plane_norm)
    axis, y_body = np.asarray(axis, dtype=float), np.array(y_body)
    x_body = cross3(plane, y_body)
    x_body = x_body / norm(x_body)
    rotation = np.column_stack((x_body, y_body, cross3(x_body, y_body)))
    thrust = min(0.0, params.mass * float(rotation[:, 2] @ (sample.a - GRAVITY_VEC)))
    return FlatnessOutput(rotation, thrust, params.kappa, np.zeros(3), v_air,
                          axis, SingularCase.ZERO_VELOCITY)


def mat_to_quat_minmax(rotation):
    """:func:`liftquad.geom.mat_to_quat` with its branch tests and
    clamps as the ``max`` builtin calls."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    d00 = r00 * r00 + r10 * r10 + r20 * r20 - 1.0
    d11 = r01 * r01 + r11 * r11 + r21 * r21 - 1.0
    d22 = r02 * r02 + r12 * r12 + r22 * r22 - 1.0
    d01 = r00 * r01 + r10 * r11 + r20 * r21
    d02 = r00 * r02 + r10 * r12 + r20 * r22
    d12 = r01 * r02 + r11 * r12 + r21 * r22
    residual = math.sqrt(d00 * d00 + d11 * d11 + d22 * d22
                         + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12))
    det = (r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20)
           + r02 * (r10 * r21 - r11 * r20))
    if not (residual <= UNIT_TOL and det > 0.0):
        raise NonOrthonormalError(f"orthonormality residual {residual:.3g} "
                                  f"exceeds {UNIT_TOL:g} or det <= 0")
    t = r00 + r11 + r22
    if t >= max(r00, r11, r22):
        w = 0.5 * math.sqrt(max(0.0, 1.0 + t))
        f = 0.25 / w
        x, y, z = f * (r21 - r12), f * (r02 - r20), f * (r10 - r01)
    elif r00 >= max(r11, r22):
        x = 0.5 * math.sqrt(max(0.0, 1.0 + r00 - r11 - r22))
        f = 0.25 / x
        w, y, z = f * (r21 - r12), f * (r01 + r10), f * (r02 + r20)
    elif r11 >= r22:
        y = 0.5 * math.sqrt(max(0.0, 1.0 + r11 - r00 - r22))
        f = 0.25 / y
        w, x, z = f * (r02 - r20), f * (r01 + r10), f * (r12 + r21)
    else:
        z = 0.5 * math.sqrt(max(0.0, 1.0 + r22 - r00 - r11))
        f = 0.25 / z
        w, x, y = f * (r10 - r01), f * (r02 + r20), f * (r12 + r21)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        n = -n
    return (w / n, x / n, y / n, z / n)


def attitude_error_minmax(q, q_d):
    """:func:`liftquad.geom.attitude_error` with its clamp as the ``min``
    and ``max`` builtin calls, and its angle wrapped to ``(-pi, pi]``
    from any angle, not only from ``[0, 2 pi]``."""
    w, x, y, z = q
    dw, dx, dy, dz = q_d
    ew = w * dw + x * dx + y * dy + z * dz
    ex = w * dx - x * dw - y * dz + z * dy
    ey = w * dy + x * dz - y * dw - z * dx
    ez = w * dz - x * dy + y * dx - z * dw
    n = math.sqrt(ew * ew + ex * ex + ey * ey + ez * ez)
    c = min(1.0, max(-1.0, ew / n))
    angle = 2.0 * math.acos(c) % math.tau
    if angle > math.pi:
        angle -= math.tau
    sign = 1.0 if c >= 0.0 else -1.0
    if abs(angle) < SMALL_ANGLE:
        scale = 2.0 + angle * angle / 12.0
    else:
        scale = angle / math.sin(0.5 * angle)
    k = sign * scale
    return (k * (ex / n), k * (ey / n), k * (ez / n))


def saturate_minmax(thrust_min, omega_max, thrust, omega):
    """:func:`liftquad.control.saturate` with its thrust clamp as the
    ``min`` and ``max`` builtin calls."""
    return ControlInput(min(max(thrust, thrust_min), 0.0),
                        _clip(omega, omega_max))
