"""Differential-flatness transform for the lifting-wing airframe.

Given a position reference and its first three derivatives (plus a yaw
fallback), recover the attitude, collective thrust, angle of attack and
body angular velocity that realize it under the wing's aerodynamic model.

The construction runs in the wind frame.  The airspeed direction fixes
the wind x-axis; projecting the specific-force demand ``a - g`` onto that
axis and its complement gives the along-path and cross-path acceleration
components; a closed-form solution of the in-plane force balance yields
thrust (always <= 0, pulling along -z_b) and angle of attack; the body
y-axis is the normal of the plane spanned by the airspeed and the
demanded force; the body x-axis is the wind axis rotated about y_b by
``alpha - kappa``.  Body rates come from a 3x3 linear system obtained by
differentiating the translational force balance and the no-sideslip
condition.

Two singular regimes are handled by policy instead of failing:

* near-zero airspeed (hover, with hysteresis on the speed threshold) --
  the lateral axis is built from the last good airspeed direction when a
  context is supplied, else from the yaw fallback;
* airspeed aligned with the demanded force (e.g. vertical flight) -- the
  lateral axis comes from the yaw fallback.

In both regimes the feedforward body rate is zero and the output is
flagged through :class:`SingularCase`.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .aero import GRAVITY, GRAVITY_VEC, drag_matrix
from .geom import rodrigues

# Hysteresis band for the zero-velocity branch: enter below the first
# speed, return to the smooth construction above the second.
SPEED_SINGULAR_ENTER = 0.3
SPEED_SINGULAR_EXIT = 0.5
# Relative tolerance on |x_w x plane| below which the lateral axis is
# considered undefined.
CROSS_ALIGN_TOL = 1e-6
# Relative tolerance on the body-rate system determinant.
DET_TOL = 1e-9

_TINY = 1e-9
_EX = np.array([1.0, 0.0, 0.0])
_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


class DegenerateBalanceError(ArithmeticError):
    """The in-plane force balance normalizer vanished (thrust-free
    equilibrium); thrust and angle of attack are indeterminate."""


class SingularSystemError(ArithmeticError):
    """The body-rate linear system is singular at this flight condition."""


class SingularCase(IntEnum):
    """Which singular policy, if any, produced a flatness output."""

    NONE = 0
    ZERO_VELOCITY = 1
    AXIS_ALIGNED = 2


@dataclass
class FlatSample:
    """One point of a flat reference: position and derivatives, plus the
    yaw angle used only when the trajectory does not define a heading."""

    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray
    psi: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.j = np.asarray(self.j, dtype=float)


@dataclass
class FlatnessOutput:
    """Feedforward references produced by :func:`flatness_transform`.

    ``thrust`` is the collective body-z force (N, <= 0), ``omega`` the
    body angular velocity (rad/s), ``wind_axis`` the unit airspeed
    direction actually used (the held or fallback axis in the
    zero-velocity branch), and ``accel_along`` / ``accel_perp`` the
    specific-force components along and across it (``accel_perp <= 0``).
    """

    rotation: np.ndarray
    thrust: float
    alpha: float
    omega: np.ndarray
    wind_axis: np.ndarray
    accel_along: float
    accel_perp: float
    singular: SingularCase


@dataclass
class TransformContext:
    """Mutable per-trajectory state: last good airspeed direction and the
    hysteresis flag for the zero-velocity branch.  Use one context per
    reference stream; it is not safe to share across threads."""

    held_axis: np.ndarray | None = None
    in_singular: bool = False


def wind_frame_accels(axis, accel):
    """Specific-force components along and across the airspeed direction.

    Returns ``(along, perp)`` with ``along = axis . (a - g)`` and
    ``perp = -|（I - axis axis^T)(a - g)| <= 0``; the cross-path component
    is negative because the lift-plus-thrust resultant points up (-z in
    the wind frame) in ordinary flight.
    """
    demand = accel - GRAVITY_VEC
    along = float(axis @ demand)
    perp = -float(np.linalg.norm(demand - along * axis))
    return along, perp


def thrust_and_alpha(params, airspeed, accel_along, accel_perp):
    """Closed-form collective thrust and angle of attack.

    Solves the in-plane force balance (thrust tilted ``alpha - kappa``
    from the wind z-axis plus quadratic drag/lift equals the mass-scaled
    specific force) for ``(thrust, alpha)`` with ``thrust <= 0``.  Raises
    :class:`DegenerateBalanceError` when the normalizer vanishes, which
    happens exactly when aerodynamic forces alone meet the demand.
    """
    q_s = 0.5 * params.rho * params.area * airspeed * airspeed
    lift_gain = params.cla * q_s
    k_along = params.cd0 * q_s + params.mass * accel_along
    k_perp = params.mass * accel_perp
    ck = math.cos(params.kappa)
    sk = math.sin(params.kappa)
    # k1*sin(alpha) and k1*cos(alpha) up to a common sign
    sin_num = -(k_along * ck + k_perp * sk)
    cos_num = (k_along + lift_gain) * sk - k_perp * ck
    k1 = math.hypot(sin_num, cos_num)
    scale = params.mass * GRAVITY + abs(k_along) + abs(k_perp) + lift_gain
    if k1 <= 1e-12 * scale:
        raise DegenerateBalanceError(
            "force balance normalizer vanished (thrust-free equilibrium)")
    s = k_along * (k_along + lift_gain) + k_perp * k_perp
    thrust = -abs(s) / k1
    # half-angle form of the two-argument arctangent keeps the branch
    # consistent with thrust <= 0; s < 0 flips the in-plane direction
    sign = 1.0 if s >= 0.0 else -1.0
    alpha = 2.0 * math.atan2(k1 - sign * cos_num, sign * sin_num)
    if alpha > math.pi:
        alpha -= 2.0 * math.pi
    return thrust, alpha


def symmetry_plane_vector(params, v_air, accel):
    """Vector the wing symmetry plane must contain (the body y-axis is its
    normal together with the airspeed direction)."""
    qa = params.rho * params.area * np.linalg.norm(v_air) / (2.0 * params.mass)
    return qa * params.cy0 * v_air - GRAVITY_VEC + accel


def angular_velocity_from_flat(params, sample, rotation, thrust, wind=None):
    """Body angular velocity consistent with the flat reference.

    Assembles and solves the 3x3 linear system obtained from the body
    x/y projections of the differentiated force balance together with
    the differentiated no-sideslip condition
    ``w_x*v_z - w_z*v_x = -g_y`` (body-frame airspeed components, body-y
    gravity component).  Raises :class:`SingularSystemError` when the
    system determinant vanishes relative to the matrix scale.
    """
    v_air = sample.v if wind is None else sample.v - wind
    airspeed = np.linalg.norm(v_air)
    if airspeed < _TINY:
        raise SingularSystemError("zero airspeed")
    d = drag_matrix(params)
    qa = params.rho * params.area * airspeed / (2.0 * params.mass)
    cz = thrust / params.mass
    vb = rotation.T @ v_air
    ab = rotation.T @ sample.a
    jb = rotation.T @ sample.j
    # d|v_a|/dt / |v_a|, from the airspeed magnitude derivative
    speed_rate = float(v_air @ sample.a) / (airspeed * airspeed)
    a_mat = np.array([
        [qa * d.cdxz * vb[1],
         cz - qa * (2.0 * d.cdxz * vb[0] + (d.cdz - d.cdx) * vb[2]),
         -qa * (d.cdx - d.cy0) * vb[1]],
        [-cz + qa * (d.cdxz * vb[0] + (d.cdz - d.cy0) * vb[2]),
         0.0,
         -qa * ((d.cdx - d.cy0) * vb[0] + d.cdxz * vb[2])],
        [vb[2], 0.0, -vb[0]],
    ])
    rhs = np.array([
        jb[0] + qa * speed_rate * (d.cdx * vb[0] + d.cdxz * vb[2])
        + qa * (d.cdx * ab[0] + d.cdxz * ab[2]),
        jb[1] + qa * speed_rate * d.cy0 * vb[1] + qa * d.cy0 * ab[1],
        -GRAVITY * rotation[2, 1],
    ])
    scale = np.linalg.norm(a_mat)
    if scale < _TINY or abs(np.linalg.det(a_mat)) < DET_TOL * scale ** 3:
        raise SingularSystemError("body-rate system is singular")
    return np.linalg.solve(a_mat, rhs)


def flatness_transform(params, sample, ctx=None, wind=None):
    """Full flat-reference to feedforward mapping; total function.

    Singularities are resolved by policy (see the module docstring) and
    flagged in the output.  ``ctx`` carries the hysteresis state and the
    last good airspeed direction between calls; omit it for a stateless
    per-sample transform.
    """
    v_air = sample.v if wind is None else sample.v - wind
    speed = np.linalg.norm(v_air)
    threshold = SPEED_SINGULAR_EXIT if (ctx is not None and ctx.in_singular) \
        else SPEED_SINGULAR_ENTER
    if speed < threshold:
        if ctx is not None:
            ctx.in_singular = True
        return _zero_velocity_output(params, sample, v_air, ctx)
    axis = v_air / speed
    if ctx is not None:
        ctx.in_singular = False
        ctx.held_axis = axis.copy()
    along, perp = wind_frame_accels(axis, sample.a)
    try:
        thrust, alpha = thrust_and_alpha(params, speed, along, perp)
    except DegenerateBalanceError:
        # aerodynamics alone meet the demand: no thrust, chord on the path
        thrust, alpha = 0.0, params.kappa
    plane = symmetry_plane_vector(params, v_air, sample.a)
    cross = np.cross(axis, plane)
    cross_norm = np.linalg.norm(cross)
    if cross_norm < CROSS_ALIGN_TOL * max(np.linalg.norm(plane), _TINY):
        return _axis_aligned_output(
            params, sample, axis, along, perp, thrust, alpha, plane, wind)
    rotation, omega = _smooth_attitude(
        params, sample, axis, cross / cross_norm, thrust, alpha, wind)
    return FlatnessOutput(rotation, thrust, alpha, omega, axis,
                          along, perp, SingularCase.NONE)


def _smooth_attitude(params, sample, axis, y_body, thrust, alpha, wind):
    """Smooth-branch rotation and body rate: the body x-axis is ``axis``
    rotated about the lateral axis ``y_body`` by ``alpha - kappa``."""
    x_body = rodrigues(y_body, alpha - params.kappa) @ axis
    rotation = np.column_stack((x_body, y_body, np.cross(x_body, y_body)))
    try:
        omega = angular_velocity_from_flat(params, sample, rotation, thrust, wind)
    except SingularSystemError:
        omega = np.zeros(3)
    return rotation, omega


def _lateral_from_candidates(candidates, plane):
    """First candidate axis not parallel to ``plane``, as a unit lateral
    axis (candidate x plane, normalized)."""
    plane_norm = np.linalg.norm(plane)
    for cand in candidates:
        cross = np.cross(cand, plane)
        cross_norm = np.linalg.norm(cross)
        if cross_norm > CROSS_ALIGN_TOL * plane_norm:
            return cand, cross / cross_norm
    raise AssertionError("no usable lateral axis candidate")


def _zero_velocity_output(params, sample, v_air, ctx):
    """Hover-regime policy: attitude from the held or fallback axis, thrust
    from the projection of the specific-force demand."""
    plane = symmetry_plane_vector(params, v_air, sample.a)
    plane_norm = np.linalg.norm(plane)
    yaw_axis = np.array([math.cos(sample.psi), math.sin(sample.psi), 0.0])
    if plane_norm < _TINY:
        # free-fall reference at rest: yaw-only attitude, no thrust
        rotation = rodrigues(_EZ, sample.psi)
        return FlatnessOutput(rotation, 0.0, params.kappa, np.zeros(3),
                              yaw_axis, 0.0, 0.0, SingularCase.ZERO_VELOCITY)
    candidates = []
    if ctx is not None and ctx.held_axis is not None:
        candidates.append(ctx.held_axis)
    candidates.extend((yaw_axis, _EX, _EY))
    axis, y_body = _lateral_from_candidates(candidates, plane)
    x_body = np.cross(plane, y_body)
    x_body = x_body / np.linalg.norm(x_body)
    rotation = np.column_stack((x_body, y_body, np.cross(x_body, y_body)))
    thrust = min(0.0, params.mass * float(rotation[:, 2] @ (sample.a - GRAVITY_VEC)))
    along, perp = wind_frame_accels(axis, sample.a)
    return FlatnessOutput(rotation, thrust, params.kappa, np.zeros(3),
                          axis, along, perp, SingularCase.ZERO_VELOCITY)


def _axis_aligned_output(params, sample, axis, along, perp, thrust, alpha,
                         plane, wind):
    """Aligned-axis policy (e.g. vertical flight): lateral axis from the
    yaw fallback, then the smooth rotation about it."""
    plane_norm = np.linalg.norm(plane)
    plane_ref = plane if plane_norm >= _TINY else -GRAVITY_VEC
    yaw_axis = np.array([math.cos(sample.psi), math.sin(sample.psi), 0.0])
    _, y_body = _lateral_from_candidates((yaw_axis, _EX, _EY), plane_ref)
    # the airspeed axis is only numerically parallel to the plane vector;
    # project it off y_b so the rotation columns stay orthonormal
    axis_p = axis - float(axis @ y_body) * y_body
    axis_p = axis_p / np.linalg.norm(axis_p)
    rotation, omega = _smooth_attitude(
        params, sample, axis_p, y_body, thrust, alpha, wind)
    return FlatnessOutput(rotation, thrust, alpha, omega, axis,
                          along, perp, SingularCase.AXIS_ALIGNED)
