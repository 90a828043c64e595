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
  the lateral axis is built from the last good airspeed direction the
  context holds, else from the yaw fallback;
* airspeed aligned with the demanded force (e.g. vertical flight) -- the
  lateral axis comes from the yaw fallback.

In both regimes the feedforward body rate is zero and the output is
flagged through :class:`SingularCase`.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .aero import GRAVITY, GRAVITY_VEC
from .geom import cross3, lateral_axis, norm, rodrigues

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
_EZ = np.array([0.0, 0.0, 1.0])
_NO_WIND = np.zeros(3)
_NO_WIND.setflags(write=False)


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
    body angular velocity (rad/s), ``airspeed`` the ``v - wind`` it ran
    at and ``wind_axis`` the unit airspeed direction actually used (the
    held or fallback axis in the zero-velocity branch).
    """

    rotation: np.ndarray
    thrust: float
    alpha: float
    omega: np.ndarray
    airspeed: np.ndarray
    wind_axis: np.ndarray
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
    perp = -float(norm(demand - along * axis))
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
    qa = params.rho * params.area * norm(v_air) / (2.0 * params.mass)
    return qa * params.cy0 * v_air - GRAVITY_VEC + accel


def angular_velocity_from_flat(params, sample, rotation, thrust, v_air):
    """Body angular velocity consistent with the flat reference.

    Assembles and solves the 3x3 linear system obtained from the body
    x/y projections of the differentiated force balance together with
    the differentiated no-sideslip condition
    ``w_x*v_z - w_z*v_x = -g_y`` (body-frame airspeed components, body-y
    gravity component).  Raises :class:`SingularSystemError` when the
    system determinant vanishes relative to the matrix scale.
    """
    airspeed = norm(v_air)
    if airspeed < _TINY:
        raise SingularSystemError("zero airspeed")
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
    scale = norm(a_mat)
    # expanded along the middle column: no pivot to divide by
    det = a01 * (a10 * vb[0] + a12 * vb[2])
    if scale < _TINY or abs(det) < DET_TOL * scale ** 3:
        raise SingularSystemError("body-rate system is singular")
    return np.linalg.solve(a_mat, rhs)


def flatness_transform(params, sample, ctx=None, wind=None):
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
    transform.  The estimated ``wind`` (none when omitted) enters only
    here.
    """
    for name in ("p", "v", "a", "j"):
        if not all(map(math.isfinite, getattr(sample, name).tolist())):
            raise ValueError(f"flat sample field {name} is not finite")
    if not math.isfinite(sample.psi):
        raise ValueError("flat sample field psi is not finite")
    if ctx is None:
        ctx = TransformContext()
    v_air = sample.v - (_NO_WIND if wind is None else wind)
    speed = norm(v_air)
    threshold = SPEED_SINGULAR_EXIT if ctx.in_singular else SPEED_SINGULAR_ENTER
    if speed < threshold:
        ctx.in_singular = True
        return _zero_velocity_output(params, sample, v_air, ctx.held_axis)
    axis = v_air / speed
    ctx.in_singular = False
    ctx.held_axis = axis.copy()
    along, perp = wind_frame_accels(axis, sample.a)
    try:
        thrust, alpha = thrust_and_alpha(params, speed, along, perp)
    except DegenerateBalanceError:
        # aerodynamics alone meet the demand: no thrust, chord on the path
        thrust, alpha = 0.0, params.kappa
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
    try:
        omega = angular_velocity_from_flat(params, sample, rotation, thrust, v_air)
    except SingularSystemError:
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

