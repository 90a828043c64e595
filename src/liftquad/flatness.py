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

The transform computes on Python floats, in :mod:`liftquad.geom`'s
conventions.  Float arithmetic does not raise on overflow, so the
transform checks its output, and before that each value a branch or
clamp could hide (the airspeed, the force-balance normalizer, the
symmetry-plane norm, the body-rate system's scale, the hover thrust).
Its numpy form is the test oracle in ``tests/oracles.py``.
"""

import math
from enum import IntEnum

from .aero import GRAVITY
from .geom import CROSS_ALIGN_TOL, lateral_axis, overflow_error
from .record import Record

# Hysteresis band for the zero-velocity branch: enter below the first
# speed, return to the smooth construction above the second.
SPEED_SINGULAR_ENTER = 0.3
SPEED_SINGULAR_EXIT = 0.5
# Relative tolerance on the body-rate system determinant.
DET_TOL = 1e-9
# Bound on the body-rate system's Hadamard ratio, |det| over the product
# of its row norms, below which the system counts as singular.
HADAMARD_TOL = 1e-6

_TINY = 1e-9
_LAYER = "the flatness transform"
_ZERO = (0.0, 0.0, 0.0)
# the vertical (up), the lateral-axis reference of a free-fall demand
_UP = (0.0, 0.0, -GRAVITY)


class SingularCase(IntEnum):
    """Which singular policy, if any, produced a flatness output."""

    NONE = 0
    ZERO_VELOCITY = 1
    AXIS_ALIGNED = 2


class FlatSample(Record):
    """One point of a flat reference: position and derivatives as float
    3-tuples, plus the yaw angle used only when the trajectory does not
    define a heading."""

    __slots__ = _fields = ("p", "v", "a", "j", "psi")

    def __init__(self, p, v, a, j, psi=0.0):
        self.p = p
        self.v = v
        self.a = a
        self.j = j
        self.psi = psi


class FlatnessOutput(Record):
    """Feedforward references produced by :func:`flatness_transform`.

    ``rotation`` is the body-to-earth attitude as three row tuples,
    ``thrust`` the collective body-z force (N, <= 0), ``omega`` the
    body angular velocity (rad/s), ``airspeed`` the ``v - wind`` it ran
    at and ``wind_axis`` the unit airspeed direction actually used (the
    held or fallback axis in the zero-velocity branch), each a float
    3-tuple.
    """

    __slots__ = _fields = ("rotation", "thrust", "alpha", "omega",
                           "airspeed", "wind_axis", "singular")

    def __init__(self, rotation, thrust, alpha, omega, airspeed, wind_axis,
                 singular):
        self.rotation = rotation
        self.thrust = thrust
        self.alpha = alpha
        self.omega = omega
        self.airspeed = airspeed
        self.wind_axis = wind_axis
        self.singular = singular


class TransformContext(Record):
    """Mutable per-trajectory state: last good airspeed direction and the
    hysteresis flag for the zero-velocity branch.  Use one context per
    reference stream; it is not safe to share across threads."""

    __slots__ = _fields = ("held_axis", "in_singular")

    def __init__(self, held_axis=None, in_singular=False):
        self.held_axis, self.in_singular = held_axis, in_singular


def _frame(x, y):
    """The rotation, as three rows, whose columns are the body axes
    ``x``, ``y`` and ``x cross y``."""
    (xx, xy, xz), (yx, yy, yz) = x, y
    return ((xx, yx, xy * yz - xz * yy),
            (xy, yy, xz * yx - xx * yz),
            (xz, yz, xx * yy - xy * yx))


def wind_frame_accels(axis, accel):
    """Specific-force components along and across the airspeed direction.

    Returns ``(along, perp)`` with ``along = axis . (a - g)`` and
    ``perp = -|(I - axis axis^T)(a - g)| <= 0``; the cross-path component
    is negative because the lift-plus-thrust resultant points up (-z in
    the wind frame) in ordinary flight.
    """
    (ux, uy, uz), (dx, dy, dz) = axis, accel
    dz -= GRAVITY
    along = ux * dx + uy * dy + uz * dz
    px, py, pz = dx - along * ux, dy - along * uy, dz - along * uz
    return along, -math.sqrt(px * px + py * py + pz * pz)


def thrust_and_alpha(params, airspeed, accel_along, accel_perp):
    """Closed-form collective thrust and angle of attack.

    Solves the in-plane force balance (thrust tilted ``alpha - kappa``
    from the wind z-axis plus quadratic drag/lift equals the mass-scaled
    specific force) for ``(thrust, alpha)`` with ``thrust <= 0``.  Returns
    ``None`` when the normalizer vanishes, which happens exactly when
    aerodynamic forces alone meet the demand (thrust and angle of attack
    are then indeterminate), and raises ``FloatingPointError`` when the
    normalizer or its scale overflows.
    """
    q_s = params.half_rho_area * airspeed * airspeed
    lift_gain = params.cla * q_s
    k_along = params.cd0 * q_s + params.mass * accel_along
    k_perp = params.mass * accel_perp
    ck, sk = params.cos_kappa, params.sin_kappa
    # k1*sin(alpha) and k1*cos(alpha) up to a common sign
    sin_num = -(k_along * ck + k_perp * sk)
    cos_num = (k_along + lift_gain) * sk - k_perp * ck
    k1 = math.hypot(sin_num, cos_num)
    scale = params.mass * GRAVITY + abs(k_along) + abs(k_perp) + lift_gain
    if not (math.isfinite(k1) and math.isfinite(scale)):
        raise overflow_error(_LAYER)
    if k1 <= 1e-12 * scale:
        return None
    s = k_along * (k_along + lift_gain) + k_perp * k_perp
    thrust = -abs(s) / k1
    # half-angle form of the two-argument arctangent keeps the branch
    # consistent with thrust <= 0; s < 0 flips the in-plane direction
    sign = 1.0 if s >= 0.0 else -1.0
    alpha = 2.0 * math.atan2(k1 - sign * cos_num, sign * sin_num)
    if alpha > math.pi:
        alpha -= 2.0 * math.pi
    return thrust, alpha


def symmetry_plane_vector(params, v_air, accel, speed):
    """Vector the wing symmetry plane must contain (the body y-axis is its
    normal together with the airspeed direction), as a 3-tuple;
    ``speed`` is the airspeed's norm, ``|v_air|``."""
    (vx, vy, vz), (ax, ay, az) = v_air, accel
    k = params.rho_area * speed / params.twice_mass * params.cy0
    return (k * vx + ax, k * vy + ay, k * vz - GRAVITY + az)


def angular_velocity_from_flat(params, sample, rotation, thrust, v_air,
                               airspeed):
    """Body angular velocity consistent with the flat reference, as a
    3-tuple; ``airspeed`` is the norm of ``v_air``.

    Assembles and solves the 3x3 linear system obtained from the body
    x/y projections of the differentiated force balance together with
    the differentiated no-sideslip condition
    ``w_x*v_z - w_z*v_x = -g_y`` (body-frame airspeed components, body-y
    gravity component).  Returns ``None`` at zero airspeed and when the
    system determinant vanishes relative to the matrix scale or to the
    product of its row norms, and raises ``FloatingPointError`` when
    that scale overflows.
    """
    vx, vy, vz = v_air
    if airspeed < _TINY:
        return None
    (cdx, _, cdxz), (_, cy0, _), (_, _, cdz) = params.drag
    qa = params.rho_area * airspeed / params.twice_mass
    cz = thrust / params.mass
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    (ax, ay, az), (jx, jy, jz) = sample.a, sample.j
    # airspeed (u, v, w), acceleration and jerk in body axes, R^T x
    u = r00 * vx + r10 * vy + r20 * vz
    v = r01 * vx + r11 * vy + r21 * vz
    w = r02 * vx + r12 * vy + r22 * vz
    abx = r00 * ax + r10 * ay + r20 * az
    aby = r01 * ax + r11 * ay + r21 * az
    abz = r02 * ax + r12 * ay + r22 * az
    jbx = r00 * jx + r10 * jy + r20 * jz
    jby = r01 * jx + r11 * jy + r21 * jz
    # d|v_a|/dt / |v_a|, from the airspeed magnitude derivative
    speed_rate = (vx * ax + vy * ay + vz * az) / (airspeed * airspeed)
    # the system [[a00, a01, a02], [a10, 0, a12], [w, 0, -u]] omega = rhs
    a00 = qa * cdxz * v
    a01 = cz - qa * (2.0 * cdxz * u + (cdz - cdx) * w)
    a02 = -qa * (cdx - cy0) * v
    a10 = -cz + qa * (cdxz * u + (cdz - cy0) * w)
    a12 = -qa * ((cdx - cy0) * u + cdxz * w)
    rhs0 = (jbx + qa * speed_rate * (cdx * u + cdxz * w)
            + qa * (cdx * abx + cdxz * abz))
    rhs1 = jby + qa * speed_rate * cy0 * v + qa * cy0 * aby
    rhs2 = -GRAVITY * r21
    scale = math.sqrt(a00 * a00 + a01 * a01 + a02 * a02 + a10 * a10
                      + a12 * a12 + w * w + u * u)
    cube = scale * scale * scale
    if not math.isfinite(cube):
        raise overflow_error(_LAYER)
    # expanded along the middle column: no pivot to divide by
    inner = a10 * u + a12 * w
    det = a01 * inner
    # each row norm is at most the scale, so a determinant above
    # HADAMARD_TOL * cube passes the row-norm test without computing it
    if scale < _TINY or abs(det) < DET_TOL * cube or (
            abs(det) < HADAMARD_TOL * cube
            and abs(det) < HADAMARD_TOL * math.hypot(a00, a01, a02)
            * math.hypot(a10, a12) * math.hypot(w, u)):
        return None
    # rows 1 and 2 hold w_x and w_z only; row 0 then gives w_y
    wx = (rhs1 * u + a12 * rhs2) / inner
    wz = (w * rhs1 - a10 * rhs2) / inner
    return wx, (rhs0 - a00 * wx - a02 * wz) / a01, wz


def flatness_transform(params, sample, ctx=None):
    """Full flat-reference to feedforward mapping; total on its domain.

    The domain is every sample whose ``p``, ``v``, ``a``, ``j`` and
    ``psi`` are finite; outside it the call raises ``ValueError`` naming
    the first non-finite field, before it reads or changes ``ctx``.
    Inside it, singularities are resolved by policy (see the module
    docstring) and flagged in the output; arithmetic that overflows (a
    speed near 1e154, say) raises ``FloatingPointError`` naming the
    flatness transform.  ``ctx`` carries the hysteresis state and the
    last good airspeed direction between calls; omitted, a fresh context
    makes the call a stateless per-sample transform.  A sample repeated
    through one context gives the same output from its first call on:
    the zero-velocity branch only raises the threshold above the speed
    that entered it and never writes the held axis, and the smooth
    branch keeps the threshold at or below its speed and reads no
    context.  The wind of
    ``params`` (in a run, the wind estimate) enters only through the
    airspeed ``v - params.wind``.
    """
    if not math.isfinite(math.hypot(*sample.p, *sample.v, *sample.a,
                                    *sample.j, sample.psi)):
        _refuse(sample)
    if ctx is None:
        ctx = TransformContext()
    (vx, vy, vz), (wx, wy, wz) = sample.v, params.wind
    vx, vy, vz = v_air = (vx - wx, vy - wy, vz - wz)
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if not math.isfinite(speed):
        raise overflow_error(_LAYER)
    px, py, pz = plane = symmetry_plane_vector(params, v_air, sample.a, speed)
    plane_norm = math.sqrt(px * px + py * py + pz * pz)
    if not math.isfinite(plane_norm):
        raise overflow_error(_LAYER)
    threshold = SPEED_SINGULAR_EXIT if ctx.in_singular else SPEED_SINGULAR_ENTER
    if speed < threshold:
        ctx.in_singular = True
        out = _zero_velocity_output(params, sample, v_air, plane, plane_norm,
                                    ctx.held_axis)
    else:
        axis = (vx / speed, vy / speed, vz / speed)
        ctx.in_singular = False
        ctx.held_axis = axis
        out = _smooth_output(params, sample, v_air, speed, axis, plane,
                             plane_norm)
    # the output's attitude, thrust, angle of attack and body rate (its
    # airspeed and wind axis are finite once the speed is)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = out.rotation
    ox, oy, oz = out.omega
    values = (r00, r01, r02, r10, r11, r12, r20, r21, r22, out.thrust,
              out.alpha, ox, oy, oz)
    if not (math.isfinite(math.hypot(*values))
            or all(map(math.isfinite, values))):
        raise overflow_error(_LAYER)
    return out


def _refuse(sample):
    """Raise the ``ValueError`` naming the first of ``p``, ``v``, ``a``,
    ``j`` and ``psi`` that is not finite, if one is: the domain test of
    a sample whose components' norm is not finite."""
    for name in ("p", "v", "a", "j"):
        if not all(map(math.isfinite, getattr(sample, name))):
            raise ValueError(f"flat sample field {name} is not finite")
    if not math.isfinite(sample.psi):
        raise ValueError("flat sample field psi is not finite")


def _smooth_output(params, sample, v_air, speed, axis, plane, plane_norm):
    """The construction of the module docstring at airspeed ``v_air``
    of norm ``speed`` along the unit ``axis`` with the symmetry-plane
    vector ``plane`` of norm ``plane_norm``, with the aligned-axis
    policy where the lateral axis is undefined."""
    ux, uy, uz = axis
    along, perp = wind_frame_accels(axis, sample.a)
    # None: aerodynamics alone meet the demand; no thrust, chord on the path
    thrust, alpha = (thrust_and_alpha(params, speed, along, perp)
                     or (0.0, params.kappa))
    px, py, pz = plane
    # axis x plane
    cx, cy, cz = uy * pz - uz * py, uz * px - ux * pz, ux * py - uy * px
    cross_norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    singular = SingularCase.NONE
    if cross_norm < CROSS_ALIGN_TOL * max(plane_norm, _TINY):
        # aligned-axis policy (e.g. vertical flight): lateral axis from
        # the yaw fallback, led by the airspeed axis, which only
        # qualifies in free fall in motion
        plane_ref, ref_norm = ((plane, plane_norm) if plane_norm >= _TINY
                               else (_UP, GRAVITY))
        yaw_axis = (math.cos(sample.psi), math.sin(sample.psi), 0.0)
        _, (yx, yy, yz) = lateral_axis(plane_ref, (axis, yaw_axis),
                                       CROSS_ALIGN_TOL * ref_norm)
        # the airspeed axis is only numerically parallel to the plane
        # vector; project it off y_b so the rotation stays orthonormal
        d = ux * yx + uy * yy + uz * yz
        ux, uy, uz = ux - d * yx, uy - d * yy, uz - d * yz
        n = math.sqrt(ux * ux + uy * uy + uz * uz)
        ux, uy, uz = ux / n, uy / n, uz / n
        singular = SingularCase.AXIS_ALIGNED
    else:
        yx, yy, yz = cx / cross_norm, cy / cross_norm, cz / cross_norm
    # the body x-axis is the wind x-axis rotated about y_b by
    # alpha - kappa; y_b is normal to it, so Rodrigues' formula keeps
    # only its cosine and sine terms
    turn = alpha - params.kappa
    c, s = math.cos(turn), math.sin(turn)
    x_body = (c * ux + s * (yy * uz - yz * uy),
              c * uy + s * (yz * ux - yx * uz),
              c * uz + s * (yx * uy - yy * ux))
    rotation = _frame(x_body, (yx, yy, yz))
    # None: a singular body-rate system, whose policy is the zero rate
    omega = angular_velocity_from_flat(params, sample, rotation, thrust,
                                       v_air, speed) or _ZERO
    return FlatnessOutput(rotation, thrust, alpha, omega, v_air, axis,
                          singular)


def _zero_velocity_output(params, sample, v_air, plane, plane_norm,
                          held_axis):
    """Hover-regime policy about the symmetry-plane vector ``plane`` of
    norm ``plane_norm``: attitude from the held (when there is one) or
    fallback axis, thrust from the projection of the specific-force
    demand."""
    px, py, pz = plane
    c, s = math.cos(sample.psi), math.sin(sample.psi)
    yaw_axis = (c, s, 0.0)
    if plane_norm < _TINY:
        # free-fall reference at rest: yaw-only attitude, no thrust
        rotation = ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
        return FlatnessOutput(rotation, 0.0, params.kappa, _ZERO, v_air,
                              yaw_axis, SingularCase.ZERO_VELOCITY)
    headings = (yaw_axis,) if held_axis is None else (held_axis, yaw_axis)
    axis, (yx, yy, yz) = lateral_axis(plane, headings,
                                      CROSS_ALIGN_TOL * plane_norm)
    # x_b = plane x y_b, normalized
    xx, xy, xz = py * yz - pz * yy, pz * yx - px * yz, px * yy - py * yx
    n = math.sqrt(xx * xx + xy * xy + xz * xz)
    rotation = _frame((xx / n, xy / n, xz / n), (yx, yy, yz))
    (_, _, zx), (_, _, zy), (_, _, zz) = rotation
    ax, ay, az = sample.a
    thrust = params.mass * (zx * ax + zy * ay + zz * (az - GRAVITY))
    if not math.isfinite(thrust):
        raise overflow_error(_LAYER)
    return FlatnessOutput(rotation, min(0.0, thrust), params.kappa, _ZERO,
                          v_air, axis, SingularCase.ZERO_VELOCITY)
