"""Geometric primitives: 3-vectors, rotation matrices, unit quaternions.

Conventions used throughout the package:

* vectors are float 3-tuples, rotation matrices three row tuples and
  quaternions float 4-tuples in scalar-first order [w, x, y, z] with
  Hamilton products; a function reads any sequences of those shapes,
  numpy arrays included;
* a body-to-earth rotation stores the body axes as columns, so
  ``R @ v_body`` expresses a body vector in earth axes and the attitude
  kinematics read ``Rdot = R @ skew(omega_body)``;
* the earth frame is north-east-down: z points down, so "up" is -z.

All functions are pure scalar arithmetic on the components of their
inputs and return float tuples: on a 3-vector or a 3x3 matrix, numpy's
per-call cost is far above the arithmetic it does, and a tick makes
dozens of these calls.  The numpy form of :func:`mat_to_quat` is a
test oracle in ``tests/oracles.py``, beside the numpy kernels
(``cross3``, ``norm``, ``skew``, ``rodrigues``) of the numpy flatness
transform the float one is checked against.

Overflow: float arithmetic gives ``inf`` or ``nan`` where numpy would
raise under its strict error state, and nothing here raises on it.  The
flatness transform (:mod:`liftquad.flatness`), the controller
(:mod:`liftquad.control`), the plant (:mod:`liftquad.dynamics`) and the
harness each check their own values and raise the
``FloatingPointError`` of :func:`overflow_error`, naming the layer.  On
a hot path the check is an inline ``math.isfinite`` test per value, a
few tens of nanoseconds where a call of :func:`check_finite` costs
about half a microsecond; elsewhere :func:`check_finite` does it in one
call.
"""

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# A matrix this far from orthonormal silently distorts lengths, so
# mat_to_quat refuses it instead of converting it.
UNIT_TOL = 1e-6
SMALL_ANGLE = 1e-6

# the earth axes lateral_axis falls back on, as floats
_EARTH_X = (1.0, 0.0, 0.0)
_EARTH_Y = (0.0, 1.0, 0.0)


class NonOrthonormalError(ValueError):
    """Matrix is not a proper rotation (orthonormal with determinant +1)."""


class AxisAngle(NamedTuple):
    """Axis-angle form of a rotation.

    ``vector`` is the rotation vector (axis scaled by angle) as a
    3-tuple; its norm equals ``abs(angle)`` and ``angle`` lies in
    (-pi, pi].
    """

    angle: float
    vector: tuple


def overflow_error(layer):
    """The ``FloatingPointError`` naming ``layer`` that a layer raises
    when one of its values is not finite: float arithmetic overflows to
    ``inf`` or ``nan`` without raising."""
    return FloatingPointError(f"overflow encountered in {layer}")


def check_finite(layer, *values):
    """Raise :func:`overflow_error` of ``layer`` unless every value is
    finite."""
    if not all(map(math.isfinite, values)):
        raise overflow_error(layer)


def lateral_axis(force, headings, floor):
    """Body lateral axis ``heading x force``, normalized, from the first
    of ``headings`` (then the earth x and y axes) whose cross product
    with the demanded ``force`` is longer than ``floor``; returns
    ``(heading, axis)``, the axis as a 3-tuple.  The flatness transform
    and the controller complete their attitudes with it."""
    fx, fy, fz = force
    for heading in (*headings, _EARTH_X, _EARTH_Y):
        hx, hy, hz = heading
        cx, cy, cz = hy * fz - hz * fy, hz * fx - hx * fz, hx * fy - hy * fx
        cross_norm = math.sqrt(cx * cx + cy * cy + cz * cz)
        if cross_norm > floor:
            return heading, (cx / cross_norm, cy / cross_norm, cz / cross_norm)
    raise AssertionError("no usable lateral axis candidate")


def wrap_pi(angle):
    """Wrap an angle in radians to (-pi, pi]."""
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


def quat_mul(a, b):
    """Hamilton product of two scalar-first quaternions, as a 4-tuple."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def quat_conj(q):
    """Conjugate (inverse for unit quaternions), as a 4-tuple."""
    w, x, y, z = q
    return (w, -x, -y, -z)


def mat_to_quat(rotation):
    """Quaternion of a rotation matrix (read as three rows), canonical
    sign (w >= 0), as a 4-tuple.

    Raises :class:`NonOrthonormalError` when ``rotation`` is not orthonormal
    within ``UNIT_TOL`` (Frobenius residual of R^T R - I) or has negative
    determinant.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    # R^T R - I: three diagonal and three (twice counted) off-diagonal
    # entries
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
    if residual > UNIT_TOL or det <= 0.0:
        raise NonOrthonormalError(f"orthonormality residual {residual:.3g} "
                                  f"exceeds {UNIT_TOL:g} or det <= 0")
    # Shepperd's method: branch on the largest diagonal combination to keep
    # the divisor well away from zero.
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


def quat_to_axis_angle(q):
    """Axis-angle form of a unit quaternion, shortest path.

    Antipodal quaternions (q and -q) map to the same :class:`AxisAngle`.
    The returned angle lies in (-pi, pi] and ``vector`` has norm
    ``abs(angle)``.
    """
    qw, qx, qy, qz = q
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    w = min(1.0, max(-1.0, qw / n))
    angle = wrap_pi(2.0 * math.acos(w))
    sign = 1.0 if w >= 0.0 else -1.0
    if abs(angle) < SMALL_ANGLE:
        # theta / sin(theta/2) -> 2 + theta^2/12 as theta -> 0
        scale = 2.0 + angle * angle / 12.0
    else:
        scale = angle / math.sin(0.5 * angle)
    k = sign * scale
    return AxisAngle(angle, (k * (qx / n), k * (qy / n), k * (qz / n)))
