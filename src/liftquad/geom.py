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
dozens of these calls.  The numpy :func:`mat_to_quat`, and the numpy
kernels of the numpy flatness transform, are test oracles in
``tests/oracles.py``.

Float arithmetic gives ``inf`` or ``nan`` on overflow, and nothing here
raises on it: each layer tests its own values inline and raises the
``FloatingPointError`` of :func:`overflow_error`, naming the layer.
A gate over many values makes one test, ``math.isfinite`` of their
``math.hypot``, which is finite only if every value is; only when it
is not does the gate test each value, so a norm that overflows on
finite values refuses nothing.  The norm converts each value to a C
double, so numpy scalars warn and raise nowhere, where a sum would.  A
gate over three or four values tests each: the norm's call costs more.
"""

import math

# A matrix this far from orthonormal silently distorts lengths, so
# mat_to_quat refuses it instead of converting it.
UNIT_TOL = 1e-6
SMALL_ANGLE = 1e-6

# A heading within this angle (rad) of the force makes no lateral axis:
# the floor a caller passes lateral_axis is this times the force's norm.
CROSS_ALIGN_TOL = 1e-6
# the earth axes lateral_axis falls back on, as floats
_EARTH_X = (1.0, 0.0, 0.0)
_EARTH_Y = (0.0, 1.0, 0.0)


class NonOrthonormalError(ValueError):
    """Matrix is not a proper rotation (orthonormal with determinant +1)."""


def overflow_error(layer):
    """The ``FloatingPointError`` naming ``layer`` that a layer raises
    when one of its values is not finite: float arithmetic overflows to
    ``inf`` or ``nan`` without raising."""
    return FloatingPointError(f"overflow encountered in {layer}")


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


def mat_to_quat(rotation):
    """Quaternion of a rotation matrix (read as three rows), canonical
    sign (w >= 0), as a 4-tuple.

    Raises :class:`NonOrthonormalError` when ``rotation`` is not orthonormal
    within ``UNIT_TOL`` (Frobenius residual of R^T R - I) or has negative
    determinant, and any matrix with a NaN entry.
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
    if not (residual <= UNIT_TOL and det > 0.0):
        raise NonOrthonormalError(f"orthonormality residual {residual:.3g} "
                                  f"exceeds {UNIT_TOL:g} or det <= 0")
    # Shepperd's method: branch on the largest diagonal combination to keep
    # the divisor well away from zero.  The builtin max calls are written
    # as comparisons, which cost half: the residual check lets no NaN
    # through, and max(0.0, s) is s if s > 0.0 else 0.0.
    t = r00 + r11 + r22
    if t >= r00 and t >= r11 and t >= r22:
        s = 1.0 + t
        w = 0.5 * math.sqrt(s if s > 0.0 else 0.0)
        f = 0.25 / w
        x, y, z = f * (r21 - r12), f * (r02 - r20), f * (r10 - r01)
    elif r00 >= r11 and r00 >= r22:
        s = 1.0 + r00 - r11 - r22
        x = 0.5 * math.sqrt(s if s > 0.0 else 0.0)
        f = 0.25 / x
        w, y, z = f * (r21 - r12), f * (r01 + r10), f * (r02 + r20)
    elif r11 >= r22:
        s = 1.0 + r11 - r00 - r22
        y = 0.5 * math.sqrt(s if s > 0.0 else 0.0)
        f = 0.25 / y
        w, x, z = f * (r02 - r20), f * (r01 + r10), f * (r12 + r21)
    else:
        s = 1.0 + r22 - r00 - r11
        z = 0.5 * math.sqrt(s if s > 0.0 else 0.0)
        f = 0.25 / z
        w, x, y = f * (r10 - r01), f * (r02 + r20), f * (r12 + r21)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if w < 0.0:
        n = -n
    return (w / n, x / n, y / n, z / n)


def attitude_error(q, q_d):
    """Rotation vector (axis scaled by angle) that turns the attitude
    ``q`` onto ``q_d``, the short way round, as a 3-tuple of norm at most
    pi: the rotation of the error quaternion ``conj(q) * q_d``.

    Antipodal quaternions (q and -q, either argument) give the same
    vector up to rounding: at most 8.9e-16 rad per component over
    200,000 random draws.
    """
    w, x, y, z = q
    dw, dx, dy, dz = q_d
    # the Hamilton product conj(q) * q_d, term by term in its order
    ew = w * dw + x * dx + y * dy + z * dz
    ex = w * dx - x * dw - y * dz + z * dy
    ey = w * dy + x * dz - y * dw - z * dx
    ez = w * dz - x * dy + y * dx - z * dw
    n = math.sqrt(ew * ew + ex * ex + ey * ey + ez * ez)
    # clamped to [-1, 1] by comparisons, half the cost of min and max,
    # in their order: a NaN goes to -1.0
    c = ew / n
    c = c if c > -1.0 else -1.0
    c = c if c < 1.0 else 1.0
    # 2 acos(c) lies in [0, 2 pi]; the short way round is in (-pi, pi]
    angle = 2.0 * math.acos(c)
    if angle > math.pi:
        angle -= math.tau
    if abs(angle) < SMALL_ANGLE:
        # theta / sin(theta/2) -> 2 + theta^2/12 as theta -> 0
        scale = 2.0 + angle * angle / 12.0
    else:
        scale = angle / math.sin(0.5 * angle)
    sign = 1.0 if c >= 0.0 else -1.0
    k = sign * scale
    return (k * (ex / n), k * (ey / n), k * (ez / n))
