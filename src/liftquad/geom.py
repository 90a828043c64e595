"""Geometric primitives: 3-vectors, rotation matrices, unit quaternions.

Conventions used throughout the package:

* vectors are numpy arrays of shape (3,), rotation matrices (3, 3),
  quaternions (4,) in scalar-first order [w, x, y, z] with Hamilton
  products;
* a body-to-earth rotation stores the body axes as columns, so
  ``R @ v_body`` expresses a body vector in earth axes and the attitude
  kinematics read ``Rdot = R @ skew(omega_body)``;
* the earth frame is north-east-down: z points down, so "up" is -z.

All functions are pure and operate on float64 data; callers that share
arrays across threads must not mutate them concurrently.
"""

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Rotations built from nearly-but-not-exactly-unit axes silently distort
# lengths, so the constructors validate their inputs up front.
UNIT_TOL = 1e-6
SMALL_ANGLE = 1e-6


class NonUnitAxisError(ValueError):
    """Rotation axis is not unit length."""


class NonOrthonormalError(ValueError):
    """Matrix is not a proper rotation (orthonormal with determinant +1)."""


class AxisAngle(NamedTuple):
    """Axis-angle form of a rotation.

    ``vector`` is the rotation vector (axis scaled by angle); its norm
    equals ``abs(angle)`` and ``angle`` lies in (-pi, pi].
    """

    angle: float
    vector: np.ndarray


def skew(v):
    """Skew-symmetric matrix of ``v``: ``skew(v) @ w == np.cross(v, w)``."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def unskew(m):
    """Inverse of :func:`skew` for an antisymmetric 3x3 matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def wrap_pi(angle):
    """Wrap an angle in radians to (-pi, pi]."""
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


def rodrigues(axis, angle, tol=UNIT_TOL):
    """Matrix of the right-handed rotation by ``angle`` about unit ``axis``.

    Raises :class:`NonUnitAxisError` if ``axis`` deviates from unit length
    by more than ``tol``.
    """
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if abs(n - 1.0) > tol:
        raise NonUnitAxisError(f"axis norm {n:.9g} is not 1 within {tol:g}")
    c = math.cos(angle)
    s = math.sin(angle)
    return c * np.eye(3) + (1.0 - c) * np.outer(axis, axis) + s * skew(axis)


def quat_mul(a, b):
    """Hamilton product of two scalar-first quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conj(q):
    """Conjugate (inverse for unit quaternions)."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_mat(q):
    """Rotation matrix of a unit quaternion [w, x, y, z]."""
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def mat_to_quat(rotation, tol=UNIT_TOL):
    """Quaternion of a rotation matrix, canonical sign (w >= 0).

    Raises :class:`NonOrthonormalError` when ``rotation`` is not orthonormal
    within ``tol`` (Frobenius residual of R^T R - I) or has negative
    determinant.
    """
    r = np.asarray(rotation, dtype=float)
    residual = np.linalg.norm(r.T @ r - np.eye(3))
    if residual > tol or np.linalg.det(r) <= 0.0:
        raise NonOrthonormalError(
            f"orthonormality residual {residual:.3g} exceeds {tol:g} or det <= 0")
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
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_to_axis_angle(q):
    """Axis-angle form of a unit quaternion, shortest path.

    Antipodal quaternions (q and -q) map to the same :class:`AxisAngle`.
    The returned angle lies in (-pi, pi] and ``vector`` has norm
    ``abs(angle)``.
    """
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    w = min(1.0, max(-1.0, q[0]))
    angle = wrap_pi(2.0 * math.acos(w))
    sign = 1.0 if w >= 0.0 else -1.0
    if abs(angle) < SMALL_ANGLE:
        # theta / sin(theta/2) -> 2 + theta^2/12 as theta -> 0
        scale = 2.0 + angle * angle / 12.0
    else:
        scale = angle / math.sin(0.5 * angle)
    return AxisAngle(angle, sign * scale * q[1:4])
