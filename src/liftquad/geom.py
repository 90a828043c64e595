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

One kernel per operation: the package takes every cross product of two
3-vectors from :func:`cross3`, every 2-norm of a lone vector or 3x3
matrix from :func:`norm` and the identity from the read-only
:data:`EYE3`.  On a 3-vector, numpy's general routines cost far more
per call than the arithmetic they do, and a controller tick makes
dozens of these calls.

Error-state contract: the kernels return bit for bit what
``numpy.cross`` and ``numpy.linalg.norm`` return, and they compute on
numpy float64 scalars and arrays, never on Python floats, so under
``np.errstate(over="raise", invalid="raise", divide="raise")`` they
raise ``FloatingPointError`` on the inputs where numpy's routine raises
(Python float arithmetic would give ``inf`` silently).  The reference,
the flatness transform and the controller run on numpy under that
state.  The plant (:mod:`liftquad.dynamics`) runs on Python floats
instead, and the harness checks its state once per tick, after the
substeps, raising the same ``FloatingPointError`` on the first
non-finite component.
"""

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Rotations built from nearly-but-not-exactly-unit axes silently distort
# lengths, so the constructors validate their inputs up front.
UNIT_TOL = 1e-6
SMALL_ANGLE = 1e-6

EYE3 = np.identity(3)
EYE3.setflags(write=False)


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


def lateral_axis(force, headings, floor):
    """Body lateral axis ``heading x force``, normalized, from the first
    of ``headings`` (then the earth x and y axes) whose cross product
    with the demanded ``force`` is longer than ``floor``; returns
    ``(heading, axis)``.  The flatness transform and the controller
    complete their attitudes with it."""
    for heading in (*headings, EYE3[0], EYE3[1]):
        cross = cross3(heading, force)
        cross_norm = norm(cross)
        if cross_norm > floor:
            return heading, cross / cross_norm
    raise AssertionError("no usable lateral axis candidate")


def skew(v):
    """Skew-symmetric matrix of ``v``: ``skew(v) @ w == cross3(v, w)``."""
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def wrap_pi(angle):
    """Wrap an angle in radians to (-pi, pi]."""
    a = angle % TWO_PI
    if a > math.pi:
        a -= TWO_PI
    return a


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


def quat_to_axis_angle(q):
    """Axis-angle form of a unit quaternion, shortest path.

    Antipodal quaternions (q and -q) map to the same :class:`AxisAngle`.
    The returned angle lies in (-pi, pi] and ``vector`` has norm
    ``abs(angle)``.
    """
    q = np.asarray(q, dtype=float)
    q = q / norm(q)
    w = min(1.0, max(-1.0, q[0]))
    angle = wrap_pi(2.0 * math.acos(w))
    sign = 1.0 if w >= 0.0 else -1.0
    if abs(angle) < SMALL_ANGLE:
        # theta / sin(theta/2) -> 2 + theta^2/12 as theta -> 0
        scale = 2.0 + angle * angle / 12.0
    else:
        scale = angle / math.sin(0.5 * angle)
    return AxisAngle(angle, sign * scale * q[1:4])
