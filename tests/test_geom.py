"""Geometric primitives: quaternions and axis-angle, with the skew maps
and Rodrigues rotations of the numpy oracles they are checked with."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from liftquad.geom import (AxisAngle, NonOrthonormalError, mat_to_quat,
                           quat_conj, quat_mul, quat_to_axis_angle, wrap_pi)
from oracles import (NonUnitAxisError, quat_to_mat, rodrigues, skew,
                     unskew)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_rotation(rng):
    return rodrigues(random_unit(rng), rng.uniform(-math.pi, math.pi))


def test_skew_basis():
    assert_allclose(skew(EX) @ EY, EZ)
    assert_allclose(skew(np.zeros(3)), np.zeros((3, 3)))


def test_skew_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        # oracle: direct cross product
        assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-14)
        assert_allclose(skew(v).T, -skew(v))


def test_unskew_inverts_skew():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.normal(size=3)
        assert_allclose(unskew(skew(v)), v)


@pytest.mark.parametrize("angle,expected", [
    (0.0, 0.0),
    (math.pi, math.pi),
    (-math.pi, math.pi),
    (2.0 * math.pi, 0.0),
    (3.0 * math.pi, math.pi),
    (5.5 * math.pi, -0.5 * math.pi),
    (-0.25 * math.pi, -0.25 * math.pi),
])
def test_wrap_pi(angle, expected):
    assert wrap_pi(angle) == pytest.approx(expected, abs=1e-12)


def test_rodrigues_zero_angle_identity():
    assert_allclose(rodrigues(EZ, 0.0), np.eye(3))


def test_rodrigues_quarter_turn():
    assert_allclose(rodrigues(EZ, 0.5 * math.pi) @ EX, EY, atol=1e-15)


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(NonUnitAxisError):
        rodrigues(np.array([1.0, 1.0, 0.0]), 0.3)


def test_rodrigues_matches_matrix_exponential():
    # oracle: expm of the skew map is the same rotation
    rng = np.random.default_rng(3)
    for _ in range(30):
        axis = random_unit(rng)
        angle = rng.uniform(-math.pi, math.pi)
        assert_allclose(rodrigues(axis, angle), expm(skew(axis * angle)),
                        atol=1e-12)


def test_rodrigues_inverse_composition():
    rng = np.random.default_rng(4)
    for _ in range(20):
        axis = random_unit(rng)
        angle = rng.uniform(-math.pi, math.pi)
        prod = rodrigues(axis, angle) @ rodrigues(axis, -angle)
        assert np.linalg.norm(prod - np.eye(3)) < 1e-12


def test_rotation_outputs_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(30):
        rot = random_rotation(rng)
        assert np.linalg.norm(rot.T @ rot - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_quat_identity_round_trip():
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert_allclose(quat_to_mat(ident), np.eye(3))
    assert_allclose(mat_to_quat(np.eye(3)), ident)


def test_quat_conj_cancels():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = mat_to_quat(random_rotation(rng))
        prod = quat_mul(q, quat_conj(q))
        assert_allclose(prod, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(8)
    for _ in range(30):
        qa = mat_to_quat(random_rotation(rng))
        qb = mat_to_quat(random_rotation(rng))
        # oracle: product of the corresponding rotation matrices
        lhs = quat_to_mat(quat_mul(qa, qb))
        rhs = quat_to_mat(qa) @ quat_to_mat(qb)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_mat_quat_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(50):
        rot = random_rotation(rng)
        assert np.linalg.norm(quat_to_mat(mat_to_quat(rot)) - rot) < 1e-12


def test_mat_to_quat_canonical_scalar_sign():
    rng = np.random.default_rng(10)
    for _ in range(30):
        assert mat_to_quat(random_rotation(rng))[0] >= 0.0


def test_mat_to_quat_rejects_invalid():
    with pytest.raises(NonOrthonormalError):
        mat_to_quat(np.eye(3) * 1.1)
    with pytest.raises(NonOrthonormalError):
        mat_to_quat(np.diag([1.0, 1.0, -1.0]))  # reflection


def test_axis_angle_identity():
    out = quat_to_axis_angle(np.array([1.0, 0.0, 0.0, 0.0]))
    assert out.angle == 0.0
    assert_allclose(out.vector, np.zeros(3))


def test_axis_angle_quarter_turn_about_z():
    q = mat_to_quat(rodrigues(EZ, 0.5 * math.pi))
    out = quat_to_axis_angle(q)
    assert out.angle == pytest.approx(0.5 * math.pi)
    assert_allclose(out.vector, [0.0, 0.0, 0.5 * math.pi], atol=1e-12)


def test_axis_angle_long_way_takes_shortest_path():
    # a 1.9 pi turn stored with negative scalar part must come back as
    # a -0.1 pi turn
    angle = 1.9 * math.pi
    q = np.array([math.cos(angle / 2), math.sin(angle / 2), 0.0, 0.0])
    assert q[0] < 0.0
    out = quat_to_axis_angle(q)
    assert abs(out.angle) <= math.pi
    assert out.angle == pytest.approx(wrap_pi(angle), abs=1e-12)
    # oracle: re-composing the axis-angle reproduces the rotation (the
    # vector carries the sign, so rotate by its norm about its direction)
    recomposed = rodrigues(np.asarray(out.vector) / abs(out.angle),
                           abs(out.angle))
    assert np.linalg.norm(recomposed - quat_to_mat(q)) < 1e-12


def test_axis_angle_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rot = random_rotation(rng)
        q = mat_to_quat(rot)
        if rng.uniform() < 0.5:
            # both quaternion signs must give the same answer
            q = -np.asarray(q)
        out = quat_to_axis_angle(q)
        assert isinstance(out, AxisAngle)
        assert abs(out.angle) <= math.pi + 1e-12
        assert np.linalg.norm(out.vector) == pytest.approx(abs(out.angle),
                                                           abs=1e-9)
        if abs(out.angle) > 1e-12:
            recomposed = rodrigues(np.asarray(out.vector) / abs(out.angle),
                                   abs(out.angle))
            assert np.linalg.norm(recomposed - rot) < 1e-11


def test_axis_angle_small_angles_stay_accurate():
    rng = np.random.default_rng(12)
    for scale in (1e-3, 1e-7, 1e-9):
        axis = random_unit(rng)
        q = mat_to_quat(rodrigues(axis, scale))
        out = quat_to_axis_angle(q)
        assert_allclose(out.vector, axis * scale, rtol=1e-6, atol=1e-15)


def test_antipodal_quaternions_same_axis_angle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = mat_to_quat(random_rotation(rng))
        a, b = quat_to_axis_angle(q), quat_to_axis_angle(-np.asarray(q))
        assert_allclose(a.vector, b.vector, atol=1e-12)
