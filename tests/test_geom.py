"""Geometric primitives: quaternions, the attitude error and the
thrust-axis attitude, with the skew maps and Rodrigues rotations of the
numpy oracles they are checked with."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import liftquad
from liftquad.geom import (FREE_FALL_ACCEL, NonOrthonormalError,
                           attitude_error, mat_to_quat, thrust_attitude)
from oracles import (EX, EY, EZ, NonUnitAxisError, quat_to_mat,
                     random_rotation, rodrigues, skew, unskew)

IDENTITY = (1.0, 0.0, 0.0, 0.0)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


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


@pytest.mark.parametrize("row,col", [(i, j) for i in range(3)
                                     for j in range(3)])
def test_mat_to_quat_rejects_a_nan_entry(row, col):
    # a NaN residual or determinant fails every comparison, so a refusal
    # test written as "residual > tol or det <= 0" let it through
    rot = random_rotation(np.random.default_rng(10)).tolist()
    rot[row][col] = math.nan
    with pytest.raises(NonOrthonormalError):
        mat_to_quat(rot)


def _turn_about_x(angle):
    """The quaternion of a turn by ``angle`` about x, its scalar part of
    either sign."""
    half = 0.5 * angle
    return (math.cos(half), math.sin(half), 0.0, 0.0)


_SMALL_AXIS = np.array([2.0, -1.0, 2.0]) / 3.0
# name -> (q_d, the error of the identity onto it, rtol, atol)
_EXACT_ERRORS = {
    "identity": (IDENTITY, (0.0, 0.0, 0.0), 0.0, 0.0),
    "quarter-turn-z": (mat_to_quat(rodrigues(EZ, 0.5 * math.pi)),
                       (0.0, 0.0, 0.5 * math.pi), 0.0, 1e-12),
    # stored with a negative scalar part, it comes back as -0.1 pi
    "long-way": (_turn_about_x(1.9 * math.pi), (-0.1 * math.pi, 0.0, 0.0),
                 0.0, 1e-12),
    # the short way round: a turn wrapped to [-pi, pi], where a half
    # turn keeps its sign
    **{f"wrap-{turns:g}pi": (_turn_about_x(turns * math.pi),
                             (wrapped * math.pi, 0.0, 0.0), 0.0, 1e-12)
       for turns, wrapped in ((0.0, 0.0), (1.0, 1.0), (-1.0, -1.0),
                              (2.0, 0.0), (3.0, 1.0), (5.5, -0.5),
                              (-0.25, -0.25))},
    **{f"small-{angle:g}": (mat_to_quat(rodrigues(_SMALL_AXIS, angle)),
                            tuple(_SMALL_AXIS * angle), 1e-6, 1e-15)
       for angle in (1e-3, 1e-7, 1e-9)}}


@pytest.mark.parametrize("q_d, expected, rtol, atol", _EXACT_ERRORS.values(),
                         ids=list(_EXACT_ERRORS))
def test_attitude_error_exact_cases(q_d, expected, rtol, atol):
    assert_allclose(attitude_error(IDENTITY, q_d), expected, rtol=rtol,
                    atol=atol)


def test_quat_conj_cancels():
    # the error of an attitude onto itself is zero
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = mat_to_quat(random_rotation(rng))
        assert_allclose(attitude_error(q, q), np.zeros(3), atol=1e-14)


def test_quat_mul_matches_matrix_product():
    # oracle: the error of q_a onto q_b, re-composed (a turn by its norm
    # about its direction), is the matrix product R_a^T R_b
    rng = np.random.default_rng(8)
    for _ in range(30):
        qa = mat_to_quat(random_rotation(rng))
        qb = mat_to_quat(random_rotation(rng))
        out = np.asarray(attitude_error(qa, qb))
        turn = np.linalg.norm(out)
        assert turn <= math.pi
        lhs = rodrigues(out / turn, turn)
        rhs = quat_to_mat(qa).T @ quat_to_mat(qb)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_axis_angle_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rot = random_rotation(rng)
        q = mat_to_quat(rot)
        if rng.uniform() < 0.5:
            # both quaternion signs must give the same answer
            q = -np.asarray(q)
        out = attitude_error(IDENTITY, q)
        assert type(out) is tuple and len(out) == 3
        turn = np.linalg.norm(out)
        assert turn <= math.pi + 1e-12
        if turn > 1e-12:
            recomposed = rodrigues(np.asarray(out) / turn, turn)
            assert np.linalg.norm(recomposed - rot) < 1e-11


def test_antipodal_quaternions_same_axis_angle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = mat_to_quat(random_rotation(rng))
        a, b = (attitude_error(IDENTITY, q),
                attitude_error(IDENTITY, -np.asarray(q)))
        assert_allclose(a, b, atol=1e-12)
        # the measured attitude's sign does not matter either
        assert_allclose(attitude_error(-np.asarray(q), IDENTITY),
                        attitude_error(q, IDENTITY), atol=1e-12)


def random_thrust_attitudes(rng, count):
    """``count`` draws of ``(force, norm, headings, out)``, ``out`` the
    kernel's output: forces from the free-fall floor to 1e3, a heading
    parallel to the force first in every fourth draw."""
    for k in range(count):
        force = random_unit(rng) * 10.0 ** rng.uniform(-5.9, 3.0)
        norm = math.sqrt(float(force @ force))
        headings = (random_unit(rng), random_unit(rng))
        if k % 4 == 0:
            headings = (-force / norm, *headings)
        force = tuple(map(float, force))
        yield force, norm, headings, thrust_attitude(
            force, norm, headings, rng.uniform(0.1, 50.0),
            tuple(rng.normal(size=3) * 20.0))


def test_thrust_attitude_rows_are_orthonormal():
    rng = np.random.default_rng(14)
    for *_, (_, rotation, _) in random_thrust_attitudes(rng, 200):
        assert type(rotation) is tuple and len(rotation) == 3
        r = np.array(rotation)
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-14
        assert abs(np.linalg.det(r) - 1.0) < 1e-14
        assert_allclose(quat_to_mat(mat_to_quat(rotation)), r, atol=1e-14)


def test_thrust_attitude_sets_body_z_against_the_force():
    # body z is -force/|force|, and body y is normal to the heading the
    # kernel picked: the first one not parallel to the force
    rng = np.random.default_rng(15)
    for force, norm, headings, (heading, rotation, thrust) in (
            random_thrust_attitudes(rng, 200)):
        r = np.array(rotation)
        assert_allclose(r[:, 2], -np.array(force) / norm, atol=1e-15)
        assert heading is next(h for h in headings
                               if np.linalg.norm(np.cross(h, force))
                               > 1e-3 * norm)
        assert abs(float(r[:, 1] @ heading)) < 1e-14
        assert thrust <= 0.0


@pytest.mark.parametrize("demand, mass, expected", [
    ((0.0, 0.0, -0.0), 1.0, -0.0),      # a projection of -0.0 only
    ((0.0, 0.0, -2.0), 1.5, -3.0),      # along the force: pulled
    ((0.0, 0.0, 2.0), 1.5, 0.0),        # against it: clamped to zero
    ((0.0, 0.0, math.nan), 1.5, math.nan),
    ((0.0, 0.0, -1e300), 1e300, -math.inf),
    ((0.0, 0.0, 1e300), 1e300, math.inf),
], ids=["zero", "pull", "push", "nan", "overflow-pull", "overflow-push"])
def test_thrust_attitude_clamps_its_projection_by_one_rule(demand, mass,
                                                           expected):
    # a positive thrust is clamped to 0.0; -0.0 keeps its sign, and a NaN
    # or an overflow passes for its caller's finiteness test
    force = (0.0, 0.0, -9.0)
    _, _, thrust = thrust_attitude(force, 9.0, ((1.0, 0.0, 0.0),), mass,
                                   demand)
    assert np.float64(thrust).tobytes() == np.float64(expected).tobytes()


def test_thrust_attitude_takes_a_force_at_the_free_fall_floor():
    force = (0.0, 0.0, -FREE_FALL_ACCEL)
    heading, rotation, thrust = thrust_attitude(
        force, FREE_FALL_ACCEL, ((0.0, 1.0, 0.0),), 2.0, force)
    assert heading == (0.0, 1.0, 0.0)
    # a quarter turn in yaw: body x east, body y south, body z down
    assert rotation == ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert thrust == -2.0 * FREE_FALL_ACCEL


def _lateral_axis_callers(tree):
    """The qualified names of the functions (``<module>`` outside any)
    holding a call of ``lateral_axis``, by name or as an attribute."""
    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Call) and "lateral_axis" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            walk(child, scope)
    walk(tree, [])
    return found


def test_only_the_kernel_and_the_aligned_axis_policy_pick_a_lateral_axis():
    # the thrust-axis attitude is built once, in thrust_attitude; the
    # smooth feedforward's aligned-axis policy builds another frame, and
    # no other function of the package picks a lateral axis
    package = Path(liftquad.__file__).parent
    found = {f"{path.stem}.{name}"
             for path in sorted(package.glob("*.py"))
             for name in _lateral_axis_callers(ast.parse(path.read_text()))}
    assert found == {"geom.thrust_attitude", "flatness._smooth_output"}
    # the walk sees a call by name, by attribute and in a method
    assert _lateral_axis_callers(ast.parse(
        "class A:\n def f(u):\n  return geom.lateral_axis(u, (), 0)\n"
        "x = lateral_axis((1, 0, 0), (), 0)\n")) == {"A.f", "<module>"}
