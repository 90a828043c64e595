"""Reference trajectories: analytic values, splice continuity,
derivative consistency."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liftquad
from liftquad.trajectories import TrajectoryDef, TrajectoryKind, sample
from oracles import derivative_check


def test_per_kind_defaults():
    circle = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    assert (circle.r, circle.omega) == (15.0, 0.06)
    assert circle.psi_fallback == pytest.approx(0.5 * math.pi)
    eight = TrajectoryDef(kind=TrajectoryKind.LEMNISCATE)
    assert (eight.r, eight.omega) == (20.0, 0.33)
    assert eight.psi_fallback == pytest.approx(0.5 * math.pi)
    hover = TrajectoryDef(kind=TrajectoryKind.HOVER)
    assert hover.psi_fallback == 0.0
    assert hover.switch_time == math.inf
    line = TrajectoryDef(kind=TrajectoryKind.LINE)
    assert (line.r, line.omega, line.psi_fallback) == (0.0, 0.0, 0.0)
    assert line.switch_time == math.inf


def test_circle_start_conditions():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE, p0=[1.0, 2.0, -5.0])
    ref = sample(traj, 0.0)
    assert_allclose(ref.p, [1.0, 2.0, -5.0])
    assert_allclose(ref.v, np.zeros(3))
    # phase acceleration omega at zero phase: tangential +y pull
    assert_allclose(ref.a, [0.0, traj.r * traj.omega, 0.0])


def test_circle_stays_on_the_circle():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    center = traj.p0 + np.array([traj.r, 0.0, 0.0])
    for t in np.linspace(0.0, 120.0, 200):
        ref = sample(traj, float(t))
        assert np.linalg.norm(ref.p - center) == pytest.approx(traj.r,
                                                               abs=1e-9)
        assert ref.p[2] == traj.p0[2]


def test_circle_switch_is_continuous():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    t_s = traj.switch_time
    assert t_s == pytest.approx(10.0 / (15.0 * 0.06))
    eps = 1e-10
    before, after = sample(traj, t_s - eps), sample(traj, t_s + eps)
    assert_allclose(before.p, after.p, atol=1e-7)
    assert_allclose(before.v, after.v, atol=1e-7)
    # the tangential acceleration steps down by r * omega, 0.9 m/s^2
    assert np.linalg.norm(np.subtract(before.a, after.a)) == pytest.approx(
        traj.r * traj.omega, abs=1e-7)


def test_circle_constant_phase_speed_and_accel():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    for t in (traj.switch_time + 1.0, 40.0, 90.0):
        ref = sample(traj, t)
        assert np.linalg.norm(ref.v) == pytest.approx(traj.speed_cap,
                                                      abs=1e-9)
        # pure centripetal acceleration cap^2 / r
        assert np.linalg.norm(ref.a) == pytest.approx(
            traj.speed_cap ** 2 / traj.r, abs=1e-9)
        assert float(np.asarray(ref.v) @ ref.a) == pytest.approx(0.0,
                                                                 abs=1e-9)


def test_hover_is_static():
    traj = TrajectoryDef(kind=TrajectoryKind.HOVER, p0=[0.0, 0.0, -10.0])
    for t in (0.0, 3.7, 100.0):
        ref = sample(traj, t)
        assert_allclose(ref.p, [0.0, 0.0, -10.0])
        assert_allclose(ref.v, np.zeros(3))
        assert_allclose(ref.a, np.zeros(3))
        assert_allclose(ref.j, np.zeros(3))


def test_a_hover_sample_is_one_object():
    # the harness transforms a sample once when it is the previous
    # tick's object, which a hover's is at every t
    traj = TrajectoryDef(kind=TrajectoryKind.HOVER, p0=[1.0, 2.0, -10.0])
    assert all(sample(traj, t) is traj.terms for t in (0.0, 1.0, 1e4))
    # shared, so read-only: no caller changes another's reference
    with pytest.raises(AttributeError):
        sample(traj, 0.0).p = (0.0, 0.0, 0.0)
    assert sample(traj, 0.0).p == (1.0, 2.0, -10.0)
    circle = TrajectoryDef()
    assert sample(circle, 1.0) is not sample(circle, 1.0)


def test_line_runs_at_cap_along_heading():
    traj = TrajectoryDef(kind=TrajectoryKind.LINE, speed_cap=4.0,
                         psi_fallback=0.25 * math.pi)
    ref = sample(traj, 2.0)
    heading = np.array([math.cos(0.25 * math.pi), math.sin(0.25 * math.pi),
                        0.0])
    assert_allclose(ref.v, 4.0 * heading)
    assert_allclose(ref.p, 8.0 * heading)
    assert_allclose(ref.a, np.zeros(3))


def test_lemniscate_half_period_point():
    traj = TrajectoryDef(kind=TrajectoryKind.LEMNISCATE)
    t_half = 2.0 * math.pi / traj.omega
    ref = sample(traj, t_half)
    # far crossing of the figure eight
    assert_allclose(ref.p, [2.0 * traj.r, 0.0, 0.0], atol=1e-9)
    full = sample(traj, 2.0 * t_half)
    assert_allclose(full.p, traj.p0, atol=1e-9)


def test_lemniscate_is_planar():
    traj = TrajectoryDef(kind=TrajectoryKind.LEMNISCATE, p0=[0.0, 0.0, -3.0])
    for t in np.linspace(0.0, 40.0, 100):
        ref = sample(traj, float(t))
        assert ref.p[2] == -3.0
        assert ref.v[2] == 0.0
        assert ref.a[2] == 0.0
        assert ref.j[2] == 0.0


def test_derivative_check_hover_is_exact():
    traj = TrajectoryDef(kind=TrajectoryKind.HOVER)
    assert derivative_check(traj, 1.0, 1e-4) == 0.0


def test_derivative_check_circle():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    assert derivative_check(traj, 5.0, 1e-5) < 1e-6


def test_derivative_check_lemniscate_sweep():
    traj = TrajectoryDef(kind=TrajectoryKind.LEMNISCATE)
    worst = max(derivative_check(traj, float(t), 1e-5)
                for t in np.linspace(0.1, 38.0, 80))
    assert worst < 1e-5


def test_negative_time_rejected():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    with pytest.raises(ValueError):
        sample(traj, -0.1)


def test_invalid_definitions_rejected():
    with pytest.raises(ValueError):
        TrajectoryDef(kind=TrajectoryKind.CIRCLE, r=-1.0)
    with pytest.raises(ValueError):
        TrajectoryDef(kind=TrajectoryKind.CIRCLE, speed_cap=0.0)


def _kind_comparisons(tree):
    """The qualified names of the functions (``<module>`` outside any)
    holding a comparison with a ``TrajectoryKind`` member, alone or in a
    tuple, list or set."""
    members = set(TrajectoryKind.__members__)

    def is_member(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_member, node.elts))
        return (isinstance(node, ast.Attribute) and node.attr in members
                and isinstance(node.value, ast.Name)
                and node.value.id == "TrajectoryKind")

    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Compare) and any(
                map(is_member, [node.left, *node.comparators])):
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            walk(child, scope)
    walk(tree, [])
    return found


def test_only_terms_and_sample_branch_on_a_trajectory_kind():
    # a kind is one row of the defaults table and one branch each of
    # _terms and sample: no other function of the package compares a
    # kind, so a new kind touches nothing else
    package = Path(liftquad.__file__).parent
    found = {f"{path.stem}.{name}"
             for path in sorted(package.glob("*.py"))
             for name in _kind_comparisons(ast.parse(path.read_text()))}
    assert found == {"trajectories._terms", "trajectories.sample"}
    # the walk sees a comparison with a tuple of members, and in a method
    assert _kind_comparisons(ast.parse(
        "class A:\n def f(k):\n  return k in (TrajectoryKind.LINE,)\n"
        "x = TrajectoryKind.HOVER == 1\n")) == {"A.f", "<module>"}
