"""Reference trajectories: analytic values, splice continuity,
derivative consistency."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

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
    assert hover.switch_time() == math.inf


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
    t_s = traj.switch_time()
    assert t_s == pytest.approx(10.0 / (15.0 * 0.06))
    eps = 1e-10
    before, after = sample(traj, t_s - eps), sample(traj, t_s + eps)
    assert_allclose(before.p, after.p, atol=1e-7)
    assert_allclose(before.v, after.v, atol=1e-7)


def test_circle_constant_phase_speed_and_accel():
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    for t in (traj.switch_time() + 1.0, 40.0, 90.0):
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
