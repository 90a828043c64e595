"""Flatness transform: thrust/alpha closed form, attitude, body rates,
singular policies."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import fsolve

from liftquad.aero import AeroParams, GRAVITY, GRAVITY_VEC, aero_accel
from liftquad.flatness import (DegenerateBalanceError, FlatSample,
                               SingularCase, SingularSystemError,
                               TransformContext, angular_velocity_from_flat,
                               flatness_transform, symmetry_plane_vector,
                               thrust_and_alpha, wind_frame_accels)

PARAMS = AeroParams()


def make_sample(v, a, j=None, psi=0.0):
    return FlatSample(np.zeros(3), np.asarray(v, float), np.asarray(a, float),
                      np.zeros(3) if j is None else np.asarray(j, float), psi)


def in_plane_residual(params, speed, a_along, a_perp, thrust, alpha):
    """Independent force balance along and across the airspeed direction."""
    q_s = 0.5 * params.rho * params.area * speed * speed
    drag = q_s * (params.cd0 + params.cla * math.sin(alpha) ** 2)
    lift = q_s * params.cla * math.sin(alpha) * math.cos(alpha)
    tilt = alpha - params.kappa
    r_along = params.mass * a_along - (-drag + thrust * math.sin(tilt))
    r_perp = params.mass * a_perp - (-lift + thrust * math.cos(tilt))
    return r_along, r_perp


def test_wind_axis_basics():
    # the unit airspeed direction on the smooth branch; at (air)standstill
    # the transform falls back to the zero-velocity policy instead
    def transform(v, wind=None):
        return flatness_transform(PARAMS, make_sample(v, [0.0] * 3), wind=wind)

    for v, axis in (([10.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                    ([3.0, 4.0, 0.0], [0.6, 0.8, 0.0])):
        out = transform(v)
        assert out.singular is SingularCase.NONE
        assert_allclose(out.wind_axis, axis)
    assert transform([0.0] * 3).singular is SingularCase.ZERO_VELOCITY
    assert transform([5.0, 0.0, 0.0], wind=np.array([5.0, 0.0, 0.0])
                     ).singular is SingularCase.ZERO_VELOCITY


def test_wind_frame_accels_level_flight():
    along, perp = wind_frame_accels(np.array([1.0, 0.0, 0.0]), np.zeros(3))
    assert along == pytest.approx(0.0)
    assert perp == pytest.approx(-GRAVITY)


def test_wind_frame_accels_free_fall():
    along, perp = wind_frame_accels(np.array([1.0, 0.0, 0.0]), GRAVITY_VEC)
    assert along == pytest.approx(0.0, abs=1e-15)
    assert perp == pytest.approx(0.0, abs=1e-15)


def test_wind_frame_accels_hand_case():
    # oracle: project (2,0,-3) - (0,0,9.81) on and off (1,0,0)
    along, perp = wind_frame_accels(np.array([1.0, 0.0, 0.0]),
                                    np.array([2.0, 0.0, -3.0]))
    assert along == pytest.approx(2.0)
    assert perp == pytest.approx(-12.81)


def test_wind_frame_accels_perp_never_positive():
    rng = np.random.default_rng(31)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        _, perp = wind_frame_accels(axis, rng.uniform(-20, 20, size=3))
        assert perp <= 0.0


def test_thrust_alpha_standstill_limit():
    # no dynamic pressure: pure thrust support, chord on the axis
    thrust, alpha = thrust_and_alpha(PARAMS, 0.0, 0.0, -GRAVITY)
    assert thrust == pytest.approx(-PARAMS.mass * GRAVITY)
    assert alpha == pytest.approx(PARAMS.kappa)


def test_thrust_alpha_zero_aero_reduces_to_norm():
    bare = PARAMS.zeroed()
    rng = np.random.default_rng(32)
    for _ in range(100):
        a_along = rng.uniform(-8.0, 8.0)
        a_perp = -rng.uniform(0.1, 15.0)
        thrust, _ = thrust_and_alpha(bare, rng.uniform(0.0, 12.0),
                                     a_along, a_perp)
        assert thrust == pytest.approx(
            -bare.mass * math.hypot(a_along, a_perp), rel=1e-12)


def test_thrust_alpha_level_cruise_residual():
    thrust, alpha = thrust_and_alpha(PARAMS, 10.0, 0.0, -GRAVITY)
    r_along, r_perp = in_plane_residual(PARAMS, 10.0, 0.0, -GRAVITY,
                                        thrust, alpha)
    assert abs(r_along) < 1e-8 * PARAMS.mass * GRAVITY
    assert abs(r_perp) < 1e-8 * PARAMS.mass * GRAVITY
    assert thrust < 0.0


def test_thrust_alpha_matches_root_finder():
    # oracle: solve the two-equation balance numerically and compare
    def solve_numeric(speed, a_along, a_perp, guess):
        def residual(x):
            return in_plane_residual(PARAMS, speed, a_along, a_perp,
                                     x[0], x[1])
        sol, info, ok, _ = fsolve(residual, guess, full_output=True)
        return (sol, np.max(np.abs(info["fvec"]))) if ok == 1 else (None, None)

    rng = np.random.default_rng(33)
    checked = 0
    for _ in range(60):
        speed = rng.uniform(1.0, 12.0)
        a_along = rng.uniform(-5.0, 5.0)
        a_perp = -rng.uniform(0.5, 14.0)
        thrust, alpha = thrust_and_alpha(PARAMS, speed, a_along, a_perp)
        sol, resid = solve_numeric(speed, a_along, a_perp, (thrust, alpha))
        if sol is None or resid > 1e-9:
            continue
        assert sol[0] == pytest.approx(thrust, rel=1e-6, abs=1e-6)
        assert math.sin(sol[1]) == pytest.approx(math.sin(alpha), abs=1e-6)
        assert math.cos(sol[1]) == pytest.approx(math.cos(alpha), abs=1e-6)
        checked += 1
    assert checked >= 50


def test_thrust_alpha_always_nonpositive():
    rng = np.random.default_rng(34)
    for _ in range(300):
        try:
            thrust, _ = thrust_and_alpha(
                PARAMS, rng.uniform(0.0, 15.0), rng.uniform(-10.0, 10.0),
                -rng.uniform(0.0, 20.0))
        except DegenerateBalanceError:
            continue
        assert thrust <= 0.0


def test_thrust_alpha_degenerate_raises():
    # tail-sitter with the along-axis demand exactly met by drag+lift
    params = AeroParams(kappa=0.5 * math.pi)
    q_s = 0.5 * params.rho * params.area * 100.0
    a_along = -(params.cd0 + params.cla) * q_s / params.mass
    with pytest.raises(DegenerateBalanceError):
        thrust_and_alpha(params, 10.0, a_along, 0.0)


def test_attitude_orthogonality_invariants():
    rng = np.random.default_rng(35)
    for _ in range(100):
        v = rng.uniform(-10.0, 10.0, size=3)
        if np.linalg.norm(v) < 1.0:
            continue
        sample = make_sample(v, rng.uniform(-5.0, 5.0, size=3))
        out = flatness_transform(PARAMS, sample)
        if out.singular is not SingularCase.NONE:
            continue
        rotation, alpha, thrust, axis = (out.rotation, out.alpha, out.thrust,
                                         out.wind_axis)
        plane = symmetry_plane_vector(PARAMS, sample.v, sample.a)
        y_body = rotation[:, 1]
        assert abs(float(y_body @ plane)) < 1e-12 * np.linalg.norm(plane)
        assert abs(float(y_body @ axis)) < 1e-12
        assert float(rotation[:, 0] @ axis) == pytest.approx(
            math.cos(alpha - PARAMS.kappa), abs=1e-12)
        assert np.linalg.norm(rotation.T @ rotation - np.eye(3)) < 1e-12
        assert thrust <= 0.0


def test_attitude_rejects_standstill():
    # the smooth construction is refused below the entry speed; the
    # zero-velocity policy takes over and is flagged
    out = flatness_transform(PARAMS, make_sample([0.01, 0.0, 0.0], [0.0] * 3))
    assert out.singular is SingularCase.ZERO_VELOCITY


def test_attitude_rejects_aligned_demand():
    # vertical climb: the airspeed is parallel to the demanded force, so
    # the smooth lateral axis is undefined and the aligned policy is flagged
    out = flatness_transform(PARAMS, make_sample([0.0, 0.0, -3.0], [0.0] * 3))
    assert out.singular is SingularCase.AXIS_ALIGNED


def test_level_cruise_is_wings_level_with_zero_rates():
    sample = make_sample([10.0, 0.0, 0.0], [0.0] * 3)
    out = flatness_transform(PARAMS, sample)
    assert out.singular is SingularCase.NONE
    assert_allclose(out.rotation[:, 1], [0.0, 1.0, 0.0], atol=1e-15)
    # homogeneous rate system with a level lateral axis: exact zeros
    assert_allclose(out.omega, np.zeros(3))


def test_rate_system_residual_and_turn_constraint():
    rng = np.random.default_rng(36)
    checked = 0
    for _ in range(200):
        v = rng.uniform(-10.0, 10.0, size=3)
        if np.linalg.norm(v) < 1.0:
            continue
        sample = make_sample(v, rng.uniform(-4.0, 4.0, size=3),
                             rng.uniform(-3.0, 3.0, size=3))
        out = flatness_transform(PARAMS, sample)
        if out.singular is not SingularCase.NONE:
            continue
        try:
            omega = angular_velocity_from_flat(PARAMS, sample, out.rotation,
                                               out.thrust)
        except SingularSystemError:
            continue
        v_body = out.rotation.T @ sample.v
        turn = omega[0] * v_body[2] - omega[2] * v_body[0] \
            + GRAVITY * out.rotation[2, 1]
        assert abs(turn) < 1e-12 * max(np.linalg.norm(v), 1.0)
        checked += 1
    assert checked >= 150


def test_rate_matches_finite_difference_of_attitude():
    # oracle: differentiate the attitude sequence along an analytic arc
    def arc(t):
        # smooth non-planar path with nonzero jerk
        p = np.array([5.0 * math.sin(0.4 * t), 4.0 * t, -2.0 * math.cos(0.3 * t)])
        v = np.array([2.0 * math.cos(0.4 * t), 4.0, 0.6 * math.sin(0.3 * t)])
        a = np.array([-0.8 * math.sin(0.4 * t), 0.0, 0.18 * math.cos(0.3 * t)])
        j = np.array([-0.32 * math.cos(0.4 * t), 0.0,
                      -0.054 * math.sin(0.3 * t)])
        return FlatSample(p, v, a, j)

    h = 1e-5
    from liftquad.geom import unskew
    for t in np.linspace(0.3, 12.0, 40):
        outs = [flatness_transform(PARAMS, arc(tt)) for tt in
                (t - h, t, t + h)]
        assert all(o.singular is SingularCase.NONE for o in outs)
        r_dot = (outs[2].rotation - outs[0].rotation) / (2.0 * h)
        omega_fd = unskew(outs[1].rotation.T @ r_dot)
        assert_allclose(outs[1].omega, omega_fd, atol=1e-5)


def test_rate_system_rejects_zero_airspeed():
    sample = make_sample([0.0] * 3, [0.0] * 3)
    with pytest.raises(SingularSystemError):
        angular_velocity_from_flat(PARAMS, sample, np.eye(3), -14.0)


def test_hover_output():
    out = flatness_transform(PARAMS, make_sample([0.0] * 3, [0.0] * 3))
    assert out.singular is SingularCase.ZERO_VELOCITY
    assert_allclose(out.rotation, np.eye(3))
    assert out.thrust == pytest.approx(-PARAMS.mass * GRAVITY)
    assert out.alpha == pytest.approx(PARAMS.kappa)
    assert_allclose(out.omega, np.zeros(3))


def test_hover_with_heading_yaws_identity():
    psi = 0.7
    out = flatness_transform(PARAMS, make_sample([0.0] * 3, [0.0] * 3,
                                                 psi=psi))
    assert_allclose(out.rotation[:, 0],
                    [math.cos(psi), math.sin(psi), 0.0], atol=1e-12)
    assert out.thrust == pytest.approx(-PARAMS.mass * GRAVITY)


def test_free_fall_at_rest_gives_zero_thrust():
    out = flatness_transform(PARAMS, make_sample([0.0] * 3, GRAVITY_VEC))
    assert out.singular is SingularCase.ZERO_VELOCITY
    assert out.thrust == 0.0


def test_vertical_ascent_uses_aligned_fallback():
    out = flatness_transform(PARAMS, make_sample([0.0, 0.0, -3.0], [0.0] * 3))
    assert out.singular is SingularCase.AXIS_ALIGNED
    assert np.linalg.norm(out.rotation.T @ out.rotation - np.eye(3)) < 1e-12
    assert abs(np.linalg.det(out.rotation) - 1.0) < 1e-12
    assert out.thrust <= 0.0
    # the heading fallback fixes the lateral axis
    assert_allclose(out.rotation[:, 1], [0.0, 1.0, 0.0], atol=1e-12)


def test_degenerate_balance_policy_in_transform():
    # aero alone meets the demand: transform answers zero thrust, chord
    # on the path, instead of raising
    params = AeroParams(kappa=0.5 * math.pi)
    q_s = 0.5 * params.rho * params.area * 100.0
    a_along = -(params.cd0 + params.cla) * q_s / params.mass
    accel = GRAVITY_VEC + np.array([a_along, 0.0, 0.0])
    out = flatness_transform(params, make_sample([10.0, 0.0, 0.0], accel))
    assert out.thrust == 0.0
    assert out.alpha == pytest.approx(params.kappa)


def test_zero_aero_reduction_matches_quadcopter_flatness():
    bare = PARAMS.zeroed()
    rng = np.random.default_rng(37)
    for _ in range(100):
        v = rng.uniform(-10.0, 10.0, size=3)
        if np.linalg.norm(v) < 1.0:
            continue
        a = rng.uniform(-5.0, 5.0, size=3)
        out = flatness_transform(bare, make_sample(v, a))
        if out.singular is not SingularCase.NONE:
            continue
        demand = a - GRAVITY_VEC
        assert_allclose(out.rotation[:, 2],
                        -demand / np.linalg.norm(demand), atol=1e-12)
        assert out.thrust == pytest.approx(
            -bare.mass * np.linalg.norm(demand), rel=1e-12)


def test_held_axis_survives_slowdown():
    ctx = TransformContext()
    fast = make_sample([0.0, 6.0, 0.0], [0.0] * 3)
    out_fast = flatness_transform(PARAMS, fast, ctx)
    assert out_fast.singular is SingularCase.NONE
    slow = make_sample([0.0, 0.05, 0.0], [0.0] * 3, psi=0.0)
    out_slow = flatness_transform(PARAMS, slow, ctx)
    assert out_slow.singular is SingularCase.ZERO_VELOCITY
    # lateral geometry built from the remembered flight direction, not
    # the yaw fallback
    assert_allclose(out_slow.wind_axis, [0.0, 1.0, 0.0], atol=1e-12)


def test_hysteresis_band_thresholds():
    ctx = TransformContext()
    flatness_transform(PARAMS, make_sample([0.1, 0.0, 0.0], [0.0] * 3), ctx)
    assert ctx.in_singular
    # inside the band: still singular on the way up
    out = flatness_transform(PARAMS, make_sample([0.4, 0.0, 0.0], [0.0] * 3),
                             ctx)
    assert out.singular is SingularCase.ZERO_VELOCITY
    out = flatness_transform(PARAMS, make_sample([0.55, 0.0, 0.0], [0.0] * 3),
                             ctx)
    assert out.singular is SingularCase.NONE
    assert not ctx.in_singular
    # inside the band on the way down: stays smooth
    out = flatness_transform(PARAMS, make_sample([0.4, 0.0, 0.0], [0.0] * 3),
                             ctx)
    assert out.singular is SingularCase.NONE


def test_transform_is_total_over_random_inputs():
    rng = np.random.default_rng(38)
    ctx = TransformContext()
    for _ in range(500):
        sample = make_sample(rng.uniform(-12.0, 12.0, size=3),
                             rng.uniform(-15.0, 15.0, size=3),
                             rng.uniform(-5.0, 5.0, size=3),
                             psi=rng.uniform(-math.pi, math.pi))
        out = flatness_transform(PARAMS, sample, ctx)
        assert np.linalg.norm(out.rotation.T @ out.rotation - np.eye(3)) < 1e-9
        assert out.thrust <= 0.0
        assert np.all(np.isfinite(out.omega))
        assert out.accel_perp <= 0.0


def test_symmetry_plane_vector_zero_side_coefficient():
    v = np.array([3.0, 1.0, 0.0])
    a = np.array([0.5, -0.2, 0.1])
    assert_allclose(symmetry_plane_vector(PARAMS, v, a), a - GRAVITY_VEC)


def test_feedforward_consistency_along_figure_eight():
    # every smooth output closes the translational dynamics
    from liftquad.trajectories import TrajectoryDef, TrajectoryKind, sample
    traj = TrajectoryDef(kind=TrajectoryKind.LEMNISCATE)
    ctx = TransformContext()
    for k in range(500):
        ref = sample(traj, k * 0.05)
        out = flatness_transform(PARAMS, ref, ctx)
        if out.singular is not SingularCase.NONE:
            continue
        accel = out.rotation @ np.array([0.0, 0.0, out.thrust]) / PARAMS.mass \
            + aero_accel(PARAMS, out.rotation, ref.v) + GRAVITY_VEC
        assert np.linalg.norm(accel - ref.a) < 1e-10
