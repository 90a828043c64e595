"""Flatness transform: thrust/alpha closed form, attitude, body rates,
singular policies."""

import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import fsolve

from liftquad.aero import AeroParams, GRAVITY, aero_accel
from liftquad.flatness import (FlatSample, SingularCase, TransformContext,
                               angular_velocity_from_flat,
                               flatness_transform, symmetry_plane_vector,
                               thrust_and_alpha, wind_frame_accels)
from oracles import GRAVITY_VEC, IDENTITY_ROWS, assert_overflow_in

PARAMS = AeroParams()


def make_sample(v, a, j=None, psi=0.0):
    """A sample at the origin, its vectors as float 3-tuples."""
    return FlatSample((0.0, 0.0, 0.0), tuple(map(float, v)),
                      tuple(map(float, a)),
                      (0.0, 0.0, 0.0) if j is None else tuple(map(float, j)),
                      psi)


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
    def transform(v, wind=(0.0, 0.0, 0.0)):
        return flatness_transform(PARAMS.replace(wind=wind),
                                  make_sample(v, [0.0] * 3))

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
        balance = thrust_and_alpha(
            PARAMS, rng.uniform(0.0, 15.0), rng.uniform(-10.0, 10.0),
            -rng.uniform(0.0, 20.0))
        if balance is None:   # degenerate
            continue
        thrust, _ = balance
        assert thrust <= 0.0


def test_thrust_alpha_degenerate_is_none():
    # tail-sitter with the along-axis demand exactly met by drag+lift
    params = AeroParams(kappa=0.5 * math.pi)
    q_s = 0.5 * params.rho * params.area * 100.0
    a_along = -(params.cd0 + params.cla) * q_s / params.mass
    assert thrust_and_alpha(params, 10.0, a_along, 0.0) is None


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
        rotation, alpha, thrust, axis = (np.asarray(out.rotation), out.alpha,
                                         out.thrust, out.wind_axis)
        plane = symmetry_plane_vector(PARAMS, sample.v, sample.a,
                                      math.hypot(*sample.v))
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
    assert_allclose(np.asarray(out.rotation)[:, 1], [0.0, 1.0, 0.0],
                    atol=1e-15)
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
        omega = angular_velocity_from_flat(PARAMS, sample, out.rotation,
                                           out.thrust, sample.v,
                                           math.hypot(*sample.v))
        if omega is None:   # singular
            continue
        rotation = np.asarray(out.rotation)
        v_body = rotation.T @ sample.v
        turn = omega[0] * v_body[2] - omega[2] * v_body[0] \
            + GRAVITY * rotation[2, 1]
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
    from oracles import unskew
    for t in np.linspace(0.3, 12.0, 40):
        outs = [flatness_transform(PARAMS, arc(tt)) for tt in
                (t - h, t, t + h)]
        assert all(o.singular is SingularCase.NONE for o in outs)
        r_minus, r_mid, r_plus = (np.asarray(o.rotation) for o in outs)
        r_dot = (r_plus - r_minus) / (2.0 * h)
        omega_fd = unskew(r_mid.T @ r_dot)
        assert_allclose(outs[1].omega, omega_fd, atol=1e-5)


def test_rate_system_rejects_zero_airspeed():
    sample = make_sample([0.0] * 3, [0.0] * 3)
    assert angular_velocity_from_flat(PARAMS, sample, np.eye(3), -14.0,
                                      sample.v, 0.0) is None


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_rate_system_threshold_scales_with_the_cube_of_the_matrix(scale):
    # without aero terms the system is [[0, c, 0], [-c, 0, 0], [0, 0, -u]]
    # at identity attitude and airspeed (u, 0, 0): its determinant c^2 u
    # against DET_TOL * scale^3, scale ~ u, reads (c/u)^2 against 1e-9
    # at any scale, so a ratio of 2e-9 solves and one of 5e-10 does not
    params = PARAMS.zeroed()
    for ratio, solved in ((2e-9, True), (5e-10, False)):
        thrust = params.mass * scale * math.sqrt(ratio)
        out = angular_velocity_from_flat(
            params, make_sample([0.0] * 3, [0.0] * 3), IDENTITY_ROWS, thrust,
            (scale, 0.0, 0.0), scale)
        assert (out is not None) is solved


def test_ill_conditioned_rate_system_takes_the_zero_rate():
    # an axis-aligned sample whose body-rate system passes the scale test
    # but has a Hadamard ratio of 3.8e-8: it solved to omega ~ 1e8 rad/s
    params = AeroParams(mass=1.0, kappa=1.0, cd0=5.96e-08, cy0=1.0, cla=3.0,
                        wind=(0.0, 0.0, 1.0))
    out = flatness_transform(params, make_sample([0.0] * 3, GRAVITY_VEC,
                                                 [0.0, 1.0, 0.0]))
    assert out.singular is SingularCase.AXIS_ALIGNED
    assert out.omega == (0.0, 0.0, 0.0)


def test_rate_system_with_subnormal_coefficients_stays_quiet():
    # a subnormal lift slope puts subnormal entries in the body-rate
    # system; deciding that it is singular must not divide by them
    params = AeroParams(mass=1.0, kappa=1.0, cd0=0.0, cla=2.2e-309,
                        wind=np.array([0.0, 0.0, 1.0]))
    out = flatness_transform(params, make_sample([0.0] * 3, GRAVITY_VEC))
    assert out.singular is SingularCase.AXIS_ALIGNED
    assert_allclose(out.omega, np.zeros(3))


def test_free_fall_reference_in_motion_keeps_airspeed_in_symmetry_plane():
    # no force demanded and no aerodynamics: the plane vector vanishes and
    # the yaw fallback (here across the airspeed) must not become the
    # lateral axis, or the attitude degenerates to NaN
    params = PARAMS.zeroed()
    for v, psi in (([0.0, 1.0, 0.0], 0.0), ([3.0, 0.0, 0.0], 0.5 * math.pi),
                   ([1.0, 2.0, -0.5], 0.3)):
        out = flatness_transform(params, make_sample(v, GRAVITY_VEC, psi=psi))
        assert out.singular is SingularCase.AXIS_ALIGNED
        rotation = np.asarray(out.rotation)
        assert np.all(np.isfinite(rotation))
        assert_allclose(rotation.T @ rotation, np.eye(3), atol=1e-12)
        assert abs(float(rotation[:, 1] @ out.wind_axis)) < 1e-12
        assert abs(rotation[2, 1]) < 1e-12     # wings level
    # vertical free fall keeps the yaw fallback
    out = flatness_transform(params, make_sample([0.0, 0.0, 2.0], GRAVITY_VEC))
    assert_allclose(np.asarray(out.rotation)[:, 1], [0.0, 1.0, 0.0],
                    atol=1e-15)


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
    assert_allclose(np.asarray(out.rotation)[:, 0],
                    [math.cos(psi), math.sin(psi), 0.0], atol=1e-12)
    assert out.thrust == pytest.approx(-PARAMS.mass * GRAVITY)


def test_free_fall_at_rest_gives_zero_thrust():
    out = flatness_transform(PARAMS, make_sample([0.0] * 3, GRAVITY_VEC))
    assert out.singular is SingularCase.ZERO_VELOCITY
    assert out.thrust == 0.0


def test_vertical_ascent_uses_aligned_fallback():
    out = flatness_transform(PARAMS, make_sample([0.0, 0.0, -3.0], [0.0] * 3))
    assert out.singular is SingularCase.AXIS_ALIGNED
    rotation = np.asarray(out.rotation)
    assert np.linalg.norm(rotation.T @ rotation - np.eye(3)) < 1e-12
    assert abs(np.linalg.det(rotation) - 1.0) < 1e-12
    assert out.thrust <= 0.0
    # the heading fallback fixes the lateral axis
    assert_allclose(rotation[:, 1], [0.0, 1.0, 0.0], atol=1e-12)


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
        assert_allclose(np.asarray(out.rotation)[:, 2],
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


@pytest.mark.parametrize("strict", [False, True], ids=["default", "strict"])
@pytest.mark.parametrize("speed", [1e160, 1e300])
def test_overflow_raises_one_error_in_any_error_state(speed, strict):
    # a finite sample whose arithmetic overflows: one FloatingPointError
    # naming the transform, whatever numpy's error state, and no warning
    sample = make_sample([speed, 0.0, 0.0], [0.0] * 3)
    state = (np.errstate(over="raise", divide="raise", invalid="raise")
             if strict else nullcontext())
    with warnings.catch_warnings(), state:
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="^overflow encountered in the flatness "
                                 "transform$"):
            flatness_transform(PARAMS, sample)


@pytest.mark.parametrize("call, where, value", [
    (lambda: flatness_transform(PARAMS, make_sample([1e200, 0, 0], [0] * 3)),
     "flatness_transform", "speed"),
    (lambda: thrust_and_alpha(AeroParams(cd0=1e308), 10.0, 0.0, -GRAVITY),
     "thrust_and_alpha", "k1"),
    (lambda: flatness_transform(AeroParams(cy0=1e300),
                                make_sample([10, 0, 0], [0] * 3)),
     "flatness_transform", "plane_norm"),
    (lambda: flatness_transform(PARAMS, make_sample([0] * 3, [1e200, 0, 0])),
     "flatness_transform", "plane_norm"),
    (lambda: flatness_transform(AeroParams(mass=1e200),
                                make_sample([0] * 3, [0, 0, -1e150])),
     "flatness_transform", "thrust"),
    # a side force that turns body z along the demand at rest: the
    # projection overflows to +inf, which the thrust clamp passes
    (lambda: flatness_transform(
        AeroParams(mass=1e300, rho=1e10, area=1e10, cy0=1e291),
        make_sample([0, 0, 0.2], [0, 0, -1e9])),
     "flatness_transform", "thrust"),
    (lambda: angular_velocity_from_flat(
        PARAMS, make_sample([10, 0, 0], [0] * 3), IDENTITY_ROWS, -1e200,
        (10.0, 0.0, 0.0), 10.0),
     "angular_velocity_from_flat", "cube"),
    (lambda: flatness_transform(PARAMS, make_sample([10, 0, 0], [0] * 3,
                                                    [0, 1e308, 0])),
     "flatness_transform", "ox"),
], ids=["speed", "normalizer", "plane", "hover-plane", "hover-thrust",
        "hover-thrust-up", "rate-scale", "output"])
def test_each_overflow_check_raises_the_one_error(call, where, value):
    # each check is an inline test before its branch or clamp: the one
    # FloatingPointError naming the transform comes from the frame that
    # holds the value which overflowed
    assert_overflow_in("flatness transform", where, value, call)


def test_symmetry_plane_vector_zero_side_coefficient():
    v = np.array([3.0, 1.0, 0.0])
    a = np.array([0.5, -0.2, 0.1])
    assert_allclose(symmetry_plane_vector(PARAMS, v, a, np.linalg.norm(v)),
                    a - GRAVITY_VEC)


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


@pytest.mark.parametrize("kind", ["circle", "lemniscate"])
@pytest.mark.parametrize("kappa_deg", [16.0, 34.0, 60.0, 90.0])
def test_feedforward_replay_holds_at_every_installation_angle(kind, kappa_deg):
    # one control law for any wing angle: the plant, flying the
    # transform's own commands at substep midpoints over [2, 4] s (the
    # replay of acceptance criterion 1), stays on the reference
    from liftquad.control import ControlInput
    from liftquad.dynamics import PlantConfig, VehicleState, rk4_step
    from liftquad.geom import mat_to_quat
    from liftquad.trajectories import TrajectoryDef, TrajectoryKind, sample
    params = AeroParams(kappa=math.radians(kappa_deg))
    plant = PlantConfig(aero=params)
    traj = TrajectoryDef(kind=TrajectoryKind(kind))
    ctx = TransformContext()
    dt, h = 1.0 / 250.0, plant.step

    def transform(t):
        out = flatness_transform(params, sample(traj, t), ctx)
        assert out.singular is SingularCase.NONE
        return out

    ref0, rotation = sample(traj, 2.0), transform(2.0).rotation
    state = VehicleState(ref0.p, ref0.v, mat_to_quat(rotation), rotation)
    worst = 0.0
    for k in range(501):
        t = 2.0 + k * dt
        worst = max(worst, float(np.linalg.norm(
            np.asarray(state.p) - sample(traj, t).p)))
        if k < 500:
            for sub in range(4):
                flat = transform(t + (sub + 0.5) * h)
                state = rk4_step(plant, state,
                                 ControlInput(flat.thrust, flat.omega))
    assert worst <= 1e-6
