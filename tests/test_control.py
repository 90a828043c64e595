"""Controller cascade: loop arithmetic, attitude/thrust extraction,
attitude error, saturation, context handling."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftquad import harness
from liftquad.aero import AeroParams, GRAVITY, aero_accel
from liftquad.config import build_config
from liftquad.control import (ControlGains, ControlLimits, ControllerContext,
                              accel_to_attitude_thrust, attitude_loop,
                              controller_step, position_loop, saturate,
                              velocity_loop)
from liftquad.flatness import (FlatSample, SingularCase, TransformContext,
                               flatness_transform)
from liftquad.geom import mat_to_quat
from liftquad.harness import run_experiment
from oracles import EZ, GRAVITY_VEC, assert_overflow_in, rodrigues

PARAMS = AeroParams()


def measured(p, v, R):
    """The controller's measurement of a vehicle at attitude ``R``."""
    return np.asarray(p, float), np.asarray(v, float), mat_to_quat(R)


def cruise_reference(speed=8.0):
    sample = FlatSample(np.zeros(3), np.array([speed, 0.0, 0.0]),
                        np.zeros(3), np.zeros(3))
    flat = flatness_transform(PARAMS, sample)
    assert flat.singular is SingularCase.NONE
    return sample, flat


def test_gains_broadcast_and_validate():
    gains = ControlGains(kpp=2.0, kvp=[1.0, 2.0, 3.0],
                         ktp=np.array([4.0, 5.0, 6.0]), kvi=np.array(0.5))
    assert gains.kpp == (2.0, 2.0, 2.0)
    assert gains.kvp == (1.0, 2.0, 3.0)
    assert gains.ktp == (4.0, 5.0, 6.0)
    assert gains.kvi == (0.5, 0.5, 0.5)
    for name in ("kpp", "kvp", "ktp", "kvi"):
        assert all(type(k) is float for k in getattr(gains, name)), name
    # each refusal names the config key of the first entry out of range
    with pytest.raises(ValueError,
                       match=r"^gains\.kvp\.x must be >= 0, got -1\.0$"):
        ControlGains(kvp=-1.0)
    with pytest.raises(ValueError,
                       match=r"^gains\.ktp\.y must be >= 0, got -2\.0$"):
        ControlGains(ktp=np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError,
                       match=r"^gains\.kff\.y must be <= 1, got 1\.5$"):
        ControlGains(kff=[0.8, 1.5, 0.8])
    shape = r"^gains\.kpp must be three finite numbers$"
    for bad in ([1.0, 2.0], np.zeros(4), [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match=shape):
            ControlGains(kpp=bad)


def test_limits_validate():
    with pytest.raises(ValueError):
        ControlLimits(thrust_factor=-1.0)
    with pytest.raises(ValueError):
        ControlLimits(omega_max=0.0)


def test_position_loop_arithmetic():
    gains = ControlGains(kpp=[1.0, 2.0, 3.0])
    v_d = position_loop(gains, np.array([1.0, 1.0, 1.0]),
                        np.array([0.0, 0.5, 2.0]),
                        np.array([0.1, 0.2, 0.3]))
    # oracle: kpp * e_p + v_ref, per axis by hand
    assert_allclose(v_d, [1.1, 1.2, -2.7])


def test_velocity_loop_pd_only():
    gains = ControlGains(kvp=2.0, kvi=0.5)
    integ = np.array([0.3, 0.0, 0.0])
    a_d, integ_out = velocity_loop(gains, False, np.array([1.0, 0.0, 0.0]),
                                   np.zeros(3), np.array([0.0, 0.0, 0.5]),
                                   integ, 0.01)
    assert_allclose(a_d, [2.3, 0.0, 0.5])
    assert integ_out is integ


def test_velocity_loop_integrator_accumulates():
    gains = ControlGains(kvp=0.0, kvi=2.0)
    integ = np.zeros(3)
    errors = [np.array([1.0, -0.5, 0.0]), np.array([0.5, -0.5, 2.0])]
    dt = 0.1
    expected = np.zeros(3)
    for err in errors:
        a_d, integ = velocity_loop(gains, True, err, np.zeros(3), np.zeros(3),
                                   integ, dt)
        expected = expected + gains.kvi * err * dt
        assert_allclose(integ, expected)
        assert_allclose(a_d, expected)


def test_velocity_loop_integrator_clamps():
    gains = ControlGains(kvp=0.0, kvi=10.0, integrator_limit=1.0)
    integ = np.zeros(3)
    for _ in range(100):
        _, integ = velocity_loop(gains, True,
                                 np.array([5.0, -5.0, 0.0]), np.zeros(3),
                                 np.zeros(3), integ, 0.1)
    assert_allclose(integ, [1.0, -1.0, 0.0])


def test_hover_demand_gives_level_attitude_and_weight():
    sample = FlatSample(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))
    flat = flatness_transform(PARAMS, sample)
    rotation, thrust, free_fall = accel_to_attitude_thrust(
        PARAMS, ControlGains(), np.zeros(3), flat)
    assert not free_fall
    assert_allclose(rotation, np.eye(3), atol=1e-15)
    assert thrust == pytest.approx(-PARAMS.mass * GRAVITY)


def test_free_fall_demand_holds_attitude():
    # on the reference, the stock loops demand a = g: free fall
    ref = FlatSample(np.zeros(3), np.zeros(3), GRAVITY_VEC, np.zeros(3))
    state = measured(np.zeros(3), np.zeros(3), rodrigues(EZ, 0.3))
    flat = flatness_transform(PARAMS, ref)
    _, thrust, free_fall = accel_to_attitude_thrust(
        PARAMS, ControlGains(), ref.a, flat)
    assert free_fall and thrust == 0.0
    # a fresh context takes the reference attitude
    ctx = ControllerContext()
    bounds = ControlLimits().bounds(PARAMS)
    cmd = controller_step(PARAMS, ControlGains(), True, bounds, ref, flat,
                          state, ctx, 0.004)
    assert cmd.thrust == 0.0
    assert np.array_equal(ctx.held_quat, mat_to_quat(flat.rotation))
    # a held attitude survives bit for bit
    held = mat_to_quat(rodrigues(EZ, -0.7))
    ctx = ControllerContext(held_quat=held)
    controller_step(PARAMS, ControlGains(), True, bounds, ref, flat, state,
                    ctx, 0.004)
    assert ctx.held_quat is held
    assert np.array_equal(held, mat_to_quat(rodrigues(EZ, -0.7)))


def test_aero_feedforward_shifts_demand():
    # aero feedforward off, a run believes the wingless model
    sample, flat = cruise_reference()
    gains = ControlGains()
    a_d = np.array([0.5, 0.0, -0.2])
    with_ff, thrust_ff, _ = accel_to_attitude_thrust(PARAMS, gains, a_d, flat)
    without, thrust_raw, _ = accel_to_attitude_thrust(
        PARAMS.zeroed(), gains, a_d, flat)
    with_ff, without = np.asarray(with_ff), np.asarray(without)
    assert np.linalg.norm(with_ff - without) > 1e-3
    assert thrust_ff != pytest.approx(thrust_raw)
    # oracle: rebuild the compensated demand directly
    a_rotor = a_d - GRAVITY_VEC \
        - np.asarray(gains.kff) * aero_accel(PARAMS, flat.rotation, sample.v)
    assert_allclose(with_ff[:, 2], -a_rotor / np.linalg.norm(a_rotor),
                    atol=1e-15)
    assert thrust_ff == pytest.approx(
        PARAMS.mass * float(with_ff[:, 2] @ a_rotor))


def test_lateral_axis_prefers_airspeed_direction():
    sample, flat = cruise_reference()
    rotation, _, _ = accel_to_attitude_thrust(
        PARAMS, ControlGains(), sample.a, flat)
    rotation = np.asarray(rotation)
    assert abs(float(rotation[:, 1] @ flat.wind_axis)) < 1e-12


def test_attitude_loop_zero_error_returns_feedforward():
    gains = ControlGains(ktp=8.0)
    rotation = rodrigues(np.array([0.0, 1.0, 0.0]), 0.4)
    omega_ref = np.array([0.1, -0.2, 0.3])
    q = mat_to_quat(rotation)
    omega = attitude_loop(gains, True, q, q, omega_ref)
    assert_allclose(omega, omega_ref, atol=1e-12)
    omega = attitude_loop(gains, False, q, q, omega_ref)
    assert_allclose(omega, np.zeros(3), atol=1e-12)


def test_attitude_loop_quarter_turn_command():
    # oracle: axis-angle error (0, 0, pi/2) scaled by the gain
    gains = ControlGains(ktp=2.0)
    omega = attitude_loop(gains, False,
                          mat_to_quat(rodrigues(EZ, 0.5 * math.pi)),
                          np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    assert_allclose(omega, [0.0, 0.0, math.pi], atol=1e-12)


def test_saturate_clips_and_is_idempotent():
    cmd = saturate(-20.0, 2.0, -35.0, np.array([3.0, -5.0, 1.0]))
    assert cmd.thrust == -20.0
    assert_allclose(cmd.omega, [2.0, -2.0, 1.0])
    again = saturate(-20.0, 2.0, cmd.thrust, cmd.omega)
    assert again.thrust == cmd.thrust
    assert_allclose(again.omega, cmd.omega)
    assert saturate(-20.0, 2.0, 5.0, np.zeros(3)).thrust == 0.0


def test_controller_passes_feedforward_through_on_reference():
    # on the reference with matched model and full attenuation the
    # cascade must reproduce the flatness command
    gains = ControlGains(kff=1.0)
    limits = ControlLimits()
    ctx = ControllerContext()
    tctx = TransformContext()
    from liftquad.trajectories import TrajectoryDef, TrajectoryKind, sample
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    for t in np.linspace(8.0, 20.0, 25):
        ref = sample(traj, float(t))
        flat = flatness_transform(PARAMS, ref, tctx)
        assert flat.singular is SingularCase.NONE
        state = measured(ref.p, ref.v, flat.rotation)
        cmd = controller_step(PARAMS, gains, True, limits.bounds(PARAMS),
                              ref, flat, state, ctx, 0.004)
        assert cmd.thrust == pytest.approx(flat.thrust, abs=1e-9)
        assert_allclose(cmd.omega, flat.omega, atol=1e-9)
        assert_allclose(ctx.integrator, np.zeros(3), atol=1e-15)


def test_controller_step_matches_manual_stage_replay():
    gains = ControlGains(kpp=1.2, kvp=2.5, kvi=0.4, kff=0.7, ktp=6.0)
    limits = ControlLimits()
    sample, flat = cruise_reference()
    state = measured([0.3, -0.2, 0.1], [7.5, 0.2, -0.1],
                     rodrigues(np.array([0.0, 1.0, 0.0]), 0.05))
    dt = 0.004

    ctx = ControllerContext()
    cmd = controller_step(PARAMS, gains, True, limits.bounds(PARAMS), sample,
                          flat, state, ctx, dt)

    # oracle: replay each stage with the public pieces
    p, v, q = state
    v_d = position_loop(gains, sample.p, p, sample.v)
    a_d, integ = velocity_loop(gains, True, v_d, v, sample.a, np.zeros(3),
                               dt)
    rotation_d, thrust_d, _ = accel_to_attitude_thrust(
        PARAMS, gains, a_d, flat)
    omega_d = attitude_loop(gains, True, mat_to_quat(rotation_d), q,
                            flat.omega)
    expected = saturate(limits.thrust_min(PARAMS), limits.omega_max, thrust_d,
                        omega_d)

    assert cmd.thrust == expected.thrust
    assert_allclose(cmd.omega, expected.omega)
    assert_allclose(ctx.integrator, integ)
    assert_allclose(ctx.held_quat, mat_to_quat(rotation_d))


def test_integrator_freezes_after_thrust_floor():
    gains = ControlGains()
    tight = ControlLimits(thrust_factor=0.68)  # a floor of -10.006 N
    sample, flat = cruise_reference()
    # sinking 5 m/s below the reference demands a hard climb
    state = measured(sample.p, sample.v + np.array([0.0, 0.0, 5.0]),
                     flat.rotation)
    ctx = ControllerContext()
    controller_step(PARAMS, gains, True, tight.bounds(PARAMS), sample, flat,
                    state, ctx, 0.004)
    assert ctx.thrust_saturated
    frozen = np.asarray(ctx.integrator)
    controller_step(PARAMS, gains, True, tight.bounds(PARAMS), sample, flat,
                    state, ctx, 0.004)
    assert_allclose(ctx.integrator, frozen)


def test_integrator_freeze_leaves_the_feedforwards_off():
    # the one-step integrator freeze must not re-enable feedforwards; aero
    # feedforward off, a run believes the wingless model
    gains, bare = ControlGains(), PARAMS.zeroed()
    tight = ControlLimits(thrust_factor=0.68)  # a floor of -10.006 N
    sample, flat = cruise_reference()
    state = measured(sample.p, sample.v + np.array([0.0, 0.0, 5.0]),
                     flat.rotation)
    ctx = ControllerContext()
    bounds = tight.bounds(bare)
    for _ in range(2):
        cmd = controller_step(bare, gains, False, bounds, sample, flat, state,
                              ctx, 0.004)

    ctx_ref = ControllerContext(integrator=np.asarray(ctx.integrator),
                                thrust_saturated=True)
    p, v, q = state
    v_d = position_loop(gains, sample.p, p, sample.v)
    a_d, _ = velocity_loop(gains, False, v_d, v, sample.a,
                           ctx_ref.integrator, 0.004)
    rotation_d, thrust_d, _ = accel_to_attitude_thrust(bare, gains, a_d, flat)
    omega_d = attitude_loop(gains, False, mat_to_quat(rotation_d), q,
                            flat.omega)
    expected = saturate(tight.thrust_min(bare), tight.omega_max, thrust_d,
                        omega_d)
    assert cmd.thrust == expected.thrust
    assert_allclose(cmd.omega, expected.omega)


# sha256 of the thrust-floor probe's trace below, which pins byte for
# byte the ticks on which velocity_loop gets a False ``integrate`` bool
_THRUST_FLOOR_PROBE_SHA256 = (
    "7f70f79538f7cfe11ce6023f409b53df1d70b5abbe4871a6644c776f639185c9")


def test_thrust_floor_probe_trace_is_unchanged(tmp_path, monkeypatch):
    # a 20 m figure-eight at 1 rad/s with the full aerodynamic
    # feedforward holds thrust at its floor on 723 ticks, so velocity_loop
    # gets integrate=False on the tick after each
    cfg = build_config({
        "trajectory.kind": "lemniscate", "trajectory.radius": "20",
        "trajectory.omega": "1.0", "sim.duration": "12",
        **{f"gains.kff.{axis}": "1" for axis in "xyz"}})
    frozen_ticks = []

    def step(*args):
        frozen_ticks.append(args[7].thrust_saturated)
        return controller_step(*args)
    monkeypatch.setattr(harness, "controller_step", step)
    path = tmp_path / "probe.csv"
    run_experiment(cfg).write_csv(path)
    assert sum(frozen_ticks) == 723
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == _THRUST_FLOOR_PROBE_SHA256)


_CRUISE = FlatSample((0.0,) * 3, (8.0, 0.0, 0.0), (0.0,) * 3, (0.0,) * 3)


@pytest.mark.parametrize("call, where, value", [
    (lambda: velocity_loop(ControlGains(kvi=1e308), True, (10.0, 0.0, 0.0),
                           (0.0,) * 3, (0.0,) * 3, (0.0,) * 3, 1.0),
     "velocity_loop", "ix"),
    (lambda: accel_to_attitude_thrust(PARAMS, ControlGains(),
                                      (1e200, 0.0, 0.0),
                                      flatness_transform(PARAMS, _CRUISE)),
     "accel_to_attitude_thrust", "rotor_norm"),
    # upside down: an attitude error near pi times a gain near the
    # largest float
    (lambda: controller_step(PARAMS, ControlGains(ktp=1e308), True,
                             ControlLimits().bounds(PARAMS), _CRUISE,
                             flatness_transform(PARAMS, _CRUISE),
                             ((0.0,) * 3, (8.0, 0.0, 0.0),
                              (0.0, 1.0, 0.0, 0.0)),
                             ControllerContext(), 0.004),
     "controller_step", "wx"),
], ids=["integral", "demand", "command"])
def test_each_overflow_check_raises_the_one_error(call, where, value):
    # each check is an inline test before its clamp, branch or
    # saturation: the one FloatingPointError naming the controller comes
    # from the frame that holds the value which overflowed; on floats,
    # as a tick runs, so that nothing else warns first
    assert_overflow_in("controller", where, value, call)
