"""Plant model: force composition, exact attitude step, RK4 on position
and velocity, actuator lag."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from liftquad import dynamics
from liftquad.aero import AeroParams, GRAVITY
from liftquad.config import ConfigError, ExperimentConfig
from liftquad.control import ControlInput, ControlLimits
from liftquad.dynamics import (PlantConfig, VehicleState, acceleration,
                               actuator_lag, rk4_step)
from liftquad.trajectories import TrajectoryDef, TrajectoryKind
from oracles import (GRAVITY_VEC, aero_force_wing, body_to_wing_rotation,
                     rodrigues)

EZ = np.array([0.0, 0.0, 1.0])


def make_state(p=(0.0, 0.0, 0.0), v=(0.0, 0.0, 0.0), R=None):
    return VehicleState(np.asarray(p, float), np.asarray(v, float),
                        np.eye(3) if R is None else R)


def test_free_fall_accelerates_at_gravity():
    cfg = PlantConfig(aero=AeroParams().zeroed())
    v_dot = acceleration(cfg, np.eye(3), np.zeros(3), 0.0)
    assert_allclose(v_dot, GRAVITY_VEC)


def test_hover_thrust_balances_weight():
    cfg = PlantConfig()
    v_dot = acceleration(cfg, np.eye(3), np.zeros(3), -cfg.aero.mass * GRAVITY)
    assert_allclose(v_dot, np.zeros(3), atol=1e-15)


def test_force_sum_matches_drag_matrix_route():
    # oracle: thrust plus the wing-frame force rotated to earth, over the
    # mass, plus gravity; independent of the drag-matrix route under test
    cfg = PlantConfig(wind=(1.0, -2.0, 0.5))
    aero = cfg.aero
    wing_to_body = body_to_wing_rotation(aero.kappa).T
    rng = np.random.default_rng(41)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = rodrigues(axis, rng.uniform(-3, 3))
        v = rng.uniform(-10, 10, size=3)
        thrust = -rng.uniform(0, 30)
        v_dot = acceleration(cfg, R, v, thrust)
        f_wing = aero_force_wing(aero, R, v - cfg.v_wind)
        expected = (R @ np.array([0.0, 0.0, thrust])
                    + R @ wing_to_body @ f_wing) / aero.mass + GRAVITY_VEC
        assert_allclose(v_dot, expected, atol=1e-12)


def test_wind_enters_through_relative_velocity():
    cfg_still = PlantConfig()
    cfg_windy = PlantConfig(wind=(3.0, 0.0, 0.0))
    moving = np.array([3.0, 0.0, 0.0])
    v_dot_rel = acceleration(cfg_windy, np.eye(3), moving, 0.0)
    # moving with the wind: no relative airflow, pure free fall
    assert_allclose(v_dot_rel, GRAVITY_VEC, atol=1e-15)
    v_dot_still = acceleration(cfg_still, np.eye(3), moving, 0.0)
    assert np.linalg.norm(v_dot_still - GRAVITY_VEC) > 0.1


def test_rk4_hover_is_a_fixed_point():
    cfg = PlantConfig()
    inp = ControlInput(-cfg.aero.mass * GRAVITY, np.zeros(3))
    state = make_state()
    for _ in range(1000):
        state = rk4_step(cfg, state, inp)
    assert_allclose(state.p, np.zeros(3), atol=1e-12)
    assert_allclose(state.v, np.zeros(3), atol=1e-12)
    assert_allclose(state.R, np.eye(3), atol=1e-12)


def test_rk4_free_fall_velocity_is_exact():
    # linear dynamics: RK4 reproduces v = g t to rounding
    cfg = PlantConfig(aero=AeroParams().zeroed())
    inp = ControlInput(0.0, np.zeros(3))
    state = make_state()
    for _ in range(1000):
        state = rk4_step(cfg, state, inp)
    assert state.v[2] == pytest.approx(GRAVITY, abs=1e-9)
    assert state.p[2] == pytest.approx(0.5 * GRAVITY, abs=1e-9)


def test_rk4_full_turn_returns_to_identity():
    cfg = PlantConfig(aero=AeroParams().zeroed())
    inp = ControlInput(0.0, EZ.copy())
    state = make_state()
    steps = int(round(2.0 * math.pi / cfg.step))
    dt_last = 2.0 * math.pi - steps * cfg.step
    for _ in range(steps):
        state = rk4_step(cfg, state, inp)
    if abs(dt_last) > 0.0:
        state = rk4_step(cfg.replace(step=dt_last), state, inp)
    assert np.linalg.norm(state.R - np.eye(3)) < 1e-6


def test_rk4_attitude_step_is_exact():
    cfg = PlantConfig()
    h = cfg.step
    rng = np.random.default_rng(43)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        state = make_state(v=rng.uniform(-10, 10, size=3),
                           R=rodrigues(axis, rng.uniform(-3, 3)))
        omega = rng.uniform(-6, 6, size=3)
        rate = np.linalg.norm(omega)
        out = rk4_step(cfg, state, ControlInput(-10.0, omega))
        assert_allclose(out.R, state.R @ rodrigues(omega / rate, h * rate),
                        rtol=0, atol=1e-15)
    # no rate: the attitude is left bit for bit
    still = rk4_step(cfg, state, ControlInput(-10.0, np.zeros(3)))
    assert np.array_equal(still.R, state.R)


def test_rotation_stays_orthonormal_over_long_run():
    cfg = PlantConfig()
    inp = ControlInput(-10.0, np.array([0.7, -0.4, 1.3]))
    state = make_state(v=(5.0, 0.0, 0.0))
    worst = 0.0
    for k in range(100000):
        state = rk4_step(cfg, state, inp)
        if k % 500 == 0:
            R = np.asarray(state.R)
            worst = max(worst, np.linalg.norm(R.T @ R - np.eye(3)))
    R = np.asarray(state.R)
    worst = max(worst, np.linalg.norm(R.T @ R - np.eye(3)))
    assert worst < 1e-9


def test_drag_only_dissipates_mechanical_energy():
    cfg = PlantConfig()
    m = cfg.aero.mass
    inp = ControlInput(0.0, np.zeros(3))
    state = make_state(v=(12.0, 0.0, -4.0))

    def energy(s):
        v = np.asarray(s.v)
        return 0.5 * m * float(v @ v) - m * GRAVITY * s.p[2]

    prev = energy(state)
    for _ in range(5000):
        state = rk4_step(cfg, state, inp)
        cur = energy(state)
        assert cur <= prev + 1e-9
        prev = cur


def _at_the_guard(**fields):
    """The config of ``fields`` at its substep count if the step guard
    accepts it, else at the fewest substeps the guard's refusal names;
    None when no count fits the plant-step budget."""
    try:
        return ExperimentConfig(**fields)
    except ConfigError as exc:
        message = str(exc)
        if "the smallest sim.substeps that passes is" not in message:
            return None
        return ExperimentConfig(**{**fields, "substeps": int(message.split()[-1])})


@settings(max_examples=60, deadline=None)
@given(mass=st.floats(-2.0, 2.0).map(lambda x: 10.0 ** x),
       rho=st.floats(0.1, 2.0), area=st.floats(0.0, 5.0),
       cd0=st.floats(0.0, 2.0), cy0=st.floats(0.0, 2.0),
       cla=st.floats(0.0, 10.0),
       kappa=st.floats(math.radians(15.5), math.radians(90.0)),
       speed=st.floats(0.0, 100.0),
       wind=st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3),
       rate=st.integers(1, 1000),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       fraction=st.floats(0.0, 1.0),
       attitude=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
# an airspeed of 6e-8 m/s in a 1 m/s wind, along a direction the rank-1
# drag matrix does not damp: only the rounding of the stored velocity
# moves the energy, by +1.7e-9 relative
@example(mass=1.0, rho=1.0, area=1.0, cd0=0.0, cy0=0.0, cla=1.0, kappa=1.0,
         speed=0.0, wind=[0.0, 0.0, 1.0], rate=1, direction=[0.0, -1.0, 1.0],
         fraction=5.960464477539063e-08, attitude=[0.0, 0.0, 1.0])
def test_guard_accepted_drag_only_plant_dissipates_energy(
        mass, rho, area, cd0, cy0, cla, kappa, speed, wind, rate, direction,
        fraction, attitude):
    # the drag-only plant (zero thrust, no gravity, no body rate) at a
    # step the guard accepts, the fewest substeps it names most often:
    # from any airspeed up to the guard's (the line's speed plus the
    # wind) the kinetic energy in the air's frame never grows, beyond
    # the half ulp that storing each velocity component may round by
    aero = AeroParams(mass=mass, kappa=kappa, rho=rho, area=area, cd0=cd0,
                      cy0=cy0, cla=cla)
    cfg = _at_the_guard(
        trajectory=TrajectoryDef(kind=TrajectoryKind.LINE, speed_cap=speed),
        plant=PlantConfig(aero=aero, wind=wind), rate=rate, duration=1.0)
    assume(cfg is not None)
    norm = math.hypot(*direction)
    assume(norm > 1e-3)
    airspeed = fraction * (speed + math.hypot(*wind)) / norm
    v = [w + airspeed * d for w, d in zip(wind, direction)]
    angle = math.hypot(*attitude)
    R = rodrigues(np.array(attitude) / angle, angle) if angle else np.eye(3)
    state = make_state(v=v, R=R)
    inp = ControlInput(0.0, (0.0, 0.0, 0.0))

    def energy(s):
        return 0.5 * sum((x - w) ** 2 for x, w in zip(s.v, wind))

    prev = energy(state)
    with mock.patch.object(dynamics, "GRAVITY", 0.0):
        for _ in range(200):
            state = rk4_step(cfg.plant, state, inp)
            cur = energy(state)
            assert cur <= prev * (1.0 + 1e-12) + sum(
                abs(x - w) * math.ulp(x) for x, w in zip(state.v, wind))
            prev = cur


def test_actuator_lag_passthrough_when_disabled():
    cfg = PlantConfig()
    cmd = ControlInput(-12.0, np.array([1.0, 2.0, 3.0]))
    prev = ControlInput(-5.0, np.zeros(3))
    out = actuator_lag(cfg, cmd, prev)
    assert out.thrust == cmd.thrust
    assert_allclose(out.omega, cmd.omega)


def test_actuator_lag_single_step_arithmetic():
    cfg = PlantConfig(tau_omega=0.05, tau_thrust=0.1, step=0.004)
    cmd = ControlInput(-10.0, np.array([1.0, 0.0, -1.0]))
    prev = ControlInput(0.0, np.zeros(3))
    out = actuator_lag(cfg, cmd, prev)
    # oracle: u (1 - exp(-dt/tau)) from rest, by hand
    assert out.thrust == pytest.approx(-10.0 * (1.0 - math.exp(-0.04)),
                                       rel=1e-15)
    step = 1.0 - math.exp(-0.08)
    assert_allclose(out.omega, [step, 0.0, -step], rtol=1e-15)


def test_actuator_lag_tracks_exponential():
    # the zero-order-hold update is the exact first-order response
    tau, dt = 0.05, 0.004
    cfg = PlantConfig(tau_omega=tau, step=dt)
    cmd = ControlInput(0.0, np.array([1.0, 0.0, 0.0]))
    applied = ControlInput(0.0, np.zeros(3))
    for k in range(10):
        applied = actuator_lag(cfg, cmd, applied)
        exact = 1.0 - math.exp(-(k + 1) * dt / tau)
        assert abs(applied.omega[0] - exact) <= 1e-14  # of the unit step


def test_plant_config_validation():
    with pytest.raises(ValueError):
        PlantConfig(step=0.0)
    with pytest.raises(ValueError):
        PlantConfig(tau_omega=-0.1)
    with pytest.raises(ValueError):
        PlantConfig(wind=(1.0, 2.0))


def test_wind_is_a_float_tuple_with_a_read_only_array_view():
    cfg = PlantConfig(wind=np.array([1, -2, 0.5]))
    assert cfg.wind == (1.0, -2.0, 0.5)
    assert all(type(w) is float for w in cfg.wind)
    assert np.array_equal(cfg.v_wind, [1.0, -2.0, 0.5])
    with pytest.raises(ValueError):
        cfg.v_wind[0] = 3.0


def test_integration_is_deterministic():
    cfg = PlantConfig(wind=(1.0, 0.0, 0.0))
    inp = ControlInput(-14.0, np.array([0.2, -0.1, 0.05]))

    def run():
        state = make_state(v=(6.0, 0.0, 0.0))
        for _ in range(500):
            state = rk4_step(cfg, state, inp)
        return state

    a, b = run(), run()
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.R, b.R)


LIMITS = ControlLimits()
finite = dict(allow_nan=False, allow_infinity=False)
rates = st.lists(st.floats(-LIMITS.omega_max, LIMITS.omega_max, **finite),
                 min_size=3, max_size=3)
thrusts = st.floats(LIMITS.thrust_min, 0.0, **finite)


@settings(max_examples=10, deadline=None)
@given(omega=rates, thrust=thrusts,
       v0=st.lists(st.floats(-30.0, 30.0, **finite), min_size=3, max_size=3))
def test_rk4_keeps_attitude_orthonormal_and_state_finite(omega, thrust, v0):
    cfg = PlantConfig(wind=(2.0, -1.0, 0.0))
    inp = ControlInput(thrust, np.array(omega))
    state = make_state(v=v0)
    for _ in range(10_000):
        state = rk4_step(cfg, state, inp)
    R = np.asarray(state.R)
    assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-10
    assert np.all(np.isfinite(state.p)) and np.all(np.isfinite(state.v))


def between(value, a, b):
    # to rounding: cmd + f (prev - cmd) can land an ulp past prev when the
    # factor f rounds to 1, so allow a few ulp of the larger end
    tol = 4.0 * np.finfo(float).eps * max(abs(a), abs(b))
    return min(a, b) - tol <= value <= max(a, b) + tol


@given(tau_thrust=st.floats(0.0, 1e6, **finite),
       tau_omega=st.floats(0.0, 1e6, **finite),
       step=st.floats(0.0, 1e3, exclude_min=True, **finite),
       thrust=st.tuples(thrusts, thrusts),
       omega=st.tuples(rates, rates))
def test_actuator_lag_stays_between_previous_and_command(
        tau_thrust, tau_omega, step, thrust, omega):
    cfg = PlantConfig(tau_omega=tau_omega, tau_thrust=tau_thrust, step=step)
    prev = ControlInput(thrust[0], np.array(omega[0]))
    cmd = ControlInput(thrust[1], np.array(omega[1]))
    out = actuator_lag(cfg, cmd, prev)
    assert between(out.thrust, prev.thrust, cmd.thrust)
    for i in range(3):
        assert between(out.omega[i], prev.omega[i], cmd.omega[i])
