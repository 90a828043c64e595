"""Acceptance gate: nine end-to-end criteria for the flatness transform
and the unified tracking controller.

Each criterion is one test function, so ``pytest -v`` prints exactly one
pass/fail line per criterion; every function also prints its measured
margin for the record.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from liftquad.aero import AeroParams, GRAVITY, aero_accel
from liftquad.control import ControlInput
from liftquad.dynamics import PlantConfig, VehicleState, rk4_step
from liftquad.flatness import (FlatSample, SingularCase, TransformContext,
                               flatness_transform)
from liftquad.geom import mat_to_quat
from liftquad.harness import (DivergenceError, feedforward_trace,
                              run_experiment)
from liftquad.trajectories import TrajectoryDef, TrajectoryKind, sample
from oracles import (GRAVITY_VEC, aero_force_wind, aero_force_wing,
                     body_to_wing_rotation, config_from, peak_error_below,
                     rodrigues, unskew, wing_to_wind_rotation)

PARAMS = AeroParams()


def report(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_1_feedforward_replay_tracks_reference():
    # Integrating the plant open loop on the transform's own commands
    # must reproduce the reference trajectory.  Commands are sampled at
    # integration-substep midpoints over the [2, 4] s window of the
    # stock circle.
    start = time.perf_counter()
    plant = PlantConfig()
    traj = TrajectoryDef(kind=TrajectoryKind.CIRCLE)
    ctx = TransformContext()
    dt, h = 1.0 / 250.0, plant.step

    ref0 = sample(traj, 2.0)
    flat0 = flatness_transform(PARAMS, ref0, ctx)
    assert flat0.singular is SingularCase.NONE
    state = VehicleState(ref0.p, ref0.v, mat_to_quat(flat0.rotation),
                         flat0.rotation)
    worst = 0.0
    for k in range(501):
        t = 2.0 + k * dt
        ref = sample(traj, t)
        worst = max(worst, float(np.linalg.norm(np.asarray(state.p) - ref.p)))
        if k == 500:
            break
        for sub in range(4):
            t_mid = t + (sub + 0.5) * h
            flat = flatness_transform(PARAMS, sample(traj, t_mid), ctx)
            state = rk4_step(plant, state,
                             ControlInput(flat.thrust, flat.omega))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3
    assert elapsed < 1.0
    report(1, f"max replay error {worst:.3e} m <= 1e-3, {elapsed:.2f} s")


def test_criterion_2_body_rates_match_attitude_derivative():
    # The analytic body-rate output must agree with a central difference
    # of the attitude output along both stock references, 1000 samples
    # each.
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    checked = 0
    cases = [
        (TrajectoryDef(kind=TrajectoryKind.CIRCLE),
         np.linspace(2.0, 100.0, 1000)),
        (TrajectoryDef(kind=TrajectoryKind.LEMNISCATE),
         np.linspace(0.1, 38.0, 1000)),
    ]
    for traj, times in cases:
        t_switch = traj.switch_time
        for t in times:
            # the circle's speed-cap splice has an acceleration step;
            # a finite difference straddling it is meaningless
            if abs(t - t_switch) < 1e-3:
                continue
            outs = [flatness_transform(PARAMS, sample(traj, tt))
                    for tt in (t - h, t, t + h)]
            if any(o.singular is not SingularCase.NONE for o in outs):
                continue
            r_minus, r_mid, r_plus = (np.asarray(o.rotation) for o in outs)
            r_dot = (r_plus - r_minus) / (2.0 * h)
            omega_fd = unskew(r_mid.T @ r_dot)
            worst = max(worst, float(np.max(np.abs(outs[1].omega - omega_fd))))
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 1990
    assert worst < 1e-3
    assert elapsed < 5.0
    report(2, f"max rate error {worst:.1e} rad/s < 1e-3 over {checked} "
              f"samples, {elapsed:.2f} s")


def test_criterion_3_transform_closes_translational_dynamics():
    # Substituting the transform's attitude and thrust back into the
    # translational dynamics must return the requested acceleration:
    # 10000 random flat samples at speeds up to 10 m/s.
    rng = np.random.default_rng(103)
    worst = 0.0
    accepted = 0
    while accepted < 10000:
        v_hat = rng.normal(size=3)
        v_hat /= np.linalg.norm(v_hat)
        v = rng.uniform(0.6, 10.0) * v_hat
        a = rng.uniform(-6.0, 6.0, size=3)
        out = flatness_transform(PARAMS, FlatSample(np.zeros(3), v, a,
                                                    np.zeros(3)))
        if out.singular is not SingularCase.NONE:
            continue
        closed = out.rotation @ np.array([0.0, 0.0, out.thrust]) / PARAMS.mass \
            + aero_accel(PARAMS, out.rotation, v) + GRAVITY_VEC
        worst = max(worst, float(np.linalg.norm(closed - a)))
        accepted += 1
    assert worst < 1e-8
    report(3, f"max dynamics residual {worst:.3e} m/s^2 < 1e-8 over "
              f"{accepted} samples")


def test_criterion_4_wind_and_wing_frame_forces_agree():
    # The wind-frame force magnitudes and the wing-frame force law are
    # two routes to the same physical force; rotated into a common
    # frame they must agree to 1e-10 relative over 1000 zero-sideslip
    # states with random wing angles.
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        params = AeroParams(kappa=rng.uniform(math.radians(16.0),
                                              math.radians(90.0)),
                            cy0=0.05)
        v_hat = rng.normal(size=3)
        v_hat /= np.linalg.norm(v_hat)
        y_body = np.cross(v_hat, rng.normal(size=3))
        y_body /= np.linalg.norm(y_body)
        x_body = rodrigues(y_body, rng.uniform(-1.2, 1.2)) @ v_hat
        rotation = np.column_stack((x_body, y_body, np.cross(x_body, y_body)))
        speed = rng.uniform(0.5, 15.0)
        v_air = speed * v_hat
        v_wing = body_to_wing_rotation(params.kappa) @ (rotation.T @ v_air)
        alpha = math.atan2(v_wing[2], v_wing[0])
        rotated = wing_to_wind_rotation(alpha) @ aero_force_wing(
            params, rotation, v_air)
        magnitudes = aero_force_wind(params, speed, alpha)
        scale = max(float(np.linalg.norm(magnitudes)), 1.0)
        worst = max(worst, float(np.max(np.abs(rotated + magnitudes))) / scale)
    assert worst < 1e-10
    report(4, f"max frame disagreement {worst:.3e} relative < 1e-10")


def test_criterion_5_zero_aero_reduces_to_quadcopter_flatness():
    # With all aerodynamic coefficients zero the transform must give the
    # classic quadcopter solution: thrust axis opposing the net
    # acceleration demand, thrust equal to mass times its norm.
    bare = PARAMS.zeroed()
    rng = np.random.default_rng(105)
    worst_axis = 0.0
    worst_thrust = 0.0
    accepted = 0
    while accepted < 1000:
        v_hat = rng.normal(size=3)
        v_hat /= np.linalg.norm(v_hat)
        v = rng.uniform(0.6, 12.0) * v_hat
        a = rng.uniform(-6.0, 6.0, size=3)
        out = flatness_transform(bare, FlatSample(np.zeros(3), v, a,
                                                  np.zeros(3)))
        if out.singular is not SingularCase.NONE:
            continue
        demand = a - GRAVITY_VEC
        norm = np.linalg.norm(demand)
        worst_axis = max(worst_axis, float(np.max(np.abs(
            np.asarray(out.rotation)[:, 2] + demand / norm))))
        worst_thrust = max(worst_thrust,
                           abs(out.thrust + bare.mass * norm) / (bare.mass * norm))
        accepted += 1
    assert worst_axis < 1e-12
    assert worst_thrust < 1e-12
    report(5, f"axis error {worst_axis:.3e}, thrust error {worst_thrust:.3e} "
              f"relative, both < 1e-12")


def test_criterion_6_aero_feedforward_cuts_mismatch_error():
    # Closed loop on the stock circle with the plant's drag and lift
    # coefficients 20% above the model's: enabling the aerodynamic
    # feedforward must cut the tracking RMSE to at most 0.6x, for both
    # the PID and the PD velocity loop, with each 60 s run under 30 s
    # of wall time.
    base = config_from("plant.cd0 = 0.06\nplant.cla = 2.4\n")
    rmse_values = {}
    slowest = 0.0
    for name in ("pid-dfaf", "pid-df", "pd-dfaf", "pd-df"):
        start = time.perf_counter()
        rmse_values[name] = run_experiment(base.with_condition(name)).rmse
        slowest = max(slowest, time.perf_counter() - start)
    ratio_pid = rmse_values["pid-dfaf"] / rmse_values["pid-df"]
    ratio_pd = rmse_values["pd-dfaf"] / rmse_values["pd-df"]
    assert ratio_pid <= 0.6
    assert ratio_pd <= 0.6
    assert slowest < 30.0
    report(6, f"RMSE ratio with/without feedforward: PID {ratio_pid:.3f}, "
              f"PD {ratio_pd:.3f}, both <= 0.6; slowest run {slowest:.1f} s")


def test_criterion_7_rate_feedforward_ablation_degrades_tracking():
    # Removing the body-rate feedforward (everything else identical,
    # matched model, full feedforward attenuation) must at least triple
    # the peak tracking error at reference speeds below 10 m/s on the
    # stock circle, or destabilize the run outright.
    text = "gains.kff.x = 1\ngains.kff.y = 1\ngains.kff.z = 1\n"
    base_cfg = config_from(text).with_condition("pid-dfaf")
    ablation_cfg = config_from(text).with_condition("rate-ff-off")
    circle = base_cfg.trajectory
    base_peak = peak_error_below(run_experiment(base_cfg), circle, 10.0)
    try:
        ablation_peak = peak_error_below(run_experiment(ablation_cfg),
                                         circle, 10.0)
    except DivergenceError:
        report(7, "ablated run diverged; baseline completed")
        return
    ratio = ablation_peak / base_peak
    assert ratio >= 3.0
    report(7, f"peak error {base_peak:.4f} m -> {ablation_peak:.4f} m, "
              f"ratio {ratio:.1f} >= 3")


def test_criterion_8_singular_cases_resolved_with_hysteresis():
    # Hover and axis-aligned demands get well-defined outputs, and the
    # speed hysteresis keeps a noisy crossing of the slow-speed band to
    # at most two regime transitions.
    hover = flatness_transform(PARAMS, FlatSample(np.zeros(3), np.zeros(3),
                                                  np.zeros(3), np.zeros(3)))
    assert hover.singular is SingularCase.ZERO_VELOCITY
    assert_allclose(hover.rotation, np.eye(3), atol=1e-12)
    assert abs(hover.thrust + PARAMS.mass * GRAVITY) < 1e-12

    ascent = flatness_transform(PARAMS, FlatSample(
        np.zeros(3), np.array([0.0, 0.0, -2.0]), np.zeros(3), np.zeros(3)))
    assert ascent.singular is SingularCase.AXIS_ALIGNED
    rotation = np.asarray(ascent.rotation)
    assert np.linalg.norm(rotation.T @ rotation - np.eye(3)) < 1e-12
    assert abs(np.linalg.det(ascent.rotation) - 1.0) < 1e-12
    assert ascent.thrust <= 0.0

    speeds = [0.25, 0.28, 0.33, 0.38, 0.44, 0.49, 0.52, 0.47, 0.41, 0.36,
              0.33, 0.45, 0.55, 0.48, 0.38, 0.32, 0.44, 0.58, 0.62, 0.70]
    ctx = TransformContext()
    flags = []
    for speed in speeds:
        out = flatness_transform(PARAMS, FlatSample(
            np.zeros(3), np.array([0.0, speed, 0.0]), np.zeros(3),
            np.zeros(3)), ctx)
        flags.append(out.singular is not SingularCase.NONE)
    transitions = sum(flags[k] != flags[k - 1] for k in range(1, len(flags)))
    assert flags[0] and not flags[-1]
    assert transitions <= 2
    report(8, f"hover and ascent resolved; {transitions} regime "
              f"transition(s) across the noisy speed ramp (limit 2)")


def test_criterion_9_runs_are_byte_reproducible(tmp_path):
    # Identical configs must yield byte-identical CSV traces: closed loop
    # on the circle and the figure-eight, in a wind the plant feels, and
    # the open-loop feedforward.
    cases = [("circle", run_experiment, "trajectory.kind = circle"),
             ("figure-eight", run_experiment, "trajectory.kind = lemniscate"),
             ("windy-plant", run_experiment,
              "plant.wind.x = 1\nplant.wind.y = -2"),
             ("open-loop", feedforward_trace, "")]
    for name, run, text in cases:
        cfg = config_from(f"{text}\nsim.duration = 3\n")
        traces = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}.csv"
            run(cfg).write_csv(path)
            traces.append(path.read_bytes())
        assert traces[0] == traces[1], name
    report(9, "circle, figure-eight, windy-plant and open-loop traces "
              "byte-identical across reruns")
