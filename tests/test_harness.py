"""Config parsing and the closed-loop experiment harness."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftquad.aero import GRAVITY
from liftquad.config import (CONDITIONS, ConfigError, ExperimentConfig,
                             build_config, load_config, parse_config_text)
from liftquad.flatness import SingularCase
from liftquad.geom import quat_to_mat
from liftquad.harness import (CSV_COLUMNS, DivergenceError, EmptySeriesError,
                              condition_matrix, feasibility_check,
                              feedforward_trace, format_matrix, rmse,
                              run_experiment)
from liftquad.trajectories import TrajectoryKind


def config_from(text):
    return build_config(parse_config_text(text))


def short_circle(**overrides):
    pairs = {"sim.duration": 3, "trajectory.kind": "circle"}
    pairs.update(overrides)
    return config_from("\n".join(f"{k} = {v}" for k, v in pairs.items()))


# --- config -----------------------------------------------------------------


def test_empty_config_is_stock_circle():
    cfg = build_config({})
    assert cfg.trajectory.kind is TrajectoryKind.CIRCLE
    assert cfg.trajectory.r == 15.0
    assert cfg.duration == 60.0
    assert cfg.rate == 250
    assert cfg.plant.step == pytest.approx(1e-3)
    assert cfg.limits.thrust_min == pytest.approx(-4.0 * 1.5 * GRAVITY)
    assert_allclose(cfg.gains.kvp, [3.0, 3.0, 3.0])


def test_config_values_comments_and_degrees():
    cfg = config_from("""
    # plant truth differs from the model belief
    plant.rho = 1.1       # thin air
    plant.kappa_deg = 45
    model.cla = 1.8
    gains.kvp.z = 4.5
    trajectory.kind = lemniscate
    sim.delay_ticks = 7
    mode.integrator = false
    """)
    assert cfg.plant.aero.rho == 1.1
    assert cfg.plant.aero.kappa == pytest.approx(math.radians(45.0))
    assert cfg.model.kappa == pytest.approx(math.radians(34.0))
    assert cfg.model.cla == 1.8
    assert_allclose(cfg.gains.kvp, [3.0, 3.0, 4.5])
    assert cfg.trajectory.kind is TrajectoryKind.LEMNISCATE
    assert cfg.delay_ticks == 7
    assert not cfg.mode.use_integrator


@pytest.mark.parametrize("text,fragment", [
    ("bogus.key = 1", "unknown key"),
    ("plant.rho = 1.1\nplant.rho = 1.2", "duplicate key"),
    ("plant.rho", "expected 'key = value'"),
    ("plant.rho =", "empty key or value"),
    ("plant.rho = thick", "bad value"),
    ("mode.integrator = yes", "bad value"),
    ("trajectory.kind = spiral", "bad value"),
])
def test_config_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_config(parse_config_text(text))


def test_config_error_carries_location():
    with pytest.raises(ConfigError, match=r"demo\.cfg:2"):
        parse_config_text("plant.rho = 1.0\nnope = 1", source="demo.cfg")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["sim.duration", "sim.abort_radius",
                                 "gains.kpp.x", "plant.rho", "model.wind.y",
                                 "trajectory.p0.z"])
def test_config_rejects_non_finite_numbers(key, value):
    with pytest.raises(ConfigError, match="not a finite number"):
        build_config(parse_config_text(f"{key} = {value}"))


def test_config_rejects_invalid_physics():
    with pytest.raises(ConfigError):
        config_from("plant.mass = 0")
    with pytest.raises(ConfigError):
        config_from("plant.kappa_deg = 5")  # below the valid wing range
    with pytest.raises(ConfigError):
        config_from("sim.rate = 0")
    with pytest.raises(ConfigError):
        config_from("gains.kff.x = 1.5")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/experiment.cfg")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sim.duration = 2.5\nplant.cd0 = 0.07\n")
    cfg = load_config(path)
    assert cfg.duration == 2.5
    assert cfg.plant.aero.cd0 == 0.07


def test_with_condition_sets_mode_flags():
    cfg = build_config({})
    for name, (use_int, use_aero) in CONDITIONS.items():
        sub = cfg.with_condition(name)
        assert sub.mode.use_integrator is use_int
        assert sub.mode.use_aero_feedforward is use_aero
        if use_aero:
            assert sub.ff_params is sub.model
        else:
            assert sub.ff_params.cla == 0.0
            assert sub.ff_params.mass == sub.model.mass
    with pytest.raises(ConfigError):
        cfg.with_condition("pid")


# --- rmse -------------------------------------------------------------------


def test_rmse_zero_for_identical_series():
    p = np.arange(30.0).reshape(10, 3)
    assert rmse(p, p) == 0.0


def test_rmse_constant_offset():
    p = np.zeros((4, 3))
    assert rmse(p + np.array([3.0, 4.0, 0.0]), p) == pytest.approx(5.0)


def test_rmse_two_sample_hand_value():
    p_ref = np.zeros((2, 3))
    p = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert rmse(p_ref, p) == pytest.approx(1.5811388300841898)


def test_rmse_rejects_empty():
    with pytest.raises(EmptySeriesError):
        rmse(np.zeros((0, 3)), np.zeros((0, 3)))


# --- closed loop ------------------------------------------------------------


def test_run_logs_n_plus_one_rows():
    cfg = config_from("sim.duration = 1\ntrajectory.kind = hover")
    result = run_experiment(cfg)
    assert len(result.t) == 251
    assert result.t[0] == 0.0
    assert result.t[-1] == pytest.approx(1.0)


def test_hover_tracks_exactly():
    cfg = config_from("sim.duration = 2\ntrajectory.kind = hover")
    result = run_experiment(cfg)
    assert result.rmse < 1e-6
    assert result.peak_error() < 1e-6


def test_initial_state_sits_on_the_reference():
    cfg = short_circle()
    result = run_experiment(cfg)
    assert_allclose(result.p[0], cfg.trajectory.p0)
    assert_allclose(result.v[0], np.zeros(3))
    rotation = quat_to_mat(result.q[0])
    assert np.linalg.norm(rotation.T @ rotation - np.eye(3)) < 1e-12
    # standstill start with a tangential pull: heading close to the +y
    # yaw fallback, tilted slightly by the initial acceleration
    assert rotation[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert rotation[1, 0] > 0.99


@pytest.mark.parametrize("kind", ["circle", "hover"])
def test_closed_loop_starts_where_the_feedforward_does(kind):
    # the plant starts on tick 0's reference, in tick 0's feedforward
    # attitude: row 0 of the closed loop is row 0 of the open loop
    cfg = config_from(f"sim.duration = 0.1\ntrajectory.kind = {kind}")
    run = run_experiment(cfg)
    trace = feedforward_trace(cfg)
    assert np.array_equal(run.p[0], run.p_ref[0])
    for name in ("p", "p_ref", "v", "v_ref", "q", "alpha", "singular"):
        assert np.array_equal(getattr(run, name)[0], getattr(trace, name)[0])


def test_rate_override_keeps_the_plant_step_in_step():
    # a rate set through replace() must integrate the same substep as
    # the same rate parsed from the config file
    parsed = config_from("sim.duration = 5\nsim.rate = 500")
    replaced = replace(config_from("sim.duration = 5"), rate=500)
    assert replaced.plant.step == parsed.plant.step == 1.0 / 2000.0
    assert run_experiment(replaced).rmse == run_experiment(parsed).rmse


def test_near_zero_actuator_lag_tracks_like_no_lag():
    lagged = run_experiment(short_circle(**{
        "plant.tau_omega": 1e-4, "plant.tau_thrust": 1e-4}))
    assert lagged.rmse == pytest.approx(run_experiment(short_circle()).rmse,
                                        rel=1e-3)


def test_matched_circle_error_stays_small():
    result = run_experiment(short_circle(**{"mode.integrator": "false"}))
    assert result.rmse < 0.1
    assert result.position_error[-1] < 0.1


def test_zero_feedback_run_diverges():
    cfg = short_circle(**{
        "sim.duration": 40, "sim.abort_radius": 5,
        "gains.kpp.x": 0, "gains.kpp.y": 0, "gains.kpp.z": 0,
        "gains.kvp.x": 0, "gains.kvp.y": 0, "gains.kvp.z": 0,
        "gains.kvi.x": 0, "gains.kvi.y": 0, "gains.kvi.z": 0,
        "gains.ktp.x": 0, "gains.ktp.y": 0, "gains.ktp.z": 0,
        "mode.rate_ff": "false"})
    with pytest.raises(DivergenceError) as info:
        run_experiment(cfg)
    err = info.value
    assert 0.0 < err.time <= 40.0
    assert err.ref_speed >= 0.0
    partial = err.result
    assert len(partial.t) >= 1
    assert partial.position_error[-1] > 5.0
    assert "abort radius" in str(err)


def test_zero_aero_model_makes_ff_conditions_identical(tmp_path):
    base = ("sim.duration = 2\n"
            "plant.cd0 = 0\nplant.cy0 = 0\nplant.cla = 0\n"
            "model.cd0 = 0\nmodel.cy0 = 0\nmodel.cla = 0\n")
    with_ff = config_from(base + "mode.aero_ff = true")
    without = config_from(base + "mode.aero_ff = false")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(with_ff).write_csv(a)
    run_experiment(without).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_runs_are_deterministic(tmp_path):
    cfg = short_circle(**{"sim.duration": 2})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg).write_csv(a)
    run_experiment(cfg).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_measurement_delay_changes_the_run():
    base = run_experiment(short_circle(**{"sim.duration": 2}))
    delayed = run_experiment(short_circle(**{"sim.duration": 2,
                                             "sim.delay_ticks": 25}))
    assert not np.array_equal(base.p, delayed.p)
    # 100 ms of position delay must not destabilize the stock circle
    assert delayed.rmse < 0.5


def test_csv_layout_and_round_trip(tmp_path):
    cfg = config_from("sim.duration = 0.2")
    result = run_experiment(cfg)
    path = tmp_path / "trace.csv"
    result.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == len(result.t) + 1
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (len(result.t), 24)
    # 17 significant digits round-trip doubles exactly
    assert_allclose(data[:, 0], result.t, rtol=0, atol=0)
    assert_allclose(data[:, 1:4], result.p, rtol=0, atol=0)
    assert_allclose(data[:, 4:7], result.p_ref, rtol=0, atol=0)
    assert_allclose(data[:, 18], result.thrust, rtol=0, atol=0)
    assert np.array_equal(data[:, 23].astype(int), result.singular)


def test_feedforward_trace_hover():
    cfg = config_from("sim.duration = 1\ntrajectory.kind = hover")
    trace = feedforward_trace(cfg)
    assert len(trace.t) == 251
    assert_allclose(trace.thrust, -cfg.model.mass * GRAVITY)
    assert_allclose(trace.omega, np.zeros((251, 3)))
    assert np.all(trace.singular == int(SingularCase.ZERO_VELOCITY))


def test_feasibility_stock_circle():
    report = feasibility_check(short_circle(**{"sim.duration": 60}))
    assert report.feasible
    assert report.thrust_min < report.thrust_peak < 0.0
    assert 0.0 < report.omega_peak < report.omega_max
    assert 0 < report.singular_ticks < report.total_ticks
    assert "feasible        yes" in report.summary()


def test_condition_matrix_runs_all_cells():
    matrix = condition_matrix(short_circle(**{"sim.duration": 2}))
    assert [c.name for c in matrix.cells] == list(CONDITIONS)
    assert matrix.ablation.name == "rate-ff-off"
    for cell in matrix.cells + [matrix.ablation]:
        assert not cell.diverged
        assert cell.status() == "ok"
        assert len(cell.result.t) == 501
    table = format_matrix(matrix)
    assert "pid-dfaf" in table and "rate-ff-off" in table


def test_peak_error_speed_filter():
    result = run_experiment(short_circle(**{"sim.duration": 2}))
    assert result.peak_error(speed_below=0.5) <= result.peak_error()
    assert result.peak_error(speed_below=1e-9) == 0.0


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(duration=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(delay_ticks=-1)
    for field in ("duration", "abort_radius"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                ExperimentConfig(**{field: value})
