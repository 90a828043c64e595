"""Config parsing and the closed-loop experiment harness."""

import codecs
import inspect
import math
import re
from array import array
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from liftquad import cli, control, harness
from liftquad.control import ControlLimits
from liftquad.aero import GRAVITY, AeroParams
from liftquad.config import (CONDITIONS, MAX_PLANT_STEPS, MAX_ROWS,
                             ConfigError, ExperimentConfig, build_config,
                             load_config, parse_config_text)
from liftquad.flatness import (SingularCase, TransformContext,
                               flatness_transform)
from liftquad.geom import mat_to_quat
from liftquad.harness import (_CSV_BATCH, COLUMNS, CSV_COLUMNS,
                              DivergenceError, EmptySeriesError, RunResult,
                              condition_matrix, feasibility_check,
                              feedforward_trace, format_matrix,
                              run_experiment)
from liftquad.record import Record
from liftquad.trajectories import (TrajectoryDef, TrajectoryKind,
                                   sample as sample_trajectory)
from oracles import (csv_text, feasibility_from_trace, peak_error_below,
                     quat_to_mat, rmse as numpy_rmse)

# columns of the trace, and of every row of RunResult.rows
WIDTH = len(CSV_COLUMNS.split(","))


def config_from(text):
    return build_config(parse_config_text(text))


def short_circle(**overrides):
    pairs = {"sim.duration": 3, "trajectory.kind": "circle"}
    pairs.update(overrides)
    return config_from("\n".join(f"{k} = {v}" for k, v in pairs.items()))


def test_the_names_the_benchmark_tracer_binds_to(monkeypatch):
    # perfbench/tracer.py rebinds these names for a traced run and reads
    # controller_step's context by position; a change that moves one
    # breaks every traced benchmark run, which no other tier-1 test sees
    for name in ("sample_trajectory", "flatness_transform",
                 "controller_step", "actuator_lag", "rk4_step", "mat_to_quat",
                 "run_experiment", "feedforward_trace", "DivergenceError",
                 "CSV_COLUMNS"):
        assert name in vars(harness), name
    assert "write_csv" in vars(harness.RunResult)
    for name in ("run_experiment", "feedforward_trace", "load_config"):
        assert name in vars(cli), name
    for run in (harness.run_experiment, harness.feedforward_trace):
        assert len(inspect.signature(run).parameters) == 1
    assert list(inspect.signature(harness.controller_step).parameters)[7] \
        == "ctx"
    # the record fields perfbench/tests reads off a config
    cfg = build_config({"plant.wind.x": "4", "plant.wind.y": "-2",
                        "plant.tau_omega": "0.03", "sim.delay_ticks": "2",
                        "sim.duration": "0.02"})
    assert list(cfg.plant.v_wind) == [4.0, -2.0, 0.0]
    assert (cfg.plant.aero.cd0, cfg.plant.aero.cla, cfg.plant.tau_omega,
            cfg.plant.tau_thrust, cfg.delay_ticks) == (0.05, 2.0, 0.03, 0.0,
                                                       2)
    # and those the tracer reads off a config, a context and a run
    assert cfg.limits.omega_max == 6.0
    assert control.ControllerContext().thrust_saturated is False
    result = run_experiment(cfg)
    assert (len(result.t), len(result.singular), result.omega.shape) == (
        6, 6, (6, 3))
    # a tick starts at its sample call, a hover's too, though a hover
    # transforms its one sample once
    samples = []

    def sampled(*args, original=harness.sample_trajectory):
        samples.append(args)
        return original(*args)
    monkeypatch.setattr(harness, "sample_trajectory", sampled)
    hover = build_config({"trajectory.kind": "hover", "sim.duration": "0.1"})
    for run in (run_experiment, feedforward_trace):
        samples.clear()
        assert run(hover).n_rows == len(samples) == hover.n_rows == 26


# --- config -----------------------------------------------------------------


def test_empty_config_is_stock_circle():
    cfg = build_config({})
    assert cfg.trajectory.kind is TrajectoryKind.CIRCLE
    assert cfg.trajectory.r == 15.0
    assert cfg.duration == 60.0
    assert cfg.rate == 250
    assert cfg.substeps == 1
    assert cfg.plant.step == 1.0 / 250.0
    assert cfg.limits.thrust_min(cfg.model) == pytest.approx(
        -4.0 * 1.5 * GRAVITY)
    assert_allclose(cfg.gains.kvp, [3.0, 3.0, 3.0])


def test_library_thrust_floor_follows_the_model():
    # the floor is counted in weights of the model a run believes, in a
    # config built by hand as in one read from a file; it was the
    # default airframe's, -58.86 N, whatever the model
    heavy = AeroParams(mass=3.0)
    built = build_config({"model.mass": "3"})
    assert built.model == heavy
    floor = ExperimentConfig(model=heavy).limits.thrust_min(heavy)
    assert floor == built.limits.thrust_min(built.model) == -117.72
    # a floor that overflows is refused as the config file refuses it
    message = "^limits.thrust_factor times model.mass \\* g must be finite$"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(model=AeroParams(mass=1e300),
                         limits=ControlLimits(thrust_factor=1e10))
    with pytest.raises(ConfigError, match=message):
        build_config({"model.mass": "1e300", "limits.thrust_factor": "1e10"})


def test_every_default_is_the_record_default():
    # the empty config is ExperimentConfig(), field by field, down to the
    # bits of every leaf: no key's default can drift from the one its
    # record's constructor declares
    def leaves(obj, prefix=""):
        for name in obj._fields:
            value = getattr(obj, name)
            if isinstance(value, Record):
                yield from leaves(value, f"{prefix}{name}.")
            else:
                yield prefix + name, value

    built = dict(leaves(build_config({})))
    stock = dict(leaves(ExperimentConfig()))
    assert built.keys() == stock.keys()
    assert "plant.aero.cla" in stock and "gains.kvi" in stock
    for name, value in stock.items():
        assert type(built[name]) is type(value), name
        # repr round-trips a float's bits: 0.0 and -0.0 differ here
        assert repr(built[name]) == repr(value), name


def test_config_values_comments_and_degrees():
    cfg = config_from("""
    # plant truth differs from the model belief
    plant.rho = 1.1       # thin air
    plant.kappa_deg = 45
    model.cla = 1.8
    gains.kvp.z = 4.5
    trajectory.kind = lemniscate
    sim.delay_ticks = 7
    mode.rate_ff = false
    """)
    assert cfg.plant.aero.rho == 1.1
    assert cfg.plant.aero.kappa == pytest.approx(math.radians(45.0))
    assert cfg.model.kappa == pytest.approx(math.radians(34.0))
    assert cfg.model.cla == 1.8
    assert_allclose(cfg.gains.kvp, [3.0, 3.0, 4.5])
    assert cfg.trajectory.kind is TrajectoryKind.LEMNISCATE
    assert cfg.delay_ticks == 7
    assert not cfg.rate_ff


@pytest.mark.parametrize("text,fragment", [
    ("bogus.key = 1", "unknown key"),
    ("plant.rho = 1.1\nplant.rho = 1.2", "duplicate key"),
    ("plant.rho", "expected 'key = value'"),
    ("plant.rho =", "empty key or value"),
    ("plant.rho = thick", "bad value"),
    ("mode.rate_ff = yes", "bad value"),
    ("trajectory.kind = spiral", "bad value"),
    # the thrust has one projection, so no key selects another
    ("mode.printed_projection = false",
     "unknown key 'mode.printed_projection'"),
    # PD is gains.kvi = 0 and DF is model.cd0/cy0/cla = 0: no key
    # repeats them
    ("mode.integrator = false", "unknown key 'mode.integrator'"),
    ("mode.aero_ff = false", "unknown key 'mode.aero_ff'"),
])
def test_config_rejects_malformed_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_config(parse_config_text(text))


def test_config_error_carries_location():
    with pytest.raises(ConfigError, match=r"demo\.cfg:2"):
        parse_config_text("plant.rho = 1.0\nplant.rho = 1", source="demo.cfg")


def test_library_config_rejects_unknown_keys():
    # the file parser and the library entry point share one key check:
    # a misspelt key must not silently give the stock run
    with pytest.raises(ConfigError, match="unknown key 'sim.duraton'"):
        build_config({"sim.duraton": "5"})


def test_config_file_locates_unknown_key(tmp_path):
    # the one key check still names the file and line of a misspelt key
    path = tmp_path / "f.cfg"
    path.write_text("sim.duration = 1\nsim.duraton = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(str(path))}:2: unknown key "
                             r"'sim\.duraton'$"):
        load_config(path)


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


def test_load_config_skips_a_byte_order_mark(tmp_path):
    # a file saved with a UTF-8 byte-order mark is valid UTF-8; the mark
    # is no part of its first key
    text = "trajectory.kind = lemniscate\nsim.duration = 2.5\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == codecs.BOM_UTF8 + plain.read_bytes()
    cfg = load_config(marked)
    assert cfg == load_config(plain)
    assert cfg != build_config({"sim.duration": "2.5"})


def test_with_condition_sets_mode_flags():
    # (integrator, aero feedforward, rate feedforward) of each cell, in
    # the order the matrix runs them; None keeps the config's switch.
    # The integrator off is gains.kvi = 0, the aero feedforward off the
    # wingless model, and each keeps every other value of the config
    expected = {"pid-dfaf": (True, True, None), "pd-dfaf": (False, True, None),
                "rate-ff-off": (True, True, False),
                "pid-df": (True, False, None), "pd-df": (False, False, None)}
    assert list(CONDITIONS) == list(expected)
    for rate_ff in (True, False):
        cfg = build_config({"mode.rate_ff": str(rate_ff).lower(),
                            "model.wind.x": "2"})
        for name, (use_int, use_aero, use_rate) in expected.items():
            sub = cfg.with_condition(name)
            assert (sub.gains.kvi != (0.0, 0.0, 0.0), sub.model.cla != 0.0,
                    sub.rate_ff) == (
                use_int, use_aero, rate_ff if use_rate is None else use_rate)
            assert sub.gains == (cfg.gains if use_int else
                                 cfg.gains.replace(kvi=0.0))
            if use_aero:
                assert sub.model is cfg.model
            else:
                assert sub.model == cfg.model.zeroed()
                assert sub.model.cla == 0.0
                assert sub.model.mass == cfg.model.mass
                # a DF cell still believes the wind estimate
                assert sub.model.wind == cfg.model.wind == (2.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        cfg.with_condition("pid")


# --- rmse -------------------------------------------------------------------


def result_of(p_ref, p):
    """A RunResult whose rows hold the positions ``p_ref`` and ``p``."""
    n_rows = len(p_ref)
    result = RunResult(array("d", [0.0]) * (n_rows * WIDTH), n_rows)
    result.table[:, COLUMNS["p_ref"]] = p_ref
    result.table[:, COLUMNS["p"]] = p
    return result


def test_rmse_zero_for_identical_series():
    p = np.arange(30.0).reshape(10, 3)
    assert result_of(p, p).rmse == 0.0


def test_rmse_constant_offset():
    p = np.zeros((4, 3))
    offset = result_of(p + np.array([3.0, 4.0, 0.0]), p)
    assert offset.rmse == pytest.approx(5.0)


def test_rmse_two_sample_hand_value():
    p_ref = np.zeros((2, 3))
    p = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert result_of(p_ref, p).rmse == pytest.approx(1.5811388300841898)


def test_rmse_rejects_empty():
    with pytest.raises(EmptySeriesError):
        result_of(np.zeros((0, 3)), np.zeros((0, 3))).rmse


def test_peak_error_rejects_empty():
    # a cell that diverges on tick 0 logs no row
    with pytest.raises(EmptySeriesError, match="empty series"):
        result_of(np.zeros((0, 3)), np.zeros((0, 3))).peak_error()


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 6),
                       min_size=1, max_size=64))
def test_rmse_is_the_numpy_rmse(points):
    # the package rounds the sum of squares once (math.fsum) where numpy
    # adds them pairwise; each square is the same, and the two sums part
    # by at most 63 roundings of at most half an ulp of the total
    table = np.array(points)
    ours = result_of(table[:, :3], table[:, 3:]).rmse
    assert math.isclose(ours, numpy_rmse(table[:, :3], table[:, 3:]),
                        rel_tol=1e-14, abs_tol=0.0)


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


def test_closed_loop_converts_each_rotation_once_per_tick(monkeypatch):
    # two per tick, the measured attitude and the desired one, each in
    # the module that needs it: nothing is converted twice
    calls = Counter()
    for module in (harness, control):
        def counted(rotation, name=module.__name__,
                    original=module.mat_to_quat):
            calls[name] += 1
            return original(rotation)
        monkeypatch.setattr(module, "mat_to_quat", counted)
    cfg = short_circle(**{"sim.duration": 0.2})
    run_experiment(cfg)
    assert calls == {"liftquad.harness": cfg.n_rows,
                     "liftquad.control": cfg.n_rows}


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
    for name in ("p", "p_ref", "v", "q", "alpha", "singular"):
        assert np.array_equal(getattr(run, name)[0], getattr(trace, name)[0])


def test_rate_override_keeps_the_plant_step_in_step():
    # a copy with a new rate must integrate the same substep as the
    # same rate parsed from the config file
    parsed = config_from("sim.duration = 5\nsim.rate = 500")
    replaced = config_from("sim.duration = 5").replace(rate=500)
    assert replaced.plant.step == parsed.plant.step == 1.0 / 500.0
    assert replaced.replace(substeps=4).plant.step == 1.0 / 2000.0
    assert replaced.replace(rate=250) == config_from("sim.duration = 5")
    assert run_experiment(replaced).rmse == run_experiment(parsed).rmse


def test_near_zero_actuator_lag_tracks_like_no_lag():
    lagged = run_experiment(short_circle(**{
        "plant.tau_omega": 1e-4, "plant.tau_thrust": 1e-4}))
    assert lagged.rmse == pytest.approx(run_experiment(short_circle()).rmse,
                                        rel=1e-3)


def test_matched_circle_error_stays_small():
    result = run_experiment(short_circle(**{
        f"gains.kvi.{axis}": "0" for axis in "xyz"}))
    assert result.rmse < 0.1
    assert np.linalg.norm(result.p_ref[-1] - result.p[-1]) < 0.1


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
    assert np.linalg.norm(partial.p_ref[-1] - partial.p[-1]) > 5.0
    assert "abort radius" in str(err)


def test_arithmetic_overflow_is_a_divergence():
    # the first overflow ends the run with the finite rows before it, in
    # the closed loop (plant or controller) and in the open loop alike;
    # the plant's float state is checked once per tick, after the
    # substeps, so a lagged plant in wind overflows on the same row; a
    # controller's integral step or command that overflows raises before
    # its clamp or saturation could make it finite again.  The plant
    # overflows on a stock airframe under a model mass of 1e300, whose
    # thrust command no plant step can integrate: an overflowing plant
    # airframe (cd0 = 1e300) is refused by the step guard before the run
    settings = np.geterr()
    lagged_windy_hover = {"trajectory.kind": "hover", "plant.wind.x": 4.0,
                          "plant.wind.y": -2.0, "plant.tau_omega": 0.03,
                          "plant.tau_thrust": 0.05}
    coarse_lemniscate = {"trajectory.kind": "lemniscate",
                         "sim.duration": 30}
    for run, overrides, rows, layer in (
            (run_experiment, {"model.mass": "1e300"}, 1, "plant"),
            (run_experiment, {"model.cd0": "1e300"}, 1, "controller"),
            (feedforward_trace, {"model.wind.x": "1e300"}, 0,
             "flatness transform"),
            (run_experiment, {**lagged_windy_hover, "model.mass": "1e300"},
             1, "plant"),
            (run_experiment, {**coarse_lemniscate, "sim.rate": 1,
                              "gains.kvi.x": "1e308"}, 2, "controller"),
            (run_experiment, {**coarse_lemniscate, "sim.rate": 2,
                              "gains.ktp.x": "1e308"}, 1, "controller")):
        with pytest.raises(DivergenceError,
                           match=f"went non-finite .* in the {layer}\\)"
                           ) as info:
            run(short_circle(**{"sim.duration": 1, **overrides}))
        assert len(info.value.result.t) == rows
        assert np.geterr() == settings


def test_tracking_error_that_overflows_is_a_divergence(monkeypatch):
    # a finite plant state so far from the reference that its distance
    # overflows ends the run through the harness's own check, on the row
    # it appeared; without a position gain the controller never sees it
    step = harness.rk4_step

    def drifted(plant, state, applied):
        out = step(plant, state, applied)
        return out.replace(p=(1e200, 0.0, 0.0))
    monkeypatch.setattr(harness, "rk4_step", drifted)
    cfg = short_circle(**{"sim.duration": 1, "gains.kpp.x": 0,
                          "gains.kpp.y": 0, "gains.kpp.z": 0})
    with pytest.raises(DivergenceError,
                       match=r"went non-finite \(overflow encountered in "
                             r"the harness\)") as info:
        run_experiment(cfg)
    assert len(info.value.result.t) == 1


def test_actuator_lag_runs_only_when_a_channel_lags(monkeypatch):
    # without a time constant the plant holds the command as it is, so
    # the lag is not called; with one it runs once per plant step
    calls = Counter()
    lag = harness.actuator_lag

    def counted(plant, commanded, applied):
        calls["lag"] += 1
        return lag(plant, commanded, applied)
    monkeypatch.setattr(harness, "actuator_lag", counted)
    run_experiment(short_circle(**{"sim.duration": 0.1}))
    assert calls["lag"] == 0
    cfg = short_circle(**{"sim.duration": 0.1, "plant.tau_thrust": 0.05})
    run_experiment(cfg)
    assert calls["lag"] == (cfg.n_rows - 1) * cfg.substeps


def test_zero_aero_model_makes_ff_conditions_identical(tmp_path):
    base = ("sim.duration = 2\n"
            "plant.cd0 = 0\nplant.cy0 = 0\nplant.cla = 0\n"
            "model.cd0 = 0\nmodel.cy0 = 0\nmodel.cla = 0\n")
    with_ff = config_from(base).with_condition("pid-dfaf")
    without = config_from(base).with_condition("pid-df")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(with_ff).write_csv(a)
    run_experiment(without).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_aero_off_run_reads_the_model_only_through_ff_params(tmp_path):
    # aero feedforward off, a run believes the wingless model in both the
    # flatness transform and the controller: the model's wing
    # coefficients change no byte, and the run is the one the zeroed
    # model flies with aero feedforward on
    stock = config_from("sim.duration = 3")
    wings = config_from("sim.duration = 3\nmodel.cd0 = 0.3\n"
                        "model.cla = 4.5\nmodel.cy0 = -0.4")
    zeroed = stock.replace(model=stock.model.zeroed())
    runs = [stock.with_condition("pid-df"), wings.with_condition("pid-df"),
            zeroed.with_condition("pid-dfaf")]
    paths = [tmp_path / f"{index}.csv" for index in range(len(runs))]
    for cfg, path in zip(runs, paths):
        run_experiment(cfg).write_csv(path)
    first = paths[0].read_bytes()
    assert all(path.read_bytes() == first for path in paths[1:])


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
    assert data.shape == (len(result.t), WIDTH) == result.table.shape
    # 17 significant digits round-trip doubles exactly
    assert_allclose(data[:, 0], result.t, rtol=0, atol=0)
    assert_allclose(data[:, 1:4], result.p, rtol=0, atol=0)
    assert_allclose(data[:, 4:7], result.p_ref, rtol=0, atol=0)
    assert_allclose(data[:, 7:10], result.v, rtol=0, atol=0)
    assert_allclose(data[:, 10:14], result.q, rtol=0, atol=0)
    assert_allclose(data[:, 14:18], result.q_d, rtol=0, atol=0)
    assert_allclose(data[:, 18], result.thrust, rtol=0, atol=0)
    assert_allclose(data[:, 19:22], result.omega, rtol=0, atol=0)
    assert_allclose(data[:, 22], result.alpha, rtol=0, atol=0)
    assert np.array_equal(data[:, 23].astype(int), result.singular)
    # the table is the trace, and its views share its memory
    assert np.array_equal(result.table, data)
    assert result.p.base is result.table
    assert result.table.base is result.rows


def test_store_fills_each_column_its_view_reads():
    # a distinct sentinel per value: every COLUMNS view reads back
    # exactly what store was given for it, so the row store writes and
    # the layout COLUMNS names cannot drift apart; the reference gives
    # only its position, the one field of it the trace holds
    sentinels = iter(np.arange(100.0, 200.0))

    def take(n):
        return tuple(next(sentinels) for _ in range(n))

    ref = SimpleNamespace(p=take(3))
    state = SimpleNamespace(p=take(3), v=take(3))
    q, q_d = take(4), take(4)
    cmd = control.ControlInput(*take(1), take(3))
    flat = SimpleNamespace(alpha=next(sentinels),
                           singular=SingularCase.AXIS_ALIGNED)
    t = next(sentinels)
    expected = {"t": t, "p": state.p, "p_ref": ref.p, "v": state.v,
                "q": q, "q_d": q_d, "thrust": cmd.thrust,
                "omega": cmd.omega, "alpha": flat.alpha,
                "singular": int(SingularCase.AXIS_ALIGNED)}
    assert expected.keys() == COLUMNS.keys()
    result = RunResult.allocate(config_from("sim.duration = 0.008"))
    result.store(1, t, ref, state, q, q_d, cmd, flat)
    for name, value in expected.items():
        assert np.array_equal(getattr(result, name)[1], value), name
    assert not np.any(np.delete(result.table, 1, axis=0))


_EDGE_VALUES = [0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan,
                5e-324, -5e-324, 2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                float(2 ** 53 + 1), -12345.0]


@settings(max_examples=60, deadline=None)
@given(palette=st.lists(st.sampled_from(_EDGE_VALUES) | st.floats()
                        | st.integers(-2 ** 63, 2 ** 63).map(float),
                        min_size=1, max_size=16),
       n_rows=st.sampled_from([0, 1, _CSV_BATCH - 1, _CSV_BATCH,
                               _CSV_BATCH + 1])
       | st.integers(0, 3 * _CSV_BATCH),
       seed=st.integers(0, 2 ** 32 - 1), repeated=st.booleans())
@example(palette=_EDGE_VALUES, n_rows=_CSV_BATCH + 1, seed=0,
         repeated=False)
@example(palette=_EDGE_VALUES, n_rows=2 * _CSV_BATCH + 1, seed=0,
         repeated=True)
def test_csv_bytes_are_the_per_value_formatter(tmp_path_factory, palette,
                                               n_rows, seed, repeated):
    # the batched writer gives the bytes of formatting each value on its
    # own, for any values (signed zeros, infinities, nan, subnormals, the
    # largest doubles, integers, every singular flag) and for row counts
    # around the batch size; the table is a head, like a partial trace
    rng = np.random.default_rng(seed)
    shape = (n_rows + 2, WIDTH)
    table = np.array(palette)[rng.integers(len(palette), size=shape)]
    table[:, COLUMNS["singular"]] = rng.integers(0, 3, size=n_rows + 2)
    if repeated:
        # the columns a batch formats once: constant ones and copies of
        # another column; columns equal as floats but not as bytes (0.0
        # beside -0.0), and columns of one NaN's bits beside other NaNs
        for index in rng.permutation(WIDTH)[:rng.integers(1, WIDTH)]:
            if rng.integers(2):
                table[:, index] = table[rng.integers(len(table)), index]
            else:
                table[:, index] = table[:, rng.integers(WIDTH)]
        zero = rng.integers(2, size=len(table)).astype(bool)
        table[:, 1] = np.where(zero, 0.0, 1.0)
        table[:, 2] = np.where(zero, -0.0, 1.0)
        table[:, 3] = np.where(zero, 0.0, -0.0)
        table[:, 4], table[:, 5] = 0.0, -0.0
        payload = np.array([0x7FF8_0000_DEAD_BEEF, 0xFFF0_0000_0000_0001],
                           dtype=np.uint64).view(np.float64)
        table[:, 6] = table[:, 7] = np.where(zero, payload[0], 2.0)
        table[:, 8] = np.where(zero, payload[1], 2.0)
        table[:, 9] = payload[rng.integers(2)]
        if rng.integers(3) == 0:  # every column has a twin
            table[:, ::2] = table[:, 1::2]
    result = RunResult(array("d", table.tobytes()), len(table)).head(n_rows)
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    result.write_csv(path)
    assert path.read_bytes() == csv_text(table[:n_rows]).encode("utf-8")


def test_feedforward_trace_hover():
    cfg = config_from("sim.duration = 1\ntrajectory.kind = hover")
    trace = feedforward_trace(cfg)
    assert len(trace.t) == 251
    assert_allclose(trace.thrust, -cfg.model.mass * GRAVITY)
    assert_allclose(trace.omega, np.zeros((251, 3)))
    assert np.all(trace.singular == int(SingularCase.ZERO_VELOCITY))


@pytest.mark.parametrize("kind", ["circle", "hover"])
def test_a_hover_transforms_its_one_reference_sample_once(kind, tmp_path,
                                                          monkeypatch):
    # each command's reference streams (compare records two, with and
    # without the wing) transform every tick, but a hover's only once
    calls = []

    def counted(*args, original=harness.flatness_transform):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(harness, "flatness_transform", counted)
    cfg = config_from(f"trajectory.kind = {kind}\nsim.duration = 0.2")
    path = tmp_path / "run.cfg"
    path.write_text(f"trajectory.kind = {kind}\n", encoding="utf-8")
    per_stream = 1 if kind == "hover" else cfg.n_rows
    for command, streams in (("sim", 1), ("flat", 1), ("check", 1),
                             ("compare", 2)):
        calls.clear()
        assert cli.main([command, "--config", str(path), "--out",
                         str(tmp_path), "--duration", "0.2"]) == 0
        assert len(calls) == streams * per_stream, command


@pytest.mark.parametrize("wind", [0.0, 0.25, 0.3, 0.4, 0.5, 3.0])
def test_a_hover_feedforward_is_every_ticks_transform(wind):
    # the modelled wind is a hover's airspeed: below 0.3 m/s the
    # zero-velocity branch, from 0.3 the smooth one, both edges of the
    # 0.3-0.5 hysteresis band included.  The trace's feedforward columns
    # are those of a transform of every tick through one context, to the
    # bit, so the sign of each zero counts
    cfg = config_from(f"trajectory.kind = hover\nmodel.wind.x = {wind}\n"
                      f"sim.duration = 0.2")
    trace = feedforward_trace(cfg)
    ctx, expected = TransformContext(), []
    for t in trace.t:
        flat = flatness_transform(cfg.model,
                                  sample_trajectory(cfg.trajectory, t), ctx)
        expected.append((*mat_to_quat(flat.rotation), flat.thrust,
                         *flat.omega, flat.alpha, flat.singular))
    columns = np.column_stack([trace.q, trace.thrust, trace.omega,
                               trace.alpha, trace.singular])
    assert columns.tobytes() == np.array(expected, dtype=float).tobytes()
    assert set(trace.singular) == {SingularCase.ZERO_VELOCITY if wind < 0.3
                                   else SingularCase.NONE}


def test_feasibility_stock_circle():
    report = feasibility_check(short_circle(**{"sim.duration": 60}))
    assert report.feasible
    assert report.thrust_min < report.thrust_peak < 0.0
    assert 0.0 < report.omega_peak < report.omega_max
    assert 0 < report.singular_ticks < report.total_ticks
    assert "feasible        yes" in report.summary()


# 12 s references through each branch of the sweep, with the singular
# ticks each takes
_FEASIBILITY_CASES = {
    "circle": ("", 139),    # the zero-velocity start
    "lemniscate": ("trajectory.kind = lemniscate", 0),
    "hover": ("trajectory.kind = hover", 3001),     # at rest throughout
    # the wind estimate is the airspeed: the smooth branch at rest
    "hover-wind": ("trajectory.kind = hover\nmodel.wind.x = 4", 0),
    # a vertical airspeed: the aligned-axis policy throughout
    "hover-updraft": ("trajectory.kind = hover\nmodel.wind.z = 4", 3001),
    "line": ("trajectory.kind = line", 0),
    # past the knee: the feedforward attitude flips, alpha below -pi/2
    "figure-eight-1.4": ("trajectory.kind = lemniscate\n"
                         "trajectory.radius = 10\ntrajectory.omega = 1.4\n"
                         "gains.kff.x = 1\ngains.kff.y = 1\ngains.kff.z = 1",
                         0),
}


@pytest.mark.parametrize("name", sorted(_FEASIBILITY_CASES))
def test_feasibility_check_is_the_trace_read_back(name):
    # the one-pass fold gives the report the trace's columns give, with
    # the sign of each zero as min and max keep it
    text, singular_ticks = _FEASIBILITY_CASES[name]
    cfg = config_from(text + "\nsim.duration = 12")
    report = feasibility_check(cfg)
    expected = feasibility_from_trace(cfg, feedforward_trace(cfg))
    assert report == expected
    for got, want in ((report.thrust_peak, expected.thrust_peak),
                      *zip(report.alpha_range, expected.alpha_range)):
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert report.singular_ticks == singular_ticks
    assert report.total_ticks == cfg.n_rows == 3001
    if name == "figure-eight-1.4":
        assert [round(a, 4) for a in report.alpha_range] == [-2.8718, 1.0935]


def test_condition_matrix_runs_all_cells():
    cells = condition_matrix(short_circle(**{"sim.duration": 2}))
    assert [c.name for c in cells] == list(CONDITIONS)
    for cell in cells:
        assert not cell.diverged
        assert cell.status() == "ok"
        assert len(cell.result.t) == 501
    table = format_matrix(cells)
    assert "pid-dfaf" in table and "rate-ff-off" in table


# 2 s configs whose cells diverge in every layer, at different ticks, or
# not at all: (config text, rows each cell logs in CONDITIONS order)
_MATRICES = [
    ("model.mass = 1e300", [1, 1, 1, 1, 1]),          # the plant
    ("model.cd0 = 1e300", [1, 1, 1, 501, 501]),       # the controller
    ("model.wind.x = 1e200", [0, 0, 0, 0, 0]),        # the transform
    # the aero cells finish; pid-df records, pd-df replays and aborts
    ("plant.cd0 = 0.3\nplant.cla = 6\nsim.abort_radius = 0.08",
     [501, 501, 501, 501, 499]),
    # every zeroed-model cell aborts, so no cell replays its stream
    ("plant.cd0 = 0.3\nplant.cla = 6\nsim.abort_radius = 0.06",
     [501, 501, 501, 458, 451]),
    ("trajectory.kind = hover\nmodel.wind.x = 3\nplant.wind.x = 4",
     [501] * 5),
    ("trajectory.kind = lemniscate\nplant.tau_omega = 0.03\n"
     "plant.tau_thrust = 0.05\nsim.delay_ticks = 2", [501] * 5)]


@pytest.mark.parametrize("text, rows", _MATRICES,
                         ids=[text for text, _ in _MATRICES])
def test_condition_matrix_cells_are_separate_runs(text, rows):
    # the cells that replay a shared reference stream log, and diverge,
    # exactly as a run of their own
    cfg = config_from(text + "\nsim.duration = 2")
    cells = condition_matrix(cfg)
    assert [cell.result.n_rows for cell in cells] == rows
    for cell in cells:
        cell_cfg = cfg.with_condition(cell.name)
        try:
            alone, error = run_experiment(cell_cfg), None
        except DivergenceError as exc:
            alone, error = exc.result, exc
        assert cell.result.rows[:cell.result.n_rows * WIDTH] == \
            alone.rows[:alone.n_rows * WIDTH], cell.name
        assert cell.result.n_rows == alone.n_rows
        assert str(cell.error) == str(error), cell.name


def test_condition_matrix_transforms_each_reference_once(monkeypatch):
    # the aero-model stream is recorded by pid-dfaf and replayed by
    # pd-dfaf and rate-ff-off; the zeroed-model one by pid-df for pd-df
    counts = Counter()
    for name in ("sample_trajectory", "flatness_transform"):
        def counted(*args, name=name, original=getattr(harness, name),
                    **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    cfg = short_circle(**{"sim.duration": 1})
    assert all(not cell.diverged for cell in condition_matrix(cfg))
    assert counts == {"sample_trajectory": 2 * cfg.n_rows,
                      "flatness_transform": 2 * cfg.n_rows}
    # a run outside the matrix computes its own stream again
    run_experiment(cfg)
    assert counts["flatness_transform"] == 3 * cfg.n_rows


def test_a_stream_is_published_only_once_complete(monkeypatch):
    cfg = short_circle(**{"sim.duration": 0.1})
    monkeypatch.setattr(harness, "_stream", (None, None))
    ticks = harness._ticks(cfg, RunResult.allocate(cfg))
    next(ticks)
    ticks.close()   # a cell that diverged on its first tick
    assert harness._stream == (None, None)
    live = list(harness._ticks(cfg, RunResult.allocate(cfg)))
    assert harness._stream[0] == harness._stream_key(cfg)
    replayed = list(harness._ticks(cfg, RunResult.allocate(cfg)))
    assert len(replayed) == len(live) == cfg.n_rows
    for (k, t, ref, flat), (rk, rt, rref, rflat) in zip(live, replayed):
        assert (rk, rt) == (k, t)
        assert (rref.p, rref.v, rref.a) == (ref.p, ref.v, ref.a)
        assert (rflat.rotation, rflat.thrust, rflat.alpha, rflat.omega,
                rflat.airspeed, rflat.wind_axis, rflat.singular) == (
            flat.rotation, flat.thrust, flat.alpha, flat.omega,
            flat.airspeed, flat.wind_axis, flat.singular)


def test_one_stream_is_held_at_a_time(monkeypatch):
    # the slot the matrix's first transform of each stream sees: pid-df
    # starts recording the zeroed-model stream with the model stream,
    # which pd-dfaf and rate-ff-off replayed, already let go
    seen = {}

    def transform(params, *args, original=harness.flatness_transform,
                  **kwargs):
        seen.setdefault(params, harness._stream)
        return original(params, *args, **kwargs)
    monkeypatch.setattr(harness, "flatness_transform", transform)
    cfg = short_circle(**{"sim.duration": 0.1})
    assert all(not cell.diverged for cell in condition_matrix(cfg))
    assert seen == {cfg.model: (None, None),
                    cfg.model.zeroed(): (None, None)}


def test_no_stream_outlives_the_matrix(monkeypatch):
    condition_matrix(short_circle(**{"sim.duration": 0.1}))
    assert harness._stream is None

    def interrupted(cfg):
        raise KeyboardInterrupt
    monkeypatch.setattr(harness, "run_experiment", interrupted)
    with pytest.raises(KeyboardInterrupt):
        condition_matrix(short_circle(**{"sim.duration": 0.1}))
    assert harness._stream is None


def test_peak_error_speed_filter():
    # the speed-filtered peak criterion 7 reads: the numpy maximum over
    # the rows whose resampled reference speed is below the bound
    cfg = short_circle(**{"sim.duration": 2})
    result = run_experiment(cfg)
    error = np.linalg.norm(result.p_ref - result.p, axis=1)
    speed = np.array([np.linalg.norm(sample_trajectory(cfg.trajectory, t).v)
                      for t in result.t.tolist()])
    for below in (0.5, 1.0, 1.5):
        assert 0 < np.count_nonzero(speed < below) < len(speed)
        assert peak_error_below(result, cfg.trajectory, below) == np.max(
            error[speed < below])
    assert peak_error_below(result, cfg.trajectory, math.inf) == (
        result.peak_error())
    assert peak_error_below(result, cfg.trajectory, 1e-9) == 0.0


def test_summaries_are_numpy_over_the_views():
    # the summaries read the rows in plain Python; over the numpy views
    # the norms, the extrema and the counts are the same bits, and E_p
    # is numpy's to the last bits of its pairwise mean
    cfg = short_circle(**{"sim.duration": 2})
    result = run_experiment(cfg)
    error = np.linalg.norm(result.p_ref - result.p, axis=1)
    assert result.peak_error() == np.max(error)
    assert math.isclose(result.rmse, numpy_rmse(result.p_ref, result.p),
                        rel_tol=1e-15, abs_tol=0.0)
    trace = feedforward_trace(cfg)
    report = feasibility_check(cfg)
    assert report.thrust_peak == np.min(trace.thrust)
    assert report.omega_peak == np.max(np.abs(trace.omega))
    assert 0 < report.singular_ticks == np.count_nonzero(trace.singular)
    assert report.total_ticks == len(trace.t)
    assert report.alpha_range == (np.min(trace.alpha), np.max(trace.alpha))


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(duration=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(delay_ticks=-1)
    for field in ("duration", "abort_radius"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite"):
                ExperimentConfig(**{field: value})


def test_experiment_config_bounds_the_row_count():
    # checked before anything is allocated: N ticks log N+1 rows
    at_limit = ExperimentConfig(duration=(MAX_ROWS - 1) / 250)
    assert at_limit.n_rows == MAX_ROWS
    for overrides in ({"duration": MAX_ROWS / 250}, {"rate": 10**11},
                      {"rate": 10**400}, {"duration": 1e300}):
        with pytest.raises(ConfigError, match=f"at most {MAX_ROWS} rows"):
            ExperimentConfig(**overrides)


def test_experiment_config_bounds_the_rate():
    # a duration short enough for the row check leaves the rate itself,
    # which must still convert to float
    at_limit = ExperimentConfig(rate=MAX_ROWS, duration=1e-320)
    assert at_limit.n_rows == 1
    for rate in (MAX_ROWS + 1, 10**309):
        with pytest.raises(ConfigError, match=f"sim.rate must be at most "
                                              f"{MAX_ROWS}"):
            ExperimentConfig(rate=rate, duration=1e-320)


def test_experiment_config_bounds_the_plant_steps():
    # rows times substeps, in integers: 100 rows at the limit, then over it
    at_limit = ExperimentConfig(rate=1, duration=99,
                                substeps=MAX_PLANT_STEPS // 100)
    assert at_limit.n_rows * at_limit.substeps == MAX_PLANT_STEPS
    for overrides in ({"rate": 1, "duration": 99,
                       "substeps": MAX_PLANT_STEPS // 100 + 1},
                      {"substeps": 10**9}, {"substeps": 10**400}):
        with pytest.raises(ConfigError, match=f"at most {MAX_PLANT_STEPS}"):
            ExperimentConfig(**overrides)


def test_plant_step_guard_refuses_an_airframe_no_step_can_integrate():
    # a plant airframe whose drag overflows the arithmetic of any step,
    # once a plant overflow at run time, is refused up front (exit 2):
    # the drag rate bound is above what the budget of plant steps allows
    lagged_windy_hover = {"trajectory.kind": "hover", "plant.wind.x": 4.0,
                          "plant.wind.y": -2.0, "plant.tau_omega": 0.03,
                          "plant.tau_thrust": 0.05}
    for overrides in ({"plant.cd0": "1e300"}, {"plant.mass": "1e-300"},
                      {**lagged_windy_hover, "plant.cd0": "1e300"}):
        with pytest.raises(ConfigError, match=r"^sim\.substeps = 1 .*; no "
                           r"sim\.substeps passes within the budget of "
                           f"{MAX_PLANT_STEPS} plant steps$"):
            short_circle(**{"sim.duration": 1, **overrides})


def test_plant_step_guard_bound_is_closed_form():
    # the probe airframe: (rho*S/m) * max(cd0 + cla, |cy0|) * v is
    # 1.225/0.2 * 6.05 * 10 = 370.6 /s; at 50 Hz the step h = 1/(50 n)
    # passes from n = 3 (h * 370.6 = 2.47), not at n = 2 (3.71), and a
    # wind of 10 m/s doubles the airspeed and the bound
    probe = {"plant.mass": 0.2, "plant.area": 1.0, "plant.cla": 6,
             "sim.rate": 50}
    for substeps in (1, 2):
        with pytest.raises(ConfigError, match=r"step \* 370\.6 /s <= 2\.785 "
                           r"\(peak airspeed 10 m/s\); the smallest "
                           r"sim\.substeps that passes is 3$"):
            short_circle(**probe, **{"sim.substeps": substeps})
    assert short_circle(**probe, **{"sim.substeps": 3}).substeps == 3
    with pytest.raises(ConfigError, match=r"step \* 741\.1 /s .* airspeed "
                       r"20 m/s\); the smallest sim\.substeps that passes is "
                       r"6$"):
        short_circle(**probe, **{"sim.substeps": 5, "plant.wind.y": -10})
    # the bound reads |cy0| when the lateral coefficient is the larger
    with pytest.raises(ConfigError, match=r"step \* 490 /s"):
        short_circle(**probe, **{"plant.cy0": -8})


def test_peak_speed_is_each_references_fastest_sample():
    # closed form against sampling: the circle reaches its cap, the
    # figure-eight r*omega*sqrt(1.25) at half a lap
    cases = [({"kind": TrajectoryKind.CIRCLE}, 10.0),
             ({"kind": TrajectoryKind.CIRCLE, "omega": 0.0}, 0.0),
             ({"kind": TrajectoryKind.LEMNISCATE}, 20 * 0.33 * 1.25 ** 0.5),
             ({"kind": TrajectoryKind.LINE, "speed_cap": -3.0}, 3.0),
             ({"kind": TrajectoryKind.HOVER}, 0.0)]
    for fields_, peak in cases:
        traj = TrajectoryDef(**fields_)
        assert traj.peak_speed() == pytest.approx(peak, rel=1e-15)
        sampled = max(math.hypot(*sample_trajectory(traj, k * 0.01).v)
                      for k in range(20000))
        assert sampled <= traj.peak_speed() * (1 + 1e-12)
        assert sampled >= traj.peak_speed() * (1 - 1e-6)


_GUARD_VALUES = [0.0, 5e-324, 1e-300, 1e-8, 0.2, 1.0, 6.0, 1e8, 1e154,
                 1e300, 1.7976931348623157e308]
# mostly airframe-like values, so that many draws need a few substeps
_magnitudes = st.one_of(st.sampled_from(_GUARD_VALUES), st.floats(0.0, 1e3),
                        *[st.floats(0.01, 10.0)] * 3)
_signed = _magnitudes | _magnitudes.map(lambda x: -x)


@settings(max_examples=200, deadline=None)
@given(airframe=st.fixed_dictionaries(
           {f"plant.{name}": _magnitudes
            for name in ("mass", "rho", "area", "cd0", "cla")}),
       cy0=_signed, wind=st.tuples(_signed, _signed, _signed),
       kind=st.sampled_from(["circle", "lemniscate", "line", "hover"]),
       radius=st.sampled_from([0.0, 5e-324, 15.0, 1e6]),
       omega=st.sampled_from([0.0, 5e-324, 0.33, 1e3]),
       speed_cap=st.sampled_from([-1e4, -10.0, 0.0, 5e-324, 10.0, 1e4]),
       rate=st.sampled_from([1, 50, 250, 10**7]) | st.integers(1, 10**7),
       substeps=st.integers(1, 64),
       duration=st.sampled_from([1e-320, 1e-3, 1.0, 60.0, 1e5]))
def test_plant_step_guard_raises_only_config_errors_and_names_a_count(
        airframe, cy0, wind, kind, radius, omega, speed_cap, rate, substeps,
        duration):
    # any values the parser accepts: the config builds or is refused
    # with a ConfigError, never another exception; a step refusal names
    # the fewest substeps that pass (one fewer is refused too) or says
    # that none fits the budget, and then the budget's most is refused
    raw = {**{key: repr(value) for key, value in airframe.items()},
           "plant.cy0": repr(cy0), "trajectory.kind": kind,
           "trajectory.radius": repr(radius), "trajectory.omega": repr(omega),
           "trajectory.speed_cap": repr(speed_cap), "sim.rate": str(rate),
           "sim.duration": repr(duration),
           **{f"plant.wind.{axis}": repr(w) for axis, w in zip("xyz", wind)}}

    def build(count):
        return build_config({**raw, "sim.substeps": str(count)})
    try:
        build(substeps)
        return
    except ConfigError as exc:
        message = str(exc)
    if not message.startswith(f"sim.substeps = {substeps} leaves"):
        return   # refused by a range rule before the guard
    named = re.search(r"the smallest sim\.substeps that passes is (\d+)$",
                      message)
    if named is None:
        assert message.endswith(f"no sim.substeps passes within the budget "
                                f"of {MAX_PLANT_STEPS} plant steps")
        most = MAX_PLANT_STEPS // (round(rate * duration) + 1)
        with pytest.raises(ConfigError, match=f"^sim.substeps = {most} "):
            build(most)
        return
    fewest = int(named.group(1))
    assert fewest > substeps
    assert build(fewest).substeps == fewest
    with pytest.raises(ConfigError, match=f"passes is {fewest}$"):
        build(fewest - 1)
