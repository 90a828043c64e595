"""Property tests over the documented parameter ranges: references stay
finite, the flatness transform is total on its domain, the controller's
commands stay within limits, the float flatness transform, controller
and quaternion conversion agree with their numpy oracles, and the
wing-force kernel is one kernel on numpy and float inputs."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from liftquad.aero import (GRAVITY, KAPPA_MAX, KAPPA_MIN, AeroParams,
                           aero_accel)
from liftquad.config import MAX_ROWS
from liftquad.control import (ControlGains, ControlLimits, ControllerContext,
                              accel_to_attitude_thrust, controller_step)
from liftquad.flatness import (FlatnessOutput, FlatSample, SingularCase,
                               TransformContext, flatness_transform)
from liftquad.geom import NonOrthonormalError, mat_to_quat
from liftquad.trajectories import (MAX_OFFSET, MAX_OMEGA, MAX_RADIUS,
                                   MAX_SPEED, TrajectoryDef, TrajectoryKind,
                                   sample as sample_trajectory)
import oracles
from oracles import (GRAVITY_VEC, aero_force_wing, body_to_wing_rotation,
                     rodrigues)


def float_tuple(x):
    return tuple(map(float, x))


def vectors(bound, size=3):
    return st.lists(st.floats(-bound, bound), min_size=size,
                    max_size=size).map(np.array)


def units(size):
    return vectors(1.0, size).filter(
        lambda x: np.linalg.norm(x) > 0.1).map(lambda x: x / np.linalg.norm(x))


airframes = st.builds(
    AeroParams, mass=st.floats(0.1, 50.0),
    kappa=st.floats(KAPPA_MIN, KAPPA_MAX, exclude_min=True),
    cd0=st.floats(0.0, 1.0), cy0=st.floats(0.0, 1.0), cla=st.floats(0.0, 10.0))
# speeds up to 50 m/s: at rest, vertical, around the hover band, anywhere
velocities = st.one_of(
    st.just(np.zeros(3)),
    st.floats(-50.0, 50.0).map(lambda w: np.array([0.0, 0.0, w])),
    vectors(0.6), vectors(50.0 / math.sqrt(3.0)))
# a = g is the thrust-free rest
accelerations = st.one_of(st.just(GRAVITY_VEC), vectors(30.0))
# float 3-tuples, the form the reference gives the transform
samples = st.builds(FlatSample, p=vectors(100.0).map(float_tuple),
                    v=velocities.map(float_tuple),
                    a=accelerations.map(float_tuple),
                    j=vectors(100.0).map(float_tuple),
                    psi=st.floats(-math.pi, math.pi))
winds = st.just((0.0, 0.0, 0.0)) | vectors(10.0).map(float_tuple)
contexts = st.one_of(
    st.none(), st.builds(TransformContext),
    st.builds(TransformContext, held_axis=units(3).map(float_tuple),
              in_singular=st.booleans()))


def all_finite(*values):
    return all(np.all(np.isfinite(value)) for value in values)


def as_arrays(record, names):
    """``record`` with its fields ``names`` as numpy arrays, the form the
    numpy oracles read."""
    return record.replace(**{name: np.array(getattr(record, name), float)
                             for name in names})


@settings(max_examples=300, deadline=None)
@given(params=airframes, sample=samples, ctx=contexts, wind=winds)
def test_flatness_transform_is_total(params, sample, ctx, wind):
    out = flatness_transform(params.replace(wind=wind), sample, ctx)
    assert all_finite(out.rotation, out.thrust, out.alpha, out.omega,
                      out.wind_axis, out.airspeed)
    rotation = np.asarray(out.rotation)
    assert np.linalg.norm(rotation.T @ rotation - np.eye(3)) < 1e-10
    assert np.linalg.det(rotation) > 0.0
    assert out.thrust <= 0.0


_FIELDS = ("p", "v", "a", "j", "psi")


@settings(max_examples=300, deadline=None)
@given(sample=samples, ctx=contexts, wind=winds, arrays=st.booleans(),
       bad=st.dictionaries(st.integers(0, 12),
                           st.sampled_from([math.inf, -math.inf, math.nan]),
                           min_size=1, max_size=3))
def test_flatness_transform_refuses_non_finite_input(sample, ctx, wind,
                                                     arrays, bad):
    # outside its domain the transform raises one ValueError naming the
    # first field (in the order p, v, a, j, psi) with a non-finite one of
    # its thirteen components, on float tuples and numpy arrays, under
    # the strict error state too, and leaves the context be
    values = [*sample.p, *sample.v, *sample.a, *sample.j, sample.psi]
    for index, value in bad.items():
        values[index] = value
    vector = np.array if arrays else tuple
    sample = FlatSample(*(vector(values[i:i + 3]) for i in (0, 3, 6, 9)),
                        values[12])
    before = None if ctx is None else (ctx.held_axis, ctx.in_singular)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        with pytest.raises(ValueError, match=f"^flat sample field "
                                             f"{_FIELDS[min(bad) // 3]} is "
                                             f"not finite$"):
            flatness_transform(AeroParams(wind=wind), sample, ctx)
    assert before is None or (ctx.held_axis, ctx.in_singular) == before


_ZERO = (0.0, 0.0, 0.0)
_FREE_FALL = (0.0, 0.0, GRAVITY)


def _flat_example(v, a, params=AeroParams(), wind=_ZERO):
    return example(params=params, sample=FlatSample(_ZERO, v, a, _ZERO),
                   ctx=None, wind=wind, bad=None)


def _copy_context(ctx, vector):
    """A copy of ``ctx`` whose held axis, if any, is ``vector(held)``."""
    if ctx is None:
        return None
    held = None if ctx.held_axis is None else vector(ctx.held_axis)
    return TransformContext(held, ctx.in_singular)


@settings(max_examples=500, deadline=None)
@given(params=airframes, sample=samples, ctx=contexts, wind=winds,
       bad=st.none() | st.tuples(
           st.sampled_from(["p", "v", "a", "j", "psi"]), st.integers(0, 2),
           st.sampled_from([math.inf, -math.inf, math.nan])))
@_flat_example((4.0, -3.0, 0.5), (1.0, 2.0, -1.0))          # smooth
@_flat_example(_ZERO, _ZERO)                                # hover
@_flat_example((0.0, 0.0, -3.0), _ZERO)                     # vertical
@_flat_example(_ZERO, _FREE_FALL)                           # free fall
@_flat_example((3.0, 0.0, 0.0), _FREE_FALL, AeroParams().zeroed())
@_flat_example((5.0, 0.0, 0.0), _ZERO, wind=(5.0, 0.0, 0.0))
@example(params=AeroParams(mass=1.0, kappa=1.0, cd0=5.96e-08, cy0=1.0,
                           cla=3.0),
         sample=FlatSample(_ZERO, _ZERO, _FREE_FALL, (0.0, 1.0, 0.0)),
         ctx=None, wind=(0.0, 0.0, 1.0), bad=None)  # axis-aligned, cond 2e8
def test_float_flatness_transform_is_the_numpy_oracle(params, sample, ctx,
                                                      wind, bad):
    # smooth, zero-velocity, axis-aligned and free-fall samples, with and
    # without wind, from fresh and holding contexts, and samples outside
    # the domain: the float transform on tuples takes the numpy oracle's
    # branches and refusals, leaves the same context, and agrees with its
    # numbers
    params = params.replace(wind=wind)
    if bad is not None:
        field, axis, value = bad
        if field == "psi":
            sample = sample.replace(psi=value)
        else:
            vector = list(getattr(sample, field))
            vector[axis] = value
            sample = sample.replace(**{field: tuple(vector)})
    float_ctx = _copy_context(ctx, float_tuple)
    oracle_ctx = _copy_context(ctx, lambda held: np.array(held, dtype=float))
    arrays = as_arrays(sample, "pvaj")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            expected = oracles.flatness_transform(params, arrays, oracle_ctx)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            flatness_transform(params, sample, float_ctx)
        expected = out = None
    else:
        out = flatness_transform(params, sample, float_ctx)
    if ctx is not None:
        assert float_ctx.in_singular is oracle_ctx.in_singular
        assert (float_ctx.held_axis is None) == (oracle_ctx.held_axis is None)
        if oracle_ctx.held_axis is not None:
            assert_agrees(float_ctx.held_axis, oracle_ctx.held_axis)
    if expected is None:
        return
    assert out.singular is expected.singular
    for name in ("rotation", "thrust", "alpha", "airspeed", "wind_axis"):
        assert_agrees(getattr(out, name), getattr(expected, name))
    # the body rate solves a 3x3 system: its error scales with the
    # system's condition number.  An axis-aligned sample solves the same
    # system; the zero-velocity regime and an exactly singular system
    # give exact zeros
    condition = 1.0
    if expected.singular is not SingularCase.ZERO_VELOCITY:
        a_mat, _, _ = oracles.body_rate_system(
            params, arrays, expected.rotation, expected.thrust,
            expected.airspeed)
        condition = np.linalg.cond(a_mat)
        if not np.isfinite(condition):
            condition = 1.0
    scale = max(1.0, float(np.max(np.abs(expected.omega))))
    assert_allclose(np.asarray(out.omega, dtype=float), expected.omega,
                    rtol=0.0, atol=1e-12 * condition * scale)


@settings(max_examples=200, deadline=None)
@given(params=airframes, sample=samples, wind=winds,
       offset=vectors(50.0), v=vectors(50.0), attitude=units(4),
       held=st.none() | units(4), integrator=vectors(3.0),
       saturated=st.booleans(), switches=st.lists(st.booleans(), min_size=3,
                                                  max_size=3))
def test_controller_commands_stay_within_limits(
        params, sample, wind, offset, v, attitude, held, integrator,
        saturated, switches):
    # the integral, the wing and the rate feedforward, each on or off
    integral, wing, rate_ff = switches
    params = params.replace(wind=wind)
    model = params if wing else params.zeroed()
    gains = ControlGains() if integral else ControlGains(kvi=0.0)
    flat = flatness_transform(model, sample)
    limits = ControlLimits()
    ctx = ControllerContext(
        integrator=integrator,
        held_quat=held,
        thrust_saturated=saturated)
    state = (sample.p + offset, v, attitude)
    cmd = controller_step(model, gains, rate_ff, limits, sample,
                          flat, state, ctx, 0.004)
    assert all_finite(cmd.thrust, cmd.omega)
    assert limits.thrust_min(model) <= cmd.thrust <= 0.0
    assert np.all(np.abs(cmd.omega) <= limits.omega_max)


def assert_agrees(actual, expected):
    """Equal to 1e-12 of the larger of 1 and the largest magnitude."""
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert_allclose(np.asarray(actual, dtype=float), expected, rtol=0.0,
                    atol=1e-12 * scale)


def assert_controllers_agree(params, gains, rate_ff, limits, sample, flat, p,
                             v, q, ctx, steps=1):
    """Run the float controller on float tuples and the numpy oracle on
    arrays, ``steps`` ticks from the same context, and compare the
    commands and the contexts they leave."""
    oracle_ctx = ControllerContext(
        np.array(ctx.integrator, dtype=float), ctx.thrust_saturated,
        None if ctx.held_quat is None else np.array(ctx.held_quat, float))
    ctx = ControllerContext(
        tuple(map(float, ctx.integrator)), ctx.thrust_saturated,
        None if ctx.held_quat is None else tuple(map(float, ctx.held_quat)))
    floats = tuple(tuple(map(float, x)) for x in (p, v, q))
    arrays = tuple(np.array(x, dtype=float) for x in (p, v, q))
    for _ in range(steps):
        cmd = controller_step(params, gains, rate_ff, limits, sample, flat,
                              floats, ctx, 0.004)
        expected = oracles.controller_step(
            params, gains, rate_ff, limits, as_arrays(sample, "pvaj"),
            as_arrays(flat, ("rotation", "omega", "airspeed", "wind_axis")),
            arrays, oracle_ctx, 0.004)
        assert type(cmd.thrust) is float and type(cmd.omega) is tuple
        assert_agrees(cmd.thrust, expected.thrust)
        assert_agrees(cmd.omega, expected.omega)
        assert_agrees(ctx.integrator, oracle_ctx.integrator)
        assert_agrees(ctx.held_quat, oracle_ctx.held_quat)
        assert ctx.thrust_saturated is oracle_ctx.thrust_saturated
    return ctx


@settings(max_examples=300, deadline=None)
@given(params=airframes, sample=samples, wind=winds,
       offset=st.just(np.zeros(3)) | vectors(50.0),
       v=st.none() | vectors(50.0), attitude=units(4),
       held=st.none() | units(4),
       integrator=st.just(np.zeros(3)) | vectors(3.0),
       limit=st.sampled_from([0.0, 0.5, 3.0]),
       saturated=st.booleans(),
       switches=st.lists(st.booleans(), min_size=3, max_size=3))
def test_float_controller_is_the_numpy_oracle(
        params, sample, wind, offset, v, attitude, held, integrator, limit,
        saturated, switches):
    # on and off the reference (v None: the vehicle flies the reference
    # velocity, so a = g references fall freely), PID and PD, both
    # feedforwards, clamped and frozen integrators
    integral, wing, rate_ff = switches
    params = params.replace(wind=wind)
    model = params if wing else params.zeroed()
    gains = ControlGains(integrator_limit=limit)
    if not integral:
        gains = gains.replace(kvi=0.0)
    flat = flatness_transform(model, sample)
    limits = ControlLimits()
    ctx = ControllerContext(integrator, saturated, held)
    assert_controllers_agree(
        model, gains, rate_ff, limits, sample, flat, sample.p + offset,
        sample.v if v is None else v, attitude, ctx, steps=2)


_G = GRAVITY


@pytest.mark.parametrize(
    "wing, a_ref, heading, flat_rotation, v, integrator, limits, y_body", [
        # the demand along both headings: the earth x axis, then the y axis
        (False, (0.0, 0.0, 2.0 * _G), (0.0, 0.0, 1.0),
         rodrigues(np.array([0.0, 1.0, 0.0]), -0.5 * math.pi), (0, 0, 0),
         (0, 0, 0), ControlLimits(), (0.0, -1.0, 0.0)),
        (False, (5.0, 0.0, _G), (1.0, 0.0, 0.0), np.eye(3), (0, 0, 0),
         (0, 0, 0), ControlLimits(), (0.0, 0.0, -1.0)),
        # free fall
        (False, (0.0, 0.0, _G), (1.0, 0.0, 0.0), np.eye(3), (0, 0, 0),
         (0, 0, 0), ControlLimits(), None),
        # the thrust floor, whose next tick freezes the integrator
        (True, (0.0, 0.0, -3.0 * _G), (1.0, 0.0, 0.0), np.eye(3),
         (0.0, 0.0, 5.0), (0.5, -0.5, 0.5), ControlLimits(thrust_factor=0.68),
         (0.0, 1.0, 0.0)),
        # the integrator clamp on all three axes
        (True, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), np.eye(3),
         (-5.0, 5.0, -5.0), (2.999, -2.999, 2.999), ControlLimits(), None),
    ], ids=["earth-x", "earth-y", "free-fall", "thrust-floor", "clamp"])
def test_float_controller_is_the_numpy_oracle_on_every_branch(
        wing, a_ref, heading, flat_rotation, v, integrator, limits, y_body):
    # the model the run believes; at zero airspeed either compensates 0
    params, gains = AeroParams(), ControlGains()
    if not wing:
        params = params.zeroed()
    sample = FlatSample((1.0, 2.0, -3.0), _ZERO, a_ref, _ZERO)
    flat = FlatnessOutput(tuple(map(tuple, flat_rotation.tolist())), -10.0,
                          params.kappa, _ZERO, _ZERO, heading,
                          SingularCase.AXIS_ALIGNED)
    q = (1.0, 0.0, 0.0, 0.0)
    held = mat_to_quat(rodrigues(np.array([0.0, 0.0, 1.0]), 0.4))
    ctx = ControllerContext(integrator, False, held)
    ctx = assert_controllers_agree(params, gains, True, limits, sample, flat,
                                   sample.p, v, q, ctx, steps=2)
    # each case takes the branch it is named for
    rotation, thrust, free_fall = accel_to_attitude_thrust(
        params, gains, sample.a, flat)
    if y_body is None:
        assert free_fall or np.all(np.abs(ctx.integrator) == 3.0)
        assert not free_fall or ctx.held_quat == held
    else:
        assert np.array_equal(np.asarray(rotation)[:, 1], y_body)
        assert ctx.thrust_saturated == (thrust < limits.thrust_min(params))


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(TrajectoryKind), p0=vectors(MAX_OFFSET),
       r=st.floats(0.0, MAX_RADIUS), omega=st.floats(0.0, MAX_OMEGA),
       speed_cap=st.floats(-MAX_SPEED, MAX_SPEED),
       psi=st.floats(allow_nan=False, allow_infinity=False),
       t=st.floats(0.0, MAX_ROWS - 1.0))
def test_reference_stays_finite_over_the_accepted_keys(
        kind, p0, r, omega, speed_cap, psi, t):
    # any time a run can reach (its most rows at 1 Hz): every sample is
    # finite, and so is its norm under numpy's strict error state
    assume(kind is not TrajectoryKind.CIRCLE or speed_cap > 0.0)
    traj = TrajectoryDef(kind, p0, r, omega, speed_cap, psi)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        ref = sample_trajectory(traj, t)
        for value in (ref.p, ref.v, ref.a, ref.j):
            assert math.isfinite(np.linalg.norm(value))


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(TrajectoryKind), p0=vectors(MAX_OFFSET),
       r=st.just(0.0) | st.floats(0.0, MAX_RADIUS) | st.floats(0.0, 50.0),
       omega=st.just(0.0) | st.floats(0.0, MAX_OMEGA) | st.floats(0.0, 2.0),
       speed_cap=st.floats(-MAX_SPEED, MAX_SPEED),
       psi=st.floats(-10.0, 10.0),
       times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=4))
@example(kind=TrajectoryKind.CIRCLE, p0=np.zeros(3), r=0.0, omega=0.06,
         speed_cap=10.0, psi=0.0, times=[0.0, 1e4])
@example(kind=TrajectoryKind.CIRCLE, p0=np.zeros(3), r=15.0, omega=0.0,
         speed_cap=10.0, psi=0.0, times=[0.0, 1e4])
@example(kind=TrajectoryKind.LEMNISCATE, p0=np.zeros(3), r=0.0, omega=0.33,
         speed_cap=10.0, psi=0.0, times=[0.0, 1e4])
@example(kind=TrajectoryKind.LEMNISCATE, p0=np.zeros(3), r=20.0, omega=0.0,
         speed_cap=10.0, psi=0.0, times=[0.0, 1e4])
@example(kind=TrajectoryKind.LINE, p0=np.zeros(3), r=0.0, omega=0.0,
         speed_cap=-4.0, psi=0.7, times=[0.0, 1e4])
def test_a_sample_is_its_formulas_bit_for_bit(kind, p0, r, omega, speed_cap,
                                              psi, times):
    # the terms a definition derives once give every sample the bits of
    # the formulas computed at each call; on the circle both sides of
    # the switch too, and the switch itself
    assume(kind is not TrajectoryKind.CIRCLE or speed_cap > 0.0)
    traj = TrajectoryDef(kind, p0, r, omega, speed_cap, psi)
    t_switch = traj.switch_time()
    if t_switch <= 1e4:
        times += [t_switch, math.nextafter(t_switch, math.inf)]
    for t in times:
        ref = sample_trajectory(traj, t)
        p, v, a, j, yaw = oracles.sample_by_formula(traj, t)
        assert _bits([ref.p, ref.v, ref.a, ref.j]) == _bits([p, v, a, j]), t
        assert _bits(ref.psi) == _bits(yaw)


# both zeros, subnormals, entries of one scale (whose sums round by
# the order they are added in) and decades from 1e-300 to 1e300, whose
# products and squares overflow, underflow and go subnormal
_SMALLEST_NORMAL = float(np.finfo(np.float64).smallest_normal)
magnitudes = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),
    st.floats(-2.0, 2.0),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(-10.0, 10.0), st.integers(-300, 299)))
triples = st.lists(magnitudes, min_size=3, max_size=3).map(np.array)
matrices = st.builds(
    lambda entries, transpose: entries.T if transpose else entries,
    st.lists(magnitudes, min_size=9, max_size=9).map(
        lambda x: np.array(x).reshape(3, 3)),
    st.booleans())
_RAISE = {"over": "raise", "invalid": "raise", "divide": "raise"}


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _raises(fn, *args):
    try:
        with np.errstate(**_RAISE):
            fn(*args)
    except FloatingPointError:
        return True
    return False


unit_axes = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda x: math.hypot(*x) > 0.1).map(lambda x: np.array(x) / math.hypot(*x))
rotations = st.builds(rodrigues, unit_axes, st.floats(-math.pi, math.pi))


def decades(low, high):
    return st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
                     st.floats(1.0, 10.0), st.integers(low, high))


huge_airframes = st.builds(
    AeroParams, mass=decades(-300, 299),
    kappa=st.floats(KAPPA_MIN, KAPPA_MAX, exclude_min=True),
    rho=decades(-300, 299), area=st.just(0.0) | decades(-300, 299),
    cd0=st.just(0.0) | decades(-300, 299),
    cy0=st.just(0.0) | decades(-300, 299),
    cla=st.just(0.0) | decades(-300, 299))
huge_vectors = st.lists(magnitudes, min_size=3, max_size=3).map(float_tuple)


@settings(max_examples=500, deadline=None)
@given(params=st.one_of(airframes, huge_airframes), v=huge_vectors,
       a=huge_vectors, j=huge_vectors,
       wind=st.just((0.0, 0.0, 0.0)) | huge_vectors,
       ctx=contexts)
def test_flatness_transform_is_finite_or_overflows(params, v, a, j, wind, ctx):
    # finite samples and airframes of every magnitude, whose squares and
    # products overflow: the transform returns a finite output or raises
    # the one FloatingPointError naming it, and warns of nothing
    sample = FlatSample((0.0, 0.0, 0.0), v, a, j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = flatness_transform(params.replace(wind=wind), sample, ctx)
        except FloatingPointError as exc:
            assert str(exc) == "overflow encountered in the flatness transform"
            return
    assert all_finite(out.rotation, out.thrust, out.alpha, out.omega,
                      out.wind_axis, out.airspeed)
    assert out.thrust <= 0.0


@settings(max_examples=1000, deadline=None)
@given(rotation=st.one_of(matrices, rotations),
       airspeed=st.one_of(triples, st.builds(lambda axis, speed: axis * speed,
                                             unit_axes, decades(-300, 299))),
       mass=decades(-300, 3))
def test_aero_accel_is_one_kernel_on_numpy_and_float_inputs(rotation,
                                                            airspeed, mass):
    # the plant and the controller pass float tuples, the numpy
    # controller oracle arrays: the same bits either way, and on arrays
    # under the strict error state
    # a result that overflows raises instead of coming back non-finite,
    # for light airframes too
    params = AeroParams(mass=mass, cy0=0.1)
    floats = aero_accel(params, rotation.tolist(), airspeed.tolist())
    with np.errstate(all="ignore"):
        assert _bits(aero_accel(params, rotation, airspeed)) == _bits(floats)
    assert (_raises(aero_accel, params, rotation, airspeed)
            == (not all(map(math.isfinite, floats))))


@settings(max_examples=300, deadline=None)
@given(kappa_deg=st.floats(16.0, 90.0), cy0=st.floats(0.0, 1.0),
       rotation=rotations,
       airspeed=st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3))
def test_aero_accel_is_the_wing_frame_force_at_every_wing_angle(
        kappa_deg, cy0, rotation, airspeed):
    # oracle: the wing-frame force rotated to earth, over the mass
    params = AeroParams(kappa=math.radians(kappa_deg), cy0=cy0)
    airspeed = np.array(airspeed)
    expected = (rotation @ body_to_wing_rotation(params.kappa).T
                @ aero_force_wing(params, rotation, airspeed) / params.mass)
    accel = aero_accel(params, rotation.tolist(), airspeed.tolist())
    np.testing.assert_allclose(accel, expected, rtol=1e-12, atol=1e-12)


# half turns about the earth axes and near them: Shepperd's x, y and z
# branches
_AXES = np.eye(3)
half_turns = st.builds(
    lambda axis, tilt, angle: rodrigues(
        (axis + tilt) / np.linalg.norm(axis + tilt), angle),
    st.sampled_from(list(_AXES)), vectors(0.3),
    st.floats(2.5, math.pi) | st.floats(-math.pi, -2.5))


@settings(max_examples=500, deadline=None)
@given(rotation=st.one_of(rotations, half_turns),
       noise=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
           lambda x: np.array(x).reshape(3, 3)),
       scale=st.just(0.0) | decades(-12, 1),
       flip=st.booleans())
@example(rotation=_AXES, noise=np.zeros((3, 3)), scale=0.0, flip=False)
@example(rotation=np.diag([1.0, -1.0, -1.0]), noise=np.zeros((3, 3)),
         scale=0.0, flip=False)
@example(rotation=np.diag([-1.0, 1.0, -1.0]), noise=np.zeros((3, 3)),
         scale=0.0, flip=False)
@example(rotation=np.diag([-1.0, -1.0, 1.0]), noise=np.zeros((3, 3)),
         scale=0.0, flip=False)
@example(rotation=_AXES, noise=np.array([[0.0, np.nan, 0.0], [0.0] * 3,
                                         [0.0] * 3]), scale=1.0, flip=False)
def test_float_mat_to_quat_is_the_numpy_oracle(rotation, noise, scale, flip):
    # rotations on all four of Shepperd's branches, perturbed from exact
    # to far off orthonormal, reflections and a NaN entry: the float
    # conversion refuses exactly the matrices the oracle refuses, and
    # agrees with it on the rest
    matrix = rotation + scale * noise
    if flip:
        matrix[:, 2] = -matrix[:, 2]
    try:
        expected = oracles.mat_to_quat(matrix)
    except NonOrthonormalError:
        with pytest.raises(NonOrthonormalError):
            mat_to_quat(matrix.tolist())
        return
    quat = mat_to_quat(matrix.tolist())
    assert type(quat) is tuple and quat[0] >= 0.0
    assert_allclose(quat, expected, rtol=0.0, atol=1e-15)
