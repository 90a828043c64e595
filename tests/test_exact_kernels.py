"""The per-tick kernels' cheap forms are the forms they replace, bit for
bit: each finiteness gate, which tests the norm of its values first,
refuses exactly what a test of each value refuses, with the same
exception and message; and the comparisons that replace the ``min`` and
``max`` builtins give the builtins' results, NaN and -0.0 included
(``tests/oracles.py`` keeps the builtin forms).

Gate values are drawn from the edges: finite values whose sum or norm
overflows (about +-1e308), infinities of both signs and NaN, as Python
floats and as numpy scalars, under numpy's strict overflow state with
every ``RuntimeWarning`` an error, so a gate can raise or warn only
where a test of each value does."""

import contextlib
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liftquad import control, flatness
from liftquad.aero import AeroParams
from liftquad.control import (ControlGains, ControlInput, ControlLimits,
                              ControllerContext, controller_step, saturate,
                              velocity_loop)
from liftquad.dynamics import VehicleState, require_finite
from liftquad.flatness import (FlatnessOutput, FlatSample, SingularCase,
                               flatness_transform)
from liftquad.geom import attitude_error, mat_to_quat
import oracles

_EDGES = (math.inf, -math.inf, math.nan, 1e308, -1e308,
          1.7976931348623157e308, 0.0, -0.0, 5e-324, 1.0)
components = st.sampled_from(_EDGES) | st.floats()
# a reference point at 1 m/s, in the transform's smooth branch
_SAMPLE = FlatSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0), 0.0)


@contextlib.contextmanager
def _strict():
    with np.errstate(over="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _plant(v):
    # the gate reads p, v and q: R, the rotation of a unit q, is finite
    require_finite(VehicleState(tuple(v[0:3]), tuple(v[3:6]),
                                tuple(v[6:10]), oracles.IDENTITY_ROWS))


def _transform_input(v):
    sample = FlatSample(tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]),
                        tuple(v[9:12]), v[12])
    # in its domain: a feedforward, or an overflow it names
    with contextlib.suppress(FloatingPointError):
        flatness_transform(AeroParams(), sample)


def _transform_output(v):
    out = FlatnessOutput((tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9])),
                         v[9], v[10], tuple(v[11:14]), (1.0, 0.0, 0.0),
                         (1.0, 0.0, 0.0), SingularCase.NONE)
    with mock.patch.object(flatness, "_smooth_output", return_value=out):
        assert flatness_transform(AeroParams(), _SAMPLE) is out


def _integral(v):
    # no velocity error: the step adds +0.0 to each axis of the integral
    zero = (0.0, 0.0, 0.0)
    velocity_loop(ControlGains(), True, zero, zero, zero, tuple(v), 0.004)


def _command(v):
    thrust, *omega = v
    flat = flatness_transform(AeroParams(), _SAMPLE)
    with mock.patch.object(control, "accel_to_attitude_thrust",
                           return_value=(oracles.IDENTITY_ROWS, thrust,
                                         False)), mock.patch.object(
            control, "attitude_loop", return_value=tuple(omega)):
        assert type(controller_step(
            AeroParams(), ControlGains(), True,
            ControlLimits().bounds(AeroParams()), _SAMPLE,
            flat, (_SAMPLE.p, _SAMPLE.v, (1.0, 0.0, 0.0, 0.0)),
            ControllerContext(), 0.004)) is ControlInput


def _field_refusal(bad):
    field = ("p", "v", "a", "j", "psi")[bad // 3]
    return ValueError, f"^flat sample field {field} is not finite$"


def _overflow(layer):
    return lambda bad: (FloatingPointError,
                        f"^overflow encountered in the {layer}$")


def _each_value_spoiled(count):
    """One example per value: that value inf, every other 1.0, so that a
    value a gate leaves out fails every run, not only one whose draws
    happen to spoil that value alone."""
    def decorate(test):
        for index in range(count):
            test = example(values=[1.0] * index + [math.inf]
                           + [1.0] * (count - 1 - index), numpy=False)(test)
        return test
    return decorate


def _gate_test(count, call, refusal):
    """A test that ``call`` of ``count`` values passes them when each is
    finite, and otherwise raises the error and message that ``refusal``
    gives for the index of the first value that is not finite."""
    @settings(max_examples=300, deadline=None)
    @_each_value_spoiled(count)
    @given(values=st.lists(components, min_size=count, max_size=count),
           numpy=st.booleans())
    def test(values, numpy):
        bad = [i for i, x in enumerate(values) if not math.isfinite(x)]
        v = [np.float64(x) for x in values] if numpy else values
        with _strict():
            if bad:
                error, message = refusal(bad[0])
                with pytest.raises(error, match=message):
                    call(v)
            else:
                call(v)
    return test


test_the_plant_gate_refuses_what_a_test_of_each_component_refuses = (
    _gate_test(10, _plant, _overflow("plant")))
test_the_transform_input_gate_refuses_what_a_test_of_each_field_refuses = (
    _gate_test(13, _transform_input, _field_refusal))
test_the_transform_output_gate_refuses_what_a_test_of_each_value_refuses = (
    _gate_test(14, _transform_output, _overflow("flatness transform")))
test_the_integral_gate_refuses_what_a_test_of_each_axis_refuses = (
    _gate_test(3, _integral, _overflow("controller")))
test_the_command_gate_refuses_what_a_test_of_each_value_refuses = (
    _gate_test(4, _command, _overflow("controller")))


def _outcome(function, *args):
    """What ``function`` returns, as the bits of its floats, or the type
    and message of what it raises."""
    try:
        out = function(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(out, ControlInput):
        out = (out.thrust, *out.omega)
    return type(out), struct.pack(f"<{len(out)}d", *out)


# unit quaternions of many ties: their rotations have equal diagonal
# entries, and zeros of either sign, at Shepperd's branch boundaries
_TIES = (0.0, -0.0, 0.5, -0.5, math.sqrt(0.5), -math.sqrt(0.5), 1.0, -1.0)
tie_quats = st.lists(st.sampled_from(_TIES) | st.floats(-1.0, 1.0),
                     min_size=4, max_size=4).filter(
    lambda q: 1e-3 < math.hypot(*q))


@st.composite
def rotations(draw):
    """A rotation's rows from a unit quaternion, each zero entry of a
    drawn sign; or three rows of any values, which are mostly refused."""
    if draw(st.booleans()):
        q = np.array(draw(tie_quats))
        rows = oracles.quat_to_mat(q / np.linalg.norm(q)).tolist()
        signs = draw(st.lists(st.booleans(), min_size=9, max_size=9))
        return tuple(tuple(math.copysign(x, -1.0) if x == 0.0 and sign
                           else x for x, sign in zip(row, signs[3 * i:]))
                     for i, row in enumerate(rows))
    entries = draw(st.lists(st.sampled_from(_TIES) | components, min_size=9,
                            max_size=9))
    return tuple(tuple(entries[i:i + 3]) for i in (0, 3, 6))


@settings(max_examples=500, deadline=None)
@given(rotation=rotations())
def test_mat_to_quat_is_its_max_form(rotation):
    assert _outcome(mat_to_quat, rotation) == _outcome(
        oracles.mat_to_quat_minmax, rotation)


quats = st.lists(st.sampled_from(_TIES) | components, min_size=4,
                 max_size=4) | tie_quats


@settings(max_examples=500, deadline=None)
@given(q=quats, q_d=quats)
def test_attitude_error_is_its_min_max_form(q, q_d):
    assert _outcome(attitude_error, q, q_d) == _outcome(
        oracles.attitude_error_minmax, q, q_d)


@st.composite
def saturations(draw):
    """Bounds of the documented ranges, and a thrust and rates drawn from
    anywhere, at the bounds and at either zero."""
    thrust_min = draw(st.sampled_from((-0.0, -58.86))
                      | st.floats(max_value=0.0, allow_infinity=False))
    omega_max = draw(st.sampled_from((6.0, 5e-324))
                     | st.floats(min_value=0.0, exclude_min=True,
                                 allow_infinity=False))
    edges = st.sampled_from((0.0, -0.0, thrust_min, omega_max, -omega_max))
    thrust = draw(edges | components)
    omega = draw(st.lists(edges | components, min_size=3, max_size=3))
    return thrust_min, omega_max, thrust, tuple(omega)


@settings(max_examples=500, deadline=None)
@given(args=saturations())
def test_saturate_is_its_min_max_form(args):
    out = saturate(*args)
    assert type(out) is ControlInput and out == tuple(out)
    assert _outcome(saturate, *args) == _outcome(oracles.saturate_minmax,
                                                 *args)
