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
from hypothesis import given, settings, strategies as st

from liftquad import control, flatness
from liftquad.aero import AeroParams
from liftquad.control import (ControlGains, ControlInput, ControlLimits,
                              ControllerContext, controller_step, saturate,
                              velocity_loop)
from liftquad.dynamics import VehicleState, require_finite
from liftquad.flatness import (FlatnessOutput, FlatSample, SingularCase,
                               flatness_transform)
from liftquad.geom import mat_to_quat, quat_to_rotation_vector
import oracles

_EDGES = (math.inf, -math.inf, math.nan, 1e308, -1e308,
          1.7976931348623157e308, 0.0, -0.0, 5e-324, 1.0)
components = st.sampled_from(_EDGES) | st.floats()
# a reference point at 1 m/s, in the transform's smooth branch
_SAMPLE = FlatSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0), 0.0)
_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@contextlib.contextmanager
def _strict():
    with np.errstate(over="raise"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _scalars(values, numpy):
    return [np.float64(x) for x in values] if numpy else list(values)


def _finite(values):
    return all(map(math.isfinite, values))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(components, min_size=15, max_size=15),
       numpy=st.booleans())
def test_the_plant_gate_refuses_what_a_test_of_each_component_refuses(
        values, numpy):
    v = _scalars(values, numpy)
    state = VehicleState(tuple(v[0:3]), tuple(v[3:6]),
                         (tuple(v[6:9]), tuple(v[9:12]), tuple(v[12:15])))
    with _strict():
        if _finite(values):
            require_finite(state)
        else:
            with pytest.raises(FloatingPointError,
                               match="^overflow encountered in the plant$"):
                require_finite(state)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(components, min_size=13, max_size=13),
       numpy=st.booleans())
def test_the_transform_input_gate_refuses_what_a_test_of_each_field_refuses(
        values, numpy):
    v = _scalars(values, numpy)
    sample = FlatSample(tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9]),
                        tuple(v[9:12]), v[12])
    bad = [i for i, x in enumerate(values) if not math.isfinite(x)]
    with _strict():
        if bad:
            field = ("p", "v", "a", "j", "psi")[bad[0] // 3]
            with pytest.raises(ValueError, match=f"^flat sample field "
                                                 f"{field} is not finite$"):
                flatness_transform(AeroParams(), sample)
        else:
            # in its domain: a feedforward, or an overflow it names
            with contextlib.suppress(FloatingPointError):
                flatness_transform(AeroParams(), sample)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(components, min_size=14, max_size=14),
       numpy=st.booleans())
def test_the_transform_output_gate_refuses_what_a_test_of_each_value_refuses(
        values, numpy):
    v = _scalars(values, numpy)
    out = FlatnessOutput((tuple(v[0:3]), tuple(v[3:6]), tuple(v[6:9])),
                         v[9], v[10], tuple(v[11:14]), (1.0, 0.0, 0.0),
                         (1.0, 0.0, 0.0), SingularCase.NONE)
    with _strict(), mock.patch.object(flatness, "_smooth_output",
                                      return_value=out):
        if _finite(values):
            assert flatness_transform(AeroParams(), _SAMPLE) is out
        else:
            with pytest.raises(FloatingPointError, match="^overflow "
                               "encountered in the flatness transform$"):
                flatness_transform(AeroParams(), _SAMPLE)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(components, min_size=3, max_size=3),
       numpy=st.booleans())
def test_the_integral_gate_refuses_what_a_test_of_each_axis_refuses(values,
                                                                     numpy):
    # no velocity error: the step adds +0.0 to each axis of the integral
    zero = (0.0, 0.0, 0.0)
    integrator = tuple(_scalars(values, numpy))
    with _strict():
        if _finite(values):
            velocity_loop(ControlGains(), True, zero, zero, zero, integrator,
                          0.004)
        else:
            with pytest.raises(FloatingPointError, match="^overflow "
                               "encountered in the controller$"):
                velocity_loop(ControlGains(), True, zero, zero, zero,
                              integrator, 0.004)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(components, min_size=4, max_size=4),
       numpy=st.booleans())
def test_the_command_gate_refuses_what_a_test_of_each_value_refuses(values,
                                                                    numpy):
    thrust, *omega = _scalars(values, numpy)
    flat = flatness_transform(AeroParams(), _SAMPLE)
    state = (_SAMPLE.p, _SAMPLE.v, (1.0, 0.0, 0.0, 0.0))

    def step():
        return controller_step(AeroParams(), ControlGains(), True,
                               ControlLimits(), _SAMPLE, flat, state,
                               ControllerContext(), 0.004)
    with _strict(), mock.patch.object(
            control, "accel_to_attitude_thrust",
            return_value=(_IDENTITY, thrust, False)), mock.patch.object(
            control, "attitude_loop", return_value=tuple(omega)):
        if _finite(values):
            assert type(step()) is ControlInput
        else:
            with pytest.raises(FloatingPointError, match="^overflow "
                               "encountered in the controller$"):
                step()


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


@settings(max_examples=500, deadline=None)
@given(q=st.lists(st.sampled_from(_TIES) | components, min_size=4,
                  max_size=4) | tie_quats)
def test_quat_to_rotation_vector_is_its_min_max_form(q):
    assert _outcome(quat_to_rotation_vector, q) == _outcome(
        oracles.quat_to_rotation_vector_minmax, q)


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
