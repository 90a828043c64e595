"""Config fuzzer: random config text through every subcommand.

Each example writes a config file from ``config._SCHEMA``: a few keys,
each given an in-range value, a range end or a value just past one,
a huge, tiny or non-finite number, or a malformed one; sometimes with a
malformed line, an unknown key or a duplicate key.  ``sim.duration`` is
always set, and short for the rates drawn, so that an accepted config
runs at most ``_ROWS`` ticks; values that the row and plant-step budgets
refuse are drawn in full.  ``sim.abort_radius`` is drawn about the
tracking errors of such a short run, so that some runs diverge.

The properties: every subcommand exits 0 with nothing on stderr, 2
with one ``config error:`` line, or 3 with one ``error:`` line after at
most the partial-trace line, and never raises; every written row is
finite; and each of ``compare``'s five cells, one per entry of
``CONDITIONS``, writes the bytes ``sim --condition`` writes for it.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from liftquad.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from liftquad.config import (_SCHEMA, CONDITIONS, MAX_PLANT_STEPS,
                             MAX_ROWS)
from liftquad.control import ControlLimits
from liftquad.trajectories import (MAX_OFFSET, MAX_OMEGA, MAX_RADIUS,
                                   MAX_SPEED)

# most ticks an accepted config runs, at any rate drawn
_ROWS = 50
_MAX_RATE = 1000
# where the schema's float range rules end: each end, its negative and
# the floats on either side of them
_RULE_ENDS = (0.0, 1.0, ControlLimits().thrust_factor, 15.0, 90.0,
              MAX_OFFSET, MAX_RADIUS, MAX_OMEGA, MAX_SPEED)
_EDGES = sorted({x for end in _RULE_ENDS for e in (end, -end)
                 for x in (e, math.nextafter(e, math.inf),
                           math.nextafter(e, -math.inf))})
_EXTREMES = (1e300, -1e300, 1.7976931348623157e308, 1e154, -1e154,
             1e-300, 5e-324, -5e-324)
_NOT_FINITE = ("nan", "inf", "-inf", "1e999")
_MALFORMED = ("abc", "1.2.3", "0x10", "1e", "true", "1,5")
_INT_EDGES = (0, -1, MAX_ROWS, MAX_ROWS + 1, MAX_PLANT_STEPS + 1, 10**30)
# abort radii from 1 m down to 1e-7 m, about a short run's errors
_RADII = [repr(10.0 ** -(n / 2)) for n in range(15)]
_KINDS = ("circle", "lemniscate", "hover", "line", "spiral", "Circle")
# keys that size a run, drawn together so that the run stays short, and
# the abort radius, drawn about the tracking errors of such a run
_SIM_KEYS = ("sim.duration", "sim.rate", "sim.substeps", "sim.abort_radius")


def _mostly(common, rare, one_in=8):
    """``rare`` one draw in ``one_in``, ``common`` the others, so that
    about half the configs pass the parser and run."""
    return st.sampled_from([common] * (one_in - 1) + [rare]).flatmap(
        lambda strategy: strategy)


def _float_text(default):
    # the default scaled by a factor in [0, 4] or by a power of ten
    scale = st.one_of(st.floats(0.0, 4.0),
                      st.integers(-6, 6).map(lambda n: 10.0 ** n))
    near = scale.map(lambda f: repr(f * (default or 1.0)))
    return _mostly(near, st.one_of(
        st.sampled_from([repr(x) for x in _EDGES]),
        st.sampled_from([repr(x) for x in _EXTREMES]),
        st.sampled_from(_NOT_FINITE + _MALFORMED)), one_in=4)


def _value_text(key):
    tag, default = _SCHEMA[key]
    if tag == "float":
        return _float_text(default)
    if tag == "int":
        return _mostly(st.integers(0, 5).map(str), st.sampled_from(
            [str(n) for n in _INT_EDGES] + ["2.5", "nan", "abc"]))
    if tag == "bool":
        return _mostly(st.sampled_from(("true", "false")),
                       st.sampled_from(("True", "1", "yes")))
    return _mostly(st.sampled_from(_KINDS[:4]), st.sampled_from(_KINDS[4:]))


@st.composite
def _sim_lines(draw):
    """``sim.rate``, ``sim.substeps``, ``sim.abort_radius`` and
    ``sim.duration`` lines: short runs at an accepted rate, or a value
    past a rule."""
    lines = []
    rate = _SCHEMA["sim.rate"][1]
    if draw(st.booleans()):
        rate = draw(_mostly(st.integers(1, _MAX_RATE), st.sampled_from(
            (0, -1, MAX_ROWS + 1, 10**400))))
        lines.append(f"sim.rate = {rate}")
    if draw(st.booleans()):
        substeps = draw(_mostly(st.integers(1, 4).map(str), st.sampled_from(
            ("0", "-2", str(MAX_PLANT_STEPS + 1), "1.5"))))
        lines.append(f"sim.substeps = {substeps}")
    # radii about the tracking errors of a short run, which some cross
    radius = draw(_mostly(st.sampled_from(_RADII), _float_text(None),
                          one_in=4))
    lines.append(f"sim.abort_radius = {radius}")
    if not 0 < rate <= _MAX_RATE:
        rate = 1
    duration = draw(_mostly(
        st.sampled_from(range(_ROWS, 0, -1)).map(lambda n: repr(n / rate)),
        st.sampled_from(("0", "-0.0", "-1", "5e-324", "1e300", "nan", "inf",
                         "abc"))))
    return lines + [f"sim.duration = {duration}"]


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(
        [key for key in _SCHEMA if key not in _SIM_KEYS]),
        max_size=6, unique=True))
    lines = [f"{key} = {draw(_value_text(key))}" for key in keys]
    lines += draw(_sim_lines())
    extra = draw(_mostly(st.sampled_from(("# a comment", "")), st.sampled_from(
        ("no equals sign", "= 1", "sim.rate =", "bogus.key = 1",
         "duplicate"))))
    lines.append(lines[0] if extra == "duplicate" else extra)
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _check_exit(code, err):
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
    if code == EXIT_OK:
        assert err == []
    elif code == EXIT_CONFIG:
        (line,) = err
        assert line.startswith("config error: ")
    else:
        *partial, line = err
        assert line.startswith("error: ")
        assert all(p.startswith("wrote partial trace to ") for p in partial)
        assert len(partial) <= 1


def _check_rows(out):
    for path in out.glob("*.csv"):
        for row in path.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in row.split(",")), path


@settings(max_examples=150, deadline=None)
@given(text=config_texts())
def test_every_subcommand_meets_the_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text(text)
        for command in ("sim", "flat", "check", "compare"):
            out = tmp / command
            code, err = _run([command, "--config", str(cfg),
                              "--out", str(out)])
            _check_exit(code, err)
            _check_rows(out)
            event(f"{command} exits {code}")
        if code != EXIT_OK:   # a refused config: compare wrote nothing
            return
        for name in CONDITIONS:
            alone = tmp / "alone"
            code, err = _run(["sim", "--config", str(cfg), "--condition",
                              name, "--out", str(alone)])
            _check_exit(code, err)
            assert (alone / f"{name}.csv").read_bytes() == \
                (tmp / "compare" / f"{name}.csv").read_bytes(), name
