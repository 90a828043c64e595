"""Experiment configuration: strict flat key-value files.

The format is one ``key = value`` pair per line with dotted section
keys (``plant.rho = 1.3``), ``#`` comments and blank lines.  Parsing is
deliberately strict: unknown keys, duplicate keys and malformed or
non-finite values are all errors, because reproducible runs require
that every knob in a config file actually did something.  Every key
has a default, so the empty file is a valid full experiment (the stock
circle).

Angle keys with a ``_deg`` suffix are degrees (``plant.kappa_deg``);
all other angles, ``trajectory.psi`` included, are radians like
everywhere in code.
"""

import math
from bisect import bisect_left
from numbers import Integral, Real

from .aero import AeroParams
from .control import ControlGains, ControlLimits
from .dynamics import PlantConfig
from .record import ConfigError, Frozen
from .trajectories import TrajectoryDef, TrajectoryKind


# The condition matrix's cells in run order, each with what it turns off:
# the velocity integral (gains.kvi = 0), the wing of the model the run
# believes (model.zeroed()) or the body-rate feedforward; the cells that
# share a reference stream are adjacent.
CONDITIONS = {
    "pid-dfaf": (),
    "pd-dfaf": ("integral",),
    "rate-ff-off": ("rate_ff",),
    "pid-df": ("wing",),
    "pd-df": ("integral", "wing"),
}

_KINDS = {k.value: k for k in TrajectoryKind}

# Most rows a run may log; 10**7 rows of a RunResult are about 1.9 GB.
MAX_ROWS = 10**7
# Most plant substeps a run may integrate; at about 0.1 ms each, 10**8
# substeps take about three hours.
MAX_PLANT_STEPS = 10**8
# RK4's stability interval on the negative real axis: h * |lambda| <= 2.785
RK4_REAL_LIMIT = 2.785
_LOG_RK4_LIMIT = math.log(RK4_REAL_LIMIT)
_LOG2 = math.log(2.0)
# each value's config key (a record's field name) and type, in the
# order checked
_TYPES = {"trajectory": (TrajectoryDef, "a TrajectoryDef"),
          "plant": (PlantConfig, "a PlantConfig"),
          "model": (AeroParams, "an AeroParams"),
          "gains": (ControlGains, "a ControlGains"),
          "limits": (ControlLimits, "a ControlLimits"),
          "mode.rate_ff": (bool, "a bool"),
          **dict.fromkeys(("sim.rate", "sim.substeps", "sim.delay_ticks"),
                          (Integral, "an integer")),
          **dict.fromkeys(("sim.duration", "sim.abort_radius"),
                          (Real, "a number"))}


def _log_drag_rate(aero, peak_speed):
    """Natural log of ``(rho*S/m) * max(cd0 + cla, |cy0|) * v``, with
    ``v = peak_speed + |wind|``: a bound (1/s) on the spectral radius of
    the plant's drag Jacobian ``(rho*S/2m) R D R^T (|v| I + v v^T/|v|)``
    at airspeeds up to ``v``, since ``max(cd0 + cla, |cy0|)`` is the
    largest eigenvalue of ``D``; -inf when the bound is 0.  A sum of
    logs, and each sum halved where it overflows, so it is finite for
    any finite inputs: no product can overflow or meet ``inf * 0``."""
    coeff, wind = max(aero.cd0 + aero.cla, abs(aero.cy0)), aero.wind
    speed = peak_speed + math.hypot(*wind)
    if aero.area == 0.0 or coeff == 0.0 or speed == 0.0:
        return -math.inf
    log_coeff = (math.log(coeff) if coeff < math.inf else
                 math.log(0.5 * aero.cd0 + 0.5 * aero.cla) + _LOG2)
    log_speed = (math.log(speed) if speed < math.inf else
                 math.log(0.5 * peak_speed
                          + math.hypot(*(0.5 * w for w in wind))) + _LOG2)
    return (math.log(aero.rho) + math.log(aero.area) - math.log(aero.mass)
            + log_coeff + log_speed)


class ExperimentConfig(Frozen):
    """Fully resolved experiment: reference, plant, controller model and
    gains, run length and output bookkeeping.

    ``model`` is everything the controller believes of the airframe, its
    wind estimate (``model.wind``) included, and is independent of the
    plant's truth; the flatness transform and the controller both read
    it, so a run without aerodynamic feedforward is a run of
    ``model.zeroed()``.  ``limits`` counts the thrust floor in weights
    of ``model``.  ``rate_ff`` (a bool) adds the flatness body rate to
    the body-rate command.

    The constructor refuses with a :class:`ConfigError` naming the key,
    as a config file's value is refused: one type rule takes each
    record field's record only (``gains`` a ``ControlGains``, and so
    on), a bool for ``rate_ff`` only, an integer for ``rate``,
    ``substeps`` and ``delay_ticks`` and a number for ``duration`` and
    ``abort_radius`` (a bool is neither), and the thrust floor's check,
    range checks and the run budgets follow.
    """

    __slots__ = _fields = (
        "trajectory", "plant", "model", "gains", "limits", "rate_ff",
        "duration", "rate", "substeps", "abort_radius", "delay_ticks")

    def __init__(self, trajectory=TrajectoryDef(), plant=PlantConfig(),
                 model=AeroParams(), gains=ControlGains(),
                 limits=ControlLimits(), rate_ff=True, duration=60.0,
                 rate=250, substeps=1, abort_radius=100.0, delay_ticks=0):
        self._set(trajectory, plant, model, gains, limits, rate_ff,
                  duration, rate, substeps, abort_radius, delay_ticks)
        for key, (kind, noun) in _TYPES.items():
            value = getattr(self, key.rpartition(".")[2])
            # a bool is a bool only: no count and no length
            if (isinstance(value, bool) is not (kind is bool)
                    or not isinstance(value, kind)):
                raise ConfigError(f"{key} must be {noun}, got {value!r}")
        if not math.isfinite(limits.thrust_min(model)):
            raise ConfigError("limits.thrust_factor times model.mass * g "
                              "must be finite")
        # written so that NaN fails the range checks too
        if not 0.0 < duration < math.inf:
            raise ConfigError("sim.duration must be finite and > 0")
        if not (rate > 0 and substeps > 0):
            raise ConfigError("sim.rate and sim.substeps must be > 0")
        if not 0.0 < abort_radius < math.inf:
            raise ConfigError("sim.abort_radius must be finite and > 0")
        # a delay longer than the longest run changes nothing
        if not 0 <= delay_ticks <= MAX_ROWS:
            raise ConfigError(f"sim.delay_ticks must be in [0, {MAX_ROWS}]")
        if duration > (MAX_ROWS - 1) / rate:  # a huge int rate: no overflow
            raise ConfigError(f"sim.rate * sim.duration must log at most "
                              f"{MAX_ROWS} rows")
        if rate > MAX_ROWS:  # an int rate: n_rows converts it to float
            raise ConfigError(f"sim.rate must be at most {MAX_ROWS} "
                              f"ticks per second")
        if self.n_rows * substeps > MAX_PLANT_STEPS:  # ints: no overflow
            raise ConfigError(f"sim.substeps * rows ({self.n_rows}) must be "
                              f"at most {MAX_PLANT_STEPS} plant steps")
        self._check_plant_step()
        # the plant substep follows from the tick rate, in a copy too
        object.__setattr__(self, "plant", plant.replace(
            step=1.0 / (rate * substeps)))

    def _check_plant_step(self):
        """Refuse a plant step outside RK4's stability interval on the
        wing's drag, ``step * J > RK4_REAL_LIMIT`` with ``J`` the bound of
        :func:`_log_drag_rate` at the reference's peak speed plus the
        wind.  ``J`` is about twice the largest radius measured along a
        run (370 against 185 /s on a stiff probe airframe), and that
        factor is the margin left for tracking error.  The refusal names
        the fewest substeps that pass, found by bisection over the
        budget, so no float is rounded to an int."""
        peak, wind = self.trajectory.peak_speed(), self.plant.aero.wind
        log_bound = _log_drag_rate(self.plant.aero, peak)

        def stable(substeps):
            return log_bound - math.log(self.rate * substeps) <= _LOG_RK4_LIMIT
        if stable(self.substeps):
            return
        most = MAX_PLANT_STEPS // self.n_rows
        fewest = 1 + bisect_left(range(1, most + 1), True, key=stable)
        bound = math.exp(log_bound) if log_bound < 709.0 else math.inf
        advice = (f"the smallest sim.substeps that passes is {fewest}"
                  if fewest <= most else
                  f"no sim.substeps passes within the budget of "
                  f"{MAX_PLANT_STEPS} plant steps")
        raise ConfigError(
            f"sim.substeps = {self.substeps} leaves a plant step of "
            f"{1.0 / (self.rate * self.substeps):.4g} s, but RK4 on the "
            f"wing's drag needs step * {bound:.4g} /s <= {RK4_REAL_LIMIT} "
            f"(peak airspeed {peak + math.hypot(*wind):.4g} m/s); {advice}")

    @property
    def n_rows(self):
        """Rows a run logs: N ticks log N+1, the first and last included."""
        return round(self.rate * self.duration) + 1

    def with_condition(self, name):
        """Config for a named controller condition (see CONDITIONS): the
        integral off is ``gains.kvi = 0``, the wing off believes
        ``model.zeroed()``."""
        if name not in CONDITIONS:
            raise ConfigError(f"unknown condition {name!r}; expected one of "
                              f"{', '.join(CONDITIONS)}")
        off = CONDITIONS[name]
        return self.replace(
            gains=self.gains.replace(kvi=0.0) if "integral" in off
            else self.gains,
            model=self.model.zeroed() if "wing" in off else self.model,
            rate_ff=self.rate_ff and "rate_ff" not in off)


def _axes(prefix, vector):
    return {f"{prefix}.{axis}": ("float", float(value))
            for axis, value in zip("xyz", vector)}


def _airframe(section, params):
    values = {"mass": params.mass, "kappa_deg": math.degrees(params.kappa),
              "rho": params.rho, "area": params.area, "cd0": params.cd0,
              "cy0": params.cy0, "cla": params.cla}
    return {**{f"{section}.{name}": ("float", value)
               for name, value in values.items()},
            **_axes(f"{section}.wind", params.wind)}


# key -> (type tag, default), each default read off the default config;
# the per-kind trajectory keys default to None, resolved downstream
_DEFAULT = ExperimentConfig()
_SCHEMA = {
    "trajectory.kind": ("kind", _DEFAULT.trajectory.kind),
    **_axes("trajectory.p0", _DEFAULT.trajectory.p0),
    "trajectory.radius": ("float", None),
    "trajectory.omega": ("float", None),
    "trajectory.speed_cap": ("float", _DEFAULT.trajectory.speed_cap),
    "trajectory.psi": ("float", None),
    "plant.tau_omega": ("float", _DEFAULT.plant.tau_omega),
    "plant.tau_thrust": ("float", _DEFAULT.plant.tau_thrust),
    "gains.integrator_limit": ("float", _DEFAULT.gains.integrator_limit),
    "limits.thrust_factor": ("float", _DEFAULT.limits.thrust_factor),
    "limits.omega_max": ("float", _DEFAULT.limits.omega_max),
    "mode.rate_ff": ("bool", _DEFAULT.rate_ff),
    "sim.duration": ("float", _DEFAULT.duration),
    "sim.rate": ("int", _DEFAULT.rate),
    "sim.substeps": ("int", _DEFAULT.substeps),
    "sim.abort_radius": ("float", _DEFAULT.abort_radius),
    "sim.delay_ticks": ("int", _DEFAULT.delay_ticks),
    **_airframe("plant", _DEFAULT.plant.aero),
    **_airframe("model", _DEFAULT.model),
}
for _gain in ("kpp", "kvp", "kvi", "kff", "ktp"):
    _SCHEMA.update(_axes(f"gains.{_gain}", getattr(_DEFAULT.gains, _gain)))


class _Located(dict):
    """Raw key-value pairs; ``where[key]`` is the ``source:line: `` prefix
    of a message about ``key``."""


def parse_config_text(text, source="<config>"):
    """Raw key-value pairs from config text; strict (see module docstring).
    The pairs carry each key's line, so that :func:`build_config` can
    locate an unknown key."""
    raw = _Located()
    raw.where = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
        raw.where[key] = f"{source}:{lineno}: "
    return raw


def _convert(key, value):
    tag = _SCHEMA[key][0]
    try:
        if tag == "float":
            number = float(value)
            if not math.isfinite(number):
                raise ValueError("not a finite number")
            return number
        if tag == "int":
            return int(value)
        if tag == "bool":
            if value in ("true", "false"):
                return value == "true"
            raise ValueError("expected true or false")
        if tag == "kind":
            if value in _KINDS:
                return _KINDS[value]
            raise ValueError(f"expected one of {', '.join(_KINDS)}")
        raise AssertionError(f"unhandled tag {tag}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None


def build_config(raw):
    """ExperimentConfig from raw string pairs (defaults fill the gaps);
    strict like the file format: an unknown key is a ConfigError, located
    when ``raw`` came from :func:`parse_config_text`.  A record's own
    ConfigError passes through as it is; only an airframe's gets the
    ``plant.`` or ``model.`` section its field names lack."""
    where = getattr(raw, "where", {})
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"{where.get(key, '')}unknown key {key!r}")
    values = {}
    for key, (tag, default) in _SCHEMA.items():
        values[key] = _convert(key, raw[key]) if key in raw else default

    def vec(prefix):
        return tuple(values[f"{prefix}.{axis}"] for axis in "xyz")

    def aero(section):
        try:
            return AeroParams(
                kappa=math.radians(values[f"{section}.kappa_deg"]),
                wind=vec(f"{section}.wind"),
                **{name: values[f"{section}.{name}"]
                   for name in ("mass", "rho", "area", "cd0", "cy0", "cla")})
        except ConfigError as exc:
            raise ConfigError(f"{section}.{exc}") from None

    trajectory = TrajectoryDef(
        kind=values["trajectory.kind"],
        p0=vec("trajectory.p0"),
        r=values["trajectory.radius"],
        omega=values["trajectory.omega"],
        speed_cap=values["trajectory.speed_cap"],
        psi_fallback=values["trajectory.psi"])
    plant = PlantConfig(
        aero=aero("plant"),
        tau_omega=values["plant.tau_omega"],
        tau_thrust=values["plant.tau_thrust"])
    model = aero("model")
    gains = ControlGains(
        kpp=vec("gains.kpp"), kvp=vec("gains.kvp"), kvi=vec("gains.kvi"),
        kff=vec("gains.kff"), ktp=vec("gains.ktp"),
        integrator_limit=values["gains.integrator_limit"])
    limits = ControlLimits(thrust_factor=values["limits.thrust_factor"],
                           omega_max=values["limits.omega_max"])
    return ExperimentConfig(
        trajectory=trajectory, plant=plant, model=model, gains=gains,
        limits=limits, rate_ff=values["mode.rate_ff"],
        **{name: values[f"sim.{name}"] for name in
           ("duration", "rate", "substeps", "abort_radius", "delay_ticks")})


def load_config(path):
    """Parse and resolve a config file; ConfigError on any problem."""
    try:
        # utf-8-sig: a byte-order mark is not part of the first key
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text, source=str(path)))
