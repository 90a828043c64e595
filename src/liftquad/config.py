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
from dataclasses import dataclass, field, replace

from .aero import AeroParams, GRAVITY
from .control import (THRUST_FLOOR_FACTOR, ControlGains, ControlLimits,
                      ControlMode)
from .dynamics import PlantConfig
from .trajectories import TrajectoryDef, TrajectoryKind


class ConfigError(ValueError):
    """Invalid config file or config value."""


# Controller-condition names: (use_integrator, use_aero_feedforward).
CONDITIONS = {
    "pid-dfaf": (True, True),
    "pd-dfaf": (False, True),
    "pid-df": (True, False),
    "pd-df": (False, False),
}

_KINDS = {k.value: k for k in TrajectoryKind}

# Most rows a run may log; 10**7 rows of a RunResult are about 2.2 GB.
MAX_ROWS = 10**7
# Most plant substeps a run may integrate; at about 0.1 ms each, 10**8
# substeps take about three hours.
MAX_PLANT_STEPS = 10**8

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: reference, plant, controller model and
    gains, run length and output bookkeeping.

    ``model`` and ``wind_est`` (a float 3-tuple) are the controller's
    beliefs and are independent of the plant's truth; ``ff_params`` is
    what the flatness feedforward actually uses, the zeroed model in the
    aero-feedforward-off conditions.
    """

    trajectory: TrajectoryDef = field(default_factory=TrajectoryDef)
    plant: PlantConfig = field(default_factory=PlantConfig)
    model: AeroParams = field(default_factory=AeroParams)
    wind_est: tuple = (0.0, 0.0, 0.0)
    gains: ControlGains = field(default_factory=ControlGains)
    limits: ControlLimits = field(default_factory=ControlLimits)
    mode: ControlMode = field(default_factory=ControlMode)
    duration: float = 60.0
    rate: int = 250
    substeps: int = 4
    abort_radius: float = 100.0
    delay_ticks: int = 0

    def __post_init__(self):
        # written so that NaN fails the range checks too
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("sim.duration must be finite and > 0")
        if self.rate <= 0 or self.substeps <= 0:
            raise ConfigError("sim.rate and sim.substeps must be > 0")
        if not 0.0 < self.abort_radius < math.inf:
            raise ConfigError("sim.abort_radius must be finite and > 0")
        # a delay longer than the longest run changes nothing
        if not 0 <= self.delay_ticks <= MAX_ROWS:
            raise ConfigError(f"sim.delay_ticks must be in [0, {MAX_ROWS}]")
        if self.duration > (MAX_ROWS - 1) / self.rate:  # a huge int rate: no overflow
            raise ConfigError(f"sim.rate * sim.duration must log at most "
                              f"{MAX_ROWS} rows")
        if self.rate > MAX_ROWS:  # an int rate: n_rows converts it to float
            raise ConfigError(f"sim.rate must be at most {MAX_ROWS} "
                              f"ticks per second")
        if self.n_rows * self.substeps > MAX_PLANT_STEPS:  # ints: no overflow
            raise ConfigError(f"sim.substeps * rows ({self.n_rows}) must be "
                              f"at most {MAX_PLANT_STEPS} plant steps")
        # the plant substep follows from the tick rate, so a config
        # derived with replace() never integrates a stale step
        object.__setattr__(self, "plant", replace(
            self.plant, step=1.0 / (self.rate * self.substeps)))

    @property
    def n_rows(self):
        """Rows a run logs: N ticks log N+1, the first and last included."""
        return round(self.rate * self.duration) + 1

    @property
    def ff_params(self):
        if self.mode.use_aero_feedforward:
            return self.model
        return self.model.zeroed()

    def with_condition(self, name):
        """Config for a named controller condition (see CONDITIONS)."""
        try:
            use_integrator, use_aero = CONDITIONS[name]
        except KeyError:
            raise ConfigError(
                f"unknown condition {name!r}; expected one of "
                f"{', '.join(CONDITIONS)}") from None
        mode = replace(self.mode, use_integrator=use_integrator,
                       use_aero_feedforward=use_aero)
        return replace(self, mode=mode)


def _axes(prefix, vector):
    return {f"{prefix}.{axis}": ("float", float(value))
            for axis, value in zip("xyz", vector)}


def _airframe(section, params, wind):
    values = {"mass": params.mass, "kappa_deg": math.degrees(params.kappa),
              "rho": params.rho, "area": params.area, "cd0": params.cd0,
              "cy0": params.cy0, "cla": params.cla}
    return {**{f"{section}.{name}": ("float", value)
               for name, value in values.items()},
            **_axes(f"{section}.wind", wind)}


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
    "limits.thrust_factor": ("float", THRUST_FLOOR_FACTOR),
    "limits.omega_max": ("float", _DEFAULT.limits.omega_max),
    "mode.integrator": ("bool", _DEFAULT.mode.use_integrator),
    "mode.aero_ff": ("bool", _DEFAULT.mode.use_aero_feedforward),
    "mode.rate_ff": ("bool", _DEFAULT.mode.use_rate_feedforward),
    "mode.printed_projection": ("bool", _DEFAULT.mode.printed_accel_projection),
    "sim.duration": ("float", _DEFAULT.duration),
    "sim.rate": ("int", _DEFAULT.rate),
    "sim.substeps": ("int", _DEFAULT.substeps),
    "sim.abort_radius": ("float", _DEFAULT.abort_radius),
    "sim.delay_ticks": ("int", _DEFAULT.delay_ticks),
    **_airframe("plant", _DEFAULT.plant.aero, _DEFAULT.plant.v_wind),
    **_airframe("model", _DEFAULT.model, _DEFAULT.wind_est),
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
    when ``raw`` came from :func:`parse_config_text`."""
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
                **{name: values[f"{section}.{name}"]
                   for name in ("mass", "rho", "area", "cd0", "cy0", "cla")})
        except ValueError as exc:
            raise ConfigError(f"invalid {section} parameters: {exc}") from None

    try:
        trajectory = TrajectoryDef(
            kind=values["trajectory.kind"],
            p0=vec("trajectory.p0"),
            r=values["trajectory.radius"],
            omega=values["trajectory.omega"],
            speed_cap=values["trajectory.speed_cap"],
            psi_fallback=values["trajectory.psi"])
        plant = PlantConfig(
            aero=aero("plant"),
            v_wind=vec("plant.wind"),
            tau_omega=values["plant.tau_omega"],
            tau_thrust=values["plant.tau_thrust"])
        model = aero("model")
        gains = ControlGains(
            kpp=vec("gains.kpp"), kvp=vec("gains.kvp"), kvi=vec("gains.kvi"),
            kff=vec("gains.kff"), ktp=vec("gains.ktp"),
            integrator_limit=values["gains.integrator_limit"])
        limits = ControlLimits(
            thrust_min=-values["limits.thrust_factor"] * model.mass * GRAVITY,
            omega_max=values["limits.omega_max"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    mode = ControlMode(
        use_integrator=values["mode.integrator"],
        use_aero_feedforward=values["mode.aero_ff"],
        use_rate_feedforward=values["mode.rate_ff"],
        printed_accel_projection=values["mode.printed_projection"])
    return ExperimentConfig(
        trajectory=trajectory, plant=plant, model=model,
        wind_est=vec("model.wind"), gains=gains, limits=limits, mode=mode,
        **{name: values[f"sim.{name}"] for name in
           ("duration", "rate", "substeps", "abort_radius", "delay_ticks")})


def load_config(path):
    """Parse and resolve a config file; ConfigError on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text, source=str(path)))
