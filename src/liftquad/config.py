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

import numpy as np

from .aero import AeroParams, GRAVITY
from .control import ControlGains, ControlLimits, ControlMode
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

# key -> (type tag, default); None defaults are resolved downstream
# (per-kind trajectory values).
_AERO_DEFAULT = AeroParams()
_SCHEMA = {
    "trajectory.kind": ("kind", TrajectoryKind.CIRCLE),
    "trajectory.p0.x": ("float", 0.0),
    "trajectory.p0.y": ("float", 0.0),
    "trajectory.p0.z": ("float", 0.0),
    "trajectory.radius": ("float", None),
    "trajectory.omega": ("float", None),
    "trajectory.speed_cap": ("float", 10.0),
    "trajectory.psi": ("float", None),
    "plant.tau_omega": ("float", 0.0),
    "plant.tau_thrust": ("float", 0.0),
    "gains.integrator_limit": ("float", 3.0),
    "limits.thrust_factor": ("float", 4.0),
    "limits.omega_max": ("float", 6.0),
    "mode.integrator": ("bool", True),
    "mode.aero_ff": ("bool", True),
    "mode.rate_ff": ("bool", True),
    "mode.printed_projection": ("bool", False),
    "sim.duration": ("float", 60.0),
    "sim.rate": ("int", 250),
    "sim.substeps": ("int", 4),
    "sim.abort_radius": ("float", 100.0),
    "sim.delay_ticks": ("int", 0),
    "sim.seed": ("int", 0),
}
for _section in ("plant", "model"):
    _SCHEMA[f"{_section}.mass"] = ("float", _AERO_DEFAULT.mass)
    _SCHEMA[f"{_section}.kappa_deg"] = ("float", math.degrees(_AERO_DEFAULT.kappa))
    _SCHEMA[f"{_section}.rho"] = ("float", _AERO_DEFAULT.rho)
    _SCHEMA[f"{_section}.area"] = ("float", _AERO_DEFAULT.area)
    _SCHEMA[f"{_section}.cd0"] = ("float", _AERO_DEFAULT.cd0)
    _SCHEMA[f"{_section}.cy0"] = ("float", _AERO_DEFAULT.cy0)
    _SCHEMA[f"{_section}.cla"] = ("float", _AERO_DEFAULT.cla)
    for _axis in "xyz":
        _SCHEMA[f"{_section}.wind.{_axis}"] = ("float", 0.0)
for _gain, _default in (("kpp", 1.0), ("kvp", 3.0), ("kvi", 0.6),
                        ("kff", 0.8), ("ktp", 8.0)):
    for _axis in "xyz":
        _SCHEMA[f"gains.{_gain}.{_axis}"] = ("float", _default)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: reference, plant, controller model and
    gains, run length and output bookkeeping.

    ``model`` and ``wind_est`` are the controller's beliefs and are
    independent of the plant's truth; ``ff_params`` is what the
    flatness feedforward actually uses, the zeroed model in the
    aero-feedforward-off conditions.
    """

    trajectory: TrajectoryDef = field(default_factory=TrajectoryDef)
    plant: PlantConfig = field(default_factory=PlantConfig)
    model: AeroParams = field(default_factory=AeroParams)
    wind_est: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gains: ControlGains = field(default_factory=ControlGains)
    limits: ControlLimits = field(default_factory=ControlLimits)
    mode: ControlMode = field(default_factory=ControlMode)
    duration: float = 60.0
    rate: int = 250
    substeps: int = 4
    abort_radius: float = 100.0
    delay_ticks: int = 0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails the range checks too
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("sim.duration must be finite and > 0")
        if self.rate <= 0 or self.substeps <= 0:
            raise ConfigError("sim.rate and sim.substeps must be > 0")
        if not 0.0 < self.abort_radius < math.inf:
            raise ConfigError("sim.abort_radius must be finite and > 0")
        if self.delay_ticks < 0:
            raise ConfigError("sim.delay_ticks must be >= 0")
        # the plant substep follows from the tick rate, so a config
        # derived with replace() never integrates a stale step
        object.__setattr__(self, "plant", replace(
            self.plant, step=1.0 / (self.rate * self.substeps)))

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


def parse_config_text(text, source="<config>"):
    """Raw key-value pairs from config text; strict (see module docstring)."""
    raw = {}
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
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        raw[key] = value
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
    """ExperimentConfig from raw string pairs (defaults fill the gaps)."""
    values = {}
    for key, (tag, default) in _SCHEMA.items():
        values[key] = _convert(key, raw[key]) if key in raw else default

    def vec(prefix):
        return np.array([values[f"{prefix}.x"], values[f"{prefix}.y"],
                         values[f"{prefix}.z"]])

    def aero(section):
        try:
            return AeroParams(
                mass=values[f"{section}.mass"],
                kappa=math.radians(values[f"{section}.kappa_deg"]),
                rho=values[f"{section}.rho"],
                area=values[f"{section}.area"],
                cd0=values[f"{section}.cd0"],
                cy0=values[f"{section}.cy0"],
                cla=values[f"{section}.cla"])
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
        duration=values["sim.duration"], rate=values["sim.rate"],
        substeps=values["sim.substeps"],
        abort_radius=values["sim.abort_radius"],
        delay_ticks=values["sim.delay_ticks"], seed=values["sim.seed"])


def load_config(path):
    """Parse and resolve a config file; ConfigError on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text, source=str(path)))
