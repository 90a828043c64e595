"""Plain records: copies go through the constructor, derived slots are
read-only, never compared, hashed or shown, and no copy argument."""

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import liftquad
from liftquad.aero import AeroParams
from liftquad.config import (_SCHEMA, _TYPES, ConfigError, ExperimentConfig,
                             build_config)
from liftquad.control import ControlGains, ControlLimits
from liftquad.dynamics import PlantConfig
from liftquad.record import Frozen, Record
from liftquad.trajectories import TrajectoryDef, TrajectoryKind

_DERIVED = [
    (AeroParams(kappa=math.radians(52.0), cla=2.6), "drag"),
    (AeroParams(kappa=math.radians(52.0), cla=2.6), "cos_kappa"),
    (AeroParams(kappa=math.radians(52.0), cla=2.6), "sin_kappa"),
    (AeroParams(mass=2.3, rho=1.1, area=0.35), "rho_area"),
    (AeroParams(mass=2.3, rho=1.1, area=0.35), "half_rho_area"),
    (AeroParams(mass=2.3, rho=1.1, area=0.35), "twice_mass"),
    (PlantConfig(tau_omega=0.03, tau_thrust=0.05), "_thrust_decay"),
    (PlantConfig(tau_omega=0.03, tau_thrust=0.05), "_omega_decay"),
    (TrajectoryDef(TrajectoryKind.LEMNISCATE, r=12.0, omega=0.4), "terms"),
    (TrajectoryDef(), "switch_time"),
    (TrajectoryDef(TrajectoryKind.LINE, speed_cap=-3.0), "peak_speed")]


@pytest.mark.parametrize("record, name", _DERIVED,
                         ids=[name for _, name in _DERIVED])
def test_derived_slots_are_read_only_hidden_and_no_copy_argument(record,
                                                                 name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)
    with pytest.raises(TypeError):
        record.replace(**{name: 0.0})
    with pytest.raises(TypeError):
        type(record)(**{name: 0.0})
    assert f"{name}=" not in repr(record)
    copy = record.replace()
    assert copy == record and hash(copy) == hash(record)
    # a copy whose derived slot differs still equals and hashes alike
    object.__setattr__(copy, name, "changed")
    assert copy == record and hash(copy) == hash(record)
    # a value of another type is unequal, not an error
    assert record != record._values()


def test_plant_copy_derives_its_decay_factors_again():
    plant = PlantConfig(tau_omega=0.03, tau_thrust=0.05, step=0.004)
    for copy in (plant.replace(step=0.001), plant.replace(tau_thrust=0.02),
                 plant.replace(tau_omega=0.0)):
        assert copy._thrust_decay == (math.exp(-copy.step / copy.tau_thrust)
                                      if copy.tau_thrust else 0.0)
        assert copy._omega_decay == (math.exp(-copy.step / copy.tau_omega)
                                     if copy.tau_omega else 0.0)
    assert plant.replace(step=0.001)._thrust_decay != plant._thrust_decay


@pytest.mark.parametrize("record, change", [
    (AeroParams(), {"mass": 0.0}),
    (TrajectoryDef(), {"speed_cap": 0.0}),
    (ControlGains(), {"kff": 2.0}),
    (ControlLimits(), {"omega_max": 0.0}),
    (PlantConfig(), {"step": 0.0}),
    (ExperimentConfig(), {"duration": 0.0})],
    ids=["AeroParams", "TrajectoryDef", "ControlGains", "ControlLimits",
         "PlantConfig", "ExperimentConfig"])
def test_copies_are_checked_like_new_records(record, change):
    with pytest.raises(ConfigError):
        record.replace(**change)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(change)), 1.0)


_NAN, _INF = math.nan, math.inf
# name -> (construction, config key its ConfigError names)
_REFUSED = {
    "p0": (lambda: TrajectoryDef(p0=(1.0, 2.0)), "trajectory.p0"),
    # the wind estimate is the model's wind, the true wind the plant's;
    # build_config names the section
    "wind_est": (lambda: ExperimentConfig(model=AeroParams(wind=(1.0, 2.0))),
                 "wind"),
    "substeps": (lambda: ExperimentConfig(substeps=1.5), "sim.substeps"),
    "delay_ticks": (lambda: ExperimentConfig(delay_ticks=1.5),
                    "sim.delay_ticks"),
    # a float rate logged rows at no integer rate (250.5 logged 15,031
    # in 60 s); a string duration or abort radius raised a bare TypeError
    "rate": (lambda: ExperimentConfig(rate=250.5), "sim.rate"),
    "rate-nan": (lambda: ExperimentConfig(rate=_NAN), "sim.rate"),
    "duration-str": (lambda: ExperimentConfig(duration="5"), "sim.duration"),
    "abort_radius-str": (lambda: ExperimentConfig(abort_radius="5"),
                         "sim.abort_radius"),
    # a bool is no count and no length: duration=True logged 251 rows
    **{f"{name}-bool": ((lambda name=name: ExperimentConfig(**{name: True})),
                        f"sim.{name}")
       for name in ("rate", "substeps", "delay_ticks", "duration",
                    "abort_radius")},
    # the vectors, each through the one float 3-tuple conversion
    "p0-nan": (lambda: TrajectoryDef(p0=(_NAN, 0.0, 0.0)), "trajectory.p0"),
    # a bool or numeric-string component was taken as its float
    "p0-bool": (lambda: TrajectoryDef(p0=[True, 2.0, 3.0]), "trajectory.p0"),
    "p0-str": (lambda: TrajectoryDef(p0=[1.0, "2", 3.0]), "trajectory.p0"),
    "wind_est-nan": (
        lambda: ExperimentConfig(model=AeroParams(wind=(_NAN, 0.0, 0.0))),
        "wind"),
    "wind_est-str": (lambda: ExperimentConfig(model=AeroParams(wind="abc")),
                     "wind"),
    "wind-short": (lambda: PlantConfig(aero=AeroParams(wind=(1.0, 2.0))),
                   "wind"),
    "wind-nan": (lambda: PlantConfig(aero=AeroParams(wind=(_NAN, 0.0, 0.0))),
                 "wind"),
    "kpp-str": (lambda: ControlGains(kpp="abc"), "gains.kpp"),
    # a bool gain broadcast to (1.0, 1.0, 1.0)
    "kpp-bool": (lambda: ControlGains(kpp=True), "gains.kpp"),
    "kvi-nan": (lambda: ControlGains(kvi=_NAN), "gains.kvi"),
    # NaN fails every range check; an infinite bound clamps nothing
    "integrator_limit-nan": (lambda: ControlGains(integrator_limit=_NAN),
                             "gains.integrator_limit"),
    "integrator_limit-inf": (lambda: ControlGains(integrator_limit=_INF),
                             "gains.integrator_limit"),
    "omega_max-nan": (lambda: ControlLimits(omega_max=_NAN),
                      "limits.omega_max"),
    "omega_max-inf": (lambda: ControlLimits(omega_max=_INF),
                      "limits.omega_max"),
    # a NaN or infinite factor makes a floor that clips no thrust
    "thrust_factor-nan": (lambda: ControlLimits(thrust_factor=_NAN),
                          "limits.thrust_factor"),
    "thrust_factor-inf": (lambda: ControlLimits(thrust_factor=_INF),
                          "limits.thrust_factor"),
    "thrust_factor-negative": (lambda: ControlLimits(thrust_factor=-1.0),
                               "limits.thrust_factor"),
    # a truthy string flew with the rate feedforward on; None survived
    # with_condition as None, and a list made the config unhashable
    "rate_ff-str": (lambda: ExperimentConfig(rate_ff="false"),
                    "mode.rate_ff"),
    "rate_ff-none": (lambda: ExperimentConfig(rate_ff=None), "mode.rate_ff"),
    "rate_ff-list": (lambda: ExperimentConfig(rate_ff=[]), "mode.rate_ff"),
    "tau_omega-nan": (lambda: PlantConfig(tau_omega=_NAN), "plant.tau_omega"),
    # an infinite lag held the body rate at tick 0's command
    "tau_omega-inf": (lambda: PlantConfig(tau_omega=_INF), "plant.tau_omega"),
    "step-nan": (lambda: PlantConfig(step=_NAN), "integration step"),
    "psi-nan": (lambda: TrajectoryDef(psi_fallback=_NAN), "trajectory.psi"),
    # a string is no TrajectoryKind: it flew a stationary point
    "kind-str": (lambda: TrajectoryDef(kind="circle"), "trajectory.kind"),
    "speed_cap-bool": (lambda: TrajectoryDef(speed_cap=True),
                       "trajectory.speed_cap"),
    **{f"{name}-nan": ((lambda name=name: AeroParams(**{name: _NAN})), name)
       for name in ("mass", "rho", "area", "cd0", "cla", "cy0")},
    # an infinite density ran, and was reported as a divergence at t=0
    "rho-inf": (lambda: ExperimentConfig(model=AeroParams(rho=_INF),
                                         duration=0.1), "rho"),
    # a string mass raised a bare TypeError; a bool one was kept as True
    "mass-str": (lambda: AeroParams(mass="1.5"), "mass"),
    "mass-bool": (lambda: AeroParams(mass=True), "mass"),
    # a numpy bool is no number either: it was taken as 1.0
    "mass-numpy-bool": (lambda: AeroParams(mass=np.True_), "mass"),
    # an int beyond the largest float, which float() cannot convert
    "mass-huge-int": (lambda: AeroParams(mass=10**400), "mass"),
    # a record field that holds no record: None constructed, and the run
    # failed at its first tick, or construction raised a bare
    # AttributeError
    **{f"{name}-none": ((lambda name=name: ExperimentConfig(**{name: None})),
                        name)
       for name in ("trajectory", "plant", "model", "gains", "limits")},
    "aero-none": (lambda: PlantConfig(aero=None), "aero"),
}


@pytest.mark.parametrize("name", list(_REFUSED))
def test_inputs_a_run_cannot_read_are_refused_at_construction(name):
    # each passed construction, and the run then failed at its first
    # tick, ran with a saturation, clamp or lag silently off, or flew
    # another reference; each is refused the way a config file's value
    # is
    build, key = _REFUSED[name]
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
        build()


# what refusals name that is no key: the plant's step, which no config
# sets, and the plant's airframe, whose fields are keys of its section
_NON_KEYS = {"integration step", "aero"}
# a refusal's dotted names: a key, a vector's stem, an airframe field
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
# a value out of any range, as the first key of its tag reads it
_OUT_OF_RANGE = {"float": ("nan", "-1e300", "1e300"),
                 "int": ("nan", "-1", "1000000000000"),
                 "bool": ("nan",), "kind": ("nan",)}


def _names_the_naming_rule_makes():
    """The config keys, the vector keys' stems, the airframe fields
    (``build_config`` prefixes their refusals with ``plant.`` or
    ``model.``), the record sections and the listed non-keys."""
    keys = set(_SCHEMA) | {key[:-2] for key in _SCHEMA
                           if key[-2:] in (".x", ".y", ".z")}
    plant, model = ({key[len(section):] for key in keys
                     if key.startswith(section)}
                    for section in ("plant.", "model."))
    stock = ExperimentConfig()
    sections = {field for field in stock._fields
                if isinstance(getattr(stock, field), Record)}
    return keys | (plant & model) | sections | _NON_KEYS


def test_every_refusal_names_a_key_the_naming_rule_makes():
    # records and ExperimentConfig spell their keys by hand, so a key the
    # naming rule renames (config._NAMES) would leave its refusals naming
    # the old key
    named = {key for _, key in _REFUSED.values()} | set(_TYPES)
    for key, (tag, _) in _SCHEMA.items():
        for value in _OUT_OF_RANGE[tag]:
            try:
                build_config({key: value})
            except ConfigError as exc:
                named.update(_DOTTED.findall(str(exc)))
    assert {"trajectory.psi", "model.kappa_deg", "sim.rate", "wind",
            "gains.kpp"} <= named
    assert sorted(named - _names_the_naming_rule_makes()) == []


def _refusing_record(exc):
    """The record class whose constructor raised ``exc``: the innermost
    ``__init__`` frame of a ``Frozen`` in its traceback."""
    record, tb = None, exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        if (frame.f_code.co_name == "__init__"
                and isinstance(frame.f_locals.get("self"), Frozen)):
            record = type(frame.f_locals["self"])
        tb = tb.tb_next
    return record


def _package_records():
    for info in pkgutil.iter_modules(liftquad.__path__, "liftquad."):
        importlib.import_module(info.name)
    found, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("liftquad."):
                found.add(cls)
            todo.append(cls)
    return found


def test_every_record_has_a_refused_case():
    # a new record cannot skip the rule: each constructor that checks its
    # values refuses at least one case above
    assert liftquad.ConfigError is ConfigError is liftquad.record.ConfigError
    refusing = set()
    for build, _ in _REFUSED.values():
        with pytest.raises(ConfigError) as info:
            build()
        refusing.add(_refusing_record(info.value))
    records = _package_records()
    assert len(records) >= 6
    assert records <= refusing, sorted(r.__name__ for r in records - refusing)


def test_vector_inputs_are_kept_as_float_tuples():
    # a list is kept as the float 3-tuple the tick reads, so the record
    # hashes
    records = [(AeroParams(wind=[0, 1, 2.0]), "wind"),
               (TrajectoryDef(p0=[0, 1, 2.0]), "p0"),
               (ControlGains(kpp=[0, 1, 2.0]), "kpp")]
    for record, name in records:
        vec = getattr(record, name)
        assert vec == (0.0, 1.0, 2.0), name
        assert all(type(x) is float for x in vec), name
        assert hash(record) == hash(record.replace()), name
