"""Plain records: copies go through the constructor, derived slots are
read-only, never compared, hashed or shown, and no copy argument."""

import math
import re

import pytest

from liftquad.aero import AeroParams
from liftquad.config import ConfigError, ExperimentConfig
from liftquad.control import ControlGains, ControlLimits
from liftquad.dynamics import PlantConfig
from liftquad.trajectories import TrajectoryDef

_DERIVED = [
    (AeroParams(kappa=math.radians(52.0), cla=2.6), "drag"),
    (AeroParams(kappa=math.radians(52.0), cla=2.6), "cos_kappa"),
    (AeroParams(kappa=math.radians(52.0), cla=2.6), "sin_kappa"),
    (PlantConfig(tau_omega=0.03, tau_thrust=0.05), "_thrust_decay"),
    (PlantConfig(tau_omega=0.03, tau_thrust=0.05), "_omega_decay")]


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


def test_plant_copy_derives_its_decay_factors_again():
    plant = PlantConfig(tau_omega=0.03, tau_thrust=0.05, step=0.004)
    for copy in (plant.replace(step=0.001), plant.replace(tau_thrust=0.02),
                 plant.replace(tau_omega=0.0)):
        assert copy._thrust_decay == (math.exp(-copy.step / copy.tau_thrust)
                                      if copy.tau_thrust else 0.0)
        assert copy._omega_decay == (math.exp(-copy.step / copy.tau_omega)
                                     if copy.tau_omega else 0.0)
    assert plant.replace(step=0.001)._thrust_decay != plant._thrust_decay


@pytest.mark.parametrize("record, change, error", [
    (AeroParams(), {"mass": 0.0}, ValueError),
    (TrajectoryDef(), {"speed_cap": 0.0}, ValueError),
    (ControlGains(), {"kff": 2.0}, ValueError),
    (ControlLimits(), {"omega_max": 0.0}, ValueError),
    (PlantConfig(), {"step": 0.0}, ValueError),
    (ExperimentConfig(), {"duration": 0.0}, ConfigError)],
    ids=["AeroParams", "TrajectoryDef", "ControlGains", "ControlLimits",
         "PlantConfig", "ExperimentConfig"])
def test_copies_are_checked_like_new_records(record, change, error):
    with pytest.raises(error):
        record.replace(**change)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(change)), 1.0)


_NAN = math.nan
_REFUSED = {
    "p0": (lambda: TrajectoryDef(p0=(1.0, 2.0)), ValueError, "trajectory.p0"),
    # the wind estimate is the model's wind, the true wind the plant's;
    # build_config names the section
    "wind_est": (lambda: ExperimentConfig(model=AeroParams(wind=(1.0, 2.0))),
                 ValueError, "wind"),
    "substeps": (lambda: ExperimentConfig(substeps=1.5), ConfigError,
                 "sim.substeps"),
    "delay_ticks": (lambda: ExperimentConfig(delay_ticks=1.5), ConfigError,
                    "sim.delay_ticks"),
    "rate-nan": (lambda: ExperimentConfig(rate=_NAN), ConfigError,
                 "sim.rate and sim.substeps"),
    # the vectors, each through the one float 3-tuple conversion
    "p0-nan": (lambda: TrajectoryDef(p0=(_NAN, 0.0, 0.0)), ValueError,
               "trajectory.p0"),
    "wind_est-nan": (
        lambda: ExperimentConfig(model=AeroParams(wind=(_NAN, 0.0, 0.0))),
        ValueError, "wind"),
    "wind_est-str": (lambda: ExperimentConfig(model=AeroParams(wind="abc")),
                     ValueError, "wind"),
    "wind-short": (lambda: PlantConfig(aero=AeroParams(wind=(1.0, 2.0))),
                   ValueError, "wind"),
    "wind-nan": (lambda: PlantConfig(aero=AeroParams(wind=(_NAN, 0.0, 0.0))),
                 ValueError, "wind"),
    "kpp-str": (lambda: ControlGains(kpp="abc"), ValueError, "gains.kpp"),
    "kvi-nan": (lambda: ControlGains(kvi=_NAN), ValueError, "gains.kvi"),
    # NaN fails every range check
    "integrator_limit-nan": (lambda: ControlGains(integrator_limit=_NAN),
                             ValueError, "gains.integrator_limit"),
    "omega_max-nan": (lambda: ControlLimits(omega_max=_NAN), ValueError,
                      "limits.omega_max"),
    # a NaN or infinite factor makes a floor that clips no thrust
    "thrust_factor-nan": (lambda: ControlLimits(thrust_factor=_NAN),
                          ValueError, "limits.thrust_factor"),
    "thrust_factor-inf": (lambda: ControlLimits(thrust_factor=math.inf),
                          ValueError, "limits.thrust_factor"),
    "thrust_factor-negative": (lambda: ControlLimits(thrust_factor=-1.0),
                               ValueError, "limits.thrust_factor"),
    # a truthy string flew with the rate feedforward on; None survived
    # with_condition as None, and a list made the config unhashable
    "rate_ff-str": (lambda: ExperimentConfig(rate_ff="false"), ConfigError,
                    "mode.rate_ff"),
    "rate_ff-none": (lambda: ExperimentConfig(rate_ff=None), ConfigError,
                     "mode.rate_ff"),
    "rate_ff-list": (lambda: ExperimentConfig(rate_ff=[]), ConfigError,
                     "mode.rate_ff"),
    "tau_omega-nan": (lambda: PlantConfig(tau_omega=_NAN), ValueError,
                      "plant.tau_omega"),
    "step-nan": (lambda: PlantConfig(step=_NAN), ValueError,
                 "integration step"),
    "psi-nan": (lambda: TrajectoryDef(psi_fallback=_NAN), ValueError,
                "trajectory.psi"),
    # a string is no TrajectoryKind: it flew a stationary point
    "kind-str": (lambda: TrajectoryDef(kind="circle"), ValueError,
                 "trajectory.kind"),
    **{f"{name}-nan": ((lambda name=name: AeroParams(**{name: _NAN})),
                       ValueError, name)
       for name in ("mass", "rho", "area", "cd0", "cla", "cy0")},
}


@pytest.mark.parametrize("name", list(_REFUSED))
def test_inputs_a_run_cannot_read_are_refused_at_construction(name):
    # each passed construction, and the run then failed at its first
    # tick, ran with a saturation, clamp or lag silently off, or flew
    # another reference
    build, error, key = _REFUSED[name]
    with pytest.raises(error, match=f"^{re.escape(key)} must be "):
        build()


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
