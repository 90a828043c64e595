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


@pytest.mark.parametrize("build, error, key", [
    (lambda: TrajectoryDef(p0=(1.0, 2.0)), ValueError, "trajectory.p0"),
    (lambda: ExperimentConfig(wind_est=(1.0, 2.0)), ConfigError,
     "model.wind"),
    (lambda: ExperimentConfig(substeps=1.5), ConfigError, "sim.substeps"),
    (lambda: ExperimentConfig(delay_ticks=1.5), ConfigError,
     "sim.delay_ticks")],
    ids=["p0", "wind_est", "substeps", "delay_ticks"])
def test_inputs_a_run_cannot_read_are_refused_at_construction(build, error,
                                                               key):
    # each passed construction and then failed at the run's first tick
    with pytest.raises(error, match=f"^{re.escape(key)} must be "):
        build()
