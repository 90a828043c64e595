"""Differential-flatness feedforward control and 6-DOF simulation for
lifting-wing quadcopters.

Conventions used throughout: NED earth frame (z down, gravity
+9.81 m/s^2 along z), body-to-earth rotation matrices with axes as
columns, scalar-first unit quaternions, collective thrust <= 0 along
body z.
"""

from .aero import AeroParams, GRAVITY, aero_accel
from .config import CONDITIONS, ConfigError, ExperimentConfig, build_config, load_config
from .control import (ControlGains, ControlInput, ControlLimits,
                      ControllerContext, controller_step)
from .dynamics import PlantConfig, VehicleState, actuator_lag, rk4_step
from .flatness import (FlatSample, FlatnessOutput, SingularCase,
                       TransformContext, flatness_transform)
from .harness import (DivergenceError, RunResult, condition_matrix,
                      feasibility_check, feedforward_trace, run_experiment)
from .trajectories import TrajectoryDef, TrajectoryKind, sample

__version__ = "0.1.0"

__all__ = [
    "AeroParams", "GRAVITY", "aero_accel",
    "CONDITIONS", "ConfigError", "ExperimentConfig", "build_config",
    "load_config",
    "ControlGains", "ControlInput", "ControlLimits", "ControllerContext",
    "controller_step",
    "PlantConfig", "VehicleState", "actuator_lag", "rk4_step",
    "FlatSample", "FlatnessOutput", "SingularCase", "TransformContext",
    "flatness_transform",
    "DivergenceError", "RunResult", "condition_matrix", "feasibility_check",
    "feedforward_trace", "run_experiment",
    "TrajectoryDef", "TrajectoryKind", "sample",
    "__version__",
]
