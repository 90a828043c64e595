"""Six-degree-of-freedom point-mass plant with attitude kinematics.

Translational dynamics sum rotor thrust along body z, the wing
aerodynamic acceleration (the controller's :func:`aero_accel`) and
gravity; the attitude follows the commanded body rate directly (the
inner rate loop is assumed fast, so no rotational inertia is modeled).
With the input held over a step the attitude update ``R exp(h[w]x)`` is
exact, and classical RK4 integrates position and velocity along it.  An
optional first-order actuator lag, updated exactly over the held step,
sits between the commanded and applied inputs.

The plant's aerodynamic parameters are independent of the controller's
copy, which is how model mismatch experiments are expressed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .aero import AeroParams, GRAVITY_VEC, aero_accel
from .control import ControlInput
from .geom import EYE3, rodrigues


@dataclass
class VehicleState:
    """Plant state: position and velocity in the earth frame (NED) and
    the body-to-earth rotation."""

    p: np.ndarray
    v: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class PlantConfig:
    """Ground-truth model: aerodynamic parameters, constant wind
    (earth frame, m/s), actuator time constants for the body-rate and
    thrust channels (s, 0 disables the lag) and the integration step."""

    aero: AeroParams = field(default_factory=AeroParams)
    v_wind: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tau_omega: float = 0.0
    tau_thrust: float = 0.0
    step: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "v_wind", np.asarray(self.v_wind, dtype=float))
        if self.step <= 0.0:
            raise ValueError("integration step must be > 0")
        if self.tau_omega < 0.0 or self.tau_thrust < 0.0:
            raise ValueError("actuator time constants must be >= 0")


def acceleration(cfg, R, v, thrust):
    """Earth-frame acceleration at attitude ``R`` and velocity ``v``.

    Thrust acts along body z (negative thrust pulls up in NED), the wing
    acts through the airspeed ``v - v_wind``, gravity closes the sum.
    """
    return ((thrust / cfg.aero.mass) * R[:, 2]
            + aero_accel(cfg.aero, R, v - cfg.v_wind) + GRAVITY_VEC)


def rk4_step(cfg, state, inp):
    """One step of length ``cfg.step`` with the input held constant.

    The attitude turns exactly by ``h * omega``, in two half turns that
    give the attitude at mid-step and at the end; classical RK4
    integrates position and velocity along it.
    """
    h = cfg.step
    rate = math.hypot(*inp.omega)
    half = (rodrigues(inp.omega / rate, 0.5 * h * rate) if rate > 0.0
            else EYE3)
    R_mid = state.R @ half
    R_end = R_mid @ half
    v1 = state.v
    a1 = acceleration(cfg, state.R, v1, inp.thrust)
    v2 = v1 + 0.5 * h * a1
    a2 = acceleration(cfg, R_mid, v2, inp.thrust)
    v3 = v1 + 0.5 * h * a2
    a3 = acceleration(cfg, R_mid, v3, inp.thrust)
    v4 = v1 + h * a3
    a4 = acceleration(cfg, R_end, v4, inp.thrust)
    p = state.p + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    v = v1 + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return VehicleState(p, v, R_end)


def _lag(tau, step, commanded, previous):
    # exact zero-order-hold response; tau == 0 passes the command through
    if tau == 0.0:
        return commanded
    return commanded + math.exp(-step / tau) * (previous - commanded)


def actuator_lag(cfg, commanded, applied_prev):
    """First-order lag between commanded and applied inputs over one
    plant step, ``cmd + exp(-step/tau) (prev - cmd)`` per channel, so
    the applied value stays between the previous one and the command.
    The thrust and body-rate channels use their own time constants.
    """
    return ControlInput(
        _lag(cfg.tau_thrust, cfg.step, commanded.thrust, applied_prev.thrust),
        _lag(cfg.tau_omega, cfg.step, commanded.omega, applied_prev.omega))
