"""Six-degree-of-freedom point-mass plant with attitude kinematics.

Translational dynamics sum rotor thrust along body z, the wing
aerodynamic acceleration (the controller's :func:`aero_accel`) and
gravity; the attitude follows the commanded body rate directly (the
inner rate loop is assumed fast, so no rotational inertia is modeled).
With the input held over a step the attitude update ``R exp(h[w]x)`` is
exact, and classical RK4 integrates position and velocity along it.  An
optional first-order actuator lag, updated exactly over the held step,
sits between the commanded and applied inputs.

The plant runs on Python floats: the state is tuples and a step makes
no numpy call (see :mod:`liftquad.geom`).  Float arithmetic gives
``inf`` or ``nan`` on overflow; the harness checks the state once per
tick with :func:`require_finite`.

The plant's airframe and wind are independent of the model the
controller believes, which is how mismatch experiments are expressed.
"""

import math

from .aero import GRAVITY, AeroParams, aero_accel
from .control import ControlInput
from .geom import overflow_error
from .record import ConfigError, Frozen, Record, finite


class VehicleState(Record):
    """Plant state: position and velocity in the earth frame (NED) as
    3-tuples, and the body-to-earth rotation as three row tuples.

    A step reads any sequences of that shape, numpy arrays included,
    and returns tuples."""

    __slots__ = _fields = ("p", "v", "R")

    def __init__(self, p, v, R):
        self.p, self.v, self.R = p, v, R


def require_finite(state):
    """Raise ``FloatingPointError`` unless every component of ``state``
    is finite: float arithmetic overflows to ``inf`` without raising.
    One inline ``math.isfinite`` test per component, as in the other
    layers' per-tick checks."""
    isfinite = math.isfinite
    (px, py, pz), (vx, vy, vz) = state.p, state.v
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = state.R
    if not (isfinite(px) and isfinite(py) and isfinite(pz)
            and isfinite(vx) and isfinite(vy) and isfinite(vz)
            and isfinite(r00) and isfinite(r01) and isfinite(r02)
            and isfinite(r10) and isfinite(r11) and isfinite(r12)
            and isfinite(r20) and isfinite(r21) and isfinite(r22)):
        raise overflow_error("the plant")


class PlantConfig(Frozen):
    """Ground-truth model: the airframe with the true wind
    (``aero.wind``), actuator time constants for the body-rate and
    thrust channels (s, 0 disables the lag) and the integration step."""

    _fields = ("aero", "tau_omega", "tau_thrust", "step")
    # exp(-step/tau) of the thrust and body-rate channels, taken once for
    # actuator_lag; 0, and never read, for a channel without lag
    __slots__ = _fields + ("_thrust_decay", "_omega_decay")

    def __init__(self, aero=AeroParams(), tau_omega=0.0, tau_thrust=0.0,
                 step=1e-3):
        if not isinstance(aero, AeroParams):
            raise ConfigError(f"aero must be an AeroParams, got {aero!r}")
        # written so that NaN fails the range check too
        if not step > 0.0:
            raise ConfigError("integration step must be > 0")
        tau_omega = finite("plant.tau_omega", tau_omega)
        tau_thrust = finite("plant.tau_thrust", tau_thrust)
        for key, tau in (("tau_omega", tau_omega), ("tau_thrust", tau_thrust)):
            if tau < 0.0:
                raise ConfigError(f"plant.{key} must be >= 0")
        decays = [math.exp(-step / tau) if tau != 0.0 else 0.0
                  for tau in (tau_thrust, tau_omega)]
        self._set(aero, tau_omega, tau_thrust, step, *decays)

    @property
    def v_wind(self):
        """``aero.wind`` as a read-only numpy array; imports numpy."""
        import numpy as np
        v_wind = np.array(self.aero.wind)
        v_wind.flags.writeable = False
        return v_wind


def acceleration(cfg, R, v, thrust):
    """Earth-frame acceleration at attitude ``R`` (three rows) and
    velocity ``v``, as a 3-tuple.

    Thrust acts along body z (negative thrust pulls up in NED), the wing
    acts through the airspeed ``v - aero.wind``, gravity closes the sum.
    """
    aero = cfg.aero
    vx, vy, vz = v
    wx, wy, wz = aero.wind
    ax, ay, az = aero_accel(aero, R, (vx - wx, vy - wy, vz - wz))
    f = thrust / aero.mass
    return (f * R[0][2] + ax, f * R[1][2] + ay, f * R[2][2] + az + GRAVITY)


def _turn(R, h):
    """``R @ h`` for two 3x3 matrices given as rows; rows out."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = R
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = h
    return ((a00 * b00 + a01 * b10 + a02 * b20,
             a00 * b01 + a01 * b11 + a02 * b21,
             a00 * b02 + a01 * b12 + a02 * b22),
            (a10 * b00 + a11 * b10 + a12 * b20,
             a10 * b01 + a11 * b11 + a12 * b21,
             a10 * b02 + a11 * b12 + a12 * b22),
            (a20 * b00 + a21 * b10 + a22 * b20,
             a20 * b01 + a21 * b11 + a22 * b21,
             a20 * b02 + a21 * b12 + a22 * b22))


def rk4_step(cfg, state, inp):
    """One step of length ``cfg.step`` with the input held constant.

    The attitude turns exactly by ``h * omega``, in two half turns that
    give the attitude at mid-step and at the end; classical RK4
    integrates position and velocity along it.
    """
    h = cfg.step
    wx, wy, wz = inp.omega
    rate = math.hypot(wx, wy, wz)
    if rate > 0.0:
        # the half turn, Rodrigues' formula about the unit axis u
        ux, uy, uz = wx / rate, wy / rate, wz / rate
        angle = 0.5 * h * rate
        c, s = math.cos(angle), math.sin(angle)
        kx, ky, kz = (1.0 - c) * ux, (1.0 - c) * uy, (1.0 - c) * uz
        sx, sy, sz = s * ux, s * uy, s * uz
        half = ((c + kx * ux, kx * uy - sz, kx * uz + sy),
                (kx * uy + sz, c + ky * uy, ky * uz - sx),
                (kx * uz - sy, ky * uz + sx, c + kz * uz))
        R_mid = _turn(state.R, half)
        R_end = _turn(R_mid, half)
    else:
        R_mid = R_end = state.R
    thrust = inp.thrust
    px, py, pz = state.p
    vx1, vy1, vz1 = state.v
    ax1, ay1, az1 = acceleration(cfg, state.R, state.v, thrust)
    g = 0.5 * h
    vx2, vy2, vz2 = vx1 + g * ax1, vy1 + g * ay1, vz1 + g * az1
    ax2, ay2, az2 = acceleration(cfg, R_mid, (vx2, vy2, vz2), thrust)
    vx3, vy3, vz3 = vx1 + g * ax2, vy1 + g * ay2, vz1 + g * az2
    ax3, ay3, az3 = acceleration(cfg, R_mid, (vx3, vy3, vz3), thrust)
    vx4, vy4, vz4 = vx1 + h * ax3, vy1 + h * ay3, vz1 + h * az3
    ax4, ay4, az4 = acceleration(cfg, R_end, (vx4, vy4, vz4), thrust)
    w = h / 6.0
    return VehicleState(
        (px + w * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4),
         py + w * (vy1 + 2.0 * vy2 + 2.0 * vy3 + vy4),
         pz + w * (vz1 + 2.0 * vz2 + 2.0 * vz3 + vz4)),
        (vx1 + w * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
         vy1 + w * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
         vz1 + w * (az1 + 2.0 * az2 + 2.0 * az3 + az4)),
        R_end)


def actuator_lag(cfg, commanded, applied_prev):
    """First-order lag between commanded and applied inputs over one
    plant step, ``cmd + exp(-step/tau) (prev - cmd)`` per channel, so
    the applied value stays between the previous one and the command.
    The thrust and body-rate channels use their own time constants; a
    channel with ``tau == 0`` passes the command through.
    """
    thrust, omega = commanded.thrust, commanded.omega
    if cfg.tau_thrust != 0.0:
        thrust = thrust + cfg._thrust_decay * (applied_prev.thrust - thrust)
    if cfg.tau_omega != 0.0:
        f = cfg._omega_decay
        (cx, cy, cz), (px, py, pz) = omega, applied_prev.omega
        omega = (cx + f * (px - cx), cy + f * (py - cy), cz + f * (pz - cz))
    return ControlInput(thrust, omega)
