"""Six-degree-of-freedom point-mass plant with attitude kinematics.

Translational dynamics sum rotor thrust along body z, the wing
aerodynamic acceleration (the controller's :func:`aero_accel`) and
gravity; the attitude follows the commanded body rate directly (the
inner rate loop is assumed fast, so no rotational inertia is modeled).
With the input held over a step the quaternion update ``q exp(h w/2)``
is exact, and classical RK4 integrates position and velocity along it.
An optional first-order actuator lag, updated exactly over the held
step, sits between the commanded and applied inputs.

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


def _rotation(w, x, y, z):
    """The rotation of the unit quaternion ``(w, x, y, z)``, three rows."""
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    return ((ww + xx - (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)),
            (2.0 * (xy + wz), ww + yy - (xx + zz), 2.0 * (yz - wx)),
            (2.0 * (xz - wy), 2.0 * (yz + wx), ww + zz - (xx + yy)))


class VehicleState(Record):
    """Plant state: position and velocity in the earth frame (NED) as
    3-tuples, the body-to-earth attitude as a unit quaternion of canonical
    sign (w >= 0), and ``R``, its rotation as three rows, which a step
    reads and passes on as it computed it.  A step reads any sequences
    of those shapes, numpy arrays included, and returns tuples."""

    __slots__ = _fields = ("p", "v", "q", "R")

    def __init__(self, p, v, q, R):
        self.p, self.v, self.q, self.R = p, v, q, R


def require_finite(state):
    """Raise ``FloatingPointError`` unless the 10 values of ``p``, ``v``
    and the unit ``q`` (so ``R`` too) are finite, by one test of their
    norm and one of each only when it is not (see :mod:`liftquad.geom`)."""
    (px, py, pz), (vx, vy, vz), (qw, qx, qy, qz) = state.p, state.v, state.q
    values = (px, py, pz, vx, vy, vz, qw, qx, qy, qz)
    if not (math.isfinite(math.hypot(*values))
            or all(map(math.isfinite, values))):
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
    vx, vy, vz = v
    return _acceleration(cfg.aero, R, vx, vy, vz, thrust / cfg.aero.mass)


def _acceleration(aero, R, vx, vy, vz, f):
    """:func:`acceleration` at the velocity ``(vx, vy, vz)`` and the
    thrust per mass ``f``, which :func:`rk4_step` takes once a step."""
    wx, wy, wz = aero.wind
    ax, ay, az = aero_accel(aero, R, (vx - wx, vy - wy, vz - wz))
    return (f * R[0][2] + ax, f * R[1][2] + ay, f * R[2][2] + az + GRAVITY)


def rk4_step(cfg, state, inp):
    """One step of length ``cfg.step`` with the input held constant.

    The attitude turns exactly by ``h * omega``, in two half turns that
    give the attitude at mid-step and at the end (renormalised, w >= 0);
    classical RK4 integrates position and velocity along it.
    """
    h = cfg.step
    wx, wy, wz = inp.omega
    rate = math.hypot(wx, wy, wz)
    if rate > 0.0:
        # q' = q (0, omega) / 2: the half turn (c, s omega) twice on the right
        angle = 0.25 * h * rate
        c, s = math.cos(angle), math.sin(angle) / rate
        sx, sy, sz = s * wx, s * wy, s * wz
        qw, qx, qy, qz = state.q
        mw = qw * c - qx * sx - qy * sy - qz * sz
        mx = qw * sx + qx * c + qy * sz - qz * sy
        my = qw * sy - qx * sz + qy * c + qz * sx
        mz = qw * sz + qx * sy - qy * sx + qz * c
        qw = mw * c - mx * sx - my * sy - mz * sz
        qx = mw * sx + mx * c + my * sz - mz * sy
        qy = mw * sy - mx * sz + my * c + mz * sx
        qz = mw * sz + mx * sy - my * sx + mz * c
        n = math.copysign(math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz), qw)
        q = qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
        R_mid, R_end = _rotation(mw, mx, my, mz), _rotation(qw, qx, qy, qz)
    else:
        q, R_mid, R_end = state.q, state.R, state.R
    aero = cfg.aero
    f = inp.thrust / aero.mass
    px, py, pz = state.p
    vx1, vy1, vz1 = state.v
    ax1, ay1, az1 = _acceleration(aero, state.R, vx1, vy1, vz1, f)
    g = 0.5 * h
    vx2, vy2, vz2 = vx1 + g * ax1, vy1 + g * ay1, vz1 + g * az1
    ax2, ay2, az2 = _acceleration(aero, R_mid, vx2, vy2, vz2, f)
    vx3, vy3, vz3 = vx1 + g * ax2, vy1 + g * ay2, vz1 + g * az2
    ax3, ay3, az3 = _acceleration(aero, R_mid, vx3, vy3, vz3, f)
    vx4, vy4, vz4 = vx1 + h * ax3, vy1 + h * ay3, vz1 + h * az3
    ax4, ay4, az4 = _acceleration(aero, R_end, vx4, vy4, vz4, f)
    w = h / 6.0
    return VehicleState(
        (px + w * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4),
         py + w * (vy1 + 2.0 * vy2 + 2.0 * vy3 + vy4),
         pz + w * (vz1 + 2.0 * vz2 + 2.0 * vz3 + vz4)),
        (vx1 + w * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
         vy1 + w * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
         vz1 + w * (az1 + 2.0 * az2 + 2.0 * az3 + az4)),
        q, R_end)


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
    # ControlInput(thrust, omega), as control.saturate builds it
    return tuple.__new__(ControlInput, (thrust, omega))
