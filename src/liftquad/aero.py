"""Aerodynamic model of the lifting wing.

The airframe is a quadcopter with a wing installed at a fixed angle
``kappa`` above the body x-axis.  Three frames matter here:

* body frame: x forward, y right, z down;
* wing frame: body frame rotated about +y_b by ``kappa``, so the wing
  x-axis lies along the chord line;
* wind frame: x-axis along the airspeed vector ``v_a = v - wind``, and
  the angle of attack ``alpha`` is measured from the chord line down to
  the airspeed vector within the wing symmetry plane.

The model is quadratic in airspeed with a flat-plate-style lift curve.
:func:`aero_accel` (through ``AeroParams.drag``) is the one
implementation that the controller and the plant call; drag opposes the
airspeed: with only ``cd0`` active the earth-frame acceleration is
``-(rho*S*cd0 / 2m) * |v_a| * v_a``.
"""

import math

from .record import ConfigError, Frozen, finite, float3

GRAVITY = 9.81  # along +z: NED, +z is down

KAPPA_MIN = math.radians(15.0)
KAPPA_MAX = math.radians(90.0)


class AeroParams(Frozen):
    """Airframe constants shared by the flatness transform, controller and
    plant, with the wind the airframe flies in.

    ``kappa`` is the wing installation angle in radians; 90 degrees is a
    tail-sitter.  ``cd0`` is the zero-lift drag coefficient, ``cy0`` the
    lateral drag coefficient and ``cla`` the lift-curve slope.  ``wind``
    is a constant earth-frame wind (m/s, a float 3-tuple; any three
    finite numbers are taken): the plant's is the true wind, the model's
    the controller's estimate of it.
    ``drag`` (derived, read-only) is the body-frame drag matrix D as
    three row tuples of floats, with the wing's x-z coupling: the force
    is ``-(rho*S*|v_a|/2) R D R^T v_a``.  ``cos_kappa`` and
    ``sin_kappa`` (derived, read-only) are the cosine and sine of
    ``kappa``, which the flatness transform's force balance reads.
    """

    _fields = ("mass", "kappa", "rho", "area", "cd0", "cy0", "cla", "wind")
    __slots__ = _fields + ("drag", "cos_kappa", "sin_kappa")

    def __init__(self, mass=1.5, kappa=math.radians(34.0), rho=1.225,
                 area=0.2, cd0=0.05, cy0=0.0, cla=2.0, wind=(0.0, 0.0, 0.0)):
        mass, kappa, rho, area, cd0, cy0, cla = map(
            finite, ("mass", "kappa_deg", "rho", "area", "cd0", "cy0", "cla"),
            (mass, kappa, rho, area, cd0, cy0, cla))
        if mass <= 0.0:
            raise ConfigError("mass must be > 0")
        if rho <= 0.0:
            raise ConfigError("rho must be > 0")
        if area < 0.0:
            raise ConfigError("area must be >= 0")
        if not (KAPPA_MIN < kappa <= KAPPA_MAX):
            raise ConfigError(f"kappa_deg must be in (15, 90], "
                              f"got {math.degrees(kappa):g}")
        if cd0 < 0.0:
            raise ConfigError("cd0 must be >= 0")
        if cla < 0.0:
            raise ConfigError("cla must be >= 0")
        wind = float3("wind", wind)
        c, s = math.cos(kappa), math.sin(kappa)
        cdxz = cla * s * c
        self._set(mass, kappa, rho, area, cd0, cy0, cla, wind, (
            (cd0 * c * c + (cla + cd0) * s * s, 0.0, cdxz),
            (0.0, cy0, 0.0),
            (cdxz, 0.0, cd0 * s * s + (cla + cd0) * c * c)), c, s)

    def zeroed(self):
        """Copy with the aerodynamic coefficients zeroed and the wind kept.

        Used for feedforward variants that ignore the wing.
        """
        return self.replace(cd0=0.0, cy0=0.0, cla=0.0)


def aero_accel(params, rotation, airspeed_vec):
    """Earth-frame aerodynamic acceleration acting on the airframe,
    ``-(rho*S*|v_a| / 2m) R D R^T v_a`` with the body-frame drag matrix
    ``D = params.drag``, as a 3-tuple.

    ``rotation`` is read as three rows and ``airspeed_vec`` as three
    components, numpy or Python floats alike.  Every product and
    quotient that can overflow has an input component as an operand,
    so on numpy scalars an overflow raises under numpy's strict error
    state; on Python floats it gives ``inf`` and nothing here raises: no
    division by an input, and a square root only of a sum of squares.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    ax, ay, az = airspeed_vec
    # D is symmetric, with the wing's x-z coupling and no other
    (dxx, _, dxz), (_, dyy, _), (_, _, dzz) = params.drag
    speed = math.sqrt(ax * ax + ay * ay + az * az)
    # airspeed in body axes, R^T v_a
    bx = r00 * ax + r10 * ay + r20 * az
    by = r01 * ax + r11 * ay + r21 * az
    bz = r02 * ax + r12 * ay + r22 * az
    # |v_a| D R^T v_a
    fx = (dxx * bx + dxz * bz) * speed
    fy = dyy * by * speed
    fz = (dxz * bx + dzz * bz) * speed
    gain, twice_mass = -params.rho * params.area, 2.0 * params.mass
    return (gain * (r00 * fx + r01 * fy + r02 * fz) / twice_mass,
            gain * (r10 * fx + r11 * fy + r12 * fz) / twice_mass,
            gain * (r20 * fx + r21 * fy + r22 * fz) / twice_mass)
