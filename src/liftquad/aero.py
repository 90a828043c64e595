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
``-(rho*S*cd0 / 2m) * |v_a| * v_a``.  It is scalar arithmetic on the
components of its inputs: the plant and the controller run it on Python
floats, and on numpy float64 scalars (the numpy controller oracle's
arrays) it gives the same bits and raises under numpy's strict error
state.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

GRAVITY = 9.81
GRAVITY_VEC = np.array([0.0, 0.0, GRAVITY])  # NED: +z is down

KAPPA_MIN = math.radians(15.0)
KAPPA_MAX = math.radians(90.0)


@dataclass(frozen=True)
class AeroParams:
    """Airframe constants shared by the flatness transform, controller and
    plant.

    ``kappa`` is the wing installation angle in radians; 90 degrees is a
    tail-sitter.  ``cd0`` is the zero-lift drag coefficient, ``cy0`` the
    lateral drag coefficient and ``cla`` the lift-curve slope.
    ``drag`` (derived, read-only) is the body-frame drag matrix D as
    three row tuples of floats, with the wing's x-z coupling: the force
    is ``-(rho*S*|v_a|/2) R D R^T v_a``.  ``cos_kappa`` and
    ``sin_kappa`` (derived, read-only) are the cosine and sine of
    ``kappa``, which the flatness transform's force balance reads.
    """

    mass: float = 1.5
    kappa: float = math.radians(34.0)
    rho: float = 1.225
    area: float = 0.2
    cd0: float = 0.05
    cy0: float = 0.0
    cla: float = 2.0
    drag: tuple = field(init=False, repr=False, compare=False)
    cos_kappa: float = field(init=False, repr=False, compare=False)
    sin_kappa: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.rho <= 0.0:
            raise ValueError("air density must be positive")
        if self.area < 0.0:
            raise ValueError("wing area must be non-negative")
        if not (KAPPA_MIN < self.kappa <= KAPPA_MAX):
            raise ValueError(
                f"installation angle {math.degrees(self.kappa):.3g} deg "
                "outside (15, 90] deg")
        if self.cd0 < 0.0 or self.cla < 0.0:
            raise ValueError("drag and lift coefficients must be non-negative")
        c, s = math.cos(self.kappa), math.sin(self.kappa)
        object.__setattr__(self, "cos_kappa", c)
        object.__setattr__(self, "sin_kappa", s)
        cdxz = self.cla * s * c
        object.__setattr__(self, "drag", (
            (self.cd0 * c * c + (self.cla + self.cd0) * s * s, 0.0, cdxz),
            (0.0, self.cy0, 0.0),
            (cdxz, 0.0, self.cd0 * s * s + (self.cla + self.cd0) * c * c)))

    def zeroed(self):
        """Copy with all aerodynamic coefficients set to zero.

        Used for feedforward variants that ignore the wing.
        """
        return replace(self, cd0=0.0, cy0=0.0, cla=0.0)


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
