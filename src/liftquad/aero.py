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
from dataclasses import dataclass, field, replace

import numpy as np

from .geom import norm

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
    ``drag`` (derived, read-only) is the body-frame drag matrix D, with
    the wing's x-z coupling: the force is ``-(rho*S*|v_a|/2) R D R^T v_a``.
    """

    mass: float = 1.5
    kappa: float = math.radians(34.0)
    rho: float = 1.225
    area: float = 0.2
    cd0: float = 0.05
    cy0: float = 0.0
    cla: float = 2.0
    drag: np.ndarray = field(init=False, repr=False, compare=False)

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
        cdxz = self.cla * s * c
        drag = np.array([
            [self.cd0 * c * c + (self.cla + self.cd0) * s * s, 0.0, cdxz],
            [0.0, self.cy0, 0.0],
            [cdxz, 0.0, self.cd0 * s * s + (self.cla + self.cd0) * c * c]])
        drag.setflags(write=False)
        object.__setattr__(self, "drag", drag)

    def zeroed(self):
        """Copy with all aerodynamic coefficients set to zero.

        Used for feedforward variants that ignore the wing.
        """
        return replace(self, cd0=0.0, cy0=0.0, cla=0.0)


def aero_accel(params, rotation, airspeed_vec):
    """Earth-frame aerodynamic acceleration acting on the airframe,
    ``-(rho*S*|v_a| / 2m) R D R^T v_a`` with the body-frame drag matrix
    ``D = params.drag``.
    """
    speed = norm(airspeed_vec)
    scale = params.rho * params.area * speed / (2.0 * params.mass)
    return -scale * (rotation @ (params.drag @ (rotation.T @ airspeed_vec)))
