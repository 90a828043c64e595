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
:func:`aero_accel` is the one implementation that the controller and
the plant call; drag opposes the airspeed: with only ``cd0`` active the
earth-frame acceleration is ``-(rho*S*cd0 / 2m) * |v_a| * v_a``.  The
wind- and wing-frame forms (:func:`aero_force_wind`, :func:`aero_force_wing`
and their frame rotations) are independent oracles for tests only.
"""

import math
from dataclasses import dataclass, replace

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
    """

    mass: float = 1.5
    kappa: float = math.radians(34.0)
    rho: float = 1.225
    area: float = 0.2
    cd0: float = 0.05
    cy0: float = 0.0
    cla: float = 2.0

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

    def zeroed(self):
        """Copy with all aerodynamic coefficients set to zero.

        Used for feedforward variants that ignore the wing.
        """
        return replace(self, cd0=0.0, cy0=0.0, cla=0.0)


@dataclass(frozen=True)
class DragMatrix:
    """Body-frame drag coupling coefficients.

    ``as_matrix`` assembles the symmetric positive semi-definite matrix D
    with x-z coupling ``cdxz`` introduced by the inclined wing; the acting
    aerodynamic force is ``-(rho*S*|v_a|/2) * R D R^T v_a``.
    """

    cdx: float
    cdz: float
    cdxz: float
    cy0: float

    def as_matrix(self):
        return np.array([
            [self.cdx, 0.0, self.cdxz],
            [0.0, self.cy0, 0.0],
            [self.cdxz, 0.0, self.cdz],
        ])


def body_to_wing_rotation(kappa):
    """Coordinate transform from body axes to wing axes.

    Equals the transpose of a right-handed rotation by ``kappa`` about
    +y, i.e. ``rodrigues(e_y, kappa).T``.  Oracle, not in the live loop.
    """
    c = math.cos(kappa)
    s = math.sin(kappa)
    return np.array([
        [c, 0.0, -s],
        [0.0, 1.0, 0.0],
        [s, 0.0, c],
    ])


def wing_to_wind_rotation(alpha):
    """Coordinate transform from wing axes to wind axes at angle of attack
    ``alpha``.  Oracle, not in the live loop."""
    c = math.cos(alpha)
    s = math.sin(alpha)
    return np.array([
        [c, 0.0, s],
        [0.0, 1.0, 0.0],
        [-s, 0.0, c],
    ])


def aero_force_wind(params, airspeed, alpha):
    """Drag/side/lift magnitudes along the wind axes.

    Returns the parametric model ``qbar*S * [cd0 + cla*sin^2(a), 0,
    cla*sin(a)*cos(a)]``; the force acting on the airframe is the negative
    of this vector.  Oracle, not in the live loop.
    """
    q_s = 0.5 * params.rho * params.area * airspeed * airspeed
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    return q_s * np.array([
        params.cd0 + params.cla * sa * sa,
        0.0,
        params.cla * sa * ca,
    ])


def aero_force_wing(params, rotation, airspeed_vec):
    """Force acting on the airframe, expressed in wing axes.

    ``rotation`` is the body-to-earth attitude; ``airspeed_vec`` is the
    earth-frame airspeed.  This form needs no angle of attack: the lift
    and drag fall out of the per-axis coefficients applied to the
    wing-frame airspeed components.  Oracle for :func:`aero_accel`, not
    in the live loop.
    """
    v_wing = body_to_wing_rotation(params.kappa) @ (rotation.T @ airspeed_vec)
    coeffs = np.array([params.cd0, params.cy0, params.cd0 + params.cla])
    speed = np.linalg.norm(airspeed_vec)
    return -0.5 * params.rho * params.area * speed * coeffs * v_wing


def drag_matrix(params):
    """Body-frame drag coupling of the inclined wing (see
    :class:`DragMatrix`)."""
    c = math.cos(params.kappa)
    s = math.sin(params.kappa)
    return DragMatrix(
        cdx=params.cd0 * c * c + (params.cla + params.cd0) * s * s,
        cdz=params.cd0 * s * s + (params.cla + params.cd0) * c * c,
        cdxz=params.cla * s * c,
        cy0=params.cy0,
    )


def aero_accel(params, rotation, airspeed_vec):
    """Earth-frame aerodynamic acceleration acting on the airframe.

    Equivalent to rotating :func:`aero_force_wing` to earth axes and
    dividing by mass, but written through the body-frame drag matrix.
    """
    speed = np.linalg.norm(airspeed_vec)
    scale = params.rho * params.area * speed / (2.0 * params.mass)
    d = drag_matrix(params).as_matrix()
    return -scale * (rotation @ (d @ (rotation.T @ airspeed_vec)))
