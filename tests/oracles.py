"""Independent reference implementations that the tests compare the
package against; none of them runs in a simulation.

* the wing- and wind-frame forms of the aerodynamic force and their
  frame rotations, oracles for :func:`liftquad.aero.aero_accel`;
* the quaternion-to-matrix map and the inverse of the skew matrix;
* a central-difference audit of the trajectories' analytic derivatives.
"""

import math

import numpy as np

from liftquad.geom import norm
from liftquad.trajectories import sample


def body_to_wing_rotation(kappa):
    """Coordinate transform from body axes to wing axes.

    Equals the transpose of a right-handed rotation by ``kappa`` about
    +y, i.e. ``rodrigues(e_y, kappa).T``.
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
    ``alpha``."""
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
    of this vector.
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
    wing-frame airspeed components.
    """
    v_wing = body_to_wing_rotation(params.kappa) @ (rotation.T @ airspeed_vec)
    coeffs = np.array([params.cd0, params.cy0, params.cd0 + params.cla])
    speed = norm(airspeed_vec)
    return -0.5 * params.rho * params.area * speed * coeffs * v_wing


def quat_to_mat(q):
    """Rotation matrix of a unit quaternion [w, x, y, z]."""
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def unskew(m):
    """Inverse of :func:`liftquad.geom.skew` for an antisymmetric 3x3
    matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def derivative_check(traj, t, h):
    """Central-difference audit of the analytic derivatives.

    Compares ``(p(t+h)-p(t-h))/2h`` with v, and likewise v against a and
    a against j, at step ``h > 0``; returns the largest error relative
    to ``max(1, |exact|)``.  Keep ``t - h >= 0``.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    lo, mid, hi = sample(traj, t - h), sample(traj, t), sample(traj, t + h)
    worst = 0.0
    for minus, exact, plus in ((lo.p, mid.v, hi.p), (lo.v, mid.a, hi.v),
                               (lo.a, mid.j, hi.a)):
        diff = (plus - minus) / (2.0 * h)
        err = norm(diff - exact) / max(norm(exact), 1.0)
        worst = max(worst, err)
    return worst
