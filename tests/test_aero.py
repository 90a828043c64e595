"""Wing force model: frame forms, drag matrix, earth-frame acceleration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftquad.aero import AeroParams, aero_accel
from oracles import (EY, aero_force_wind, aero_force_wing,
                     body_to_wing_rotation, random_rotation, rodrigues,
                     wing_to_wind_rotation)


def test_params_validation():
    # each refusal starts with the field's config key suffix
    for field, value, message in [
            ("mass", 0.0, "mass must be > 0"), ("rho", 0.0, "rho must be > 0"),
            ("area", -1.0, "area must be >= 0"),
            # below and above the installation range
            ("kappa", math.radians(10.0), r"kappa_deg must be in \(15, 90\], "
                                          "got 10$"),
            ("kappa", math.radians(95.0), "kappa_deg .* got 95$"),
            ("cd0", -0.1, "cd0 must be >= 0"), ("cla", -0.1, "cla must be >= 0")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            AeroParams(**{field: value})
    AeroParams(kappa=math.radians(90.0))  # upper bound inclusive


def test_zeroed_strips_coefficients_only():
    params = AeroParams(cy0=0.1)
    bare = params.zeroed()
    assert bare.cd0 == bare.cy0 == bare.cla == 0.0
    assert bare.mass == params.mass and bare.kappa == params.kappa


def test_body_to_wing_rotation_zero_angle():
    assert_allclose(body_to_wing_rotation(0.0), np.eye(3))


def test_body_to_wing_rotation_quarter_turn_layout():
    # cos=0, sin=1 entries land as [[0,0,-1],[0,1,0],[1,0,0]]
    mat = body_to_wing_rotation(0.5 * math.pi)
    assert_allclose(mat, [[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                    atol=1e-15)


def test_body_to_wing_rotation_matches_axis_rotation():
    # oracle: transpose of a Rodrigues rotation about +y
    kappa = math.radians(34.0)
    assert_allclose(body_to_wing_rotation(kappa), rodrigues(EY, kappa).T,
                    atol=1e-15)


def test_wind_rotation_matches_axis_rotation():
    alpha = 0.37
    assert_allclose(wing_to_wind_rotation(alpha), rodrigues(EY, alpha),
                    atol=1e-15)


def test_wind_force_zero_speed():
    assert_allclose(aero_force_wind(AeroParams(), 0.0, 0.3), np.zeros(3))


def test_wind_force_zero_alpha_is_pure_drag():
    params = AeroParams()
    force = aero_force_wind(params, 10.0, 0.0)
    q_s = 0.5 * params.rho * params.area * 100.0
    assert_allclose(force, [q_s * params.cd0, 0.0, 0.0])


def test_wind_force_hand_arithmetic():
    # oracle: independent scalar evaluation (rho=1.225, S=0.2, cd0=0.05,
    # cla=2.0, V=10, alpha=0.2)
    params = AeroParams()
    force = aero_force_wind(params, 10.0, 0.2)
    q_s = 0.5 * 1.225 * 0.2 * 100.0
    sin_a, cos_a = math.sin(0.2), math.cos(0.2)
    assert_allclose(force, [q_s * (0.05 + 2.0 * sin_a * sin_a), 0.0,
                            q_s * 2.0 * sin_a * cos_a], rtol=1e-15)


def test_wing_force_zero_airspeed():
    assert_allclose(aero_force_wing(AeroParams(), np.eye(3), np.zeros(3)),
                    np.zeros(3))


def test_wing_force_lateral_axis_uses_side_coefficient():
    params = AeroParams(cy0=0.3)
    speed = 4.0
    force = aero_force_wing(params, np.eye(3), speed * EY)
    expected = -0.5 * params.rho * params.area * speed * params.cy0 * speed
    assert_allclose(force, [0.0, expected, 0.0], atol=1e-15)


def test_frame_equivalence_zero_sideslip():
    # oracle: rotate the wing-frame force into the wind frame; it must
    # equal the negated wind-frame magnitudes
    params = AeroParams(cy0=0.05)
    rng = np.random.default_rng(21)
    for _ in range(200):
        v_hat = rng.normal(size=3)
        v_hat /= np.linalg.norm(v_hat)
        helper = rng.normal(size=3)
        y_body = np.cross(v_hat, helper)
        y_body /= np.linalg.norm(y_body)
        x_body = rodrigues(y_body, rng.uniform(-1.2, 1.2)) @ v_hat
        rotation = np.column_stack((x_body, y_body, np.cross(x_body, y_body)))
        speed = rng.uniform(0.5, 15.0)
        v_air = speed * v_hat
        v_wing = body_to_wing_rotation(params.kappa) @ (rotation.T @ v_air)
        assert abs(v_wing[1]) < 1e-12  # zero sideslip by construction
        alpha = math.atan2(v_wing[2], v_wing[0])
        rotated = wing_to_wind_rotation(alpha) @ aero_force_wing(
            params, rotation, v_air)
        magnitudes = aero_force_wind(params, speed, alpha)
        assert_allclose(rotated, -magnitudes,
                        atol=1e-10 * max(np.linalg.norm(magnitudes), 1.0))


def test_drag_matrix_tail_sitter_angle():
    params = AeroParams(kappa=0.5 * math.pi)
    d = np.asarray(params.drag)
    assert d[0, 0] == pytest.approx(params.cd0 + params.cla)
    assert d[2, 2] == pytest.approx(params.cd0, abs=1e-15)
    assert d[0, 2] == pytest.approx(0.0, abs=1e-15)


def test_drag_matrix_no_lift_is_isotropic_in_plane():
    d = np.asarray(AeroParams(cla=0.0).drag)
    assert d[0, 0] == pytest.approx(0.05)
    assert d[2, 2] == pytest.approx(0.05)
    assert d[0, 2] == pytest.approx(0.0, abs=1e-16)


def test_drag_matrix_hand_values_and_congruence():
    params = AeroParams(cy0=0.2)
    kappa = params.kappa
    mat = np.asarray(params.drag)
    # oracle: direct evaluation of the coefficient formulas
    sk, ck = math.sin(kappa), math.cos(kappa)
    assert mat[0, 0] == pytest.approx(0.05 * ck * ck + 2.05 * sk * sk)
    assert mat[2, 2] == pytest.approx(0.05 * sk * sk + 2.05 * ck * ck)
    assert mat[0, 2] == pytest.approx(2.0 * sk * ck)
    assert mat[1, 1] == params.cy0
    assert_allclose(mat, mat.T)
    # oracle: congruence with the wing-frame diagonal
    r_bl = body_to_wing_rotation(kappa)
    diag = np.diag([params.cd0, params.cy0, params.cd0 + params.cla])
    assert_allclose(r_bl @ mat @ r_bl.T, diag, atol=1e-14)


def test_drag_matrix_positive_semidefinite():
    for params in (AeroParams(), AeroParams(cy0=0.4),
                   AeroParams(kappa=math.radians(80.0), cla=3.0)):
        eigvals = np.linalg.eigvalsh(np.asarray(params.drag))
        assert np.all(eigvals >= -1e-14)


def _drag_formulas(params):
    c, s = math.cos(params.kappa), math.sin(params.kappa)
    cdxz = params.cla * s * c
    return np.array([
        [params.cd0 * c * c + (params.cla + params.cd0) * s * s, 0.0, cdxz],
        [0.0, params.cy0, 0.0],
        [cdxz, 0.0, params.cd0 * s * s + (params.cla + params.cd0) * c * c]])


def test_drag_field_is_derived_and_read_only():
    # bit for bit, not approximately: the controller and the plant read
    # it; a copy derives it again, and its rows are immutable
    params = AeroParams(kappa=math.radians(52.0), cd0=0.07, cy0=0.3, cla=2.6)
    assert np.array_equal(params.drag, _drag_formulas(params))
    heavier = params.replace(cla=4.0)
    assert np.array_equal(heavier.drag, _drag_formulas(heavier))
    assert not np.array_equal(heavier.drag, params.drag)
    assert np.array_equal(params.zeroed().drag, np.zeros((3, 3)))
    with pytest.raises(TypeError):
        params.drag[0][0] = 1.0


def test_kappa_cosine_and_sine_are_derived_and_follow_copies():
    # bit for bit the cosine and sine of kappa, which the force balance
    # reads instead of taking them per call; a copy recomputes them
    params = AeroParams(kappa=math.radians(52.0), cla=2.6)
    for copy in (params, params.replace(kappa=1.2), params.zeroed(),
                 params.replace(kappa=1.2).zeroed()):
        assert copy.cos_kappa == math.cos(copy.kappa)
        assert copy.sin_kappa == math.sin(copy.kappa)


def test_accel_zero_airspeed():
    assert_allclose(aero_accel(AeroParams(), np.eye(3), np.zeros(3)),
                    np.zeros(3))


def test_accel_identity_attitude_lateral_flow():
    params = AeroParams(cy0=0.25)
    accel = aero_accel(params, np.eye(3), 3.0 * EY)
    expected = -params.rho * params.area * 3.0 / (2.0 * params.mass) \
        * params.cy0 * 3.0
    assert_allclose(accel, [0.0, expected, 0.0], atol=1e-15)


def test_accel_matches_wing_force_path():
    # oracle: rotate the wing-frame force to earth and divide by mass
    params = AeroParams(cy0=0.1)
    rng = np.random.default_rng(22)
    for _ in range(100):
        rotation = random_rotation(rng)
        v_air = rng.uniform(-12.0, 12.0, size=3)
        via_force = rotation @ body_to_wing_rotation(params.kappa).T \
            @ aero_force_wing(params, rotation, v_air) / params.mass
        assert_allclose(aero_accel(params, rotation, v_air), via_force,
                        atol=1e-12)


def test_pure_drag_opposes_airspeed():
    params = AeroParams(cla=0.0, cy0=0.05)
    rng = np.random.default_rng(23)
    for _ in range(50):
        rotation = random_rotation(rng)
        v_air = rng.uniform(-10.0, 10.0, size=3)
        accel = aero_accel(params, rotation, v_air)
        assert float(v_air @ accel) <= 1e-12


def test_pure_drag_closed_form():
    # with no lift and no side force the drag matrix is isotropic, so the
    # earth-frame acceleration has a frame-free closed form
    params = AeroParams(cla=0.0, cy0=0.05)
    rng = np.random.default_rng(24)
    rotation = random_rotation(rng)
    v_air = np.array([4.0, -2.0, 1.0])
    speed = np.linalg.norm(v_air)
    scale = params.rho * params.area * params.cd0 / (2.0 * params.mass)
    iso = AeroParams(cla=0.0, cy0=params.cd0)
    assert_allclose(aero_accel(iso, rotation, v_air), -scale * speed * v_air,
                    atol=1e-14)


def test_force_scales_with_speed_squared():
    params = AeroParams(cy0=0.1)
    rng = np.random.default_rng(25)
    rotation = random_rotation(rng)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    base = aero_force_wing(params, rotation, 2.0 * direction)
    assert_allclose(aero_force_wing(params, rotation, 6.0 * direction),
                    9.0 * base, rtol=1e-12)
    assert_allclose(aero_force_wind(params, 6.0, 0.3),
                    9.0 * aero_force_wind(params, 2.0, 0.3), rtol=1e-12)


def test_dissipation_any_attitude():
    # the acting force never does positive work on the air-relative motion
    params = AeroParams(cy0=0.2)
    rng = np.random.default_rng(26)
    for _ in range(100):
        rotation = random_rotation(rng)
        v_air = rng.uniform(-15.0, 15.0, size=3)
        power = float(v_air @ aero_accel(params, rotation, v_air))
        assert power <= 1e-12
