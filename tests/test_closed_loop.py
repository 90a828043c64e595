"""Closed-loop tracking at every installation angle the paper claims the
one control law covers, at the plant's default step against a finer
one, and with the body-rate feedforward taken away.

Each run lasts 12 s with the model matched to the plant and the full
aerodynamic feedforward (``gains.kff.* = 1``).  The measured E_p per
angle, at one RK4 substep per tick, is 3.67, 2.24, 1.48 and 1.28 mm on
the stock circle and 0.218, 0.308, 0.363 and 0.321 mm on the stock
figure-eight; four substeps move the circle's by at most 1.0e-11 m.
Taking the rate feedforward away multiplies the circle's peak error
below 10 m/s by 8.15, 11.2, 15.6 and 17.1 (criterion 7 asks for 3), and
E_p on the 10 m figure-eight at 34 deg by 77.5 and 52.6 at
``trajectory.omega`` 0.5 and 1.0 rad/s: the bandwidth the paper claims
for it.  Each test prints its margins the way the acceptance criteria
do.
"""

from functools import cache

import pytest

from liftquad.config import build_config
from liftquad.harness import run_experiment
from oracles import peak_error_below

# installation angle (deg) -> bound on E_p (m), twice the measured value
E_P_BOUNDS = {16: 7.5e-3, 34: 4.5e-3, 60: 3.0e-3, 90: 2.6e-3}
FIGURE_EIGHT_E_P_BOUNDS = {16: 4.4e-4, 34: 6.2e-4, 60: 7.3e-4, 90: 6.5e-4}
# largest E_p change allowed between the default step and four substeps
SUBSTEP_TOLERANCE = 1e-9
# criterion 7: the ablation's peak error below 10 m/s over the baseline's
ABLATION_RATIO = 3.0
# the 10 m figure-eight's E_p without the rate feedforward over with it
BANDWIDTH_RATIO = 20.0


def angle_config(kappa_deg, kind="circle", rate_ff=True, substeps=1, **keys):
    return build_config({
        "sim.duration": "12", "trajectory.kind": kind,
        "plant.kappa_deg": str(kappa_deg), "model.kappa_deg": str(kappa_deg),
        "mode.rate_ff": "true" if rate_ff else "false",
        "sim.substeps": str(substeps),
        **{f"gains.kff.{axis}": "1" for axis in "xyz"}, **keys})


@cache
def angle_run(*args, **keys):
    return run_experiment(angle_config(*args, **keys))


@pytest.mark.parametrize("kappa_deg", sorted(E_P_BOUNDS))
def test_circle_tracks_at_every_installation_angle(kappa_deg):
    default = angle_run(kappa_deg).rmse
    finer = angle_run(kappa_deg, substeps=4).rmse
    bound = E_P_BOUNDS[kappa_deg]
    assert default < bound
    assert abs(default - finer) <= SUBSTEP_TOLERANCE
    print(f"kappa {kappa_deg} deg: PASS (E_p {default * 1e3:.3f} mm < "
          f"{bound * 1e3:.1f} mm; 4 substeps differ by "
          f"{abs(default - finer):.1e} m <= {SUBSTEP_TOLERANCE:.0e})")


@pytest.mark.parametrize("kappa_deg", sorted(FIGURE_EIGHT_E_P_BOUNDS))
def test_figure_eight_tracks_at_every_installation_angle(kappa_deg):
    e_p = angle_run(kappa_deg, kind="lemniscate").rmse
    bound = FIGURE_EIGHT_E_P_BOUNDS[kappa_deg]
    assert e_p < bound
    print(f"kappa {kappa_deg} deg figure-eight: PASS (E_p "
          f"{e_p * 1e3:.3f} mm < {bound * 1e3:.2f} mm)")


@pytest.mark.parametrize("kappa_deg", [16, 60, 90])
def test_rate_feedforward_ablation_degrades_tracking_at_every_angle(
        kappa_deg):
    # criterion 7 away from 34 deg: without the body-rate feedforward
    # the peak error at reference speeds below 10 m/s at least triples
    circle = angle_config(kappa_deg).trajectory
    base = peak_error_below(angle_run(kappa_deg), circle, 10.0)
    ablated = peak_error_below(angle_run(kappa_deg, rate_ff=False), circle,
                               10.0)
    ratio = ablated / base
    assert ratio >= ABLATION_RATIO
    print(f"kappa {kappa_deg} deg ablation: PASS (peak error "
          f"{base * 1e3:.2f} mm -> {ablated * 1e3:.2f} mm, ratio "
          f"{ratio:.1f} >= {ABLATION_RATIO:g})")


@pytest.mark.parametrize("omega", [0.5, 1.0])
def test_rate_feedforward_raises_the_tracking_bandwidth(omega):
    # below the knee (about 1.2 rad/s here), a faster figure-eight is
    # tracked many times better with the body-rate feedforward than
    # without it
    on, off = (angle_run(34, "lemniscate", rate_ff, **{
        "trajectory.radius": "10", "trajectory.omega": str(omega)}).rmse
        for rate_ff in (True, False))
    ratio = off / on
    assert ratio >= BANDWIDTH_RATIO
    print(f"omega {omega:g} rad/s figure-eight: PASS (E_p "
          f"{on * 1e3:.2f} mm -> {off * 1e3:.1f} mm without the rate "
          f"feedforward, ratio {ratio:.1f} >= {BANDWIDTH_RATIO:g})")
