"""Closed-loop tracking at every installation angle the paper claims the
one control law covers, and at the plant's default step against a
finer one.

Each run is the stock circle for 12 s with the model matched to the
plant and the full aerodynamic feedforward (``gains.kff.* = 1``).  The
measured E_p per angle, at one RK4 substep per tick, is 3.67, 2.24,
1.48 and 1.28 mm; four substeps move it by at most 1.0e-11 m.  Each
test prints its margins the way the acceptance criteria do.
"""

import pytest

from liftquad.config import build_config
from liftquad.harness import run_experiment

# installation angle (deg) -> bound on E_p (m), twice the measured value
E_P_BOUNDS = {16: 7.5e-3, 34: 4.5e-3, 60: 3.0e-3, 90: 2.6e-3}
# largest E_p change allowed between the default step and four substeps
SUBSTEP_TOLERANCE = 1e-9


def angle_config(kappa_deg, **sim):
    raw = {"sim.duration": "12", "plant.kappa_deg": str(kappa_deg),
           "model.kappa_deg": str(kappa_deg),
           **{f"gains.kff.{axis}": "1" for axis in "xyz"},
           **{f"sim.{key}": str(value) for key, value in sim.items()}}
    return build_config(raw)


@pytest.mark.parametrize("kappa_deg", sorted(E_P_BOUNDS))
def test_circle_tracks_at_every_installation_angle(kappa_deg):
    default = run_experiment(angle_config(kappa_deg)).rmse
    finer = run_experiment(angle_config(kappa_deg, substeps=4)).rmse
    bound = E_P_BOUNDS[kappa_deg]
    assert default < bound
    assert abs(default - finer) <= SUBSTEP_TOLERANCE
    print(f"kappa {kappa_deg} deg: PASS (E_p {default * 1e3:.3f} mm < "
          f"{bound * 1e3:.1f} mm; 4 substeps differ by "
          f"{abs(default - finer):.1e} m <= {SUBSTEP_TOLERANCE:.0e})")
