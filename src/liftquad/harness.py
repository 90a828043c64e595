"""Closed-loop experiment runner and result bookkeeping.

One run is a fixed-rate loop: sample the reference, run the flatness
transform, run the controller tick, pass the command through the
actuator lag and integrate the plant for the configured substeps.
Every tick is logged, including the final one, so a run of N ticks
yields N+1 rows.  Runs are deterministic: identical configs produce
byte-identical CSV traces.

``condition_matrix`` repeats one experiment under the four controller
conditions (PID/PD crossed with aero feedforward on/off) plus a
rate-feedforward ablation, and reports tracking RMSE per cell.
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .control import (ControlInput, ControllerContext, Measurement,
                      controller_step)
from .dynamics import VehicleState, actuator_lag, require_finite, rk4_step
from .flatness import TransformContext, flatness_transform
from .geom import mat_to_quat, norm
from .trajectories import sample as sample_trajectory

CSV_COLUMNS = ("t,px,py,pz,prx,pry,prz,vx,vy,vz,qw,qx,qy,qz,"
               "qdw,qdx,qdy,qdz,fz,wx,wy,wz,alpha,singular")
# RunResult.table's columns by name: the trace's, in CSV_COLUMNS order,
# then the reference velocity, which the trace does not write
COLUMNS = {"t": 0, "p": slice(1, 4), "p_ref": slice(4, 7), "v": slice(7, 10),
           "q": slice(10, 14), "q_d": slice(14, 18), "thrust": 18,
           "omega": slice(19, 22), "alpha": 22, "singular": 23,
           "v_ref": slice(24, 27)}
_CSV_WIDTH = CSV_COLUMNS.count(",") + 1
# the condition matrix's last cell: pid-dfaf without the rate feedforward
ABLATION = "rate-ff-off"


class EmptySeriesError(ValueError):
    """RMSE of an empty series is undefined."""


class DivergenceError(RuntimeError):
    """Tracking error exceeded the abort radius, or the arithmetic overflowed.

    Carries the abort time, the reference speed at that instant and the
    partial :class:`RunResult` up to the offending tick.
    """

    def __init__(self, time, ref_speed, result,
                 reason="tracking error exceeded abort radius"):
        super().__init__(
            f"{reason} at t={time:.3f} s "
            f"(reference speed {ref_speed:.2f} m/s)")
        self.time = time
        self.ref_speed = ref_speed
        self.result = result


def rmse(p_ref, p):
    """Root-mean-square Euclidean position error over a series."""
    p_ref = np.asarray(p_ref, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(p_ref) == 0 or len(p) == 0:
        raise EmptySeriesError("empty series")
    return float(np.sqrt(np.mean(np.sum((p_ref - p) ** 2, axis=1))))


@dataclass
class RunResult:
    """Logged time series of one run plus scalar summaries.

    ``table`` holds one row per tick, its columns named in ``COLUMNS``;
    each name reads as a view of its columns (``result.p`` is the
    measured position).  ``q`` is the measured attitude, ``q_d`` the
    controller's desired attitude, ``thrust``/``omega`` the saturated
    command, ``alpha`` and ``singular`` the flatness reference angle of
    attack and singular-case flag.
    """

    table: np.ndarray

    def __getattr__(self, name):
        if name not in COLUMNS:
            raise AttributeError(name)
        return self.table[:, COLUMNS[name]]

    @property
    def rmse(self):
        return rmse(self.p_ref, self.p)

    @property
    def position_error(self):
        return np.linalg.norm(self.p_ref - self.p, axis=1)

    @property
    def ref_speed(self):
        return np.linalg.norm(self.v_ref, axis=1)

    def peak_error(self, speed_below=None):
        """Largest position error, optionally restricted to ticks where
        the reference speed is still below ``speed_below``."""
        err = self.position_error
        if speed_below is not None:
            mask = self.ref_speed < speed_below
            if not np.any(mask):
                return 0.0
            err = err[mask]
        return float(np.max(err))

    @classmethod
    def allocate(cls, cfg):
        """Zeroed rows for a run of ``cfg``."""
        return cls(np.zeros((cfg.n_rows, COLUMNS["v_ref"].stop)))

    def store(self, k, t, ref, state, q, q_d, cmd, flat):
        """Fill row ``k`` from the tick's reference, the position and
        velocity of ``state``, the measured and desired attitude
        quaternions, the command and the feedforward."""
        row = self.table[k]
        for name, value in (("t", t), ("p", state.p), ("p_ref", ref.p),
                            ("v", state.v), ("v_ref", ref.v), ("q", q),
                            ("q_d", q_d), ("thrust", cmd.thrust),
                            ("omega", cmd.omega), ("alpha", flat.alpha),
                            ("singular", flat.singular)):
            row[COLUMNS[name]] = value

    def head(self, n_rows):
        """The first ``n_rows`` rows, e.g. a diverged run's partial trace."""
        return replace(self, table=self.table[:n_rows])

    def write_csv(self, path):
        """Trace as CSV with 17-significant-digit floats; byte-stable."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(CSV_COLUMNS + "\n")
            for row in self.table[:, :_CSV_WIDTH]:
                handle.write(",".join(f"{x:.17g}" for x in row.tolist())
                             + "\n")


# a run's first overflow or invalid operation raises: a divergence, not a NaN
_STRICT_FP = {"over": "raise", "divide": "raise", "invalid": "raise"}


def _went_non_finite(reason, t, ref, result, k):
    """The divergence of a run whose tick ``k`` went non-finite;
    ``reason`` says what happened in which layer."""
    return DivergenceError(t, float(norm(ref.v)), result.head(k),
                           f"the run went non-finite ({reason})")


def _ticks(cfg, result):
    """The tick skeleton every run shares: for each row of ``result``,
    the tick's index, time, reference sample and flatness feedforward,
    all transforms of one run going through one context."""
    dt = 1.0 / cfg.rate
    ff_params = cfg.ff_params
    transform_ctx = TransformContext()
    for k in range(cfg.n_rows):
        t = k * dt
        ref = sample_trajectory(cfg.trajectory, t)
        try:
            flat = flatness_transform(ff_params, ref, transform_ctx,
                                      wind=cfg.wind_est)
        except FloatingPointError as exc:
            # numpy's message names the operation ("overflow encountered
            # in dot"); the other layers' messages name the layer, and so
            # does this one
            what = str(exc).partition(" encountered in ")[0]
            raise _went_non_finite(
                f"{what} encountered in the flatness transform", t, ref,
                result, k) from None
        yield k, t, ref, flat


@np.errstate(**_STRICT_FP)
def run_experiment(cfg):
    """One closed-loop run; returns a RunResult or raises DivergenceError
    (with the partial result attached) when tracking breaks down.

    The plant starts on tick 0's reference in tick 0's feedforward
    attitude, with tick 0's feedforward as the applied input."""
    dt = 1.0 / cfg.rate
    result = RunResult.allocate(cfg)
    ticks = _ticks(cfg, result)
    first = next(ticks)
    _, _, ref0, flat0 = first
    # the plant runs on Python floats from here to the end of the run
    state = VehicleState(tuple(ref0.p.tolist()), tuple(ref0.v.tolist()),
                         tuple(map(tuple, flat0.rotation.tolist())))
    control_ctx = ControllerContext()
    applied = ControlInput(float(flat0.thrust), tuple(flat0.omega.tolist()))
    # position-only measurement delay; the oldest entry is what the
    # controller sees this tick
    p_history = deque([state.p], maxlen=cfg.delay_ticks + 1)

    for k, t, ref, flat in chain([first], ticks):
        try:
            if k:   # the plant follows the previous tick's command to t
                for _ in range(cfg.substeps):
                    applied = actuator_lag(cfg.plant, cmd, applied)
                    state = rk4_step(cfg.plant, state, applied)
                require_finite(state)
                p_history.append(state.p)
            q = mat_to_quat(state.R)
            measured = Measurement(p_history[0], state.v, q)
            # the command the plant holds until the next tick
            cmd = controller_step(cfg.model, cfg.gains, cfg.mode, cfg.limits,
                                  ref, flat, measured, control_ctx, dt)
            (px, py, pz), (rx, ry, rz) = state.p, ref.p.tolist()
            dx, dy, dz = px - rx, py - ry, pz - rz
            error = math.sqrt(dx * dx + dy * dy + dz * dz)
            if not math.isfinite(error):
                raise FloatingPointError("overflow encountered in the harness")
        except FloatingPointError as exc:
            raise _went_non_finite(exc, t, ref, result, k) from None
        result.store(k, t, ref, state, q, control_ctx.held_quat, cmd, flat)
        if error > cfg.abort_radius:
            raise DivergenceError(t, float(norm(ref.v)),
                                  result.head(k + 1))
    return result


@np.errstate(**_STRICT_FP)
def feedforward_trace(cfg):
    """Open-loop flatness sweep along the reference (no plant, no
    feedback): reference kinematics plus the transform's outputs, in the
    same row format as a closed-loop run; raises DivergenceError when
    the transform overflows."""
    result = RunResult.allocate(cfg)
    for k, t, ref, flat in _ticks(cfg, result):
        # the reference is the state: measured and desired attitude agree
        quat = mat_to_quat(flat.rotation.tolist())
        cmd = ControlInput(flat.thrust, flat.omega)
        result.store(k, t, ref, ref, quat, quat, cmd, flat)
    return result


@dataclass
class Cell:
    """One condition-matrix entry: a (possibly partial) run plus the
    divergence error if the run aborted."""

    name: str
    result: RunResult
    error: DivergenceError | None = None

    @property
    def diverged(self):
        return self.error is not None

    def status(self):
        if self.diverged:
            return (f"diverged at t={self.error.time:.2f} s, "
                    f"ref speed {self.error.ref_speed:.2f} m/s")
        return "ok"


def _run_cell(name, cfg):
    try:
        return Cell(name, run_experiment(cfg))
    except DivergenceError as exc:
        return Cell(name, exc.result, exc)


def condition_matrix(cfg):
    """Run the four controller conditions and the rate-feedforward
    ablation on one shared reference and plant; returns their five
    :class:`Cell` in that order and never raises on a diverging cell."""
    from .config import CONDITIONS
    cells = [_run_cell(name, cfg.with_condition(name)) for name in CONDITIONS]
    base = cfg.with_condition("pid-dfaf")
    ablation_cfg = replace(
        base, mode=replace(base.mode, use_rate_feedforward=False))
    return cells + [_run_cell(ABLATION, ablation_cfg)]


def format_matrix(cells):
    """Human-readable summary table of condition-matrix cells."""
    lines = [f"{'condition':<12} {'E_p [m]':>12} {'peak [m]':>12}  status"]
    for cell in cells:
        ep = cell.result.rmse if len(cell.result.t) else math.nan
        peak = cell.result.peak_error() if len(cell.result.t) else math.nan
        lines.append(f"{cell.name:<12} {ep:>12.6f} {peak:>12.6f}  "
                     f"{cell.status()}")
    return "\n".join(lines)


@dataclass
class FeasibilityReport:
    """Flatness feedforward demands along a reference vs actuator limits."""

    thrust_peak: float
    thrust_min: float
    omega_peak: float
    omega_max: float
    singular_ticks: int
    total_ticks: int
    alpha_range: tuple

    @property
    def feasible(self):
        return (self.thrust_peak >= self.thrust_min
                and self.omega_peak <= self.omega_max)

    def summary(self):
        return "\n".join([
            f"thrust demand   {self.thrust_peak:.3f} N "
            f"(limit {self.thrust_min:.3f} N)",
            f"body-rate demand {self.omega_peak:.4f} rad/s "
            f"(limit {self.omega_max:.4f} rad/s)",
            f"singular ticks  {self.singular_ticks} / {self.total_ticks}",
            f"alpha range     [{self.alpha_range[0]:.4f}, "
            f"{self.alpha_range[1]:.4f}] rad",
            f"feasible        {'yes' if self.feasible else 'no'}",
        ])


def feasibility_check(cfg):
    """Sweep the flatness transform along the reference and compare the
    feedforward demands against the configured actuator limits."""
    trace = feedforward_trace(cfg)
    return FeasibilityReport(
        thrust_peak=float(np.min(trace.thrust)),
        thrust_min=cfg.limits.thrust_min,
        omega_peak=float(np.max(np.abs(trace.omega))),
        omega_max=cfg.limits.omega_max,
        singular_ticks=int(np.count_nonzero(trace.singular)),
        total_ticks=len(trace.t),
        alpha_range=(float(np.min(trace.alpha)), float(np.max(trace.alpha))),
    )
