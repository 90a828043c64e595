"""Closed-loop experiment runner and result bookkeeping.

One run is a fixed-rate loop: sample the reference, run the flatness
transform, run the controller tick, pass the command through the
actuator lag and integrate the plant for the configured substeps.
Every tick is logged, including the final one, so a run of N ticks
yields N+1 rows.  Runs are deterministic: identical configs produce
byte-identical CSV traces (the seed is recorded for provenance, the
loop itself draws no random numbers).

``condition_matrix`` repeats one experiment under the four controller
conditions (PID/PD crossed with aero feedforward on/off) plus a
rate-feedforward ablation, and reports tracking RMSE per cell.
"""

import math
from collections import deque
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from .control import ControlInput, ControllerContext, controller_step
from .dynamics import VehicleState, actuator_lag, rk4_step
from .flatness import TransformContext, flatness_transform
from .geom import mat_to_quat
from .trajectories import sample as sample_trajectory

CSV_COLUMNS = ("t,px,py,pz,prx,pry,prz,vx,vy,vz,qw,qx,qy,qz,"
               "qdw,qdx,qdy,qdz,fz,wx,wy,wz,alpha,singular")


class EmptySeriesError(ValueError):
    """RMSE of an empty series is undefined."""


class DivergenceError(RuntimeError):
    """Tracking error exceeded the abort radius.

    Carries the abort time, the reference speed at that instant and the
    partial :class:`RunResult` up to and including the offending tick.
    """

    def __init__(self, time, ref_speed, result):
        super().__init__(
            f"tracking error exceeded abort radius at t={time:.3f} s "
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

    Arrays are row-per-tick; ``q`` is the measured attitude, ``q_d`` the
    controller's desired attitude, ``thrust``/``omega`` the saturated
    command, ``alpha`` and ``singular`` the flatness reference angle of
    attack and singular-case flag.
    """

    t: np.ndarray
    p_ref: np.ndarray
    p: np.ndarray
    v_ref: np.ndarray
    v: np.ndarray
    q: np.ndarray
    q_d: np.ndarray
    thrust: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray
    singular: np.ndarray
    seed: int = 0

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
        """Zeroed rows for a run of ``cfg``: N ticks log N+1 rows."""
        n_rows = round(cfg.rate * cfg.duration) + 1
        return cls(
            np.zeros(n_rows), np.zeros((n_rows, 3)), np.zeros((n_rows, 3)),
            np.zeros((n_rows, 3)), np.zeros((n_rows, 3)),
            np.zeros((n_rows, 4)), np.zeros((n_rows, 4)), np.zeros(n_rows),
            np.zeros((n_rows, 3)), np.zeros(n_rows),
            np.zeros(n_rows, dtype=int), cfg.seed)

    def store(self, k, t, ref, state, q, q_d, cmd, flat):
        """Fill row ``k`` from the tick's reference, the position and
        velocity of ``state``, the measured and desired attitude
        quaternions, the command and the feedforward."""
        self.t[k] = t
        self.p_ref[k] = ref.p
        self.p[k] = state.p
        self.v_ref[k] = ref.v
        self.v[k] = state.v
        self.q[k] = q
        self.q_d[k] = q_d
        self.thrust[k] = cmd.thrust
        self.omega[k] = cmd.omega
        self.alpha[k] = flat.alpha
        self.singular[k] = int(flat.singular)

    def head(self, n_rows):
        """The first ``n_rows`` rows, e.g. a diverged run's partial trace."""
        return replace(self, **{f.name: getattr(self, f.name)[:n_rows]
                                for f in fields(self) if f.name != "seed"})

    def rows(self):
        for k in range(len(self.t)):
            yield np.concatenate((
                [self.t[k]], self.p[k], self.p_ref[k], self.v[k],
                self.q[k], self.q_d[k], [self.thrust[k]], self.omega[k],
                [self.alpha[k]])), int(self.singular[k])

    def write_csv(self, path):
        """Trace as CSV with 17-significant-digit floats; byte-stable."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(CSV_COLUMNS + "\n")
            for floats, flag in self.rows():
                cells = [f"{x:.17g}" for x in floats]
                cells.append(str(flag))
                handle.write(",".join(cells) + "\n")


def _ticks(cfg, n_rows):
    """The tick skeleton every run shares: for each of the ``n_rows``
    logged ticks, its index, time, reference sample and flatness
    feedforward, all transforms of one run going through one context."""
    dt = 1.0 / cfg.rate
    ff_params = cfg.ff_params
    transform_ctx = TransformContext()
    for k in range(n_rows):
        t = k * dt
        ref = sample_trajectory(cfg.trajectory, t)
        yield k, t, ref, flatness_transform(ff_params, ref, transform_ctx,
                                            wind=cfg.wind_est)


def run_experiment(cfg):
    """One closed-loop run; returns a RunResult or raises DivergenceError
    (with the partial result attached) when tracking breaks down.

    The plant starts on tick 0's reference in tick 0's feedforward
    attitude, with tick 0's feedforward as the applied input."""
    dt = 1.0 / cfg.rate
    result = RunResult.allocate(cfg)
    last = len(result.t) - 1
    ticks = _ticks(cfg, len(result.t))
    first = next(ticks)
    _, _, ref0, flat0 = first
    state = VehicleState(ref0.p.copy(), ref0.v.copy(), flat0.rotation.copy(),
                         0.0)
    control_ctx = ControllerContext()
    control_ctx.held_attitude = flat0.rotation.copy()
    applied = ControlInput(flat0.thrust, flat0.omega.copy())
    # position-only measurement delay; the oldest entry is what the
    # controller sees this tick
    p_history = deque([state.p.copy()], maxlen=cfg.delay_ticks + 1)

    for k, t, ref, flat in chain([first], ticks):
        measured = VehicleState(p_history[0], state.v, state.R, t)
        cmd = controller_step(cfg.model, cfg.gains, cfg.mode, cfg.limits,
                              ref, flat, measured, control_ctx, dt,
                              wind=cfg.wind_est)
        result.store(k, t, ref, state, mat_to_quat(state.R),
                     mat_to_quat(control_ctx.held_attitude), cmd, flat)
        error = float(np.linalg.norm(state.p - ref.p))
        if error > cfg.abort_radius:
            raise DivergenceError(t, float(np.linalg.norm(ref.v)),
                                  result.head(k + 1))
        if k == last:
            break
        for _ in range(cfg.substeps):
            applied = actuator_lag(cfg.plant, cmd, applied)
            state = rk4_step(cfg.plant, state, applied)
        p_history.append(state.p.copy())
    return result


def feedforward_trace(cfg):
    """Open-loop flatness sweep along the reference (no plant, no
    feedback): reference kinematics plus the transform's outputs, in the
    same row format as a closed-loop run."""
    result = RunResult.allocate(cfg)
    for k, t, ref, flat in _ticks(cfg, len(result.t)):
        # the reference is the state: measured and desired attitude agree
        quat = mat_to_quat(flat.rotation)
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


@dataclass
class ConditionMatrix:
    """Results of the four conditions plus the rate-feedforward ablation."""

    cells: list
    ablation: Cell


def _run_cell(name, cfg):
    try:
        return Cell(name, run_experiment(cfg))
    except DivergenceError as exc:
        return Cell(name, exc.result, exc)


def condition_matrix(cfg):
    """Run the four controller conditions and the rate-feedforward
    ablation on one shared reference and plant; never raises on a
    diverging cell."""
    from .config import CONDITIONS
    cells = [_run_cell(name, cfg.with_condition(name)) for name in CONDITIONS]
    base = cfg.with_condition("pid-dfaf")
    ablation_cfg = replace(
        base, mode=replace(base.mode, use_rate_feedforward=False))
    ablation = _run_cell("rate-ff-off", ablation_cfg)
    return ConditionMatrix(cells, ablation)


def format_matrix(matrix):
    """Human-readable summary table of a condition matrix."""
    lines = [f"{'condition':<12} {'E_p [m]':>12} {'peak [m]':>12}  status"]
    for cell in list(matrix.cells) + [matrix.ablation]:
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
