"""Closed-loop experiment runner and result bookkeeping.

One run is a fixed-rate loop: sample the reference, run the flatness
transform, run the controller tick, pass the command through the
actuator lag and integrate the plant for the configured substeps.
Every tick is logged, including the final one, so a run of N ticks
yields N+1 rows.  Runs are deterministic: identical configs produce
byte-identical CSV traces.  One generator, :func:`_ticks`, yields
every run's reference ticks; it knows no trajectory kind, and skips
the transform of a sample only when it is the previous tick's object.

``condition_matrix`` repeats one experiment under each cell of
``config.CONDITIONS`` (PID/PD, the configured ``gains.kvi`` or 0,
crossed with DFAF/DF, the configured model or its wingless copy, and
the rate-feedforward ablation), and reports tracking RMSE per cell;
the cells that share a reference stream replay the first one's.
"""

import math
import struct
from array import array
from collections import deque
from functools import cached_property
from itertools import chain
from typing import NamedTuple

# perfbench/tracer.py rebinds the per-tick calls imported here, the two
# runs and RunResult.write_csv by name, and reads controller_step's
# ``ctx`` by position; tests/test_harness.py pins those names.
from .config import CONDITIONS
from .control import ControlInput, ControllerContext, controller_step
from .dynamics import VehicleState, actuator_lag, require_finite, rk4_step
from .flatness import (FlatnessOutput, FlatSample, TransformContext,
                       flatness_transform)
from .geom import mat_to_quat, overflow_error
from .trajectories import sample as sample_trajectory

CSV_COLUMNS = ("t,px,py,pz,prx,pry,prz,vx,vy,vz,qw,qx,qy,qz,"
               "qdw,qdx,qdy,qdz,fz,wx,wy,wz,alpha,singular")
# RunResult.table's columns by name, in CSV_COLUMNS order
COLUMNS = {"t": 0, "p": slice(1, 4), "p_ref": slice(4, 7), "v": slice(7, 10),
           "q": slice(10, 14), "q_d": slice(14, 18), "thrust": 18,
           "omega": slice(19, 22), "alpha": 22, "singular": 23}
_WIDTH = CSV_COLUMNS.count(",") + 1
# one row of RunResult.rows as machine doubles, written in one call
_ROW = struct.Struct(f"{_WIDTH}d")
# rows formatted per write: bounds what the CSV holds as Python objects
_CSV_BATCH = 256
# one recorded reference tick, what the closed loop reads of it: the
# sample's p, v and a, then the feedforward's rotation rows, thrust,
# alpha, omega, airspeed, wind axis and singular case
_TICK_WIDTH = 30
_TICK = struct.Struct(f"{_TICK_WIDTH}d")
# the running condition_matrix's one reference stream, (_stream_key,
# record), or (None, None); None outside it, so no stream outlives it
_stream = None


class EmptySeriesError(ValueError):
    """E_p and the peak error of an empty series are undefined."""


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


def _squared_errors(p_ref, p):
    """Squared Euclidean distance of each pair of 3-vectors."""
    for (rx, ry, rz), (px, py, pz) in zip(p_ref, p):
        dx, dy, dz = rx - px, ry - py, rz - pz
        yield dx * dx + dy * dy + dz * dz


class RunResult:
    """Logged time series of one run plus scalar summaries.

    ``rows`` holds ``n_rows`` rows of the trace's columns, named in
    ``COLUMNS``, row after row, in one preallocated ``array('d')`` that
    never resizes; :meth:`head` shares it, so results compare by
    identity.
    ``table`` is the rows as a numpy array over the same memory, and
    each name in ``COLUMNS`` reads as a view of its columns
    (``result.p`` is the measured position); they import numpy on first
    use.  ``q`` is the measured attitude, ``q_d`` the controller's
    desired attitude, ``thrust``/``omega`` the saturated command,
    ``alpha`` and ``singular`` the flatness reference angle of attack
    and singular-case flag.
    """

    def __init__(self, rows, n_rows):
        self.rows, self.n_rows = rows, n_rows

    @cached_property
    def table(self):
        import numpy as np
        return np.ndarray((self.n_rows, _WIDTH), buffer=self.rows)

    def __getattr__(self, name):
        if name not in COLUMNS:
            raise AttributeError(name)
        return self.table[:, COLUMNS[name]]

    def _vectors(self, name):
        """The 3-vectors of column group ``name``, row by row."""
        columns, stop = COLUMNS[name], self.n_rows * _WIDTH
        return zip(*(self.rows[index:stop:_WIDTH]
                     for index in range(columns.start, columns.stop)))

    @property
    def rmse(self):
        """E_p: the root-mean-square Euclidean position error over the
        rows; the sum of squares is exactly rounded (``math.fsum``)."""
        if not self.n_rows:
            raise EmptySeriesError("empty series")
        squares = _squared_errors(self._vectors("p_ref"), self._vectors("p"))
        return math.sqrt(math.fsum(squares) / self.n_rows)

    def peak_error(self):
        """Largest Euclidean position error over the rows."""
        if not self.n_rows:
            raise EmptySeriesError("empty series")
        return math.sqrt(max(_squared_errors(self._vectors("p_ref"),
                                             self._vectors("p"))))

    @classmethod
    def allocate(cls, cfg):
        """Zeroed rows for a run of ``cfg``."""
        return cls(array("d", [0.0]) * (cfg.n_rows * _WIDTH), cfg.n_rows)

    def store(self, k, t, ref, state, q, q_d, cmd, flat):
        """Fill row ``k`` from the tick's reference, the position and
        velocity of ``state``, the measured and desired attitude
        quaternions, the command and the feedforward: one row write,
        its values in ``COLUMNS`` order."""
        (px, py, pz), (rx, ry, rz), (vx, vy, vz) = state.p, ref.p, state.v
        (qw, qx, qy, qz), (dw, dx, dy, dz), (wx, wy, wz) = q, q_d, cmd.omega
        _ROW.pack_into(self.rows, k * _ROW.size, t, px, py, pz, rx, ry, rz,
                       vx, vy, vz, qw, qx, qy, qz, dw, dx, dy, dz, cmd.thrust,
                       wx, wy, wz, flat.alpha, flat.singular)

    def head(self, n_rows):
        """The first ``n_rows`` rows, e.g. a diverged run's partial trace."""
        return RunResult(self.rows, min(n_rows, self.n_rows))

    def write_csv(self, path):
        """Trace as CSV with 17-significant-digit floats; byte-stable.
        Written in batches of ``_CSV_BATCH`` rows, each batch formatted
        by one ``%`` from the columns of a slice of ``rows``
        (:func:`_csv_lines`)."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(CSV_COLUMNS + "\n")
            for start in range(0, self.n_rows, _CSV_BATCH):
                stop = min(start + _CSV_BATCH, self.n_rows)
                handle.write(_csv_lines(
                    self.rows[start * _WIDTH:stop * _WIDTH], stop - start))


def _csv_lines(batch, n):
    """The ``n`` rows of ``batch`` as CSV lines, formatted by one ``%``
    that formats each distinct column once.  A column whose bytes hold
    one value is formatted into the line template; a column whose bytes
    equal another's is formatted once into strings that both take by
    ``%s``; every other column's values go to the template's
    ``%.17g``.  Bytes, not floats, are compared, so ``0.0`` and
    ``-0.0``, and NaNs of other bits, keep their own text."""
    columns = [batch[index::_WIDTH] for index in range(_WIDTH)]
    keys = [column.tobytes() for column in columns]
    fields, sources, texts = [], [], {}
    for column, key in zip(columns, keys):
        if key == key[:8] * n:
            fields.append("%.17g" % column[0])
        elif keys.count(key) == 1:
            fields.append("%.17g")
            sources.append(column)
        else:
            if key not in texts:
                texts[key] = ("%.17g\n" * n % tuple(column)).splitlines()
            fields.append("%s")
            sources.append(texts[key])
    line = ",".join(fields) + "\n"
    return line * n % tuple(chain.from_iterable(zip(*sources)))


def _went_non_finite(reason, t, ref, result, k):
    """The divergence of a run whose tick ``k`` went non-finite;
    ``reason`` says what happened in which layer."""
    return DivergenceError(t, math.hypot(*ref.v), result.head(k),
                           f"the run went non-finite ({reason})")


def _stream_key(cfg):
    """All a run's reference stream depends on: the transform's
    hysteresis runs on reference speed, never on the plant."""
    return (cfg.trajectory, cfg.model, cfg.rate, cfg.n_rows)


def _ticks(cfg, result):
    """The tick skeleton every run shares: for each row of ``result``,
    the tick's index, time, reference sample and flatness feedforward.
    A tick starts at its sample call.  All transforms of one run go
    through one context, and a sample that ``is`` the previous tick's
    (a hover's) keeps its feedforward: a sample repeated through one
    context gives the same output from its first call on.  Inside
    :func:`condition_matrix` the held stream is replayed when it is the
    run's, its samples without the jerk or yaw the closed loop never
    reads; otherwise the slot lets go of it as the first tick starts,
    and holds the run's, recorded, only once its last tick is done: a
    diverged run's partial stream is dropped."""
    global _stream
    replay, record = False, None
    if _stream is not None:
        key = _stream_key(cfg)
        held, record = _stream
        replay = held == key
        if not replay:
            _stream = (None, None)
            record = array("d", [0.0]) * (cfg.n_rows * _TICK_WIDTH)
    dt = 1.0 / cfg.rate
    transform_ctx, ref = TransformContext(), None
    for k in range(cfg.n_rows):
        t = k * dt
        if replay:
            v = _TICK.unpack_from(record, k * _TICK.size)
            ref = FlatSample(v[0:3], v[3:6], v[6:9], None, None)
            flat = FlatnessOutput((v[9:12], v[12:15], v[15:18]), v[18],
                                  v[19], v[20:23], v[23:26], v[26:29], v[29])
        else:
            previous, ref = ref, sample_trajectory(cfg.trajectory, t)
            if ref is not previous:
                try:
                    flat = flatness_transform(cfg.model, ref, transform_ctx)
                except FloatingPointError as exc:
                    raise _went_non_finite(exc, t, ref, result, k) from None
            if record is not None:
                r0, r1, r2 = flat.rotation
                _TICK.pack_into(record, k * _TICK.size, *ref.p, *ref.v,
                                *ref.a, *r0, *r1, *r2, flat.thrust,
                                flat.alpha, *flat.omega, *flat.airspeed,
                                *flat.wind_axis, flat.singular)
        yield k, t, ref, flat
    if record is not None and not replay:
        _stream = (key, record)


def run_experiment(cfg):
    """One closed-loop run; returns a RunResult or raises DivergenceError
    (with the partial result attached) when tracking breaks down.

    The plant starts on tick 0's reference in tick 0's feedforward
    attitude, with tick 0's feedforward as the applied input."""
    dt = 1.0 / cfg.rate
    plant, substeps, model = cfg.plant, cfg.substeps, cfg.model
    # without a lagging channel the plant holds the command as it is
    lags = plant.tau_thrust != 0.0 or plant.tau_omega != 0.0
    result = RunResult.allocate(cfg)
    control_ctx = ControllerContext()
    for k, t, ref, flat in _ticks(cfg, result):
        try:
            if k:   # the plant follows the previous tick's command to t
                for _ in range(substeps):
                    applied = actuator_lag(plant, cmd, applied) if lags else cmd
                    state = rk4_step(plant, state, applied)
                require_finite(state)
                p_history.append(state.p)
            else:   # the start-up
                state = VehicleState(ref.p, ref.v, flat.rotation)
                applied = ControlInput(flat.thrust, flat.omega)
                # position-only measurement delay; the oldest entry is
                # what the controller sees this tick
                p_history = deque([state.p], maxlen=cfg.delay_ticks + 1)
            q = mat_to_quat(state.R)
            # the command the plant holds until the next tick
            cmd = controller_step(model, cfg.gains, cfg.rate_ff, cfg.limits,
                                  ref, flat, (p_history[0], state.v, q),
                                  control_ctx, dt)
            (px, py, pz), (rx, ry, rz) = state.p, ref.p
            dx, dy, dz = px - rx, py - ry, pz - rz
            error = math.sqrt(dx * dx + dy * dy + dz * dz)
            if not math.isfinite(error):
                raise overflow_error("the harness")
        except FloatingPointError as exc:
            raise _went_non_finite(exc, t, ref, result, k) from None
        result.store(k, t, ref, state, q, control_ctx.held_quat, cmd, flat)
        if error > cfg.abort_radius:
            raise DivergenceError(t, math.hypot(*ref.v), result.head(k + 1))
    return result


def feedforward_trace(cfg):
    """Open-loop flatness sweep along the reference (no plant, no
    feedback): reference kinematics plus the transform's outputs, in the
    same row format as a closed-loop run; raises DivergenceError when
    the transform overflows."""
    result = RunResult.allocate(cfg)
    for k, t, ref, flat in _ticks(cfg, result):
        # the reference is the state: measured and desired attitude agree
        quat = mat_to_quat(flat.rotation)
        # the feedforward is the command: it has its thrust and omega
        result.store(k, t, ref, ref, quat, quat, flat, flat)
    return result


class Cell(NamedTuple):
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
    """Run each cell of ``CONDITIONS`` on one shared reference and plant;
    returns their :class:`Cell` in table order and never raises on a
    diverging cell.

    The first cell of each reference stream (with, then without the
    aero model) records it for the adjacent cells to replay, 240 bytes
    per tick; one stream is held at a time, and none past the return."""
    global _stream
    _stream = (None, None)
    try:
        return [_run_cell(name, cfg.with_condition(name))
                for name in CONDITIONS]
    finally:
        _stream = None


def format_matrix(cells):
    """Human-readable summary table of condition-matrix cells."""
    lines = [f"{'condition':<12} {'E_p [m]':>12} {'peak [m]':>12}  status"]
    for cell in cells:
        ep = cell.result.rmse if cell.result.n_rows else math.nan
        peak = cell.result.peak_error() if cell.result.n_rows else math.nan
        lines.append(f"{cell.name:<12} {ep:>12.6f} {peak:>12.6f}  "
                     f"{cell.status()}")
    return "\n".join(lines)


class FeasibilityReport(NamedTuple):
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
        """The report in five lines; thrusts to five significant digits,
        so a value of any size prints in a bounded width."""
        return "\n".join([
            f"thrust demand   {self.thrust_peak:#.5g} N "
            f"(limit {self.thrust_min:#.5g} N)",
            f"body-rate demand {self.omega_peak:.4f} rad/s "
            f"(limit {self.omega_max:.4f} rad/s)",
            f"singular ticks  {self.singular_ticks} / {self.total_ticks}",
            f"alpha range     [{self.alpha_range[0]:.4f}, "
            f"{self.alpha_range[1]:.4f}] rad",
            f"feasible        {'yes' if self.feasible else 'no'}",
        ])


def feasibility_check(cfg):
    """Fold one sweep of the flatness transform along the reference into
    a report against the actuator limits, keeping no trace (a diverging
    sweep has no partial one) and, of equal extremes, the first."""
    thrust_peak = alpha_low = math.inf
    omega_peak, alpha_high, singular_ticks = 0.0, -math.inf, 0
    for _, _, _, flat in _ticks(cfg, RunResult(array("d"), 0)):
        thrust, alpha, (wx, wy, wz) = flat.thrust, flat.alpha, flat.omega
        if thrust < thrust_peak:
            thrust_peak = thrust
        wx, wy, wz = abs(wx), abs(wy), abs(wz)
        if wx > omega_peak:
            omega_peak = wx
        if wy > omega_peak:
            omega_peak = wy
        if wz > omega_peak:
            omega_peak = wz
        if alpha < alpha_low:
            alpha_low = alpha
        if alpha > alpha_high:
            alpha_high = alpha
        singular_ticks += flat.singular != 0
    return FeasibilityReport(thrust_peak, cfg.limits.thrust_min(cfg.model),
                             omega_peak, cfg.limits.omega_max, singular_ticks,
                             cfg.n_rows, (alpha_low, alpha_high))
