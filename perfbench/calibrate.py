"""Host-speed probe used to scale every reported time.

On a shared host the same code runs at clearly different speeds from
one moment to the next (neighbours on the same physical cores): within
one 5 s invocation the speed seen by a short probe varies by about 23%
(coefficient of variation), and a slow spell can also outlast a whole
run.  The benchmark therefore measures the host's speed with a fixed
kernel while it measures the program, and reports times scaled to a
reference speed.

For a timed invocation, ``Paced.measuring`` takes a short probe just
before and just after it, and a SIGALRM timer runs the same short probe
every ``PERIOD_S`` seconds inside it, in the main thread, on the same
CPU.  Between two successive probes the invocation ran at the mean of
their speeds, so the reported time is

    reported = sum over gaps of  gap * SHORT_REFERENCE_S / probe

which is the time the invocation would take at the reference speed.
The probes' own time (about 3%) is left out of the gaps and subtracted
from the raw wall and CPU times; in a traced invocation it is also
taken out of every span it fell in (see ``tracer.Tracer.exclude``).
Fresh-process set-ups use the longer ``probe()`` next to them instead.

The kernel mixes interpreter work, small numpy calls and float
formatting, like the program, and never imports the program, so a
change to the program cannot move it.  The benchmark pins itself to one
CPU, so the probes and the invocation share that CPU's speed.  Raw
times are kept in the result records.
"""

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

# probe times on the reference host speed (Intel Xeon, 2 vCPU, Python
# 3.11, numpy 2.4, uncontended); they only set the scale of reported times
REFERENCE_S = 0.070
SHORT_REFERENCE_S = 0.00115
_ITERATIONS = 1500
_SHORT_ITERATIONS = 25
PERIOD_S = 0.05


def _kernel(iterations):
    c, s = math.cos(0.01), math.sin(0.01)
    step = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r = np.eye(3)
    v = np.array([1.0, 0.5, -0.2])
    acc = 0.0
    rows = []
    for i in range(iterations):
        w = np.cross(v, r[:, 0])
        acc += float(np.linalg.norm(w)) + math.sqrt(i + 1.0)
        r = r @ step
        v = np.clip(v + 0.001 * w, -2.0, 2.0)
        q = np.array([r[0, 0], r[1, 1], r[2, 2], acc])
        acc += float(q @ q) * 1e-9
        rows.append(",".join(f"{x:.17g}" for x in q))
    return len("\n".join(rows)) + acc


def probe(iterations=_ITERATIONS):
    """Seconds one run of the fixed kernel takes right now."""
    start = time.perf_counter()
    _kernel(iterations)
    return time.perf_counter() - start


def _speed():
    """Reference seconds per host second, from one short probe."""
    return SHORT_REFERENCE_S / probe(_SHORT_ITERATIONS)


class Measurement:
    """Host-speed figures of one measured invocation: ``scale`` turns
    raw seconds (probes excluded) into reference seconds; ``probe_s`` and
    ``probe_cpu_s`` are the wall and CPU time the in-run probes took, and
    ``probes`` lists each as ``(start_ns, duration_ns)`` on the
    ``time.perf_counter_ns`` clock."""

    def __init__(self):
        self.scale = float("nan")
        self.probe_s = 0.0
        self.probe_cpu_s = 0.0
        self.probes = []


class Paced:
    """Probes around and inside a sequence of measurements.  The probe
    after one measurement is the probe before the next; ``last`` is the
    latest measurement."""

    def __init__(self):
        self._speed = _speed()
        self.last = None

    @contextmanager
    def measuring(self):
        result = self.last = Measurement()
        marks = [(time.perf_counter_ns(), self._speed, 0)]
        cpu_spent = []

        def sample(signum, frame):
            start, start_cpu = time.perf_counter_ns(), time.process_time()
            speed = _speed()
            marks.append((start, speed, time.perf_counter_ns() - start))
            cpu_spent.append(time.process_time() - start_cpu)

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            end = time.perf_counter_ns()
            self._speed = _speed()
            marks.append((end, self._speed, 0))
            work = busy = 0.0
            for (t0, s0, p0), (t1, s1, _) in zip(marks, marks[1:]):
                gap = (t1 - t0 - p0) / 1e9
                work += gap * 0.5 * (s0 + s1)
                busy += gap
            result.scale = work / busy if busy > 0.0 else self._speed
            result.probes = [(t, p) for t, _, p in marks[1:-1]]
            result.probe_s = sum(p for _, p in result.probes) / 1e9
            result.probe_cpu_s = sum(cpu_spent)
