"""The benchmark's outputs are pinned: each workload of ``perfbench/``,
replayed in process at seeds 0 and 7 through the benchmark's own case,
untraced invocation and gate, writes outputs whose ``trace_sha256`` is
pinned here, and passes the gate.  ``BENCH_40.json`` records the digests
from before the plant carried its attitude as a quaternion, which moved
the last bits of every closed-loop trace.  A change that moves an
output bit on purpose updates these digests and says so."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_DIGESTS = {
    ("sim-circle", 0):
        "52a40401f2f0a78be5f0053b2bbf42d1c7124298d13b3184983cbbbd4872e307",
    ("sim-circle", 7):
        "52a40401f2f0a78be5f0053b2bbf42d1c7124298d13b3184983cbbbd4872e307",
    ("compare-mismatch", 0):
        "a3873a31a55c04bdb6a04a79f3855eecacf5a846d2ff39a957f63fa63036eb49",
    ("compare-mismatch", 7):
        "3453faf136214d2afb65329670584c6daa82512226bbc9b9df094a15b226ff99",
    ("flat-lemniscate", 0):
        "45d3721bb49c8b88aa15d96c920c423e27339dd41ab0a199097ce1d4a4498857",
    ("flat-lemniscate", 7):
        "45d3721bb49c8b88aa15d96c920c423e27339dd41ab0a199097ce1d4a4498857",
    ("hover-gust", 0):
        "d21badc88a0eb81804eb9a2973ab50a6d3138bfa55458330617cdb9a32e298a2",
    ("hover-gust", 7):
        "50a9e08ffca81e44eff084c98ef49b097cd69fd330528352c7904ce53568d39c",
}


def test_every_workload_is_pinned():
    assert {name for name, _ in _DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("name,seed", list(_DIGESTS))
def test_a_workload_writes_its_recorded_digest(name, seed, tmp_path):
    case = measure.Case(WORKLOADS[name], seed, tmp_path / "case")
    outputs, codes, _, _ = measure.untraced(case, tmp_path / "out")
    assert case.judge(outputs, codes) == []
    assert case.reference_sha == _DIGESTS[name, seed]
