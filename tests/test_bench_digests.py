"""The benchmark's outputs are pinned: each workload of ``perfbench/``,
replayed in process at seeds 0 and 7 through the benchmark's own case,
untraced invocation and gate, writes outputs whose ``trace_sha256`` is
pinned here, and passes the gate.  ``BENCH_35.json`` records the digests
from before the thrust-axis attitude was built by one kernel, which
moved the last bits of every closed-loop and zero-velocity trace.  A
change that moves an output bit on purpose updates these digests and
says so."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_DIGESTS = {
    ("sim-circle", 0):
        "86c06f8785d3b20e9eda1b7b0c6b3f65e2f0008d99a6b06c5f05829240d109b8",
    ("sim-circle", 7):
        "86c06f8785d3b20e9eda1b7b0c6b3f65e2f0008d99a6b06c5f05829240d109b8",
    ("compare-mismatch", 0):
        "23f74d5c476fd80eaa102b44a7416eb3762f807fbb6bfa997e99dc16e7b95c77",
    ("compare-mismatch", 7):
        "3d35d4cd0cab88f6fce2a5482e26cedb43c571db4f8392888e000a734c2d9b35",
    ("flat-lemniscate", 0):
        "45d3721bb49c8b88aa15d96c920c423e27339dd41ab0a199097ce1d4a4498857",
    ("flat-lemniscate", 7):
        "45d3721bb49c8b88aa15d96c920c423e27339dd41ab0a199097ce1d4a4498857",
    ("hover-gust", 0):
        "08a344a4ee59972e9c41929193d6be2b6504203fbeb0353595b931685eb6e247",
    ("hover-gust", 7):
        "433746589549bce2ef7e71aec8162569a2c120de42beee9ab9666a652bb46579",
}


def test_every_workload_is_pinned():
    assert {name for name, _ in _DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("name,seed", list(_DIGESTS))
def test_a_workload_writes_its_recorded_digest(name, seed, tmp_path):
    case = measure.Case(WORKLOADS[name], seed, tmp_path / "case")
    outputs, codes, _, _ = measure.untraced(case, tmp_path / "out")
    assert case.judge(outputs, codes) == []
    assert case.reference_sha == _DIGESTS[name, seed]
