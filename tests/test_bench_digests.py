"""The benchmark's outputs are pinned: each workload of ``perfbench/``,
replayed in process at seeds 0 and 7 through the benchmark's own case,
untraced invocation and gate, writes outputs whose ``trace_sha256`` is
the one ``BENCH_35.json`` records, and passes the gate.  A change that
moves an output bit on purpose updates these digests and says so."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_DIGESTS = {
    ("sim-circle", 0):
        "616acdf8aa768e70dbe6d33e695416a4cf1603a66793c13df3d76f5fb55ade49",
    ("sim-circle", 7):
        "616acdf8aa768e70dbe6d33e695416a4cf1603a66793c13df3d76f5fb55ade49",
    ("compare-mismatch", 0):
        "3415539575309de2a995b719765193e0bda6218625ee54c9413f35fd20b6aea1",
    ("compare-mismatch", 7):
        "3d35d4cd0cab88f6fce2a5482e26cedb43c571db4f8392888e000a734c2d9b35",
    ("flat-lemniscate", 0):
        "45d3721bb49c8b88aa15d96c920c423e27339dd41ab0a199097ce1d4a4498857",
    ("flat-lemniscate", 7):
        "45d3721bb49c8b88aa15d96c920c423e27339dd41ab0a199097ce1d4a4498857",
    ("hover-gust", 0):
        "ac4cf08143a834713844eb117f6c079f8800b8a1f831061bdf6e5dbf2638ff32",
    ("hover-gust", 7):
        "d35114bef4b5a3e39dfb264900be85d3c8bdc136be967f6828048c1a6ec00e5c",
}


def test_every_workload_is_pinned():
    assert {name for name, _ in _DIGESTS} == set(WORKLOADS)


@pytest.mark.parametrize("name,seed", list(_DIGESTS))
def test_a_workload_writes_its_recorded_digest(name, seed, tmp_path):
    case = measure.Case(WORKLOADS[name], seed, tmp_path / "case")
    outputs, codes, _, _ = measure.untraced(case, tmp_path / "out")
    assert case.judge(outputs, codes) == []
    assert case.reference_sha == _DIGESTS[name, seed]
