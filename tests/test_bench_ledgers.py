"""The committed performance ledgers (``BENCH_*.json`` at the repository
root): each parses and carries the fields of ``BENCH_29.json``, the
first of them, so that ledgers folded by hand stay comparable."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGERS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
QUARTILES = {"q1", "median", "q3"}


def _keys(path):
    """The key sets of a ledger: its own, its results', their metrics',
    and its traced runs' and their sides'."""
    ledger = json.loads(path.read_text(encoding="utf-8"))
    traced = ledger["traced_once"]["results"]
    return (set(ledger), set().union(*map(set, ledger["results"])),
            set().union(*(set(m) for r in ledger["results"]
                          for m in r["metrics"].values())),
            set().union(*map(set, traced)),
            set().union(*(set(r[side]) for r in traced for side in SIDES)))


def test_the_first_ledger_is_there():
    assert ROOT / "BENCH_29.json" in LEDGERS


@pytest.mark.parametrize("path", LEDGERS, ids=[p.name for p in LEDGERS])
def test_a_ledger_has_the_first_ledgers_fields(path):
    for have, need in zip(_keys(path), _keys(ROOT / "BENCH_29.json")):
        assert need <= have, sorted(need - have)
    ledger = json.loads(path.read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    assert ledger["results"]
    for result in ledger["results"]:
        where = f"{result['workload']} seed {result['seed']}"
        pairs = result["pairs_run"]
        assert type(pairs) is int and pairs > 0, where
        for side in SIDES:
            assert type(result["failed"][side]) is int, where
            digests = result["trace_sha256"][side]
            assert digests and all(len(d) == 64 for d in digests), where
        assert end_to_end <= set(result["metrics"]), where
        for name, metric in result["metrics"].items():
            for side in SIDES:
                quartiles = metric[side]
                assert set(quartiles) == QUARTILES, (where, name)
                assert (quartiles["q1"] <= quartiles["median"]
                        <= quartiles["q3"]), (where, name, side)
            assert 0 <= metric["pairs_won"] <= pairs, (where, name)
