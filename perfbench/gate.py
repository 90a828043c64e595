"""Correctness gate applied to every measured invocation.

An invocation's outputs are the files it wrote plus the text ``check``
printed.  ``problems`` lists every check they fail; an empty list means
the invocation counts as correct.  The gate never raises on bad
outputs, so one failure never aborts the set.
"""

import hashlib
import math
import re

import numpy as np

from liftquad.harness import CSV_COLUMNS

UNIT_TOL = 1e-9
_THRUST = CSV_COLUMNS.split(",").index("fz")
_Q = slice(10, 14)
_QD = slice(14, 18)
_SINGULAR_TICKS = re.compile(r"singular ticks\s+(\d+) / (\d+)")


def trace_sha256(outputs):
    """One digest over every output, in name order."""
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode() + b"\0")
        digest.update(len(outputs[name]).to_bytes(8, "little"))
        digest.update(outputs[name])
    return digest.hexdigest()


def parse_csv(data):
    """Rows of a trace as a float array, or a problem string."""
    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    if header != CSV_COLUMNS:
        return None, "unexpected CSV header"
    rows = [line.split(",") for line in body.splitlines()]
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        return None, "malformed CSV row"
    if table.ndim != 2 or table.shape[1] != len(CSV_COLUMNS.split(",")):
        return None, "wrong CSV column count"
    return table, None


def tracking_rmse(table):
    """E_p of a closed-loop trace: RMS of |p_ref - p| over its rows."""
    err = table[:, 4:7] - table[:, 1:4]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def _csv_problems(name, data, n_rows):
    table, problem = parse_csv(data)
    if problem:
        return [f"{name}: {problem}"]
    problems = []
    if len(table) != n_rows:
        problems.append(f"{name}: {len(table)} rows, expected {n_rows}")
    if not np.all(np.isfinite(table)):
        problems.append(f"{name}: non-finite value")
        return problems
    if np.any(table[:, _THRUST] > 0.0):
        problems.append(f"{name}: positive thrust")
    for label, cols in (("q", _Q), ("qd", _QD)):
        norms = np.linalg.norm(table[:, cols], axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            problems.append(f"{name}: {label} not unit norm")
    if not np.all(np.isin(table[:, -1], (0.0, 1.0, 2.0))):
        problems.append(f"{name}: bad singular flag")
    return problems


def problems(outputs, codes, n_rows, expected_files):
    """Every failed check of one invocation.

    ``codes`` are the CLI exit codes (divergence exits with 3; none of
    the workloads is expected to diverge), ``n_rows`` the N+1 rows each
    trace must hold and ``expected_files`` the outputs it must produce.
    """
    found = []
    if any(code != 0 for code in codes):
        found.append(f"exit codes {codes}")
    missing = sorted(set(expected_files) - set(outputs))
    if missing:
        found.append(f"missing outputs {missing}")
    for name, data in sorted(outputs.items()):
        if name.endswith(".csv"):
            found.extend(_csv_problems(name, data, n_rows))
        elif name == "summary.txt":
            lines = data.decode("utf-8").splitlines()[2:]
            if not lines or any(not line.endswith("  ok") for line in lines):
                found.append("summary.txt: a cell did not finish")
        elif name == "check.txt":
            text = data.decode("utf-8")
            match = _SINGULAR_TICKS.search(text)
            if not match or int(match.group(2)) != n_rows:
                found.append("check.txt: wrong tick count")
            if "nan" in text or "inf" in text:
                found.append("check.txt: non-finite value")
    return found


def ep_m(outputs):
    """E_p of the ``pid-dfaf`` run: the ``sim`` trace or, for compare,
    the ``pid-dfaf`` cell; NaN for open-loop workloads."""
    for name in ("sim.csv", "pid-dfaf.csv"):
        if name in outputs:
            table, problem = parse_csv(outputs[name])
            return math.nan if problem else tracking_rmse(table)
    return math.nan
