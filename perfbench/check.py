"""Output check for one sweep: exit code, per-row bounds and the reference CSV.

A sweep passes when the CLI exits 0, its summary reports no failed row,
and every CSV row passes its bound (``measured <= bound + 1e-9``, the
rule the program states for its pass column).  For a seed that has a
recorded reference the CSV must also match it: the skeleton columns
(experiment, n1, n2, p, epsilon, eta, r) and the pass flags exactly, and
``measured`` and ``bound`` within 1e-9 relative, which leaves room for
last-ulp drift from a changed summation order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

HEADER = "experiment,n1,n2,p,epsilon,eta,r,measured,bound,pass"
ROW_TOLERANCE = 1e-9
REL_TOL = 1e-9
# values that are mathematically 0 may carry rounding noise of this size
ABS_TOL = 1e-15

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("CSV header differs from the documented one")
    return [line.split(",") for line in lines[1:]]


def row_problems(text: str) -> list[str]:
    """Rows that fail their bound or whose pass flag disagrees with the bound."""
    try:
        rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    if not rows:
        return ["CSV holds no rows"]
    problems = []
    for i, row in enumerate(rows):
        if len(row) != 10:
            problems.append(f"row {i}: {len(row)} fields")
            continue
        measured, bound = float(row[7]), float(row[8])
        if row[9] != "true" or not measured <= bound + ROW_TOLERANCE:
            problems.append(f"row {i} fails its bound: {','.join(row)}")
    return problems


def reference_problems(text: str, reference: str) -> list[str]:
    """Differences from a recorded reference beyond the stated tolerance."""
    try:
        rows, ref_rows = _rows(text), _rows(reference)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != 10 or row[:7] != ref[:7] or row[9] != ref[9]:
            problems.append(f"row {i} skeleton or pass flag differs from reference")
            continue
        for col in (7, 8):
            if not math.isclose(float(row[col]), float(ref[col]),
                                rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"row {i} column {col}: {row[col]} vs reference "
                                f"{ref[col]}")
    return problems


def load_reference(workload: str, seed: int) -> str | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def sweep_problems(rc, summary: str, text: str | None,
                   reference: str | None) -> list[str]:
    """Everything wrong with one sweep; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    if text is None:
        return ["no CSV written"]
    problems = []
    try:
        failed = json.loads(summary.strip().splitlines()[-1])["totals"]["failed"]
    except (ValueError, KeyError, IndexError, TypeError):
        problems.append("summary line missing or malformed")
    else:
        if failed != 0:
            problems.append(f"summary reports {failed} failed rows")
    problems += row_problems(text)
    if reference is not None:
        problems += reference_problems(text, reference)
    return problems
