"""Output checks applied to every benchmark run, with the test suite's bounds.

- every ledger column is finite, except Q_mid_slice (NaN marks a degenerate
  slice) and hopf (NaN marks a texture that is not localized);
- ``total`` is non-increasing within 1e-6 |E0| per step (tests/test_cli.py and
  acceptance criterion 1);
- ``divB`` stays at rounding level, below 1e-12 max(1, max|B|)
  (tests/test_coupler.py, tests/test_anisotropic.py);
- a finite ``Q_mid_slice`` is an integer within 1e-9 (criterion 3);
- for a hopfion texture, ``hopf`` rounds to 1 and drifts by less than 5e-3
  (criterion 3).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

FINITE_COLUMNS = (
    "t", "kinetic", "em", "micromagnetic", "dissipation_cum", "total",
    "coupling_residual", "divB", "gauss_residual",
)


def read_ledger(data: bytes) -> list[dict]:
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def check_run(rows: list[dict], b_values: np.ndarray, hopfion: bool) -> list[str]:
    """Return one message per failed check; empty when the run is correct."""
    problems = []
    if not rows:
        return ["ledger is empty"]
    for col in FINITE_COLUMNS:
        bad = [i for i, r in enumerate(rows) if not math.isfinite(r[col])]
        if bad:
            problems.append(f"ledger column {col} is not finite at row {bad[0]}")
    e0 = rows[0]["total"]
    for i in range(1, len(rows)):
        if rows[i]["total"] > rows[i - 1]["total"] + 1e-6 * abs(e0):
            problems.append(f"total energy rose at step {i}")
            break
    bound = 1e-12 * max(1.0, float(np.abs(b_values).max()))
    div_b = max(r["divB"] for r in rows)
    if not div_b < bound:
        problems.append(f"divB = {div_b:.3e} above rounding level ({bound:.3e})")
    for i, r in enumerate(rows):
        q = r["Q_mid_slice"]
        if math.isfinite(q) and abs(q - round(q)) >= 1e-9:
            problems.append(f"Q_mid_slice = {q!r} is not an integer at row {i}")
            break
    if hopfion:
        hopf = [r["hopf"] for r in rows]
        if not all(math.isfinite(h) for h in hopf):
            problems.append("hopf is not finite")
        elif round(hopf[0]) != 1:
            problems.append(f"hopf = {hopf[0]!r} does not round to 1")
        elif max(abs(h - hopf[0]) for h in hopf) >= 5e-3:
            problems.append(f"hopf drifted by {max(abs(h - hopf[0]) for h in hopf):.3e} >= 5e-3")
    return problems
