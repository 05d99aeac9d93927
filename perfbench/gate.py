"""Correctness gates for the CSVs the benchmark's ``marcsim`` runs write.

``golden_deviation`` compares a CSV with the copy recorded at the workload's
golden seed: rows are matched on their key columns, every golden row must be
present, and rows the golden copy lacks (a metric added later) are ignored.
``structure_errors`` checks what must hold at any seed.
"""

from __future__ import annotations

import csv
import io
import math

SWEEP_METRICS = ("joint_lower", "joint_up1", "joint_up2", "joint_up_min", "tdma_sum_rate")

# Key columns and value columns of each subcommand's CSV.
SCHEMAS = {
    "sweep": (("alpha", "pr_db", "metric"), ("mean", "stderr", "n_trials", "seed")),
    "prob": (("alpha", "pmax_db"), ("probability", "stderr", "n_trials", "seed")),
}

GOLDEN_RTOL = 1e-12
ORDER_SLACK = 1e-9


def _key(row: dict, key_cols) -> tuple:
    return tuple(row[c] if c == "metric" else float(row[c]) for c in key_cols)


def parse(text: str, command: str) -> dict[tuple, dict[str, float]]:
    """Rows keyed on the key columns; raises ValueError on a malformed CSV or
    a repeated key."""
    key_cols, value_cols = SCHEMAS[command]
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != key_cols + value_cols:
        raise ValueError(f"unexpected header {reader.fieldnames}")
    rows: dict[tuple, dict[str, float]] = {}
    for row in reader:
        key = _key(row, key_cols)
        if key in rows:
            raise ValueError(f"repeated row {key}")
        rows[key] = {c: float(row[c]) for c in value_cols}
    return rows


def rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def golden_deviation(text: str, golden_text: str, command: str) -> float:
    """Largest relative deviation of any golden value; ``inf`` when a golden
    row is missing or the CSV does not parse."""
    golden = parse(golden_text, command)
    try:
        rows = parse(text, command)
    except ValueError:
        return math.inf
    worst = 0.0
    for key, want in golden.items():
        got = rows.get(key)
        if got is None:
            return math.inf
        for col, value in want.items():
            worst = max(worst, rel_dev(got[col], value))
    return worst


def structure_errors(
    text: str, command: str, alphas, grid, trials: int, seed: int
) -> list[str]:
    """Checks that hold at any seed: every expected row exactly once with
    finite values and the run's trial count and seed, stderr >= 0,
    joint_lower <= joint_up_min + 1e-9 per cell, probabilities in [0, 1]."""
    try:
        rows = parse(text, command)
    except ValueError as exc:
        return [str(exc)]
    errors = []
    cells = [(float(a), float(g)) for a in alphas for g in grid]
    if command == "sweep":
        expected = [cell + (m,) for cell in cells for m in SWEEP_METRICS]
    else:
        expected = cells
    missing = [k for k in expected if k not in rows]
    if missing:
        return [f"missing rows {missing[:3]} ({len(missing)} in all)"]
    for key, row in rows.items():
        if not all(math.isfinite(v) for v in row.values()):
            errors.append(f"non-finite value in row {key}")
        if row["n_trials"] != trials or row["seed"] != seed:
            errors.append(f"row {key} has n_trials/seed {row['n_trials']}/{row['seed']}")
        if row["stderr"] < 0:
            errors.append(f"negative stderr in row {key}")
        if command == "prob" and not 0.0 <= row["probability"] <= 1.0:
            errors.append(f"probability outside [0, 1] in row {key}")
    if command == "sweep":
        for cell in cells:
            lower = rows[cell + ("joint_lower",)]["mean"]
            upper = rows[cell + ("joint_up_min",)]["mean"]
            if lower > upper + ORDER_SLACK:
                errors.append(f"joint_lower {lower} > joint_up_min {upper} at {cell}")
    return errors
