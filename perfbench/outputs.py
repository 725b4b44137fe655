"""Output checks: SHA-256 of every output file, check margins, and drift
against the golden outputs recorded with the benchmark."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def hash_outputs(out_dir: Path) -> dict:
    """Relative path -> SHA-256 of every file under ``out_dir``."""
    out_dir = Path(out_dir)
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def check_margin(reports) -> float:
    """Largest value/tolerance over all checks (tolerance/value for ``>=``).

    Below 1 while every check passes.
    """
    worst = 0.0
    for report in reports:
        for check in report.checks:
            value, tol = float(check.value), float(check.tolerance)
            if check.comparison.startswith(">"):
                ratio = tol / value if value > 0 else math.inf
            else:
                ratio = value / tol
            worst = max(worst, ratio)
    return worst


#: Largest output drift that still counts as correct.  Replacing the
#: fsum-reduced Gram matrix by a BLAS product (another reduction order)
#: moves the outputs of disk-identity, kernel-queries and grid-identity by
#: at most 6e-15 on this scale; 1e-9 leaves five orders of magnitude for
#: such changes, yet fails a residual that grows from today's 4e-11 to
#: 1e-9, far inside the experiments' own tolerances (1e-5 and 1e-4).
DRIFT_TOLERANCE = 1e-9


def _diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude, or absolute below 1.

    The residual columns hold numbers from 1e-17 up, whose relative change
    under a reordered sum is of order 1; their absolute change is what
    tells lost accuracy from round-off.
    """
    if a == b:
        return 0.0
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_values(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {c["name"]: float(c["value"]) for c in json.load(fh)["checks"]}


def drift(golden: Path, out_dir: Path):
    """Largest difference (``_diff``) of any CSV number or check value.

    CSV columns are matched by name and check values by check name, so an
    added column or check does not break the comparison.  Returns the drift
    and the list of golden files or columns that had nothing to compare with.
    """
    worst, missing = 0.0, []
    for gpath in sorted(Path(golden).rglob("*")):
        if not gpath.is_file():
            continue
        rel = gpath.relative_to(golden).as_posix()
        cpath = Path(out_dir) / rel
        if not cpath.is_file():
            missing.append(rel)
            continue
        if gpath.suffix == ".csv":
            gh, grows = _read_csv(gpath)
            ch, crows = _read_csv(cpath)
            if len(grows) != len(crows):
                missing.append(f"{rel}: {len(grows)} rows, now {len(crows)}")
                continue
            for col, name in enumerate(gh):
                if name not in ch:
                    missing.append(f"{rel}:{name}")
                    continue
                ccol = ch.index(name)
                for grow, crow in zip(grows, crows):
                    worst = max(worst, _diff(float(grow[col]), float(crow[ccol])))
        elif gpath.name == "report.json":
            gchecks, cchecks = _check_values(gpath), _check_values(cpath)
            for name, value in gchecks.items():
                if name not in cchecks:
                    missing.append(f"{rel}: check {name!r}")
                    continue
                worst = max(worst, _diff(value, cchecks[name]))
    return worst, missing
