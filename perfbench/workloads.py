"""Benchmark workloads: the experiment configs each iteration runs.

Every iteration passes each config of its workload through
``harness.run(config, out_dir)``, as the ``bergreen`` command does.  The
workload seed re-seeds the sampled points of the two workloads that draw
points at random; the grid workloads use fixed node pairs, so their inputs
do not depend on it.

``BENCHMARK.json`` names the workloads of the repeated runs and every
metric with its unit; ``metric_units`` reads the metric names from there.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The workload seed at which the golden outputs were recorded.
GOLDEN_SEED = 0

_SQUARE = {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}}
# rho = |z + 2|^2: mu(z) = 2 + z, coefficients in ascending degree
_RHO = {"representation": "holo_modulus_squared", "coefficients": [[2, 0], [1, 0]]}

WORKLOADS = {
    # The README example as written.  Gram assembly (496 entries x 6400
    # nodes) is nearly all of the work; the grid solver is never touched.
    "disk-identity": [
        {"experiment": "verify-identity", "domain": {"kind": "unit_disk"}, "weight": _RHO,
         "basis_order": 30, "quad_order": 40, "seed": 7, "count": 25},
    ],
    # bergman as a query engine: 4001 evaluate and 8002 diagonal calls plus a
    # 2000-row CSV, with a smaller Gram.
    "kernel-queries": [
        {"experiment": "distance",
         "domain": {"kind": "moebius_disk", "params": {"a": [0.3, 0.2], "theta": 0.5}},
         "weight": _RHO, "basis_order": 20, "quad_order": 24, "seed": 11, "count": 2000},
    ],
    # Solve-heavy: two factorizations and 50 right-hand sides through
    # solve_mixed, a complex 9-point matrix and a polar grid.
    "grid-identity": [
        {"experiment": "pde-green", "pde_check": "identity", "domain": _SQUARE, "weight": _RHO,
         "grid": [128, 128], "basis_order": 20, "quad_order": 24, "seed": 1},
        {"experiment": "pde-green", "pde_check": "identity",
         "domain": {"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}},
         "grid": [128, 256], "quad_order": 24, "seed": 1},
    ],
    # The README grid-solver validation with finer resolutions: one
    # right-hand side per factorization, plus the series reference.
    "grid-reference": [
        {"experiment": "pde-green", "pde_check": "reference", "domain": _SQUARE, "seed": 1,
         "study": {"parameter": "grid_resolution", "values": [64, 128, 192]}},
    ],
}

#: Workloads whose configs draw points from the seed.
SEEDED = ("disk-identity", "kernel-queries")


def configs(workload: str, seed: int) -> list:
    """Config dicts of one workload iteration for a workload seed.

    Seed 0 gives the configs above; seed n shifts the config seed of the
    seeded workloads by n.
    """
    out = copy.deepcopy(WORKLOADS[workload])
    if workload in SEEDED:
        for cfg in out:
            cfg["seed"] = (cfg["seed"] + seed) % 2**63
    return out


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of
    ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}
