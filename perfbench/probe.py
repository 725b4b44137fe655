"""Determinism probe: each of the seven experiments run in two fresh
processes at its README or acceptance config, and every output compared
byte for byte.

Run as a script it is one of the two processes:
``python3 perfbench/probe.py <src dir> <out dir>``.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

CONFIGS = {
    "kernel": {"experiment": "kernel", "seed": 5, "count": 12},
    "green": {"experiment": "green", "seed": 5, "count": 12},
    "verify-identity": WORKLOADS["disk-identity"][0],
    "exhaust": {"experiment": "exhaust", "seed": 1, "exhaust_steps": 6},
    # single-resolution reference check
    "pde-green": {"experiment": "pde-green", "pde_check": "reference",
                  "domain": WORKLOADS["grid-reference"][0]["domain"], "grid": [128, 128],
                  "seed": 1},
    "distance": {"experiment": "distance", "seed": 5, "count": 12},
    "gauge-experiment": {"experiment": "gauge-experiment", "seed": 2,
                         "weight": WORKLOADS["disk-identity"][0]["weight"]},
}

#: Differences already known.  The single-resolution reference check writes
#: the wall-clock solve time into report.json.
KNOWN = {"pde-green": ["report.json: tables.solver.solve_seconds"]}

TIMEOUT_S = 90


def _json_diff(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                out.append(sub)
            else:
                out.extend(_json_diff(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(_json_diff(x, y, f"{path}[{i}]"))
        return out
    return [] if a == b else [path]


def compare(dir_a: Path, dir_b: Path) -> dict:
    """experiment -> list of differences between the two runs' outputs."""
    flagged = {}
    for name in CONFIGS:
        a, b = Path(dir_a) / name, Path(dir_b) / name
        files = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
        diffs = []
        for fname in files:
            fa, fb = a / fname, b / fname
            if not (fa.is_file() and fb.is_file()):
                diffs.append(f"{fname}: missing in one run")
            elif fa.read_bytes() != fb.read_bytes():
                if fname.endswith(".json"):
                    fields = _json_diff(json.loads(fa.read_text()), json.loads(fb.read_text()))
                    diffs.extend(f"{fname}: {f}" for f in fields or ["bytes"])
                else:
                    diffs.append(fname)
        if diffs:
            flagged[name] = diffs
    return flagged


def run(src: Path, work: Path) -> dict:
    """Run the probe in two concurrent processes and compare their outputs.

    ``ok`` is false when a process fails or a difference outside ``KNOWN``
    appears.
    """
    dirs = [Path(work) / "probe-a", Path(work) / "probe-b"]
    procs = [
        subprocess.Popen([sys.executable, __file__, str(src), str(d)],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for d in dirs
    ]
    errors = []
    deadline = time.monotonic() + TIMEOUT_S
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                errors.append(err.strip().splitlines()[-1] if err.strip() else
                              f"exit {proc.returncode}")
    except subprocess.TimeoutExpired:
        errors.append(f"probe exceeded {TIMEOUT_S} s")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if errors:
        return {"ok": False, "errors": errors, "flagged": {}, "unexpected": {}}
    flagged = compare(*dirs)
    unexpected = {
        name: [d for d in diffs if d not in KNOWN.get(name, [])]
        for name, diffs in flagged.items()
    }
    unexpected = {k: v for k, v in unexpected.items() if v}
    return {"ok": not unexpected, "errors": [], "flagged": flagged, "unexpected": unexpected}


def main(argv) -> int:
    src, out = argv
    sys.path.insert(0, src)
    from bergreen.harness import ExperimentConfig, run as run_experiment

    for name, cfg in CONFIGS.items():
        run_experiment(ExperimentConfig.from_dict(copy.deepcopy(cfg)), Path(out) / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
