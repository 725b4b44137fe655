"""Every metric of every workload in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload with tracing off and once with tracing
on, each in its own process, and prints the end-to-end metrics, the output
checks (error rate, check margin, output drift) and the per-layer metrics
(those of ``BENCHMARK.json`` first, then every other span and count the
trace recorded) with their units, one column per workload.  The combined records are
written to ``.perfbench/results/report.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS, metric_units

RUN = Path(__file__).resolve().parent / "run.py"
RESULTS = ROOT / ".perfbench" / "results"


def _run(workload, seed, seconds, trace) -> dict:
    extra = [] if seconds is None else ["--seconds", str(seconds)]
    subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--trace", str(trace), *extra],
                   check=True, stdout=subprocess.DEVNULL, timeout=300)
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def _cell(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return str(v)
    return f"{v:.4g}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: run.py's)")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from run import _unit

    records = {w: {t: _run(w, args.seed, args.seconds, t) for t in (0, 1)} for w in WORKLOADS}
    rows = [(name, unit, [records[w][0]["metrics"][name] for w in WORKLOADS])
            for name, unit in metric_units("end_to_end").items()]
    rows += [
        ("error_rate", "ratio", [max(records[w][t]["error_rate"] for t in (0, 1)) for w in WORKLOADS]),
        ("check_margin", "ratio", [records[w][0]["check_margin"] for w in WORKLOADS]),
        ("output_drift", "ratio",
         [records[w][0]["golden"].get("output_drift") for w in WORKLOADS]),
        ("correct", "", [records[w][0]["correct"] and records[w][1]["correct"]
                         for w in WORKLOADS]),
    ]
    # the per-layer metrics of BENCHMARK.json, then every other one traced
    listed = metric_units("per_layer")
    seen = set().union(*(records[w][1]["metrics"] for w in WORKLOADS))
    rows += [(name, listed.get(name) or _unit(name),
              [records[w][1]["metrics"].get(name, 0) for w in WORKLOADS])
             for name in [*listed, *sorted(seen - set(listed))]]

    print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name, unit, values in rows:
        print(f"{name:40s} {unit:6s}" + "".join(f"{_cell(v):>16s}" for v in values))
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "report.json").write_text(json.dumps(records, indent=2, default=str) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
