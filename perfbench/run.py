"""bergreen benchmark: experiments driven through ``harness.run`` the way the
CLI drives them, timed end to end, with an outside-in layer trace.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs the iterations closed-loop, one after another,
each writing its outputs to a fresh directory under ``.perfbench/``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
processes that import bergreen and validate the workload's configs), the
median and tail seconds per iteration, and the peak resident memory of this
process, which runs nothing but the workload.  ``--trace 1`` spends half the
time untraced and half with the span wrappers installed, and reports the
per-layer metrics.  Both modes check every iteration's outputs, compare the
golden-seed outputs with the golden ones, run the determinism probe once
and print a readable summary (error rate, check margin, output drift,
hashes, environment) before the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that ``BENCHMARK.json`` names.
``correct`` is false if an iteration failed, if the output drift exceeds
``outputs.DRIFT_TOLERANCE`` or a golden file or column was not compared,
or if the probe found an unexpected difference.  The full record is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import probe
from outputs import DRIFT_TOLERANCE, check_margin, drift, hash_outputs
from workloads import GOLDEN_DIR, GOLDEN_SEED, ROOT, SRC, WORKLOADS, configs, metric_units

SETUP_REPEATS = 15
#: The tail is this fixed percentile of all samples, so that a faster
#: commit, which fits more iterations into the same seconds, is read at the
#: same one.  The timed loop takes at least 20 samples, so that at least
#: five lie beyond it.
TAIL_PERCENTILE = 75
#: A loop runs past its time budget until it has this many samples, but
#: not past EXTEND_LIMIT_S seconds.
MIN_SAMPLES = {0: 20, 1: 3}
EXTEND_LIMIT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the system-wide monotonic clock once the configs are validated.
_SETUP_CHILD = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from bergreen.harness import ExperimentConfig\n"
    "for c in json.loads(sys.argv[2]):\n"
    "    ExperimentConfig.from_dict(c).validate()\n"
    "print(time.monotonic())\n"
)


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def iteration(cfgs, out_dir):
    """One workload iteration: every config through ``harness.run``."""
    from bergreen import harness

    return [harness.run(harness.ExperimentConfig.from_dict(copy.deepcopy(c)), out_dir / str(i))
            for i, c in enumerate(cfgs)]


def setup_seconds(cfgs) -> list:
    """Wall seconds from starting a fresh process until it has imported
    bergreen and validated the configs (its exit is not waited for)."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(cfgs)],
                              check=True, timeout=60, capture_output=True, text=True)
        out.append(float(proc.stdout) - t0)
    return out


def closed_loop(run_one, cfgs, seconds, min_samples, work, reference=None):
    """Iterations back to back until ``seconds`` have passed and
    ``min_samples`` were taken (or ``EXTEND_LIMIT_S`` passed).

    An iteration fails if it raises, if a check fails, or if its output
    hashes differ from ``reference`` (by default the first iteration's).
    The first iteration's outputs are kept; the others are removed.
    """
    samples, margins, failures = [], [], []
    first_dir = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(samples) >= min_samples or elapsed >= EXTEND_LIMIT_S):
            break
        out = work / f"it{len(samples)}"
        t0 = time.perf_counter()
        try:
            reports = run_one(cfgs, out)
        except Exception as exc:  # a failing iteration is counted; the loop goes on
            samples.append(time.perf_counter() - t0)
            failures.append(f"iteration {len(samples) - 1}: {type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            continue
        samples.append(time.perf_counter() - t0)
        margins.append(check_margin(reports))
        hashes = hash_outputs(out)
        if reference is None:
            reference = hashes
        if not all(r.passed for r in reports):
            failures.append(f"iteration {len(samples) - 1}: a check failed")
        elif hashes != reference:
            failures.append(f"iteration {len(samples) - 1}: outputs differ from the first")
        if first_dir is None:
            first_dir = out
        else:
            shutil.rmtree(out)
    return {"samples": samples, "margins": margins, "failures": failures,
            "hashes": reference, "first_dir": first_dir}


def tail(samples):
    """(value, samples beyond it) of the TAIL_PERCENTILE-th percentile."""
    if len(samples) < 2:
        return samples[0], 0
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(x > value for x in samples)


def golden_comparison(golden, out) -> dict:
    """Drift of the outputs in ``out`` against the golden outputs.  ``ok``
    is false if the golden is missing, a golden file or column had nothing
    to compare with, or the drift exceeds DRIFT_TOLERANCE."""
    if not golden.is_dir():
        return {"ok": False, "error": f"no golden outputs at {golden}"}
    value, uncompared = drift(golden, out)
    return {"ok": not uncompared and value <= DRIFT_TOLERANCE, "output_drift": value,
            "tolerance": DRIFT_TOLERANCE, "uncompared": uncompared,
            "identical": hash_outputs(out) == hash_outputs(golden)}


def check_golden(workload, cfgs, loop, work) -> dict:
    """``golden_comparison`` of the outputs at the golden seed: the loop's
    first iteration if it ran at that seed, else one more, untimed."""
    out = loop["first_dir"]
    golden_cfgs = configs(workload, GOLDEN_SEED)
    if cfgs != golden_cfgs or out is None:
        out = work / "golden"
        try:
            iteration(golden_cfgs, out)
        except Exception as exc:  # counted as incorrect; the timed results still stand
            return {"ok": False, "error": f"golden-seed iteration: {type(exc).__name__}: {exc}"}
    return golden_comparison(GOLDEN_DIR / workload, out)


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _aggregate_layers(per_iteration: list):
    """Median of each per-layer metric over traced iterations (a metric an
    iteration lacks reads 0), and the counts that did not repeat exactly."""
    import tracing

    values, varying = {}, []
    for name in sorted(set().union(*per_iteration)):
        column = [it.get(name, 0) for it in per_iteration]
        if not tracing.is_time(name) and len(set(column)) == 1:
            values[name] = column[0]
            continue
        values[name] = statistics.median(column)
        if not tracing.is_time(name):
            varying.append(name)
    return values, varying


def measure(args) -> dict:
    cfgs = configs(args.workload, args.seed)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "configs": cfgs}
    try:
        if args.trace == 0:
            setup = setup_seconds(cfgs)
            loop = closed_loop(iteration, cfgs, args.seconds, MIN_SAMPLES[0], work)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tail_s, tail_beyond = tail(loop["samples"])
            record["metrics"] = {
                "setup_s": statistics.median(setup),
                "run_s": statistics.median(loop["samples"]),
                "run_s_tail": tail_s,
                "peak_rss_mb": peak_rss_mb,
            }
            record["setup_s_samples"] = setup
            record["run_s_tail_beyond"] = tail_beyond
            loops = [loop]
        else:
            import tracing

            half = args.seconds / 2.0
            plain = closed_loop(iteration, cfgs, half, MIN_SAMPLES[1], work / "plain")
            tracer = tracing.Tracer()
            wrapped = tracer.wrap(tracing.ROOT, iteration, tracing.count_pairs)
            layers, traced_s = [], []

            def traced_one(c, out):
                tracer.reset()
                try:
                    return wrapped(c, out)
                finally:
                    layers.append(tracer.layer_metrics())
                    traced_s.append(tracer.span_stats()[tracing.ROOT]["s"])

            with tracing.installed(tracer):
                traced = closed_loop(traced_one, cfgs, half, MIN_SAMPLES[1], work / "traced",
                                     reference=plain["hashes"])
            values, varying = _aggregate_layers(layers)
            values["trace.overhead_s"] = (statistics.median(traced_s)
                                          - statistics.median(plain["samples"]))
            for name in units(1):  # a span never entered reads 0
                values.setdefault(name, 0)
            record["metrics"] = values
            record["counts_not_repeating"] = varying
            record["untraced_run_s"] = statistics.median(plain["samples"])
            loops = [plain, traced]
        record["run_s_samples"] = [x for lp in loops for x in lp["samples"]]
        record["attempted"] = sum(len(lp["samples"]) for lp in loops)
        record["failures"] = [f for lp in loops for f in lp["failures"]]
        record["failed"] = len(record["failures"])
        record["error_rate"] = record["failed"] / record["attempted"]
        margins = [m for lp in loops for m in lp["margins"]]
        record["check_margin"] = max(margins) if margins else None
        record["output_hashes"] = loops[0]["hashes"]
        record["golden"] = check_golden(args.workload, cfgs, loops[0], work)
        record["determinism_probe"] = probe.run(SRC, work)
        record["environment"] = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["correct"] = is_correct(record)
    return record


def is_correct(record) -> bool:
    return (record["failed"] == 0 and record["golden"]["ok"]
            and record["determinism_probe"]["ok"])


def units(trace: int) -> dict:
    """Name -> unit of the metrics the last line reports."""
    return metric_units("per_layer" if trace else "end_to_end")


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def _unit(name) -> str:
    import tracing

    return "s" if tracing.is_time(name) else "count"


def summary_lines(record) -> list:
    listed = units(record["trace"])
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
             f"iterations {record['attempted']}"]
    for name, value in record["metrics"].items():
        note = ""
        if name == "run_s_tail":
            note = (f"  (p{TAIL_PERCENTILE} of {record['attempted']} iterations, "
                    f"{record['run_s_tail_beyond']} beyond it)")
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} fresh processes)"
        elif name not in listed:
            note = "  (not in BENCHMARK.json)"
        lines.append(f"  {name:40s} {_fmt(value):>12s} {listed.get(name) or _unit(name)}{note}")
    lines.append(f"  {'error_rate':40s} {_fmt(record['error_rate']):>12s} ratio"
                 f"  ({record['failed']} of {record['attempted']} iterations failed)")
    lines.append(f"  {'check_margin':40s} {_fmt(record['check_margin']):>12s} ratio"
                 "  (max value/tolerance over checks)")
    golden = record["golden"]
    if "error" in golden:
        lines.append(f"  output_drift: ERROR {golden['error']}")
    else:
        lines.append(f"  {'output_drift':40s} {_fmt(golden['output_drift']):>12s} ratio"
                     f"  (tolerance {golden['tolerance']:g}; golden outputs byte-identical: "
                     f"{golden['identical']})")
        for item in golden["uncompared"]:
            lines.append(f"  output_drift: NOT COMPARED {item}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    for path, digest in sorted((record["output_hashes"] or {}).items()):
        lines.append(f"  sha256 {digest}  {path}")
    pr = record["determinism_probe"]
    flagged = "; ".join(f"{k}: {', '.join(v)}" for k, v in pr["flagged"].items()) or "none"
    lines.append(f"  determinism probe: differing outputs {flagged}")
    for k, v in pr["unexpected"].items():
        lines.append(f"  determinism probe: UNEXPECTED {k}: {', '.join(v)}")
    for err in pr["errors"]:
        lines.append(f"  determinism probe: ERROR {err}")
    env = record["environment"]
    lines.append(f"  environment: python {env['python']}, numpy {env['numpy']}, "
                 f"scipy {env['scipy']}, BLAS {env['blas']['name']} {env['blas']['version']}, "
                 f"LAPACK {env['lapack']['name']} {env['lapack']['version']}, "
                 f"nproc {env['nproc']}, {env['thread_env']}")
    return lines


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "bergreen" / "__init__.py").is_file():
        print(f"perfbench: no bergreen package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = measure(args)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    print("\n".join(summary_lines(record)))
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in units(args.trace).items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
