"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that tracing leaves every output byte-identical, that the traced
counts confirm what each workload was chosen to exercise, that every
per-layer metric of BENCHMARK.json moves on a listed workload, that a seed
other than the default still runs without failures, that changed outputs
make the result incorrect, and that the determinism probe flags the one
known defect.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from workloads import GOLDEN_DIR, ROOT, SRC, WORKLOADS, configs, metric_units

sys.path.insert(0, str(SRC))

import outputs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from bergreen import bergman, harness, pdegreen  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One untraced and one traced iteration of every workload at seed 0."""
    base = tmp_path_factory.mktemp("traced")
    out = {}
    for name in WORKLOADS:
        cfgs = configs(name, 0)
        run.iteration(cfgs, base / name / "plain")
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            tracer.wrap(tracing.ROOT, run.iteration, tracing.count_pairs)(
                cfgs, base / name / "traced")
        out[name] = {
            "plain": outputs.hash_outputs(base / name / "plain"),
            "traced": outputs.hash_outputs(base / name / "traced"),
            "layers": Counter(tracer.layer_metrics()),
            "iteration_s": tracer.span_stats()[tracing.ROOT]["s"],
        }
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_are_byte_identical(traced, name):
    assert traced[name]["plain"] == traced[name]["traced"]


def test_trace_counts_confirm_workload_design(traced):
    layers = {name: t["layers"] for name, t in traced.items()}
    assert layers["grid-reference"]["bergman.gram_matrix.calls"] == 0
    for name in ("disk-identity", "kernel-queries"):
        assert all(v == 0 for k, v in layers[name].items() if k.startswith("pdegreen."))
    assert layers["grid-identity"]["pdegreen.solve.calls"] == 48
    assert layers["grid-identity"]["pdegreen.factor_solve.calls"] == 2
    assert layers["grid-reference"]["pdegreen.solve.calls"] == 0
    assert layers["grid-reference"]["pdegreen.factor_solve.calls"] == 3
    kq = layers["kernel-queries"]
    assert kq["bergman.evaluate.calls"] + kq["bergman.diagonal.calls"] == 12003
    assert kq["harness.pairs_evaluated"] == 2000
    disk = traced["disk-identity"]
    assert disk["layers"]["bergman.gram_matrix.s"] > 0.5 * disk["iteration_s"]
    assert disk["layers"]["bergman.gram_work"] == 31 * 32 // 2 * 6400


def test_listed_layer_metrics_move_on_a_listed_workload(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert set(listed) <= set(WORKLOADS)
    for name in metric_units("per_layer"):
        if name != "trace.overhead_s":
            assert any(traced[w]["layers"][name] for w in listed), name


def test_nested_spans_give_self_times():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    stats = tracer.span_stats()
    assert stats["inner"]["calls"] == 3
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["s"] - stats["inner"]["s"], abs=1e-12)


def test_wrappers_are_restored():
    before = (harness.build_quadrature, bergman.gram_matrix, pdegreen.solve_green,
              vars(bergman.KernelApproximation)["evaluate"],
              vars(pdegreen.DiscreteOperator)["solve"])
    with tracing.installed(tracing.Tracer()):
        assert bergman.gram_matrix is not before[1]
    after = (harness.build_quadrature, bergman.gram_matrix, pdegreen.solve_green,
             vars(bergman.KernelApproximation)["evaluate"],
             vars(pdegreen.DiscreteOperator)["solve"])
    assert after == before


@pytest.mark.parametrize("name", ["disk-identity", "kernel-queries"])
def test_other_seed_has_no_failures(tmp_path, name):
    loop = run.closed_loop(run.iteration, configs(name, 3), 0.0, 2, tmp_path)
    assert len(loop["samples"]) == 2
    assert loop["failures"] == []
    # the seed re-seeds the sampled points
    assert loop["hashes"] != outputs.hash_outputs(GOLDEN_DIR / name)


def _fake_run(payloads):
    """An iteration that writes the next payload and reports a passing check."""
    calls = iter(payloads)

    def run_one(cfgs, out):
        out.mkdir(parents=True)
        (out / "data.csv").write_text(next(calls))
        return [SimpleNamespace(passed=True, checks=[])]

    return run_one


def test_closed_loop_counts_changed_outputs(tmp_path):
    loop = run.closed_loop(_fake_run(["a\n1\n", "a\n1\n", "a\n2\n"]), [], 0.0, 3, tmp_path)
    assert loop["failures"] == ["iteration 2: outputs differ from the first"]


def test_tail_is_read_at_one_percentile():
    assert run.tail([float(i) for i in range(20)]) == (14.25, 5)
    assert run.tail([float(i) for i in range(60)]) == (44.25, 15)


def _perturbed_golden(tmp_path, workload, csv_name, column, delta):
    """A copy of a workload's golden outputs with ``delta`` added to one
    number of the first row."""
    copy = tmp_path / workload
    shutil.copytree(GOLDEN_DIR / workload, copy)
    csv_path = copy / "0" / csv_name
    header, first, *rest = csv_path.read_text().splitlines()
    cells = first.split(",")
    col = header.split(",").index(column)
    cells[col] = repr(float(cells[col]) + delta)
    csv_path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    return copy


def _record(golden):
    return {"failed": 0, "golden": golden, "determinism_probe": {"ok": True}}


def test_golden_outputs_are_correct():
    golden = GOLDEN_DIR / "grid-identity"
    assert outputs.drift(golden, golden) == (0.0, [])
    assert run.is_correct(_record(run.golden_comparison(golden, golden)))


def test_reordering_sized_change_stays_correct(tmp_path):
    out = _perturbed_golden(tmp_path, "disk-identity", "identity.csv", "residual_analytic", 1e-16)
    result = run.golden_comparison(GOLDEN_DIR / "disk-identity", out)
    assert result["output_drift"] == pytest.approx(1e-16, rel=1e-3)
    assert not result["identical"]
    assert run.is_correct(_record(result))


def test_lost_accuracy_makes_the_result_incorrect(tmp_path):
    # the residual grows from 1.2e-11 to 1e-8: the experiment's own check
    # (tolerance 1e-4) still passes
    out = _perturbed_golden(tmp_path, "disk-identity", "identity.csv", "residual_fd", 1e-8)
    result = run.golden_comparison(GOLDEN_DIR / "disk-identity", out)
    assert result["output_drift"] == pytest.approx(1e-8, rel=1e-3)
    assert not run.is_correct(_record(result))


def test_uncompared_column_makes_the_result_incorrect(tmp_path):
    out = tmp_path / "grid-reference"
    shutil.copytree(GOLDEN_DIR / "grid-reference", out)
    csv_path = out / "0" / "study.csv"
    csv_path.write_text(csv_path.read_text().replace("error", "err", 1))
    result = run.golden_comparison(GOLDEN_DIR / "grid-reference", out)
    assert result["uncompared"] == ["0/study.csv:error"]
    assert not run.is_correct(_record(result))


def test_determinism_probe_flags_the_known_defect(tmp_path):
    result = probe.run(SRC, tmp_path)
    assert result["ok"], result
    assert result["flagged"] == probe.KNOWN


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
