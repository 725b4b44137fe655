"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the tolerance it was judged against.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The single known-failing check is the kernel gap at the sixth exhaustion
step: |1/(pi r_6^2) - 1/pi| = (1/pi)((64/63)^2 - 1) = 0.010185..., which
exceeds the documented 1e-2 threshold by construction (the seventh step
would satisfy it).  That check is kept at its stated tolerance and marked
as an expected failure rather than loosened.
"""

import json
import math
import time

import numpy as np
import pytest

from bergreen import (
    Annulus,
    Disk,
    DiskGreen,
    GridSpec,
    LaurentBasis,
    MonomialBasis,
    Rectangle,
    UnitDisk,
    build_quadrature,
    discretize,
    exhaustion_sequence,
    extremal_function,
    identity_residual,
    integrate,
    kernel_from_gram,
    reproducing_residual,
    solve_gauge,
    solve_green,
    solve_mixed,
    unit_weight,
    weighted_green,
)
from bergreen.harness import ExperimentConfig, run
from bergreen.pdegreen import grid_pairs, mid_mask, reference_error
from bergreen.weights import HoloModulusSquaredWeight

DISK = UnitDisk()
SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)
ANNULUS = Annulus(0.5, 1.0)


def announce(num, passed, desc):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {desc}")
    return passed


def seeded_pairs(seed=7, count=25, domain=DISK, margin=0.7):
    rng = np.random.default_rng(seed)
    zs = domain.sample_interior(rng, count, margin)
    ws = domain.sample_interior(rng, count, margin)
    return [(z, w) for z, w in zip(zs, ws) if abs(z - w) > 1e-12]


def test_criterion_01_unweighted_identity():
    t0 = time.perf_counter()
    rule = build_quadrature(DISK, 40)
    weight = unit_weight(DISK)
    kernel = kernel_from_gram(MonomialBasis(DISK, 30), weight, rule)
    wg = weighted_green(DiskGreen(0, 1.0), solve_gauge(weight))
    pairs = seeded_pairs()
    res_a = max(identity_residual(kernel, wg, weight, z, w, method="analytic")
                for z, w in pairs)
    res_f = max(identity_residual(kernel, wg, weight, z, w, 1e-3, method="fd")
                for z, w in pairs)
    elapsed = time.perf_counter() - t0
    ok = res_a < 1e-5 and res_f < 1e-4 and elapsed < 10.0
    announce(1, ok, f"unweighted disk identity: analytic {res_a:.2e} < 1e-5, "
                    f"fd {res_f:.2e} < 1e-4, {elapsed:.1f}s < 10s")
    assert res_a < 1e-5
    assert res_f < 1e-4
    assert elapsed < 10.0


def test_criterion_02_weighted_identity_and_transform():
    t0 = time.perf_counter()
    rule = build_quadrature(DISK, 40)
    weight = HoloModulusSquaredWeight([2, 1], DISK)  # mu = z + 2
    kernel_w = kernel_from_gram(MonomialBasis(DISK, 30), weight, rule)
    kernel_u = kernel_from_gram(MonomialBasis(DISK, 30), unit_weight(DISK), rule)
    wg = weighted_green(DiskGreen(0, 1.0), solve_gauge(weight))
    pairs = seeded_pairs()
    res = max(identity_residual(kernel_w, wg, weight, z, w, method="analytic")
              for z, w in pairs)
    res_fd = max(identity_residual(kernel_w, wg, weight, z, w, 1e-3, method="fd")
                 for z, w in pairs)
    transform = max(abs(kernel_w.evaluate(z, w) * weight.mu(z) * np.conj(weight.mu(w))
                        - kernel_u.evaluate(z, w)) for z, w in pairs)
    elapsed = time.perf_counter() - t0
    ok = res < 1e-5 and res_fd < 1e-5 and transform < 1e-6 and elapsed < 10.0
    announce(2, ok, f"weighted identity (mu=z+2): residual {max(res, res_fd):.2e} < 1e-5, "
                    f"transform oracle {transform:.2e} < 1e-6, {elapsed:.1f}s < 10s")
    assert res < 1e-5 and res_fd < 1e-5
    assert transform < 1e-6
    assert elapsed < 10.0


def test_criterion_03_gauge_system():
    weight = HoloModulusSquaredWeight([2, 1], DISK)
    gauge = solve_gauge(weight)
    coeffs_exact = np.array_equal(gauge.conj_coefficients, np.array([2.0 + 0j, 1.0 + 0j]))
    nodes = build_quadrature(Disk(0, 0.8), 10).nodes[:50]
    res = gauge.system_residuals(nodes)
    ok = coeffs_exact and res["max_ratio"] < 1e-8 and res["max_dw"] < 1e-8
    announce(3, ok, f"gauge for mu=z+2 is conj(w)+2 exactly; equation residuals "
                    f"{res['max_ratio']:.2e}, {res['max_dw']:.2e} < 1e-8 at 50 nodes")
    assert coeffs_exact
    assert res["max_ratio"] < 1e-8
    assert res["max_dw"] < 1e-8


def test_criterion_04_exhaustion_harnack():
    t0 = time.perf_counter()
    steps = exhaustion_sequence(DISK, 6).steps
    hs, ks = [], []
    h_err = k_err = 0.0
    for step in steps:
        h = DiskGreen(step.center, step.radius).harmonic_diagonal(0)
        # the center value is exact at any truncation: the Gram is diagonal
        rule = build_quadrature(step, 12)
        kern = kernel_from_gram(MonomialBasis(step, 10), unit_weight(step), rule)
        k = kern.diagonal(0)
        h_err = max(h_err, abs(h - math.log(step.radius)))
        k_err = max(k_err, abs(k - 1.0 / (math.pi * step.radius**2)))
        hs.append(h)
        ks.append(k)
    mono_h = all(a < b for a, b in zip(hs, hs[1:]))
    mono_k = all(a > b for a, b in zip(ks, ks[1:]))
    elapsed = time.perf_counter() - t0
    ok = mono_h and mono_k and h_err < 1e-12 and k_err < 1e-12 and elapsed < 1.0
    announce(4, ok, f"exhaustion: h strictly up, K strictly down, closed-form errors "
                    f"{h_err:.1e}/{k_err:.1e} < 1e-12, {elapsed:.2f}s < 1s")
    assert mono_h and mono_k
    assert h_err < 1e-12
    assert k_err < 1e-12
    assert elapsed < 1.0


@pytest.mark.xfail(strict=True,
                   reason="exact gap (1/pi)((64/63)^2 - 1) = 0.010185 exceeds 1e-2; "
                          "the stated threshold is unattainable at six steps")
def test_criterion_04_kernel_gap_at_step_six():
    r6 = exhaustion_sequence(DISK, 6).steps[-1].radius
    gap = abs(1.0 / (math.pi * r6**2) - 1.0 / math.pi)
    announce(4, gap < 1e-2, f"exhaustion kernel gap at step 6: {gap:.6f} < 1e-2")
    assert gap < 1e-2


def test_criterion_05_grid_solver_validation():
    t0 = time.perf_counter()
    weight = unit_weight(SQUARE)
    errs = []
    for n in (32, 64, 128):
        errs.append(reference_error(SQUARE, weight, n, SQUARE.basis_center)[0])
    order = -float(np.polyfit(np.log([32.0, 64.0, 128.0]), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = order >= 1.5 and errs[-1] < 1e-3 and elapsed < 60.0
    announce(5, ok, f"grid Green vs series reference: order {order:.2f} >= 1.5, "
                    f"error at 128^2 {errs[-1]:.2e} < 1e-3, {elapsed:.1f}s < 60s")
    assert order >= 1.5
    assert errs[-1] < 1e-3
    assert elapsed < 60.0


def test_criterion_06_grid_identity_square():
    t0 = time.perf_counter()
    weight = unit_weight(SQUARE)
    rule = build_quadrature(SQUARE, 40)
    kernel = kernel_from_gram(MonomialBasis(SQUARE, 24), weight, rule)
    residuals = {}
    for n in (64, 128):
        grid = GridSpec(SQUARE, (n, n))
        op = discretize(grid, weight)
        pairs = grid_pairs(grid, 5)
        res = []
        for (z, w), mixed in zip(pairs, solve_mixed(op, pairs)):
            kv = kernel.evaluate(z, w)
            res.append(abs(kv - (-2.0 / math.pi) * mixed) / abs(kv))
        residuals[n] = res
    worst = max(residuals[128])
    improving = float(np.mean(residuals[128])) < float(np.mean(residuals[64]))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and improving and elapsed < 120.0
    announce(6, ok, f"square grid identity: worst {worst:.4f} < 0.02 at 128^2, "
                    f"improving under refinement, {elapsed:.1f}s < 120s")
    assert worst < 0.02
    assert improving
    assert elapsed < 120.0


def test_criterion_07_weighted_grid_factorization():
    weight = HoloModulusSquaredWeight([-(2 + 2j), 1], SQUARE)  # mu = z - (2+2i)
    gauge = solve_gauge(weight)
    rels = {}
    for n in (64, 128):
        grid = GridSpec(SQUARE, (n, n))
        src = grid.node_point(n // 2, n // 2)
        sol_w = solve_green(discretize(grid, weight), src)
        sol_u = solve_green(discretize(grid, unit_weight(SQUARE)), src)
        pts = grid.interior_points()
        predicted = np.asarray(gauge(pts)) * np.conj(complex(gauge(sol_u.source))) * sol_u.values
        mask = mid_mask(grid, src)
        rels[n] = float(np.max(np.abs(sol_w.values - predicted)[mask] / np.abs(predicted)[mask]))
    ok = rels[128] < 0.05 and rels[128] < rels[64]
    announce(7, ok, f"weighted factorization on the square: {rels[128]:.2e} < 0.05 "
                    f"at 128^2 and improving ({rels[64]:.2e} at 64^2)")
    assert rels[128] < 0.05
    assert rels[128] < rels[64]


def laurent_series_kernel(z, w, inner=0.5, outer=1.0, lo=-15, hi=15):
    # Laurent kernel with analytically integrated Gram diagonal
    total = 0.0 + 0j
    for n in range(lo, hi + 1):
        if n == -1:
            g = 2 * math.pi * math.log(outer / inner)
        else:
            g = 2 * math.pi * (outer ** (2 * n + 2) - inner ** (2 * n + 2)) / (2 * n + 2)
        total += z**n * np.conj(w) ** n / g
    return total


def test_criterion_08_annulus():
    rule = build_quadrature(ANNULUS, 40)
    kernel = kernel_from_gram(LaurentBasis(ANNULUS, -15, 15), unit_weight(ANNULUS), rule)
    rng = np.random.default_rng(17)
    r1 = rng.uniform(0.65, 0.85, 10)
    r2 = rng.uniform(0.65, 0.85, 10)
    th = rng.uniform(0, 2 * np.pi, 10)
    dth = rng.uniform(0.2, 0.8, 10)
    pairs = list(zip(r1 * np.exp(1j * th), r2 * np.exp(1j * (th + dth))))
    series_gap = max(abs(kernel.evaluate(z, w) - laurent_series_kernel(z, w))
                     for z, w in pairs)

    grid = GridSpec(ANNULUS, (128, 256))
    op = discretize(grid, unit_weight(ANNULUS))
    pairs = grid_pairs(grid, 5)
    grid_res = []
    for (z, w), mixed in zip(pairs, solve_mixed(op, pairs)):
        kv = laurent_series_kernel(z, w)
        grid_res.append(abs(kv - (-2.0 / math.pi) * mixed) / abs(kv))
    worst = max(grid_res)
    ok = series_gap < 1e-6 and worst < 0.03
    announce(8, ok, f"annulus: Laurent vs quadrature kernel {series_gap:.2e} < 1e-6, "
                    f"polar grid identity {worst:.4f} < 0.03 at 128x256")
    assert series_gap < 1e-6
    assert worst < 0.03


def test_criterion_09_extremal_function():
    cases = []
    for domain, basis in ((DISK, MonomialBasis(DISK, 25)),
                          (ANNULUS, LaurentBasis(ANNULUS, -12, 12))):
        for weight in (unit_weight(domain), HoloModulusSquaredWeight([2, 1], domain)):
            rule = build_quadrature(domain, 35)
            cases.append((domain, kernel_from_gram(basis, weight, rule), rule))
    worst_phi = worst_norm = 0.0
    for domain, kernel, rule in cases:
        rng = np.random.default_rng(23)
        for t in domain.sample_interior(rng, 20, margin=0.7):
            phi = extremal_function(kernel, t)
            worst_phi = max(worst_phi, abs(phi.value(t) - 1.0))
            # independent quadrature norm of phi against the stored 1/K(t,t)
            quad_norm = integrate(
                rule,
                lambda zs: np.abs(phi.value(zs)) ** 2
                * np.asarray(kernel.weight.value(zs), dtype=complex),
            ).real
            worst_norm = max(worst_norm, abs(quad_norm * kernel.diagonal(t) - 1.0))
            assert phi.norm_sq * kernel.diagonal(t) == pytest.approx(1.0, abs=1e-12)
    ok = worst_phi < 1e-10 and worst_norm < 1e-8
    announce(9, ok, f"extremal functions (disk/annulus, weighted/unweighted): "
                    f"phi(t,t)-1 {worst_phi:.1e} < 1e-10, norm*K-1 {worst_norm:.1e} < 1e-8")
    assert worst_phi < 1e-10
    assert worst_norm < 1e-8


def test_criterion_10_reproducing_property():
    rule = build_quadrature(DISK, 40)
    rng = np.random.default_rng(29)
    ts = DISK.sample_interior(rng, 10, margin=0.7)
    worst = 0.0
    for weight in (unit_weight(DISK), HoloModulusSquaredWeight([2, 1], DISK)):
        kernel = kernel_from_gram(MonomialBasis(DISK, 30), weight, rule)
        for deg in range(11):
            f = lambda z, d=deg: np.asarray(z) ** d
            for t in ts:
                worst = max(worst, reproducing_residual(kernel, f, t, rule))
    ok = worst < 1e-6
    announce(10, ok, f"reproducing property, monomials deg <= 10 at 10 points, "
                     f"weighted and unweighted: {worst:.2e} < 1e-6")
    assert worst < 1e-6


def test_criterion_11_generic_weight_experiment(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "gauge-experiment",
        "seed": 2,
        "domain": {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
        "weight": {"representation": "generic_c1", "name": "exp_abs_sq"},
        "grid": [48, 48],
        "basis_order": 18,
    })
    report = run(cfg, tmp_path)
    finite = all(math.isfinite(r["residual"]) for r in report.records)
    noted = any("not harmonic" in n for n in report.notes)
    ok = report.passed and finite and noted and len(report.records) > 0
    announce(11, ok, f"generic C1 weight exp(|z|^2): run completed, "
                     f"{len(report.records)} finite identity residuals reported, "
                     f"obstruction noted (Laplacian log rho = "
                     f"{report.tables['log_laplacian_residual']:.3f})")
    assert report.passed
    assert finite and noted
    assert (tmp_path / "gauge_identity.csv").exists()


def test_criterion_12_determinism(tmp_path):
    import subprocess
    import sys

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "verify-identity", "seed": 7, "count": 25}))
    for d in ("first", "second"):
        proc = subprocess.run(
            [sys.executable, "-m", "bergreen.cli", "verify-identity",
             "--config", str(cfg_path), "--out", str(tmp_path / d)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "first" / "identity.csv").read_bytes()
    b = (tmp_path / "second" / "identity.csv").read_bytes()
    same_report = ((tmp_path / "first" / "report.json").read_bytes()
                   == (tmp_path / "second" / "report.json").read_bytes())
    ok = a == b and same_report
    announce(12, ok, "two seeded CLI runs produce byte-identical CSV and report output")
    assert a == b
    assert same_report
