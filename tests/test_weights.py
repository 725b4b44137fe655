import math

import numpy as np
import pytest

from bergreen import (
    Annulus,
    Disk,
    GaugeInfeasibleError,
    GenericC1Weight,
    HoloModulusSquaredWeight,
    LogHarmonicWeight,
    ParameterError,
    UnitDisk,
    WeightError,
    build_quadrature,
    check_log_harmonic,
    solve_gauge,
    unit_weight,
    weight_from_json,
)
from bergreen.weights import GENERIC_BUILTINS

DISK = UnitDisk()


def test_holo_weight_rejects_roots_near_closure():
    with pytest.raises(WeightError):
        HoloModulusSquaredWeight([-0.5, 1], DISK)  # root at 0.5, inside
    with pytest.raises(WeightError):
        HoloModulusSquaredWeight([-1.0, 1], DISK)  # root on the boundary
    # a root in the hole of an annulus is outside the closure
    HoloModulusSquaredWeight([0, 1], Annulus(0.5, 1.0))
    with pytest.raises(WeightError):
        HoloModulusSquaredWeight([0, 1], DISK)


def test_representation_consistency():
    w = HoloModulusSquaredWeight([2, 1], DISK)
    rng = np.random.default_rng(5)
    zs = DISK.sample_interior(rng, 50, margin=0.95)
    assert np.max(np.abs(w.value(zs) - np.abs(zs + 2) ** 2)) < 1e-14


def test_check_log_harmonic_values():
    # interior rule keeps the stencil away from the weight's root at -2
    rule = build_quadrature(Disk(0, 0.7), 16)
    w = HoloModulusSquaredWeight([2, 1], DISK)
    assert check_log_harmonic(w, rule, 1e-3).max_abs_laplacian <= 1e-6
    lh = LogHarmonicWeight([0, 1], DISK)
    assert check_log_harmonic(lh, rule, 1e-3).max_abs_laplacian <= 1e-6
    wexp = GENERIC_BUILTINS["exp_abs_sq"](DISK)
    res = check_log_harmonic(wexp, rule, 1e-3)
    assert res.max_abs_laplacian == pytest.approx(4.0, abs=1e-5)


def test_check_log_harmonic_skips_boundary_nodes():
    rule = build_quadrature(DISK, 12)
    res = check_log_harmonic(unit_weight(DISK), rule, fd_step=0.05)
    assert res.nodes_skipped > 0
    assert res.nodes_checked + res.nodes_skipped == len(rule.nodes)


def test_solve_gauge_constant():
    g = solve_gauge(unit_weight(DISK))
    assert np.array_equal(g.conj_coefficients, np.array([1.0 + 0j]))
    assert g(0.3 + 0.2j) == 1.0
    assert g.h(0.3 + 0.2j) == 0.0


def test_solve_gauge_linear_and_square():
    w = HoloModulusSquaredWeight([2, 1], DISK)
    g = solve_gauge(w)
    assert np.array_equal(g.conj_coefficients, np.array([2.0 + 0j, 1.0 + 0j]))
    # g(w) = conj(w) + 2
    assert g(1j) == pytest.approx(2 - 1j, abs=1e-15)

    w2 = HoloModulusSquaredWeight([4, 4, 1], DISK)  # mu = (z + 2)^2
    g2 = solve_gauge(w2)
    assert np.array_equal(g2.conj_coefficients, np.array([4.0 + 0j, 4.0 + 0j, 1.0 + 0j]))
    nodes = build_quadrature(Disk(0, 0.8), 10).nodes[:50]
    res = g2.system_residuals(nodes)
    assert res["max_dw"] < 1e-8
    assert res["max_ratio"] < 1e-8


def test_gauge_system_residuals_and_decomposition():
    nodes = build_quadrature(Disk(0, 0.8), 10).nodes[:50]
    for w in (HoloModulusSquaredWeight([2, 1], DISK), LogHarmonicWeight([0.1, 0.5], DISK)):
        g = solve_gauge(w)
        res = g.system_residuals(nodes)
        assert res["max_dw"] < 1e-8
        assert res["max_ratio"] < 1e-8
        # |g| = rho * exp(Re h) pointwise
        assert g.decomposition_residual(nodes) < 1e-10


def test_solve_gauge_rejects_non_log_harmonic():
    wexp = GENERIC_BUILTINS["exp_abs_sq"](DISK)
    with pytest.raises(GaugeInfeasibleError) as err:
        solve_gauge(wexp)
    assert err.value.residual == pytest.approx(4.0, abs=1e-4)


def test_solve_gauge_generic_log_harmonic_needs_reexpression():
    w = GenericC1Weight(
        fn=lambda z: np.abs(z + 2) ** 2,
        domain=DISK,
        name="shifted_abs_sq",
    )
    with pytest.raises(ParameterError, match="re-express"):
        solve_gauge(w)


def test_weight_serialization_round_trip():
    # hand-written config specs of all three representations, [re, im] coefficients
    w = weight_from_json({"representation": "holo_modulus_squared",
                          "coefficients": [[2, 0], [0, 1]]}, DISK)
    assert isinstance(w, HoloModulusSquaredWeight) and w.domain == DISK
    assert np.array_equal(w.mu_coefficients, [2, 1j])
    # the representation defaults to holo_modulus_squared
    default = weight_from_json({"coefficients": [[3, -1]]}, DISK)
    assert np.array_equal(default.mu_coefficients, [3 - 1j])

    lh = weight_from_json({"representation": "log_harmonic",
                           "coefficients": [[0.5, 0], [1, 0.25]]}, DISK)
    assert isinstance(lh, LogHarmonicWeight)
    assert np.array_equal(lh.h_coefficients, [0.5, 1 + 0.25j])

    gen = weight_from_json({"representation": "generic_c1", "name": "exp_abs_sq"}, DISK)
    assert isinstance(gen, GenericC1Weight) and gen.name == "exp_abs_sq"
    assert gen.value(0.5j) == pytest.approx(math.exp(0.25), rel=1e-15)
    with pytest.raises(ParameterError, match="unknown generic weight"):
        weight_from_json({"representation": "generic_c1", "name": "nope"}, DISK)
    with pytest.raises(ParameterError, match="unknown weight representation"):
        weight_from_json({"representation": "spline"}, DISK)
