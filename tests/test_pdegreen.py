import math

import numpy as np
import pytest
import scipy.sparse as sp

from bergreen import (
    Annulus,
    DiscreteGreen,
    GridSpec,
    LaurentBasis,
    MonomialBasis,
    ParameterError,
    Rectangle,
    WeightError,
    build_quadrature,
    discretize,
    grid_mixed_derivative,
    kernel_from_gram,
    solve_green,
    solve_mixed,
    unit_weight,
)
from bergreen.pdegreen import mid_mask, reference_error
from bergreen.weights import GenericC1Weight, HoloModulusSquaredWeight, LogHarmonicWeight

SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def five_point_laplacian(n, h):
    main = -4.0 * np.ones(n * n)
    ex = np.ones(n * n - 1)
    ex[np.arange(1, n * n) % n == 0] = 0.0
    ey = np.ones(n * (n - 1))
    A = sp.diags([main, ex, ex, ey, ey], [0, 1, -1, n, -n], format="csr")
    return A / h**2


def test_constant_weight_is_quarter_laplacian():
    n = 12
    grid = GridSpec(SQUARE, (n, n))
    op = discretize(grid, unit_weight(SQUARE))
    h = grid.spacing[0]
    want = 0.25 * five_point_laplacian(n, h)
    assert op.matrix.dtype == np.float64
    assert abs(op.matrix - want).max() < 1e-9


def test_constant_weight_matrix_negative_definite():
    grid = GridSpec(SQUARE, (10, 10))
    A = discretize(grid, unit_weight(SQUARE)).matrix.toarray()
    assert np.max(np.abs(A - A.T)) < 1e-12
    assert np.max(np.linalg.eigvalsh(A)) < 0


def test_row_pattern_compact():
    wt = HoloModulusSquaredWeight([-(2 + 2j), 1], SQUARE)
    op = discretize(GridSpec(SQUARE, (16, 16)), wt)
    nnz_per_row = np.diff(op.matrix.indptr)
    assert nnz_per_row.max() <= 9
    ann_op = discretize(GridSpec(Annulus(0.5, 1.0), (16, 32)), unit_weight(Annulus(0.5, 1.0)))
    assert np.diff(ann_op.matrix.indptr).max() <= 9


def test_discretize_rejects_bad_weight():
    neg = GenericC1Weight(
        fn=lambda z: np.real(z) - 0.5,
        domain=SQUARE,
    )
    with pytest.raises(WeightError):
        discretize(GridSpec(SQUARE, (8, 8)), neg)


def test_grid_spec_validation():
    with pytest.raises(ParameterError):
        GridSpec(SQUARE, (4, 8))
    with pytest.raises(ParameterError):
        GridSpec(Annulus(0.5, 1.0), (16, 15))  # odd angular count
    with pytest.raises(ParameterError):
        GridSpec(Annulus(0.5, 1.0), (16, 8))


def test_operator_consistency_order():
    """Applying the matrix to samples of z^2 converges to the symbolic
    operator value with order >= 1.5 for a weight with nonzero rotational part."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    z = x + sympy.I * y
    rho = sympy.exp(2 * x)
    f = z**2
    fz = (sympy.diff(f, x) - sympy.I * sympy.diff(f, y)) / 2
    g = fz / rho
    Pf = (sympy.diff(g, x) + sympy.I * sympy.diff(g, y)) / 2
    pf = sympy.lambdify((x, y), sympy.simplify(Pf), "numpy")

    weight = LogHarmonicWeight([0, 1], SQUARE)  # rho = e^(2 Re z)
    errs = []
    for n in (16, 32, 64):
        grid = GridSpec(SQUARE, (n, n))
        op = discretize(grid, weight)
        pts = grid.interior_points()
        applied = op.apply(pts**2)
        exact = pf(pts.real, pts.imag)
        # rows whose nine-point stencil stays strictly interior
        err = np.abs(applied - exact)[2:-2, 2:-2]
        errs.append(err.max())
    order = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert order >= 1.5


def test_solve_green_reference_convergence():
    errs = []
    for n in (16, 32, 64):
        errs.append(reference_error(SQUARE, unit_weight(SQUARE), n, 0.5 + 0.5j)[0])
    assert errs[-1] < errs[0]
    order = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert order >= 1.2  # the full 32/64/128 sweep is in the acceptance suite


def test_solve_green_snaps_and_reports_source():
    grid = GridSpec(SQUARE, (16, 16))
    op = discretize(grid, unit_weight(SQUARE))
    sol = solve_green(op, 0.49 + 0.52j)
    assert sol.source != 0.49 + 0.52j
    assert abs(sol.source - (0.49 + 0.52j)) < grid.spacing[0]
    assert sol.source_index == grid.snap_index(0.49 + 0.52j)


def test_solve_green_margin_error():
    grid = GridSpec(SQUARE, (16, 16))
    op = discretize(grid, unit_weight(SQUARE))
    with pytest.raises(ParameterError):
        solve_green(op, 0.01 + 0.5j)


def test_solve_green_symmetric_and_real():
    grid = GridSpec(SQUARE, (24, 24))
    op = discretize(grid, unit_weight(SQUARE))
    p, q = 0.3 + 0.3j, 0.7 + 0.6j
    sol_q = solve_green(op, q)
    sol_p = solve_green(op, p)
    assert not np.iscomplexobj(sol_q.values) or np.max(np.abs(sol_q.values.imag)) < 1e-10
    gpq = float(np.real(sol_q.value_at(p)))
    gqp = float(np.real(sol_p.value_at(q)))
    assert abs(gpq - gqp) < 1e-10


def test_weighted_factorization_agreement():
    wt = HoloModulusSquaredWeight([-(2 + 2j), 1], SQUARE)  # mu = z - (2+2i)
    from bergreen import solve_gauge

    gauge = solve_gauge(wt)
    rels = []
    for n in (24, 48):
        grid = GridSpec(SQUARE, (n, n))
        src = grid.node_point(n // 2, n // 2)
        sol_w = solve_green(discretize(grid, wt), src)
        sol_u = solve_green(discretize(grid, unit_weight(SQUARE)), src)
        pts = grid.interior_points()
        predicted = np.asarray(gauge(pts)) * np.conj(complex(gauge(sol_u.source))) * sol_u.values
        mask = mid_mask(grid, src)
        rel = np.abs(sol_w.values - predicted)[mask] / np.abs(predicted)[mask]
        rels.append(rel.max())
    assert rels[-1] < 0.05
    assert rels[-1] < rels[0]


def test_grid_mixed_derivative_bilinear_injection():
    grid = GridSpec(SQUARE, (16, 16))
    op = discretize(grid, unit_weight(SQUARE))
    i0, j0 = 8, 8
    pts = grid.interior_points()

    def fake(idx):
        w = grid.node_point(*idx)
        return DiscreteGreen(operator=op, source=w, source_index=idx,
                             values=pts * np.conj(w))

    center = fake((i0, j0))
    shifts = [fake((i0 + 1, j0)), fake((i0 - 1, j0)), fake((i0, j0 + 1)), fake((i0, j0 - 1))]
    got = grid_mixed_derivative(center, grid.node_point(5, 10), shifts)
    assert abs(got - 1.0) < 1e-10


def test_grid_mixed_derivative_missing_shift():
    grid = GridSpec(SQUARE, (16, 16))
    op = discretize(grid, unit_weight(SQUARE))
    center = solve_green(op, grid.node_point(8, 8))
    only_two = [solve_green(op, grid.node_point(9, 8)), solve_green(op, grid.node_point(7, 8))]
    with pytest.raises(ParameterError, match="missing"):
        grid_mixed_derivative(center, 0.3 + 0.3j, only_two)


def test_square_identity_against_quadrature_kernel():
    rule = build_quadrature(SQUARE, 40)
    kernel = kernel_from_gram(MonomialBasis(SQUARE, 24), unit_weight(SQUARE), rule)
    grid = GridSpec(SQUARE, (64, 64))
    op = discretize(grid, unit_weight(SQUARE))
    z, w = grid.node_point(21, 21), grid.node_point(42, 42)
    mixed = solve_mixed(op, z, w)
    kv = kernel.evaluate(z, w)
    assert abs(kv - (-2 / math.pi) * mixed) / abs(kv) < 0.05


def test_annulus_identity_against_laurent_kernel():
    ann = Annulus(0.5, 1.0)
    rule = build_quadrature(ann, 40)
    kernel = kernel_from_gram(LaurentBasis(ann, -15, 15), unit_weight(ann), rule)
    grid = GridSpec(ann, (64, 128))
    op = discretize(grid, unit_weight(ann))
    z = grid.node_point(32, 10)
    w = grid.node_point(36, 20)  # about 28 degrees away
    mixed = solve_mixed(op, z, w)
    kv = kernel.evaluate(z, w)
    assert abs(kv - (-2 / math.pi) * mixed) / abs(kv) < 0.05


def test_weighted_factorization_on_annulus():
    # exercises the polar rotational stencil, which vanishes for rho = 1
    ann = Annulus(0.5, 1.0)
    wt = HoloModulusSquaredWeight([2, 1], ann)
    from bergreen import solve_gauge

    gauge = solve_gauge(wt)
    rels = []
    for n in (24, 48):
        grid = GridSpec(ann, (n, 2 * n))
        src = grid.node_point(n // 2, n // 3)
        sol_w = solve_green(discretize(grid, wt), src)
        sol_u = solve_green(discretize(grid, unit_weight(ann)), src)
        pts = grid.interior_points()
        predicted = np.asarray(gauge(pts)) * np.conj(complex(gauge(sol_u.source))) * sol_u.values
        mask = mid_mask(grid, src)
        rels.append(float(np.max(np.abs(sol_w.values - predicted)[mask]
                                 / np.abs(predicted)[mask])))
    assert rels[-1] < 0.05
    assert rels[-1] < rels[0]


def test_unit_weight_solution_is_real():
    ann = Annulus(0.5, 1.0)
    op = discretize(GridSpec(ann, (16, 32)), unit_weight(ann))
    sol = solve_green(op, 0.75)
    assert not np.iscomplexobj(sol.values)
