import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bergreen import (
    Annulus,
    GridSpec,
    LaurentBasis,
    MonomialBasis,
    ParameterError,
    Rectangle,
    WeightError,
    build_quadrature,
    discretize,
    kernel_from_gram,
    solve_green,
    solve_mixed,
    unit_weight,
)
from bergreen.pdegreen import (
    REFINEMENT_MAX_STEPS,
    REFINEMENT_TOLERANCE,
    _assemble,
    _full_weight_grid,
    _transform_solver,
    grid_pairs,
    mid_mask,
    reference_error,
)
from bergreen.weights import (
    GENERIC_BUILTINS,
    GenericC1Weight,
    HoloModulusSquaredWeight,
    LogHarmonicWeight,
)

SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def value_at(sol, z):
    """A discrete Green's function at the node nearest to z."""
    return sol.values[sol.grid.snap_index(z)]


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


@pytest.mark.parametrize("domain, shape", [
    (SQUARE, lambda n: (n, n)),
    (Annulus(0.5, 1.0), lambda n: (n, 2 * n)),
], ids=["square", "annulus"])
def test_operator_consistency_order(domain, shape):
    """Applying the matrix to samples of z^2 converges to the symbolic
    operator value with order >= 1.5 for a weight with nonzero rotational
    part, on both geometries of the one stencil formula."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    z = x + sympy.I * y
    rho = sympy.exp(2 * x)
    f = z**2
    fz = (sympy.diff(f, x) - sympy.I * sympy.diff(f, y)) / 2
    g = fz / rho
    Pf = (sympy.diff(g, x) + sympy.I * sympy.diff(g, y)) / 2
    pf = sympy.lambdify((x, y), sympy.simplify(Pf), "numpy")

    weight = LogHarmonicWeight([0, 1], domain)  # rho = e^(2 Re z)
    errs = []
    for n in (16, 32, 64):
        grid = GridSpec(domain, shape(n))
        op = discretize(grid, weight)
        pts = grid.interior_points()
        applied = op.apply((pts**2).ravel()).reshape(grid.shape)
        exact = pf(pts.real, pts.imag)
        # rows whose nine-point stencil stays strictly interior; the angular
        # axis of an annulus is periodic, so all of its columns count
        cols = slice(None) if grid.is_polar else slice(2, -2)
        err = np.abs(applied - exact)[2:-2, cols]
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
    gpq = float(np.real(value_at(sol_q, p)))
    gqp = float(np.real(value_at(sol_p, q)))
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


ANNULUS = Annulus(0.5, 1.0)

# rho = |z + 2|^2 (a complex matrix), unit weight, and a weight with no gauge
HERMITIAN_CASES = {
    "square-|z+2|^2": (GridSpec(SQUARE, (16, 16)), HoloModulusSquaredWeight([2, 1], SQUARE)),
    "annulus-unit": (GridSpec(ANNULUS, (12, 32)), unit_weight(ANNULUS)),
    "annulus-|z+2|^2": (GridSpec(ANNULUS, (12, 32)), HoloModulusSquaredWeight([2, 1], ANNULUS)),
    "square-exp_abs_sq": (GridSpec(SQUARE, (16, 16)), GENERIC_BUILTINS["exp_abs_sq"](SQUARE)),
    "annulus-exp_abs_sq": (GridSpec(ANNULUS, (12, 32)), GENERIC_BUILTINS["exp_abs_sq"](ANNULUS)),
}


@pytest.mark.parametrize("case", sorted(HERMITIAN_CASES))
def test_scaled_operator_is_hermitian_and_green_reciprocal(case):
    # solve_mixed rests on H = D A being Hermitian (D = I on rectangles,
    # diag(r) on annuli), so that G_h(z, w) = conj(G_h(w, z))
    grid, weight = HERMITIAN_CASES[case]
    op = discretize(grid, weight)
    radii = grid.axes[0][1:-1] if grid.is_polar else np.ones(grid.shape[0])
    H = sp.diags(np.repeat(radii, grid.shape[1])) @ op.matrix
    assert spla.norm(H - H.conj().T) <= 1e-14 * spla.norm(H)

    z, w = grid.node_point(4, 5), grid.node_point(7, 11)
    g_w, g_z = solve_green(op, w), solve_green(op, z)
    scale = max(np.max(np.abs(g_w.values)), np.max(np.abs(g_z.values)))
    assert abs(value_at(g_w, z) - np.conj(value_at(g_z, w))) <= 1e-12 * scale


# rectangles and annuli, real and complex operators, constant and
# non-constant weights; on annuli the angular wrap reorders the columns of
# the first and last angular nodes
STENCIL_CASES = {
    **HERMITIAN_CASES,
    "square-unit": (GridSpec(SQUARE, (12, 12)), unit_weight(SQUARE)),
    "rectangle-rho9": (GridSpec(Rectangle(-1.0, 2.0, 0.0, 0.5), (9, 13)),
                       HoloModulusSquaredWeight([3], Rectangle(-1.0, 2.0, 0.0, 0.5))),
    "annulus-16-e^(2x)": (GridSpec(Annulus(0.3, 2.0), (10, 16)),
                          LogHarmonicWeight([0, 1], Annulus(0.3, 2.0))),
}


def coo_matrix_oracle(grid, weight):
    """The operator assembled from COO triplets, one masked block per stencil
    offset, then converted to CSR with duplicates summed."""
    div_entries, rot_entries = _assemble(grid, _full_weight_grid(grid, weight))
    n1, n2 = grid.shape
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    rotational = any(np.max(np.abs(v)) > 0 for v in rot_entries.values())
    dtype = complex if rotational else float
    rows, cols, data = [], [], []
    entries = [(o, c, 0.25) for o, c in div_entries.items()]
    if rotational:
        entries += [(o, c, 0.25j) for o, c in rot_entries.items()]
    for (d1, d2), coeff, scale in entries:
        ti, tj = ii + d1, jj + d2
        mask = (ti >= 0) & (ti < n1) & (grid.is_polar | ((tj >= 0) & (tj < n2)))
        rows.append((ii * n2 + jj)[mask])
        cols.append((ti * n2 + tj % n2)[mask])
        data.append((scale * coeff)[mask].astype(dtype))
    matrix = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(n1 * n2, n1 * n2)).tocsr()
    matrix.sum_duplicates()
    return matrix


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
def test_matrix_matches_coo_assembly_bytes(case):
    grid, weight = STENCIL_CASES[case]
    got, want = discretize(grid, weight).matrix, coo_matrix_oracle(grid, weight)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
def test_apply_matches_matrix_product(case):
    grid, weight = STENCIL_CASES[case]
    op = discretize(grid, weight)
    assert op.dtype == op.matrix.dtype
    rng = np.random.default_rng(3)
    for x in (rng.standard_normal(op.size), rng.standard_normal((op.size, 3)),
              rng.standard_normal((op.size, 2)) + 1j * rng.standard_normal((op.size, 2))):
        got, want = op.apply(x), op.matrix @ x
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_constant_weight_never_builds_the_matrix():
    for grid, weight in (STENCIL_CASES["square-unit"], HERMITIAN_CASES["annulus-unit"]):
        op = discretize(grid, weight)
        sol = solve_green(op, grid.node_point(4, 5))
        solve_mixed(op, grid_pairs(grid, 2))
        assert sol.solve_stats["method"] == "transform" and "matrix" not in vars(op)


def five_solve_mixed(op, z, w):
    """Reference d^2 G_h / dz d(conj w): d/dz inside the fields of four
    solves whose sources are the axis neighbours of w, d/d(conj w) across them."""
    grid = op.grid
    n2 = grid.shape[1]
    h1, h2 = grid.spacing

    def gradient(f, idx):
        i, j = idx
        d1 = (f(i + 1, j) - f(i - 1, j)) / (2 * h1)
        d2 = (f(i, (j + 1) % n2) - f(i, (j - 1) % n2)) / (2 * h2)
        if not grid.is_polar:
            return d1, d2
        p = grid.node_point(i, j)
        r, th = abs(p), math.atan2(p.imag, p.real)
        return (math.cos(th) * d1 - math.sin(th) / r * d2,
                math.sin(th) * d1 + math.cos(th) / r * d2)

    def dz_of_green(i, j):
        values = solve_green(op, grid.node_point(i, j)).values
        ux, uy = gradient(lambda a, b: values[a, b], grid.snap_index(z))
        return 0.5 * (ux - 1j * uy)

    ux, uy = gradient(dz_of_green, grid.snap_index(w))
    return 0.5 * (ux + 1j * uy)


@pytest.mark.parametrize("grid, weight", [
    (GridSpec(SQUARE, (24, 24)), HoloModulusSquaredWeight([-(2 + 2j), 1], SQUARE)),
    (GridSpec(ANNULUS, (16, 32)), unit_weight(ANNULUS)),
    (GridSpec(ANNULUS, (16, 32)), HoloModulusSquaredWeight([2, 1], ANNULUS)),
], ids=["square-complex", "annulus-real", "annulus-complex"])
def test_solve_mixed_matches_five_solve_oracle(grid, weight):
    op = discretize(grid, weight)
    pairs = grid_pairs(grid, 5)
    want = np.array([five_solve_mixed(op, z, w) for z, w in pairs])
    for batch, ref in ((pairs, want), (pairs[2:3], want[2:3])):
        got = solve_mixed(op, batch)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def test_solve_mixed_margin_error():
    grid = GridSpec(SQUARE, (16, 16))
    op = discretize(grid, unit_weight(SQUARE))
    inner, edge = grid.node_point(8, 8), grid.node_point(0, 8)
    assert solve_mixed(op, [(grid.node_point(1, 8), grid.node_point(8, 14))]).shape == (1,)
    for pair in ((edge, inner), (inner, edge)):
        with pytest.raises(ParameterError, match="closer than two cells"):
            solve_mixed(op, [(inner, inner), pair])


def test_square_identity_against_quadrature_kernel():
    rule = build_quadrature(SQUARE, 40)
    kernel = kernel_from_gram(MonomialBasis(SQUARE, 24), unit_weight(SQUARE), rule)
    grid = GridSpec(SQUARE, (64, 64))
    op = discretize(grid, unit_weight(SQUARE))
    z, w = grid.node_point(21, 21), grid.node_point(42, 42)
    (mixed,) = solve_mixed(op, [(z, w)])
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
    (mixed,) = solve_mixed(op, [(z, w)])
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


# constant weights: rho = 9 on a 3 x 0.5 rectangle and rho = 1 on a square and
# an annulus; weights with a gauge: rho = |mu|^2 on a square, the rectangle and
# an annulus, and rho = exp(2 Re H) with H = 3i z^2
THIN = Rectangle(-1.0, 2.0, 0.0, 0.5)
TRANSFORM_CASES = {
    "rectangle-rho9": (GridSpec(THIN, (40, 70)), HoloModulusSquaredWeight([3], THIN)),
    "square-64": (GridSpec(SQUARE, (64, 64)), unit_weight(SQUARE)),
    "annulus": (GridSpec(Annulus(0.3, 2.0), (50, 64)), unit_weight(Annulus(0.3, 2.0))),
    "square-|z+2|^2": (GridSpec(SQUARE, (64, 64)), HoloModulusSquaredWeight([2, 1], SQUARE)),
    "rectangle-|z+2|^2": (GridSpec(THIN, (90, 30)), HoloModulusSquaredWeight([2, 1], THIN)),
    "annulus-|z+1.2|^2": (GridSpec(ANNULUS, (32, 64)), HoloModulusSquaredWeight([1.2, 1], ANNULUS)),
    "square-log_harmonic": (GridSpec(SQUARE, (48, 48)), LogHarmonicWeight([0, 0, 3j], SQUARE)),
}


def backward_error(op, b, x):
    """max over columns of ||D^-1 r|| / (||D^-1 A|| ||x|| + ||D^-1 b||) in the
    max norm, D = |diag A|, with ||D^-1 A|| from the CSR matrix; r = b - A x
    by ``apply``, whose rounding the solver's own figure shares."""
    d = np.abs(op.matrix.diagonal())[:, None]
    a_norm = np.max(abs(op.matrix).sum(axis=1).A1 / d[:, 0])
    r = np.reshape(b - op.apply(x), (op.size, -1))
    b, x = np.reshape(b, (op.size, -1)), np.reshape(x, (op.size, -1))
    scale = a_norm * np.max(np.abs(x), axis=0) + np.max(np.abs(b) / d, axis=0)
    return np.max(np.max(np.abs(r) / d, axis=0) / scale)


def no_lu(*args, **kwargs):
    raise AssertionError("a converging transform solve must not factor")


@pytest.mark.parametrize("case", sorted(TRANSFORM_CASES))
def test_transform_solve_matches_sparse_lu(case, monkeypatch):
    grid, weight = TRANSFORM_CASES[case]
    op = discretize(grid, weight)
    rho = np.real(weight.value(grid.interior_points())).ravel()
    constant = np.all(rho == rho[0])
    assert op.method == "transform" and isinstance(op.gauge, float) == constant
    assert np.max(np.abs(np.abs(op.gauge) ** 2 / rho - 1)) < 1e-14
    rng = np.random.default_rng(7)
    rhs = [rng.standard_normal(op.size), rng.standard_normal((op.size, 3)),
           rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size),
           rng.standard_normal((op.size, 3)) + 1j * rng.standard_normal((op.size, 3))]
    # SuperLU takes no complex right-hand side for a real matrix, so its
    # reference solves the real and imaginary parts apart
    lu = spla.splu(op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    if np.isrealobj(op.matrix.data):
        refs = [lu.solve(b.real) + 1j * lu.solve(b.imag) if np.iscomplexobj(b) else lu.solve(b)
                for b in rhs]
    else:
        refs = [lu.solve(b.astype(complex)) for b in rhs]

    monkeypatch.setattr(spla, "splu", no_lu)
    for b, ref in zip(rhs, refs):
        stats = {}
        got = op.solve(b, stats)
        assert got.shape == b.shape and got.dtype == np.result_type(op.dtype, b.dtype)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert stats["method"] == "transform"
        assert stats["refinement_steps"] == 1 if constant else \
            1 <= stats["refinement_steps"] <= REFINEMENT_MAX_STEPS
        assert stats["backward_error"] == pytest.approx(backward_error(op, b, got), rel=1e-12)
        assert stats["backward_error"] <= REFINEMENT_TOLERANCE


def test_transform_solver_is_freed_without_the_cycle_collector():
    # a solver in a reference cycle would keep its DST matrix and elimination
    # factors alive until the cyclic garbage collector runs
    gc.disable()
    try:
        for grid in (GridSpec(SQUARE, (16, 16)), GridSpec(Annulus(0.5, 1.0), (8, 16))):
            solver = _transform_solver(grid)
            solver(np.ones(grid.shape[0] * grid.shape[1], dtype=complex))
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
    finally:
        gc.enable()


def test_smooth_right_hand_side_stays_on_the_transform_path(monkeypatch):
    # relative residuals ||b - A x|| / ||b|| level off above 1e-14 here (b = 1
    # at 3e-13 on the 128^2 square, a point source at 256^2 at 1.3e-14); the
    # backward error levels off at about 2e-16
    z2 = HoloModulusSquaredWeight([2, 1], SQUARE)
    monkeypatch.setattr(spla, "splu", no_lu)
    for grid, weight in ((GridSpec(SQUARE, (128, 128)), z2), TRANSFORM_CASES["square-log_harmonic"]):
        stats = {}
        discretize(grid, weight).solve(np.ones(grid.shape[0] * grid.shape[1]), stats)
        assert stats["method"] == "transform" and stats["backward_error"] <= REFINEMENT_TOLERANCE
    for weight in (z2, unit_weight(SQUARE)):
        stats = solve_green(discretize(GridSpec(SQUARE, (256, 256)), weight), 0.5 + 0.5j).solve_stats
        assert stats["method"] == "transform" and stats["backward_error"] <= REFINEMENT_TOLERANCE


def test_non_constant_weight_takes_sparse_lu():
    grid = GridSpec(SQUARE, (16, 16))
    gauge_steps = range(1, REFINEMENT_MAX_STEPS + 1)
    for weight, method, steps in ((GENERIC_BUILTINS["exp_abs_sq"](SQUARE), "sparse_lu", {0}),
                                  (HoloModulusSquaredWeight([2, 1], SQUARE), "transform", gauge_steps),
                                  (unit_weight(SQUARE), "transform", {1})):
        op = discretize(grid, weight)
        assert op.method == method and (op.gauge is None) == (method == "sparse_lu")
        stats = solve_green(op, 0.5 + 0.5j).solve_stats
        assert stats["method"] == method and stats["unknowns"] == op.size
        assert stats["backward_error"] <= REFINEMENT_TOLERANCE and stats["refinement_steps"] in steps


def test_grid_identity_square_converges_in_six_steps():
    # the square of the pde-green identity benchmark; a wrong gauge
    # (conj mu for mu) still converges, but takes 17 steps
    grid = GridSpec(SQUARE, (128, 128))
    op = discretize(grid, HoloModulusSquaredWeight([2, 1], SQUARE))
    stats = {}
    solve_mixed(op, grid_pairs(grid, 5), stats)
    assert stats["method"] == "transform" and stats["refinement_steps"] <= 6
    assert stats["backward_error"] <= REFINEMENT_TOLERANCE and stats["unknowns"] == 128 * 128


NEAR_ROOT = (GridSpec(SQUARE, (32, 32)), HoloModulusSquaredWeight([0.005, 1], SQUARE))


@pytest.mark.parametrize("case", ["stalls", "grows", "overflows"])
def test_stalling_gauge_falls_back_to_sparse_lu(case):
    # with 1/mu for mu the refinement contracts by only about 0.97 a step on
    # the square, grows about 400-fold a step on the annulus, and with a root
    # of mu 0.005 off the square would overflow within 30 steps (an error
    # under this suite's warning filter); each time the LU must solve
    grid, weight = {"stalls": TRANSFORM_CASES["square-|z+2|^2"],
                    "grows": TRANSFORM_CASES["annulus-|z+1.2|^2"], "overflows": NEAR_ROOT}[case]
    op = discretize(grid, weight)
    wrong = dataclasses.replace(op, gauge=1.0 / op.gauge)
    b = np.random.default_rng(3).standard_normal((op.size, 2)) + 0j
    stats = {}
    got = wrong.solve(b, stats)
    assert stats["method"] == "sparse_lu" and stats["refinement_steps"] == 0
    assert stats["backward_error"] <= REFINEMENT_TOLERANCE
    assert np.max(np.abs(got - op.solve(b))) <= 1e-12 * np.max(np.abs(got))


def test_unit_weight_solution_is_real():
    ann = Annulus(0.5, 1.0)
    op = discretize(GridSpec(ann, (16, 32)), unit_weight(ann))
    sol = solve_green(op, 0.75)
    assert not np.iscomplexobj(sol.values)
