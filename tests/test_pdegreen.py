import dataclasses
import gc
import math
import tracemalloc
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
from bergreen import pdegreen
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



def offset_loop_apply(op, x):
    """The operator times x of shape (size, m) by the arithmetic of
    DiscreteOperator.apply, with the m columns as the innermost axis: one
    slice of the (n1, n2, m) block per offset and per wrap of the angle."""
    n1, n2 = op.grid.shape
    nodes = x.reshape(n1, n2, -1)
    out = np.zeros(nodes.shape, dtype=np.result_type(op.dtype, x.dtype))

    def shifted(d, n, periodic):
        main = (slice(max(-d, 0), n - max(d, 0)), slice(max(d, 0), n - max(-d, 0)))
        wrap = (slice(n - 1, n), slice(0, 1)) if d > 0 else (slice(0, 1), slice(n - 1, n))
        return [main, wrap] if periodic and d else [main]

    for (d1, d2), coeff in op.stencil.items():
        coeff = np.broadcast_to(coeff, (n1, n2))[:, :, None]
        (r_out, r_in), = shifted(d1, n1, False)
        for c_out, c_in in shifted(d2, n2, op.grid.is_polar):
            out[r_out, c_out] += coeff[r_out, c_out] * nodes[r_in, c_in]
    return out.reshape(x.shape)


@pytest.mark.parametrize("case", sorted(STENCIL_CASES))
def test_apply_does_not_depend_on_the_block_layout(case):
    # each column is applied as one contiguous row, so a C-ordered block, an
    # F-ordered one and each column alone give the same bytes, masked terms
    # and the annulus wrap included, and the bytes of the same arithmetic
    # run over the block with its columns innermost
    grid, weight = STENCIL_CASES[case]
    op = discretize(grid, weight)
    rng = np.random.default_rng(4)
    for x in (rng.standard_normal((op.size, 3)),
              rng.standard_normal((op.size, 2)) + 1j * rng.standard_normal((op.size, 2))):
        want = offset_loop_apply(op, x)
        assert np.max(np.abs(want - op.matrix @ x)) <= 1e-14 * np.max(np.abs(want))
        blocks = [op.apply(x), op.apply(np.asfortranarray(x))]
        blocks.append(np.stack([op.apply(x[:, k]) for k in range(x.shape[1])], axis=1))
        for got in blocks:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

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


def dense_solve(op, b, stats=None):
    """``op.solve`` of dense right-hand sides, b of shape (size,) or (size, m):
    each column as size point sources, one at every node, and the solution
    in the shape of b."""
    columns = np.reshape(b, (op.size, -1)).T
    nodes = np.broadcast_to(np.arange(op.size), columns.shape)
    return op.solve(nodes, columns, stats).T.reshape(np.shape(b))


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
        got = dense_solve(op, b, stats)
        assert got.shape == b.shape and got.dtype == np.result_type(op.dtype, b.dtype)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert stats["method"] == "transform"
        assert stats["refinement_steps"] == 0 if constant else \
            1 <= stats["refinement_steps"] <= REFINEMENT_MAX_STEPS
        assert stats["backward_error"] == pytest.approx(backward_error(op, b, got), rel=1e-12)
        assert stats["backward_error"] <= REFINEMENT_TOLERANCE


@pytest.mark.parametrize("case", ["square-64", "square-|z+2|^2", "annulus-|z+1.2|^2"])
def test_refinement_precision_follows_the_gauge_and_commutes_with_powers_of_two(case, monkeypatch):
    # a gauge that varies runs T_1 in float32, whose range ends near 2^128;
    # each row is scaled by a power of two from its peak before the cast, so
    # the solve commutes with 2^k bit for bit, also for k outside that range
    grid, weight = TRANSFORM_CASES[case]
    op = discretize(grid, weight)
    built, transform_solver = [], pdegreen._transform_solver
    monkeypatch.setattr(pdegreen, "_transform_solver",
                        lambda grid, dtype: built.append(np.dtype(dtype)) or transform_solver(grid, dtype))
    monkeypatch.setattr(spla, "splu", no_lu)
    rng = np.random.default_rng(11)
    b = rng.standard_normal((op.size, 2)) + 1j * rng.standard_normal((op.size, 2))
    stats = {}
    x = dense_solve(op, b, stats)
    for k in (200, -200):
        scaled = {}
        assert np.array_equal(dense_solve(op, b * 2.0**k, scaled), 2.0**k * x), k
        assert scaled == stats
    assert built == [np.dtype(np.float64 if isinstance(op.gauge, float) else np.float32)] * 3


def test_transform_solver_is_freed_without_the_cycle_collector():
    # a solver in a reference cycle would keep its DST matrix and elimination
    # factors alive until the cyclic garbage collector runs
    gc.disable()
    try:
        for grid in (GridSpec(SQUARE, (16, 16)), GridSpec(Annulus(0.5, 1.0), (8, 16))):
            solver = _transform_solver(grid)
            solver(np.ones((1, grid.shape[0] * grid.shape[1]), dtype=complex))
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
    finally:
        gc.enable()


# rectangles with unequal spacings, wide and tall, whose axes need a sine
# table each, and a square, whose axes share one
RECTANGLE_SOLVER_GRIDS = {"thin-40x70": GridSpec(THIN, (40, 70)), "thin-90x30": GridSpec(THIN, (90, 30)),
                          "square-64": GridSpec(SQUARE, (64, 64))}


@pytest.mark.parametrize("case", sorted(RECTANGLE_SOLVER_GRIDS))
def test_rectangle_transform_solver_matches_direct_solve(case, monkeypatch):
    grid = RECTANGLE_SOLVER_GRIDS[case]
    n1, n2 = grid.shape
    built, sine_table = [], pdegreen._sine_table
    monkeypatch.setattr(pdegreen, "_sine_table", lambda n: built.append(n) or sine_table(n))
    solver = _transform_solver(grid)
    assert sorted(built) == sorted({n1, n2})
    lu = spla.splu(discretize(grid, unit_weight(grid.domain)).matrix.tocsc())
    rng = np.random.default_rng(5)
    for shape in ((1, n1 * n2), (3, n1 * n2)):  # one right-hand side per row
        for b in (rng.standard_normal(shape), rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            ref = (lu.solve(b.real.T) + 1j * lu.solve(b.imag.T) if np.iscomplexobj(b) else lu.solve(b.T)).T
            got = solver(b)
            assert got.shape == b.shape and got.dtype == b.dtype
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # symmetric, as a preconditioner for conjugate gradients must be
    u, v = rng.standard_normal((2, n1 * n2))
    tu, tv = solver(np.stack([u, v]))
    assert abs(u @ tv - v @ tu) <= 1e-14 * (np.abs(u) @ np.abs(tv))


def test_smooth_right_hand_side_stays_on_the_transform_path(monkeypatch):
    # relative residuals ||b - A x|| / ||b|| level off above 1e-14 here (b = 1
    # at 3e-13 on the 128^2 square, a point source at 256^2 at 1.3e-14); the
    # backward error levels off at about 2e-16
    z2 = HoloModulusSquaredWeight([2, 1], SQUARE)
    monkeypatch.setattr(spla, "splu", no_lu)
    for grid, weight in ((GridSpec(SQUARE, (128, 128)), z2), TRANSFORM_CASES["square-log_harmonic"]):
        stats = {}
        dense_solve(discretize(grid, weight), np.ones(grid.shape[0] * grid.shape[1]), stats)
        assert stats["method"] == "transform" and stats["backward_error"] <= REFINEMENT_TOLERANCE
    for weight in (z2, unit_weight(SQUARE)):
        stats = solve_green(discretize(GridSpec(SQUARE, (256, 256)), weight), 0.5 + 0.5j).solve_stats
        assert stats["method"] == "transform" and stats["backward_error"] <= REFINEMENT_TOLERANCE


def test_solve_method_follows_the_weight():
    grid = GridSpec(SQUARE, (16, 16))
    gauge_steps = range(1, REFINEMENT_MAX_STEPS + 1)
    for weight, method, steps in ((GENERIC_BUILTINS["exp_abs_sq"](SQUARE), "sparse_lu", {0}),
                                  (HoloModulusSquaredWeight([2, 1], SQUARE), "transform", gauge_steps),
                                  (unit_weight(SQUARE), "transform", {0})):
        op = discretize(grid, weight)
        assert op.method == method and (op.gauge is None) == (method == "sparse_lu")
        stats = solve_green(op, 0.5 + 0.5j).solve_stats
        assert stats["method"] == method and stats["unknowns"] == op.size
        assert stats["backward_error"] <= REFINEMENT_TOLERANCE and stats["refinement_steps"] in steps


def test_constant_weight_corrects_a_transform_answer_that_misses_the_gate(monkeypatch):
    # T_1 is the exact inverse for a constant weight, and its own answer is
    # accepted where it passes the gate (the constant cases above); random
    # columns on the 256^2 square miss the gate and take one correction
    op = discretize(GridSpec(SQUARE, (256, 256)), unit_weight(SQUARE))
    b = np.random.default_rng(7).standard_normal((op.size, 3))
    monkeypatch.setattr(spla, "splu", no_lu)
    stats = {}
    dense_solve(op, b, stats)
    assert stats["method"] == "transform" and stats["refinement_steps"] == 1
    assert stats["backward_error"] <= REFINEMENT_TOLERANCE


@pytest.mark.parametrize("mu", [1.0, 3.0])
def test_constant_weight_gates_the_transform_answer(mu, monkeypatch):
    # a point source takes no correction, but a T_1 whose answer is off by a
    # relative 1e-12 must be corrected, not accepted
    op = discretize(GridSpec(SQUARE, (64, 64)), HoloModulusSquaredWeight([mu], SQUARE))
    exact = solve_green(op, 0.5 + 0.5j)
    assert exact.solve_stats["refinement_steps"] == 0
    transform_solver = pdegreen._transform_solver

    def perturbed(grid, dtype):
        solve = transform_solver(grid, dtype)

        def solve_off(rows):
            x = solve(rows)
            x *= 1 + 1e-12
            return x

        return solve_off

    monkeypatch.setattr(pdegreen, "_transform_solver", perturbed)
    monkeypatch.setattr(spla, "splu", no_lu)
    got = solve_green(op, 0.5 + 0.5j)
    assert got.solve_stats["method"] == "transform" and got.solve_stats["refinement_steps"] == 1
    assert got.solve_stats["backward_error"] <= REFINEMENT_TOLERANCE
    assert np.max(np.abs(got.values - exact.values)) <= 1e-14 * np.max(np.abs(exact.values))


def test_grid_identity_square_converges_in_six_steps():
    # the square of the pde-green identity benchmark: six transform solves,
    # the first and five corrections; a wrong gauge (conj mu for mu) still
    # converges, but takes 13 corrections
    grid = GridSpec(SQUARE, (128, 128))
    op = discretize(grid, HoloModulusSquaredWeight([2, 1], SQUARE))
    stats = {}
    solve_mixed(op, grid_pairs(grid, 5), stats)
    assert stats["method"] == "transform" and stats["refinement_steps"] <= 5
    assert stats["backward_error"] <= REFINEMENT_TOLERANCE and stats["unknowns"] == 128 * 128


NEAR_ROOT = (GridSpec(SQUARE, (32, 32)), HoloModulusSquaredWeight([0.005, 1], SQUARE))


@pytest.mark.parametrize("case", ["stalls", "grows", "overflows"])
def test_stalling_gauge_falls_back_to_sparse_lu(case):
    # with 1/mu for mu the refinement contracts by only about 0.97 a step on
    # the square, grows about 400-fold a step on the annulus, and with a root
    # of mu 0.005 off the square would overflow within 30 steps (an error
    # under this suite's warning filter); each time the LU must solve, dense
    # right-hand sides and point sources alike
    grid, weight = {"stalls": TRANSFORM_CASES["square-|z+2|^2"],
                    "grows": TRANSFORM_CASES["annulus-|z+1.2|^2"], "overflows": NEAR_ROOT}[case]
    op = discretize(grid, weight)
    wrong = dataclasses.replace(op, gauge=1.0 / op.gauge)
    b = np.random.default_rng(3).standard_normal((op.size, 2)) + 0j
    nodes, values = [[5, op.size // 2], [op.size // 3, op.size - 7]], [[1.0, -2.0], [0.5j, 3.0]]
    for solve in (lambda o, s=None: dense_solve(o, b, s), lambda o, s=None: o.solve(nodes, values, s)):
        stats = {}
        got = solve(wrong, stats)
        assert stats["method"] == "sparse_lu" and stats["refinement_steps"] == 0
        assert stats["backward_error"] <= REFINEMENT_TOLERANCE
        assert np.max(np.abs(got - solve(op))) <= 1e-12 * np.max(np.abs(got))


def test_unit_weight_solution_is_real():
    ann = Annulus(0.5, 1.0)
    op = discretize(GridSpec(ann, (16, 32)), unit_weight(ann))
    sol = solve_green(op, 0.75)
    assert not np.iscomplexobj(sol.values)


def direct_sine_table(n):
    """The DST-I matrix from n^2 sines, one per entry."""
    k = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))


def test_sine_table_indexes_the_direct_sines():
    for n in [*range(1, 81), 127, 128, 191, 192, 255, 256]:
        got, want = pdegreen._sine_table(n), direct_sine_table(n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n


def per_grid_transform_solve(grid, dtype, rows):
    """T_1 on a rectangle by the formula S1 [(S1 B S2) / Lambda] S2, one
    (n1, n2) grid B at a time, on the real rows or the real and imaginary
    parts of complex ones.  A part not in ``dtype`` is scaled by the power
    of two of its peak before the cast and back after, as T_1 does."""
    n1, n2 = grid.shape
    s1, s2 = (pdegreen._sine_table(n).astype(dtype) for n in (n1, n2))
    lam1, lam2 = (-(2.0 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) / h) ** 2
                  for n, h in zip(grid.shape, grid.spacing))
    inverse = (4.0 / (lam1[:, None] + lam2)).astype(dtype)

    def solve_part(part):
        out = np.empty_like(part)
        for b, x in zip(part, out):
            power = 1.0 if part.dtype == dtype else 2.0 ** np.frexp(np.max(np.abs(b)))[1]
            g = (b / power).astype(dtype).reshape(n1, n2)
            x[:] = (s1 @ ((s1 @ (g @ s2) * inverse) @ s2)).ravel()
            x *= power
        return out

    if np.iscomplexobj(rows):
        return solve_part(rows.real) + 1j * solve_part(rows.imag)
    return solve_part(rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(128, 128), (48, 40)])
def test_rectangle_transform_solver_matches_the_per_grid_formula(shape, dtype):
    # T_1 holds its grids radius outermost, so that each transform is one
    # product over all of them; each grid still gets the bits of its own
    # products, except that OpenBLAS's sgemm computes the last 8 columns of an
    # (n1, 40) product with a narrower kernel than it does inside the wider
    # (n1, 40 M) one, so there float32 agrees to its rounding only
    grid = GridSpec(SQUARE if shape[0] == shape[1] else THIN, shape)
    solver = _transform_solver(grid, dtype)
    exact = dtype == np.float64 or shape[1] % 16 == 0
    rng = np.random.default_rng(13)
    for m in (1, 2, 10):
        for complex_rows in (False, True):
            b = rng.standard_normal((m, grid.shape[0] * grid.shape[1]))
            if complex_rows:
                b = b + 1j * rng.standard_normal(b.shape)
            want = per_grid_transform_solve(grid, dtype, b)
            got = solver(b.copy())
            assert got.dtype == want.dtype
            if exact:
                assert got.tobytes() == want.tobytes(), (m, complex_rows)
            else:
                assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), (m, complex_rows)


@pytest.mark.parametrize("case", ["annulus-unit", "square-unit"])
def test_real_solve_mixed_matches_the_full_block_combine(case, monkeypatch):
    # a real operator solves the real and imaginary parts of the right-hand
    # sides as 2 m real columns; solve_mixed reads back only the differenced
    # nodes, with the arithmetic of combining the whole block first
    grid, weight = STENCIL_CASES[case]
    op = discretize(grid, weight)
    assert not np.iscomplexobj(op.stencil[(0, 0)])
    solved, solve = [], pdegreen.DiscreteOperator.solve
    monkeypatch.setattr(pdegreen.DiscreteOperator, "solve", lambda self, nodes, values, stats=None:
                        solved.append((nodes, values, solve(self, nodes, values, stats))) or solved[-1][2])
    pairs = grid_pairs(grid, 4)
    got = solve_mixed(op, pairs)
    (nodes, values, y), = solved
    m = len(pairs)
    # the real and imaginary parts of each pair's four d/dz sources at z
    dz = [pdegreen._dz_stencil(grid, pdegreen._snap_inside(grid, z, "z")) for z, _ in pairs]
    radii = grid.axes[0][1:-1] if grid.is_polar else np.ones(grid.shape[0])
    b = np.array([[np.conj(c) / radii[node // grid.shape[1]] for node, c in stencil] for stencil in dz])
    assert nodes.shape == values.shape == (2 * m, 4) and values.dtype == np.float64
    assert np.array_equal(nodes, np.tile([[node for node, _ in stencil] for stencil in dz], (2, 1)))
    assert np.array_equal(values, np.concatenate([b.real, b.imag]))
    full = y[:m] + 1j * y[m:]
    kappa = -(math.pi / 2.0) / (grid.spacing[0] * grid.spacing[1])
    dw = [pdegreen._dz_stencil(grid, pdegreen._snap_inside(grid, w, "w")) for _, w in pairs]
    want = np.array([kappa * np.conj(sum(c * full[k, node] for node, c in stencil))
                     for k, stencil in enumerate(dw)])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def traced_peak(call):
    """Bytes that ``call()`` allocates at its peak, above what it started with."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_refinement_passes_allocate_no_block(monkeypatch):
    # the stencil apply forms each term in one scratch row, held from one
    # call to the next, the backward error takes each row's |v| into one
    # grid buffer, and solve_mixed reads a real solve back at the
    # differenced nodes only
    slack = 4096
    square = discretize(GridSpec(SQUARE, (64, 64)), HoloModulusSquaredWeight([2, 1], SQUARE))
    annulus = discretize(GridSpec(ANNULUS, (32, 64)), unit_weight(ANNULUS))
    rng = np.random.default_rng(17)
    for op, rows in ((square, rng.standard_normal((5, 4096)) + 1j * rng.standard_normal((5, 4096))),
                     (annulus, rng.standard_normal((10, 2048)))):
        # numpy buffers a constant weight's (n1, 1) coefficients where they
        # broadcast over a grid, at most getbufsize() doubles a call
        buffered = np.getbufsize() * 8 if np.shape(op.stencil[(0, 0)])[1] == 1 else 0
        out = np.empty_like(rows)
        apply_rows = op._row_operator()
        assert traced_peak(lambda: apply_rows(rows, out=out)) <= op.size * out.itemsize + buffered + slack
        assert traced_peak(lambda: apply_rows(rows, out=out)) <= buffered + slack
        nodes = np.broadcast_to(np.arange(op.size), rows.shape)
        backward_error = op._backward_error(nodes, rows)
        assert traced_peak(lambda: [backward_error(j, r, x) for j, (r, x) in enumerate(zip(out, rows))]) \
            <= buffered + slack

    after_solve, solve = [], pdegreen.DiscreteOperator.solve

    def solve_then_mark(self, nodes, values, stats=None):
        x = solve(self, nodes, values, stats)
        after_solve.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return x

    monkeypatch.setattr(pdegreen.DiscreteOperator, "solve", solve_then_mark)
    pairs = grid_pairs(annulus.grid, 5)
    tracemalloc.start()
    try:
        solve_mixed(annulus, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - after_solve[0] < annulus.size * 16


@pytest.mark.parametrize("case", ["annulus", "square"])
def test_solve_mixed_holds_only_the_blocks_the_refinement_needs(case):
    # a point-source solve holds x and T_1's work, plus a few rows: the
    # residual, the stencil's scratch term, the backward error's grid
    # buffers, T_1's tables, a varying gauge's conj(mu) and numpy's casting
    # buffers, or a constant weight's two expanded d2 != 0 coefficient
    # arrays; no dense right-hand side, no residual block and no copy of
    # the stencil.  The unweighted annulus passes with no correction and
    # allocates no correction block; the |z+2|^2 square's five complex rows
    # all take corrections and add one correction block and T_1's float32
    # work and scratch blocks, one real row per part of each row.
    slack, rows = 16384, 8
    if case == "annulus":
        op = discretize(GridSpec(ANNULUS, (32, 64)), unit_weight(ANNULUS))
        n1, n2 = op.grid.shape
        m = 10  # five pairs, real and imaginary parts
        x = m * op.size * 8
        modes = (n1 + 1) * m * (n2 // 2 + 1) * 16
        bound = x + modes + rows * op.size * 8 + slack
    else:
        op = discretize(GridSpec(SQUARE, (64, 64)), HoloModulusSquaredWeight([2, 1], SQUARE))
        m = 5
        x = m * op.size * 16
        bound = 2 * x + 2 * (2 * m * op.size * 4) + rows * op.size * 16 + slack
    pairs = grid_pairs(op.grid, 5)
    stats = {}
    solve_mixed(op, pairs, stats)  # tables and imports in place
    assert stats["method"] == "transform" and (stats["refinement_steps"] == 0) == (case == "annulus")
    assert traced_peak(lambda: solve_mixed(op, pairs)) <= bound


@pytest.mark.parametrize("case", ["square-|z+2|^2", "annulus-|z+1.2|^2"])
def test_apply_reads_the_stencil_where_it_lies(case, monkeypatch):
    # every coefficient array the apply multiplies by is a view of the
    # operator's stencil, held in its dtype, not a per-call copy
    op = discretize(*TRANSFORM_CASES[case])
    assert all(c.dtype == op.dtype == np.complex128 for c in op.stencil.values())
    rows = np.random.default_rng(19).standard_normal((2, op.size)) + 0j
    want = op._row_operator()(rows)
    apply_rows = op._row_operator()
    operands, multiply = [], np.multiply

    def spy(a, *args, **kwargs):
        operands.append(a)
        return multiply(a, *args, **kwargs)

    monkeypatch.setattr(np, "multiply", spy)
    got = apply_rows(rows)
    monkeypatch.undo()
    assert got.tobytes() == want.tobytes() and operands
    assert all(any(np.shares_memory(a, c) for c in op.stencil.values()) for a in operands)


@pytest.mark.parametrize("case", ["square-256-rho9", "annulus-|z+1.2|^2"])
def test_refinement_corrects_only_the_rows_above_the_tolerance(case, monkeypatch):
    # each row is corrected until it meets the tolerance and then no more, so
    # each row of a block solve has the bits of its solve alone: on the
    # 256^2 square with rho = 9 a point source passes as M b = 3 T_1(3 b)
    # while random rows take one correction, and on the annulus point
    # sources take 5 to 13
    if case == "square-256-rho9":
        op = discretize(GridSpec(SQUARE, (256, 256)), HoloModulusSquaredWeight([3], SQUARE))
        rng = np.random.default_rng(7)
        b = np.concatenate([np.zeros((1, op.size)), rng.standard_normal((2, op.size))])
        b[0, op.size // 2 + 128] = 1.0
        nodes, values = np.broadcast_to(np.arange(op.size), b.shape), b
    else:
        op = discretize(*TRANSFORM_CASES[case])
        nodes, values = np.array([[0], [997], [1994]]), np.array([[1.0 + 0j], [-2.0], [0.5j]])
        b = np.zeros((3, op.size), complex)
        b[np.arange(3)[:, None], nodes] = values
    monkeypatch.setattr(spla, "splu", no_lu)
    stats = {}
    x = op.solve(nodes, values, stats)
    alone = [{} for _ in x]
    for j, s in enumerate(alone):
        assert np.array_equal(op.solve(nodes[j:j + 1], values[j:j + 1], s)[0], x[j]), j
    steps = [s["refinement_steps"] for s in alone]
    assert min(steps) < max(steps) == stats["refinement_steps"]
    assert stats["backward_error"] == max(s["backward_error"] for s in alone)
    for j in range(len(x)):
        assert backward_error(op, b[j], x[j]) <= REFINEMENT_TOLERANCE, j
    if isinstance(op.gauge, float):
        assert steps[0] == 0
        want = _transform_solver(op.grid)(op.gauge * b[:1])[0] * op.gauge
        assert np.array_equal(x[0], want)
    monkeypatch.undo()
    ref = spla.splu(op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b.T.astype(op.dtype)).T
    got = dense_solve(op, b.T).T
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_solve_rejects_malformed_point_sources():
    op = discretize(GridSpec(SQUARE, (16, 16)), unit_weight(SQUARE))
    for nodes, values in (([3], [1.0]), ([[3, 4]], [[1.0]]), ([[3, 3]], [[1.0, 2.0]]),
                          ([[-1]], [[1.0]]), ([[op.size]], [[1.0]]), ([[0.5]], [[1.0]])):
        with pytest.raises(ParameterError, match="point sources"):
            op.solve(nodes, values)


def complex_grid_mid_mask(grid, source):
    """The rectangle mid-grid mask from the complex points of every node."""
    pts, dom = grid.interior_points(), grid.domain
    lx, ly = dom.x1 - dom.x0, dom.y1 - dom.y0
    central = ((pts.real > dom.x0 + 0.25 * lx) & (pts.real < dom.x1 - 0.25 * lx)
               & (pts.imag > dom.y0 + 0.25 * ly) & (pts.imag < dom.y1 - 0.25 * ly))
    central &= np.abs(pts.real - source.real) > 0.02 * lx
    central &= np.abs(pts.imag - source.imag) > 0.02 * ly
    return central & (np.abs(pts - source) > 0.15 * min(lx, ly))


def test_mid_mask_matches_the_complex_grid_formula():
    rng = np.random.default_rng(20)
    for k in range(300):
        x0, y0 = rng.uniform(-2.0, 2.0, 2)
        lx, ly = rng.uniform(0.1, 3.0, 2)
        grid = GridSpec(Rectangle(x0, x0 + lx, y0, y0 + ly), tuple(int(v) for v in rng.integers(8, 60, 2)))
        # on a node, off the nodes inside, and anywhere near the rectangle
        source = (grid.node_point(*(int(rng.integers(0, n)) for n in grid.shape)) if k % 3 == 0
                  else complex(x0 + lx * rng.uniform(-0.2, 1.2), y0 + ly * rng.uniform(-0.2, 1.2)))
        got, want = mid_mask(grid, source), complex_grid_mid_mask(grid, source)
        assert got.shape == want.shape and np.array_equal(got, want), (k, grid, source)


def full_grid_reference_error(domain, weight, n, source):
    """reference_error with the series evaluated at every interior node, one
    table of sines per axis."""
    grid = GridSpec(domain, (n, n))
    sol = solve_green(discretize(grid, weight), source)
    rho = float(np.real(weight.value(np.array([sol.source])))[0])
    (x0, x1), (y0, y1) = (domain.x0, domain.x1), (domain.y0, domain.y1)
    m = np.arange(1, 201)
    sx = np.sin(np.pi * np.outer(grid.axes[0][1:-1] - x0, m) / (x1 - x0))
    sy = np.sin(np.pi * np.outer(grid.axes[1][1:-1] - y0, m) / (y1 - y0))
    sq = np.sin(np.pi * m * (sol.source.real - x0) / (x1 - x0))
    tq = np.sin(np.pi * m * (sol.source.imag - y0) / (y1 - y0))
    lam = np.pi**2 * ((m**2 / (x1 - x0)**2)[:, None] + (m**2 / (y1 - y0)**2)[None, :])
    ref = sx @ (2.0 * np.pi * (4.0 / ((x1 - x0) * (y1 - y0))) * np.outer(sq, tq) / lam) @ sy.T
    return float(np.max(np.abs(np.real(sol.values) / rho - ref)[mid_mask(grid, sol.source)]))


# the unit square, whose axes share their sines, and rectangles whose do not
REFERENCE_DOMAINS = {"square": SQUARE, "shifted": Rectangle(-0.3, 1.7, 0.2, 1.1),
                     "tall": Rectangle(0.1, 0.9, -0.4, 0.4)}


@pytest.mark.parametrize("name", sorted(REFERENCE_DOMAINS))
def test_reference_error_matches_the_full_grid_comparison(name):
    domain = REFERENCE_DOMAINS[name]
    for n in (8, 16, 31, 64, 100, 128, 192, 200):
        for weight in (unit_weight(domain), HoloModulusSquaredWeight([1.7], domain)):
            got = reference_error(domain, weight, n, domain.basis_center)[0]
            want = full_grid_reference_error(domain, weight, n, domain.basis_center)
            assert abs(got - want) <= 1e-12 * want, (n, weight.value(0.0))


def test_reference_error_evaluates_only_what_it_compares(monkeypatch):
    # the series sees the bounding box of the mid-grid mask, and a constant
    # weight is sampled on three grid columns
    domain, n = REFERENCE_DOMAINS["shifted"], 64
    weight = HoloModulusSquaredWeight([1.7], domain)
    grid = GridSpec(domain, (n, n))
    mask = mid_mask(grid, grid.node_point(*grid.snap_index(domain.basis_center)))
    box = [np.ptp(np.flatnonzero(mask.any(axis=a))) + 1 for a in (1, 0)]
    series, value = pdegreen.rectangle_green_series, type(weight).value

    def guarded_series(domain, source, xs, ys, terms=200):
        if [len(xs), len(ys)] != box:
            raise AssertionError("series evaluated outside the mask's bounding box")
        return series(domain, source, xs, ys, terms)

    def guarded_value(self, z):
        if np.ndim(z) == 2 and np.shape(z)[1] > 3:
            raise AssertionError("constant weight sampled on more than three columns")
        return value(self, z)

    want = reference_error(domain, weight, n, domain.basis_center)[0]
    monkeypatch.setattr(pdegreen, "rectangle_green_series", guarded_series)
    monkeypatch.setattr(type(weight), "value", guarded_value)
    assert reference_error(domain, weight, n, domain.basis_center)[0] == want
    for annulus in (ANNULUS, Annulus(0.3, 2.0)):
        discretize(GridSpec(annulus, (12, 32)), HoloModulusSquaredWeight([1.7], annulus))


def padded_weight_grid(grid, weight):
    """rho on the (n1 + 2, n2 + 2) grid, sampled at the nodes; on an annulus
    the n2 angular columns, then copies of the last and first put around them."""
    a1, a2 = grid.axes
    pts = a1[:, None] * np.exp(1j * a2) if grid.is_polar else a1[:, None] + 1j * a2
    rho = np.real(np.asarray(weight.value(pts), dtype=complex))
    return np.concatenate([rho[:, -1:], rho, rho[:, :1]], axis=1) if grid.is_polar else rho


@pytest.mark.parametrize("grid", [GridSpec(THIN, (9, 13)), GridSpec(Annulus(0.3, 2.0), (10, 16))],
                         ids=["rectangle", "annulus"])
def test_constant_weight_discretize_matches_the_full_grid_sample(grid):
    # the columns kept are the first three of the padded grid: on an annulus
    # the last angle, then the first two; a non-constant weight tells them apart
    domain = grid.domain
    z3 = HoloModulusSquaredWeight([3, 1], domain)
    want = padded_weight_grid(grid, z3)
    assert _full_weight_grid(grid, z3).tobytes() == want.tobytes()
    assert _full_weight_grid(grid, z3, 3).tobytes() == want[:, :3].tobytes()
    for weight in (HoloModulusSquaredWeight([1.7 - 0.4j], domain), LogHarmonicWeight([0.3 + 2j], domain)):
        rho = padded_weight_grid(grid, weight)[:, :3]
        div_entries, rot_entries = _assemble(grid, rho)
        assert not any(np.any(c) for c in rot_entries.values())
        op = discretize(grid, weight)
        assert sorted(op.stencil) == sorted(div_entries)
        for offset, coeff in div_entries.items():
            want = 0.25 * coeff
            assert op.stencil[offset].dtype == want.dtype
            assert op.stencil[offset].tobytes() == want.tobytes(), offset
        assert op.gauge == math.sqrt(rho.flat[0]) and isinstance(op.gauge, float)
