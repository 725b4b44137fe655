"""Discrete Green's functions for the weighted operator d/d(conj z) (1/rho) d/dz.

The operator expands into a real divergence-form part and an imaginary
rotational part,

    P u = 1/4 [ dx((1/rho) dx u) + dy((1/rho) dy u) ]
        + i/4 [ dy((1/rho) dx u) - dx((1/rho) dy u) ],

both of which are discretized to second order: harmonic-mean face
coefficients for the divergence part, centered differences for the
rotational part, Dirichlet rows eliminated.  For rho = 1 the rotational
coefficients cancel entrywise and the stencil is exactly one quarter of the
standard Laplacian stencil.

The discrete Green's function solves  P G = -(pi/2) delta_h  with delta_h
the grid delta (1/cell-area at the snapped source node).  This
normalization makes the rho = 1 solution converge to -ln|z - w| plus a
harmonic function, since the Laplacian of -ln|z - w| is -2 pi delta and
P reduces to a quarter Laplacian.

Supported grids are Cartesian rectangles and polar annuli (uniform periodic
angles).  Both share one stencil: the annulus form with metric r, of which
a rectangle is the case r = 1 with no periodic axis.

A weight with a gauge, rho = |mu|^2 with mu holomorphic and zero-free
(``holo_modulus_squared``, and ``log_harmonic`` with mu = e^H), factors the
operator itself: since d(conj mu)/dz = 0 and d(1/mu)/d(conj z) = 0,

    d/d(conj z) (1/rho) d/dz u = (1/(4 mu)) Delta (u / conj mu).

A constant weight is the case mu = sqrt(rho).  So P^-1 b = conj(mu) T_1(mu b)
up to the O(h^2) of the discretization (exactly, for a constant weight),
where T_1 solves rho = 1 by a sine (rectangles) or Fourier (annuli)
transform along axis 2 and a tridiagonal system along axis 1 per mode
(Hockney 1965; Buzbee, Golub & Nielson 1970).  :meth:`DiscreteOperator.solve`
preconditions iterative refinement with it (Concus & Golub 1973), gated on
the backward error of A itself, so the ``factorization`` check, which
compares the solution with the gauge-factored unweighted one, still
measures the discretization.  Every other weight, and a refinement that
does not converge, goes through the sparse LU, which alone needs scipy.

The continuum operator is self-adjoint, and the discretization keeps this
up to the cell-area factor: with D = I on rectangles and D = diag(r) on
annuli, H = D A is Hermitian (to roundoff).  The source normalization
divides by the cell area h1 h2 D[s], so the discrete Green's function is
G_h(x, s) = kappa (H^-1)[x, s] with kappa = -(pi/2)/(h1 h2), and it is
reciprocal: G_h(z, w) = conj(G_h(w, z)).  :func:`solve_mixed` uses this to
get d^2 G_h / dz d(conj w) at a pair from one right-hand side at z, where
differencing across sources would need one solve per neighbour of w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ParameterError, SolverError, WeightError
from .geometry import Annulus, Domain, Rectangle, check_grid_shape
from .weights import HoloModulusSquaredWeight, LogHarmonicWeight, Weight, solve_gauge

__all__ = [
    "GridSpec",
    "DiscreteOperator",
    "DiscreteGreen",
    "discretize",
    "solve_green",
    "solve_mixed",
    "rectangle_green_series",
    "grid_pairs",
    "mid_mask",
    "reference_error",
]


@dataclass(frozen=True)
class GridSpec:
    """Interior-node grid on a rectangle (Cartesian) or annulus (polar).

    ``shape`` counts interior nodes per axis: (nx, ny) for rectangles,
    (n_radial, n_angular) for annuli.  The angular direction is periodic, so
    all of its nodes are unknowns (:func:`geometry.check_grid_shape`).
    """

    domain: Domain
    shape: tuple

    def __post_init__(self):
        n1, n2 = self.shape
        if n1 != int(n1) or n2 != int(n2):
            raise ParameterError("grid resolution must be integral")
        object.__setattr__(self, "shape", (int(n1), int(n2)))
        if not isinstance(self.domain, (Rectangle, Annulus)):
            raise ParameterError(f"grids are defined on rectangles and annuli, not {self.domain.kind}")
        check_grid_shape(self.domain, self.shape)

    @property
    def is_polar(self) -> bool:
        return isinstance(self.domain, Annulus)

    @property
    def spacing(self) -> tuple:
        n1, n2 = self.shape
        if self.is_polar:
            hr = (self.domain.outer - self.domain.inner) / (n1 + 1)
            ht = 2.0 * math.pi / n2
            return hr, ht
        hx = (self.domain.x1 - self.domain.x0) / (n1 + 1)
        hy = (self.domain.y1 - self.domain.y0) / (n2 + 1)
        return hx, hy

    @cached_property
    def axes(self) -> tuple:
        """Coordinate arrays including the boundary layer on non-periodic axes."""
        n1, n2 = self.shape
        h1, h2 = self.spacing
        if self.is_polar:
            radii = self.domain.inner + h1 * np.arange(n1 + 2)
            angles = h2 * np.arange(n2)
            return radii, angles
        xs = self.domain.x0 + h1 * np.arange(n1 + 2)
        ys = self.domain.y0 + h2 * np.arange(n2 + 2)
        return xs, ys

    def node_point(self, i: int, j: int) -> complex:
        """Complex coordinate of interior node (i, j)."""
        a1, a2 = self.axes
        if self.is_polar:
            return a1[i + 1] * complex(math.cos(a2[j]), math.sin(a2[j]))
        return complex(a1[i + 1], a2[j + 1])

    def interior_points(self) -> np.ndarray:
        n1, n2 = self.shape
        a1, a2 = self.axes
        if self.is_polar:
            return a1[1:-1, None] * np.exp(1j * a2[None, :])
        return a1[1:-1, None] + 1j * a2[None, 1:-1]

    def snap_index(self, z: complex) -> tuple:
        """Indices of the interior node nearest to z."""
        z = complex(z)
        h1, h2 = self.spacing
        n1, n2 = self.shape
        if self.is_polar:
            i = int(round((abs(z) - self.domain.inner) / h1)) - 1
            j = int(round(math.atan2(z.imag, z.real) / h2)) % n2
            i = min(max(i, 0), n1 - 1)
            return i, j
        i = int(round((z.real - self.domain.x0) / h1)) - 1
        j = int(round((z.imag - self.domain.y0) / h2)) - 1
        return min(max(i, 0), n1 - 1), min(max(j, 0), n2 - 1)

    def margin_cells(self, idx: tuple) -> int:
        """Distance of a node from the eliminated boundary, in cells."""
        i, j = idx
        n1, n2 = self.shape
        m = min(i + 1, n1 - i)
        if not self.is_polar:
            m = min(m, j + 1, n2 - j)
        return m


def _full_weight_grid(grid: GridSpec, weight: Weight) -> np.ndarray:
    """rho sampled on interior plus boundary layers, shape (n1 + 2, n2 + 2).

    The periodic angular axis of an annulus has no boundary layer; it is
    padded with copies of its last and first columns instead, so that
    neighbour slices wrap around the circle on both grids alike.
    """
    a1, a2 = grid.axes
    if grid.is_polar:
        pts = a1[:, None] * np.exp(1j * a2[None, :])
    else:
        pts = a1[:, None] + 1j * a2[None, :]
    rho = np.real(np.asarray(weight.value(pts), dtype=complex))
    if np.any(~np.isfinite(rho)) or np.any(rho <= 0):
        raise WeightError("weight must be finite and positive on every grid node")
    if grid.is_polar:
        rho = np.concatenate([rho[:, -1:], rho, rho[:, :1]], axis=1)
    return rho


def _shifted(d: int, n: int, periodic: bool) -> list:
    """(target, source) slices taking entry k + d of an axis to entry k; a periodic axis wraps."""
    main = (slice(max(-d, 0), n - max(d, 0)), slice(max(d, 0), n - max(-d, 0)))
    wrap = (slice(n - 1, n), slice(0, 1)) if d > 0 else (slice(0, 1), slice(n - 1, n))
    return [main, wrap] if periodic and d else [main]


#: The refinement of :meth:`DiscreteOperator.solve` stops at the first
#: correction whose normwise backward error is at most REFINEMENT_TOLERANCE in
#: every column, and gives up after REFINEMENT_MAX_STEPS corrections.
REFINEMENT_TOLERANCE = 1e-15
REFINEMENT_MAX_STEPS = 30


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The weighted operator over interior nodes, held as stencil arrays.

    ``stencil`` maps an offset (d1, d2) to the coefficients, times 1/4 or
    i/4, of node (i + d1, j + d2) in row (i, j): five divergence offsets, and
    four rotational ones if the operator is complex.  ``gauge`` is mu for
    rho = |mu|^2: the real scalar sqrt(rho) when rho is one number on every
    node, boundary layers included (the coefficients then have one column),
    or mu at the interior nodes, flattened, for any other weight with a
    gauge; else it is None.
    """

    grid: GridSpec
    stencil: dict
    gauge: np.ndarray | float | None = None

    @property
    def size(self) -> int:
        return self.grid.shape[0] * self.grid.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(*self.stencil.values())

    @property
    def method(self) -> str:
        """How :meth:`solve` solves: ``"transform"`` (which may still fall
        back to the LU) or ``"sparse_lu"``."""
        return "sparse_lu" if self.gauge is None else "transform"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The operator times x of shape (size,) or (size, m), one slice of x
        per offset and per wrap of the periodic angle; off the grid is zero."""
        n1, n2 = self.grid.shape
        nodes = np.reshape(x, (n1, n2, -1))
        out = np.zeros(nodes.shape, dtype=np.result_type(self.dtype, nodes.dtype))
        for (d1, d2), coeff in self.stencil.items():
            coeff = np.broadcast_to(coeff, (n1, n2))[:, :, None]
            (r_out, r_in), = _shifted(d1, n1, False)
            for c_out, c_in in _shifted(d2, n2, self.grid.is_polar):
                out[r_out, c_out] += coeff[r_out, c_out] * nodes[r_in, c_in]
        return out.reshape(np.shape(x))

    @cached_property
    def matrix(self):
        """The operator as CSR, built for the sparse LU only: row i n2 + j holds
        each offset whose neighbour is an unknown, zeros included, by column."""
        import scipy.sparse as sp
        n1, n2 = self.grid.shape
        i = np.arange(n1)[:, None, None, None] + np.arange(-1, 2)[:, None]
        j = np.arange(n2)[:, None, None] + np.arange(-1, 2)
        keep, data = np.zeros((n1, n2, 3, 3), dtype=bool), np.zeros((n1, n2, 3, 3), self.dtype)
        for (d1, d2), coeff in self.stencil.items():
            keep[:, :, d1 + 1, d2 + 1] = True
            data[:, :, d1 + 1, d2 + 1] = coeff
        keep &= (i >= 0) & (i < n1) & (self.grid.is_polar | ((j >= 0) & (j < n2)))
        cols = i * n2 + j % n2
        if self.grid.is_polar:  # the wrapped neighbour goes to the other end of its d1 block
            for a in (cols, keep, data):
                a[:, 0], a[:, -1] = np.roll(a[:, 0], -1, axis=-1), np.roll(a[:, -1], 1, axis=-1)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=(2, 3)))])
        return sp.csr_matrix((data[keep], cols[keep], indptr), shape=(self.size, self.size))

    def solve(self, rhs: np.ndarray, stats: dict | None = None) -> np.ndarray:
        """Solve for one right-hand side or a block of columns.  Nothing is
        kept between calls, so batch all columns into one call.

        For a weight with a gauge (``method == "transform"``) it is iterative
        refinement preconditioned by M b = conj(mu) T_1(mu b), T_1 the rho = 1
        transform solver (the gauge identity of the module docstring): x = M b,
        then x += M (b - A x) until a correction brings the backward error
        (below) to at most ``REFINEMENT_TOLERANCE`` in every column.  It makes
        at least one: M b alone is off by up to about 1e-13 for a constant
        weight, which the fitted order of the reference study magnifies about
        1e4.  One suffices there (a real b then gives a real x), about five on
        the identity check's square.  After ``REFINEMENT_MAX_STEPS``
        corrections, or one that does not shrink the backward error, the
        sparse LU solves instead.

        Otherwise it is a sparse LU solve of :attr:`matrix`.  The nine-point
        stencil is structurally symmetric, so the column ordering is minimum
        degree on A^T + A, which fills less than COLAMD.

        A ``stats`` dict receives the method that solved, the unknowns, the
        corrections taken and the largest normwise backward error over the
        columns (Rigal & Gaches 1967), ||D^-1 (b - A x)|| / (||D^-1 A|| ||x||
        + ||D^-1 b||) in the max norm with D = |diag A|.  Its norms are maxima,
        so it is deterministic and independent of the BLAS thread count.
        """
        backward_error = self._backward_error(rhs)
        refined = None if self.gauge is None else self._refinement(rhs, backward_error)
        if refined is None:
            x = self._lu_solve(rhs)
            refined = x, 0, backward_error(rhs - self.apply(x), x)
        x, steps, eta = refined
        if stats is not None:  # the refinement makes at least one correction, the LU none
            stats.update(method="transform" if steps else "sparse_lu", unknowns=self.size,
                         refinement_steps=steps, backward_error=eta)
        return x

    def _refinement(self, rhs: np.ndarray, backward_error):
        """(x, corrections, backward error) of the refinement of :meth:`solve`,
        or None if it does not converge.  Corrections are made in place."""
        mu = np.reshape(self.gauge, (-1,) + (1,) * (np.ndim(rhs) - 1))
        mu_bar = np.conj(mu)
        unweighted = _transform_solver(self.grid)
        x = unweighted(mu * rhs)
        x *= mu_bar
        previous = math.inf
        for steps in range(REFINEMENT_MAX_STEPS + 1):
            r = rhs - self.apply(x)
            eta = backward_error(r, x)
            if steps and eta <= REFINEMENT_TOLERANCE:
                return x, steps, eta
            if not eta < previous or steps == REFINEMENT_MAX_STEPS:
                return None
            previous = eta
            r *= mu
            dx = unweighted(r)
            dx *= mu_bar
            x += dx
            del r, dx  # held into the next residual, they would add a block to the peak

    def _backward_error(self, rhs: np.ndarray):
        """The function (r, x) -> largest normwise backward error over the
        columns of x, given r = rhs - A x.  D = |diag A| scales the rows, and
        ||D^-1 A|| is the largest absolute row sum of the scaled stencil."""
        n1, n2 = self.grid.shape
        inverse = 1.0 / np.abs(self.stencil[(0, 0)])[:, :, None]
        a_norm = np.max(sum(np.abs(c) for c in self.stencil.values())[:, :, None] * inverse)

        def column_max(v, scale=None):
            a = np.abs(np.reshape(v, (n1, n2, -1)))
            if scale is not None:
                a *= scale
            return a.max(axis=0).max(axis=0)  # several times faster than axis=(0, 1)

        def backward_error(r, x):
            scale = a_norm * column_max(x) + b_norm
            return float(np.max(column_max(r, inverse) / np.where(scale > 0, scale, 1.0)))

        b_norm = column_max(rhs, inverse)
        return backward_error

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        import scipy.sparse.linalg as spla
        try:
            lu = spla.splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(
                f"sparse factorization failed on {self.size} unknowns: {exc}"
            ) from exc
        return lu.solve(rhs)


def _transform_solver(grid: GridSpec):
    """Direct solver T_1(b) of the rho = 1 operator, for b of shape (size,)
    or (size, m).

    The operator is 1/4 [ (1/r) d1(r d1) + (1/r^2) d2^2 ], discretized
    with the metric of :func:`_assemble` (r = 1 on rectangles).  An
    orthonormal DST-I matrix (Dirichlet rectangles) or a real FFT (the
    periodic angle of annuli) diagonalizes the axis-2 second difference, with
    eigenvalues lam_k.  Each mode k is then one tridiagonal system along
    axis 1, with diagonal  -(r+ + r-)/(r h1^2) + lam_k/r^2  and
    off-diagonals r+-/(r h1^2), all times 1/4, solved by a Thomas
    sweep over all modes and columns at once.  The transforms run on real
    arrays, so a complex b is solved as a real block of its real and
    imaginary parts.
    """
    n1, n2 = grid.shape
    h1, h2 = grid.spacing
    if grid.is_polar:
        r = grid.axes[0][1:-1]
        r_p, r_m = r + 0.5 * h1, r - 0.5 * h1
        lam = -(2.0 * np.sin(np.pi * np.arange(n2 // 2 + 1) / n2) / h2) ** 2
        forward, backward = partial(np.fft.rfft, axis=1), partial(np.fft.irfft, n=n2, axis=1)
    else:
        r = r_p = r_m = np.ones(n1)
        k = np.arange(1, n2 + 1)
        lam = -(2.0 * np.sin(np.pi * k / (2 * (n2 + 1))) / h2) ** 2
        # the orthonormal DST-I matrix, its own inverse; the products j k are
        # reduced mod 2 (n2 + 1) so that the sine arguments stay exact
        sine = math.sqrt(2.0 / (n2 + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n2 + 2)) / (n2 + 1))
        forward = backward = partial(np.matmul, sine)
    lower = 0.25 * r_m / (r * h1**2)
    upper = 0.25 * r_p / (r * h1**2)
    diag = 0.25 * (lam[None, :] / (r**2)[:, None] - ((r_p + r_m) / (r * h1**2))[:, None])

    # elimination factors, shared by every right-hand side: pivot[i] is the
    # reciprocal pivot of row i and sup[i] its eliminated super-diagonal
    pivot = np.empty(diag.shape + (1,))
    sup = np.empty(diag.shape + (1,))
    prev = np.zeros(len(lam))
    for i in range(n1):
        pivot[i, :, 0] = 1.0 / (diag[i] - lower[i] * prev)
        prev = sup[i, :, 0] = upper[i] * pivot[i, :, 0]

    def solve_real(b):
        y = forward(np.reshape(b, (n1, n2, -1)))
        y[0] *= pivot[0]
        for i in range(1, n1):
            y[i] = (y[i] - lower[i] * y[i - 1]) * pivot[i]
        for i in range(n1 - 2, -1, -1):
            y[i] -= sup[i] * y[i + 1]
        return backward(y).reshape(np.shape(b))

    # apply does not call itself: that closure would be a cycle, freed only by gc
    def apply(b):
        if np.iscomplexobj(b):  # each column's real and imaginary parts side by side
            parts = np.ascontiguousarray(np.reshape(b, (n1 * n2, -1)), dtype=complex)
            return solve_real(parts.view(float)).view(complex).reshape(np.shape(b))
        return solve_real(b)

    return apply


def _assemble(grid: GridSpec, rho: np.ndarray):
    """Per-offset coefficients of the divergence and rotational parts (before
    their factors 1/4 and i/4), one formula for both grids.

    Axis 1 is x or r, axis 2 is y or theta.  On annuli the metric r is the
    node radius, and r +- h1/2 at the radial faces; on rectangles it is the
    scalar 1.  ``rho`` is padded on both axes (:func:`_full_weight_grid`).
    """
    h1, h2 = grid.spacing
    if grid.is_polar:
        r = grid.axes[0][1:-1][:, None]
        r_p, r_m = r + 0.5 * h1, r - 0.5 * h1
    else:
        r = r_p = r_m = 1.0
    beta = 1.0 / rho

    # divergence part: harmonic means of rho at the faces
    c = rho[1:-1, 1:-1]
    face_p1 = r_p * (2.0 / (c + rho[2:, 1:-1])) / (r * h1**2)
    face_m1 = r_m * (2.0 / (c + rho[:-2, 1:-1])) / (r * h1**2)
    face_p2 = (2.0 / (c + rho[1:-1, 2:])) / (r**2 * h2**2)
    face_m2 = (2.0 / (c + rho[1:-1, :-2])) / (r**2 * h2**2)

    # rotational part (1/r) [ d2(beta d1 u) - d1(beta d2 u) ], centered
    cross = 1.0 / (4.0 * h1 * h2)
    b_p1, b_m1 = beta[2:, 1:-1], beta[:-2, 1:-1]
    b_p2, b_m2 = beta[1:-1, 2:], beta[1:-1, :-2]

    div_entries = {
        (0, 0): -(face_p1 + face_m1 + face_p2 + face_m2),
        (1, 0): face_p1,
        (-1, 0): face_m1,
        (0, 1): face_p2,
        (0, -1): face_m2,
    }
    rot_entries = {
        (1, 1): (b_p2 - b_p1) * cross / r,
        (-1, 1): (b_m1 - b_p2) * cross / r,
        (1, -1): (b_p1 - b_m2) * cross / r,
        (-1, -1): (b_m2 - b_m1) * cross / r,
    }
    return div_entries, rot_entries


def discretize(grid: GridSpec, weight: Weight) -> DiscreteOperator:
    """Second-order stencil discretization of the weighted operator.

    The divergence part uses harmonic-mean face coefficients of 1/rho; the
    rotational part uses centered differences of nodal 1/rho.  Rows touch at
    most nine unknowns.  For constant weights the rotational coefficients are
    exactly zero and the stencil is real.  A constant weight
    (``Weight.is_constant``) records the real gauge sqrt(rho); any other
    weight with a closed-form gauge g (``solve_gauge``, no numerical check
    for these two classes) records mu = conj(g) at the interior nodes.
    Either selects the transform-preconditioned solve of
    :meth:`DiscreteOperator.solve`.
    """
    rho = _full_weight_grid(grid, weight)
    constant = weight.is_constant
    rho = rho[:, :3] if constant else rho  # all columns alike: coefficients for one
    div_entries, rot_entries = _assemble(grid, rho)
    stencil = {offset: 0.25 * coeff for offset, coeff in div_entries.items()}
    if any(np.max(np.abs(v)) > 0 for v in rot_entries.values()):
        stencil.update((offset, 0.25j * coeff) for offset, coeff in rot_entries.items())
    gauge = None
    if constant:
        gauge = math.sqrt(rho.flat[0])
    elif isinstance(weight, (HoloModulusSquaredWeight, LogHarmonicWeight)):
        gauge = np.conj(solve_gauge(weight)(grid.interior_points())).ravel()
    return DiscreteOperator(grid=grid, stencil=stencil, gauge=gauge)


@dataclass(eq=False)
class DiscreteGreen:
    """Field of the discrete Green's function for one snapped source."""

    grid: GridSpec
    source: complex
    source_index: tuple
    values: np.ndarray  # shape grid.shape; boundary values are implicitly zero
    solve_stats: dict = field(default_factory=dict)


def _snap_inside(grid: GridSpec, z: complex, what: str) -> tuple:
    """Index of the node nearest to z, which must keep at least two cells of
    margin from the eliminated boundary so derivative stencils around it stay
    on the grid."""
    idx = grid.snap_index(z)
    if grid.margin_cells(idx) < 2:
        raise ParameterError(f"{what} {z} snaps to node {idx}, closer than two cells to the boundary")
    return idx


def solve_green(op: DiscreteOperator, source: complex) -> DiscreteGreen:
    """Solve  P G = -(pi/2) delta_h  for a source snapped to the nearest node.

    The source needs two cells of margin (:func:`_snap_inside`).  The result
    carries the solver statistics of :meth:`DiscreteOperator.solve`: the
    method that solved, unknowns, refinement steps and the backward error,
    no timings, so a report that embeds them is deterministic.
    """
    grid = op.grid
    idx = _snap_inside(grid, source, "source")
    snapped = grid.node_point(*idx)
    h1, h2 = grid.spacing
    cell_area = (abs(snapped) if grid.is_polar else 1.0) * h1 * h2
    rhs = np.zeros(op.size, dtype=op.dtype)
    rhs[idx[0] * grid.shape[1] + idx[1]] = -(math.pi / 2.0) / cell_area
    stats = {}
    sol = op.solve(rhs, stats)
    return DiscreteGreen(grid=grid, source=snapped, source_index=idx,
                         values=sol.reshape(grid.shape), solve_stats=stats)


# ---------------------------------------------------------------------------
# Mixed derivative by reciprocity
# ---------------------------------------------------------------------------


def _dz_stencil(grid: GridSpec, idx: tuple) -> list:
    """Centered d/dz at interior node idx as (flat node index, coefficient) pairs.

    d/dz = (d/dx - i d/dy) / 2 on Cartesian grids and
    e^(-i theta) (d/dr - (i/r) d/dtheta) / 2 on polar grids; d/d(conj z) has
    the conjugate coefficients.  The node needs two cells of margin, so every
    stencil node is an unknown (the angular index wraps on polar grids).
    """
    i, j = idx
    n2 = grid.shape[1]
    h1, h2 = grid.spacing
    if grid.is_polar:
        th = grid.axes[1][j]
        rot, s2 = complex(math.cos(th), -math.sin(th)), 1.0 / grid.axes[0][i + 1]
    else:
        rot, s2 = 1.0, 1.0
    a = 0.5 * rot / (2 * h1)
    b = -0.5j * rot * s2 / (2 * h2)
    nodes = ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1))
    return [(ii * n2 + jj % n2, c) for (ii, jj), c in zip(nodes, (a, -a, b, -b))]


def solve_mixed(op: DiscreteOperator, pairs, stats: dict | None = None) -> np.ndarray:
    """d^2 G_h(z, w) / dz d(conj w) for every (z, w) in ``pairs``, from one
    batched solve.

    Both points snap to their nearest nodes and need two cells of margin.
    Let D = I on rectangles and D = diag(r) (the polar cell-area factor) on
    annuli.  Then H = D A is Hermitian, and the source normalization of
    :func:`solve_green` gives  G_h(x, s) = kappa (H^-1)[x, s]  with
    kappa = -(pi/2)/(h1 h2).  With c_a the centered d/dz coefficients at z
    and conj(e_o) those at w (:func:`_dz_stencil`), Hermitian symmetry of
    H^-1 turns the double difference into one column per pair:

        mixed = kappa sum_o e_o sum_a c_a (H^-1)[z+a, w+o]
              = kappa sum_o e_o conj(y[w+o]),   A y = D^-1 sum_a conj(c_a) e_(z+a).

    This is Green's reciprocity G_h(z, w) = conj(G_h(w, z)) on the grid.
    All columns go to one ``op.solve`` call, which fills ``stats`` as in
    :meth:`DiscreteOperator.solve`; a real matrix solves the real and
    imaginary parts of the block as columns of one real block.
    """
    grid = op.grid
    n2 = grid.shape[1]
    h1, h2 = grid.spacing
    stencils = [tuple(_dz_stencil(grid, _snap_inside(grid, p, "evaluation point"))
                      for p in pair) for pair in pairs]

    radii = grid.axes[0][1:-1] if grid.is_polar else np.ones(grid.shape[0])
    m = len(stencils)
    rhs = np.zeros((op.size, m), dtype=complex)
    for k, (dz, _) in enumerate(stencils):
        for node, c in dz:
            rhs[node, k] = np.conj(c) / radii[node // n2]
    if np.issubdtype(op.dtype, np.complexfloating):
        y = op.solve(rhs, stats)
    else:
        y = op.solve(np.hstack([rhs.real, rhs.imag]), stats)
        y = y[:, :m] + 1j * y[:, m:]
    kappa = -(math.pi / 2.0) / (h1 * h2)
    return np.array([kappa * np.conj(sum(c * y[node, k] for node, c in dw))
                     for k, (_, dw) in enumerate(stencils)])


def grid_pairs(grid: GridSpec, count: int) -> list:
    """Node pairs in the central region of the grid, separated but not so far
    apart that the kernel value degenerates (angular gaps of 20 to 60 degrees
    on annuli, where the Laurent kernel stays well away from zero)."""
    n1, n2 = grid.shape
    pairs = []
    for k in range(count):
        if grid.is_polar:
            i1 = n1 // 2 - n1 // 8 + (k * (n1 // 4)) // max(count, 1)
            j1 = (k * n2) // (3 * max(count, 1))
            i2 = n1 // 2 + n1 // 8
            dj = n2 // 18 + (k * (n2 // 10 - n2 // 18)) // max(count - 1, 1)
            j2 = (j1 + dj) % n2
        else:
            i1 = n1 // 3 + (k * n1 // (4 * count))
            j1 = n2 // 3
            i2 = 2 * n1 // 3
            j2 = 2 * n2 // 3 - (k * n2 // (5 * count))
        pairs.append((grid.node_point(i1, j1), grid.node_point(i2, j2)))
    return pairs


# ---------------------------------------------------------------------------
# Separable series reference for the rectangle
# ---------------------------------------------------------------------------


def rectangle_green_series(domain: Rectangle, source: complex, xs, ys, terms: int = 200) -> np.ndarray:
    """Eigenfunction-series Green's function of the Laplace problem
    -Delta G = 2 pi delta on a rectangle with zero boundary values.

    Returns G on the tensor grid xs x ys via two dense matrix products; with
    ``terms`` modes per axis the cost is O((len(xs) + len(ys)) terms^2).
    Used as the independent reference for the rho = 1 grid solver.
    """
    lx = domain.x1 - domain.x0
    ly = domain.y1 - domain.y0
    m = np.arange(1, terms + 1)
    sx = np.sin(np.pi * np.outer(np.asarray(xs) - domain.x0, m) / lx)
    sy = np.sin(np.pi * np.outer(np.asarray(ys) - domain.y0, m) / ly)
    sxq = np.sin(np.pi * m * (source.real - domain.x0) / lx)
    syq = np.sin(np.pi * m * (source.imag - domain.y0) / ly)
    lam = np.pi**2 * ((m**2 / lx**2)[:, None] + (m**2 / ly**2)[None, :])
    coeff = 2.0 * np.pi * (4.0 / (lx * ly)) * np.outer(sxq, syq) / lam
    return sx @ coeff @ sy.T


def mid_mask(grid: GridSpec, source: complex) -> np.ndarray:
    """Central-region nodes away from the source, where reference comparison is fair.

    On Cartesian grids the two grid lines through the source are also
    excluded: the separable series reference converges slowly (worse than
    1e-3 at 200 terms) exactly where an evaluation point shares a coordinate
    with the source, and is back to 1e-5 one cell away.
    """
    pts = grid.interior_points()
    dom = grid.domain
    if grid.is_polar:
        band = 0.25 * (dom.outer - dom.inner)
        r = np.abs(pts)
        central = (r > dom.inner + band) & (r < dom.outer - band)
        exclusion = 0.15 * (dom.outer - dom.inner)
    else:
        lx, ly = dom.x1 - dom.x0, dom.y1 - dom.y0
        central = (
            (pts.real > dom.x0 + 0.25 * lx)
            & (pts.real < dom.x1 - 0.25 * lx)
            & (pts.imag > dom.y0 + 0.25 * ly)
            & (pts.imag < dom.y1 - 0.25 * ly)
        )
        central &= np.abs(pts.real - source.real) > 0.02 * lx
        central &= np.abs(pts.imag - source.imag) > 0.02 * ly
        exclusion = 0.15 * min(lx, ly)
    return central & (np.abs(pts - source) > exclusion)


def reference_error(domain: Rectangle, weight: Weight, n: int, source: complex) -> tuple:
    """Solve on the n x n grid for a constant weight rho and compare with the
    200-term series reference, which is the Green's function for rho = 1.

    The constant-weight Green's function is rho times the rho = 1 one, so the
    solution is divided by rho before the comparison.  Returns the maximum
    error over :func:`mid_mask` nodes and the discrete solution it was
    measured on.
    """
    grid = GridSpec(domain, (n, n))
    sol = solve_green(discretize(grid, weight), source)
    rho = float(np.real(weight.value(np.array([sol.source])))[0])
    xs, ys = grid.axes[0][1:-1], grid.axes[1][1:-1]
    ref = rectangle_green_series(domain, sol.source, xs, ys, terms=200)
    err = float(np.max(np.abs(np.real(sol.values) / rho - ref)[mid_mask(grid, sol.source)]))
    return err, sol
