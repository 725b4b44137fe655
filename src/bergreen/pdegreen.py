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
where T_1 solves rho = 1 by transforms (Hockney 1965; Buzbee, Golub &
Nielson 1970): on rectangles a sine transform on both axes, which
diagonalizes the five-point Laplacian, and on annuli a Fourier transform
along the angle and a tridiagonal system along the radius per mode.
:meth:`DiscreteOperator.solve` preconditions iterative refinement with it
(Concus & Golub 1973), gated on the backward error of A itself, so the
``factorization`` check, which compares the solution with the
gauge-factored unweighted one, still measures the discretization.  Where
the gauge varies over the grid, T_1 runs in single precision: the
correction solve of a refinement need only contract, while the residual is
formed in double (Moler 1967; Carson & Higham 2018).  A constant gauge
keeps T_1 in double, since there it is the exact inverse, whose own answer
mostly meets the tolerance with no correction.  Every other weight, and a
refinement that does not converge, goes through the sparse LU, which alone
needs scipy.

The continuum operator is self-adjoint, and the discretization keeps this
up to the cell-area factor: with D = I on rectangles and D = diag(r) on
annuli, H = D A is Hermitian (to roundoff).  The source normalization
divides by the cell area h1 h2 D[s], so the discrete Green's function is
G_h(x, s) = kappa (H^-1)[x, s] with kappa = -(pi/2)/(h1 h2), and it is
reciprocal: G_h(z, w) = conj(G_h(w, z)).  :func:`solve_mixed` uses this to
get d^2 G_h / dz d(conj w) at a pair from one solve whose sources are the
four nodes of the d/dz stencil at z, where differencing across sources
would need one solve per neighbour of w.

Every grid solve takes point sources, (node, value) pairs per right-hand
side, never a dense right-hand side: one node for :func:`solve_green`, four
for each pair of :func:`solve_mixed`.  It holds the block of solutions,
T_1's work and at most one correction block, of the rows whose backward
error is still above the tolerance; the residuals are formed one row at a
time.  Only the sparse LU forms the dense right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, SolverError
from .geometry import Annulus, Domain, Rectangle, check_grid_shape
from .weights import (
    HoloModulusSquaredWeight,
    LogHarmonicWeight,
    Weight,
    positive_values,
    solve_gauge,
)

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


def _full_weight_grid(grid: GridSpec, weight: Weight, columns: int | None = None) -> np.ndarray:
    """rho sampled on interior plus boundary layers, shape (n1 + 2, n2 + 2),
    or on the first ``columns`` columns of that grid only; it must be finite
    and positive there (:func:`~bergreen.weights.positive_values`).

    The periodic angular axis of an annulus has no boundary layer; it is
    padded with its last and first angles instead, so that neighbour slices
    wrap around the circle on both grids alike.
    """
    a1, a2 = grid.axes
    if grid.is_polar:
        a2 = np.concatenate([a2[-1:], a2, a2[:1]])
        pts = a1[:, None] * np.exp(1j * a2[None, :columns])
    else:
        pts = a1[:, None] + 1j * a2[None, :columns]
    return positive_values(weight, pts, "grid node")


#: The refinement of :meth:`DiscreteOperator.solve` stops correcting a row
#: at its first iterate, its starting one included, whose normwise backward
#: error is at most REFINEMENT_TOLERANCE, and gives up after
#: REFINEMENT_MAX_STEPS corrections.
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
        """The operator times x of shape (size,) or (size, m), by
        :meth:`_row_operator` on the columns of x as rows."""
        rows = np.ascontiguousarray(np.reshape(x, (self.size, -1)).T)
        return self._row_operator()(rows).T.reshape(np.shape(x))

    def _row_operator(self):
        """The function ``(rows, out=None)`` that applies the operator to each
        row of an (m, size) block, one vector per row, by one contiguous slice
        of the row per stencil term, into ``out`` if given; off the grid is
        zero.

        It reads the coefficients of :attr:`stencil` where they lie, in the
        operator's dtype, so a complex operator multiplies complex by complex
        and casts none on the way.  The centre term writes each output row,
        and every other term is formed in one scratch row, held from one
        call to the next, and added in.  A term with d2 = 0 shifts whole
        grid rows of the row's (n1, n2) view and multiplies by the stored
        coefficients, which broadcast.  A term with d2 != 0 shifts the flat
        row by d1 n2 + d2, and its scratch row is zeroed in the column whose
        neighbour j + d2 lies off the grid before it is added; on annuli one
        more term takes that column to its wrapped neighbour.  Only a
        constant weight's (n1, 1) coefficients of such a term are expanded
        to the grid, once per call of this method.
        """
        n1, n2 = self.grid.shape
        dtype = self.dtype
        scratch = _held_block()

        def shift(d, n):  # (target, source) slices taking entry k + d of n to entry k
            return slice(max(-d, 0), n - max(d, 0)), slice(max(d, 0), n - max(-d, 0))

        center = self.stencil[(0, 0)].astype(dtype, copy=False)
        terms = []  # (on the (n1, n2) view?, target, source, coefficients, edge column), by offset
        for (d1, d2), coeff in self.stencil.items():
            coeff = coeff.astype(dtype, copy=False)
            r_out, r_in = shift(d1, n1)
            if d2 == 0:
                if d1:
                    terms.append((True, r_out, r_in, coeff[r_out], None))
                continue
            edge = n2 - 1 if d2 > 0 else 0
            grid_coeff = np.broadcast_to(coeff, (n1, n2))  # ravels to a view unless expanded
            f_out, f_in = shift(d1 * n2 + d2, n1 * n2)
            terms.append((False, f_out, f_in, grid_coeff.ravel()[f_out], edge))
            if self.grid.is_polar:
                terms.append((True, (r_out, edge), (r_in, n2 - 1 - edge), grid_coeff[r_out, edge], None))

        def apply_rows(rows, out=None):
            if out is None:
                out = np.empty(rows.shape, dtype=np.result_type(dtype, rows.dtype))
            term = scratch((n1 * n2,), out.dtype)
            grid_term = term.reshape(n1, n2)
            for x, y in zip(rows, out):
                grid_x, grid_y = x.reshape(n1, n2), y.reshape(n1, n2, copy=False)
                np.multiply(center, grid_x, out=grid_y)
                for on_grid, target, source, coeff, edge in terms:
                    if on_grid:
                        grid_y[target] += np.multiply(coeff, grid_x[source], out=grid_term[target])
                        continue
                    np.multiply(coeff, x[source], out=term[target])
                    grid_term[:, edge] = 0
                    y[target] += term[target]
            return out

        return apply_rows

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

    def solve(self, nodes, values, stats: dict | None = None) -> np.ndarray:
        """Solve A x_j = b_j for m point-source right-hand sides, and return
        the (m, size) block of the x_j, one per row.  Nothing is kept between
        calls, so batch all sources into one call.

        Source j is b_j = sum_i values[j, i] e_(nodes[j, i]): ``nodes`` is an
        (m, k) array of flat node indices i n2 + j, distinct within a row,
        and ``values`` an (m, k) array of their values.  No b_j is formed.
        The first iterate scatters the values into the block of x, each
        residual is -A x with the values added at their nodes, which gives
        the bits of b - A x, and the norm of b in the backward error is read
        off the values.  Only the sparse LU forms the dense b_j.

        For a weight with a gauge (``method == "transform"``) it is iterative
        refinement preconditioned by M b = conj(mu) T_1(mu b), T_1 the rho = 1
        transform solver (the gauge identity of the module docstring): x = M b,
        then x += M (b - A x) for each row whose backward error (below) is
        above ``REFINEMENT_TOLERANCE``, M b itself included; a row that meets
        it is not corrected again.  For a constant weight M b mostly passes
        (point sources on 64^2 to 192^2 squares and the unit annulus), and
        random sources on larger squares take one correction; the identity
        check's square takes five.  After ``REFINEMENT_MAX_STEPS``
        corrections, or one that does not shrink the largest backward error
        of the rows still corrected, the sparse LU solves every row instead.
        It holds x, T_1's work and at most one correction block, of the rows
        above the tolerance (:meth:`_refinement`).

        Otherwise it is a sparse LU solve of :attr:`matrix`.  The nine-point
        stencil is structurally symmetric, so the column ordering is minimum
        degree on A^T + A, which fills less than COLAMD.

        T_1 runs in float32 when ``gauge`` is an array, one value per node,
        and in float64 for a constant weight (why: :meth:`_refinement`).
        Each row is scaled by a power of two from its peak before the cast,
        so float32 overflows nowhere double does not, and b 2^k gives x 2^k
        bit for bit.  The residual b - A x, the stencil apply and the
        backward error stay in double, so the tolerance and the reported
        backward error keep their meaning.

        A ``stats`` dict receives the method that solved, the unknowns, the
        most corrections any row took and the largest normwise backward error
        over the rows (Rigal & Gaches 1967), ||D^-1 (b - A x)|| / (||D^-1 A||
        ||x|| + ||D^-1 b||) in the max norm with D = |diag A|.  Its norms are
        maxima, so it is deterministic and independent of the BLAS thread
        count.
        """
        nodes, values = np.asarray(nodes), np.asarray(values)
        well_formed = nodes.ndim == 2 and values.shape == nodes.shape and nodes.dtype.kind in "iu"
        ordered = np.sort(nodes, axis=1) if well_formed else None
        if (not well_formed or np.any(ordered[:, :1] < 0) or np.any(ordered[:, -1:] >= self.size)
                or np.any(ordered[:, 1:] == ordered[:, :-1])):
            raise ParameterError(f"point sources need (m, k) node indices, distinct within a row and "
                                 f"in [0, {self.size}), and values of their shape")
        apply_rows = self._row_operator()

        def residual(j, x, out):  # b_j - A x into the row out
            apply_rows(x[None], out=out[None])
            np.negative(out, out=out)
            out[nodes[j]] += values[j]
            return out

        backward_error = self._backward_error(nodes, values)
        refined = None if self.gauge is None else self._refinement(nodes, values, residual, backward_error)
        method = "sparse_lu" if refined is None else "transform"
        if refined is None:
            x = self._lu_solve(nodes, values)
            r = np.empty(self.size, x.dtype)
            refined = x, 0, float(np.max([backward_error(j, residual(j, row, r), row)
                                          for j, row in enumerate(x)]))
        x, steps, eta = refined
        if stats is not None:
            stats.update(method=method, unknowns=self.size, refinement_steps=steps, backward_error=eta)
        return x

    def _refinement(self, nodes, values, residual, backward_error):
        """(x, corrections, backward error) of the refinement of :meth:`solve`,
        x the (m, size) block of its solutions, or None if it does not
        converge.

        A gauge that varies over the grid runs T_1 in single precision:
        conj(mu) T_1 mu only approximates A^-1 there, and shrinks the
        backward error by a factor of 2e-3 to 0.2 a correction on the grids
        tested, so T_1's own rounding of about 1e-7 costs no step.  A
        constant gauge's T_1 is an exact inverse, whose own answer passes
        with no correction only in double.

        Each row's residual and backward error are formed in one row buffer:
        the next free row of the correction block, once there is one, which
        a row above the tolerance keeps.  The block is allocated at the first
        such row, with one row for it and each row not yet checked, and that
        row's residual is moved into it, so a solve whose first iterate
        passes allocates none.  T_1 overwrites the kept rows with their
        corrections, and keeps its work blocks from one step to the next."""
        mu = self.gauge  # a scalar or one value per node, alike for every row
        mu_bar = np.conj(mu)
        unweighted = _transform_solver(self.grid, np.float32 if np.ndim(mu) else np.float64)
        m = len(nodes)
        x = np.zeros((m, self.size), np.result_type(self.dtype, values, mu))
        np.put_along_axis(x, nodes, (mu[nodes] if np.ndim(mu) else mu) * values, axis=1)
        unweighted(x)
        x *= mu_bar
        r = np.empty(self.size, x.dtype)
        etas = np.empty(m)
        active, block, previous = range(m), None, math.inf
        for steps in range(REFINEMENT_MAX_STEPS + 1):
            failing = []
            for position, j in enumerate(active):
                row = r if block is None else block[len(failing)]
                etas[j] = backward_error(j, residual(j, x[j], row), x[j])
                if not etas[j] <= REFINEMENT_TOLERANCE:
                    if block is None:
                        block = np.empty((len(active) - position, self.size), x.dtype)
                        block[0] = r
                        r = None  # the block's free rows take the residuals from here on
                    failing.append(j)
            if not failing:
                return x, steps, float(etas.max())
            eta = etas[failing].max()
            if not eta < previous or steps == REFINEMENT_MAX_STEPS:
                return None
            previous = eta
            correction = block[:len(failing)]
            correction *= mu
            unweighted(correction)
            correction *= mu_bar
            for j, c in zip(failing, correction):
                x[j] += c
            active = failing

    def _backward_error(self, nodes, values):
        """The function (j, r, x) -> normwise backward error of row j, given
        one row x and r = b_j - A x.  D = |diag A| scales each row's grid,
        ||D^-1 A|| is the largest absolute row sum of the scaled stencil, and
        ||D^-1 b_j|| is read off the values.  |v|, scaled by D^-1 where it
        is, is taken into one (n1, n2) buffer, allocated here."""
        n1, n2 = self.grid.shape
        inverse = 1.0 / np.abs(self.stencil[(0, 0)])
        a_norm = np.max(sum(np.abs(c) for c in self.stencil.values()) * inverse)
        b_norm = np.max(np.abs(values) * np.broadcast_to(inverse, (n1, n2))[np.divmod(nodes, n2)],
                        axis=1, initial=0.0)
        magnitude = np.empty((n1, n2))

        def peak(v, scale=None):
            np.abs(v.reshape(n1, n2), out=magnitude)
            if scale is not None:
                np.multiply(magnitude, scale, out=magnitude)
            return magnitude.max()

        def backward_error(j, r, x):
            scale = a_norm * peak(x) + b_norm[j]
            return float(peak(r, inverse) / (scale if scale > 0 else 1.0))

        return backward_error

    def _lu_solve(self, nodes, values) -> np.ndarray:
        """The (m, size) block of solutions by the sparse LU, the one place
        that forms the dense right-hand sides."""
        import scipy.sparse.linalg as spla
        try:
            lu = spla.splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(
                f"sparse factorization failed on {self.size} unknowns: {exc}"
            ) from exc
        rows = np.zeros((len(nodes), self.size), np.result_type(self.dtype, values))
        np.put_along_axis(rows, nodes, values, axis=1)
        return lu.solve(rows.T).T


def _sine_table(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix of order n, symmetric and its own inverse.
    The products j k are reduced mod 2 (n + 1) so that the sine arguments stay
    exact, and index the 2 (n + 1) distinct sines they take."""
    k = np.arange(1, n + 1)
    period = 2 * n + 2
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(period) / (n + 1))
    jk = np.outer(k, k)
    jk -= jk // period * period  # the remainder, which numpy's % computes slower
    return sines[jk]


def _held_block():
    """A function (shape, dtype) -> uninitialized block that returns the same
    block while the shape and dtype repeat, so that a solver called once per
    refinement step faults its scratch in once."""
    held = []

    def block(shape, dtype):
        if not held or held[0].shape != shape or held[0].dtype != dtype:
            held[:] = [np.empty(shape, dtype)]
        return held[0]

    return block


def _transform_solver(grid: GridSpec, dtype=np.float64):
    """Direct solver T_1 of the rho = 1 operator for an (m, size) block, one
    right-hand side per row, which it overwrites with the solution and
    returns.

    The operator is 1/4 [ (1/r) d1(r d1) + (1/r^2) d2^2 ], discretized
    with the metric of :func:`_assemble` (r = 1 on rectangles).  The
    transforms run on real blocks of ``dtype``, float64 or float32, in which
    the sine tables, eigenvalues and sweep factors are held too.  They take
    the M real rows as (n1, M, n2) grids on rectangles, radius outermost,
    and as (M, n1, n2) on annuli.  A C-contiguous block of ``dtype`` is
    already that layout on an annulus, and on a rectangle if it is one row,
    and is then solved where it lies.  Any other block goes through a work
    block of the layout held between calls: complex rows as their real
    rows, then their imaginary rows.  A part already in ``dtype`` is
    copied.  Any other part is cast, each row scaled first by the power of
    two that brings its peak into [0.5, 1); the scaling is exact, and undone
    exactly on the way back, and without it float32 would overflow on rows
    that double holds.
    """
    dtype = np.dtype(dtype)
    n1, n2 = grid.shape
    radius_outer = not grid.is_polar
    solve_real = (_annulus_solver if grid.is_polar else _rectangle_solver)(grid, dtype)
    work = _held_block()

    # apply does not call itself: that closure would be a cycle, freed only by gc
    def apply(rows):
        m = len(rows)
        if rows.dtype == dtype and rows.flags.c_contiguous and (m == 1 or not radius_outer):
            solve_real(rows.reshape((n1, m, n2) if radius_outer else (m, n1, n2)))
            return rows
        parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
        total = len(parts) * m
        block = work((n1, total, n2) if radius_outer else (total, n1, n2), dtype)
        grids = block.transpose(1, 0, 2) if radius_outer else block  # (total, n1, n2)
        copies = []  # (part as (m, n1, n2) grids, its grids in the block, power or None)
        for k, part in enumerate(parts):
            part_grids, part_block = part.reshape(m, n1, n2, copy=False), grids[k * m:(k + 1) * m]
            if part.dtype == dtype:
                np.copyto(part_block, part_grids)
                copies.append((part_grids, part_block, None))
                continue
            peak = np.maximum(part.max(axis=1), -part.min(axis=1))
            # clipped so that 2^-e and 2^e are both normal doubles
            e = np.clip(np.frexp(peak)[1], -1021, 1021)[:, None, None]
            np.multiply(part_grids, np.ldexp(1.0, -e), out=part_block, casting="same_kind")
            copies.append((part_grids, part_block, np.ldexp(1.0, e)))
        solve_real(block)
        for part_grids, part_block, power in copies:
            if power is None:
                np.copyto(part_grids, part_block)
            else:
                np.multiply(part_block, power, out=part_grids)
        return rows

    return apply


def _rectangle_solver(grid: GridSpec, dtype: np.dtype):
    """T_1 on a rectangle, where the DST-I on both axes diagonalizes the
    five-point Laplacian:  T_1 b = S1 [ (S1 B S2) / Lambda ] S2,  B the
    (n1, n2) grid of a row b, Lambda_ij = (lam1_i + lam2_j) / 4 and lam the
    Dirichlet second-difference eigenvalues.  A square grid shares one sine
    table between the axes.

    The block holds its M grids radius outermost, as (n1, M, n2), so that
    each transform is one matrix product over the whole block: an S2
    product takes it as one (n1 M, n2) array and an S1 product as one
    (n1, M n2) array (Goto & van de Geijn 2008: one large product, not M
    small ones).  They alternate between the block and one held scratch
    block of its shape, so the last one writes the result over the block.
    """
    n1, n2 = grid.shape
    h1, h2 = grid.spacing
    s1 = _sine_table(n1).astype(dtype)
    s2 = s1 if n2 == n1 else _sine_table(n2).astype(dtype)
    lam1, lam2 = (-(2.0 * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) / h) ** 2
                  for n, h in ((n1, h1), (n2, h2)))
    inverse = (4.0 / (lam1[:, None] + lam2)).astype(dtype)[:, None, :]
    scratch = _held_block()

    def solve_real(a):
        y = scratch(a.shape, dtype)
        rows_a, rows_y = a.reshape(-1, n2, copy=False), y.reshape(-1, n2)
        cols_a, cols_y = a.reshape(n1, -1, copy=False), y.reshape(n1, -1)
        np.matmul(rows_a, s2, out=rows_y)
        np.matmul(s1, cols_y, out=cols_a)
        a *= inverse
        np.matmul(rows_a, s2, out=rows_y)
        np.matmul(s1, cols_y, out=cols_a)
        return a

    return solve_real


def _annulus_solver(grid: GridSpec, dtype: np.dtype):
    """T_1 on an annulus.  A real FFT along the periodic angle diagonalizes
    the axis-2 second difference, with eigenvalues lam_k.  The radial metric
    r varies, so each mode k is then one tridiagonal system along axis 1,
    with diagonal  -(r+ + r-)/(r h1^2) + lam_k/r^2  and off-diagonals
    r+-/(r h1^2), all times 1/4, solved by a Thomas sweep over all modes and
    rows at once.

    The modes are held as (n1, m, n_modes), radius outermost, plus one
    spare slab for the sweep's products, so that each sweep step updates
    one contiguous (m, n_modes) slab in place.  The FFTs write into that layout
    and back over the block.
    """
    n1, n2 = grid.shape
    h1, h2 = grid.spacing
    r = grid.axes[0][1:-1]
    r_p, r_m = r + 0.5 * h1, r - 0.5 * h1
    lam = -(2.0 * np.sin(np.pi * np.arange(n2 // 2 + 1) / n2) / h2) ** 2
    lower = 0.25 * r_m / (r * h1**2)
    upper = 0.25 * r_p / (r * h1**2)
    diag = 0.25 * (lam[None, :] / (r**2)[:, None] - ((r_p + r_m) / (r * h1**2))[:, None])

    # elimination factors, shared by every right-hand side: pivot[i] is the
    # reciprocal pivot of row i and sup[i] its eliminated super-diagonal
    pivot = np.empty(diag.shape)
    sup = np.empty(diag.shape)
    prev = np.zeros(len(lam))
    for i in range(n1):
        pivot[i] = 1.0 / (diag[i] - lower[i] * prev)
        prev = sup[i] = upper[i] * pivot[i]
    lower, pivot, sup = (v.astype(dtype) for v in (lower, pivot, sup))
    modes = _held_block()

    def solve_real(a):
        grids = a.reshape(-1, n1, n2)
        held = modes((n1 + 1, len(grids), len(lam)), np.result_type(dtype, np.complex64))
        y, product = held[:n1], held[n1]
        np.fft.rfft(grids, axis=2, out=y.transpose(1, 0, 2))
        y[0] *= pivot[0]
        for i in range(1, n1):
            y[i] -= np.multiply(lower[i], y[i - 1], out=product)
            y[i] *= pivot[i]
        for i in range(n1 - 2, -1, -1):
            y[i] -= np.multiply(sup[i], y[i + 1], out=product)
        np.fft.irfft(y.transpose(1, 0, 2), n=n2, axis=2, out=grids)
        return a

    return solve_real


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
    constant = weight.is_constant
    # all columns of a constant weight alike: coefficients for one, from three
    rho = _full_weight_grid(grid, weight, 3 if constant else None)
    div_entries, rot_entries = _assemble(grid, rho)
    stencil = {offset: 0.25 * coeff for offset, coeff in div_entries.items()}
    if any(np.max(np.abs(v)) > 0 for v in rot_entries.values()):
        # held in the operator's dtype, which every product with it then takes
        stencil = {offset: coeff.astype(complex) for offset, coeff in stencil.items()}
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
    stats = {}
    (sol,) = op.solve([[idx[0] * grid.shape[1] + idx[1]]], [[-(math.pi / 2.0) / cell_area]], stats)
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
    The right-hand sides go to one ``op.solve`` call as point sources, the
    four nodes z+a of each pair with the values D^-1 conj(c_a), so no dense
    block of them is formed; it fills ``stats`` as in
    :meth:`DiscreteOperator.solve`.  For a real matrix the sources are real:
    the real parts of the values, then their imaginary parts, on the same
    nodes, and y is formed as y[k] + 1j y[m + k] at the four nodes w+o of
    each pair only.
    """
    grid = op.grid
    n2 = grid.shape[1]
    h1, h2 = grid.spacing
    stencils = [tuple(_dz_stencil(grid, _snap_inside(grid, p, "evaluation point"))
                      for p in pair) for pair in pairs]

    radii = grid.axes[0][1:-1] if grid.is_polar else np.ones(grid.shape[0])
    m = len(stencils)
    nodes = np.array([[node for node, _ in dz] for dz, _ in stencils], dtype=np.intp)
    values = np.array([[np.conj(c) / radii[node // n2] for node, c in dz] for dz, _ in stencils],
                      dtype=complex)
    real = not np.issubdtype(op.dtype, np.complexfloating)
    if real:
        nodes, values = np.concatenate([nodes, nodes]), np.concatenate([values.real, values.imag])
    y = op.solve(nodes, values, stats)
    kappa = -(math.pi / 2.0) / (h1 * h2)

    def value(node, k):  # y at one node for pair k; a real block holds it in two rows
        return y[k, node] + 1j * y[m + k, node] if real else y[k, node]

    return np.array([kappa * np.conj(sum(c * value(node, k) for node, c in dw))
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

    Returns G on the tensor grid xs x ys via two dense matrix products, which
    with ``terms`` modes per axis cost O(len(xs) terms^2 + len(xs) len(ys)
    terms).  The sines of xs serve ys too when both axes take the same
    offsets from their lower edges over the same length.  Used as the
    independent reference for the rho = 1 grid solver.
    """
    lx = domain.x1 - domain.x0
    ly = domain.y1 - domain.y0
    m = np.arange(1, terms + 1)
    dx, dy = np.asarray(xs) - domain.x0, np.asarray(ys) - domain.y0
    sx = np.sin(np.pi * np.outer(dx, m) / lx)
    sy = sx if lx == ly and np.array_equal(dx, dy) else np.sin(np.pi * np.outer(dy, m) / ly)
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
    with the source, and is back to 1e-5 one cell away.  There the mask is
    built from the axes: the distance to the source is taken only at the
    nodes whose coordinates both pass, and :func:`reference_error` evaluates
    the series on the mask's bounding box only.
    """
    dom = grid.domain
    if grid.is_polar:
        pts = grid.interior_points()
        band = 0.25 * (dom.outer - dom.inner)
        r = np.abs(pts)
        central = (r > dom.inner + band) & (r < dom.outer - band)
        exclusion = 0.15 * (dom.outer - dom.inner)
        return central & (np.abs(pts - source) > exclusion)
    xs, ys = (a[1:-1] for a in grid.axes)
    dx, dy = xs - source.real, ys - source.imag
    lx, ly = dom.x1 - dom.x0, dom.y1 - dom.y0
    i = np.flatnonzero((xs > dom.x0 + 0.25 * lx) & (xs < dom.x1 - 0.25 * lx) & (np.abs(dx) > 0.02 * lx))
    j = np.flatnonzero((ys > dom.y0 + 0.25 * ly) & (ys < dom.y1 - 0.25 * ly) & (np.abs(dy) > 0.02 * ly))
    mask = np.zeros(grid.shape, dtype=bool)
    mask[np.ix_(i, j)] = np.hypot(dx[i, None], dy[j]) > 0.15 * min(lx, ly)
    return mask


def reference_error(domain: Rectangle, weight: Weight, n: int, source: complex) -> tuple:
    """Solve on the n x n grid for a constant weight rho and compare with the
    200-term series reference, which is the Green's function for rho = 1.

    The constant-weight Green's function is rho times the rho = 1 one, so the
    solution is divided by rho before the comparison.  The series is
    evaluated on the bounding box of the :func:`mid_mask` nodes only, about
    half the rows and half the columns.  Returns the maximum error over
    those nodes and the discrete solution it was measured on.
    """
    grid = GridSpec(domain, (n, n))
    sol = solve_green(discretize(grid, weight), source)
    rho = float(np.real(weight.value(np.array([sol.source])))[0])
    mask = mid_mask(grid, sol.source)
    rows, cols = (np.flatnonzero(mask.any(axis=a)) for a in (1, 0))
    box = slice(rows.min(), rows.max() + 1), slice(cols.min(), cols.max() + 1)
    xs, ys = (a[1:-1][s] for a, s in zip(grid.axes, box))
    ref = rectangle_green_series(domain, sol.source, xs, ys, terms=200)
    err = float(np.max(np.abs(np.real(sol.values[box]) / rho - ref)[mask[box]]))
    return err, sol
