"""Weighted Bergman kernels via Gram-matrix orthonormalization.

The kernel of the space of weighted square-integrable holomorphic functions
is approximated by truncating a dense basis (monomials on simply connected
domains, Laurent monomials on annuli), assembling the weighted Gram matrix
with an exact-for-polynomials quadrature rule, and evaluating

    K(z, w) = b(w)^H G^{-1} b(z)

through the Cholesky factor G = L L^H, never an inverse of G: b(z) maps to
its coordinates L^-1 b(z), and K(z, w) is their inner product.  Evaluation
takes arrays: all points of an argument share one product with L^-1 (cost
O(order^2) per point), the arguments broadcast against each other, and
scalar arguments give Python scalars.  The module also provides the
minimal-norm extremal function of the class {f : f(t) = 1}, the
reproducing-property residual of the truncated kernel, and the
kernel-derived point distance sqrt(1 - |K(z,w)| / sqrt(K(z,z) K(w,w))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateKernelError,
    IllConditionedGramError,
    NumericError,
    ParameterError,
)
from .geometry import Annulus, Disk, Domain, MoebiusDisk, QuadratureRule, integrate
from .weights import Weight, positive_values

__all__ = [
    "MonomialBasis",
    "LaurentBasis",
    "KernelApproximation",
    "ExtremalFunction",
    "gram_matrix",
    "kernel_from_gram",
    "extremal_function",
    "reproducing_residual",
    "skwarczynski_distance",
]

# Gram matrices whose smallest eigenvalue, after Jacobi scaling, falls below
# this multiple of the largest are trimmed to a smaller basis before
# factorization.
CONDITION_FLOOR = 1e-12

# Nodes per Gram product: bounds the memory of the product's temporary copies.
_GRAM_BLOCK = 256


def _unbox(a):
    """A Python scalar for a 0-d result, the array otherwise."""
    return np.asarray(a).item() if np.ndim(a) == 0 else a


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials (z - center)^n, n = 0..maxdeg, on a simply connected domain."""

    domain: Domain
    maxdeg: int

    def __post_init__(self):
        if isinstance(self.domain, Annulus):
            raise ParameterError("monomials span nothing dense on an annulus; use LaurentBasis")
        if self.maxdeg < 0:
            raise ParameterError("maxdeg must be >= 0")

    @property
    def exponents(self):
        return tuple(range(self.maxdeg + 1))

    @property
    def size(self):
        return self.maxdeg + 1

    @property
    def center(self):
        return self.domain.basis_center

    def evaluate(self, zs) -> np.ndarray:
        """Basis value matrix, one row per point, columns ordered by degree."""
        zeta = np.atleast_1d(np.asarray(zs, dtype=complex)) - self.center
        out = np.empty((zeta.size, self.size), dtype=complex)
        out[:, 0] = 1.0
        for k in range(1, self.size):
            out[:, k] = out[:, k - 1] * zeta
        return out

    def label(self):
        return f"monomials(maxdeg={self.maxdeg})"


@dataclass(frozen=True)
class LaurentBasis:
    """Laurent monomials z^n, minexp <= n <= maxexp, on an origin-centered annulus.

    Columns are ordered by |n| (0, 1, -1, 2, -2, ...) so trimming the tail
    removes the most extreme exponents first.
    """

    domain: Annulus
    minexp: int
    maxexp: int

    def __post_init__(self):
        if not isinstance(self.domain, Annulus):
            raise ParameterError("Laurent bases are only defined on annuli")
        if self.minexp > 0 or self.maxexp < 0:
            raise ParameterError("Laurent range must satisfy minexp <= 0 <= maxexp")

    @property
    def exponents(self):
        exps = sorted(range(self.minexp, self.maxexp + 1), key=lambda n: (abs(n), n < 0))
        return tuple(exps)

    @property
    def size(self):
        return self.maxexp - self.minexp + 1

    @property
    def center(self):
        return 0j

    def evaluate(self, zs) -> np.ndarray:
        z = np.atleast_1d(np.asarray(zs, dtype=complex))
        exps = np.array(self.exponents)
        return z[:, None] ** exps[None, :]

    def label(self):
        return f"laurent({self.minexp}..{self.maxexp})"


def gram_matrix(basis, weight: Weight, rule: QuadratureRule) -> np.ndarray:
    """Hermitian Gram matrix of the basis in the rho-weighted inner product.

    Entry (m, n) is the quadrature sum of e_m conj(e_n) rho over the rule's
    nodes, where rho must be finite and positive (``WeightError`` otherwise).
    Both paths are deterministic and identical under 1 and 2 BLAS
    threads; neither is correctly rounded, and both agree with the
    fsum-reduced sum to about 1e-15 relative.

    On a polar rule (``rule.polar``: nodes c + t_a e^{i theta_b} with
    theta_b = 2 pi b / M, radial weights W_a) the basis is centered at the
    rule's pole c, since the basis and the rule take the same domain's
    center, so e_m = (z - c)^{p_m} for exponents p.  Then

        G_mn = sum_a W_a t_a^(p_m + p_n) rho_hat_a(p_m - p_n),
        rho_hat_a(k) = sum_b rho(c + t_a e^{i theta_b}) e^{i k theta_b},

    with k taken mod M: the same discrete sum, regrouped, so aliasing of
    |p_m - p_n| >= M adds no approximation.  rho_hat comes from one real FFT
    per radius and the radial sums from one (exponent sums x radii) by
    (radii x frequencies) matrix product; the basis is never evaluated at
    the nodes.

    On a Cartesian rule (rectangles) the basis is evaluated at the nodes,
    which are split into blocks of ``_GRAM_BLOCK``; BLAS sums inside each
    block (one matrix product) and the block sums are added in node order.

    On both paths the strict lower triangle is the conjugate mirror of the
    upper one and the diagonal is real, so the result is exactly Hermitian.
    """
    if rule.domain != basis.domain:
        raise ParameterError("quadrature rule and basis live on different domains")
    if weight.domain != basis.domain:
        raise ParameterError("weight and basis live on different domains")
    rho = positive_values(weight, rule.nodes, "quadrature node")
    n = basis.size
    if rule.polar is not None:
        t, w_radial, m = rule.polar
        # rfft gives sum_b rho e^{-i k theta_b}, k = 0..m/2: rho_hat(k) is its
        # conjugate there and, rho being real, its value at m - k above m/2
        spectrum = np.fft.rfft(rho.reshape(len(t), m), axis=1)
        p = np.array(basis.exponents)
        lo = 2 * p.min()
        powers = np.arange(lo, 2 * p.max() + 1)
        H = (w_radial * t ** powers[:, None]) @ spectrum
        k = (p[:, None] - p[None, :]) % m
        low = k <= m // 2
        G = H[p[:, None] + p[None, :] - lo, np.where(low, k, m - k)]
        G = np.where(low, np.conj(G), G)
    else:
        B = basis.evaluate(rule.nodes)
        wr = rule.weights * rho
        G = np.zeros((n, n), dtype=complex)
        for start in range(0, len(wr), _GRAM_BLOCK):
            blk = slice(start, start + _GRAM_BLOCK)
            G += (wr[blk, None] * B[blk]).T @ np.conj(B[blk])
    lower = np.tril_indices(n, -1)
    G[lower] = np.conj(G.T[lower])
    G[np.diag_indices(n)] = G.diagonal().real
    return G


@dataclass(frozen=True, eq=False)
class KernelApproximation:
    """Truncated reproducing kernel backed by a Cholesky-factored Gram matrix.

    ``factor`` is the lower-triangular L with G = L L^H restricted to the
    ``order`` leading basis elements that survived conditioning; the spectrum
    bounds of the retained Jacobi-scaled Gram block D G D, D = diag(G)^(-1/2),
    are recorded for the report.
    """

    basis: object
    weight: Weight
    rule: QuadratureRule
    factor: np.ndarray
    order: int
    requested_order: int
    eig_min: float
    eig_max: float

    def basis_values(self, zs) -> np.ndarray:
        return self.basis.evaluate(zs)[:, : self.order]

    @cached_property
    def _factor_inverse(self) -> np.ndarray:
        """L^-1, computed once per kernel.

        Points are mapped through this inverse by one matrix product rather
        than by a many-column triangular solve: on a 2-vCPU machine with
        threaded OpenBLAS, many-column ``ztrsm`` calls between the Gram
        products sent a disk-identity iteration from 8 ms to 60-130 ms in
        about half of all iterations.  The inverse of a lower-triangular
        matrix is lower triangular; ``np.tril`` zeroes the roundoff above
        the diagonal.
        """
        try:
            return np.tril(np.linalg.inv(self.factor))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Cholesky factor is singular: {exc}") from exc

    def _coords(self, zs) -> np.ndarray:
        """Coordinates L^-1 b(z) of every point, from one product for all of
        them, with shape ``(*np.shape(zs), order)``."""
        zs = np.asarray(zs, dtype=complex)
        y = self.basis_values(zs.ravel()) @ self._factor_inverse.T
        return y.reshape(zs.shape + (self.order,))

    def evaluate(self, z, w):
        """K(z, w), Hermitian in its arguments by construction.

        ``z`` and ``w`` broadcast against each other: the coordinates of all
        z and of all w come from one product each, and the result has the
        broadcast shape.  Scalar arguments give a ``complex``.  The sum runs
        in real arithmetic, so ``evaluate(w, z)`` is ``conj(evaluate(z, w))``
        bit for bit: numpy's complex product fuses one of the two
        multiplications in its imaginary part, and which one depends on the
        order of the factors.
        """
        yz, yw = self._coords(z), self._coords(w)
        im = yz.imag * yw.real
        im -= yz.real * yw.imag
        k = np.empty(im.shape[:-1], dtype=complex)
        # re * re' and im * im' interleaved, as in diagonal
        k.real = np.sum(yz.view(float) * yw.view(float), axis=-1)
        k.imag = np.sum(im, axis=-1)
        return _unbox(k)

    def diagonal(self, z):
        """K(z, z), real; elementwise on arrays, a ``float`` for a scalar.

        The sum runs as in ``evaluate(z, z)``, so both give the same value.
        """
        y = self._coords(z).view(float)
        return _unbox(np.sum(y * y, axis=-1))

    def truncation_tail_estimate(self, margin: float = 0.7):
        """Geometric tail bound for the unweighted disk series at |z| = margin * r.

        The centered-disk kernel expands as sum (n+1) (z conj(w))^n / (pi r^(2n+2)),
        so the omitted tail beyond degree N is bounded by
        t^(N+1) ((N+2) - (N+1) t) / (pi r^2 (1 - t)^2) with t = margin^2.
        Only meaningful for monomial bases on disks; None otherwise.
        """
        if not (isinstance(self.basis, MonomialBasis) and isinstance(self.basis.domain, Disk)
                and not isinstance(self.basis.domain, MoebiusDisk)):
            return None
        r = self.basis.domain.radius
        t = margin**2
        n = self.order - 1
        return t ** (n + 1) * ((n + 2) - (n + 1) * t) / (math.pi * r**2 * (1 - t) ** 2)

    def metadata(self) -> dict:
        return {
            "basis": self.basis.label(),
            "weight": self.weight.representation,
            "requested_order": self.requested_order,
            "effective_order": self.order,
            "gram_eig_min": self.eig_min,
            "gram_eig_max": self.eig_max,
            "quadrature_order": self.rule.order,
            "truncation_tail_estimate_at_0.7": self.truncation_tail_estimate(),
        }


def _column_norms(G: np.ndarray) -> np.ndarray:
    """D^-1 = diag(G)^(1/2), the norm of each basis element.  One that
    underflows on every node has norm 0; its scaled column is then zero too,
    and trimming drops it."""
    return np.sqrt(np.maximum(G.diagonal().real, np.finfo(float).tiny))


def kernel_from_gram(basis, weight: Weight, rule: QuadratureRule) -> KernelApproximation:
    """Assemble the Gram matrix and wrap its Cholesky factor as a kernel.

    The Gram matrix G is trimmed and factored through its Jacobi scaling
    S = D G D, D = diag(G)^(-1/2), whose unit diagonal removes the spread of
    the basis norms: S = C C^H gives G = L L^H with L = D^-1 C, and the
    kernel does not depend on how the basis is scaled.  Diagonal scaling
    comes within a factor of the order of the best diagonal scaling (van
    der Sluis, Numer. Math. 14 (1969) 14-23).  If the smallest eigenvalue of
    S falls below ``CONDITION_FLOOR`` times the largest, trailing basis
    elements are dropped until the retained block is well conditioned; the
    effective order is recorded on the result.

    The retained order is found by bisection, from the full order down.  By
    Cauchy interlacing the smallest eigenvalue of the leading n x n block
    does not grow with n and the largest does not shrink, so the test passes
    on every order up to the largest that passes, and fails above it: about
    log2(order) + 1 eigenvalue calls instead of one per dropped column.
    """
    G = gram_matrix(basis, weight, rule)
    norms = _column_norms(G)
    S = G / np.outer(norms, norms)
    passing, failing, n = 0, G.shape[0] + 1, G.shape[0]
    eigs = kept = None
    while failing - passing > 1:
        eigs = np.linalg.eigvalsh(S[:n, :n])
        if eigs[0] > 0 and eigs[0] >= CONDITION_FLOOR * eigs[-1]:
            passing, kept = n, eigs
        else:
            failing = n
        n = (passing + failing) // 2
    if not passing:
        raise IllConditionedGramError(
            "Gram matrix is numerically singular at every truncation",
            eig_min=float(eigs[0]) if eigs is not None else None,
            eig_max=float(eigs[-1]) if eigs is not None else None,
        )
    n, eigs = passing, kept
    try:
        L = norms[:n, None] * np.linalg.cholesky(S[:n, :n])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by eig check
        raise IllConditionedGramError(
            f"Cholesky factorization failed: {exc}",
            eig_min=float(eigs[0]),
            eig_max=float(eigs[-1]),
        ) from exc
    return KernelApproximation(
        basis=basis,
        weight=weight,
        rule=rule,
        factor=L,
        order=n,
        requested_order=basis.size,
        eig_min=float(eigs[0]),
        eig_max=float(eigs[-1]),
    )


@dataclass(frozen=True, eq=False)
class ExtremalFunction:
    """Unique minimal-norm function with value 1 at t: phi(z) = K(z, t) / K(t, t)."""

    kernel: KernelApproximation
    t: complex
    norm_sq: float

    def value(self, z):
        return self.kernel.evaluate(z, self.t) / self.kernel.diagonal(self.t)

    __call__ = value


def extremal_function(kernel: KernelApproximation, t: complex) -> ExtremalFunction:
    """Extremal function at an interior point; its squared norm is 1 / K(t, t)."""
    if not kernel.basis.domain.contains(t):
        raise ParameterError(f"extremal point {t} is not interior to the domain")
    ktt = kernel.diagonal(t)
    if ktt <= 0:
        raise DegenerateKernelError(f"kernel diagonal {ktt} at t={t} is not positive")
    return ExtremalFunction(kernel=kernel, t=complex(t), norm_sq=1.0 / ktt)


def reproducing_residual(kernel: KernelApproximation, f, t: complex, rule: QuadratureRule) -> float:
    """| f(t) - <f, K(., t)>_rho | for an evaluator f in the basis span.

    ``f`` is vectorized as for :func:`integrate`: called on an array, it
    returns one value per point or a scalar; any other shape raises
    ``ParameterError``.
    """
    ft = np.asarray(f(np.array([t], dtype=complex)), dtype=complex)
    if ft.shape not in ((), (1,)):
        raise ParameterError(f"f gave shape {ft.shape} on one point; it must be vectorized")
    weight = kernel.weight

    def integrand(zs):
        fz = np.asarray(f(zs), dtype=complex)
        kz = kernel.evaluate(zs, t)
        return fz * np.conj(kz) * np.asarray(weight.value(zs), dtype=complex)

    inner = integrate(rule, integrand)
    return abs(complex(ft.reshape(())) - inner)


def skwarczynski_distance(kernel: KernelApproximation, z, w):
    """Kernel-derived distance sqrt(1 - |K(z,w)| / sqrt(K(z,z) K(w,w))) in [0, 1].

    Elementwise over the broadcast of ``z`` and ``w``; ``float`` for scalars.
    Raises if any diagonal value is not positive or any radicand is below
    -1e-12.
    """
    kzz = kernel.diagonal(z)
    kww = kernel.diagonal(w)
    if np.any(kzz <= 0) or np.any(kww <= 0):
        raise DegenerateKernelError("kernel diagonal must be positive for the distance")
    radicand = 1.0 - np.abs(kernel.evaluate(z, w)) / np.sqrt(kzz * kww)
    if np.any(radicand < -1e-12):
        raise NumericError(
            f"distance radicand {np.min(radicand)} is negative beyond tolerance")
    return _unbox(np.sqrt(np.maximum(radicand, 0.0)))
