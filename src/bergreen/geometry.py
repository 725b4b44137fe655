"""Planar model domains, exhaustion sequences, Moebius maps, and quadrature.

The geometry layer supplies the sets everything else integrates over: the
disk family (unit disk, general disks, Moebius images of the unit disk),
origin-centered annuli, and axis-aligned rectangles.  It also builds the
concentric exhaustion sequences used in convergence experiments and the
tensor-product quadrature rules (polar for disks and annuli, Cartesian for
rectangles) that back every area integral in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericError, ParameterError, UnsupportedDomainError

__all__ = [
    "Domain",
    "UnitDisk",
    "Disk",
    "MoebiusDisk",
    "Annulus",
    "Rectangle",
    "Exhaustion",
    "QuadratureRule",
    "MoebiusMap",
    "make_domain",
    "exhaustion_sequence",
    "build_quadrature",
    "integrate",
    "check_grid_shape",
]


class Domain:
    """Common interface of the model domains.

    A domain knows a strict membership test (optionally with a positive
    margin), its area, its natural expansion center, and how to sample
    boundary and interior points.  Subclasses write the membership test once,
    elementwise on arrays, as ``contains_many``.
    """

    kind = "domain"

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return bool(self.contains_many(complex(z), margin))

    def contains_many(self, zs, margin: float = 0.0):
        raise NotImplementedError

    def closure_distance(self, z: complex) -> float:
        """Distance from z to the closed domain; 0.0 when z lies in the closure."""
        raise NotImplementedError

    @property
    def area(self) -> float:
        raise NotImplementedError

    @property
    def basis_center(self) -> complex:
        """Expansion center for polynomial bases on this domain."""
        raise NotImplementedError

    def boundary_points(self, count: int = 64):
        raise NotImplementedError

    def sample_interior(self, rng, count: int, margin: float = 0.7):
        """Draw points uniformly from the domain shrunk by the given factor about its center."""
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Domain):
    center: complex = 0j
    radius: float = 1.0

    kind = "disk"

    def __post_init__(self):
        if not self.radius > 0:
            raise ParameterError(f"disk radius must be positive, got {self.radius}")

    def contains_many(self, zs, margin=0.0):
        return np.abs(np.asarray(zs) - self.center) < self.radius - margin

    def closure_distance(self, z):
        return max(0.0, abs(complex(z) - self.center) - self.radius)

    @property
    def area(self):
        return math.pi * self.radius**2

    @property
    def basis_center(self):
        return self.center

    def boundary_points(self, count=64):
        return self.center + self.radius * np.exp(2j * np.pi * np.arange(count) / count)

    def sample_interior(self, rng, count, margin=0.7):
        r = self.radius * margin * np.sqrt(rng.uniform(0.0, 1.0, count))
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        return self.center + r * np.exp(1j * phi)


def UnitDisk() -> Disk:
    """The unit disk, ``Disk(0, 1)``."""
    return Disk()


@dataclass(frozen=True)
class MoebiusDisk(Disk):
    """Image of the unit disk under z -> e^{i theta} (z - a) / (1 - conj(a) z).

    The map is a disk automorphism, so as a point set this is the unit disk,
    and every geometry member is the unit disk's; the parameters matter for
    the transport of Green's functions.
    """

    center: complex = field(default=0j, init=False)
    radius: float = field(default=1.0, init=False)
    a: complex = 0j
    theta: float = 0.0

    kind = "moebius_disk"

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise ParameterError(f"Moebius parameter must satisfy |a| < 1, got |a|={abs(self.a)}")

    @property
    def map(self) -> "MoebiusMap":
        return MoebiusMap(self.a, self.theta)


@dataclass(frozen=True)
class Annulus(Domain):
    inner: float = 0.5
    outer: float = 1.0

    kind = "annulus"

    def __post_init__(self):
        if not (0 < self.inner < self.outer):
            raise ParameterError(
                f"annulus needs 0 < inner < outer, got ({self.inner}, {self.outer})"
            )

    def contains_many(self, zs, margin=0.0):
        r = np.abs(np.asarray(zs))
        return (r > self.inner + margin) & (r < self.outer - margin)

    def closure_distance(self, z):
        r = abs(complex(z))
        if r < self.inner:
            return self.inner - r
        if r > self.outer:
            return r - self.outer
        return 0.0

    @property
    def area(self):
        return math.pi * (self.outer**2 - self.inner**2)

    @property
    def basis_center(self):
        return 0j

    def boundary_points(self, count=64):
        half = max(count // 2, 1)
        ang_in = np.exp(2j * np.pi * np.arange(half) / half)
        ang_out = np.exp(2j * np.pi * np.arange(count - half) / max(count - half, 1))
        return np.concatenate([self.inner * ang_in, self.outer * ang_out])

    def sample_interior(self, rng, count, margin=0.7):
        mid = 0.5 * (self.inner + self.outer)
        half = 0.5 * (self.outer - self.inner) * margin
        r = rng.uniform(mid - half, mid + half, count)
        phi = rng.uniform(0.0, 2.0 * np.pi, count)
        return r * np.exp(1j * phi)


@dataclass(frozen=True)
class Rectangle(Domain):
    x0: float = 0.0
    x1: float = 1.0
    y0: float = 0.0
    y1: float = 1.0

    kind = "rectangle"

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ParameterError("rectangle needs x0 < x1 and y0 < y1")

    def contains_many(self, zs, margin=0.0):
        zs = np.asarray(zs)
        return (
            (zs.real > self.x0 + margin)
            & (zs.real < self.x1 - margin)
            & (zs.imag > self.y0 + margin)
            & (zs.imag < self.y1 - margin)
        )

    def closure_distance(self, z):
        z = complex(z)
        dx = max(self.x0 - z.real, 0.0, z.real - self.x1)
        dy = max(self.y0 - z.imag, 0.0, z.imag - self.y1)
        return math.hypot(dx, dy)

    @property
    def area(self):
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def basis_center(self):
        return complex(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def boundary_points(self, count=64):
        # Walk the perimeter at equal arc length.
        lx, ly = self.x1 - self.x0, self.y1 - self.y0
        per = 2 * (lx + ly)
        s = per * np.arange(count) / count
        pts = np.empty(count, dtype=complex)
        for k, t in enumerate(s):
            if t < lx:
                pts[k] = complex(self.x0 + t, self.y0)
            elif t < lx + ly:
                pts[k] = complex(self.x1, self.y0 + (t - lx))
            elif t < 2 * lx + ly:
                pts[k] = complex(self.x1 - (t - lx - ly), self.y1)
            else:
                pts[k] = complex(self.x0, self.y1 - (t - 2 * lx - ly))
        return pts

    def sample_interior(self, rng, count, margin=0.7):
        c = self.basis_center
        hx = 0.5 * (self.x1 - self.x0) * margin
        hy = 0.5 * (self.y1 - self.y0) * margin
        x = rng.uniform(c.real - hx, c.real + hx, count)
        y = rng.uniform(c.imag - hy, c.imag + hy, count)
        return x + 1j * y


def make_domain(kind: str, **params) -> Domain:
    """Construct a domain from its kind tag and parameters.

    Complex parameters may be passed as Python complex numbers or as
    ``[re, im]`` pairs (the JSON form).
    """

    def _c(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)

    kind = kind.lower().replace("-", "_")
    if kind == "unit_disk":
        return UnitDisk()
    if kind == "disk":
        return Disk(center=_c(params.get("center", 0)), radius=float(params["radius"]))
    if kind == "moebius_disk":
        return MoebiusDisk(a=_c(params.get("a", 0)), theta=float(params.get("theta", 0.0)))
    if kind == "annulus":
        return Annulus(inner=float(params["inner"]), outer=float(params["outer"]))
    if kind == "rectangle":
        return Rectangle(
            x0=float(params["x0"]),
            x1=float(params["x1"]),
            y0=float(params["y0"]),
            y1=float(params["y1"]),
        )
    raise ParameterError(f"unknown domain kind {kind!r}")


def check_grid_shape(domain: Domain, shape) -> None:
    """Interior-node counts of a grid on ``domain``: at least 8 per axis, and on
    an annulus an even angular count of at least 16 (the periodic axis)."""
    n1, n2 = shape
    if min(n1, n2) < 8:
        raise ParameterError(f"grid needs at least 8 nodes per axis, got {tuple(shape)}")
    if isinstance(domain, Annulus) and (n2 % 2 or n2 < 16):
        raise ParameterError(f"annulus grids need an even angular count >= 16, got {tuple(shape)}")


@dataclass(frozen=True)
class Exhaustion:
    """An increasing sequence of subdomains compactly contained in a parent."""

    parent: Domain
    steps: tuple


def exhaustion_sequence(parent: Domain, count: int) -> Exhaustion:
    """Concentric exhaustion of a disk or annulus by compactly contained copies.

    Disks of radius R are exhausted by radii R(1 - 2^-j).  An annulus
    (r, R) is exhausted by (r (1 + s_j), R - (R - r) s_j) with
    s_j = 2^(-j-1); for very thin annuli (r/R >= 3/4) the shrink factors are
    rescaled by (R - r)/R so every step stays a valid annulus.
    """
    if count < 1:
        raise ParameterError("exhaustion needs count >= 1")
    if isinstance(parent, Disk) and not isinstance(parent, MoebiusDisk):
        steps = tuple(
            Disk(parent.center, parent.radius * (1.0 - 2.0 ** (-j)))
            for j in range(1, count + 1)
        )
    elif isinstance(parent, Annulus):
        r, R = parent.inner, parent.outer
        scale = (R - r) / R if r / R >= 0.75 else 1.0
        steps = []
        for j in range(1, count + 1):
            s = scale * 2.0 ** (-j - 1)
            steps.append(Annulus(r * (1.0 + s), R - (R - r) * s))
        steps = tuple(steps)
    else:
        raise UnsupportedDomainError(
            f"exhaustion_sequence supports disks and annuli, not {parent.kind}"
        )
    return Exhaustion(parent=parent, steps=steps)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoebiusMap:
    """Disk automorphism z -> e^{i theta} (z - a) / (1 - conj(a) z)."""

    a: complex = 0j
    theta: float = 0.0

    def __post_init__(self):
        if not abs(self.a) < 1:
            raise ParameterError(f"Moebius map needs |a| < 1, got |a|={abs(self.a)}")

    def forward(self, z):
        z = np.asarray(z) if np.ndim(z) else complex(z)
        return np.exp(1j * self.theta) * (z - self.a) / (1.0 - np.conj(self.a) * z)

    def inverse(self, w):
        w = np.asarray(w) if np.ndim(w) else complex(w)
        u = np.exp(-1j * self.theta) * w
        return (u + self.a) / (1.0 + np.conj(self.a) * u)

    def inverse_derivative(self, w):
        u = np.exp(-1j * self.theta) * (np.asarray(w) if np.ndim(w) else complex(w))
        return np.exp(-1j * self.theta) * (1.0 - abs(self.a) ** 2) / (1.0 + np.conj(self.a) * u) ** 2


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Area-measure quadrature rule attached to a domain.

    ``nodes`` are complex points strictly inside the domain and ``weights``
    the positive area weights.  Both arrays follow a fixed index order
    (radial-major for polar rules, x-major for Cartesian rules) so every
    reduction over them is reproducible.
    """

    domain: Domain
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.nodes)


def _polar_rule(center: complex, r0: float, r1: float, order: int):
    # Gauss-Legendre in radius on [r0, r1] with the r dr factor folded into the
    # weights, uniform (trapezoidal) grid of 4*order angles.  Exact for
    # z^m conj(z)^n whenever m + n <= 2*order - 2 and |m - n| < 4*order.
    x, wx = leggauss(order)
    t = 0.5 * (x + 1.0) * (r1 - r0) + r0
    wt = wx * 0.5 * (r1 - r0)
    m = 4 * order
    ang = 2.0 * np.pi * np.arange(m) / m
    w_ang = 2.0 * np.pi / m
    nodes = (center + t[:, None] * np.exp(1j * ang)[None, :]).ravel()
    weights = ((wt * t)[:, None] * np.full(m, w_ang)[None, :]).ravel()
    return nodes, weights


def build_quadrature(domain: Domain, order: int) -> QuadratureRule:
    """Tensor-product rule: polar for the disk family and annuli, Gauss-Legendre
    tensor grid for rectangles.

    Polar rules use ``order`` radial Gauss-Legendre nodes and ``4 * order``
    uniform angles (node count ``4 * order**2``); Cartesian rules use
    ``order**2`` nodes.  Deterministic for fixed inputs.
    """
    if order < 1:
        raise ParameterError("quadrature order must be >= 1")
    if isinstance(domain, Disk):
        nodes, weights = _polar_rule(domain.center, 0.0, domain.radius, order)
    elif isinstance(domain, Annulus):
        nodes, weights = _polar_rule(0j, domain.inner, domain.outer, order)
    elif isinstance(domain, Rectangle):
        x, wx = leggauss(order)
        y, wy = leggauss(order)
        xs = 0.5 * (x + 1.0) * (domain.x1 - domain.x0) + domain.x0
        ys = 0.5 * (y + 1.0) * (domain.y1 - domain.y0) + domain.y0
        wxs = wx * 0.5 * (domain.x1 - domain.x0)
        wys = wy * 0.5 * (domain.y1 - domain.y0)
        nodes = (xs[:, None] + 1j * ys[None, :]).ravel()
        weights = (wxs[:, None] * wys[None, :]).ravel()
    else:
        raise UnsupportedDomainError(f"no quadrature for domain kind {domain.kind}")
    return QuadratureRule(domain=domain, order=order, nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, f) -> complex:
    """Integrate a pointwise evaluator against the rule's area measure.

    The evaluator is called once on the node array and must return one
    value per node, or a scalar for a constant integrand; any other shape
    raises ``ParameterError``.  The weighted values are reduced with
    ``math.fsum`` on the real and imaginary parts separately, which is
    correctly rounded and therefore independent of evaluation order; results
    are bit-reproducible across runs and thread counts.
    """
    nodes = rule.nodes
    vals = np.asarray(f(nodes), dtype=complex)
    if vals.ndim == 0:
        vals = np.broadcast_to(vals, nodes.shape)
    elif vals.shape != nodes.shape:
        raise ParameterError(
            f"integrand gave shape {vals.shape} on {nodes.shape} nodes; it must be vectorized")
    finite = np.isfinite(vals.real) & np.isfinite(vals.imag)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericError(f"non-finite integrand value {vals[k]} at node {k} (z={nodes[k]})")
    terms = rule.weights * vals
    return complex(math.fsum(terms.real), math.fsum(terms.imag))
