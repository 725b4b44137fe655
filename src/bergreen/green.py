"""Green's functions on model domains and the kernel-derivative identity.

For a disk of radius r centered at c the Laplace Green's function has the
closed form (zeta = z - c, omega = w - c)

    G(z, w) = ln|r^2 - zeta conj(omega)| - ln r - ln|zeta - omega|,

positive inside, zero on the boundary, symmetric, with the decomposition
G = h - ln|z - w| where h is harmonic in each variable and finite across
the diagonal.  The mixed Wirtinger derivative d^2 G / dz d(conj w) has the
analytic value -r^2 / (2 (r^2 - zeta conj(omega))^2); a Richardson-
extrapolated 16-point finite-difference fallback is provided for evaluators
without a closed form.

Weighted Green's functions multiply the unweighted one by the gauge factor
g(z) conj(g(w)), and the identity evaluator measures the relative residual
of

    K(z, w) = -2 / (pi rho(z) rho(w)) * d^2 G_rho / dz d(conj w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bergman import KernelApproximation, _unbox
from .errors import (
    DiagonalSingularityError,
    ParameterError,
    StencilError,
)
from .geometry import Disk, Domain, MoebiusDisk, MoebiusMap
from .weights import Gauge, Weight

__all__ = [
    "GreenFunction",
    "DiskGreen",
    "TransportedGreen",
    "WeightedGreen",
    "wirtinger_mixed",
    "stencil_exits",
    "weighted_green",
    "identity_rhs",
    "identity_residual",
    "moebius_transport",
]

DIAGONAL_TOL = 1e-14


class GreenFunction:
    """Base class: a symmetric positive Green's function vanishing on the boundary.

    Every method takes scalars or arrays; array arguments broadcast against
    each other and evaluate elementwise, and scalar arguments give Python
    scalars.
    """

    domain: Domain

    def value(self, z, w):
        raise NotImplementedError

    def harmonic(self, z, w):
        """The regular part h(z, w) = G(z, w) + ln|z - w|, finite on the diagonal."""
        z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
        on_diag = np.abs(z - w) <= DIAGONAL_TOL
        off = ~on_diag
        out = np.empty(z.shape)
        out[on_diag] = self.harmonic_diagonal(z[on_diag])
        out[off] = self.value(z[off], w[off]) + np.log(np.abs(z[off] - w[off]))
        return _unbox(out)

    def harmonic_diagonal(self, z):
        raise NotImplementedError

    def mixed_analytic(self, z, w):
        raise NotImplementedError


def _off_diagonal(z, w) -> None:
    """Raise :class:`DiagonalSingularityError` naming the first pair with z = w."""
    on_diag = np.abs(np.asarray(z) - np.asarray(w)) <= DIAGONAL_TOL
    if np.any(on_diag):
        z0 = complex(np.broadcast_to(z, on_diag.shape)[on_diag][0])
        raise DiagonalSingularityError(f"G has a logarithmic singularity at z = w = {z0}")


@dataclass(frozen=True)
class DiskGreen(GreenFunction):
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ParameterError("disk radius must be positive")

    @property
    def domain(self):
        return Disk(self.center, self.radius)

    def value(self, z, w):
        _off_diagonal(z, w)
        zeta = np.asarray(z, dtype=complex) - self.center
        omega = np.asarray(w, dtype=complex) - self.center
        return _unbox(
            np.log(np.abs(self.radius**2 - zeta * np.conj(omega)))
            - math.log(self.radius)
            - np.log(np.abs(zeta - omega))
        )

    def harmonic_diagonal(self, z):
        zeta = np.asarray(z, dtype=complex) - self.center
        return _unbox(np.log(self.radius**2 - np.abs(zeta) ** 2) - math.log(self.radius))

    def mixed_analytic(self, z, w):
        zeta = np.asarray(z, dtype=complex) - self.center
        omega = np.asarray(w, dtype=complex) - self.center
        return _unbox(-self.radius**2 / (2.0 * (self.radius**2 - zeta * np.conj(omega)) ** 2))


@dataclass(frozen=True, eq=False)
class TransportedGreen(GreenFunction):
    """Pullback G(z, w) = G_base(m^{-1} z, m^{-1} w) of a disk Green's function
    under a disk automorphism m; boundary vanishing and symmetry are inherited."""

    base: GreenFunction
    map: MoebiusMap

    @property
    def domain(self):
        return MoebiusDisk(self.map.a, self.map.theta)

    def value(self, z, w):
        _off_diagonal(z, w)
        return self.base.value(self.map.inverse(z), self.map.inverse(w))

    def harmonic_diagonal(self, z):
        # h(z, z) picks up -ln|phi'(z)| from the change of variable in the
        # logarithmic term, phi being the inverse map.
        zeta = self.map.inverse(z)
        return _unbox(self.base.harmonic_diagonal(zeta)
                      - np.log(np.abs(self.map.inverse_derivative(z))))

    def mixed_analytic(self, z, w):
        dz = self.map.inverse_derivative(z)
        dw = self.map.inverse_derivative(w)
        return _unbox(dz * np.conj(dw)
                      * self.base.mixed_analytic(self.map.inverse(z), self.map.inverse(w)))


# ---------------------------------------------------------------------------
# Mixed Wirtinger derivative
# ---------------------------------------------------------------------------


def _shifted(x, s):
    """The stencil neighbours x + s, x - s, x + i s, x - i s along a new first axis."""
    return np.stack([x + s, x - s, x + 1j * s, x - 1j * s])


def stencil_exits(domain: Domain, z, w, step: float):
    """Which pairs' stencils leave the domain, and where.

    The stencil of a pair is z + s, z - s, z + i s, z - i s, then the same
    four points around w, at s = ``step``.  Returns a boolean array, true
    for each pair with a stencil point outside the domain, and a complex
    array with the first such point of each pair (meaningless where the flag
    is false).
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    pts = np.concatenate([_shifted(z, step), _shifted(w, step)])
    outside = ~domain.contains_many(pts).reshape(pts.shape)
    first = np.argmax(outside, axis=0)
    return outside.any(axis=0), np.take_along_axis(pts, first[None], 0)[0]


def _mixed_once(f_vals, s):
    # f_vals[a, b] = f(z + shift_a, w + shift_b) over the shifts of _shifted;
    # d/dz = (d/dx - i d/dy)/2 in the first slot, then
    # d/d(conj w) = (d/du + i d/dv)/2 in the second.
    fx = (f_vals[0] - f_vals[1]) / (2 * s)
    fy = (f_vals[2] - f_vals[3]) / (2 * s)
    dz = 0.5 * (fx - 1j * fy)
    du = (dz[0] - dz[1]) / (2 * s)
    dv = (dz[2] - dz[3]) / (2 * s)
    return 0.5 * (du + 1j * dv)


def wirtinger_mixed(f, z, w, step: float, domain: Optional[Domain] = None):
    """Richardson-extrapolated central-difference d^2 f / dz d(conj w).

    Each of two 16-point stencils, at steps step and step/2, is an O(step^2)
    central difference; combined 2:1 (Richardson) their leading error terms
    cancel and the result is O(step^4).  ``z`` and ``w`` broadcast
    against each other and ``f`` is called once, on the stencil points of
    every pair and both steps, so it must broadcast its two arguments too.
    If a domain is supplied every stencil point is checked and a
    :class:`StencilError` names the first offender.
    """
    if step <= 0:
        raise ParameterError("finite-difference step must be positive")
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    if domain is not None:
        leaves, points = stencil_exits(domain, z, w, step)
        if np.any(leaves):
            p = complex(points[leaves][0])
            raise StencilError(f"stencil point {p} leaves the domain", point=p)
    steps = (step, step / 2)
    # axes: step, z shift, w shift, then the broadcast shape of the pairs
    zs = np.stack([_shifted(z, s) for s in steps])[:, :, None]
    ws = np.stack([_shifted(w, s) for s in steps])[:, None, :]
    f_vals = np.asarray(f(zs, ws))
    coarse = _mixed_once(f_vals[0], step)
    fine = _mixed_once(f_vals[1], step / 2)
    return _unbox((4.0 * fine - coarse) / 3.0)


# ---------------------------------------------------------------------------
# Weighted Green's functions and the identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightedGreen:
    """G_rho(z, w) = g(z) conj(g(w)) G(z, w) for an antiholomorphic gauge g.

    Because g depends on conj(z) alone and conj(g(w)) on w alone, the mixed
    z / conj(w) derivative factors exactly:

        d^2 G_rho / dz d(conj w) = g(z) conj(g(w)) d^2 G / dz d(conj w).

    Every method works elementwise over the broadcast of ``z`` and ``w``.
    """

    base: GreenFunction
    gauge: Gauge

    @property
    def domain(self):
        return self.base.domain

    def factor(self, z, w):
        return _unbox(self.gauge(z) * np.conj(self.gauge(w)))

    def value(self, z, w):
        return self.factor(z, w) * self.base.value(z, w)

    def smooth_value(self, z, w):
        """Gauge factor times the regular part h; shares the mixed derivative
        of ``value`` because the logarithmic term contributes nothing to it."""
        return self.factor(z, w) * self.base.harmonic(z, w)

    def mixed_zwbar(self, z, w, step: float = 1e-3, method: str = "analytic"):
        if method == "analytic":
            return self.factor(z, w) * self.base.mixed_analytic(z, w)
        if method == "fd":
            # Differencing the smooth part avoids the large truncation error
            # the log singularity would inject for nearby arguments.
            return wirtinger_mixed(self.smooth_value, z, w, step, domain=self.domain)
        raise ParameterError(f"unknown mixed-derivative method {method!r}")


def weighted_green(green: GreenFunction, gauge: Gauge) -> WeightedGreen:
    """Attach a gauge factor to a Green's function; domains must agree."""
    if gauge.source_weight.domain != green.domain:
        raise ParameterError(
            f"gauge domain {gauge.source_weight.domain.kind} does not match "
            f"Green's function domain {green.domain.kind}"
        )
    return WeightedGreen(base=green, gauge=gauge)


def identity_rhs(weight: Weight, z, w, mixed):
    """The identity's right-hand side -2/(pi rho(z) rho(w)) * mixed, for the
    mixed derivative d^2 G_rho / dz d(conj w) at the pairs (z, w)."""
    return -2.0 / (math.pi * np.real(weight.value(z)) * np.real(weight.value(w))) * mixed


def identity_residual(kernel: KernelApproximation, wgreen: WeightedGreen, weight: Weight,
                      z, w, step: float = 1e-3, method: str = "analytic", kernel_values=None):
    """Relative residual of K(z,w) = -2/(pi rho(z) rho(w)) d^2 G_rho / dz d(conj w).

    Returns |K - rhs| / max(1, |K|), the closed-form residual; the grid
    identity of the pde-green experiment divides by |K| instead.  Works
    elementwise over the broadcast of ``z`` and ``w``, with one kernel
    evaluation and one mixed derivative for all pairs, and returns a
    ``float`` for scalars.  A caller that already holds K(z, w) at the
    pairs passes it as ``kernel_values``, and the kernel is not evaluated.
    Diagonal pairs z = w take the same path: the mixed derivative of G_rho
    is that of the regular part, finite there.  Finite-difference
    evaluation verifies every stencil stays inside the domain.
    """
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    rhs = identity_rhs(weight, z, w, wgreen.mixed_zwbar(z, w, step=step, method=method))
    kv = kernel.evaluate(z, w) if kernel_values is None else kernel_values
    return _unbox(np.abs(kv - rhs) / np.maximum(1.0, np.abs(kv)))


def moebius_transport(base: GreenFunction, map: MoebiusMap) -> TransportedGreen:
    """Transport a unit-disk Green's function through a disk automorphism."""
    if base.domain != Disk():
        raise ParameterError("Moebius transport is defined for unit-disk Green's functions")
    return TransportedGreen(base=base, map=map)
