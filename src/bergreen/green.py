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

from .bergman import KernelApproximation
from .errors import (
    DiagonalSingularityError,
    ParameterError,
    StencilError,
)
from .geometry import Disk, Domain, MoebiusDisk, MoebiusMap, UnitDisk
from .weights import Gauge, Weight

__all__ = [
    "GreenFunction",
    "DiskGreen",
    "TransportedGreen",
    "WeightedGreen",
    "wirtinger_mixed",
    "weighted_green",
    "identity_residual",
    "moebius_transport",
]

DIAGONAL_TOL = 1e-14


class GreenFunction:
    """Base class: a symmetric positive Green's function vanishing on the boundary."""

    kind = "green"
    domain: Domain

    def value(self, z: complex, w: complex) -> float:
        raise NotImplementedError

    def harmonic(self, z: complex, w: complex) -> float:
        """The regular part h(z, w) = G(z, w) + ln|z - w|, finite on the diagonal."""
        if abs(z - w) <= DIAGONAL_TOL:
            return self.harmonic_diagonal(z)
        return self.value(z, w) + math.log(abs(z - w))

    def harmonic_diagonal(self, z: complex) -> float:
        raise NotImplementedError

    @property
    def has_analytic_mixed(self) -> bool:
        return False

    def mixed_analytic(self, z: complex, w: complex) -> complex:
        raise NotImplementedError


@dataclass(frozen=True)
class DiskGreen(GreenFunction):
    center: complex = 0j
    radius: float = 1.0

    kind = "disk_closed_form"

    def __post_init__(self):
        if not self.radius > 0:
            raise ParameterError("disk radius must be positive")

    @property
    def domain(self):
        if self.center == 0 and self.radius == 1.0:
            return UnitDisk()
        return Disk(self.center, self.radius)

    def value(self, z, w):
        zeta = complex(z) - self.center
        omega = complex(w) - self.center
        if abs(zeta - omega) <= DIAGONAL_TOL:
            raise DiagonalSingularityError(f"G has a logarithmic singularity at z = w = {z}")
        return (
            math.log(abs(self.radius**2 - zeta * omega.conjugate()))
            - math.log(self.radius)
            - math.log(abs(zeta - omega))
        )

    def harmonic_diagonal(self, z):
        zeta = complex(z) - self.center
        return math.log(self.radius**2 - abs(zeta) ** 2) - math.log(self.radius)

    @property
    def has_analytic_mixed(self):
        return True

    def mixed_analytic(self, z, w):
        zeta = complex(z) - self.center
        omega = complex(w) - self.center
        return -self.radius**2 / (2.0 * (self.radius**2 - zeta * omega.conjugate()) ** 2)


@dataclass(frozen=True, eq=False)
class TransportedGreen(GreenFunction):
    """Pullback G(z, w) = G_base(m^{-1} z, m^{-1} w) of a disk Green's function
    under a disk automorphism m; boundary vanishing and symmetry are inherited."""

    base: GreenFunction
    map: MoebiusMap

    kind = "moebius_transported"

    @property
    def domain(self):
        return MoebiusDisk(self.map.a, self.map.theta)

    def value(self, z, w):
        if abs(complex(z) - complex(w)) <= DIAGONAL_TOL:
            raise DiagonalSingularityError(f"G has a logarithmic singularity at z = w = {z}")
        return self.base.value(self.map.inverse(z), self.map.inverse(w))

    def harmonic_diagonal(self, z):
        # h(z, z) picks up -ln|phi'(z)| from the change of variable in the
        # logarithmic term, phi being the inverse map.
        zeta = self.map.inverse(z)
        return self.base.harmonic_diagonal(zeta) - math.log(abs(self.map.inverse_derivative(z)))

    @property
    def has_analytic_mixed(self):
        return self.base.has_analytic_mixed

    def mixed_analytic(self, z, w):
        dz = self.map.inverse_derivative(z)
        dw = self.map.inverse_derivative(w)
        return dz * np.conj(dw) * self.base.mixed_analytic(self.map.inverse(z), self.map.inverse(w))


# ---------------------------------------------------------------------------
# Mixed Wirtinger derivative
# ---------------------------------------------------------------------------


def _stencil_points(z, w, step):
    shifts = (step, -step, 1j * step, -1j * step)
    return [z + s for s in shifts], [w + s for s in shifts]


def _mixed_once(f, z, w, s):
    # d/dz = (d/dx - i d/dy)/2 in the first slot, then
    # d/d(conj w) = (d/du + i d/dv)/2 in the second; 16 evaluations.
    def dz_at(wp):
        fx = (f(z + s, wp) - f(z - s, wp)) / (2 * s)
        fy = (f(z + 1j * s, wp) - f(z - 1j * s, wp)) / (2 * s)
        return 0.5 * (fx - 1j * fy)

    du = (dz_at(w + s) - dz_at(w - s)) / (2 * s)
    dv = (dz_at(w + 1j * s) - dz_at(w - 1j * s)) / (2 * s)
    return 0.5 * (du + 1j * dv)


def wirtinger_mixed(f, z: complex, w: complex, step: float, richardson: bool = True,
                    domain: Optional[Domain] = None) -> complex:
    """Central-difference d^2 f / dz d(conj w) on a 16-point stencil.

    Plain central differences are O(step^2) accurate; with ``richardson``
    (two stencils at steps step and step/2, combined 2:1) the leading error
    term cancels and the result is O(step^4).  If a domain is supplied every
    stencil point is checked and a :class:`StencilError` names the first
    offender.
    """
    if step <= 0:
        raise ParameterError("finite-difference step must be positive")
    if domain is not None:
        zs, ws = _stencil_points(complex(z), complex(w), step)
        for p in zs + ws:
            if not domain.contains(p):
                raise StencilError(f"stencil point {p} leaves the domain", point=p)
    coarse = _mixed_once(f, complex(z), complex(w), step)
    if not richardson:
        return coarse
    fine = _mixed_once(f, complex(z), complex(w), step / 2)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# Weighted Green's functions and the identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WeightedGreen:
    """G_rho(z, w) = g(z) conj(g(w)) G(z, w) for an antiholomorphic gauge g.

    With ``gauge=None`` the factor is 1 and the object reduces to the base
    Green's function.  Because g depends on conj(z) alone and conj(g(w)) on w
    alone, the mixed z / conj(w) derivative factors exactly:

        d^2 G_rho / dz d(conj w) = g(z) conj(g(w)) d^2 G / dz d(conj w).
    """

    base: GreenFunction
    gauge: Optional[Gauge]

    @property
    def domain(self):
        return self.base.domain

    def factor(self, z: complex, w: complex) -> complex:
        if self.gauge is None:
            return 1.0 + 0j
        return complex(self.gauge(z)) * complex(self.gauge(w)).conjugate()

    def value(self, z: complex, w: complex) -> complex:
        return self.factor(z, w) * self.base.value(z, w)

    def smooth_value(self, z: complex, w: complex) -> complex:
        """Gauge factor times the regular part h; shares the mixed derivative
        of ``value`` because the logarithmic term contributes nothing to it."""
        return self.factor(z, w) * self.base.harmonic(z, w)

    def mixed_zwbar(self, z: complex, w: complex, step: float = 1e-3,
                    method: str = "analytic") -> complex:
        if method == "analytic":
            if not self.base.has_analytic_mixed:
                raise ParameterError(
                    f"{self.base.kind} exposes no analytic mixed derivative; use method='fd'"
                )
            return self.factor(z, w) * self.base.mixed_analytic(z, w)
        if method == "fd":
            # Differencing the smooth part avoids the large truncation error
            # the log singularity would inject for nearby arguments.
            return wirtinger_mixed(self.smooth_value, z, w, step, richardson=True,
                                   domain=self.domain)
        raise ParameterError(f"unknown mixed-derivative method {method!r}")


def weighted_green(green: GreenFunction, gauge: Optional[Gauge]) -> WeightedGreen:
    """Attach a gauge factor to a Green's function; domains must agree."""
    if gauge is not None and gauge.source_weight.domain != green.domain:
        raise ParameterError(
            f"gauge domain {gauge.source_weight.domain.kind} does not match "
            f"Green's function domain {green.domain.kind}"
        )
    return WeightedGreen(base=green, gauge=gauge)


def identity_residual(kernel: KernelApproximation, wgreen: WeightedGreen, weight: Weight,
                      z: complex, w: complex, step: float = 1e-3,
                      method: str = "analytic") -> float:
    """Relative residual of K(z,w) = -2/(pi rho(z) rho(w)) d^2 G_rho / dz d(conj w).

    Returns |K - rhs| / max(1, |K|).  The diagonal is excluded with an
    explicit signal, and finite-difference evaluation verifies its stencil
    stays inside the domain.
    """
    z, w = complex(z), complex(w)
    if abs(z - w) <= DIAGONAL_TOL:
        raise DiagonalSingularityError("identity residual is undefined on the diagonal z = w")
    mixed = wgreen.mixed_zwbar(z, w, step=step, method=method)
    rz = float(np.real(weight.value(z)))
    rw = float(np.real(weight.value(w)))
    rhs = -2.0 / (math.pi * rz * rw) * mixed
    kv = kernel.evaluate(z, w)
    return abs(kv - rhs) / max(1.0, abs(kv))


def moebius_transport(base: GreenFunction, map: MoebiusMap) -> TransportedGreen:
    """Transport a unit-disk Green's function through a disk automorphism."""
    dom = base.domain
    if not (isinstance(dom, (UnitDisk, Disk)) and dom.basis_center == 0 and getattr(dom, "radius", None) == 1.0):
        raise ParameterError("Moebius transport is defined for unit-disk Green's functions")
    return TransportedGreen(base=base, map=map)
