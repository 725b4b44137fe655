"""Weight representations, log-harmonicity diagnostics, and the antiholomorphic gauge.

A weight is a positive function rho on a domain in one of three forms:

* ``HoloModulusSquaredWeight``: rho = |mu|^2 with mu a polynomial that is
  zero-free on the closure of the domain,
* ``LogHarmonicWeight``: rho = exp(2 Re H) with H a polynomial, so log rho
  is harmonic by construction,
* ``GenericC1Weight``: an arbitrary positive C^1 evaluator.

For the first two families the weighted Green's function factors through an
antiholomorphic gauge g (a function of conj(w) alone) satisfying

    d(g)/dw = 0        and        (1/g) d(g)/d(conj w) = (1/rho) d(rho)/d(conj w),

which :func:`solve_gauge` constructs in closed form: g = conj(mu) for
rho = |mu|^2 and g = exp(conj(H)) for rho = exp(2 Re H).  Weights whose log
is not harmonic admit no such gauge; the measured Laplacian of log rho is
reported as the obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import GaugeInfeasibleError, ParameterError, WeightError
from .geometry import Domain, QuadratureRule, build_quadrature

__all__ = [
    "Weight",
    "HoloModulusSquaredWeight",
    "LogHarmonicWeight",
    "GenericC1Weight",
    "LogHarmonicCheck",
    "Gauge",
    "unit_weight",
    "positive_values",
    "check_log_harmonic",
    "solve_gauge",
    "weight_from_json",
    "GENERIC_BUILTINS",
]

ROOT_MARGIN = 1e-9


class Weight:
    """Positive weight attached to a domain."""

    representation = "weight"
    #: Whether rho is one number on the domain; a generic weight cannot tell
    is_constant = False

    def __init__(self, domain: Domain):
        self.domain = domain

    def value(self, z):
        """rho(z); accepts scalars or numpy arrays."""
        raise NotImplementedError

    __call__ = value


def _coeffs(c):
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("polynomial coefficients must be a nonempty 1-d sequence")
    finite = np.isfinite(arr)
    if not finite.all():
        bad = [complex(v) for v in arr[~finite]]
        raise ParameterError(f"polynomial coefficients must be finite, got {bad}")
    # trailing zeros add no term, so a constant polynomial has one coefficient
    return arr[:max(1, len(np.trim_zeros(arr, "b")))]


class HoloModulusSquaredWeight(Weight):
    """rho(z) = |mu(z)|^2 for a polynomial mu zero-free on the closure.

    Coefficients are ascending in z.  Construction fails if any root of mu
    comes within ``ROOT_MARGIN`` of the closed domain.
    """

    representation = "holo_modulus_squared"

    def __init__(self, mu_coefficients, domain: Domain):
        super().__init__(domain)
        self.mu_coefficients = _coeffs(mu_coefficients)
        self.is_constant = len(self.mu_coefficients) == 1
        if not self.is_constant:
            roots = np.polynomial.Polynomial(self.mu_coefficients).roots()
            for root in roots:
                if domain.closure_distance(complex(root)) < ROOT_MARGIN:
                    raise WeightError(
                        f"mu has a root at {complex(root):.6g} on or within "
                        f"{ROOT_MARGIN} of the closure of {domain.kind}"
                    )
        elif self.mu_coefficients[0] == 0:
            raise WeightError("mu must not vanish identically")

    def mu(self, z):
        return P.polyval(np.asarray(z) if np.ndim(z) else complex(z), self.mu_coefficients)

    def value(self, z):
        return np.abs(self.mu(z)) ** 2


class LogHarmonicWeight(Weight):
    """rho(z) = exp(2 Re H(z)) for a polynomial H; log rho is harmonic exactly."""

    representation = "log_harmonic"

    def __init__(self, h_coefficients, domain: Domain):
        super().__init__(domain)
        self.h_coefficients = _coeffs(h_coefficients)
        self.is_constant = len(self.h_coefficients) == 1

    def exponent(self, z):
        return P.polyval(np.asarray(z) if np.ndim(z) else complex(z), self.h_coefficients)

    def value(self, z):
        return np.exp(2.0 * np.real(self.exponent(z)))


class GenericC1Weight(Weight):
    """Positive C^1 weight given by an evaluator."""

    representation = "generic_c1"

    def __init__(self, fn: Callable, domain: Domain, name="generic"):
        super().__init__(domain)
        self.fn = fn
        self.name = name

    def value(self, z):
        return self.fn(np.asarray(z) if np.ndim(z) else complex(z))


#: Named generic weights available to the JSON config layer.
GENERIC_BUILTINS = {
    # rho = exp(|z|^2), log rho has Laplacian 4
    "exp_abs_sq": lambda domain: GenericC1Weight(
        lambda z: np.exp(np.abs(z) ** 2), domain, name="exp_abs_sq"),
    # rho = |z|^2, positive away from the origin
    "abs_sq": lambda domain: GenericC1Weight(lambda z: np.abs(z) ** 2, domain, name="abs_sq"),
}


def unit_weight(domain: Domain) -> HoloModulusSquaredWeight:
    """The constant weight rho = 1."""
    return HoloModulusSquaredWeight([1.0], domain)


def positive_values(weight: Weight, z: np.ndarray, where: str) -> np.ndarray:
    """rho at the points ``z``, as a real array of their shape.

    A :class:`WeightError` names the first point where rho is not finite and
    positive; an overflow there is that error, not a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.real(np.asarray(weight.value(z), dtype=complex))
    good = (rho > 0) & (rho < np.inf)  # false for NaN too
    if not good.all():
        k = int(np.argmin(good.ravel()))
        raise WeightError(f"weight must be finite and positive on every {where}; "
                          f"rho({complex(np.ravel(z)[k]):.6g}) = {rho.flat[k]:.6g}")
    return rho


def weight_from_json(spec: dict, domain: Domain) -> Weight:
    rep = spec.get("representation", "holo_modulus_squared")
    if rep == "holo_modulus_squared":
        coeffs = [complex(c[0], c[1]) for c in spec["coefficients"]]
        return HoloModulusSquaredWeight(coeffs, domain)
    if rep == "log_harmonic":
        coeffs = [complex(c[0], c[1]) for c in spec["coefficients"]]
        return LogHarmonicWeight(coeffs, domain)
    if rep == "generic_c1":
        name = spec["name"]
        if name not in GENERIC_BUILTINS:
            raise ParameterError(f"unknown generic weight {name!r}")
        return GENERIC_BUILTINS[name](domain)
    raise ParameterError(f"unknown weight representation {rep!r}")


# ---------------------------------------------------------------------------
# Log-harmonicity diagnostic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogHarmonicCheck:
    max_abs_laplacian: float
    nodes_checked: int
    nodes_skipped: int


def check_log_harmonic(weight: Weight, rule: QuadratureRule, fd_step: float = 1e-3) -> LogHarmonicCheck:
    """Maximum five-point finite-difference Laplacian of log rho over rule nodes.

    Nodes whose stencil leaves the domain are skipped and counted.
    """
    z = rule.nodes
    h = fd_step
    stencil = [z + h, z - h, z + 1j * h, z - 1j * h]
    ok = weight.domain.contains_many(z)
    for s in stencil:
        ok &= weight.domain.contains_many(s)
    if not ok.any():
        return LogHarmonicCheck(0.0, 0, len(z))
    center = np.log(np.real(np.asarray(weight.value(z[ok]), dtype=complex)))
    acc = -4.0 * center
    for s in stencil:
        acc = acc + np.log(np.real(np.asarray(weight.value(s[ok]), dtype=complex)))
    lap = acc / h**2
    return LogHarmonicCheck(
        max_abs_laplacian=float(np.max(np.abs(lap))),
        nodes_checked=int(ok.sum()),
        nodes_skipped=int(len(z) - ok.sum()),
    )


# ---------------------------------------------------------------------------
# Gauge
# ---------------------------------------------------------------------------

GAUGE_RESIDUAL_LIMIT = 1e-4


@dataclass(frozen=True, eq=False)
class Gauge:
    """Antiholomorphic gauge factor g with decomposition g = rho * e^h.

    ``conj_coefficients`` holds the coefficients of g as a polynomial in
    conj(w) when that representation is exact (holomorphic-modulus weights);
    otherwise it is ``None`` and only the evaluator is available.  By
    construction g depends on conj(w) alone, so d(g)/dw vanishes identically.
    """

    source_weight: Weight
    conj_coefficients: Optional[np.ndarray]
    _g: Callable
    _h: Callable

    def __call__(self, w):
        return self._g(np.asarray(w) if np.ndim(w) else complex(w))

    def h(self, w):
        return self._h(np.asarray(w) if np.ndim(w) else complex(w))

    def system_residuals(self, nodes, fd_step: float = 1e-5) -> dict:
        """Finite-difference residuals of both gauge equations at the given nodes."""
        w = np.asarray(nodes)
        s = fd_step
        rho = np.real(np.asarray(self.source_weight.value(w), dtype=complex))

        def fd_pair(fn):
            du = (fn(w + s) - fn(w - s)) / (2 * s)
            dv = (fn(w + 1j * s) - fn(w - 1j * s)) / (2 * s)
            return 0.5 * (du - 1j * dv), 0.5 * (du + 1j * dv)

        g_w, g_wbar = fd_pair(self._g)
        _, rho_wbar = fd_pair(lambda q: np.asarray(self.source_weight.value(q), dtype=complex))
        gvals = self._g(w)
        eq_ratio = g_wbar / gvals - rho_wbar / rho
        return {
            "max_dw": float(np.max(np.abs(g_w))),
            "max_ratio": float(np.max(np.abs(eq_ratio))),
        }

    def decomposition_residual(self, nodes) -> float:
        """max | |g| - rho * exp(Re h) | over the nodes (g = rho e^h in modulus)."""
        w = np.asarray(nodes)
        rho = np.real(np.asarray(self.source_weight.value(w), dtype=complex))
        return float(np.max(np.abs(np.abs(self._g(w)) - rho * np.exp(np.real(self._h(w))))))


def solve_gauge(weight: Weight) -> Gauge:
    """Construct the antiholomorphic gauge for a log-harmonic weight.

    * rho = |mu|^2: g(w) = conj(mu(w)) with conjugated coefficients in
      conj(w); h = -log(mu) on the principal branch (valid because mu is
      zero-free near the closure; on an annulus h may jump across a cut but
      only |g|, Re h and the product g(z) conj(g(w)) are consumed downstream).
    * rho = exp(2 Re H): g(w) = exp(conj(H(w))), h = -H.

    Generic weights are rejected: if log rho fails the harmonicity check the
    returned error carries the residual, and a numerically log-harmonic
    generic weight must be re-expressed in one of the closed forms above.
    """
    if isinstance(weight, HoloModulusSquaredWeight):
        cc = np.conj(weight.mu_coefficients)

        def g(w):
            return P.polyval(np.conj(w), cc)

        def h(w):
            return -np.log(weight.mu(w))

        return Gauge(source_weight=weight, conj_coefficients=cc, _g=g, _h=h)

    if isinstance(weight, LogHarmonicWeight):
        hc = weight.h_coefficients

        def g(w):
            return np.exp(np.conj(P.polyval(w, hc)))

        def h(w):
            return -P.polyval(w, hc)

        return Gauge(source_weight=weight, conj_coefficients=None, _g=g, _h=h)

    rule = build_quadrature(weight.domain, 12)
    check = check_log_harmonic(weight, rule, fd_step=1e-3)
    if check.max_abs_laplacian > GAUGE_RESIDUAL_LIMIT:
        raise GaugeInfeasibleError(
            "weight is not log-harmonic (max |Laplacian log rho| = "
            f"{check.max_abs_laplacian:.3e}); no antiholomorphic gauge exists",
            residual=check.max_abs_laplacian,
        )
    raise ParameterError(
        "generic weight passes the log-harmonicity check; re-express it as a "
        "holomorphic-modulus or log-harmonic weight to obtain its gauge"
    )
