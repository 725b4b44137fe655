"""Experiment orchestration: configs in, JSON report plus CSV data out.

Each experiment echoes its configuration, embeds the assumption ledger,
judges every pass/fail line against the tolerance it cites, and writes its
per-point results to CSV files, which report.json names with their columns
and row counts.  All randomness flows through a seeded generator and
every reduction is order-fixed, so identical configs produce byte-identical
outputs.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field as dc_field, replace
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bergman, green, weights
from .errors import (
    BergreenError,
    ConfigError,
    GaugeInfeasibleError,
    ParameterError,
    StudyInsufficientError,
    WeightError,
)
from .geometry import (
    Annulus,
    Domain,
    MoebiusDisk,
    Rectangle,
    build_quadrature,
    check_grid_shape,
    exhaustion_sequence,
    make_domain,
)

__all__ = [
    "ASSUMPTIONS",
    "DEFAULT_TOLERANCES",
    "EXPERIMENTS",
    "Check",
    "ExperimentConfig",
    "VerificationReport",
    "run",
]

SCHEMA_VERSION = 2

#: Assumption ledger, embedded verbatim in every report.
ASSUMPTIONS = [
    "gauge choice: canonical antiholomorphic gauge g = conj(mu) with "
    "h = -log(mu) on the principal branch; rescaling g by e^c multiplies the "
    "weighted Green's function by e^(2 Re c)",
    "distance formula: d(z, w) = sqrt(1 - |K(z,w)| / sqrt(K(z,z) K(w,w)))",
    "delta normalization: the discrete weighted-operator Green's function "
    "solves P G = -(pi/2) delta_h, so the unweighted case reproduces "
    "G = -ln|z - w| + harmonic",
]

DEFAULT_TOLERANCES = {
    "identity_analytic": 1e-5,
    "identity_fd": 1e-4,
    "hermitian": 1e-12,
    "psd": 1e-9,
    "symmetry": 1e-12,
    "boundary": 1e-10,
    "closed_form": 1e-12,
    "grid_reference": 1e-3,
    "grid_identity": 0.02,
    "grid_identity_annulus": 0.03,
    "factorization": 0.05,
    "gauge_residual": 1e-8,
    "fit_order_grid": 1.5,
}

# the tolerance --tol sets for pde-green, per pde_check; on annuli identity
# sets grid_identity_annulus (ExperimentConfig.primary_tolerance)
PDE_TOLERANCE = {"identity": "grid_identity", "reference": "grid_reference",
                 "factorization": "factorization"}
PDE_CHECKS = tuple(PDE_TOLERANCE)

# each sets the config key of its name, but grid_resolution sets grid = (v, v)
STUDY_PARAMETERS = ("basis_order", "quad_order", "grid_resolution", "fd_step")

# what parsing a malformed domain or weight spec raises: a missing key, a
# field of the wrong type or shape, or a value the constructor rejects
_SPEC_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ParameterError, WeightError)

# numeric config fields, the type each must have and the least value of each
# integer field (fd_step must be positive and finite)
_FIELD_TYPES = {
    "count": (Integral, 1),
    "basis_order": (Integral, 0),
    "quad_order": (Integral, 1),
    "exhaust_steps": (Integral, 1),
    "fd_step": (Real, None),
}


def _of_type(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    domain: dict = dc_field(default_factory=lambda: {"kind": "unit_disk"})
    weight: dict = dc_field(
        default_factory=lambda: {"representation": "holo_modulus_squared", "coefficients": [[1.0, 0.0]]}
    )
    basis_order: int = 30
    quad_order: int = 40
    grid: tuple = (128, 128)
    fd_step: float = 1e-3
    count: int = 25
    seed: int | None = None
    pairs: list | None = None
    exhaust_steps: int = 6
    pde_check: str = "identity"
    tolerances: dict = dc_field(default_factory=dict)
    study: dict | None = None

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError(f"no experiment named; choose from {EXPERIMENTS}")
        experiment = data["experiment"]
        if isinstance(experiment, str) and experiment in _EXPERIMENTS:
            # a misspelt or malformed experiment is reported by validate
            _check_read(experiment, data.get("pde_check", "identity"), data)
        return cls(**data)

    @cached_property
    def built(self) -> tuple:
        """The (domain, weight) this config runs on, built once, on validation."""
        try:
            domain = make_domain(self.domain["kind"], **self.domain.get("params", {}))
        except _SPEC_ERRORS as exc:
            raise ConfigError(f"bad domain spec {self.domain!r}: {exc}") from exc
        try:
            return domain, weights.weight_from_json(self.weight, domain)
        except _SPEC_ERRORS as exc:
            raise ConfigError(f"bad weight spec {self.weight!r}: {exc}") from exc

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for name, (kind, least) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _of_type(value, kind):
                what = "an integer" if kind is Integral else "a number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            if least is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must map tolerance names to numbers")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(
                f"unknown tolerance names {unknown}; choose from {sorted(DEFAULT_TOLERANCES)}")
        for name, value in self.tolerances.items():
            if not _of_type(value, Real):
                raise ConfigError(f"tolerance {name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"tolerance {name} must be finite, got {value!r}")
        if self.seed is not None and not (_of_type(self.seed, Integral) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0 < self.fd_step < math.inf:  # false for NaN too
            raise ConfigError(f"fd_step must be positive and finite, got {self.fd_step!r}")
        if self.pde_check not in PDE_CHECKS:
            raise ConfigError(f"unknown pde_check {self.pde_check!r}; choose from {PDE_CHECKS}")
        if not (isinstance(self.grid, (list, tuple)) and len(self.grid) == 2
                and all(_of_type(v, Integral) and v > 0 for v in self.grid)):
            raise ConfigError(f"grid must be two positive integers, got {self.grid!r}")
        domain, _ = self.built
        kinds = _EXPERIMENTS[self.experiment].kinds
        if kinds is not None and domain.kind not in kinds:
            raise ConfigError(f"{self.experiment} runs only on {' and '.join(kinds)} domains, "
                              f"not on {domain.kind}")
        if self.pairs is not None:
            points = _parse_pairs(self.pairs).ravel()
            outside = points[~domain.contains_many(points)]
            if outside.size:
                raise ConfigError(f"pairs must lie in the domain; {complex(outside[0])} does not")
        keys = _keys_read(self.experiment, self.pde_check)
        if self.pairs is None and self.seed is None and "count" in keys:
            raise ConfigError("a seed is mandatory when points are drawn randomly")
        if "grid" in keys:
            self._validate_grid(domain)
        if self.study is not None:
            self._validate_study()

    def _validate_study(self):
        if not isinstance(self.study, dict) or not {"parameter", "values"} <= set(self.study):
            raise ConfigError("study needs 'parameter' and 'values'")
        parameter, values = self.study["parameter"], self.study["values"]
        if parameter not in STUDY_PARAMETERS:
            raise ConfigError(
                f"unknown study parameter {parameter!r}; choose from {STUDY_PARAMETERS}")
        _check_read(self.experiment, self.pde_check,
                    ["grid" if parameter == "grid_resolution" else parameter],
                    f"study parameter {parameter}: ")
        if not isinstance(values, (list, tuple)) or not all(_of_type(v, Real) for v in values):
            raise ConfigError(f"study values must be a list of numbers, got {values!r}")
        if not all(v > 0 for v in values):
            # the order is fitted to the logarithms of the values
            raise ConfigError(f"study values must be positive, got {list(values)}")
        if len(values) < 3:
            raise ConfigError(f"a study needs at least three values, got {list(values)}")
        steps = list(zip(values, values[1:]))
        if not (all(a < b for a, b in steps) or all(a > b for a, b in steps)):
            raise ConfigError(f"study values must be strictly monotone, got {list(values)}")
        self._study_configs  # builds each swept config, which validates itself

    @cached_property
    def _study_configs(self) -> tuple:
        """The swept config of each study value; :func:`_run_study` runs these."""
        return tuple(self._swept(v) for v in self.study["values"])

    def _swept(self, value) -> "ExperimentConfig":
        """This config without its study, the study parameter set to ``value``."""
        parameter = self.study["parameter"]
        change = {"grid": (value, value)} if parameter == "grid_resolution" else {parameter: value}
        try:
            return replace(self, study=None, **change)
        except ConfigError as exc:
            raise ConfigError(f"study value {value!r} of {parameter}: {exc}") from exc

    def _validate_grid(self, domain: Domain):
        """``grid``, or the grids n x n (n x 2n on annuli) a ``reference`` or
        ``factorization`` run builds from n = ``grid[0]``, obey :func:`check_grid_shape`."""
        shapes, context = [self.grid], ""
        if self.experiment == "pde-green" and self.pde_check in ("reference", "factorization"):
            n = self.grid[0]
            if self.grid[1] != n:
                raise ConfigError(
                    f"pde_check {self.pde_check!r} builds its grids from n = grid[0] (n x 2n on "
                    f"annuli), so grid must be [n, n]; got {self.grid!r}")
            ns = (n,)
            if self.pde_check == "factorization":
                ns, context = (n // 2, n), "pde_check 'factorization' also solves at grid[0] // 2: "
            shapes = [(m, 2 * m if isinstance(domain, Annulus) else m) for m in ns]
        try:
            for shape in shapes:
                check_grid_shape(domain, shape)
        except ParameterError as exc:
            raise ConfigError(f"{context}{exc}") from exc

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def primary_tolerance(self) -> str:
        """The tolerance name the CLI --tol flag overrides."""
        row = _EXPERIMENTS[self.experiment]
        if row.tol is not None:
            return row.tol
        if self.pde_check == "identity" and isinstance(self.built[0], Annulus):
            return "grid_identity_annulus"
        return PDE_TOLERANCE[self.pde_check]


_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One pass/fail line: it passes when ``value <comparison> tolerance``.

    A value of None means nothing was evaluated, and the check fails.
    """

    name: str
    value: float | None
    tolerance: float
    comparison: str = "<"

    @property
    def passed(self) -> bool:
        if self.value is None:
            return False
        return bool(_COMPARISONS[self.comparison](self.value, self.tolerance))

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        value = "none" if self.value is None else f"{self.value:.6g}"
        return f"[{verdict}] {self.name}: {value} {self.comparison} {self.tolerance:.6g}"


@dataclass
class VerificationReport:
    # echoed only when written: echoes of the reports a study discards took
    # 180 grid-reference iterations from 57.8 to 62.3 MB peak RSS (glibc)
    config: ExperimentConfig
    checks: list
    tables: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)
    csv_files: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.config.experiment,
            "config": asdict(self.config),
            "assumptions": ASSUMPTIONS,
            "checks": [{"name": c.name, "value": c.value, "tolerance": c.tolerance,
                        "comparison": c.comparison, "passed": c.passed} for c in self.checks],
            "tables": self.tables,
            "notes": self.notes,
            "outputs": {name: {"columns": list(header), "rows": len(rows)}
                        for name, (header, rows) in self.csv_files.items()},
            "passed": self.passed,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        # %.17g round-trips float64 and prints an integer below 2^53 as one
        for name, (header, rows) in self.csv_files.items():
            table = np.asarray(rows, dtype=float).reshape(-1, len(header))
            line = ",".join(["%.17g"] * len(header)) + "\n"
            with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                fh.write(line * len(table) % tuple(table.ravel().tolist()))
        return report_path


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _worst(values):
    """The largest value (NaN if any value is NaN), or None when nothing was
    evaluated."""
    return float(np.max(values)) if len(values) else None


PAIR_COLUMNS = ("re_z", "im_z", "re_w", "im_w")


def _pair_csv(zs, ws, columns: dict) -> tuple:
    """The CSV (header, rows) of a per-pair table: the coordinates of each
    pair, then ``columns``, which maps each column name to its real values."""
    return PAIR_COLUMNS + tuple(columns), np.column_stack(
        [zs.real, zs.imag, ws.real, ws.imag, *columns.values()])


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build_basis(cfg: ExperimentConfig, domain: Domain):
    if isinstance(domain, Annulus):
        # the first basis_order + 1 exponents in trimming order 0, 1, -1, 2, -2, ...
        return bergman.LaurentBasis(domain, -(cfg.basis_order // 2), (cfg.basis_order + 1) // 2)
    return bergman.MonomialBasis(domain, cfg.basis_order)


def _build_kernel(cfg: ExperimentConfig, domain: Domain, weight):
    rule = build_quadrature(domain, cfg.quad_order)
    return bergman.kernel_from_gram(_build_basis(cfg, domain), weight, rule)


def _closed_form_green(domain: Domain) -> green.GreenFunction:
    """The Green's function of a disk or a Moebius disk, in closed form."""
    if isinstance(domain, MoebiusDisk):
        return green.moebius_transport(green.DiskGreen(0j, 1.0), domain.map)
    return green.DiskGreen(domain.center, domain.radius)


def _parse_pairs(pairs) -> np.ndarray:
    """The configured (z, w) pairs as a complex array of shape (pairs, 2)."""
    try:
        out = [(complex(zr, zi), complex(wr, wi)) for (zr, zi), (wr, wi) in pairs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pairs must be a list of [[re, im], [re, im]]: {exc}") from exc
    if not out:
        raise ConfigError("pairs must not be empty")
    return np.array(out, dtype=complex)


def _sample_pairs(cfg: ExperimentConfig, domain: Domain) -> tuple:
    """The first and the second points of the run's pairs as two complex
    arrays: the configured pairs, or ``count`` pairs drawn from the seed."""
    if cfg.pairs is not None:
        return tuple(_parse_pairs(cfg.pairs).T)
    rng = np.random.default_rng(cfg.seed)
    return domain.sample_interior(rng, cfg.count), domain.sample_interior(rng, cfg.count)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


# the only check that reads fd_step, and so the one an fd_step study reads
FD_IDENTITY_CHECK = "identity residual (finite-difference mixed derivative), max over pairs"


def _exp_verify_identity(cfg: ExperimentConfig) -> VerificationReport:
    domain, weight = cfg.built
    gf = _closed_form_green(domain)
    kernel = _build_kernel(cfg, domain, weight)
    wg = green.weighted_green(gf, weights.solve_gauge(weight))

    zs, ws = _sample_pairs(cfg, domain)
    leaves, exits = green.stencil_exits(wg.domain, zs, ws, cfg.fd_step)
    notes = [f"pair ({z}, {w}) skipped: stencil point {p} leaves the domain"
             for z, w, p in zip(zs[leaves].tolist(), ws[leaves].tolist(), exits[leaves].tolist())]
    zs, ws = zs[~leaves], ws[~leaves]
    kv = kernel.evaluate(zs, ws)
    res_a = green.identity_residual(kernel, wg, weight, zs, ws, method="analytic", kernel_values=kv)
    res_f = green.identity_residual(kernel, wg, weight, zs, ws, cfg.fd_step, method="fd",
                                    kernel_values=kv)
    checks = [
        Check("identity residual (analytic mixed derivative), max over pairs",
              _worst(res_a), cfg.tol("identity_analytic")),
        Check(FD_IDENTITY_CHECK, _worst(res_f), cfg.tol("identity_fd")),
    ]
    table = _pair_csv(zs, ws, {"residual_analytic": res_a, "residual_fd": res_f,
                               "abs_K": np.abs(kv)})
    return VerificationReport(cfg, checks, notes=notes, tables={"kernel": kernel.metadata()},
                              csv_files={"identity.csv": table})


def _exp_kernel(cfg: ExperimentConfig) -> VerificationReport:
    domain, weight = cfg.built
    kernel = _build_kernel(cfg, domain, weight)
    pts = _sample_pairs(cfg, domain)[0]
    nxt = np.roll(pts, -1)
    kv, kv_swapped = kernel.evaluate(np.stack([pts, nxt]), np.stack([nxt, pts]))
    herm = float(np.max(np.abs(kv - np.conj(kv_swapped))))
    sub = pts[:6]
    M = kernel.evaluate(sub[:, None], sub[None, :])
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.conj().T))))

    checks = [
        Check("Hermitian symmetry, max |K(z,w) - conj(K(w,z))|", herm, cfg.tol("hermitian")),
        Check("sampled kernel matrix smallest eigenvalue (>= -tol)",
              min_eig, -cfg.tol("psd"), ">="),
    ]
    return VerificationReport(cfg, checks, tables={"kernel": kernel.metadata()}, csv_files={
        "kernel.csv": _pair_csv(pts, nxt, {"re_K": kv.real, "im_K": kv.imag})})


def _exp_green(cfg: ExperimentConfig) -> VerificationReport:
    domain, _ = cfg.built
    gf = _closed_form_green(domain)
    zs, ws = _sample_pairs(cfg, domain)
    # G is singular on the diagonal, so it is judged off the diagonal only,
    # by the rule DiskGreen.value raises on
    diagonal = np.abs(zs - ws) <= green.DIAGONAL_TOL
    notes = [f"pair z=w={z} excluded: diagonal singularity" for z in zs[diagonal].tolist()]
    bdry = float(np.max(np.abs(gf.value(domain.boundary_points(64), ws[0]))))
    zs, ws = zs[~diagonal], ws[~diagonal]
    gv = gf.value(zs, ws)
    mx = gf.mixed_analytic(zs, ws)

    checks = [
        Check("symmetry, max |G(z,w) - G(w,z)|",
              _worst(np.abs(gv - gf.value(ws, zs))), cfg.tol("symmetry")),
        Check("boundary vanishing, max |G(boundary, w)|", bdry, cfg.tol("boundary")),
        Check("interior positivity violations", _worst(np.where(gv > 0, 0.0, 1.0)), 0.5),
    ]
    return VerificationReport(cfg, checks, notes=notes, csv_files={"green.csv": _pair_csv(
        zs, ws, {"G": gv, "h": gf.harmonic(zs, ws), "re_mixed": mx.real, "im_mixed": mx.imag})})


def _exp_exhaust(cfg: ExperimentConfig) -> VerificationReport:
    domain, _ = cfg.built
    z0, rows = domain.center, []
    for j, step in enumerate(exhaustion_sequence(domain, cfg.exhaust_steps).steps, start=1):
        basis = bergman.MonomialBasis(step, cfg.basis_order)
        rule = build_quadrature(step, max(cfg.quad_order, basis.maxdeg + 2))
        kern = bergman.kernel_from_gram(basis, weights.unit_weight(step), rule)
        rows.append((j, step.radius, green.DiskGreen(step.center, step.radius).harmonic_diagonal(z0),
                     kern.diagonal(z0), math.log(step.radius), 1.0 / (math.pi * step.radius**2)))
    _, _, hs, ks, h_exact, k_exact = np.array(rows).T
    checks = [
        Check("harmonic part at center strictly increasing (violations)",
              0.0 if np.all(np.diff(hs) > 0) else 1.0, 0.5),
        Check("kernel diagonal at center strictly decreasing (violations)",
              0.0 if np.all(np.diff(ks) < 0) else 1.0, 0.5),
        Check("harmonic part vs closed form, max error", float(np.max(np.abs(hs - h_exact))),
              cfg.tol("closed_form")),
        Check("kernel diagonal vs closed form, max error", float(np.max(np.abs(ks - k_exact))),
              cfg.tol("closed_form")),
    ]
    gap = abs(float(ks[-1]) - 1.0 / (math.pi * domain.radius**2))
    return VerificationReport(
        cfg, checks, tables={"final_gap_to_parent_kernel": gap},
        csv_files={"exhaust.csv": (
            ("step", "radius", "h_center", "kernel_center", "h_exact", "kernel_exact"), rows)})


def _exp_distance(cfg: ExperimentConfig) -> VerificationReport:
    domain, weight = cfg.built
    kernel = _build_kernel(cfg, domain, weight)
    zs, ws = _sample_pairs(cfg, domain)
    d, d_swapped = bergman.skwarczynski_distance(kernel, np.stack([zs, ws]), np.stack([ws, zs]))
    sym = float(np.max(np.abs(d - d_swapped)))
    in_range = bool(np.all((0.0 <= d) & (d <= 1.0)))
    diag = bergman.skwarczynski_distance(kernel, zs[0], zs[0])

    checks = [
        Check("distance symmetry, max |d(z,w) - d(w,z)|", sym, cfg.tol("symmetry")),
        Check("distance on the diagonal", diag, 1e-12),
        Check("range violations", 0.0 if in_range else 1.0, 0.5),
    ]
    return VerificationReport(cfg, checks, csv_files={
        "distance.csv": _pair_csv(zs, ws, {"distance": d})})


@dataclass(frozen=True)
class _FieldRows:
    """(x, y, re G, im G) at every interior node of a discrete Green's function,
    built only when the CSV is written (a study discards its reports unwritten)."""

    sol: object

    def __len__(self) -> int:
        return self.sol.values.size

    def __array__(self, dtype=None, copy=None):
        pts = self.sol.grid.interior_points().ravel()
        vals = np.asarray(self.sol.values, dtype=complex).ravel()
        return np.asarray(np.column_stack([pts.real, pts.imag, vals.real, vals.imag]), dtype=dtype)


def _grid_identity(cfg: ExperimentConfig, domain: Domain, weight) -> VerificationReport:
    """The ``identity`` check: identity residuals at five grid node pairs,
    the right-hand side taken from the grid mixed derivative of all pairs at
    once.  This grid residual is |K - rhs| / |K|; the closed-form residual of
    ``green.identity_residual`` (verify-identity) divides by max(1, |K|)
    instead.  A weight the grid solves without a gauge (``op.gauge is None``)
    gets a note, and ``log_laplacian_residual`` when ``solve_gauge`` finds no
    gauge at all."""
    from . import pdegreen  # only when a grid is built

    kernel = _build_kernel(cfg, domain, weight)
    op = pdegreen.discretize(pdegreen.GridSpec(domain, tuple(cfg.grid)), weight)
    pairs = pdegreen.grid_pairs(op.grid, 5)
    solver = {}
    mixed = pdegreen.solve_mixed(op, pairs, solver)
    zs, ws = np.array(pairs, dtype=complex).T
    rhs = green.identity_rhs(weight, zs, ws, mixed)
    kv = kernel.evaluate(zs, ws)
    residual = np.abs(kv - rhs) / np.abs(kv)
    checks = [Check("grid identity residual, max over pairs",
                    _worst(residual), cfg.tol(cfg.primary_tolerance()))]
    tables, notes = {"kernel": kernel.metadata(), "solver": solver}, []
    if op.gauge is None:
        try:
            weights.solve_gauge(weight)
        except GaugeInfeasibleError as exc:
            tables["log_laplacian_residual"] = exc.residual
            notes.append("no antiholomorphic gauge: log rho is not harmonic (max |Laplacian "
                         f"log rho| = {exc.residual:.6g}); the grid solve alone gives G_rho")
        except ParameterError:
            pass  # numerically log-harmonic: in a closed form it would have a gauge
    table = _pair_csv(zs, ws, {"residual": residual})
    return VerificationReport(cfg, checks, notes=notes, tables=tables,
                              csv_files={"pde_identity.csv": table})


def _nonconstant_gauge(weight, constant: str, infeasible: str):
    """The gauge of a non-constant weight.  A constant weight raises a
    :class:`ConfigError` saying ``constant``, and a weight with no gauge one
    saying ``infeasible`` with the reason in place of ``{}``."""
    if weight.is_constant:
        raise ConfigError(constant)
    try:
        return weights.solve_gauge(weight)
    except GaugeInfeasibleError as exc:
        raise ConfigError(infeasible.format(exc)) from exc


def _exp_pde_green(cfg: ExperimentConfig) -> VerificationReport:
    domain, weight = cfg.built
    from . import pdegreen  # only when a grid is built

    if cfg.pde_check == "reference":
        # single-resolution comparison; a grid_resolution study fits the order
        if not isinstance(domain, Rectangle) or not weight.is_constant:
            raise ConfigError("the reference check needs a rectangle with a constant weight")
        n = int(cfg.grid[0])
        err, sol = pdegreen.reference_error(domain, weight, n, domain.basis_center)
        checks = [Check("grid Green vs series reference, max mid-grid error",
                        err, cfg.tol("grid_reference"))]
        return VerificationReport(cfg, checks, tables={"solver": sol.solve_stats}, csv_files={
            "pde_field.csv": (("x", "y", "re_G", "im_G"), _FieldRows(sol))})

    if cfg.pde_check == "factorization":
        # for a constant weight the weighted Green's function is rho times the
        # unweighted one, so the error is roundoff and cannot improve under
        # refinement
        gauge = _nonconstant_gauge(weight, "the factorization check needs a non-constant weight",
                                   "the factorization check needs a weight with a gauge: {}")
        rows = []
        for n in (cfg.grid[0] // 2, cfg.grid[0]):
            shape = (n, n) if isinstance(domain, Rectangle) else (n, 2 * n)
            grid = pdegreen.GridSpec(domain, shape)
            op_w = pdegreen.discretize(grid, weight)
            op_u = pdegreen.discretize(grid, weights.unit_weight(domain))
            source = grid.node_point(grid.shape[0] // 2, grid.shape[1] // 2)
            sol_w = pdegreen.solve_green(op_w, source)
            sol_u = pdegreen.solve_green(op_u, source)
            pts = grid.interior_points()
            factor = np.asarray(gauge(pts)) * np.conj(complex(gauge(sol_u.source)))
            predicted = factor * sol_u.values
            mask = pdegreen.mid_mask(grid, sol_w.source)
            rel = np.abs(sol_w.values - predicted)[mask] / np.abs(predicted)[mask]
            rows.append((n, float(np.max(rel))))
        improving = rows[-1][1] < rows[0][1]
        checks = [
            Check("weighted Green vs gauge-factored unweighted Green, max relative error",
                  rows[-1][1], cfg.tol("factorization")),
            Check("factorization error improves under refinement (violations)",
                  0.0 if improving else 1.0, 0.5),
        ]
        return VerificationReport(cfg, checks, csv_files={
            "pde_factorization.csv": (("resolution", "max_relative_error"), rows)})

    return _grid_identity(cfg, domain, weight)


def _exp_gauge(cfg: ExperimentConfig) -> VerificationReport:
    domain, weight = cfg.built
    # a constant weight's gauge is a constant, whose central differences
    # cancel exactly, so both checks and the decomposition residual would
    # read 0.0
    gauge = _nonconstant_gauge(
        weight, "gauge-experiment needs a non-constant weight: the gauge of a constant weight is "
        "constant, and its checks would hold by construction",
        "{}; pde-green identity checks the identity for such a weight on rectangles and annuli")
    rule = build_quadrature(domain, max(4, cfg.quad_order // 8))
    nodes = rule.nodes[:: max(1, len(rule.nodes) // 50)][:50]
    res = gauge.system_residuals(nodes)
    checks = [
        Check("gauge equation residual (1/g) dg/dwbar - (1/rho) drho/dwbar, max",
              res["max_ratio"], cfg.tol("gauge_residual")),
        Check("antiholomorphy residual dg/dw, max", res["max_dw"], cfg.tol("gauge_residual")),
    ]
    return VerificationReport(
        cfg, checks, tables={"decomposition_residual": gauge.decomposition_residual(nodes)})


class _Experiment(NamedTuple):
    run: Callable
    keys: str  # the config keys it reads besides COMMON_KEYS, space-separated
    kinds: tuple | None  # the domain kinds it runs on; None for every kind
    tol: str | None  # the tolerance --tol sets; pde-green's is in PDE_TOLERANCE


# the config keys every experiment accepts
COMMON_KEYS = frozenset({"experiment", "seed", "tolerances", "study"})
_KERNEL_AT_POINTS = "domain weight basis_order quad_order count pairs"
_DISKS = ("disk", "moebius_disk")

_EXPERIMENTS = {
    "kernel": _Experiment(_exp_kernel, _KERNEL_AT_POINTS, None, "hermitian"),
    "green": _Experiment(_exp_green, "domain count pairs", _DISKS, "symmetry"),
    "verify-identity": _Experiment(_exp_verify_identity, _KERNEL_AT_POINTS + " fd_step", _DISKS,
                                   "identity_analytic"),
    "exhaust": _Experiment(_exp_exhaust, "domain basis_order quad_order exhaust_steps",
                           ("disk",), "closed_form"),
    # and basis_order and quad_order for the identity check (_keys_read)
    "pde-green": _Experiment(_exp_pde_green, "domain weight grid pde_check",
                             ("rectangle", "annulus"), None),
    "distance": _Experiment(_exp_distance, _KERNEL_AT_POINTS, None, "symmetry"),
    "gauge-experiment": _Experiment(_exp_gauge, "domain weight quad_order", None, "gauge_residual"),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _keys_read(experiment: str, pde_check) -> frozenset:
    """The config keys ``experiment`` reads, with ``pde_check`` for pde-green."""
    keys = _EXPERIMENTS[experiment].keys.split()
    if experiment == "pde-green" and pde_check == "identity":
        keys += ["basis_order", "quad_order"]
    return COMMON_KEYS.union(keys)


def _check_read(experiment: str, pde_check, keys, context: str = "") -> None:
    """Raise a :class:`ConfigError` naming those of ``keys`` the experiment
    does not read."""
    unread = sorted(set(keys) - _keys_read(experiment, pde_check))
    if unread:
        scope = f" with pde_check {pde_check!r}" if experiment == "pde-green" else ""
        raise ConfigError(f"{context}{experiment}{scope} does not read config keys {unread}")


def run(config: ExperimentConfig, out_dir=None) -> VerificationReport:
    """Execute an experiment; optionally write report.json and CSV data files.

    Configuration errors surface before any computation; per-point numeric
    failures are recorded as notes and the run continues where meaningful.
    A config with a ``study`` runs its experiment once per study value (see
    :func:`_run_study`) and reports the error table and its fitted order.
    """
    if config.study is not None:
        report = _run_study(config)
    else:
        report = _EXPERIMENTS[config.experiment].run(config)
    if out_dir is not None:
        report.write(out_dir)
    return report


def _run_study(cfg: ExperimentConfig) -> VerificationReport:
    """Run the configured experiment at every study value and fit the order.

    The error of a value is the value of its report's first check, and for
    ``fd_step`` that of the finite-difference identity check.  The fitted
    order is the log-log slope, signed so that larger is better.  A value
    whose run raises a :class:`BergreenError` other than a
    :class:`ConfigError` or :class:`WeightError`, or whose error is not
    positive and finite, gives no row and a note.  If every run gives the
    same error, the parameter does not reach the check, and that is a
    configuration error.  The runs take the swept configs that validation
    built and checked.
    """
    parameter = cfg.study["parameter"]
    studied, errors, notes = [], [], []
    for v, swept in zip(cfg.study["values"], cfg._study_configs):
        try:
            report = _EXPERIMENTS[cfg.experiment].run(swept)
        except (ConfigError, WeightError):
            raise
        except BergreenError as exc:
            notes.append(f"study value {v} skipped: {exc}")
            continue
        check = report.checks[0]
        if parameter == "fd_step":  # only verify-identity reads it
            check = next(c for c in report.checks if c.name == FD_IDENTITY_CHECK)
        notes.extend(f"study value {v}: {note}" for note in report.notes)
        # a grid solution kept through the next solve made glibc trim and re-fault
        # the heap: 210k vs 88k page faults in 180 grid-reference runs, 10% slower
        del report
        if check.value is not None:  # None: the check evaluated nothing
            errors.append(check.value)
        if check.value is not None and math.isfinite(check.value) and check.value > 0:
            studied.append((v, check))
        else:
            notes.append(f"study value {v} skipped: error {check.value} is not positive and finite")
    if len(errors) > 1 and len(set(errors)) == 1:
        raise ConfigError(f"study parameter {parameter} does not reach the check {check.name!r} "
                          f"of {cfg.experiment}: every value gives {errors[0]}")
    if len(studied) < 3:
        raise StudyInsufficientError(
            "; ".join([f"only {len(studied)} study rows succeeded; need 3", *notes]))

    rows = [(float(v), c.value) for v, c in studied]
    xs, es = (np.log(np.array(column)) for column in zip(*rows))
    slope = float(np.polyfit(xs, es, 1)[0])
    # sign convention: error ~ value^order for step-like parameters, and
    # ~ value^(-order) for resolution-like ones
    order = slope if parameter == "fd_step" else -slope
    if parameter == "grid_resolution":
        finest = max(studied, key=lambda vc: vc[0])[1]
        checks = [
            Check("fitted convergence order", order, cfg.tol("fit_order_grid"), ">="),
            Check("max mid-grid error at finest resolution", finest.value, finest.tolerance,
                  finest.comparison),
        ]
    elif parameter == "fd_step":
        # verify-identity extrapolates the central difference (Richardson),
        # which is fourth order
        checks = [Check("fitted order deviation from Richardson-extrapolated theory (4)",
                        abs(order - 4.0), 0.3, "<=")]
    else:
        errs = [e for _, e in sorted(rows)]
        dec = all(a > b for a, b in zip(errs, errs[1:]))
        checks = [Check("error strictly decreasing (violations)", 0.0 if dec else 1.0, 0.5)]
    table = {"parameter": parameter, "fitted_order": order}
    return VerificationReport(cfg, checks, tables={"study": table}, notes=notes,
                              csv_files={"study.csv": (("value", "error"), rows)})
