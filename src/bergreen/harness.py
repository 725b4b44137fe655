"""Experiment orchestration: configs in, JSON report plus CSV data out.

Each experiment echoes its configuration, embeds the assumption ledger,
records per-point results, and judges every pass/fail line against the
tolerance it cites.  All randomness flows through a seeded generator and
every reduction is order-fixed, so identical configs produce byte-identical
outputs.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field as dc_field
from numbers import Integral, Real
from pathlib import Path

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
    Disk,
    Domain,
    MoebiusDisk,
    Rectangle,
    UnitDisk,
    build_quadrature,
    exhaustion_sequence,
    integrate,
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
    "convergence_study",
]

SCHEMA_VERSION = 1

#: Assumption ledger, embedded verbatim in every report.
ASSUMPTIONS = [
    "gauge choice: canonical antiholomorphic gauge g = conj(mu) with "
    "h = -log(mu) on the principal branch; rescaling g by e^c multiplies the "
    "weighted Green's function by e^(2 Re c) (quantified by the "
    "gauge-experiment perturbation table)",
    "distance formula: d(z, w) = sqrt(1 - |K(z,w)| / sqrt(K(z,z) K(w,w)))",
    "delta normalization: the discrete weighted-operator Green's function "
    "solves P G = -(pi/2) delta_h, so the unweighted case reproduces "
    "G = -ln|z - w| + harmonic",
]

EXPERIMENTS = (
    "kernel",
    "green",
    "verify-identity",
    "exhaust",
    "pde-green",
    "distance",
    "gauge-experiment",
)

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

# the tolerance key the CLI --tol flag overrides, per experiment
PRIMARY_TOLERANCE = {
    "verify-identity": "identity_analytic",
    "kernel": "hermitian",
    "green": "symmetry",
    "exhaust": "closed_form",
    "distance": "symmetry",
    "pde-green": "grid_identity",
    "gauge-experiment": "gauge_residual",
}

PDE_CHECKS = ("identity", "reference", "factorization")

# numeric config fields and the type each must have
_FIELD_TYPES = {
    "count": Integral,
    "basis_order": Integral,
    "quad_order": Integral,
    "exhaust_steps": Integral,
    "fd_step": Real,
    "margin": Real,
}


def _of_type(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _int_pair(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_of_type(v, Integral) for v in value))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    domain: dict = dc_field(default_factory=lambda: {"kind": "unit_disk"})
    weight: dict = dc_field(
        default_factory=lambda: {"representation": "holo_modulus_squared", "coefficients": [[1.0, 0.0]]}
    )
    basis_order: int = 30
    laurent: tuple = (-15, 15)
    quad_order: int = 40
    grid: tuple = (64, 64)
    fd_step: float = 1e-3
    count: int = 25
    seed: int | None = None
    pairs: list | None = None
    margin: float = 0.7
    exhaust_steps: int = 6
    pde_check: str = "identity"
    perturbations: tuple = (0.0, 0.1, 0.2)
    tolerances: dict = dc_field(default_factory=dict)
    study: dict | None = None

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise ConfigError(f"no experiment named; choose from {EXPERIMENTS}")
        return cls(**data)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _of_type(value, kind):
                what = "an integer" if kind is Integral else "a number"
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances must map tolerance names to numbers")
        unknown = sorted(set(self.tolerances) - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ConfigError(
                f"unknown tolerance names {unknown}; choose from {sorted(DEFAULT_TOLERANCES)}"
            )
        for name, value in self.tolerances.items():
            if not _of_type(value, Real):
                raise ConfigError(f"tolerance {name} must be a number, got {value!r}")
        if self.seed is not None and not _of_type(self.seed, Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.pairs is None and self.seed is None:
            raise ConfigError("a seed is mandatory when points are drawn randomly")
        if self.pairs is not None:
            _parse_pairs(self.pairs)
        _build_weight(self, _build_domain(self))
        if self.quad_order < 1 or self.basis_order < 0:
            raise ConfigError("orders must be positive")
        if self.fd_step <= 0:
            raise ConfigError("fd_step must be positive")
        if not 0 < self.margin < 1:
            raise ConfigError("margin must lie in (0, 1)")
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.exhaust_steps < 1:
            raise ConfigError("exhaust_steps must be >= 1")
        if self.pde_check not in PDE_CHECKS:
            raise ConfigError(f"unknown pde_check {self.pde_check!r}; choose from {PDE_CHECKS}")
        if not _int_pair(self.grid) or min(self.grid) < 1:
            raise ConfigError(f"grid must be two positive integers, got {self.grid!r}")
        self._validate_grid()
        if not _int_pair(self.laurent) or not self.laurent[0] <= 0 <= self.laurent[1]:
            raise ConfigError(
                f"laurent must be two integers lo <= 0 <= hi, got {self.laurent!r}"
            )
        if self.study is not None:
            self._validate_study()
        if not (isinstance(self.perturbations, (list, tuple))
                and all(_of_type(v, Real) for v in self.perturbations)):
            raise ConfigError(
                f"perturbations must be a list of numbers, got {self.perturbations!r}")

    def _validate_study(self):
        if not isinstance(self.study, dict) or not {"parameter", "values"} <= set(self.study):
            raise ConfigError("study needs 'parameter' and 'values'")
        values = self.study["values"]
        if not isinstance(values, (list, tuple)) or not all(_of_type(v, Real) for v in values):
            raise ConfigError(f"study values must be a list of numbers, got {values!r}")
        if self.study["parameter"] == "grid_resolution":
            # the rules of pdegreen.GridSpec for the n x n grids of the study
            bad = [v for v in values if not (float(v).is_integer() and v >= 8)]
            if bad:
                raise ConfigError(f"grid_resolution values must be integers >= 8, got {bad}")

    def _validate_grid(self):
        """The rules of :class:`pdegreen.GridSpec`, for every grid a run builds."""
        n1, n2 = self.grid
        if min(n1, n2) < 8:
            raise ConfigError(f"grid needs at least 8 nodes per axis, got {self.grid!r}")
        if self.experiment == "pde-green" and self.pde_check in ("reference", "factorization"):
            # these checks build n x n grids (n x 2n on annuli) from n = grid[0]
            if n1 != n2:
                raise ConfigError(
                    f"pde_check {self.pde_check!r} solves on a square grid; got {self.grid!r}")
            if self.pde_check == "factorization" and n1 < 16:
                raise ConfigError(
                    f"pde_check 'factorization' also solves at grid[0] // 2, so grid[0] "
                    f"must be >= 16, got {n1}")
        elif isinstance(self.domain, dict) and self.domain.get("kind") == "annulus":
            if n2 % 2 or n2 < 16:
                raise ConfigError(
                    f"annulus grids need an even angular count >= 16, got {self.grid!r}")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


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
    experiment: str
    config: dict
    checks: list
    records: list = dc_field(default_factory=list)
    tables: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)
    csv_files: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        residuals = [r.get("residual") for r in self.records if isinstance(r.get("residual"), float)]
        out = {"record_count": len(self.records)}
        if residuals:
            out["max_residual"] = max(residuals)
            out["median_residual"] = float(np.median(residuals))
        return out

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "config": self.config,
            "assumptions": ASSUMPTIONS,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "tolerance": c.tolerance,
                    "comparison": c.comparison,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "summary": self.summary(),
            "records": self.records,
            "tables": self.tables,
            "notes": self.notes,
            "outputs": sorted(self.csv_files),
            "csv_columns": {name: list(header) for name, (header, _) in self.csv_files.items()},
            "passed": self.passed,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        for name, (header, rows) in self.csv_files.items():
            with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
        return report_path


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _report(cfg: ExperimentConfig, checks: list, **parts) -> VerificationReport:
    return VerificationReport(cfg.experiment, asdict(cfg), checks, **parts)


def _worst(values):
    """The largest value, or None when nothing was evaluated."""
    values = list(values)
    return max(values) if values else None


PAIR_COLUMNS = ("re_z", "im_z", "re_w", "im_w")


def _pair_table(results, columns: dict) -> tuple:
    """The report.json records and the CSV (header, rows) of a per-pair table.

    ``results`` holds (z, w, values) triples with one value per entry of
    ``columns``, which maps each CSV column to the record key of its value
    (None keeps the value out of the records).
    """
    records, rows = [], []
    for z, w, values in results:
        record = {"z": [z.real, z.imag], "w": [w.real, w.imag]}
        record.update((key, v) for key, v in zip(columns.values(), values) if key)
        records.append(record)
        rows.append((z.real, z.imag, w.real, w.imag, *values))
    return records, (PAIR_COLUMNS + tuple(columns), rows)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


# what parsing a malformed domain or weight spec raises: a missing key, a
# field of the wrong type or shape, or a value the constructor rejects
_SPEC_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ParameterError, WeightError)


def _build_domain(cfg: ExperimentConfig) -> Domain:
    spec = cfg.domain
    try:
        return make_domain(spec["kind"], **spec.get("params", {}))
    except _SPEC_ERRORS as exc:
        raise ConfigError(f"bad domain spec {spec!r}: {exc}") from exc


def _build_weight(cfg: ExperimentConfig, domain: Domain) -> weights.Weight:
    try:
        return weights.weight_from_json(cfg.weight, domain)
    except _SPEC_ERRORS as exc:
        raise ConfigError(f"bad weight spec {cfg.weight!r}: {exc}") from exc


def _build_basis(cfg: ExperimentConfig, domain: Domain):
    if isinstance(domain, Annulus):
        return bergman.LaurentBasis(domain, *cfg.laurent)
    return bergman.MonomialBasis(domain, cfg.basis_order)


def _build_kernel(cfg: ExperimentConfig, domain: Domain, weight):
    rule = build_quadrature(domain, cfg.quad_order)
    return bergman.kernel_from_gram(_build_basis(cfg, domain), weight, rule)


def _closed_form_green(domain: Domain) -> green.GreenFunction:
    if isinstance(domain, MoebiusDisk):
        return green.moebius_transport(green.DiskGreen(0j, 1.0), domain.map)
    if isinstance(domain, Disk):
        return green.DiskGreen(domain.center, domain.radius)
    raise ConfigError(
        f"no closed-form Green's function on {domain.kind}; use the pde-green experiment"
    )


def _parse_pairs(pairs) -> list:
    try:
        out = [(complex(zr, zi), complex(wr, wi)) for (zr, zi), (wr, wi) in pairs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pairs must be a list of [[re, im], [re, im]]: {exc}") from exc
    if not out:
        raise ConfigError("pairs must not be empty")
    return out


def _pair_arrays(pairs) -> tuple:
    """The first and the second points of (z, w) pairs as two complex arrays."""
    return tuple(np.array(pairs, dtype=complex).reshape(-1, 2).T)


def _sample_pairs(cfg: ExperimentConfig, domain: Domain) -> list:
    if cfg.pairs is not None:
        return _parse_pairs(cfg.pairs)
    rng = np.random.default_rng(cfg.seed)
    zs = domain.sample_interior(rng, cfg.count, cfg.margin)
    ws = domain.sample_interior(rng, cfg.count, cfg.margin)
    return list(zip(zs.tolist(), ws.tolist()))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _exp_verify_identity(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    gf = _closed_form_green(domain)
    weight = _build_weight(cfg, domain)
    kernel = _build_kernel(cfg, domain, weight)
    wg = green.weighted_green(gf, weights.solve_gauge(weight))

    pairs = _sample_pairs(cfg, domain)
    zs, ws = _pair_arrays(pairs)
    leaves, exits = green.stencil_exits(wg.domain, zs, ws, cfg.fd_step)
    notes = [f"pair ({z}, {w}) skipped: stencil point {complex(p)} leaves the domain"
             for (z, w), p, left in zip(pairs, exits, leaves) if left]
    zs, ws = zs[~leaves], ws[~leaves]
    res_a = green.identity_residual(kernel, wg, weight, zs, ws, method="analytic")
    res_f = green.identity_residual(kernel, wg, weight, zs, ws, cfg.fd_step, method="fd")
    abs_k = np.abs(kernel.evaluate(zs, ws))
    results = zip(zs.tolist(), ws.tolist(), np.column_stack([res_a, res_f, abs_k]).tolist())
    records, table = _pair_table(
        results, {"residual_analytic": "residual", "residual_fd": "residual_fd", "abs_K": None})
    checks = [
        Check("identity residual (analytic mixed derivative), max over pairs",
              _worst(r["residual"] for r in records), cfg.tol("identity_analytic")),
        Check("identity residual (finite-difference mixed derivative), max over pairs",
              _worst(r["residual_fd"] for r in records), cfg.tol("identity_fd")),
    ]
    return _report(cfg, checks, records=records, notes=notes,
                   tables={"kernel": kernel.metadata()}, csv_files={"identity.csv": table})


def _exp_kernel(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    weight = _build_weight(cfg, domain)
    kernel = _build_kernel(cfg, domain, weight)
    pts = _pair_arrays(_sample_pairs(cfg, domain))[0]
    nxt = np.roll(pts, -1)
    kv, kv_swapped = kernel.evaluate(np.stack([pts, nxt]), np.stack([nxt, pts]))
    herm = float(np.max(np.abs(kv - np.conj(kv_swapped))))
    rows = np.column_stack([pts.real, pts.imag, nxt.real, nxt.imag, kv.real, kv.imag]).tolist()
    sub = pts[:6]
    M = kernel.evaluate(sub[:, None], sub[None, :])
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (M + M.conj().T))))

    checks = [
        Check("Hermitian symmetry, max |K(z,w) - conj(K(w,z))|", herm, cfg.tol("hermitian")),
        Check("sampled kernel matrix smallest eigenvalue (>= -tol)",
              min_eig, -cfg.tol("psd"), ">="),
    ]
    return _report(cfg, checks, tables={"kernel": kernel.metadata()}, csv_files={
        "kernel.csv": (PAIR_COLUMNS + ("re_K", "im_K"), rows)})


def _exp_green(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    gf = _closed_form_green(domain)
    zs, ws = _pair_arrays(_sample_pairs(cfg, domain))
    # G is singular on the diagonal, so it is judged off the diagonal only,
    # by the rule DiskGreen.value raises on
    diagonal = np.abs(zs - ws) <= green.DIAGONAL_TOL
    notes = [f"pair z=w={z} excluded: diagonal singularity" for z in zs[diagonal].tolist()]
    bdry = float(np.max(np.abs(gf.value(domain.boundary_points(64), ws[0]))))
    zs, ws = zs[~diagonal], ws[~diagonal]
    gv = gf.value(zs, ws)
    mx = gf.mixed_analytic(zs, ws)
    rows = np.column_stack(
        [zs.real, zs.imag, ws.real, ws.imag, gv, gf.harmonic(zs, ws), mx.real, mx.imag]).tolist()

    checks = [
        Check("symmetry, max |G(z,w) - G(w,z)|",
              _worst(np.abs(gv - gf.value(ws, zs)).tolist()), cfg.tol("symmetry")),
        Check("boundary vanishing, max |G(boundary, w)|", bdry, cfg.tol("boundary")),
        Check("interior positivity violations", _worst(np.where(gv > 0, 0.0, 1.0).tolist()), 0.5),
    ]
    return _report(cfg, checks, notes=notes, csv_files={
        "green.csv": (PAIR_COLUMNS + ("G", "h", "re_mixed", "im_mixed"), rows)})


def _exp_exhaust(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    if not isinstance(domain, Disk) or isinstance(domain, MoebiusDisk):
        raise ConfigError("the exhaust experiment runs on disks")
    ex = exhaustion_sequence(domain, cfg.exhaust_steps)
    z0 = domain.center
    parent_kernel = 1.0 / (math.pi * domain.radius**2)

    rows, hs, ks, herr, kerr = [], [], [], 0.0, 0.0
    for j, step in enumerate(ex.steps, start=1):
        g = green.DiskGreen(step.center, step.radius)
        h_j = g.harmonic_diagonal(z0)
        basis = bergman.MonomialBasis(step, min(cfg.basis_order, 20))
        rule = build_quadrature(step, max(cfg.quad_order, basis.maxdeg + 2))
        kern = bergman.kernel_from_gram(basis, weights.unit_weight(step), rule)
        k_j = kern.diagonal(z0)
        h_exact = math.log(step.radius)
        k_exact = 1.0 / (math.pi * step.radius**2)
        herr = max(herr, abs(h_j - h_exact))
        kerr = max(kerr, abs(k_j - k_exact))
        hs.append(h_j)
        ks.append(k_j)
        rows.append((j, step.radius, h_j, k_j, h_exact, k_exact))

    mono_h = all(a < b for a, b in zip(hs, hs[1:]))
    mono_k = all(a > b for a, b in zip(ks, ks[1:]))
    checks = [
        Check("harmonic part at center strictly increasing (violations)",
              0.0 if mono_h else 1.0, 0.5),
        Check("kernel diagonal at center strictly decreasing (violations)",
              0.0 if mono_k else 1.0, 0.5),
        Check("harmonic part vs closed form, max error", herr, cfg.tol("closed_form")),
        Check("kernel diagonal vs closed form, max error", kerr, cfg.tol("closed_form")),
    ]
    return _report(cfg, checks, tables={"final_gap_to_parent_kernel": abs(ks[-1] - parent_kernel)},
                   csv_files={"exhaust.csv": (
                       ("step", "radius", "h_center", "kernel_center", "h_exact", "kernel_exact"),
                       rows)})


def _exp_distance(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    weight = _build_weight(cfg, domain)
    kernel = _build_kernel(cfg, domain, weight)
    pairs = _sample_pairs(cfg, domain)

    zs, ws = _pair_arrays(pairs)
    d, d_swapped = bergman.skwarczynski_distance(kernel, np.stack([zs, ws]), np.stack([ws, zs]))
    sym = float(np.max(np.abs(d - d_swapped)))
    in_range = bool(np.all((0.0 <= d) & (d <= 1.0)))
    rows = np.column_stack([zs.real, zs.imag, ws.real, ws.imag, d]).tolist()
    diag = bergman.skwarczynski_distance(kernel, zs[0], zs[0])

    checks = [
        Check("distance symmetry, max |d(z,w) - d(w,z)|", sym, cfg.tol("symmetry")),
        Check("distance on the diagonal", diag, 1e-12),
        Check("range violations", 0.0 if in_range else 1.0, 0.5),
    ]
    return _report(cfg, checks, csv_files={"distance.csv": (PAIR_COLUMNS + ("distance",), rows)})


def _field_rows(sol) -> list:
    """(x, y, re G, im G) at every interior node of a discrete Green's function."""
    pts = sol.grid.interior_points()
    vals = np.asarray(sol.values, dtype=complex)
    return [
        (p.real, p.imag, v.real, v.imag)
        for p, v in zip(pts.ravel().tolist(), vals.ravel().tolist())
    ]


def _grid_identity(cfg: ExperimentConfig, domain: Domain, weight, n_pairs: int = 5) -> tuple:
    """Identity residuals at grid node pairs, the right-hand side taken from
    the grid mixed derivative of all pairs at once.  This grid residual is
    |K - rhs| / |K|; the closed-form residual of ``green.identity_residual``
    (verify-identity, the gauge perturbation table) divides by max(1, |K|)
    instead.  Returns the kernel, the records and the CSV table."""
    from . import pdegreen  # loads scipy, so only when a grid is built

    kernel = _build_kernel(cfg, domain, weight)
    op = pdegreen.discretize(pdegreen.GridSpec(domain, tuple(cfg.grid)), weight)
    pairs = pdegreen.grid_pairs(op.grid, n_pairs)
    mixed = pdegreen.solve_mixed(op, pairs)
    zs, ws = _pair_arrays(pairs)
    rhs = green.identity_rhs(weight, zs, ws, mixed)
    kv = kernel.evaluate(zs, ws)
    residual = np.abs(kv - rhs) / np.abs(kv)
    results = zip(zs.tolist(), ws.tolist(), residual[:, None].tolist())
    records, table = _pair_table(results, {"residual": "residual"})
    return kernel, records, table


def _exp_pde_green(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    if not isinstance(domain, (Rectangle, Annulus)):
        raise ConfigError("pde-green runs on rectangles and annuli")
    weight = _build_weight(cfg, domain)
    from . import pdegreen  # loads scipy, so only when a grid is built

    if cfg.pde_check == "reference":
        # single-resolution comparison; multi-resolution order fitting goes
        # through the grid_resolution convergence study
        if not isinstance(domain, Rectangle) or not getattr(weight, "is_constant", False):
            raise ConfigError("the reference check needs a rectangle with a constant weight")
        n = int(cfg.grid[0])
        err, sol = pdegreen.reference_error(domain, weight, n, domain.basis_center)
        checks = [Check("grid Green vs series reference, max mid-grid error",
                        err, cfg.tol("grid_reference"))]
        return _report(cfg, checks, tables={"solver": sol.solve_stats}, csv_files={
            "pde_field.csv": (("x", "y", "re_G", "im_G"), _field_rows(sol)),
            "pde_reference.csv": (("resolution", "max_error"), [(n, err)]),
        })

    if cfg.pde_check == "factorization":
        gauge = weights.solve_gauge(weight)
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
        return _report(cfg, checks, csv_files={
            "pde_factorization.csv": (("resolution", "max_relative_error"), rows)})

    kernel, records, table = _grid_identity(cfg, domain, weight)
    tol_key = "grid_identity_annulus" if isinstance(domain, Annulus) else "grid_identity"
    checks = [Check("grid identity residual, max over pairs",
                    _worst(r["residual"] for r in records), cfg.tol(tol_key))]
    return _report(cfg, checks, records=records, tables={"kernel": kernel.metadata()},
                   csv_files={"pde_identity.csv": table})


def _exp_gauge(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    weight = _build_weight(cfg, domain)

    try:
        gauge = weights.solve_gauge(weight)
    except GaugeInfeasibleError as exc:
        if not isinstance(domain, (Rectangle, Annulus)):
            raise ConfigError(
                "the generic-weight experiment needs a rectangle or annulus domain"
            ) from exc
        _, records, table = _grid_identity(cfg, domain, weight)
        finite = all(math.isfinite(r["residual"]) for r in records)
        checks = [Check("identity residuals computed and finite (violations)",
                        0.0 if finite else 1.0, 0.5)]
        notes = [
            "no antiholomorphic gauge: log rho is not harmonic "
            f"(max |Laplacian log rho| = {exc.residual:.6g}); identity residuals "
            "below are reported without a pass/fail judgement"
        ]
        return _report(cfg, checks, records=records, notes=notes,
                       tables={"log_laplacian_residual": exc.residual},
                       csv_files={"gauge_identity.csv": table})

    rule = build_quadrature(domain, max(4, cfg.quad_order // 8))
    nodes = rule.nodes[:: max(1, len(rule.nodes) // 50)][:50]
    res = gauge.system_residuals(nodes)
    checks = [
        Check("gauge equation residual (1/g) dg/dwbar - (1/rho) drho/dwbar, max",
              res["max_ratio"], cfg.tol("gauge_residual")),
        Check("antiholomorphy residual dg/dw, max", res["max_dw"], cfg.tol("gauge_residual")),
    ]
    tables = {"decomposition_residual": gauge.decomposition_residual(nodes)}
    csv_files = {}

    # Rescaling the gauge by e^eps multiplies the weighted Green's function by
    # e^(2 eps); the induced identity residual quantifies gauge sensitivity.
    if not getattr(weight, "is_constant", False) and not isinstance(domain, (Rectangle, Annulus)):
        kernel = _build_kernel(cfg, domain, weight)
        wg = green.weighted_green(_closed_form_green(domain), gauge)
        zs, ws = _pair_arrays(_sample_pairs(cfg, domain)[:5])
        rhs = green.identity_rhs(weight, zs, ws, wg.mixed_zwbar(zs, ws, method="analytic"))
        kv = kernel.evaluate(zs, ws)
        rows = [(eps, float(np.max(np.abs(kv - rhs * math.exp(2.0 * eps))
                                   / np.maximum(1.0, np.abs(kv)))))
                for eps in cfg.perturbations]
        csv_files["gauge_perturbation.csv"] = (("epsilon", "max_identity_residual"), rows)
        tables["perturbation"] = [{"epsilon": e, "max_identity_residual": r} for e, r in rows]

    return _report(cfg, checks, tables=tables, csv_files=csv_files)


_EXPERIMENT_FUNCS = {
    "verify-identity": _exp_verify_identity,
    "kernel": _exp_kernel,
    "green": _exp_green,
    "exhaust": _exp_exhaust,
    "distance": _exp_distance,
    "pde-green": _exp_pde_green,
    "gauge-experiment": _exp_gauge,
}


def run(config: ExperimentConfig, out_dir=None) -> VerificationReport:
    """Execute an experiment; optionally write report.json and CSV data files.

    Configuration errors surface before any computation; per-point numeric
    failures are recorded as notes and the run continues where meaningful.
    """
    if config.study is not None:
        report = _run_study(config)
    else:
        report = _EXPERIMENT_FUNCS[config.experiment](config)
    if out_dir is not None:
        report.write(out_dir)
    return report


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

STUDY_PARAMETERS = ("basis_order", "quad_order", "grid_resolution", "fd_step")


def _disk_kernel_closed_form(z, w):
    return 1.0 / (math.pi * (1.0 - z * np.conj(w)) ** 2)


# separated pairs with O(1) derivative constants, so central-difference
# truncation stays far above the rounding floor of the double difference
_FD_STUDY_PAIRS = [(0.45 + 0.2j, -0.3 + 0.1j), (0.1 - 0.5j, 0.4 + 0.3j), (-0.5 + 0.1j, 0.15 - 0.4j)]


def _study_error(parameter: str, v) -> float:
    """The error metric of one study value (see :func:`convergence_study`)."""
    if parameter == "basis_order":
        dom = UnitDisk()
        rule = build_quadrature(dom, max(int(v) + 5, 20))
        kern = bergman.kernel_from_gram(
            bergman.MonomialBasis(dom, int(v)), weights.unit_weight(dom), rule)
        zs, ws = _pair_arrays([(0.3, 0.2), (0.4 + 0.2j, -0.3j), (0.5, -0.5)])
        return float(np.max(np.abs(kern.evaluate(zs, ws) - _disk_kernel_closed_form(zs, ws))))
    if parameter == "quad_order":
        dom = UnitDisk()
        f = lambda zs: 1.0 / (1.2 - np.real(zs))  # pole just outside the closure
        ref = integrate(build_quadrature(dom, 60), f)
        return abs(integrate(build_quadrature(dom, int(v)), f) - ref)
    if parameter == "grid_resolution":
        from . import pdegreen  # loads scipy, so only when a grid is built

        dom = Rectangle(0.0, 1.0, 0.0, 1.0)
        # keep only the error, so this resolution's factorization is freed
        # before the next one is built
        return pdegreen.reference_error(dom, weights.unit_weight(dom), int(v),
                                        dom.basis_center)[0]
    # fd_step
    gf = green.DiskGreen(0j, 1.0)
    zs, ws = _pair_arrays(_FD_STUDY_PAIRS)
    fd = green.wirtinger_mixed(gf.value, zs, ws, float(v), richardson=False)
    return float(np.mean(np.abs(fd - gf.mixed_analytic(zs, ws))))


def convergence_study(config: ExperimentConfig, parameter: str, values) -> dict:
    """Error-versus-parameter table with a least-squares fitted order.

    The error metric is parameter specific: kernel truncation against the
    closed unit-disk form for ``basis_order``, smooth-integrand quadrature
    drift for ``quad_order``, grid-versus-series error for
    ``grid_resolution``, and plain (non-extrapolated) central-difference
    error of the mixed derivative for ``fd_step``.  The fitted order is the
    log-log slope, signed so that larger is better.  ``skipped`` lists,
    with its reason, every value that gave no row: its computation raised a
    :class:`BergreenError`, or its error was zero or not finite.
    """
    if parameter not in STUDY_PARAMETERS:
        raise ConfigError(f"unknown study parameter {parameter!r}")
    vals = list(values)
    if len(vals) < 3:
        raise StudyInsufficientError("a study needs at least three parameter values")
    diffs = np.diff(np.asarray(vals, dtype=float))
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("study values must be strictly monotone")

    rows, skipped = [], []
    for v in vals:
        try:
            err = _study_error(parameter, v)
        except BergreenError as exc:
            skipped.append(f"study value {v} skipped: {exc}")
            continue
        if math.isfinite(err) and err > 0:
            rows.append({"value": float(v), "error": err})
        else:
            skipped.append(f"study value {v} skipped: error {err} is not positive and finite")
    if len(rows) < 3:
        raise StudyInsufficientError(
            "; ".join([f"only {len(rows)} study rows succeeded; need 3", *skipped]))

    xs = np.log(np.array([r["value"] for r in rows]))
    es = np.log(np.array([r["error"] for r in rows]))
    slope = float(np.polyfit(xs, es, 1)[0])
    # sign convention: error ~ value^order for step-like parameters, and
    # ~ value^(-order) for resolution-like ones
    order = slope if parameter == "fd_step" else -slope
    return {"parameter": parameter, "rows": rows, "fitted_order": order, "skipped": skipped}


def _run_study(cfg: ExperimentConfig) -> VerificationReport:
    table = convergence_study(cfg, cfg.study["parameter"], cfg.study["values"])
    notes = table.pop("skipped")
    param = table["parameter"]
    if param == "grid_resolution":
        checks = [
            Check("fitted convergence order", table["fitted_order"],
                  cfg.tol("fit_order_grid"), ">="),
            Check("max mid-grid error at finest resolution", table["rows"][-1]["error"],
                  cfg.tol("grid_reference")),
        ]
    elif param == "fd_step":
        checks = [Check("fitted order deviation from central-difference theory",
                        abs(table["fitted_order"] - 2.0), 0.3, "<=")]
    else:
        errs = [r["error"] for r in table["rows"]]
        dec = all(a > b for a, b in zip(errs, errs[1:]))
        checks = [Check("error strictly decreasing (violations)", 0.0 if dec else 1.0, 0.5)]
    return _report(cfg, checks, tables={"study": table}, notes=notes, csv_files={
        "study.csv": (("value", "error"), [(r["value"], r["error"]) for r in table["rows"]])})
