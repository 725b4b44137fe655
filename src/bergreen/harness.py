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
from dataclasses import asdict, dataclass, field as dc_field, replace
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

# the tolerance key the CLI --tol flag overrides, per experiment; pde-green
# takes that of its pde_check (ExperimentConfig.primary_tolerance)
PRIMARY_TOLERANCE = {
    "verify-identity": "identity_analytic",
    "kernel": "hermitian",
    "green": "symmetry",
    "exhaust": "closed_form",
    "distance": "symmetry",
    "gauge-experiment": "gauge_residual",
}
PDE_TOLERANCE = {"identity": "grid_identity", "reference": "grid_reference",
                 "factorization": "factorization"}
PDE_CHECKS = tuple(PDE_TOLERANCE)

# each sets the config key of its name, but grid_resolution sets grid = (v, v)
STUDY_PARAMETERS = ("basis_order", "quad_order", "grid_resolution", "fd_step")

# numeric config fields and the type each must have
_FIELD_TYPES = {
    "count": Integral,
    "basis_order": Integral,
    "quad_order": Integral,
    "exhaust_steps": Integral,
    "fd_step": Real,
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
        if self.pairs is not None:
            _parse_pairs(self.pairs)
        domain = _build_domain(self)
        _build_weight(self, domain)
        if self.pairs is None and self.seed is None and self._draws_points(domain):
            raise ConfigError("a seed is mandatory when points are drawn randomly")
        if self.quad_order < 1 or self.basis_order < 0:
            raise ConfigError("orders must be positive")
        if self.fd_step <= 0:
            raise ConfigError("fd_step must be positive")
        if self.count < 1:
            raise ConfigError("count must be >= 1")
        if self.exhaust_steps < 1:
            raise ConfigError("exhaust_steps must be >= 1")
        if self.pde_check not in PDE_CHECKS:
            raise ConfigError(f"unknown pde_check {self.pde_check!r}; choose from {PDE_CHECKS}")
        if not (isinstance(self.grid, (list, tuple)) and len(self.grid) == 2
                and all(_of_type(v, Integral) and v > 0 for v in self.grid)):
            raise ConfigError(f"grid must be two positive integers, got {self.grid!r}")
        self._validate_grid(domain)
        if self.study is not None:
            self._validate_study()

    def _draws_points(self, domain: Domain) -> bool:
        """Whether the run draws its points at random (:func:`_sample_pairs`)."""
        if self.experiment == "gauge-experiment":
            return not isinstance(domain, (Rectangle, Annulus))
        return self.experiment in ("verify-identity", "kernel", "green", "distance")

    def _validate_study(self):
        if not isinstance(self.study, dict) or not {"parameter", "values"} <= set(self.study):
            raise ConfigError("study needs 'parameter' and 'values'")
        parameter, values = self.study["parameter"], self.study["values"]
        if parameter not in STUDY_PARAMETERS:
            raise ConfigError(
                f"unknown study parameter {parameter!r}; choose from {STUDY_PARAMETERS}")
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
        for value in values:
            self._swept(value)

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
                    f"pde_check {self.pde_check!r} solves on a square grid; got {self.grid!r}")
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
        if self.experiment != "pde-green":
            return PRIMARY_TOLERANCE[self.experiment]
        if self.pde_check == "identity" and isinstance(_build_domain(self), Annulus):
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
            "experiment": self.config.experiment,
            "config": asdict(self.config),
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
        # the first basis_order + 1 exponents in trimming order 0, 1, -1, 2, -2, ...
        return bergman.LaurentBasis(domain, -(cfg.basis_order // 2), (cfg.basis_order + 1) // 2)
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
    zs = domain.sample_interior(rng, cfg.count)
    ws = domain.sample_interior(rng, cfg.count)
    return list(zip(zs.tolist(), ws.tolist()))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


# the only check that reads fd_step, and so the one an fd_step study reads
FD_IDENTITY_CHECK = "identity residual (finite-difference mixed derivative), max over pairs"


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
        Check(FD_IDENTITY_CHECK, _worst(r["residual_fd"] for r in records), cfg.tol("identity_fd")),
    ]
    return VerificationReport(cfg, checks, records=records, notes=notes,
                              tables={"kernel": kernel.metadata()},
                              csv_files={"identity.csv": table})


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
    return VerificationReport(cfg, checks, tables={"kernel": kernel.metadata()}, csv_files={
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
    return VerificationReport(cfg, checks, notes=notes, csv_files={
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
        basis = bergman.MonomialBasis(step, cfg.basis_order)
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
    return VerificationReport(
        cfg, checks, tables={"final_gap_to_parent_kernel": abs(ks[-1] - parent_kernel)},
        csv_files={"exhaust.csv": (
            ("step", "radius", "h_center", "kernel_center", "h_exact", "kernel_exact"), rows)})


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
    return VerificationReport(cfg, checks, csv_files={
        "distance.csv": (PAIR_COLUMNS + ("distance",), rows)})


@dataclass(frozen=True)
class _FieldRows:
    """(x, y, re G, im G) at every interior node of a discrete Green's function,
    built only when the CSV is written (a study discards its reports unwritten)."""

    sol: object

    def __len__(self) -> int:
        return self.sol.values.size

    def __iter__(self):
        pts = self.sol.grid.interior_points()
        vals = np.asarray(self.sol.values, dtype=complex)
        for p, v in zip(pts.ravel().tolist(), vals.ravel().tolist()):
            yield p.real, p.imag, v.real, v.imag


def _grid_identity(cfg: ExperimentConfig, domain: Domain, weight, n_pairs: int = 5) -> tuple:
    """Identity residuals at grid node pairs, the right-hand side taken from
    the grid mixed derivative of all pairs at once.  This grid residual is
    |K - rhs| / |K|; the closed-form residual of ``green.identity_residual``
    (verify-identity, the gauge perturbation table) divides by max(1, |K|)
    instead.  Returns the kernel, the records, the CSV table and the block
    solve's statistics."""
    from . import pdegreen  # only when a grid is built

    kernel = _build_kernel(cfg, domain, weight)
    op = pdegreen.discretize(pdegreen.GridSpec(domain, tuple(cfg.grid)), weight)
    pairs = pdegreen.grid_pairs(op.grid, n_pairs)
    solver = {}
    mixed = pdegreen.solve_mixed(op, pairs, solver)
    zs, ws = _pair_arrays(pairs)
    rhs = green.identity_rhs(weight, zs, ws, mixed)
    kv = kernel.evaluate(zs, ws)
    residual = np.abs(kv - rhs) / np.abs(kv)
    results = zip(zs.tolist(), ws.tolist(), residual[:, None].tolist())
    records, table = _pair_table(results, {"residual": "residual"})
    return kernel, records, table, solver


def _exp_pde_green(cfg: ExperimentConfig) -> VerificationReport:
    domain = _build_domain(cfg)
    if not isinstance(domain, (Rectangle, Annulus)):
        raise ConfigError("pde-green runs on rectangles and annuli")
    weight = _build_weight(cfg, domain)
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
            "pde_field.csv": (("x", "y", "re_G", "im_G"), _FieldRows(sol)),
            "pde_reference.csv": (("resolution", "max_error"), [(n, err)]),
        })

    if cfg.pde_check == "factorization":
        if weight.is_constant:
            # the weighted Green's function is then rho times the unweighted
            # one, so the error is roundoff and cannot improve under refinement
            raise ConfigError("the factorization check needs a non-constant weight")
        try:
            gauge = weights.solve_gauge(weight)
        except GaugeInfeasibleError as exc:
            raise ConfigError(f"the factorization check needs a weight with a gauge: {exc}") from exc
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

    kernel, records, table, solver = _grid_identity(cfg, domain, weight)
    checks = [Check("grid identity residual, max over pairs",
                    _worst(r["residual"] for r in records), cfg.tol(cfg.primary_tolerance()))]
    return VerificationReport(cfg, checks, records=records,
                              tables={"kernel": kernel.metadata(), "solver": solver},
                              csv_files={"pde_identity.csv": table})


#: The epsilons of the gauge-experiment table that rescales the gauge by e^epsilon
PERTURBATIONS = (0.0, 0.1, 0.2)


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
        _, records, table, solver = _grid_identity(cfg, domain, weight)
        finite = all(math.isfinite(r["residual"]) for r in records)
        checks = [Check("identity residuals computed and finite (violations)",
                        0.0 if finite else 1.0, 0.5)]
        notes = [
            "no antiholomorphic gauge: log rho is not harmonic "
            f"(max |Laplacian log rho| = {exc.residual:.6g}); identity residuals "
            "below are reported without a pass/fail judgement"
        ]
        return VerificationReport(cfg, checks, records=records, notes=notes, tables={
            "log_laplacian_residual": exc.residual, "solver": solver},
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
    if not weight.is_constant and not isinstance(domain, (Rectangle, Annulus)):
        kernel = _build_kernel(cfg, domain, weight)
        wg = green.weighted_green(_closed_form_green(domain), gauge)
        zs, ws = _pair_arrays(_sample_pairs(cfg, domain)[:5])
        rhs = green.identity_rhs(weight, zs, ws, wg.mixed_zwbar(zs, ws, method="analytic"))
        kv = kernel.evaluate(zs, ws)
        rows = [(eps, float(np.max(np.abs(kv - rhs * math.exp(2.0 * eps))
                                   / np.maximum(1.0, np.abs(kv)))))
                for eps in PERTURBATIONS]
        csv_files["gauge_perturbation.csv"] = (("epsilon", "max_identity_residual"), rows)
        tables["perturbation"] = [{"epsilon": e, "max_identity_residual": r} for e, r in rows]

    return VerificationReport(cfg, checks, tables=tables, csv_files=csv_files)


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
    A config with a ``study`` runs its experiment once per study value (see
    :func:`_run_study`) and reports the error table and its fitted order.
    """
    if config.study is not None:
        report = _run_study(config)
    else:
        report = _EXPERIMENT_FUNCS[config.experiment](config)
    if out_dir is not None:
        report.write(out_dir)
    return report


def _run_study(cfg: ExperimentConfig) -> VerificationReport:
    """Run the configured experiment at every study value and fit the order.

    The error of a value is the value of its report's first check, and for
    ``fd_step`` that of the finite-difference identity check.  The fitted
    order is the log-log slope, signed so that larger is better.  A value
    whose run raises a :class:`BergreenError` other than a
    :class:`ConfigError`, or whose error is not positive and finite, gives
    no row and a note.  If every run gives the same error, the parameter
    does not reach the check, and that is a configuration error.
    """
    parameter = cfg.study["parameter"]
    studied, errors, notes = [], [], []
    for v in cfg.study["values"]:
        try:
            report = _EXPERIMENT_FUNCS[cfg.experiment](cfg._swept(v))
        except ConfigError:
            raise
        except BergreenError as exc:
            notes.append(f"study value {v} skipped: {exc}")
            continue
        checks = report.checks
        if parameter == "fd_step":
            checks = [c for c in checks if c.name == FD_IDENTITY_CHECK] or checks
        check = checks[0]
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

    rows = [{"value": float(v), "error": c.value} for v, c in studied]
    xs = np.log(np.array([r["value"] for r in rows]))
    es = np.log(np.array([r["error"] for r in rows]))
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
        errs = [r["error"] for r in sorted(rows, key=lambda r: r["value"])]
        dec = all(a > b for a, b in zip(errs, errs[1:]))
        checks = [Check("error strictly decreasing (violations)", 0.0 if dec else 1.0, 0.5)]
    table = {"parameter": parameter, "rows": rows, "fitted_order": order}
    return VerificationReport(cfg, checks, tables={"study": table}, notes=notes, csv_files={
        "study.csv": (("value", "error"), [(r["value"], r["error"]) for r in rows])})
