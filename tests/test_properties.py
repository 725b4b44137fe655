"""Property tests (see conftest.py for the hypothesis profile).

Hermitian symmetry and positive semidefiniteness of the sampled kernel over
random disks, Moebius images of the unit disk and admissible weights
|mu|^2, mu(z) = c (z - root) with the root outside the closed domain; and
symmetry and positivity of the Moebius-transported Green's function on
arrays; and the exit status of the command on generated configs, each
drawn from the keys and domains its experiment's row of the harness table
names, given one key that row does not name, or given one malformed value
of a key it reads.
"""

import cmath
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bergreen import (  # noqa: E402
    Disk,
    DiskGreen,
    MoebiusDisk,
    MonomialBasis,
    build_quadrature,
    kernel_from_gram,
    moebius_transport,
)
from bergreen.cli import main as cli_main  # noqa: E402
from bergreen.errors import ConfigError  # noqa: E402
from bergreen.geometry import make_domain  # noqa: E402
from bergreen.harness import (  # noqa: E402
    _EXPERIMENTS,
    EXPERIMENTS,
    PDE_CHECKS,
    STUDY_PARAMETERS,
    ExperimentConfig,
    _keys_read,
)
from bergreen.weights import HoloModulusSquaredWeight  # noqa: E402

unit = st.floats(0.0, 1.0)
angle = st.floats(0.0, 2 * np.pi)


@st.composite
def domains(draw):
    if draw(st.booleans()):
        center = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        return Disk(center, draw(st.floats(0.3, 3.0)))
    a = draw(st.floats(0.0, 0.8)) * cmath.exp(1j * draw(angle))
    return MoebiusDisk(a, draw(angle))


@st.composite
def weighted_kernels(draw):
    dom = draw(domains())
    center, radius = dom.basis_center, getattr(dom, "radius", 1.0)
    # the root of mu keeps at least 20% of the radius off the closed domain
    root = center + radius * (1.2 + 3 * draw(unit)) * cmath.exp(1j * draw(angle))
    scale = draw(st.floats(0.5, 2.0)) * cmath.exp(1j * draw(angle))
    weight = HoloModulusSquaredWeight([-scale * root, scale], dom)
    kernel = kernel_from_gram(MonomialBasis(dom, 8), weight, build_quadrature(dom, 10))
    return dom, kernel


def points(dom, polar):
    center, radius = dom.basis_center, getattr(dom, "radius", 1.0)
    return np.array([center + 0.9 * radius * s * cmath.exp(1j * t) for s, t in polar])


polar_points = st.lists(st.tuples(unit, angle), min_size=2, max_size=6)


@given(weighted_kernels(), polar_points, polar_points)
def test_kernel_is_hermitian(case, zs, ws):
    dom, kernel = case
    n = min(len(zs), len(ws))
    zs, ws = points(dom, zs)[:n], points(dom, ws)[:n]
    kzw = kernel.evaluate(zs, ws)
    kwz = kernel.evaluate(ws, zs)
    scale = np.sqrt(kernel.diagonal(zs) * kernel.diagonal(ws))
    assert np.all(np.abs(kzw - np.conj(kwz)) <= 1e-12 * scale)


@given(weighted_kernels(), polar_points)
def test_sampled_kernel_matrix_is_psd(case, pts):
    dom, kernel = case
    pts = points(dom, pts)
    M = kernel.evaluate(pts[:, None], pts[None, :])
    eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert eigs[0] >= -1e-10 * eigs[-1]


@given(domains().filter(lambda d: isinstance(d, MoebiusDisk)),
                  polar_points, polar_points)
def test_transported_green_is_symmetric_and_positive(dom, zs, ws):
    n = min(len(zs), len(ws))
    zs, ws = points(dom, zs)[:n], points(dom, ws)[:n]
    assume(np.min(np.abs(zs - ws)) > 1e-6)
    g = moebius_transport(DiskGreen(0, 1.0), dom.map)
    gzw, gwz = g.value(zs, ws), g.value(ws, zs)
    assert np.all(np.abs(gzw - gwz) <= 1e-12 * np.maximum(1.0, np.abs(gzw)))
    assert np.all(gzw > 0)


STUDY_VALUES = {
    "basis_order": st.integers(0, 8),
    "quad_order": st.integers(1, 12),
    "grid_resolution": st.integers(8, 24),
    "fd_step": st.floats(1e-3, 0.1),
}
STUDY_DOMAINS = [
    {"kind": "unit_disk"},
    {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}},
    {"kind": "annulus", "params": {"inner": 0.5, "outer": 1.0}},
]


def _key(parameter):
    """The config key a study parameter sets."""
    return "grid" if parameter == "grid_resolution" else parameter


def _runs_on(experiment, spec) -> bool:
    kinds = _EXPERIMENTS[experiment].kinds
    return kinds is None or make_domain(spec["kind"], **spec.get("params", {})).kind in kinds


@st.composite
def studies(draw, keys):
    # a parameter the experiment reads, when it reads one
    read = [p for p in STUDY_PARAMETERS if _key(p) in keys] or list(STUDY_PARAMETERS)
    parameter = draw(st.sampled_from(read))
    values = sorted(draw(st.sets(STUDY_VALUES[parameter], min_size=3, max_size=3)))
    return {"parameter": parameter, "values": values[::-1] if draw(st.booleans()) else values}


# rho = 1, and rho = |z + 2|^2, which has a gauge and is not constant
STUDY_WEIGHTS = [{"coefficients": [[1, 0]]}, {"coefficients": [[2, 0], [1, 0]]}]


def _cli(experiment, config):
    """Exit status and stderr of the command on ``config``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli_main([experiment, "--config", str(path), "--out", str(Path(tmp) / "o")])
    return code, err.getvalue()


@given(st.sampled_from(EXPERIMENTS), st.sampled_from(STUDY_WEIGHTS),
       st.sampled_from(PDE_CHECKS), st.data())
def test_study_configs_exit_0_1_or_2(experiment, weight, pde_check, data):
    # small orders, grids and point counts keep each example cheap
    keys = _keys_read(experiment, pde_check)
    domain = data.draw(st.sampled_from([d for d in STUDY_DOMAINS if _runs_on(experiment, d)]))
    config = {k: v for k, v in {
        "seed": 1, "count": 3, "basis_order": 8, "quad_order": 8, "grid": [16, 16],
        "exhaust_steps": 2, "domain": domain, "weight": weight, "pde_check": pde_check,
    }.items() if k in keys}
    code, err = _cli(experiment, {**config, "study": data.draw(studies(keys))})
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# a well-formed and a malformed value of every key an experiment may not read
UNREAD_VALUES = {
    "domain": [{"kind": "unit_disk"}, {"kind": "nowhere"}],
    "weight": [{"coefficients": [[2, 0], [1, 0]]}, {"coefficients": "ab"}],
    "basis_order": [8, -1],
    "quad_order": [8, 2.5],
    "grid": [[16, 16], [4, 4]],
    "fd_step": [1e-3, float("nan")],
    "count": [3, 0],
    "pairs": [[[[0.1, 0], [0.2, 0]]], []],
    "exhaust_steps": [2, 0],
    "pde_check": ["identity", "nope"],
}


@given(st.sampled_from(EXPERIMENTS), st.sampled_from(PDE_CHECKS), st.data())
def test_a_key_the_experiment_does_not_read_exits_2(experiment, pde_check, data):
    keys = _keys_read(experiment, pde_check)
    key = data.draw(st.sampled_from(sorted(set(UNREAD_VALUES) - keys)))
    config = {"seed": 1, key: data.draw(st.sampled_from(UNREAD_VALUES[key]))}
    if "pde_check" in keys:
        config["pde_check"] = pde_check
    code, err = _cli(experiment, config)
    assert code == 2
    assert "does not read config keys" in err and repr(key) in err
    assert "Traceback" not in err


NAN, INF = float("nan"), float("inf")
SQUARE = {"kind": "rectangle", "params": {"x0": 0, "x1": 1, "y0": 0, "y1": 1}}

# values validation must reject, of every key an experiment may read besides
# the experiment itself: the wrong type, a bool, a negative value, zero where
# it is not allowed, NaN and +-inf.  None is a large value validation would
# accept, so no example allocates a large block.
MALFORMED = {
    "seed": [-1, True, 1.5, "1", NAN, INF],
    "tolerances": [[], 1e-3, {"hermitian": NAN}, {"hermitian": -INF}, {"hermitian": True},
                   {"hermitian": "1"}],
    "study": ["fd_step", {"parameter": "basis_order"},
              {"parameter": "grid_resolution", "values": [NAN, 16, 24]},
              {"parameter": "quad_order", "values": [0, 4, 8]},
              {"parameter": "fd_step", "values": [-1e-3, 1e-3, 2e-3]},
              {"parameter": "fd_step", "values": [1e-3, 2e-3, INF]},
              {"parameter": "basis_order", "values": [True, 2, 3]},
              {"parameter": "nope", "values": [1, 2, 3]}],
    "domain": ["disk", {"kind": "nowhere"}, {"kind": "disk", "params": {"radius": -1}},
               {"kind": "disk", "params": {"radius": NAN}},
               {"kind": "annulus", "params": {"inner": 0, "outer": 1}},
               {"kind": "annulus", "params": {"inner": 0.5, "outer": INF}},
               {"kind": "rectangle", "params": {"x0": 0, "x1": INF, "y0": 0, "y1": 1}}],
    "weight": [5, {"coefficients": "ab"}, {"coefficients": [[NAN, 0]]},
               {"coefficients": [[INF, 0], [1, 0]]}, {"coefficients": [[1, 0], [-INF, 0]]},
               {"representation": "nope"}],
    "basis_order": [-1, True, 2.5, "8", NAN, INF, None],
    "quad_order": [0, -3, True, 2.5, "8", NAN, -INF],
    "grid": [[0, 16], [-16, 16], [16], "16", [True, 16], [16.0, 16], [NAN, 16], [INF, 16], 16],
    "fd_step": [0, -1e-3, NAN, INF, -INF, True, "0.001"],
    "count": [0, -1, True, 2.5, "3", NAN, INF],
    "pairs": [[], "x", [[[2, 0], [0, 0]]], [[[NAN, 0], [0, 0]]], [[[INF, 0], [0, 0]]],
              [[0.1, 0.2]], 5],
    "exhaust_steps": [0, -1, True, 1.5, "2", NAN],
    "pde_check": ["nope", 1, True, None, NAN],
}


@settings(max_examples=150)
@given(st.sampled_from(EXPERIMENTS), st.sampled_from(PDE_CHECKS), st.data())
def test_a_malformed_value_of_a_key_the_experiment_reads_exits_2(experiment, pde_check, data):
    keys = _keys_read(experiment, pde_check)
    assert keys - {"experiment"} <= set(MALFORMED)
    key = data.draw(st.sampled_from(sorted(keys - {"experiment"})))
    config = {"seed": 1, "domain": SQUARE, "pde_check": pde_check} if experiment == "pde-green" \
        else {"seed": 1}
    code, err = _cli(experiment, {**config, key: data.draw(st.sampled_from(MALFORMED[key]))})
    assert code == 2
    # a bad tolerance is named by its own name, after "tolerance"
    assert ("tolerance" if key == "tolerances" else key) in err
    assert "Traceback" not in err


DOMAIN_PARAMS = {
    "unit_disk": {},
    "disk": {"center": [0, 0], "radius": 1},
    "moebius_disk": {"a": [0.3, 0.1], "theta": 0.5},
    "annulus": {"inner": 0.5, "outer": 1.0},
    "rectangle": {"x0": 0, "x1": 1, "y0": 0, "y1": 1},
}


@st.composite
def spelled_kinds(draw):
    """A canonical domain kind and a spelling of it that make_domain accepts:
    any letter case, and '-' for '_'."""
    kind = draw(st.sampled_from(sorted(DOMAIN_PARAMS)))
    spelling = "".join(draw(st.sampled_from([c.lower(), c.upper()] + (["-"] if c == "_" else [])))
                       for c in kind)
    return kind, spelling


def _validation_error(config):
    try:
        ExperimentConfig.from_dict(config)
    except ConfigError as exc:
        return str(exc)
    return None


@given(spelled_kinds(), st.sampled_from(EXPERIMENTS), st.sampled_from(PDE_CHECKS),
       st.sampled_from([(4, 16), (16, 8), (16, 15), (16, 16), (16, 17), (12, 12), (32, 32)]))
def test_every_spelling_of_a_domain_kind_validates_like_the_kind(kinds, experiment, pde_check,
                                                                 grid):
    kind, spelling = kinds
    keys = _keys_read(experiment, pde_check)
    config = {k: v for k, v in {"experiment": experiment, "seed": 1, "pde_check": pde_check,
                                "grid": list(grid)}.items() if k in keys}
    canonical = _validation_error({**config, "domain": {"kind": kind, "params": DOMAIN_PARAMS[kind]}})
    spelled = _validation_error({**config,
                                 "domain": {"kind": spelling, "params": DOMAIN_PARAMS[kind]}})
    assert spelled == canonical
