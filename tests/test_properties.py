"""Property tests (see conftest.py for the hypothesis profile).

Hermitian symmetry and positive semidefiniteness of the sampled kernel over
random disks, Moebius images of the unit disk and admissible weights
|mu|^2, mu(z) = c (z - root) with the root outside the closed domain; and
symmetry and positivity of the Moebius-transported Green's function on
arrays; and the exit status of the command on generated study configs.
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

from hypothesis import assume, given, strategies as st  # noqa: E402

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
from bergreen.harness import EXPERIMENTS, PDE_CHECKS, STUDY_PARAMETERS  # noqa: E402
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


@st.composite
def studies(draw):
    parameter = draw(st.sampled_from(STUDY_PARAMETERS))
    values = sorted(draw(st.sets(STUDY_VALUES[parameter], min_size=3, max_size=3)))
    return {"parameter": parameter, "values": values[::-1] if draw(st.booleans()) else values}


# rho = 1, and rho = |z + 2|^2, which has a gauge and is not constant
STUDY_WEIGHTS = [{"coefficients": [[1, 0]]}, {"coefficients": [[2, 0], [1, 0]]}]


@given(st.sampled_from(EXPERIMENTS), st.sampled_from(STUDY_DOMAINS),
       st.sampled_from(STUDY_WEIGHTS), st.sampled_from(PDE_CHECKS), studies())
def test_study_configs_exit_0_1_or_2(experiment, domain, weight, pde_check, study):
    # small orders, grids and point counts keep each example cheap
    config = {"seed": 1, "count": 3, "basis_order": 6, "quad_order": 8, "laurent": [-4, 4],
              "grid": [16, 16], "exhaust_steps": 2, "domain": domain, "weight": weight,
              "pde_check": pde_check, "study": study}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli_main([experiment, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
