"""Property tests (see conftest.py for the hypothesis profile).

Hermitian symmetry and positive semidefiniteness of the sampled kernel over
random disks, Moebius images of the unit disk and admissible weights
|mu|^2, mu(z) = c (z - root) with the root outside the closed domain; and
symmetry and positivity of the Moebius-transported Green's function on
arrays.
"""

import cmath

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
