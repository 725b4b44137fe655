import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import bergreen
from bergreen import (
    Annulus,
    Disk,
    LaurentBasis,
    MoebiusDisk,
    MonomialBasis,
    NumericError,
    ParameterError,
    Rectangle,
    UnitDisk,
    build_quadrature,
    extremal_function,
    gram_matrix,
    kernel_from_gram,
    reproducing_residual,
    skwarczynski_distance,
    unit_weight,
)
from bergreen.weights import HoloModulusSquaredWeight

DISK = UnitDisk()


def disk_kernel(z, w, radius=1.0):
    # closed form r^2 / (pi (r^2 - z conj(w))^2) for the centered disk
    return radius**2 / (math.pi * (radius**2 - z * np.conj(w)) ** 2)


def build_disk_kernel(maxdeg=30, quad=40, weight=None):
    w = weight if weight is not None else unit_weight(DISK)
    rule = build_quadrature(DISK, quad)
    return kernel_from_gram(MonomialBasis(DISK, maxdeg), w, rule), rule


def test_gram_unit_disk_diagonal():
    rule = build_quadrature(DISK, 20)
    G = gram_matrix(MonomialBasis(DISK, 6), unit_weight(DISK), rule)
    for n in range(7):
        assert G[n, n].real == pytest.approx(math.pi / (n + 1), rel=1e-13)
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    assert off < 1e-13
    assert G[1, 1].real == pytest.approx(math.pi / 2, rel=1e-13)


def test_gram_scaled_disk_diagonal():
    dom = Disk(0, 0.75)
    rule = build_quadrature(dom, 20)
    G = gram_matrix(MonomialBasis(dom, 5), unit_weight(dom), rule)
    for n in range(6):
        want = math.pi * 0.75 ** (2 * n + 2) / (n + 1)
        assert G[n, n].real == pytest.approx(want, rel=1e-13)


def test_gram_annulus_laurent():
    ann = Annulus(0.5, 1.0)
    basis = LaurentBasis(ann, -3, 3)
    rule = build_quadrature(ann, 20)
    G = gram_matrix(basis, unit_weight(ann), rule)
    i = basis.exponents.index(-1)
    assert G[i, i].real == pytest.approx(2 * math.pi * math.log(2.0), rel=1e-13)
    for k, n in enumerate(basis.exponents):
        if n != -1:
            want = 2 * math.pi * (1.0 - 0.5 ** (2 * n + 2)) / (2 * n + 2)
            assert G[k, k].real == pytest.approx(want, rel=1e-13)


def fsum_gram(basis, weight, rule):
    # the reference: every entry one fsum over the nodes, in node order
    B = basis.evaluate(rule.nodes)
    wr = rule.weights * np.real(np.asarray(weight.value(rule.nodes), dtype=complex))
    n = basis.size
    G = np.empty((n, n), dtype=complex)
    for m in range(n):
        for k in range(m, n):
            terms = wr * B[:, m] * np.conj(B[:, k])
            G[m, k] = complex(math.fsum(terms.real), math.fsum(terms.imag))
            G[k, m] = np.conj(G[m, k])
    return G


MOEBIUS = MoebiusDisk(0.3 + 0.1j, 0.5)
ANNULUS = Annulus(0.5, 1.0)
# (basis, weight, quadrature order): 6400, 900 and 1600 nodes, so the last two
# end on a partial block of 256 nodes
GRAM_CASES = {
    "disk": (MonomialBasis(DISK, 30), HoloModulusSquaredWeight([2, 1], DISK), 40),
    "moebius": (MonomialBasis(MOEBIUS, 12), HoloModulusSquaredWeight([2, 1], MOEBIUS), 15),
    "annulus": (LaurentBasis(ANNULUS, -8, 8), unit_weight(ANNULUS), 20),
}


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_gram_matches_fsum_and_is_hermitian(case):
    basis, weight, quad = GRAM_CASES[case]
    rule = build_quadrature(basis.domain, quad)
    G = gram_matrix(basis, weight, rule)
    ref = fsum_gram(basis, weight, rule)
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(G, G.conj().T)
    assert not np.any(G.diagonal().imag)


def test_truncation_tail_estimate_only_for_the_centered_disk_series():
    # a Moebius disk is a Disk, but its kernel is not the centered-disk series
    def tail(basis):
        rule = build_quadrature(basis.domain, 12)
        return kernel_from_gram(basis, unit_weight(basis.domain), rule).truncation_tail_estimate()

    assert 0 < tail(MonomialBasis(DISK, 8)) < 1
    assert 0 < tail(MonomialBasis(Disk(0.5j, 2.0), 8)) < 1
    assert tail(MonomialBasis(MOEBIUS, 8)) is None
    assert tail(LaurentBasis(ANNULUS, -4, 4)) is None


# the Gram matrix and the kernel at 3200 node pairs (one product of 3200
# basis rows with the inverse factor per argument)
GRAM_DIGEST = """
import hashlib
from bergreen import UnitDisk, MonomialBasis, build_quadrature, gram_matrix, kernel_from_gram
from bergreen.weights import HoloModulusSquaredWeight
d = UnitDisk()
basis, weight, rule = MonomialBasis(d, 30), HoloModulusSquaredWeight([2, 1], d), build_quadrature(d, 40)
G = gram_matrix(basis, weight, rule)
K = kernel_from_gram(basis, weight, rule).evaluate(rule.nodes[::2], rule.nodes[1::2])
print(hashlib.sha256(G.tobytes() + K.tobytes()).hexdigest())
"""


def test_gram_identical_under_one_and_two_blas_threads():
    src = str(Path(bergreen.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", GRAM_DIGEST], env=env, check=True,
                             capture_output=True, text=True)
        digests.add(out.stdout.strip())
    basis, weight, quad = GRAM_CASES["disk"]
    rule = build_quadrature(DISK, quad)
    here = gram_matrix(basis, weight, rule)
    k = kernel_from_gram(basis, weight, rule).evaluate(rule.nodes[::2], rule.nodes[1::2])
    digests.add(hashlib.sha256(here.tobytes() + k.tobytes()).hexdigest())
    assert len(digests) == 1


def test_basis_validation():
    with pytest.raises(ParameterError):
        MonomialBasis(Annulus(0.5, 1.0), 5)
    with pytest.raises(ParameterError):
        LaurentBasis(Annulus(0.5, 1.0), 1, 5)
    with pytest.raises(ParameterError):
        gram_matrix(MonomialBasis(DISK, 3), unit_weight(DISK),
                    build_quadrature(Disk(0, 0.5), 10))


def test_kernel_disk_closed_form():
    kernel, _ = build_disk_kernel()
    assert kernel.evaluate(0, 0).real == pytest.approx(1 / math.pi, abs=1e-10)
    got = kernel.evaluate(0.3, 0.2j)
    assert abs(got - disk_kernel(0.3, 0.2j)) < 1e-10
    rng = np.random.default_rng(3)
    zs = DISK.sample_interior(rng, 20, margin=0.7)
    ws = DISK.sample_interior(rng, 20, margin=0.7)
    worst = max(abs(kernel.evaluate(z, w) - disk_kernel(z, w)) for z, w in zip(zs, ws))
    assert worst < 1e-6


def test_weighted_kernel_transform_oracle():
    mu = HoloModulusSquaredWeight([2, 1], DISK)
    kernel_w, rule = build_disk_kernel(weight=mu)
    kernel_u, _ = build_disk_kernel()

    # isometry first: the weighted Gram equals the plain Gram of mu-multiplied
    # basis functions (identical integrand), so f -> f mu preserves norms
    basis = MonomialBasis(DISK, 8)
    B = basis.evaluate(rule.nodes)
    muv = mu.mu(rule.nodes)
    G_w = gram_matrix(basis, mu, rule)
    Bmu = B * muv[:, None]
    G_u = np.array([[np.sum(rule.weights * Bmu[:, a] * np.conj(Bmu[:, b]))
                     for b in range(9)] for a in range(9)])
    assert np.max(np.abs(G_w[:9, :9] - G_u)) < 1e-12

    assert kernel_w.evaluate(0, 0).real == pytest.approx(1 / (4 * math.pi), abs=1e-6)
    rng = np.random.default_rng(8)
    zs = DISK.sample_interior(rng, 15, margin=0.7)
    ws = DISK.sample_interior(rng, 15, margin=0.7)
    for z, w in zip(zs, ws):
        lhs = kernel_w.evaluate(z, w) * mu.mu(z) * np.conj(mu.mu(w))
        assert abs(lhs - kernel_u.evaluate(z, w)) < 1e-6


def test_kernel_hermitian_symmetry():
    kernel, _ = build_disk_kernel(maxdeg=20, quad=25)
    rng = np.random.default_rng(11)
    zs = DISK.sample_interior(rng, 100, margin=0.9)
    ws = DISK.sample_interior(rng, 100, margin=0.9)
    worst = max(abs(kernel.evaluate(z, w) - np.conj(kernel.evaluate(w, z)))
                for z, w in zip(zs, ws))
    assert worst < 1e-12


def test_kernel_positive_semidefinite_sample():
    kernel, _ = build_disk_kernel(maxdeg=15, quad=20)
    rng = np.random.default_rng(4)
    pts = DISK.sample_interior(rng, 6, margin=0.8)
    M = np.array([[kernel.evaluate(a, b) for b in pts] for a in pts])
    eigs = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert eigs.min() >= -1e-9


def test_kernel_diagonal_monotone_in_truncation():
    rule = build_quadrature(DISK, 40)
    z = 0.55 + 0.2j
    prev = 0.0
    for deg in (5, 10, 15, 20, 25, 30):
        k = kernel_from_gram(MonomialBasis(DISK, deg), unit_weight(DISK), rule)
        val = k.diagonal(z)
        assert val >= prev - 1e-12
        prev = val


def test_kernel_domain_monotonicity():
    z = 0.2 + 0.1j
    small, big = Disk(0, 0.6), Disk(0, 1.2)
    vals = {}
    for dom in (small, big):
        rule = build_quadrature(dom, 30)
        k = kernel_from_gram(MonomialBasis(dom, 25), unit_weight(dom), rule)
        vals[dom.radius] = k.diagonal(z)
        closed = dom.radius**2 / (math.pi * (dom.radius**2 - abs(z) ** 2) ** 2)
        assert vals[dom.radius] == pytest.approx(closed, rel=1e-8)
    assert vals[0.6] > vals[1.2]


def test_ill_conditioned_gram_is_trimmed():
    # monomials of degree 30 on the unit square push the Gram past the
    # conditioning floor; the kernel must shrink its basis and still work
    sq = Rectangle(0, 1, 0, 1)
    rule = build_quadrature(sq, 40)
    k = kernel_from_gram(MonomialBasis(sq, 30), unit_weight(sq), rule)
    assert k.order < k.requested_order
    assert k.eig_min >= 1e-12 * k.eig_max
    v = k.evaluate(0.5 + 0.5j, 0.4 + 0.6j)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_extremal_function():
    kernel, rule = build_disk_kernel()
    phi0 = extremal_function(kernel, 0.0)
    assert phi0.norm_sq == pytest.approx(math.pi, rel=1e-10)
    for z in (0.2, 0.3 + 0.4j, -0.5j):
        assert abs(phi0.value(z) - 1.0) < 1e-9  # K(., 0) is constant

    phi = extremal_function(kernel, 0.5)
    assert phi.norm_sq == pytest.approx(math.pi * 0.5625, rel=1e-9)
    assert abs(phi.value(0.5) - 1.0) < 1e-10
    assert phi.norm_sq * kernel.diagonal(0.5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        extremal_function(kernel, 2.0)


def test_reproducing_residual():
    kernel, rule = build_disk_kernel()
    assert reproducing_residual(kernel, lambda z: np.ones_like(z), 0.0, rule) < 1e-10
    assert reproducing_residual(kernel, lambda z: z**2, 0.4, rule) < 1e-8
    mu = HoloModulusSquaredWeight([2, 1], DISK)
    kw, rw = build_disk_kernel(weight=mu)
    assert reproducing_residual(kw, lambda z: z, 0.2, rw) < 1e-6


def test_reproducing_residual_takes_a_constant_and_rejects_other_shapes():
    kernel, rule = build_disk_kernel()
    # a constant evaluator returns a scalar, which integrate accepts too
    assert reproducing_residual(kernel, lambda z: 2.5, 0.3j, rule) < 1e-10
    with pytest.raises(ParameterError, match="on one point"):
        reproducing_residual(kernel, lambda z: np.stack([z, z]), 0.3j, rule)


def test_skwarczynski_distance():
    kernel, _ = build_disk_kernel()
    assert skwarczynski_distance(kernel, 0.3 + 0.1j, 0.3 + 0.1j) == pytest.approx(0.0, abs=1e-8)
    assert skwarczynski_distance(kernel, 0.0, 0.5) == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(6)
    zs = DISK.sample_interior(rng, 10, margin=0.7)
    ws = DISK.sample_interior(rng, 10, margin=0.7)
    for z, w in zip(zs, ws):
        d1 = skwarczynski_distance(kernel, z, w)
        d2 = skwarczynski_distance(kernel, w, z)
        assert abs(d1 - d2) < 1e-12
        assert 0.0 <= d1 <= 1.0


def _per_point_oracle(kernel, z, w):
    """K(z, w) as the vdot of two single-point triangular solves."""
    def coords(p):
        return solve_triangular(kernel.factor, kernel.basis_values([p]).T, lower=True)[:, 0]
    return np.vdot(coords(w), coords(z))


def _array_case(name):
    rho = [2, 1]  # |z + 2|^2
    if name == "unit_disk":
        dom = DISK
        return dom, kernel_from_gram(MonomialBasis(dom, 20), HoloModulusSquaredWeight(rho, dom),
                                     build_quadrature(dom, 25))
    if name == "moebius_disk":
        dom = MoebiusDisk(0.3 - 0.2j, 0.8)
        return dom, kernel_from_gram(MonomialBasis(dom, 20), HoloModulusSquaredWeight(rho, dom),
                                     build_quadrature(dom, 25))
    dom = Annulus(0.5, 1.0)
    return dom, kernel_from_gram(LaurentBasis(dom, -8, 8), unit_weight(dom),
                                 build_quadrature(dom, 20))


@pytest.mark.parametrize("case", ["unit_disk", "moebius_disk", "laurent_annulus"])
def test_broadcast_evaluate_matches_per_point_oracle(case):
    dom, kernel = _array_case(case)
    rng = np.random.default_rng(21)
    zs = dom.sample_interior(rng, 7, margin=0.6)
    ws = dom.sample_interior(rng, 5, margin=0.6)
    want = np.array([[_per_point_oracle(kernel, z, w) for w in ws] for z in zs])
    kzz = np.array([_per_point_oracle(kernel, z, z).real for z in zs])
    kww = np.array([_per_point_oracle(kernel, w, w).real for w in ws])
    # rounding scale of each entry: |K(z, w)| <= sqrt(K(z, z) K(w, w))
    scale = np.sqrt(np.outer(kzz, kww))

    def assert_close(got, idx):
        assert got.shape == want[idx].shape
        assert np.max(np.abs(got - want[idx]) / scale[idx]) <= 1e-14

    assert_close(kernel.evaluate(zs[:, None], ws[None, :]), np.s_[:, :])
    assert_close(kernel.evaluate(zs[:5], ws), (np.arange(5), np.arange(5)))
    assert_close(kernel.evaluate(zs, ws[2]), np.s_[:, 2])
    assert_close(kernel.evaluate(zs[3], ws), np.s_[3, :])
    assert np.max(np.abs(kernel.diagonal(zs) - kzz) / kzz) <= 1e-14
    assert np.max(np.abs(kernel.diagonal(ws[None, :]) - kww) / kww) <= 1e-14

    scalar = kernel.evaluate(complex(zs[1]), complex(ws[4]))
    assert type(scalar) is complex
    assert abs(scalar - want[1, 4]) <= 1e-14 * scale[1, 4]
    assert type(kernel.diagonal(complex(zs[0]))) is float
    assert type(kernel.evaluate(zs[1], ws[4])) is complex  # numpy scalars too


def test_distance_on_arrays():
    kernel, _ = build_disk_kernel(maxdeg=20, quad=25)
    rng = np.random.default_rng(8)
    zs = DISK.sample_interior(rng, 12, margin=0.7)
    ws = DISK.sample_interior(rng, 12, margin=0.7)
    d = skwarczynski_distance(kernel, zs, ws)
    assert d.shape == (12,)
    for k in (0, 5, 11):
        one = skwarczynski_distance(kernel, complex(zs[k]), complex(ws[k]))
        assert type(one) is float
        assert one == pytest.approx(d[k], abs=1e-12)
    grid = skwarczynski_distance(kernel, zs[:, None], zs[None, :])
    assert grid.shape == (12, 12)
    assert np.max(np.abs(np.diag(grid))) <= 1e-7
    assert np.max(np.abs(grid - grid.T)) <= 1e-12


def test_distance_rejects_any_negative_radicand():
    # |K(z, w)| above sqrt(K(z,z) K(w,w)) at one pair of an array
    def evaluate(z, w):
        return np.where(np.asarray(z) == 0.5, 1.0 + 1e-9, 0.5)

    fake = SimpleNamespace(diagonal=lambda z: np.ones(np.shape(z)), evaluate=evaluate)
    assert np.allclose(skwarczynski_distance(fake, np.array([0.1, 0.2]), 0.3), np.sqrt(0.5))
    with pytest.raises(NumericError, match="radicand"):
        skwarczynski_distance(fake, np.array([0.1, 0.5, 0.2]), 0.3)


def test_singular_factor_raises_numeric_error():
    kernel, _ = build_disk_kernel(maxdeg=4, quad=8)
    inverse = kernel._factor_inverse
    assert np.array_equal(inverse, np.tril(inverse))
    assert np.allclose(inverse @ kernel.factor, np.eye(kernel.order), atol=1e-12)
    factor = kernel.factor.copy()
    factor[2, 2] = 0.0
    singular = dataclasses.replace(kernel, factor=factor)
    with pytest.raises(NumericError, match="singular"):
        singular.evaluate(0.1, 0.2)
