import math

import numpy as np
import pytest

from bergreen import (
    DiagonalSingularityError,
    Disk,
    DiskGreen,
    MoebiusMap,
    MonomialBasis,
    ParameterError,
    StencilError,
    UnitDisk,
    build_quadrature,
    exhaustion_sequence,
    identity_residual,
    kernel_from_gram,
    moebius_transport,
    solve_gauge,
    unit_weight,
    weighted_green,
    wirtinger_mixed,
)
from bergreen.weights import HoloModulusSquaredWeight

DISK = UnitDisk()


def test_green_disk_values():
    g = DiskGreen(0, 1.0)
    assert g.value(0.5, 0) == pytest.approx(math.log(2), abs=1e-14)
    z, w = 0.3, 0.3j
    want = math.log(abs(1 - z * np.conj(w))) - math.log(abs(z - w))
    assert g.value(z, w) == pytest.approx(want, abs=1e-14)
    # boundary points evaluate to zero
    g = DiskGreen(0.5j, 1.5)
    for zb in g.domain.boundary_points(64):
        assert abs(g.value(zb, 0.5j + 0.2)) < 1e-12


def test_green_disk_diagonal_signal():
    with pytest.raises(DiagonalSingularityError):
        DiskGreen(0, 1.0).value(0.4j, 0.4j)


def test_green_symmetry_and_positivity():
    g = DiskGreen(0, 1.0)
    rng = np.random.default_rng(9)
    zs = DISK.sample_interior(rng, 100, margin=0.9)
    ws = DISK.sample_interior(rng, 100, margin=0.9)
    for z, w in zip(zs, ws):
        if abs(z - w) < 1e-9:
            continue
        assert abs(g.value(z, w) - g.value(w, z)) < 1e-12
        assert g.value(z, w) > 0


def test_harmonic_part_values():
    h = DiskGreen(0, 1.0).harmonic
    assert h(0, 0) == pytest.approx(0.0, abs=1e-15)
    assert h(0.5, 0.2) == pytest.approx(math.log(abs(1 - 0.5 * 0.2)), abs=1e-14)
    hr = DiskGreen(0, 0.5).harmonic
    assert hr(0, 0) == pytest.approx(math.log(0.5), abs=1e-15)
    # finite and smooth across the diagonal, symmetric
    assert np.isfinite(h(0.3 + 0.1j, 0.3 + 0.1j))
    assert h(0.4, 0.1j) == pytest.approx(h(0.1j, 0.4), abs=1e-14)


def test_harmonic_part_is_harmonic():
    h = DiskGreen(0, 1.0).harmonic
    rng = np.random.default_rng(2)
    zs = DISK.sample_interior(rng, 10, margin=0.5)
    ws = DISK.sample_interior(rng, 10, margin=0.5)
    s = 1e-3
    for z, w in zip(zs, ws):
        lap_z = (h(z + s, w) + h(z - s, w) + h(z + 1j * s, w)
                 + h(z - 1j * s, w) - 4 * h(z, w)) / s**2
        lap_w = (h(z, w + s) + h(z, w - s) + h(z, w + 1j * s)
                 + h(z, w - 1j * s) - 4 * h(z, w)) / s**2
        assert abs(lap_z) < 1e-6
        assert abs(lap_w) < 1e-6


def test_wirtinger_mixed_bilinear_and_quadratic():
    got = wirtinger_mixed(lambda z, w: z * np.conj(w), 0.3 + 0.1j, -0.2j, 1e-3)
    assert abs(got - 1.0) < 1e-10
    z0 = 0.25 + 0.1j
    got2 = wirtinger_mixed(lambda z, w: z**2 * np.conj(w), z0, 0.1, 1e-3)
    assert abs(got2 - 2 * z0) < 1e-8


def test_wirtinger_mixed_on_green_matches_analytic():
    g = DiskGreen(0, 1.0)
    # the mixed derivative of G equals that of its regular part h
    pairs = [(0.3, 0.1), (0.2 + 0.3j, -0.3 - 0.2j), (0.5, -0.4j)]
    s = 1e-3
    for z, w in pairs:
        mg = wirtinger_mixed(g.value, z, w, s)
        mh = wirtinger_mixed(g.harmonic, z, w, s)
        assert abs(mg - mh) < 2 * s**2
        assert abs(mg - g.mixed_analytic(z, w)) < 2 * s**2
    assert g.mixed_analytic(0, 0) == pytest.approx(-0.5, abs=1e-15)


def test_wirtinger_stencil_error():
    with pytest.raises(StencilError):
        wirtinger_mixed(lambda z, w: z * np.conj(w), 0.9999, 0.0, 1e-2, domain=DISK)


def test_weighted_green_reduction_and_values():
    g = DiskGreen(0, 1.0)
    wg_unit = weighted_green(g, None)
    assert wg_unit.value(0.5, 0) == pytest.approx(math.log(2), abs=1e-14)

    mu = HoloModulusSquaredWeight([2, 1], DISK)
    gauge = solve_gauge(mu)
    wg = weighted_green(g, gauge)
    assert wg.value(0.5, 0) == pytest.approx(2.5 * 2.0 * math.log(2), abs=1e-12)
    rng = np.random.default_rng(14)
    zs = DISK.sample_interior(rng, 20, margin=0.8)
    ws = DISK.sample_interior(rng, 20, margin=0.8)
    for z, w in zip(zs, ws):
        if abs(z - w) < 1e-9:
            continue
        assert abs(wg.value(z, w) - np.conj(wg.value(w, z))) < 1e-12


def test_weighted_green_domain_mismatch():
    mu = HoloModulusSquaredWeight([2, 1], Disk(0, 0.5))
    gauge = solve_gauge(mu)
    with pytest.raises(ParameterError):
        weighted_green(DiskGreen(0, 1.0), gauge)


def test_mixed_derivative_factor_out():
    g = DiskGreen(0, 1.0)
    mu = HoloModulusSquaredWeight([2, 1], DISK)
    gauge = solve_gauge(mu)
    wg = weighted_green(g, gauge)
    s = 1e-3
    for z, w in [(0.3, -0.2), (0.1 + 0.4j, -0.3 + 0.1j)]:
        lhs = wirtinger_mixed(wg.smooth_value, z, w, s)
        rhs = complex(gauge(z)) * np.conj(complex(gauge(w))) * g.mixed_analytic(z, w)
        assert abs(lhs - rhs) < 2 * s**2
        assert abs(wg.mixed_zwbar(z, w, method="analytic") - rhs) < 1e-14


def build_kernel(weight=None, maxdeg=30, quad=40):
    w = weight if weight is not None else unit_weight(DISK)
    rule = build_quadrature(DISK, quad)
    return kernel_from_gram(MonomialBasis(DISK, maxdeg), w, rule)


def test_identity_residual_unweighted():
    kernel = build_kernel()
    wg = weighted_green(DiskGreen(0, 1.0), None)
    uw = unit_weight(DISK)
    assert identity_residual(kernel, wg, uw, 0.3, 0.1, 1e-3, method="fd") < 1e-6
    assert identity_residual(kernel, wg, uw, 0.3, 0.1, method="analytic") < 1e-10


def test_identity_residual_weighted():
    mu = HoloModulusSquaredWeight([2, 1], DISK)
    kernel = build_kernel(weight=mu)
    wg = weighted_green(DiskGreen(0, 1.0), solve_gauge(mu))
    assert identity_residual(kernel, wg, mu, 0.2, -0.1, 1e-3, method="fd") < 1e-5
    assert identity_residual(kernel, wg, mu, 0.2, -0.1, method="analytic") < 1e-10


def test_identity_residual_on_the_diagonal():
    # at z = w the mixed derivative is that of the regular part h, so the
    # identity is evaluated there like anywhere else
    from bergreen import MoebiusDisk

    zs = np.array([0.0, 0.3, -0.2 + 0.4j, 0.5j, 0.6 - 0.1j])
    moebius = MoebiusDisk(0.3 + 0.1j, 0.5)
    for dom, green in ((DISK, DiskGreen(0, 1.0)),
                       (moebius, moebius_transport(DiskGreen(0, 1.0), moebius.map))):
        mu = HoloModulusSquaredWeight([2, 1], dom)
        kernel = kernel_from_gram(MonomialBasis(dom, 30), mu, build_quadrature(dom, 40))
        wg = weighted_green(green, solve_gauge(mu))
        assert np.max(identity_residual(kernel, wg, mu, zs, zs, method="analytic")) < 1e-10
        assert np.max(identity_residual(kernel, wg, mu, zs, zs, 1e-3, method="fd")) < 1e-6


def test_identity_residual_weighted_moebius_domain():
    from bergreen import MoebiusDisk

    dom = MoebiusDisk(0.3 - 0.2j, 0.8)
    weight = HoloModulusSquaredWeight([2, 1], dom)
    rule = build_quadrature(dom, 35)
    kernel = kernel_from_gram(MonomialBasis(dom, 25), weight, rule)
    base = moebius_transport(DiskGreen(0, 1.0), dom.map)
    wg = weighted_green(base, solve_gauge(weight))
    rng = np.random.default_rng(13)
    zs = dom.sample_interior(rng, 8, margin=0.6)
    ws = dom.sample_interior(rng, 8, margin=0.6)
    for z, w in zip(zs, ws):
        assert identity_residual(kernel, wg, weight, z, w, method="analytic") < 1e-6
        assert identity_residual(kernel, wg, weight, z, w, 1e-3, method="fd") < 1e-5


def test_identity_residual_off_center_disk():
    dom = Disk(0.5 + 0.5j, 2.0)
    weight = unit_weight(dom)
    rule = build_quadrature(dom, 35)
    kernel = kernel_from_gram(MonomialBasis(dom, 25), weight, rule)
    wg = weighted_green(DiskGreen(dom.center, dom.radius), None)
    rng = np.random.default_rng(31)
    zs = dom.sample_interior(rng, 10, margin=0.6)
    ws = dom.sample_interior(rng, 10, margin=0.6)
    for z, w in zip(zs, ws):
        assert identity_residual(kernel, wg, weight, z, w, method="analytic") < 1e-6
        assert identity_residual(kernel, wg, weight, z, w, 1e-3, method="fd") < 1e-5


def test_moebius_transport():
    base = DiskGreen(0, 1.0)
    ident = moebius_transport(base, MoebiusMap(0, 0))
    assert ident.value(0.5, 0) == pytest.approx(math.log(2), abs=1e-14)

    t = moebius_transport(base, MoebiusMap(0.5, 0.0))
    # the map sends 0.5 -> 0 and 0 -> -0.5, so G_new at the images matches
    assert t.value(0, -0.5) == pytest.approx(base.value(0.5, 0), abs=1e-13)
    rng = np.random.default_rng(21)
    zs = DISK.sample_interior(rng, 30, margin=0.8)
    ws = DISK.sample_interior(rng, 30, margin=0.8)
    for z, w in zip(zs, ws):
        if abs(z - w) < 1e-9:
            continue
        assert abs(t.value(z, w) - t.value(w, z)) < 1e-12
    # conformal invariance under an automorphism: same function as the base
    assert t.value(0.3, -0.2j) == pytest.approx(base.value(0.3, -0.2j), abs=1e-12)
    with pytest.raises(ParameterError):
        moebius_transport(DiskGreen(0, 2.0), MoebiusMap(0.3, 0))


def test_exhaustion_harnack_monotonicity():
    steps = exhaustion_sequence(DISK, 6).steps
    hs = [DiskGreen(s.center, s.radius).harmonic_diagonal(0) for s in steps]
    assert hs == [math.log(s.radius) for s in steps]
    assert all(a < b for a, b in zip(hs, hs[1:]))
    assert hs[-1] < 0.0  # increases toward h(0,0) = 0 on the unit disk

    # kernel convergence under exhaustion, from closed forms
    ks = [1 / (math.pi * s.radius**2) for s in steps]
    gaps = [abs(k - 1 / math.pi) for k in ks]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_exhaustion_kernel_convergence_at_fixed_pairs():
    steps = exhaustion_sequence(DISK, 6).steps
    parent = kernel_from_gram(MonomialBasis(DISK, 20), unit_weight(DISK),
                              build_quadrature(DISK, 25))
    for z, w in [(0.2 + 0.1j, -0.3 + 0.2j), (0.4, 0.3j)]:
        target = parent.evaluate(z, w)
        gaps = []
        for step in steps:
            kern = kernel_from_gram(MonomialBasis(step, 20), unit_weight(step),
                                    build_quadrature(step, 25))
            gaps.append(abs(kern.evaluate(z, w) - target))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2e-2



# ---------------------------------------------------------------------------
# Array semantics against scalar oracles
# ---------------------------------------------------------------------------


def _scalar_mixed_oracle(f, z, w, step):
    """Richardson 16-point d^2 f / dz d(conj w), one scalar f call per point."""
    def once(s):
        def dz_at(wp):
            fx = (f(z + s, wp) - f(z - s, wp)) / (2 * s)
            fy = (f(z + 1j * s, wp) - f(z - 1j * s, wp)) / (2 * s)
            return 0.5 * (fx - 1j * fy)

        du = (dz_at(w + s) - dz_at(w - s)) / (2 * s)
        dv = (dz_at(w + 1j * s) - dz_at(w - 1j * s)) / (2 * s)
        return 0.5 * (du + 1j * dv)

    return (4.0 * once(step / 2) - once(step)) / 3.0


def _smooth_oracle(case):
    """Domain, Green's function, weight and a scalar math-library evaluator of
    the smooth part g(z) conj(g(w)) h(z, w) off the diagonal."""
    from bergreen import MoebiusDisk

    mu = [2, 1]  # rho = |z + 2|^2, gauge g(z) = conj(2 + z)

    def gauge_factor(z, w):
        return (2 + z).conjugate() * (2 + w)

    if case == "disk":
        dom = Disk(0.1 + 0.2j, 1.5)
        c, r = dom.center, dom.radius
        gf = DiskGreen(c, r)

        def h(z, w):
            return math.log(abs(r * r - (z - c) * (w - c).conjugate())) - math.log(r)
    else:
        dom = MoebiusDisk(0.3 - 0.2j, 0.8)
        gf = moebius_transport(DiskGreen(0, 1.0), dom.map)
        a, rot = dom.map.a, complex(math.cos(dom.map.theta), -math.sin(dom.map.theta))

        def inv(z):
            u = rot * z
            return (u + a) / (1 + a.conjugate() * u)

        def h(z, w):
            u, v = inv(z), inv(w)
            return (math.log(abs(1 - u * v.conjugate())) - math.log(abs(u - v))
                    + math.log(abs(z - w)))

    weight = HoloModulusSquaredWeight(mu, dom)
    return dom, gf, weight, lambda z, w: gauge_factor(z, w) * h(z, w)


@pytest.mark.parametrize("case", ["disk", "moebius"])
def test_array_mixed_and_residual_match_scalar_oracle(case):
    dom, gf, weight, f = _smooth_oracle(case)
    wg = weighted_green(gf, solve_gauge(weight))
    kernel = kernel_from_gram(MonomialBasis(dom, 20), weight, build_quadrature(dom, 25))
    rng = np.random.default_rng(17)
    zs = dom.sample_interior(rng, 9, margin=0.6)
    ws = dom.sample_interior(rng, 9, margin=0.6)
    step = 1e-3
    want = np.array([_scalar_mixed_oracle(f, complex(z), complex(w), step)
                     for z, w in zip(zs, ws)])

    for got in (wirtinger_mixed(wg.smooth_value, zs, ws, step),
                wg.mixed_zwbar(zs, ws, step, method="fd")):
        assert got.shape == zs.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8

    # the residual |K - rhs| / max(1, |K|) with the oracle's right-hand side
    kv = np.array([kernel.evaluate(complex(z), complex(w)) for z, w in zip(zs, ws)])
    rho = np.array([float(weight.value(complex(p))) for p in np.concatenate([zs, ws])])
    rhs = -2.0 / (math.pi * rho[:9] * rho[9:]) * want
    res_want = np.abs(kv - rhs) / np.maximum(1.0, np.abs(kv))
    res = identity_residual(kernel, wg, weight, zs, ws, step, method="fd")
    assert res.shape == zs.shape
    assert np.max(np.abs(res - res_want)) <= 1e-8
    assert np.max(res) < 1e-5

    analytic = identity_residual(kernel, wg, weight, zs, ws, method="analytic")
    for k in (0, 4, 8):
        one = identity_residual(kernel, wg, weight, complex(zs[k]), complex(ws[k]))
        assert type(one) is float
        assert one == pytest.approx(analytic[k], abs=1e-13)


def test_scalar_arguments_give_python_scalars():
    g = DiskGreen(0, 1.0)
    wg = weighted_green(g, None)
    assert type(g.value(0.3, 0.1j)) is float
    assert type(g.harmonic(0.3, 0.3)) is float
    assert type(g.mixed_analytic(0.3, 0.1j)) is complex
    assert type(wg.factor(0.3, 0.1)) is complex
    assert type(wg.mixed_zwbar(0.3, 0.1, method="fd")) is complex
    assert type(wirtinger_mixed(lambda z, w: z * np.conj(w), 0.3, 0.1, 1e-3)) is complex


def test_harmonic_part_on_arrays_mixes_diagonal_and_off_diagonal():
    g = moebius_transport(DiskGreen(0, 1.0), MoebiusMap(0.3 - 0.2j, 0.8))
    zs = np.array([0.2 + 0.1j, -0.3j, 0.5])
    ws = np.array([0.2 + 0.1j, 0.4, 0.5])
    got = g.harmonic(zs, ws)
    assert got.shape == (3,)
    for k in (0, 2):
        assert got[k] == pytest.approx(g.harmonic_diagonal(complex(zs[k])), abs=1e-14)
    want = g.value(complex(zs[1]), complex(ws[1])) + math.log(abs(zs[1] - ws[1]))
    assert got[1] == pytest.approx(want, abs=1e-14)
    assert g.harmonic(zs[:, None], ws[None, :]).shape == (3, 3)


def test_array_errors_name_the_first_offender():
    g = DiskGreen(0, 1.0)
    with pytest.raises(DiagonalSingularityError, match=r"z = w = 0\.4j"):
        g.value(np.array([0.1, 0.4j, 0.2, 0.3]), np.array([0.2, 0.4j, 0.3, 0.3]))
    # the second pair is the first to leave; z - s and z - i s both do
    zs = np.array([0.2, -0.7071 - 0.7071j, 0.9999])
    ws = np.array([0.1, 0.0, 0.99995j])
    with pytest.raises(StencilError) as err:
        wirtinger_mixed(lambda z, w: z * np.conj(w), zs, ws, 1e-2, domain=DISK)
    assert err.value.point == -0.7171 - 0.7071j
    assert str(err.value) == "stencil point (-0.7171-0.7071j) leaves the domain"
