import math

import numpy as np
import pytest

from bergreen import (
    Annulus,
    Disk,
    MoebiusDisk,
    MoebiusMap,
    NumericError,
    ParameterError,
    Rectangle,
    UnitDisk,
    UnsupportedDomainError,
    build_quadrature,
    exhaustion_sequence,
    integrate,
    make_domain,
)


def test_make_domain_membership():
    d = make_domain("unit_disk")
    assert d.contains(0) and not d.contains(2)
    a = make_domain("annulus", inner=0.5, outer=1.0)
    assert a.contains(0.7) and not a.contains(0.3)
    r = make_domain("rectangle", x0=0, x1=1, y0=0, y1=1)
    assert r.contains(0.5 + 0.5j) and not r.contains(1.5 + 0.5j)


# points on the real axis and near the edges of the unit square, with the
# membership of each at margin 0 and at margin 0.05
MEMBERSHIP_POINTS = [0, 0.5, 0.7, 0.97, 1.0, 0.5 + 0.5j, 0.97 + 0.5j, 0.5 + 0.97j, 2j]
MEMBERSHIP = {
    "unit_disk": (UnitDisk(), "TTTTFTFFF", "TTTFFTFFF"),
    "disk": (Disk(0.2j, 0.8), "TTTFFTFFF", "TTTFFTFFF"),
    "moebius_disk": (MoebiusDisk(0.3, 0.5), "TTTTFTFFF", "TTTFFTFFF"),
    "annulus": (Annulus(0.5, 1.0), "FFTTFTFFF", "FFTFFTFFF"),
    "rectangle": (Rectangle(0, 1, 0, 1), "FFFFFTTTF", "FFFFFTFFF"),
}


@pytest.mark.parametrize("name", list(MEMBERSHIP))
def test_membership_on_scalars_and_arrays(name):
    dom, *memberships = MEMBERSHIP[name]
    pts = np.array(MEMBERSHIP_POINTS, dtype=complex)
    for margin, expected in zip((0.0, 0.05), memberships):
        want = [c == "T" for c in expected]
        assert dom.contains_many(pts, margin).tolist() == want
        scalar = [dom.contains(p, margin) for p in MEMBERSHIP_POINTS]
        assert all(type(v) is bool for v in scalar)
        assert scalar == want


def test_domain_parameter_errors():
    with pytest.raises(ParameterError):
        make_domain("annulus", inner=1.0, outer=0.5)
    with pytest.raises(ParameterError):
        Disk(0, -1.0)
    with pytest.raises(ParameterError):
        MoebiusDisk(a=1.2)
    with pytest.raises(ParameterError):
        Rectangle(1, 0, 0, 1)
    with pytest.raises(ParameterError):
        make_domain("pentagon")


def test_quadrature_area():
    # summed weights reproduce the area
    assert abs(sum(build_quadrature(Disk(0, 0.5), 20).weights) - math.pi / 4) < 1e-12
    assert abs(sum(build_quadrature(UnitDisk(), 30).weights) - math.pi) < 1e-12
    assert abs(sum(build_quadrature(Rectangle(0, 1, 0, 1), 12).weights) - 1.0) < 1e-13
    ann = Annulus(0.5, 1.0)
    assert abs(sum(build_quadrature(ann, 20).weights) - ann.area) < 1e-12


def test_integrate_examples():
    rule = build_quadrature(UnitDisk(), 30)
    assert abs(integrate(rule, lambda z: np.ones_like(z)) - math.pi) < 1e-12
    assert abs(integrate(rule, lambda z: z)) < 1e-12
    assert abs(integrate(rule, lambda z: np.abs(z) ** 2) - math.pi / 2) < 1e-10
    # |z + 2|^2 = |z|^2 + 4 Re z + 4 integrates to pi/2 + 0 + 4 pi
    val = integrate(rule, lambda z: np.abs(z + 2) ** 2)
    assert abs(val - (4 * math.pi + math.pi / 2)) < 1e-10


def test_integrate_scalar_evaluator_and_nonfinite():
    rule = build_quadrature(UnitDisk(), 6)
    assert abs(integrate(rule, lambda z: 1.0) - math.pi) < 1e-12
    with pytest.raises(NumericError, match="node"):
        integrate(rule, lambda z: np.where(np.abs(z) < 0.5, np.inf, 1.0))


def test_integrate_calls_the_integrand_once_and_rejects_wrong_shapes():
    rule = build_quadrature(UnitDisk(), 6)
    calls = []

    def scalar_only(z):
        calls.append(np.shape(z))
        return complex(z)  # raises on the node array

    with pytest.raises(TypeError):
        integrate(rule, scalar_only)
    assert calls == [rule.nodes.shape]
    for wrong in (lambda z: np.ones(3), lambda z: z[:, None], lambda z: np.array([1.0])):
        with pytest.raises(ParameterError, match="vectorized"):
            integrate(rule, wrong)


def test_quadrature_polynomial_exactness():
    # z^m conj(z)^n integrates to its closed polar value for m + n <= order
    order = 8
    rule = build_quadrature(Disk(0, 1.3), order)
    for m in range(order + 1):
        for n in range(order + 1 - m):
            got = integrate(rule, lambda z: z**m * np.conj(z) ** n)
            want = math.pi * 1.3 ** (2 * n + 2) / (n + 1) if m == n else 0.0
            assert abs(got - want) < 1e-10

    rect = Rectangle(0.0, 1.0, -0.5, 0.5)
    rrule = build_quadrature(rect, order)
    for a in range(order):
        for b in range(order - a):
            got = integrate(rrule, lambda z: z.real**a * z.imag**b)
            want = (1.0 / (a + 1)) * ((0.5 ** (b + 1) - (-0.5) ** (b + 1)) / (b + 1))
            assert abs(got - want) < 1e-10


def test_exhaustion_disk_radii():
    ex = exhaustion_sequence(UnitDisk(), 3)
    assert [s.radius for s in ex.steps] == [0.5, 0.75, 0.875]
    ex2 = exhaustion_sequence(Disk(0, 2.0), 1)
    assert [s.radius for s in ex2.steps] == [1.0]


def test_exhaustion_annulus_steps():
    ex = exhaustion_sequence(Annulus(0.4, 1.0), 2)
    got = [(s.inner, s.outer) for s in ex.steps]
    assert np.allclose(got, [(0.5, 0.85), (0.45, 0.925)])


def test_exhaustion_compact_containment():
    for parent in (UnitDisk(), Disk(1 + 1j, 2.0), Annulus(0.4, 1.0), Annulus(0.8, 1.0)):
        ex = exhaustion_sequence(parent, 4)
        chain = list(ex.steps) + [parent]
        for inner_dom, outer_dom in zip(chain, chain[1:]):
            for p in inner_dom.boundary_points(64):
                assert outer_dom.contains(p, margin=1e-9)


def test_exhaustion_errors():
    with pytest.raises(UnsupportedDomainError):
        exhaustion_sequence(Rectangle(0, 1, 0, 1), 2)
    with pytest.raises(UnsupportedDomainError):
        exhaustion_sequence(MoebiusDisk(0.3, 0.5), 2)
    with pytest.raises(ParameterError):
        exhaustion_sequence(UnitDisk(), 0)


def test_moebius_map_values():
    assert MoebiusMap(0, 0).forward(0.3 + 0.2j) == 0.3 + 0.2j
    assert abs(MoebiusMap(0.5, 0).forward(0.5)) < 1e-15
    assert abs(MoebiusMap(0.5, 0).forward(0) - (-0.5)) < 1e-15
    with pytest.raises(ParameterError):
        MoebiusMap(1.0, 0)


def test_moebius_round_trip():
    rng = np.random.default_rng(42)
    z = np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    for a, theta in ((0.5, 0.0), (0.3 - 0.4j, 1.2), (0.0, 2.5)):
        m = MoebiusMap(a, theta)
        back = m.inverse(m.forward(z))
        assert np.max(np.abs(back - z)) < 1e-13


def test_moebius_disk_is_unit_disk_set():
    d = MoebiusDisk(0.4 + 0.1j, 0.7)
    assert d.contains(0.9) and not d.contains(1.1)
    assert abs(d.area - math.pi) < 1e-15
    # a Moebius disk integrates and samples exactly as the unit disk does
    rule, unit_rule = build_quadrature(d, 9), build_quadrature(UnitDisk(), 9)
    assert np.array_equal(rule.nodes, unit_rule.nodes)
    assert np.array_equal(rule.weights, unit_rule.weights)
    assert np.array_equal(d.sample_interior(np.random.default_rng(5), 20, 0.6),
                          UnitDisk().sample_interior(np.random.default_rng(5), 20, 0.6))


def test_domain_serialization_round_trip():
    # hand-written config specs of every kind, complex parameters as [re, im]
    specs = [
        ({"kind": "unit_disk"}, UnitDisk()),
        ({"kind": "disk", "params": {"center": [0, 0], "radius": 1}}, UnitDisk()),
        ({"kind": "disk", "params": {"center": [0, 1], "radius": 0.5}}, Disk(1j, 0.5)),
        ({"kind": "moebius-disk", "params": {"a": [0.2, -0.1], "theta": 1}},
         MoebiusDisk(0.2 - 0.1j, 1.0)),
        ({"kind": "annulus", "params": {"inner": 0.3, "outer": 0.9}}, Annulus(0.3, 0.9)),
        ({"kind": "rectangle", "params": {"x0": 0, "x1": 2, "y0": -1, "y1": 1}},
         Rectangle(0, 2, -1, 1)),
    ]
    for spec, dom in specs:
        assert make_domain(spec["kind"], **spec.get("params", {})) == dom
    with pytest.raises(ParameterError, match="unknown domain kind"):
        make_domain("square")


def test_quadrature_determinism():
    r1 = build_quadrature(Annulus(0.5, 1.0), 17)
    r2 = build_quadrature(Annulus(0.5, 1.0), 17)
    assert np.array_equal(r1.nodes, r2.nodes)
    assert np.array_equal(r1.weights, r2.weights)
    assert np.all(r1.weights > 0)
    assert r1.domain.contains_many(r1.nodes).all()
