import math

import numpy as np
import pytest

from calabiflow import (
    AdmissibleClass,
    ClassTopology,
    RegimeError,
    certify,
    fiber_energy_bound,
    sobolev_inequality_test,
)
from calabiflow.curvature import class_record
from calabiflow.polytope import DelzantPolytope
from calabiflow.sobolev import builtin_test_functions

PI2 = math.pi**2


@pytest.fixture(scope="module")
def topo():
    return ClassTopology.standard_o3()


def test_zero_energy_chain(topo):
    cert = certify(0.0, topo)
    assert cert.eq_cs_satisfied
    assert cert.yamabe_lower == pytest.approx(12 * math.pi, rel=1e-13)
    assert cert.sobolev_bound == pytest.approx(1.0, rel=1e-13)


def test_threshold_value(topo):
    cert = certify(0.0, topo)
    assert cert.eq_cs_threshold == pytest.approx(48 * PI2, rel=1e-13)
    assert cert.prop_threshold_variant == pytest.approx(96 * PI2, rel=1e-13)


def test_threshold_boundary(topo):
    cert = certify(48 * PI2, topo)
    assert cert.eq_cs_satisfied  # equality counts
    # the Yamabe gap closes exactly at the threshold
    assert cert.yamabe_lower - cert.calabi_l2 == pytest.approx(0.0, abs=1e-9)


def test_beyond_threshold_no_bound(topo):
    cert = certify(100 * PI2, topo)
    assert not cert.eq_cs_satisfied
    assert not cert.has_bound
    assert cert.to_dict()["sobolev_bound"] is None


def test_bound_monotone_in_energy(topo):
    cas = np.linspace(0.0, 47.5 * PI2, 20)
    bounds = [certify(float(v), topo).sobolev_bound for v in cas]
    assert all(np.isfinite(bounds))
    assert all(bounds[i] < bounds[i + 1] for i in range(len(bounds) - 1))


def test_bound_closed_form(topo):
    # 12 pi / (sqrt(144 pi^2 - 2 ca) - sqrt(ca)) for the O(3) class
    for ca_pi2 in (10.0, 30.0, 45.0):
        ca = ca_pi2 * PI2
        expect = 12.0 / (math.sqrt(144 - 2 * ca_pi2) - math.sqrt(ca_pi2))
        assert certify(ca, topo).sobolev_bound == pytest.approx(expect, rel=1e-12)


def test_negative_energy_rejected(topo):
    with pytest.raises(RegimeError):
        certify(-1.0, topo)


def test_controlled_class_chain(bundle_class):
    fb = fiber_energy_bound(bundle_class)
    assert (fb.sup_rm2_pointwise, fb.sup_rm2_ceiling, fb.inf_weight, fb.sup_weight,
            fb.total_rm2_upper, fb.fiber_l2_bound, fb.ca_bound) == (
        1.7619333333333334, 1.8333333333333333, 10.0, 14.0,
        19099.866435064683, 11.549999999999999, 438.2104354083674)
    assert fb.sup_rm2_pointwise < 0.5 + 4.0 / 3.0
    assert fb.inf_weight == pytest.approx(10.0)
    assert fb.sup_weight == pytest.approx(14.0)
    assert fb.fiber_l2_bound == pytest.approx(11.55, abs=1e-10)
    assert fb.ca_bound / PI2 == pytest.approx(44.4, abs=1e-10)
    assert fb.ca_bound < 45 * PI2
    cert = fb.certificate
    assert cert.eq_cs_satisfied
    assert cert.has_bound
    expect = 12 * math.pi / (math.sqrt(144 * PI2 - 2 * fb.ca_bound) - math.sqrt(fb.ca_bound))
    assert cert.sobolev_bound == pytest.approx(expect, rel=1e-12)


def test_controlled_class_larger_c(bundle_class):
    # any c_S above the threshold passes with a tighter interval ratio
    cls = AdmissibleClass((1.0, 1.0), 20.0, -1.0, 1, -2)
    fb = fiber_energy_bound(cls)
    base = fiber_energy_bound(bundle_class)
    assert fb.ca_bound < base.ca_bound


def test_regime_errors():
    with pytest.raises(RegimeError, match="c_S >= 12 p1"):
        fiber_energy_bound(AdmissibleClass((1.0, 1.0), 11.0, -1.0, 1, -2))
    with pytest.raises(RegimeError, match="chi_S = 0"):
        fiber_energy_bound(AdmissibleClass((1.0, 1.0), 12.0, 0.0, 1, 0))
    with pytest.raises(RegimeError, match="p1 >= p2 >= 1"):
        fiber_energy_bound(AdmissibleClass((1.0, 0.5), 12.0, -1.0, 1, -2))
    with pytest.raises(RegimeError, match="m = 1"):
        fiber_energy_bound(AdmissibleClass((1.0, 1.0), 12.0, -1.0, 0, -2))
    # past p1 = 5e76 the curvature bound, taken in p1 itself, once overflowed
    # to inf and refused these in-regime classes; in the ratio r = p1 / q it
    # is finite, and at c_S = 12 p1 the certificate is the bundle class's
    base = fiber_energy_bound(AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2))
    for p1 in (1e77, 1e80):
        fb = fiber_energy_bound(AdmissibleClass((p1, 1.0), 12.0 * p1, -1.0, 1, -2))
        r = p1 / fb.inf_weight
        assert fb.sup_rm2_pointwise == ((1.0 / fb.inf_weight) ** 2 + 90.0 * r**4
                                        + (4.0 * r + 24.0 * r**2) ** 2 + 4.0 / 3.0)
        assert fb.sup_rm2_pointwise == pytest.approx(1.7519333, abs=1e-7)
        assert fb.ca_bound == pytest.approx(base.ca_bound, rel=1e-12)
        assert fb.certificate.sobolev_bound == pytest.approx(base.certificate.sobolev_bound,
                                                             rel=1e-12)


@pytest.mark.parametrize("scal_S, chi_S, named, blameless", [
    (-1.0, 0, "chi_S = 0", "scal_S"),
    (0.0, -2, "scal_S = 0", "chi_S"),
], ids=["chi_S", "scal_S"])
def test_flat_base_refusal_names_its_field(scal_S, chi_S, named, blameless):
    # a flat base with chi_S = -2 was once refused as "chi = 0"
    with pytest.raises(RegimeError, match=named) as exc:
        fiber_energy_bound(AdmissibleClass((1.0, 1.0), 12.0, scal_S, 1, chi_S))
    assert blameless not in str(exc.value)


def test_weight_interval_must_cover_polytope(bundle_class):
    big = DelzantPolytope(np.array([[1, 0], [0, 1], [-1, -1]]), np.array([3.0, 3.0, 3.0]))
    with pytest.raises(RegimeError, match="weight interval does not cover the polytope"):
        fiber_energy_bound(bundle_class, polytope=big)
    # the weight 29 at the vertex (3, -1) lies above the interval [20, 28]
    tall = DelzantPolytope(np.array([[1, 0], [0, 1], [-1, -1]]), np.array([1.0, 1.0, 2.0]))
    cls = AdmissibleClass((2, 1), 24, -1)
    assert np.max(cls.affine(tall.vertices)) == 29.0
    with pytest.raises(RegimeError, match="weight interval does not cover the polytope"):
        fiber_energy_bound(cls, polytope=tall)


def test_builtin_test_functions_match_formulas(grid48, hex_grid):
    x2, y2 = lambda p: p[:, 0] ** 2, lambda p: p[:, 1] ** 2
    ref = {
        "one": (lambda p: np.ones(len(p)), lambda p: np.zeros((len(p), 2))),
        "x": (lambda p: p[:, 0], lambda p: np.tile([1.0, 0.0], (len(p), 1))),
        "y": (lambda p: p[:, 1], lambda p: np.tile([0.0, 1.0], (len(p), 1))),
        "1+x+y": (lambda p: 1 + p[:, 0] + p[:, 1], lambda p: np.ones((len(p), 2))),
        "x2-y2": (lambda p: x2(p) - y2(p), lambda p: np.stack([2 * p[:, 0], -2 * p[:, 1]], -1)),
        "xy": (lambda p: p[:, 0] * p[:, 1], lambda p: p[:, ::-1]),
        "bump": (lambda p: np.exp(-(x2(p) + y2(p))),
                 lambda p: -2 * p * np.exp(-(x2(p) + y2(p)))[:, None]),
    }
    fns = builtin_test_functions()
    assert [name for name, _, _ in fns] == list(ref)
    for pts in (grid48.points, hex_grid.points):
        for name, val, grad in fns:
            assert np.array_equal(val(pts), ref[name][0](pts)), name
            assert np.array_equal(grad(pts), ref[name][1](pts)), name


def test_topology_validation():
    with pytest.raises(RegimeError):
        ClassTopology(c1_squared=4.5, volume=-1.0, r_bar=4.0)


@pytest.mark.parametrize("key", ["c1_squared", "volume", "r_bar"])
def test_topology_refuses_nan(key):
    args = {"c1_squared": 4.5, "volume": 9.0 * PI2, "r_bar": 4.0, key: math.nan}
    with pytest.raises(RegimeError):
        ClassTopology(**args)


def test_ratio_constant_function(fs48):
    triv = AdmissibleClass.trivial()
    worst = sobolev_inequality_test(fs48, triv, [("one", lambda p: np.ones(len(p)),
                                                  lambda p: np.zeros((len(p), 2)))])
    assert worst == pytest.approx(4.5 ** (1 / 3) / 4.5**0.5, rel=1e-6)


def test_ratio_scale_invariance(fs48):
    triv = AdmissibleClass.trivial()

    def fam(lam):
        return [("f", lambda p: lam * (1 + p[:, 0]),
                 lambda p: np.tile([lam, 0.0], (len(p), 1)))]

    r1 = sobolev_inequality_test(fs48, triv, fam(1.0))
    r2 = sobolev_inequality_test(fs48, triv, fam(7.5))
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_ratio_below_certificate(fs48, bundle_class):
    fb = fiber_energy_bound(bundle_class)
    worst = sobolev_inequality_test(fs48, bundle_class)
    assert worst <= fb.certificate.sobolev_bound


@pytest.mark.parametrize("m", [0, 1])
def test_ratio_reads_the_class_record_weight(monkeypatch, fs48, m):
    cls = AdmissibleClass((1.0, 1.0), 12.0, -1.0, m, -2)
    assert np.array_equal(class_record(fs48.grid, cls).pw, cls.weight(fs48.grid.points))
    monkeypatch.setattr(AdmissibleClass, "weight", lambda *a: pytest.fail("weight evaluated"))
    assert sobolev_inequality_test(fs48, cls) > 0.0
