import warnings

import numpy as np
import pytest

from calabiflow import (
    AdmissibleClass,
    CurvatureUndefinedError,
    DegenerateInputError,
    RegimeError,
    SymplecticPotential,
    abreu_scalar,
    abreu_scalar_field,
    admissible_blocks,
    build_grid,
    bump_form,
    control_rm_rhs,
    energy_report,
    fiber_riemann_norm,
    fiber_riemann_norm_field,
    polynomial_form,
    ricci_trace,
    rm2_total_field,
    weighted_scalar,
    weighted_scalar_field,
)
from calabiflow.curvature import (_SPD_RATIO, _context_from_jets, _d2U_trace, _dU_trace,
                                  _fiber_rm2, _jet_context, _point_context, _rm2_total_from_ctx,
                                  _spd_inverse, class_record, curvature_context)
from calabiflow.polytope import HESSIAN_KEYS, DelzantPolytope
from calabiflow.potential import PARTIALS, _sym2_eigenvalues, _sym2_inverse
from conftest import interior_points
from fd_oracle import (agrees_to_sig, full_tensors, oracle_curvature, rm2_total_pieces,
                       sym2_matrices, tensor_field, weighted_scalar_by_blocks)


def square_polytope():
    return DelzantPolytope(
        np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    )


CLASSES = [
    AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2),
    AdmissibleClass((2.0, 1.0), 30.0, 1.0, 1, 2),
    AdmissibleClass((3.0, 2.0), 40.0, 0.0, 1, 0),
]

POLY_GRIDS = [("triangle", "grid48"), ("hexagon", "hex_grid"), ("trapezoid", "trap_grid")]


# -- golden values -----------------------------------------------------------


def test_abreu_scalar_fs_analytic(fs48):
    R = abreu_scalar_field(fs48)
    assert np.abs(R - 4.0).max() <= 1e-10


def test_fiber_norm_fs_analytic(fs48):
    rm2 = fiber_riemann_norm_field(fs48)
    assert np.abs(rm2 - 4.0 / 3.0).max() <= 1e-10


def test_abreu_scalar_fs_fd(fs48_fd):
    assert np.abs(abreu_scalar_field(fs48_fd) - 4.0).max() <= 1e-10
    assert np.abs(fiber_riemann_norm_field(fs48_fd) - 4.0 / 3.0).max() <= 1e-10


def test_quadratic_potential_is_flat():
    # the partials of (x^2 + y^2) / 2 at the nodes of a square grid
    x, y = build_grid(square_polytope(), 16, 0.05).points.T
    partials = {key: np.zeros_like(x) for key in PARTIALS}
    partials.update({(0, 0): 0.5 * (x * x + y * y), (1, 0): x, (0, 1): y,
                     (2, 0): np.ones_like(x), (0, 2): np.ones_like(x)})
    d2U = _context_from_jets(partials)["d2U"]
    assert np.abs(_d2U_trace(d2U)).max() <= 1e-12
    assert np.abs(_fiber_rm2(d2U)).max() <= 1e-12


def test_indefinite_hessian_raises(triangle, grid48):
    # f = -2 x^2 takes 4 from u_xx, which is at most 2.5 at the nodes
    u = SymplecticPotential.from_closed_form(triangle, grid48, polynomial_form({(2, 0): -2.0}))
    with pytest.raises(CurvatureUndefinedError):
        abreu_scalar_field(u)


def _eigenvalue_spd_inverse(G):
    """The SPD check by the eigenvalue test alone, then the inverse: the
    reference for _spd_inverse, U or CurvatureUndefinedError."""
    lo, hi = _sym2_eigenvalues(G)
    hi = np.maximum(hi, 1.0) * _SPD_RATIO
    if not np.all(lo > hi):
        raise CurvatureUndefinedError(
            f"Hessian not positive definite at {np.count_nonzero(~(lo > hi))} point(s); "
            f"min eigenvalue {np.fmin.reduce(lo):.3e}"
        )
    return _sym2_inverse(G)


def _spd_samples(rng, n=4000):
    """Components (3, n) of R diag(hi, hi / cond) R^T for random rotations R,
    hi in 1e-8..1e8 and cond in 1e9..1e14, then the special points: NaN, +-inf,
    zero, semidefinite, indefinite, negative definite and tiny matrices, and
    ones whose tr^2 or det overflows."""
    theta = rng.uniform(0.0, np.pi, n)
    hi = 10.0 ** rng.uniform(-8.0, 8.0, n)
    lo = hi / 10.0 ** rng.uniform(9.0, 14.0, n)
    c, s = np.cos(theta), np.sin(theta)
    random = np.stack([c * c * hi + s * s * lo, c * s * (hi - lo), s * s * hi + c * c * lo])
    nan, inf = np.nan, np.inf
    special = np.array([
        [nan, 0, 1], [1, nan, 1], [1, 0, nan], [nan, nan, nan], [inf, 0, 1], [1, inf, 1],
        [-inf, 0, 1], [inf, 0, inf], [1, -inf, 1], [0, 0, 0], [1, 1, 1], [1, 2, 1],
        [1, 0, -1e-20], [-1, 0, -1], [-2, 1, -1], [1e-13, 0, 1e-13], [2e-12, 0, 3e-12],
        [1.5e154, 0, 1.5e154], [0.95e154, 0, 0.95e154], [1e160, 1, 1],
    ]).T
    return np.concatenate([random, special], axis=1)


def _decisions(G):
    """(new, reference) outcomes of one field: ("raise", message) or
    ("pass", U)."""
    out = []
    for f in (_spd_inverse, _eigenvalue_spd_inverse):
        try:
            # both warn of the arithmetic on NaN, inf and overflow samples
            with np.errstate(all="ignore"):
                out.append(("pass", f(G)))
        except CurvatureUndefinedError as exc:
            out.append(("raise", str(exc)))
    return out


def _count_eigenvalue_tests(monkeypatch):
    """A list that grows by one for every eigenvalue test of _spd_inverse."""
    from calabiflow import curvature

    calls = []
    monkeypatch.setattr(curvature, "_sym2_eigenvalues",
                        lambda *args: calls.append(1) or _sym2_eigenvalues(*args))
    return calls


def test_spd_certificate_decides_as_the_eigenvalue_test(monkeypatch, rng):
    calls = _count_eigenvalue_tests(monkeypatch)
    S = _spd_samples(rng)
    outcomes = {"certificate": 0, "fallback": 0, "raise": 0}
    # one-point fields, then fields of 7 points, so that a bad point among
    # good ones is refused with the count of the eigenvalue test
    perm = rng.permutation(S.shape[1])
    fields = [S[:, k : k + 1] for k in range(S.shape[1])]
    fields += [S[:, perm[k : k + 7]] for k in range(0, S.shape[1], 7)]
    for G in fields:
        before = len(calls)
        new, ref = _decisions(G)
        # the eigenvalue test ran where the certificate did not decide
        fallback = len(calls) > before
        if ref[0] == "raise":
            assert new == ref, G
            outcomes["raise"] += 1
            continue
        assert new[0] == "pass", G
        assert np.array_equal(new[1], ref[1]), G
        if fallback:
            outcomes["fallback"] += 1
            continue
        outcomes["certificate"] += 1
        # where the certificate accepts, the eigenvalue test's
        # lo > _SPD_RATIO max(hi, 1) holds with the factor 4 almost whole
        lo, hi = _sym2_eigenvalues(G)
        assert np.all(lo > 3.99 * _SPD_RATIO * np.maximum(hi, 1.0)), G
    # every outcome is exercised, and the certificate decides most fields
    assert min(outcomes.values()) > 100 and outcomes["certificate"] > outcomes["fallback"], outcomes


def test_spd_one_bound_defers_a_spread_field_to_the_eigenvalue_test(monkeypatch):
    calls = _count_eigenvalue_tests(monkeypatch)
    # trace 1e6 at one node, det 1e-3 at the other
    G = np.array([[1e6, 0.1], [0.0, 0.0], [1.0, 0.01]])
    s00, s01, s11 = G
    det, tr = s00 * s11 - s01 * s01, s00 + s11
    # each node passes its own bound, the field fails the one of its largest trace
    assert np.all(det > np.maximum(tr, 1.0) * tr * (4.0 * _SPD_RATIO))
    T = float(tr.max())
    assert not det.min() > max(T, 1.0) * T * (4.0 * _SPD_RATIO)
    assert _spd_inverse(G).tobytes() == _sym2_inverse(G).tobytes()
    assert calls == [1]


@pytest.mark.parametrize("bad", [
    (np.nan, 0.0, 1.0), (1.0, np.nan, 1.0), (np.inf, 0.0, 1.0), (1.0, np.inf, 1.0),
    (-np.inf, 0.0, 1.0), (1.0, -np.inf, 1.0), (np.inf, 0.0, np.inf), (1.0, 2.0, 1.0),
    (-2.0, 1.0, -1.0)],
    ids=["nan-diagonal", "nan-offdiagonal", "inf", "inf-offdiagonal", "minus-inf",
         "minus-inf-offdiagonal", "inf-both", "indefinite", "negative-definite"])
def test_spd_refusals_keep_their_wording(bad):
    # one bad node among good ones; the reference is the eigenvalue test alone
    G = np.array([(1.0, 0.0, 1.0), bad, (2.0, 0.5, 1.0)]).T
    with np.errstate(all="ignore"), pytest.raises(CurvatureUndefinedError) as ref:
        _eigenvalue_spd_inverse(G)
    # and no warning of the arithmetic on the bad node
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurvatureUndefinedError) as got:
            _spd_inverse(G)
    assert str(got.value) == str(ref.value)
    assert "at 1 point(s)" in str(got.value)


def test_spd_test_of_a_trace_past_the_square_range_does_not_warn():
    # tr^2 is past the float range: the bound is inf, without a warning, and
    # the eigenvalue test refuses the node
    G = np.array([[1e200, 1.0], [0.0, 0.0], [1.0, 1.0]])
    with np.errstate(all="ignore"), pytest.raises(CurvatureUndefinedError) as ref:
        _eigenvalue_spd_inverse(G)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CurvatureUndefinedError) as got:
            _spd_inverse(G)
    assert str(got.value) == str(ref.value)


# -- weighted scalar ---------------------------------------------------------


@pytest.mark.parametrize("key, value", [("m", 1.7), ("m", 2), ("chi_S", -2.5), ("c_S", np.nan),
                                        ("p", (np.nan, 1.0)), ("p", "11"), ("p", ("a", 1)),
                                        ("scal_S", 0.5)],
                         ids=["fractional-m", "surface-base", "fractional-chi", "nan-c_S",
                              "nan-p", "string-p", "non-numeric-p", "unnormalized-scal_S"])
def test_class_refuses_values_outside_its_schema(key, value):
    # each of these was once built: 1.7 ran as m = 1, and a NaN ran the flow
    # to a numerical termination
    args = {"p": (1.0, 1.0), "c_S": 12.0, "scal_S": -1.0, "m": 1, "chi_S": -2, key: value}
    with pytest.raises(DegenerateInputError):
        AdmissibleClass(**args)


def test_class_coerces_its_fields():
    cls = AdmissibleClass([1, 1], 12, -1, 1.0, -2.0)
    assert cls == AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2)
    assert [type(v) for v in (*cls.p, cls.c_S, cls.scal_S, cls.m, cls.chi_S)] == [float] * 4 + [int] * 2


def test_weighted_trivial_reduces_to_abreu(fs48):
    triv = AdmissibleClass.trivial()
    np.testing.assert_allclose(
        weighted_scalar_field(fs48, triv), abreu_scalar_field(fs48), atol=0
    )


def test_weighted_constant_weight_shift(fs48):
    cls = AdmissibleClass((0.0, 0.0), 2.0, -1.0, 1, -2)
    W = weighted_scalar_field(fs48, cls)
    np.testing.assert_allclose(W, -0.5 + 4.0, atol=1e-10)


def test_weighted_rejects_nonpositive_weight(fs48):
    bad = AdmissibleClass((1.0, 1.0), 1.0, -1.0, 1, -2)  # <p,z>+1 < 0 at (-1,-1)
    with pytest.raises(DegenerateInputError):
        weighted_scalar_field(fs48, bad)


# -- admissible blocks -------------------------------------------------------


def test_mixed_blocks_vanish_for_zero_p(fs48):
    cls = AdmissibleClass((0.0, 0.0), 2.0, -1.0, 1, -2)
    s = admissible_blocks(fs48, cls, (0.25, -0.125))
    np.testing.assert_allclose(s.rm_00ij, 0.0, atol=1e-14)


def test_first_norm_term_for_zero_p(fs48):
    # p = 0, m = 1: the base-block term reduces to scal^2 / (4 c^2)
    cls = AdmissibleClass((0.0, 0.0), 2.0, -1.0, 1, -2)
    s = admissible_blocks(fs48, cls, (0.25, -0.125))
    base_term = s.rm2_total - s.rm2_fiber
    assert base_term == pytest.approx(cls.scal_S**2 / (4 * cls.c_S**2), rel=1e-12)


def test_blocks_symmetry(fs48, bundle_class, rng, triangle):
    for x in interior_points(triangle, rng, 5, margin=0.2):
        s = admissible_blocks(fs48, bundle_class, x)
        np.testing.assert_allclose(s.rm_00ij, s.rm_00ij.T, atol=1e-12)
        np.testing.assert_allclose(s.ric_ij, s.ric_ij.T, atol=1e-12)
        T = s.rm_ijkl
        np.testing.assert_allclose(T, np.swapaxes(np.swapaxes(T, 0, 2), 1, 3), atol=1e-10)


def test_blocks_reject_surface_base():
    # a surface base (m = 2) is refused when the class is built
    with pytest.raises(DegenerateInputError, match="base dimension"):
        AdmissibleClass((1.0, 1.0), 12.0, -1.0, 2, -2)


def test_trace_identity_three_classes(fs48, triangle, rng):
    pts = interior_points(triangle, rng, 10, margin=0.1)
    for cls in CLASSES:
        for x in pts:
            tr = ricci_trace(fs48, cls, x)
            ws = weighted_scalar(fs48, cls, x)
            assert tr == pytest.approx(ws, rel=1e-10)


def test_trace_identity_perturbed(triangle, grid48, rng):
    u = SymplecticPotential.from_closed_form(
        triangle, grid48, polynomial_form({(3, 0): 0.01, (1, 2): -0.008, (2, 1): 0.006})
    )
    for x in interior_points(triangle, rng, 5, margin=0.15):
        assert ricci_trace(u, CLASSES[0], x) == pytest.approx(
            weighted_scalar(u, CLASSES[0], x), rel=1e-10
        )


# -- curvature bound ---------------------------------------------------------


def test_control_rm_worked_value():
    cls = AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2)
    # the weight attains its minimum 10 at the vertex (-1, -1)
    val = control_rm_rhs(cls, (-1.0, -1.0))
    assert val == pytest.approx((1 + 0.9 + 6.4**2) / 100 + 4.0 / 3.0, rel=1e-12)
    assert val == pytest.approx(1.7619333, abs=1e-6)


def test_control_rm_exceeds_fiber_floor(rng, triangle):
    for x in interior_points(triangle, rng, 10, margin=0.05):
        for cls in CLASSES:
            assert control_rm_rhs(cls, x) > 4.0 / 3.0


def test_control_rm_regime_ceiling(grid48):
    # any class with c_S >= 12 p1, p1 >= p2 >= 1 keeps the bound under 1/2 + 4/3
    for cls in [
        AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2),
        AdmissibleClass((2.0, 1.0), 24.0, 1.0, 1, 2),
        AdmissibleClass((3.0, 2.0), 50.0, -1.0, 1, -4),
    ]:
        rhs_vals = [control_rm_rhs(cls, x) for x in grid48.points]
        assert max(rhs_vals) < 0.5 + 4.0 / 3.0


def test_control_rm_dominates_fs_total_norm(fs48, grid48):
    for cls in [
        AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2),
        AdmissibleClass((2.0, 1.0), 24.0, 1.0, 1, 2),
    ]:
        lhs = rm2_total_field(fs48, cls)
        rhs_vals = np.array([control_rm_rhs(cls, x) for x in grid48.points])
        assert np.all(lhs <= rhs_vals)


@pytest.mark.parametrize("p", [(0.5, 2.0), (0.0, -2.0), (1.0, 4.0)])
def test_control_rm_refuses_a_second_factor_larger_than_the_first(p):
    # on Fubini-Study the total norm exceeds the p1-only bound at some node of
    # each of these classes, at every node for (0, -2)
    cls = AdmissibleClass(p, 60.0, -1.0, 1, -2)
    with pytest.raises(RegimeError, match=r"p1 >= \|p2\|"):
        control_rm_rhs(cls, (0.0, 0.0))


# the bound's values before it refused |p2| > p1, at (-1, -1), (0.3, -0.2)
# and (0.5, 0.25)
CONTROL_RM_VALUES = [
    (AdmissibleClass.trivial(), [1.3333333333333333] * 3),
    (AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2),
     [1.7619333333333334, 1.5888940068376889, 1.5557444634682693]),
    (AdmissibleClass((2.0, 1.0), 24.0, 1.0, 1, 2),
     [1.701374427321949, 1.5783098753866474, 1.5569119451436029]),
    (AdmissibleClass((3.0, 2.0), 50.0, -1.0, 1, -4),
     [1.4749827160493827, 1.438737386119945, 1.4312041733774494]),
    (AdmissibleClass((0.7, 0.3), 3.0, 0.0, 1, 0),
     [21.51949583333333, 5.854595336076817, 4.802848307444736]),
]


@pytest.mark.parametrize("cls, values", CONTROL_RM_VALUES,
                         ids=["trivial", "bundle", "(2,1)", "(3,2)", "(0.7,0.3)"])
def test_control_rm_keeps_its_values_where_p1_dominates(cls, values):
    points = [(-1.0, -1.0), (0.3, -0.2), (0.5, 0.25)]
    assert [control_rm_rhs(cls, x) for x in points] == values


def test_total_norm_dominates_fiber(fs48, grid48):
    for cls in CLASSES:
        assert np.all(
            rm2_total_field(fs48, cls) >= fiber_riemann_norm_field(fs48) - 1e-12
        )


# -- fd/analytic consistency and oracle --------------------------------------


def test_fd_matches_analytic_second_order(triangle):
    form = polynomial_form({(3, 0): 0.02, (1, 2): -0.015, (2, 1): 0.01})
    errs = {}
    for n in (24, 48, 96):
        g = build_grid(triangle, n, 0.5 * 3.0 / n)
        ua = SymplecticPotential.from_closed_form(triangle, g, form)
        uf = SymplecticPotential.from_node_values(
            triangle, g, form(g.points[:, 0], g.points[:, 1])
        )
        # fixed interior region, clear of the near-boundary fitted band and
        # its stencil halo at every resolution tested
        inner = g.boundary_distance >= 0.45
        errs[n] = np.abs(abreu_scalar_field(ua) - abreu_scalar_field(uf))[inner].max()
    assert 3.0 <= errs[24] / errs[48] <= 5.0
    assert 3.0 <= errs[48] / errs[96] <= 5.0


def test_perturbed_curvature_matches_oracle(triangle, grid48):
    # x^2 y correction: compare against the independent high-resolution oracle
    form = polynomial_form({(2, 1): 0.01})
    u = SymplecticPotential.from_closed_form(triangle, grid48, form)
    ref = oracle_curvature(u.value_at, np.array([0.0, 0.0]))
    assert agrees_to_sig(abreu_scalar(u, (0.0, 0.0)), ref["r_fiber"])
    assert agrees_to_sig(fiber_riemann_norm(u, (0.0, 0.0)), ref["rm2_fiber"])


# -- fd context: traces at once, full tensors on demand ----------------------


def _cubic_fd(P, grid):
    form = polynomial_form({(3, 0): 0.02, (1, 2): -0.015, (2, 1): 0.01})
    return SymplecticPotential.from_node_values(P, grid, form(grid.points[:, 0], grid.points[:, 1]))


@pytest.mark.parametrize("poly, grid", [("triangle", "grid48"), ("hexagon", "hex_grid")])
def test_fd_context_traces_match_full_tensors(poly, grid, request):
    u = _cubic_fd(request.getfixturevalue(poly), request.getfixturevalue(grid))
    ctx = _jet_context(u)
    _, _, dU, d2U = full_tensors(ctx)
    assert np.array_equal(np.moveaxis(_dU_trace(ctx["dU"]), -1, 0), np.einsum("nsrs->nsr", dU))
    assert np.array_equal(_d2U_trace(ctx["d2U"]), np.einsum("nrsrs->n", d2U))


@pytest.mark.parametrize("cls", CLASSES + [AdmissibleClass.trivial()])
def test_weighted_scalar_matches_full_tensor_formula(triangle, grid48, cls):
    u = _cubic_fd(triangle, grid48)
    ctx = _jet_context(u)
    _, U, dU, d2U = full_tensors(ctx)
    q = cls.affine(grid48.points)
    # the weight q^m is affine (m is 0 or 1), with gradient m p
    div = (2.0 * cls.m * np.einsum("r,nsrs->n", np.asarray(cls.p), dU)
           + q**cls.m * np.einsum("nrsrs->n", d2U))
    ref = cls.scal_S / q - div / q**cls.m
    np.testing.assert_allclose(weighted_scalar_field(u, cls), ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("poly, grid", [("triangle", "grid48"), ("hexagon", "hex_grid"),
                                        ("trapezoid", None)])
def test_fd_traces_equal_full_jets(poly, grid, request):
    P = request.getfixturevalue(poly)
    g = request.getfixturevalue(grid) if grid else build_grid(P, 24, 0.5 * 6.0 / 24)
    x, y = g.points[:, 0], g.points[:, 1]
    u = SymplecticPotential.from_node_values(P, g, _cubic_fd(P, g).f_values + bump_form(0.05)(x, y))
    ctx = _jet_context(u)
    # the context's Hessian field is that of the jets of u
    jets2 = u.jets(2)
    assert np.array_equal(ctx["G"], np.stack([jets2[key] for key in HESSIAN_KEYS]))
    jets = g.field_jets(np.stack(list(ctx["U"]), axis=1))
    dx, dy, dxy = jets[(1, 0)], jets[(0, 1)], jets[(1, 1)][:, 1]
    assert np.array_equal(np.moveaxis(_dU_trace(ctx["dU"]), -1, 0),
                          np.stack([dx[:, :2], dy[:, 1:]], axis=1))
    assert np.array_equal(_d2U_trace(ctx["d2U"]),
                          ((jets[(2, 0)][:, 0] + dxy) + dxy) + jets[(0, 2)][:, 2])
    # the U-jets are the full jets of the components, partial-major
    assert ctx["dU"].shape == (2, 3, g.n_nodes) and ctx["d2U"].shape == (3, 3, g.n_nodes)
    for k, key in enumerate(((1, 0), (0, 1))):
        assert np.array_equal(ctx["dU"][k], jets[key].T)
    for kl, key in enumerate(((2, 0), (1, 1), (0, 2))):
        assert np.array_equal(ctx["d2U"][kl], jets[key].T)
    keys = ("G", "U", "dU", "d2U")
    for k, pt in enumerate(g.points):
        row = _point_context(u, pt, k)
        assert row.keys() == set(keys)
        for key in keys:
            assert np.array_equal(row[key], ctx[key][..., k : k + 1]), (k, key)


def test_fd_context_reads_second_partials_only(monkeypatch, triangle, grid48):
    u = _cubic_fd(triangle, grid48)
    f_jets, f_jet = SymplecticPotential.f_jets, SymplecticPotential._f_jet
    jets_orders, orders = [], []
    monkeypatch.setattr(SymplecticPotential, "f_jets",
                        lambda self, order=4: jets_orders.append(order) or f_jets(self, order))
    monkeypatch.setattr(SymplecticPotential, "_f_jet",
                        lambda self, order: orders.append(order) or f_jet(self, order))
    curvature_context(u)
    # the three second partials of f, as the rows of one jet, and nothing else
    assert jets_orders == [] and orders == [2]


def test_all_nan_hessian_is_curvature_undefined(triangle, grid48):
    u = SymplecticPotential.from_node_values(triangle, grid48, np.full(grid48.n_nodes, np.nan))
    # the message's minimum eigenvalue is taken without nanmin's all-NaN warning
    with pytest.raises(CurvatureUndefinedError, match="min eigenvalue nan"):
        curvature_context(u)


def test_invalid_class_raises_on_a_grid_with_records(hexagon, hex_grid, bundle_class):
    u = SymplecticPotential.from_node_values(hexagon, hex_grid,
                                             bump_form(0.05)(*hex_grid.points.T))
    weighted_scalar_field(u, bundle_class)
    assert bundle_class in hex_grid.class_records
    # x + y + 1 is -1/2 at the hexagon's vertices with x + y = -3/2
    bad = AdmissibleClass(p=(1.0, 1.0), c_S=1.0, scal_S=-1.0)
    for field in (weighted_scalar_field, rm2_total_field):
        with pytest.raises(DegenerateInputError):
            field(u, bad)
    assert bad not in hex_grid.class_records


def test_flow_velocity_leaves_full_tensors_unbuilt(monkeypatch, triangle, grid48, bundle_class):
    from calabiflow.polytope import Grid

    u = _cubic_fd(triangle, grid48)
    field_jets = Grid.field_jets
    calls = []
    monkeypatch.setattr(Grid, "field_jets", lambda *a: calls.append(1) or field_jets(*a))
    weighted_scalar_field(u, bundle_class)
    # the velocity applies the derivative operators it reads, not the full jets
    assert calls == []
    monkeypatch.undo()
    ctx = curvature_context(u)
    assert "dU" not in ctx and "d2U" not in ctx
    rm2_total_field(u, bundle_class)
    assert "dU" in ctx and "d2U" in ctx


@pytest.mark.parametrize("poly, grid", [("triangle", "grid48"), ("hexagon", "hex_grid")])
def test_pointwise_scalars_equal_field_rows(poly, grid, request, bundle_class):
    P, g = request.getfixturevalue(poly), request.getfixturevalue(grid)
    x, y = g.points[:, 0], g.points[:, 1]
    u = SymplecticPotential.from_node_values(P, g, _cubic_fd(P, g).f_values + bump_form(0.05)(x, y))
    rf = fiber_riemann_norm_field(u)
    for cls in (bundle_class, AdmissibleClass.trivial(), AdmissibleClass((0.7, 0.3), 13.1, 1.0, 1, 2)):
        R, rm2 = weighted_scalar_field(u, cls), rm2_total_field(u, cls)
        for k, pt in enumerate(g.points):
            sample = admissible_blocks(u, cls, pt)
            assert weighted_scalar(u, cls, pt) == R[k] == sample.r_weighted
            assert fiber_riemann_norm(u, pt) == rf[k] == sample.rm2_fiber
            assert sample.rm2_total == rm2[k]


def test_pointwise_block_after_report_makes_no_sparse_product(hexagon, hex_grid, bundle_class,
                                                              csr_products):
    x, y = hex_grid.points[:, 0], hex_grid.points[:, 1]
    u = SymplecticPotential.from_node_values(hexagon, hex_grid, bump_form(0.05)(x, y))
    energy_report(u, bundle_class)
    k = hex_grid.n_nodes // 3
    del csr_products[:]
    sample = admissible_blocks(u, bundle_class, hex_grid.points[k])
    rm2_fiber = fiber_riemann_norm(u, hex_grid.points[k])
    # a node's one-point context is its slice of the grid context, whose
    # U-jets the report has built
    assert len(csr_products) == 0
    assert sample.r_fiber == abreu_scalar_field(u)[k]
    assert sample.r_weighted == weighted_scalar_field(u, bundle_class)[k]
    assert sample.rm2_fiber == rm2_fiber == fiber_riemann_norm_field(u)[k]
    assert sample.rm2_total == rm2_total_field(u, bundle_class)[k]


@pytest.mark.parametrize("poly, grid", POLY_GRIDS)
def test_velocity_operator_matches_block_trace_formula(poly, grid, request, bundle_class):
    P, g = request.getfixturevalue(poly), request.getfixturevalue(grid)
    x, y = g.points[:, 0], g.points[:, 1]
    u = SymplecticPotential.from_node_values(P, g, _cubic_fd(P, g).f_values + bump_form(0.05)(x, y))
    U = curvature_context(u)["U"]
    for cls in (bundle_class, AdmissibleClass.trivial(), AdmissibleClass((0.7, 0.3), 13.1, 1.0, 1, 2)):
        R = weighted_scalar_field(u, cls)
        # one product of the class operator with the contiguous components
        L = class_record(g, cls).L
        assert L.shape == (g.n_nodes, 3 * g.n_nodes) and L.indices.dtype == np.int32
        assert np.array_equal(R, class_record(g, cls).scal_q - L @ U.ravel())
        # the trace formula, block by component; R crosses zero on the
        # triangle, so the error is taken relative to each node's terms
        ref, scale = weighted_scalar_by_blocks(g, U, cls)
        assert np.all(np.abs(R - ref) <= 1e-12 * scale), cls


def test_velocity_operator_arrays_match_scipy_hstack_reference(small_grid, bundle_class):
    from scipy import sparse

    g = small_grid
    G, H, n = g.gradient_operator, g.hessian_operator, g.n_nodes
    # scipy's row slices, products, sums and horizontal stack, whose entry
    # order within each row the products of L sum in
    Dx, Dy, Dxx, Dxy, Dyy = (A[k * n : (k + 1) * n] for A, k in ((G, 0), (G, 1), (H, 0),
                                                                 (H, 1), (H, 2)))
    for cls in (bundle_class, AdmissibleClass.trivial(), AdmissibleClass((0.7, 0.3), 13.1, 1.0, 1, 2)):
        q = cls.affine(g.points)
        a0, a1 = (sparse.diags_array(2.0 * cls.m * p / q) for p in cls.p)
        ref = sparse.hstack([a0 @ Dx + Dxx, a0 @ Dy + a1 @ Dx + 2.0 * Dxy, a1 @ Dy + Dyy],
                            format="csr")
        L = class_record(g, cls).L
        assert L.shape == ref.shape == (n, 3 * n)
        for a, b in ((L.data, ref.data), (L.indices, ref.indices), (L.indptr, ref.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), cls


# -- closed-form contractions against the einsum references ------------------

@pytest.mark.parametrize("poly, grid", POLY_GRIDS)
def test_rm2_total_pieces_match_einsum_reference(poly, grid, request, bundle_class):
    P, g = request.getfixturevalue(poly), request.getfixturevalue(grid)
    x, y = g.points[:, 0], g.points[:, 1]
    f = _cubic_fd(P, g).f_values + bump_form(0.05)(x, y)
    u = SymplecticPotential.from_node_values(P, g, f)
    ctx, rf = curvature_context(u), fiber_riemann_norm_field(u)
    G, U, dU, _ = full_tensors(ctx)
    for cls in (bundle_class, AdmissibleClass.trivial(),
                AdmissibleClass((0.7, 0.3), 13.1, 1.0, 1, 2)):
        parts = _rm2_total_from_ctx(ctx, cls, cls.affine(g.points), rf)
        parts["M"] = sym2_matrices(parts["M"])
        pw = cls.weight(g.points)
        ref = [rm2_total_pieces(G[k], U[k], dU[k], rf[k], cls, pw[k]) for k in range(g.n_nodes)]
        for col, name in enumerate(("A", "M", "rm2_total")):
            want = np.array([r[col] for r in ref])
            assert np.max(np.abs(parts[name] - want)) <= 1e-13 * np.max(np.abs(want)), (cls, name)


@pytest.mark.parametrize("poly, grid", POLY_GRIDS)
def test_analytic_context_matches_einsum_reference(poly, grid, request):
    P, g = request.getfixturevalue(poly), request.getfixturevalue(grid)
    u = SymplecticPotential.from_closed_form(P, g, bump_form(0.05))
    ctx, partials, n = curvature_context(u), u.jets(4), g.n_nodes
    _, U, ctx_dU, ctx_d2U = full_tensors(ctx)
    T3, T4 = tensor_field(partials, 3, n), tensor_field(partials, 4, n)
    dU = -np.einsum("nai,nijk,njb->nkab", U, T3, U)
    t1 = np.einsum("nlai,nijk,njb->nklab", dU, T3, U)
    t2 = np.einsum("nai,nijkl,njb->nklab", U, T4, U)
    t3 = np.einsum("nai,nijk,nljb->nklab", U, T3, dU)
    assert np.max(np.abs(ctx_dU - dU)) <= 1e-13 * np.max(np.abs(dU))
    # near a facet the three terms are O(1/l) and cancel to an O(1) d2U; the
    # reference's own rounding there reaches several 1e-13 of max |d2U| on the
    # triangle at N=48 (against an extended-precision contraction), so the
    # drift is taken relative to the terms it sums
    scale = np.max(np.abs(t1)) + np.max(np.abs(t2)) + np.max(np.abs(t3))
    assert np.max(np.abs(ctx_d2U + (t1 + t2 + t3))) <= 1e-13 * scale


def test_grid_and_its_caches_form_no_reference_cycle(triangle, bundle_class):
    import gc
    import weakref

    g = build_grid(triangle, 16, 0.5 * 3.0 / 16)
    x, y = g.points[:, 0], g.points[:, 1]
    u = SymplecticPotential.from_node_values(triangle, g, bump_form(0.05)(x, y))
    ua = SymplecticPotential.from_closed_form(triangle, g, bump_form(0.05))
    for v in (u, ua):
        rm2_total_field(v, bundle_class)
        abreu_scalar_field(v)
        weighted_scalar_field(v, bundle_class)
    admissible_blocks(u, bundle_class, g.points[5])
    g.quadrature_weights
    ref = weakref.ref(g)
    # the class records, the lazily filled canonical partials and the fd
    # contexts hold no reference back to the grid: it is freed at once
    gc.disable()
    try:
        del g, u, ua, v
        assert ref() is None
    finally:
        gc.enable()
