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
    fiber_riemann_norm,
    fiber_riemann_norm_field,
    polynomial_form,
    ricci_trace,
    rm2_total_field,
    weighted_scalar,
    weighted_scalar_field,
)
from calabiflow.curvature import curvature_context
from calabiflow.polytope import DelzantPolytope
from conftest import interior_points
from fd_oracle import agrees_to_sig, oracle_curvature


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
    P = square_polytope()
    g = build_grid(P, 16, 0.05)
    u = SymplecticPotential.from_total_form(P, g, polynomial_form({(2, 0): 0.5, (0, 2): 0.5}))
    assert np.abs(abreu_scalar_field(u)).max() <= 1e-12
    assert np.abs(fiber_riemann_norm_field(u)).max() <= 1e-12


def test_indefinite_hessian_raises():
    P = square_polytope()
    g = build_grid(P, 16, 0.05)
    u = SymplecticPotential.from_total_form(P, g, polynomial_form({(2, 0): 0.5, (0, 2): -0.5}))
    with pytest.raises(CurvatureUndefinedError):
        abreu_scalar_field(u)


# -- weighted scalar ---------------------------------------------------------


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


def test_blocks_reject_surface_base(fs48):
    cls = AdmissibleClass((1.0, 1.0), 12.0, -1.0, 2, -2)
    with pytest.raises(RegimeError):
        admissible_blocks(fs48, cls, (0.0, 0.0))


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
    ctx = curvature_context(u)
    assert np.array_equal(ctx["dU_trace"], np.einsum("nsrs->nsr", ctx["dU"]))
    assert np.array_equal(ctx["d2U_trace"], np.einsum("nrsrs->n", ctx["d2U"]))


@pytest.mark.parametrize(
    "cls", CLASSES[:2] + [AdmissibleClass((2.0, 1.0), 12.0, 1.0, 2, 2), AdmissibleClass.trivial()]
)
def test_weighted_scalar_matches_full_tensor_formula(triangle, grid48, cls):
    u = _cubic_fd(triangle, grid48)
    ctx = curvature_context(u)
    q = cls.affine(grid48.points)
    p = np.asarray(cls.p)
    pr = cls.m * q[:, None] ** (cls.m - 1) * p if cls.m >= 1 else np.zeros((len(q), 2))
    prs = (cls.m * (cls.m - 1) * q ** (cls.m - 2))[:, None, None] * np.outer(p, p)
    div = (np.einsum("nrs,nrs->n", prs, ctx["U"])
           + 2.0 * np.einsum("nr,nsrs->n", pr, ctx["dU"])
           + q**cls.m * np.einsum("nrsrs->n", ctx["d2U"]))
    ref = cls.scal_S / q - div / q**cls.m
    np.testing.assert_allclose(weighted_scalar_field(u, cls), ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("poly, grid", [("triangle", "grid48"), ("hexagon", "hex_grid"),
                                        ("trapezoid", None)])
def test_fd_traces_equal_full_jets(poly, grid, request):
    P = request.getfixturevalue(poly)
    g = request.getfixturevalue(grid) if grid else build_grid(P, 24, 0.5 * 6.0 / 24)
    x, y = g.points[:, 0], g.points[:, 1]
    u = SymplecticPotential.from_node_values(P, g, _cubic_fd(P, g).f_values + bump_form(0.05)(x, y))
    ctx = curvature_context(u)
    assert np.array_equal(ctx["G"], u.hessians())
    U = ctx["U"]
    jets = g.field_jets(np.stack([U[:, 0, 0], U[:, 0, 1], U[:, 1, 1]], axis=1))
    dx, dy, dxy = jets[(1, 0)], jets[(0, 1)], jets[(1, 1)][:, 1]
    assert np.array_equal(ctx["dU_trace"], np.stack([dx[:, :2], dy[:, 1:]], axis=1))
    assert np.array_equal(ctx["d2U_trace"],
                          ((jets[(2, 0)][:, 0] + dxy) + dxy) + jets[(0, 2)][:, 2])
    keys = ("G", "U", "dU_trace", "d2U_trace", "dU", "d2U")
    for k in range(g.n_nodes):
        row = ctx.row(k)
        for key in keys:
            assert np.array_equal(row[key], ctx[key][k : k + 1]), (k, key)


def test_fd_context_reads_second_partials_only(monkeypatch, triangle, grid48):
    u = _cubic_fd(triangle, grid48)
    f_partial = SymplecticPotential.f_partial
    keys = []
    monkeypatch.setattr(SymplecticPotential, "f_partial",
                        lambda self, key: keys.append(key) or f_partial(self, key))
    curvature_context(u)
    assert sorted(keys) == [(0, 2), (1, 1), (2, 0)]


def test_flow_velocity_leaves_full_tensors_unbuilt(monkeypatch, triangle, grid48, bundle_class):
    from calabiflow.polytope import Grid

    u = _cubic_fd(triangle, grid48)
    field_jets = Grid.field_jets
    calls = []
    monkeypatch.setattr(Grid, "field_jets", lambda *a: calls.append(1) or field_jets(*a))
    weighted_scalar_field(u, bundle_class)
    abreu_scalar_field(u)
    # the velocity applies the derivative operators it reads, not the full jets
    assert calls == []
    monkeypatch.undo()
    ctx = curvature_context(u)
    assert "dU" not in ctx and "d2U" not in ctx
    k = grid48.n_nodes // 2
    sample = admissible_blocks(u, bundle_class, grid48.points[k])
    # a pointwise call reads a one-row context of its node
    assert "dU" not in ctx and "d2U" not in ctx
    assert sample.r_fiber == abreu_scalar_field(u)[k]
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
