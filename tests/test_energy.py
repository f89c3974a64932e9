import numpy as np
import pytest
from scipy.integrate import quad

from calabiflow import (
    AdmissibleClass,
    DegenerateInputError,
    DomainError,
    SymplecticPotential,
    abreu_scalar_field,
    average_scalar,
    boundary_quadrature,
    build_grid,
    energy_report,
    interior_quadrature,
    polynomial_form,
    standard_triangle,
    weighted_scalar_field,
)
from calabiflow.curvature import class_record, curvature_context
from calabiflow.energy import dissipation_integral
from calabiflow.polytope import Grid
from calabiflow.potential import bump_form
from conftest import GENERATED_POLYGONS, generated_grid
from fd_oracle import sym2_matrices, tensor_field


def test_quadrature_constant(grid96):
    assert interior_quadrature(grid96, np.ones(grid96.n_nodes)) == pytest.approx(4.5, abs=1e-6)


def test_quadrature_constant_exact_on_polygons(triangle, grid48, hexagon, hex_grid):
    # the folded Laplacian correction vanishes on constants
    for P, g in ((triangle, grid48), (hexagon, hex_grid)):
        assert abs(interior_quadrature(g, np.ones(g.n_nodes)) - P.area) <= 1e-12


def test_quadrature_linear_symmetry(grid96):
    assert interior_quadrature(grid96, grid96.points[:, 0]) == pytest.approx(0.0, abs=1e-6)
    assert interior_quadrature(grid96, grid96.points[:, 1]) == pytest.approx(0.0, abs=1e-6)


def test_quadrature_refinement_order(triangle):
    # integral of cos x e^{y/3} over the triangle -1 <= x, -1 <= y, x + y <= 1:
    # the y-integral is 3 cos x (e^{(1-x)/3} - e^{-1/3}), and with
    # int e^{-x/3} cos x dx = (9/10) e^{-x/3} (sin x - cos x / 3) the x-integral
    # over [-1, 2] collects to the two exponentials below
    exact = (np.exp(2 / 3) * (2.7 * np.sin(1) + 0.9 * np.cos(1))
             - np.exp(-1 / 3) * (3 * np.sin(1) + 0.3 * np.sin(2) + 0.9 * np.cos(2)))
    errs = []
    for n in (48, 96):
        g = build_grid(triangle, n, 0.5 * 3.0 / n)
        f = np.cos(g.points[:, 0]) * np.exp(g.points[:, 1] / 3)
        errs.append(abs(interior_quadrature(g, f) - exact))
    assert 3.0 <= errs[0] / errs[1] <= 10.0


def test_quadrature_shape_check(grid48):
    with pytest.raises(DegenerateInputError):
        interior_quadrature(grid48, np.ones(3))


def test_average_scalar_trivial(triangle, grid96):
    assert average_scalar(triangle, AdmissibleClass.trivial(), grid96) == pytest.approx(4.0, abs=1e-10)


def test_average_scalar_constant_weight(triangle, grid96):
    cls = AdmissibleClass((0.0, 0.0), 2.0, -1.0, 1, -2)
    assert average_scalar(triangle, cls, grid96) == pytest.approx(-0.5 + 4.0, abs=1e-10)


@pytest.mark.parametrize("n", [23, 24])
@pytest.mark.parametrize("name", GENERATED_POLYGONS)
def test_trivial_average_scalar_on_generated_polygons(name, n):
    # the Abreu scalar integrates to twice the lattice boundary measure
    P = GENERATED_POLYGONS[name]
    r_bar = average_scalar(P, AdmissibleClass.trivial(), generated_grid(name, n))
    assert r_bar == pytest.approx(2.0 * P.boundary_measure() / P.area, rel=1e-12)


def test_average_scalar_refuses_a_grid_of_another_polytope(triangle, hexagon, grid48,
                                                          bundle_class):
    # the triangle's grid once gave the triangle's average, 3.0278, not the
    # hexagon's, 3.9167
    with pytest.raises(DegenerateInputError):
        average_scalar(hexagon, bundle_class, grid48)
    # the same facets in another object are the grid's polytope
    assert (average_scalar(standard_triangle(), bundle_class, grid48)
            == average_scalar(triangle, bundle_class, grid48))


def test_average_scalar_refuses_a_quadrature_of_another_polytope(triangle, hexagon, grid48,
                                                                bundle_class):
    # the hexagon's boundary panels once gave the triangle 3.0278 all the same
    with pytest.raises(DomainError):
        average_scalar(triangle, bundle_class, grid48, boundary_quadrature(hexagon))


def test_average_scalar_two_routes(triangle, grid96, fs96, bundle_class):
    r1 = average_scalar(triangle, bundle_class, grid96)
    pw = bundle_class.weight(grid96.points)
    W = weighted_scalar_field(fs96, bundle_class)
    r2 = interior_quadrature(grid96, W * pw) / interior_quadrature(grid96, pw)
    assert r1 == pytest.approx(r2, abs=1e-5)


def test_average_scalar_closed_form(triangle, grid96, bundle_class):
    # affine-weight case is exactly (scal * area + 2 * weighted boundary) / weighted volume
    r = average_scalar(triangle, bundle_class, grid96)
    assert r == pytest.approx((-4.5 + 2 * 108.0) / 54.0, abs=1e-12)


def test_energy_report_fs_trivial(fs96, grid96):
    rep = energy_report(fs96, AdmissibleClass.trivial())
    assert rep.area == pytest.approx(4.5, abs=1e-10)
    assert rep.r_bar == pytest.approx(4.0, abs=1e-10)
    assert rep.calabi == pytest.approx(0.0, abs=1e-12)
    assert rep.dissipation == pytest.approx(0.0, abs=1e-10)
    assert rep.invariant_j == pytest.approx(6.0, abs=1e-6)
    assert rep.total_rm2 >= 0 and rep.fiber_rm2_unweighted >= 0


def test_boundary_u_against_1d_oracle(fs96, triangle):
    # per facet the canonical potential restricts to (s ln s + (3-s) ln(3-s))/2
    val, _ = quad(
        lambda s: 0.5 * (s * np.log(s) + (3 - s) * np.log(3 - s)) if 0 < s < 3 else 0.0,
        0.0, 3.0, limit=200,
    )
    rep = energy_report(fs96, AdmissibleClass.trivial())
    assert rep.boundary_u == pytest.approx(3 * val, abs=1e-4)


def test_total_scalar_integral_class_invariance(triangle, grid96, rng):
    # int R dmu = twice the boundary measure, for any admissible potential
    base = SymplecticPotential.fubini_study(grid96)
    assert interior_quadrature(grid96, abreu_scalar_field(base)) == pytest.approx(18.0, abs=1e-6)
    for _ in range(5):
        coeffs = {
            (a, b): rng.uniform(-3e-3, 3e-3)
            for (a, b) in [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
        }
        u = SymplecticPotential.from_closed_form(triangle, grid96, polynomial_form(coeffs))
        assert interior_quadrature(grid96, abreu_scalar_field(u)) == pytest.approx(18.0, abs=1e-4)


def test_weighted_scalar_integral_class_invariance(triangle, grid96, bundle_class, rng):
    pw = bundle_class.weight(grid96.points)
    base = SymplecticPotential.fubini_study(grid96)
    ref = interior_quadrature(grid96, weighted_scalar_field(base, bundle_class) * pw)
    for _ in range(5):
        coeffs = {
            (a, b): rng.uniform(-1e-3, 1e-3)
            for (a, b) in [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
        }
        u = SymplecticPotential.from_closed_form(triangle, grid96, polynomial_form(coeffs))
        val = interior_quadrature(grid96, weighted_scalar_field(u, bundle_class) * pw)
        assert val == pytest.approx(ref, abs=1e-4)


def test_dissipation_nonnegative(triangle, grid48, bundle_class):
    u = SymplecticPotential.from_closed_form(
        triangle, grid48, polynomial_form({(3, 0): 0.01, (2, 1): -0.008})
    )
    assert dissipation_integral(u, bundle_class) >= 0


def test_boundary_integral_weight(triangle, bundle_class):
    # affine weights integrate exactly against the lattice boundary measure
    quad = boundary_quadrature(triangle)
    val = np.dot(quad.weights, bundle_class.affine(quad.points))
    assert val == pytest.approx(108.0, abs=1e-9)


@pytest.mark.parametrize("potential", ["fs48", "fs48_fd"])
def test_energy_report_rejects_quadrature_of_another_polytope(potential, hexagon, bundle_class,
                                                              request):
    u = request.getfixturevalue(potential)
    with pytest.raises(DomainError):
        energy_report(u, bundle_class, boundary_quadrature(hexagon))


def _bump_fd(P, g):
    f = bump_form(0.05)(g.points[:, 0], g.points[:, 1])
    return SymplecticPotential.from_node_values(P, g, f)


@pytest.mark.parametrize("poly, grid", [("triangle", "grid48"), ("hexagon", "hex_grid"),
                                        ("trapezoid", "trap_grid")])
def test_dissipation_density_matches_einsum_reference(poly, grid, request, bundle_class):
    P, g = request.getfixturevalue(poly), request.getfixturevalue(grid)
    u = _bump_fd(P, g)
    for cls in (bundle_class, AdmissibleClass.trivial(),
                AdmissibleClass((0.7, 0.3), 13.1, 1.0, 1, 2)):
        R = weighted_scalar_field(u, cls)
        Rh = sym2_matrices((g.hessian_operator @ R).reshape(3, -1))
        # the Hessian operator alone gives the Hessian of R the full jets give
        assert np.array_equal(Rh, tensor_field(g.field_jets(R), 2, g.n_nodes))
        U, pw = sym2_matrices(curvature_context(u)["U"]), class_record(g, cls).pw
        ref = interior_quadrature(g, np.einsum("nir,njs,nij,nrs->n", U, U, Rh, Rh) * pw)
        assert abs(dissipation_integral(u, cls) - ref) <= 1e-13 * abs(ref)


def test_fresh_fd_report_evaluates_fiber_norm_once(monkeypatch, triangle, grid48, bundle_class):
    from calabiflow import curvature

    u = _bump_fd(triangle, grid48)
    fiber_rm2, field_jets = curvature._fiber_rm2, Grid.field_jets
    calls, jets = [], []
    monkeypatch.setattr(curvature, "_fiber_rm2", lambda d2U: calls.append(1) or fiber_rm2(d2U))
    monkeypatch.setattr(Grid, "field_jets", lambda self, f: jets.append(1) or field_jets(self, f))
    rep = energy_report(u, bundle_class)
    # |Rm|^2 and the unweighted fiber energy read one cached fiber field, and
    # the dissipation applies the Hessian operator alone to R, not through
    # field_jets
    assert calls == [1]
    assert jets == []
    assert rep.fiber_rm2_unweighted == interior_quadrature(
        grid48, curvature.fiber_riemann_norm_field(u))


def test_fresh_fd_report_makes_10_sparse_products(hexagon, hex_grid, bundle_class, csr_products):
    bquad = boundary_quadrature(hexagon)
    average_scalar(hexagon, bundle_class, hex_grid, bquad)
    hex_grid.quadrature_weights
    x, y = hex_grid.points[:, 0], hex_grid.points[:, 1]
    u = SymplecticPotential.from_node_values(hexagon, hex_grid, bump_form(0.05)(x, y))
    del csr_products[:]
    energy_report(u, bundle_class, bquad)
    # one product of the Hessian operator for the three second partials of
    # f, one of the class operator for R, the U-jets (one product of each
    # jet operator per component of U), one product of the Hessian operator
    # for Hess R and one of the gradient operator for the two first partials
    # of f in the boundary values; the fiber scalar reads the U-jets
    assert len(csr_products) == 1 + 1 + 2 * 3 + 1 + 1


def test_second_report_evaluates_no_class_weight_on_the_quadrature(monkeypatch, hexagon,
                                                                  hex_grid, bundle_class):
    bquad = boundary_quadrature(hexagon)
    first = energy_report(_bump_fd(hexagon, hex_grid), bundle_class, bquad)
    sizes = []
    weight = AdmissibleClass.weight
    monkeypatch.setattr(AdmissibleClass, "weight",
                        lambda self, points: sizes.append(len(points)) or weight(self, points))
    second = energy_report(_bump_fd(hexagon, hex_grid), bundle_class, bquad)
    assert len(bquad.points) not in sizes
    assert second.r_bar == first.r_bar
    # the kept boundary measure is the one a fresh quadrature computes
    assert bquad.weighted_measure(bundle_class) == float(
        np.dot(bquad.weights, weight(bundle_class, bquad.points)))
    energy_report(_bump_fd(hexagon, hex_grid), bundle_class, boundary_quadrature(hexagon))
    assert len(bquad.points) in sizes
