import csv
import json
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from calabiflow import (
    DegenerateInputError,
    DomainError,
    SymplecticPotential,
    build_grid,
    fs_inverse_hessian,
    guillemin_partials,
    load_snapshot,
    polynomial_form,
    save_snapshot,
    standard_triangle,
)
from calabiflow.curvature import curvature_context
from calabiflow.polytope import (GRADIENT_KEYS, HESSIAN_KEYS, DelzantPolytope, Grid,
                                 boundary_quadrature)
from calabiflow.potential import (PARTIALS, ClosedForm, _hermite_values, _mat2, _mat2_product,
                                  _repr_column, _sym2_dot, _sym2_eigenvalues, _sym2_inverse,
                                  _sym2_matrix, _sym2_sandwich, _trace_of_square, bump_form,
                                  zero_form)
from conftest import interior_points
from fd_oracle import sym2_matrices


def test_guillemin_value_at_centroid(triangle):
    p = guillemin_partials(triangle, (0.0, 0.0), order=0)
    assert p[(0, 0)] == pytest.approx(0.0, abs=1e-14)


def test_guillemin_hessian_at_centroid(triangle):
    p = guillemin_partials(triangle, (0.0, 0.0), order=2)
    H = np.array([[p[(2, 0)], p[(1, 1)]], [p[(1, 1)], p[(0, 2)]]])
    np.testing.assert_allclose(H, [[1.0, 0.5], [0.5, 1.0]], atol=1e-14)
    assert np.linalg.det(H) == pytest.approx(0.75, abs=1e-14)


def test_guillemin_hessian_closed_form(triangle, rng):
    # Hessian = (1/2) sum v v^T / l at random interior points
    for x in interior_points(triangle, rng, 5, margin=0.1):
        p = guillemin_partials(triangle, x, order=2)
        L = triangle.facet_values(x)
        V = triangle.normals.astype(float)
        H = 0.5 * sum(np.outer(V[i], V[i]) / L[i] for i in range(3))
        np.testing.assert_allclose(
            [[p[(2, 0)], p[(1, 1)]], [p[(1, 1)], p[(0, 2)]]], H, rtol=1e-12
        )


def test_guillemin_outside_raises(triangle):
    with pytest.raises(DomainError):
        guillemin_partials(triangle, (-1.0, 0.0), order=1)
    with pytest.raises(DomainError):
        guillemin_partials(triangle, (5.0, 5.0), order=0)


def test_fs_inverse_hessian_golden():
    H = fs_inverse_hessian((0.0, 0.0))
    np.testing.assert_allclose(H, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-14)


def test_fs_inverse_hessian_is_inverse(triangle, rng):
    for x in interior_points(triangle, rng, 5, margin=0.05):
        p = guillemin_partials(triangle, x, order=2)
        H = np.array([[p[(2, 0)], p[(1, 1)]], [p[(1, 1)], p[(0, 2)]]])
        np.testing.assert_allclose(H @ fs_inverse_hessian(x), np.eye(2), atol=1e-12)


def test_fs_inverse_hessian_bounds(grid48):
    U = fs_inverse_hessian(grid48.points)
    assert np.all(U[:, 0, 0] < 3.0)
    assert np.all(U[:, 1, 1] < 3.0)
    assert np.all(np.abs(U[:, 0, 1]) < 6.0)


def test_fs_inverse_hessian_outside():
    with pytest.raises(DomainError):
        fs_inverse_hessian((2.0, 2.0))


def test_evaluate_zero_correction_matches_guillemin(fs48, triangle):
    x = np.array([0.25, -0.125])
    jet = fs48.evaluate(x, order=4)
    ref = guillemin_partials(triangle, x, order=4)
    for key, val in ref.items():
        assert jet.partials[key] == pytest.approx(float(val), rel=1e-13, abs=1e-13)


def test_evaluate_quadratic_adds_constant_hessian(triangle, grid48):
    u = SymplecticPotential.from_closed_form(triangle, grid48, polynomial_form({(2, 0): 1.0, (0, 2): 1.0}))
    base = SymplecticPotential.fubini_study(grid48)
    x = np.array([0.125, 0.0625])
    np.testing.assert_allclose(
        u.evaluate(x, 2).hessian - base.evaluate(x, 2).hessian,
        [[2.0, 0.0], [0.0, 2.0]],
        atol=1e-12,
    )


def test_potential_polytope_must_be_its_grids(triangle, grid48, hexagon, hex_grid):
    with pytest.raises(DegenerateInputError):
        SymplecticPotential.from_node_values(triangle, hex_grid, np.zeros(hex_grid.n_nodes))
    with pytest.raises(DegenerateInputError):
        SymplecticPotential.guillemin(hexagon, grid48)
    # the triangle's normals with other offsets
    with pytest.raises(DegenerateInputError):
        SymplecticPotential.guillemin(DelzantPolytope(triangle.normals, 2.0 * triangle.offsets),
                                      grid48)
    # the same facets in another object are the grid's polytope
    u = SymplecticPotential.guillemin(standard_triangle(), grid48)
    fs = SymplecticPotential.fubini_study(grid48)
    assert np.array_equal(curvature_context(u)["G"], curvature_context(fs)["G"])


def test_potential_is_node_data_or_a_closed_form_not_both(triangle, grid48):
    form = bump_form(0.05)
    # both were once accepted: the curvature read the form, the snapshots the node data
    with pytest.raises(DegenerateInputError):
        SymplecticPotential(triangle, grid48, f_values=form(*grid48.points.T), f_form=form)


def test_fubini_study_needs_a_grid_of_the_triangle(triangle, grid48, hex_grid):
    # the hexagon's canonical potential is not Fubini-Study: its scalar
    # curvature is not 4
    with pytest.raises(DegenerateInputError):
        SymplecticPotential.fubini_study(hex_grid)
    assert SymplecticPotential.fubini_study(grid48).polytope is grid48.polytope


def test_evaluate_order_cap(fs48):
    with pytest.raises(ValueError):
        fs48.evaluate((0.0, 0.0), order=5)


# not a whole number from 0 to 4; jets(-1) once returned {}, jets(2.5) the
# partials of order 2, and guillemin_partials raised TypeError at 2.5
BAD_ORDERS = (-1, -2, 2.5, 5, np.nan, "2")


@pytest.mark.parametrize("entry", ["guillemin_partials", "jets", "f_jets", "partials_at",
                                   "evaluate", "ClosedForm.partials"])
def test_derivative_order_is_a_whole_number_from_0_to_4(entry, triangle, grid48, fs48, fs48_fd):
    node = grid48.points[len(grid48.points) // 2]
    calls = {
        "guillemin_partials": [lambda order: guillemin_partials(triangle, node, order)],
        "jets": [fs48.jets, fs48_fd.jets],
        "f_jets": [fs48.f_jets, fs48_fd.f_jets],
        "partials_at": [lambda order: fs48.partials_at(node, order)],
        "evaluate": [lambda order, u=u: u.evaluate(node, order=order) for u in (fs48, fs48_fd)],
        "ClosedForm.partials": [lambda order: ClosedForm(QUARTIC, [BUMP]).partials(order, *node)],
    }[entry]
    for call in calls:
        for order in BAD_ORDERS:
            with pytest.raises(ValueError):
                call(order)
        # a whole number of another type is that order
        for order in (2.0, np.int64(2)):
            out = call(order)
            keys = out.partials if entry == "evaluate" else out
            assert max(sum(key) for key in keys) == 2


def test_fd_hessian_richardson_ratio(triangle):
    # cubic bump correction: fd Hessian converges at second order
    form = bump_form(0.3, (0.1, -0.1), 1.1)
    errs = {}
    for n in (24, 48):
        g = build_grid(triangle, n, 0.5 * 3.0 / n)
        ua = SymplecticPotential.from_closed_form(triangle, g, form)
        uf = SymplecticPotential.from_node_values(
            triangle, g, form(g.points[:, 0], g.points[:, 1])
        )
        inner = g.boundary_distance >= 0.3
        diff = [
            np.abs(ua.jets(2)[key] - uf.jets(2)[key])[inner].max()
            for key in [(2, 0), (1, 1), (0, 2)]
        ]
        errs[n] = max(diff)
    assert 3.0 <= errs[24] / errs[48] <= 5.0


def test_positivity_of_fs_hessian(fs48):
    assert fs48.min_hessian_eigenvalues().min() > 0


def test_guillemin_singular_structure(triangle):
    # Hess u[v, v] * l -> |v|^4 / 2 along the inward normal of each facet
    for i in range(3):
        v = triangle.normals[i].astype(float)
        a, b = triangle.facet_segment(i)
        mid = 0.5 * (a + b)
        vals = []
        for dist in (0.2, 0.1, 0.05):
            x = mid + dist * v / (v @ v)  # point with l_i(x) = dist
            p = guillemin_partials(triangle, x, order=2)
            H = np.array([[p[(2, 0)], p[(1, 1)]], [p[(1, 1)], p[(0, 2)]]])
            li = triangle.facet_values(x)[i]
            vals.append(float(v @ H @ v) * li)
        target = 0.5 * (v @ v) ** 2
        errs = [abs(val - target) for val in vals]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        assert errs[2] < 0.25 * abs(target)


def test_snapshot_roundtrip(tmp_path, triangle, grid48, rng):
    f = 0.01 * rng.standard_normal(grid48.n_nodes)
    u = SymplecticPotential.from_node_values(triangle, grid48, f)
    path = tmp_path / "snap.csv"
    save_snapshot(u, path, t=0.125)
    back, t = load_snapshot(path)
    assert t == 0.125
    assert np.array_equal(back.f_values, f)
    assert back.polytope.content_hash() == triangle.content_hash()
    assert back.grid.n_nodes == grid48.n_nodes


def _csv_writer_snapshot(u, path):
    """The row-by-row csv.writer snapshot body that save_snapshot must match."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x", "y", "f"])
        for (i, j), p, v in zip(u.grid.ij, u.grid.points, u.f_values):
            w.writerow([int(i), int(j), repr(float(p[0])), repr(float(p[1])), repr(float(v))])


def _extreme_values(n, rng):
    """n values spanning exponents 1e-300 to 1e300, with -0.0 and a subnormal."""
    f = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    f[:3] = [-0.0, 5e-324, 2.5e-310]
    return f


@pytest.mark.parametrize("name", ["triangle", "hexagon", "trapezoid"])
def test_snapshot_bytes_match_csv_writer(tmp_path, request, rng, name):
    P = request.getfixturevalue(name)
    grid = request.getfixturevalue(
        {"triangle": "grid48", "hexagon": "hex_grid", "trapezoid": "trap_grid"}[name])
    f = _extreme_values(grid.n_nodes, rng)
    u = SymplecticPotential.from_node_values(P, grid, f)
    save_snapshot(u, tmp_path / "snap.csv")
    _csv_writer_snapshot(u, tmp_path / "oracle.csv")
    assert (tmp_path / "snap.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    back, _ = load_snapshot(tmp_path / "snap.csv", polytope=P)
    assert np.array_equal(back.f_values.view(np.int64), f.view(np.int64))


def test_repr_column_keeps_negative_zero_apart():
    values = np.array([0.0, -0.0, 1.5, 0.0, -0.0, 0.1 + 0.2])
    assert _repr_column(values) == ["0.0", "-0.0", "1.5", "0.0", "-0.0", "0.30000000000000004"]
    # x and y are columns of the (n, 2) node coordinates
    assert _repr_column(np.array([[-0.0, 2.0], [0.0, 2.0]])[:, 0]) == ["-0.0", "0.0"]


def test_snapshot_with_lf_line_endings_loads_the_same_bits(tmp_path, triangle, grid48, rng):
    f = _extreme_values(grid48.n_nodes, rng)
    path = tmp_path / "snap.csv"
    save_snapshot(SymplecticPotential.from_node_values(triangle, grid48, f), path)
    back_crlf, _ = load_snapshot(path)
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    back_lf, _ = load_snapshot(path)
    assert np.array_equal(back_lf.f_values.view(np.int64), back_crlf.f_values.view(np.int64))


def test_snapshot_polytope_mismatch(tmp_path, triangle, grid48):
    from calabiflow.polytope import DelzantPolytope, boundary_quadrature

    u = SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))
    path = tmp_path / "snap.csv"
    save_snapshot(u, path)
    other = DelzantPolytope(
        np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    )
    with pytest.raises(DomainError):
        load_snapshot(path, polytope=other)


def test_snapshot_sidecar_facets_must_hash_to_its_hash(tmp_path, triangle, grid48):
    path = tmp_path / "snap.csv"
    save_snapshot(SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes)),
                  path)
    sidecar = path.with_suffix(".csv.json")
    meta = json.loads(sidecar.read_text())
    # the triangle moved by (1, 0), which has the same grid; the hash is kept
    for facet, offset in zip(meta["polytope"]["facets"], (0.0, 1.0, 2.0)):
        facet["offset"] = offset
    sidecar.write_text(json.dumps(meta))
    # it once loaded, on the check of the kept hash, as a potential on the moved triangle
    for polytope in (None, triangle):
        with pytest.raises(DomainError, match="polytope_hash"):
            load_snapshot(path, polytope)


@pytest.mark.parametrize("edit", [{"grid_n": 48.9}, {"grid_n": 1}, {"delta_min": -1.0},
                                  {"polytope": {"facets": [{"normal": [2, 0], "offset": 1.0}]}}],
                         ids=["fractional-grid-n", "grid-n-1", "negative-delta-min",
                              "not-a-polygon"])
def test_snapshot_sidecar_that_builds_no_grid_is_malformed(tmp_path, triangle, grid48, edit):
    path = tmp_path / "snap.csv"
    save_snapshot(SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes)),
                  path)
    sidecar = path.with_suffix(".csv.json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
    # grid_n 48.9 once loaded as 48; the others raised DegenerateInputError
    with pytest.raises(DomainError, match="malformed snapshot"):
        load_snapshot(path)


def test_fd_evaluate_order4_composes_differences(triangle, grid48):
    f = bump_form(0.05)(grid48.points[:, 0], grid48.points[:, 1])
    u = SymplecticPotential.from_node_values(triangle, grid48, f)
    k = int(np.argmin((grid48.points**2).sum(axis=1)))
    jet = u.evaluate(grid48.points[k], order=4)
    canonical = guillemin_partials(triangle, grid48.points, order=4)
    for a in range(5):
        for b in range(5 - a):
            if a + b >= 3:
                expect = canonical[(a, b)][k] + grid48.diff(f, a, b)[k]
                assert jet.partials[(a, b)] == expect, (a, b)


def test_jets_respects_order(triangle, grid48):
    u = SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))
    assert max(sum(key) for key in u.jets(2)) == 2
    assert max(sum(key) for key in u.jets(4)) == 4
    assert max(sum(key) for key in u.jets(1)) == 1


@pytest.mark.parametrize("poly, grid", [("triangle", "grid48"), ("hexagon", "hex_grid")])
def test_order0_jet_is_value_at_nodes(poly, grid, request):
    P, g = request.getfixturevalue(poly), request.getfixturevalue(grid)
    form = bump_form(0.05, (0.1, -0.2), 0.7)
    for u in (SymplecticPotential.from_closed_form(P, g, form),
              SymplecticPotential.from_node_values(P, g, form(g.points[:, 0], g.points[:, 1]))):
        assert np.array_equal(u.jets(0)[(0, 0)], u.value_at(g.points))


@pytest.mark.parametrize("poly", ["triangle", "hexagon", "trapezoid"])
def test_boundary_integral_is_the_quadrature_of_value_at(poly, request):
    P = request.getfixturevalue(poly)
    width = P.bbox[1][0] - P.bbox[0][0]
    grids = [build_grid(P, n, 0.5 * width / n) for n in (24, 48)]
    quad = boundary_quadrature(P)
    form = bump_form(0.05, (0.1, -0.2), 0.7)
    # one quadrature alternately on two grids: its node moments are per grid
    for g in grids + grids:
        u = SymplecticPotential.from_closed_form(P, g, form)
        assert u.boundary_integral(quad) == float(np.dot(quad.weights, u.value_at(quad.points)))
        # node data: the Taylor steps' quadrature summed node by node
        u = SymplecticPotential.from_node_values(P, g, form(g.points[:, 0], g.points[:, 1]))
        ref = float(np.dot(quad.weights, u.value_at(quad.points)))
        assert abs(u.boundary_integral(quad) - ref) <= 1e-14 * abs(ref)


def _potential_of_kind(kind, triangle, grid48):
    form = bump_form(0.05, (0.1, -0.2), 0.7)
    if kind == "closed_form":
        return SymplecticPotential.from_closed_form(triangle, grid48, form)
    return SymplecticPotential.from_node_values(
        triangle, grid48, form(grid48.points[:, 0], grid48.points[:, 1]))


@pytest.mark.parametrize("kind", ["closed_form", "node_values"])
def test_gradient_and_hessian_at_match_evaluate(kind, triangle, grid48, rng):
    u = _potential_of_kind(kind, triangle, grid48)
    jets = u.jets(2)
    for k in rng.choice(u.grid.n_nodes, size=25, replace=False):
        # the point reader (partials_at for a closed form, the node's jets
        # for node data) against the node fields
        jet = u.evaluate(u.grid.points[k], order=2)
        np.testing.assert_allclose([jet.partials[(1, 0)], jet.partials[(0, 1)]],
                                   [jets[(1, 0)][k], jets[(0, 1)][k]],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(jet.hessian, [[jets[(2, 0)][k], jets[(1, 1)][k]],
                                                 [jets[(1, 1)][k], jets[(0, 2)][k]]],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["closed_form", "node_values"])
def test_f_jets_are_the_partials_of_f_and_jets_their_sums(kind, monkeypatch, triangle, grid48):
    u = _potential_of_kind(kind, triangle, grid48)
    diffs = []
    diff = Grid.diff
    monkeypatch.setattr(Grid, "diff", lambda self, *args: diffs.append(args) or diff(self, *args))
    for order in range(5):
        before = len(diffs)
        f = u.f_jets(order)
        # node data's third and fourth partials are twelve differences, seven
        # for the third alone; nothing else is differenced
        assert len(diffs) - before == (0 if kind == "closed_form" else [0, 0, 0, 7, 12][order])
        assert list(f) == [key for key in PARTIALS if sum(key) <= order]
        jets, base = u.jets(order), guillemin_partials(triangle, grid48.points, order)
        assert list(jets) == list(f)
        for key, val in f.items():
            assert (base[key] + val).tobytes() == jets[key].tobytes(), (order, key)
            if kind == "closed_form":
                exact = u.f_form.partial(*key, *grid48.points.T)
                assert exact.tobytes() == val.tobytes(), (order, key)
        if kind == "node_values":
            assert f[(0, 0)] is u.f_values
            # the first and second partials are views of the kept jet rows
            for k, names in ((1, GRADIENT_KEYS), (2, HESSIAN_KEYS))[:order]:
                for row, key in zip(u._f_jet(k), names):
                    assert np.shares_memory(f[key], u._f_jet(k)), key
                    assert f[key].tobytes() == row.tobytes(), key


def test_node_data_value_at_is_the_taylor_step(triangle, grid48, rng):
    u = _potential_of_kind("node_values", triangle, grid48)
    ks = rng.choice(grid48.n_nodes, size=25, replace=False)
    np.testing.assert_allclose(u.value_at(grid48.points[ks]), u.jets(0)[(0, 0)][ks],
                               rtol=0, atol=1e-12)
    # within 0.2 h of a node, which keeps delta_min = h/2 from every facet
    d = rng.uniform(-0.2, 0.2, (25, 2)) * grid48.h
    off = grid48.points[ks] + d
    dx, dy = d.T
    f = {key: val[ks] for key, val in u.f_jets(2).items()}
    taylor = (f[(0, 0)] + f[(1, 0)] * dx + f[(0, 1)] * dy
              + 0.5 * (f[(2, 0)] * dx**2 + 2 * f[(1, 1)] * dx * dy + f[(0, 2)] * dy**2))
    canonical = guillemin_partials(triangle, off, order=0)[(0, 0)]
    np.testing.assert_allclose(u.value_at(off), canonical + taylor, rtol=0, atol=1e-12)


def test_node_data_has_no_off_grid_partials(triangle, grid48):
    u = SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))
    off_node = grid48.points[0] + 0.6 * grid48.h
    with pytest.raises(DomainError):
        u.evaluate(off_node)
    # not at the nodes either, at any order: node data is read off the grid
    # by value_at alone
    for order in range(5):
        with pytest.raises(DomainError):
            u.partials_at(grid48.points[:3], order)


# -- closed forms --------------------------------------------------------------

QUARTIC = {(i, j): 0.01 * (1 + i - 2 * j) for i in range(5) for j in range(5 - i)}
BUMP = (0.3, np.array([0.15, -0.2]), 0.7)


def _central_difference(form, a, b, axis, x, y, d=1e-3):
    """4th-order central difference, along `axis`, of the (a, b) partial."""
    dx, dy = (d, 0.0) if axis == 0 else (0.0, d)
    m2, m1, p1, p2 = (form.partial(a, b, x + k * dx, y + k * dy) for k in (-2, -1, 1, 2))
    return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * d)


@pytest.mark.parametrize("name", ["polynomial", "bump"])
def test_closed_form_partials_match_central_differences(grid48, name):
    inner = grid48.boundary_distance >= 0.1
    x, y = grid48.points[inner, 0], grid48.points[inner, 1]
    if name == "polynomial":
        form = polynomial_form(QUARTIC)
        value = sum(c * x**i * y**j for (i, j), c in QUARTIC.items())
    else:
        A, (cx, cy), w = BUMP
        form = bump_form(A, BUMP[1], w)
        value = A * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w**2)
    np.testing.assert_allclose(form(x, y), value, rtol=0, atol=1e-14 * np.abs(value).max())
    for a, b in PARTIALS[1:]:
        # difference the next-lower partial along an axis it still carries
        lower, axis = ((a - 1, b), 0) if a else ((a, b - 1), 1)
        exact = form.partial(a, b, x, y)
        fd = _central_difference(form, *lower, axis, x, y)
        assert np.abs(fd - exact).max() <= 1e-8 * np.abs(exact).max(), (name, a, b)


def test_polynomial_partials_exact_on_monomials():
    # dyadic points keep every product exact, so the comparison is bitwise
    x = np.array([[-1.0, -0.5], [0.25, 1.5]])
    y = np.array([[0.75, 2.0], [-1.25, 0.0]])
    for i, j in PARTIALS:
        form = polynomial_form({(i, j): 1.0})
        for a, b in PARTIALS:
            coeff, pi, pj = 1.0, i, j
            for _ in range(a):
                coeff, pi = coeff * pi, pi - 1
            for _ in range(b):
                coeff, pj = coeff * pj, pj - 1
            expect = coeff * x**pi * y**pj if pi >= 0 and pj >= 0 else np.zeros_like(x)
            got = form.partial(a, b, x, y)
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, expect, err_msg=str((i, j, a, b)))


@pytest.mark.parametrize("form", [polynomial_form(QUARTIC), bump_form(*BUMP),
                                  ClosedForm(QUARTIC, [BUMP])], ids=["polynomial", "bump", "mixed"])
def test_closed_form_partial_orders_are_those_of_partials(form):
    x, y = np.array([0.3, -0.2]), np.array([0.1, 0.25])
    # -1 once differentiated a bump and 2.5 a polynomial
    for a, b in ((-1, 0), (0, -1), (2.5, 0), (0, 2.5), (5, 0), (3, 2)):
        with pytest.raises(ValueError, match="partial orders"):
            form.partial(a, b, x, y)
    # a whole number of another type is that order
    for two in (2.0, np.int64(2)):
        assert form.partial(two, 0, x, y).tobytes() == form.partial(2, 0, x, y).tobytes()
        assert form.partial(1, two, x, y).tobytes() == form.partial(1, 2, x, y).tobytes()


# each of these was accepted: (-1, 0) was dropped, so the form was 0
# everywhere; (0.5, 0) raised TypeError at its first partial; width 0
# divided by zero and a NaN width gave NaN
@pytest.mark.parametrize("build", [
    lambda: polynomial_form({(-1, 0): 1.0}),
    lambda: polynomial_form({(0, -2): 1.0}),
    lambda: polynomial_form({(0.5, 0): 1.0}),
    lambda: polynomial_form({(math.nan, 0): 1.0}),
    lambda: polynomial_form({(math.inf, 0): 1.0}),
    lambda: polynomial_form({(10**400, 0): 1.0}),
    lambda: polynomial_form({(1, 2, 3): 1.0}),
    lambda: polynomial_form({(1, 0): math.nan}),
    lambda: polynomial_form({(1, 0): math.inf}),
    lambda: polynomial_form({(1, 0): "1"}),
    lambda: bump_form(1.0, (0, 0), 0.0),
    lambda: bump_form(1.0, (0, 0), -0.5),
    lambda: bump_form(1.0, (0, 0), math.nan),
    lambda: bump_form(1.0, (0, 0), math.inf),
    lambda: bump_form(math.nan),
    lambda: bump_form(-math.inf),
    lambda: bump_form(1.0, (math.nan, 0)),
    lambda: bump_form(1.0, (0, math.inf)),
    lambda: bump_form(1.0, (0, 0, 0)),
], ids=["exponent -1", "exponent -2", "exponent 0.5", "exponent nan", "exponent inf",
        "exponent 10**400", "three exponents", "coefficient nan", "coefficient inf",
        "coefficient str", "width 0", "width negative", "width nan", "width inf", "amplitude nan",
        "amplitude -inf", "centre nan", "centre inf", "centre of three"])
def test_closed_form_refuses_terms_it_cannot_differentiate(build):
    with pytest.raises(DegenerateInputError):
        build()


def test_closed_form_takes_whole_float_exponents_as_ints():
    x, y = np.array([0.3, -0.2]), np.array([0.1, 0.25])
    form, ref = polynomial_form({(2.0, 1.0): 1.5}), polynomial_form({(2, 1): 1.5})
    assert list(form.coeffs) == [(2, 1)] and all(type(e) is int for e in next(iter(form.coeffs)))
    for a, b in PARTIALS:
        assert form.partial(a, b, x, y).tobytes() == ref.partial(a, b, x, y).tobytes()


def test_constant_partials_are_shaped_like_x():
    x = np.linspace(-0.5, 0.5, 6).reshape(2, 3)
    assert zero_form().partial(2, 1, x, x).shape == (2, 3)
    assert bump_form(0.05)(0.0, 0.0).shape == ()
    assert float(bump_form(0.05)(0.0, 0.0)) == 0.05


# x and y of different shapes: each raised "non-broadcastable output operand"
@pytest.mark.parametrize("x, y", [(0.3, np.array([0.1, 0.2])), (np.array([0.3]), np.array([0.1, 0.2])),
                                  (np.array([[0.3], [-0.1]]), np.array([0.1, 0.2, -0.25])),
                                  (np.array([0.3, -0.1]), np.array([0.1, 0.2]))],
                         ids=["scalar with (2,)", "(1,) with (2,)", "(2, 1) with (3,)",
                              "equal shapes"])
@pytest.mark.parametrize("form", [polynomial_form({(1, 1): 1.0}), bump_form(0.05),
                                  ClosedForm(QUARTIC, [BUMP])], ids=["polynomial", "bump", "mixed"])
def test_closed_form_evaluates_on_the_broadcast_of_x_and_y(form, x, y):
    bx, by = (np.array(v) for v in np.broadcast_arrays(x, y))
    ref = form.partials(4, bx, by)
    for key, val in form.partials(4, x, y).items():
        assert val.shape == bx.shape and val.tobytes() == ref[key].tobytes(), key
        assert form.partial(*key, x, y).tobytes() == ref[key].tobytes(), key
    assert form(x, y).tobytes() == ref[0, 0].tobytes()


def _partial_per_key(form, a, b, x, y):
    """A closed form's (a, b) partial by the formula that evaluated one key
    at a time, with a hermval call per Hermite value and an exponential per
    bump: the bits partials keeps."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(x.shape)
    for (i, j), c in form.coeffs.items():
        if i >= a and j >= b:
            out += c * math.perm(i, a) * math.perm(j, b) * x ** (i - a) * y ** (j - b)
    for A, (cx, cy), w in form.bumps:
        s, t = (x - cx) / w, (y - cy) / w
        Ha, Hb = hermval(s, [0] * a + [1]), hermval(t, [0] * b + [1])
        out += A * (-1.0 / w) ** (a + b) * Ha * Hb * np.exp(-s * s - t * t)
    return out


def test_hermite_values_are_those_of_hermval():
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    s = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -1e-200, 1e-8, 0.7, -1.3, 3.5, -12.0, 1e30,
                  -1e80, 1e160, -1e300, huge, -huge])
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(5):
            values = _hermite_values(s, order)
            assert len(values) == order + 1
            for k, H in enumerate(values):
                assert H.tobytes() == hermval(s, [0] * k + [1]).tobytes(), (order, k)
            # and at one point, as a 0-d array and as a numpy scalar
            for point in (np.asarray(-0.0), np.float64(0.7)):
                for k, H in enumerate(_hermite_values(point, order)):
                    ref = hermval(point, [0] * k + [1])
                    assert np.asarray(H).tobytes() == np.asarray(ref).tobytes(), (point, k)


@pytest.mark.parametrize("form", [polynomial_form(QUARTIC), bump_form(*BUMP),
                                  ClosedForm(QUARTIC, [BUMP, (-0.05, (-0.3, 0.25), 0.5)])],
                         ids=["polynomial", "bump", "mixed"])
@pytest.mark.parametrize("where", ["one point", "grid nodes"])
def test_partials_are_the_per_key_formula(form, where, grid48):
    x, y = (0.3, -0.2) if where == "one point" else grid48.points.T
    for order in range(5):
        out = form.partials(order, x, y)
        assert list(out) == [key for key in PARTIALS if sum(key) <= order]
        for key, val in out.items():
            assert val.tobytes() == _partial_per_key(form, *key, x, y).tobytes(), (order, key)


# -- the 2x2 component algebra against numpy.linalg and np.einsum --------------

EPS = np.finfo(float).eps


def _spd_field(rng, n=600):
    """Components (3, n) of R diag(l1, l2) R^T for random rotations R, scales
    1e-3..1e3 and condition numbers l1/l2: 2..10 on even points, 1e6..1e8 on
    odd ones."""
    theta = rng.uniform(0.0, np.pi, n)
    l1 = 10.0 ** rng.uniform(-3.0, 3.0, n)
    cond = np.where(np.arange(n) % 2 == 0, rng.uniform(2.0, 10.0, n), 10.0 ** rng.uniform(6, 8, n))
    l2, c, s = l1 / cond, np.cos(theta), np.sin(theta)
    return np.stack([l1 * c * c + l2 * s * s, (l1 - l2) * c * s, l1 * s * s + l2 * c * c])


def _sym_field(rng, n=600):
    """Components (3, n) of random symmetric (indefinite) matrices."""
    return rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-2.0, 2.0, n)


def _norm(M):
    return np.abs(M).max(axis=(-2, -1))


def test_sym2_inverse_matches_linalg(rng):
    S = _spd_field(rng)
    M = sym2_matrices(S)
    ref = np.linalg.inv(M)
    lo, hi = np.linalg.eigvalsh(M).T
    # both are forward-stable to eps times the condition number
    err = _norm(sym2_matrices(_sym2_inverse(S)) - ref)
    assert np.all(err <= 8 * EPS * (hi / lo) * _norm(ref))
    assert np.max(hi / lo) > 1e7


def test_sym2_eigenvalues_match_linalg(rng):
    S = _spd_field(rng)
    ref_lo, ref_hi = np.linalg.eigvalsh(sym2_matrices(S)).T
    lo, hi = _sym2_eigenvalues(S)
    # accurate to eps times the larger eigenvalue; the lower one of an
    # ill-conditioned matrix is therefore only accurate relative to hi
    assert np.all(np.abs(hi - ref_hi) <= 8 * EPS * ref_hi)
    assert np.all(np.abs(lo - ref_lo) <= 8 * EPS * ref_hi)


def test_sym2_eigenvalues_of_nearly_isotropic_matrices(rng):
    # R diag(l, l (1 + gap)) R^T with gaps 1e-12..1e-6: the discriminant must
    # not be the difference of tr^2 and 4 det, which cancels here
    n = 2000
    lam = rng.uniform(0.5, 2.0, n)
    lam2 = lam * (1.0 + 10.0 ** rng.uniform(-12.0, -6.0, n))
    c, s = np.cos(rng.uniform(0.0, np.pi, n)), np.sin(rng.uniform(0.0, np.pi, n))
    S = np.stack([c * c * lam + s * s * lam2, c * s * (lam - lam2), s * s * lam + c * c * lam2])
    ref_lo, ref_hi = np.linalg.eigvalsh(sym2_matrices(S)).T
    lo, hi = _sym2_eigenvalues(S)
    assert np.all(np.abs(lo - ref_lo) <= 4 * EPS * ref_lo)
    assert np.all(np.abs(hi - ref_hi) <= 4 * EPS * ref_hi)


def test_sym2_sandwich_and_products_match_matmul(rng):
    U, A, B = _spd_field(rng), _sym_field(rng), _sym_field(rng)
    Um, Am, Bm = sym2_matrices(U), sym2_matrices(A), sym2_matrices(B)
    ref = Um @ Am @ Um
    err = _norm(sym2_matrices(_sym2_sandwich(U, A)) - ref)
    assert np.all(err <= 8 * EPS * _norm(Um) ** 2 * _norm(Am))
    P = np.stack(_mat2_product(_mat2(A), _mat2(B)), axis=-1).reshape(-1, 2, 2)
    assert np.all(_norm(P - Am @ Bm) <= 4 * EPS * _norm(Am) * _norm(Bm))


def test_trace_of_square_and_dot_match_einsum(rng):
    A, B = _spd_field(rng), _sym_field(rng)
    Am, Bm = sym2_matrices(A), sym2_matrices(B)
    scale = (_norm(Am) * _norm(Bm)) ** 2
    ref = np.einsum("nij,nji->n", Am @ Bm, Am @ Bm)
    got = _trace_of_square(A, B)
    assert np.all(np.abs(got - ref) <= 16 * EPS * scale)
    ref = np.einsum("nij,nij->n", Am, Bm)
    assert np.all(np.abs(_sym2_dot(A, B) - ref) <= 8 * EPS * _norm(Am) * _norm(Bm))
    assert np.array_equal(_sym2_matrix(A), Am)


def test_sym2_helpers_give_a_row_the_bits_of_the_field(rng):
    U, A, B = _spd_field(rng), _sym_field(rng), _sym_field(rng)
    fields = {
        "inverse": lambda U, A, B: _sym2_inverse(U),
        "eigenvalues": lambda U, A, B: np.stack(_sym2_eigenvalues(U)),
        "sandwich": lambda U, A, B: _sym2_sandwich(U, A),
        "product": lambda U, A, B: np.stack(_mat2_product(_mat2(A), _mat2(B))),
        "trace_of_square": lambda U, A, B: _trace_of_square(U, B),
        "dot": lambda U, A, B: _sym2_dot(A, B),
        "matrix": lambda U, A, B: np.moveaxis(_sym2_matrix(U), 0, -1),
    }
    for name, f in fields.items():
        whole = f(U, A, B)
        for k in range(0, U.shape[1], 7):
            one = f(U[:, k : k + 1], A[:, k : k + 1], B[:, k : k + 1])
            assert np.array_equal(one, whole[..., k : k + 1]), (name, k)
