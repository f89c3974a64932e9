import itertools
import json
import math

import numpy as np
import pytest

from calabiflow import (
    DegenerateInputError,
    DelzantPolytope,
    DomainError,
    Grid,
    boundary_quadrature,
    build_grid,
    eps_region,
    guillemin_partials,
    load_polytope,
    save_polytope,
    standard_triangle,
)
from calabiflow.polytope import (
    BOUNDARY_PANELS,
    HESSIAN_KEYS,
    OFFSETS8,
    _D1_STENCILS,
    _D2_STENCILS,
    _cell_moments,
    _polygon_area,
    _solve_each,
    clip_cells,
    from_dict,
)
from conftest import GENERATED_POLYGONS, distance_to_boundary, generated_grid, hirzebruch


def clip_halfplane(poly, a: float, b: float, c: float):
    """Clip a polygon to the half-plane a*x + b*y + c >= 0 (Sutherland-Hodgman),
    one vertex at a time: the one-polygon reference of clip_cells."""
    out = []
    n = len(poly)
    if n == 0:
        return out
    for k in range(n):
        p = poly[k]
        q = poly[(k + 1) % n]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp >= 0.0:
            out.append(p)
            if fq < 0.0:
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif fq >= 0.0:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _polygon_moments(poly):
    """(area, [A, Mx, My, Mxx, Mxy, Myy]) of a simple polygon.

    Moments are integrals of 1, x, y, x^2, xy, y^2 over the polygon,
    positively oriented regardless of input orientation.  The one-polygon
    reference of _cell_moments.
    """
    if len(poly) < 3:
        return 0.0, None
    x = np.asarray([p[0] for p in poly])
    y = np.asarray([p[1] for p in poly])
    x1 = np.roll(x, -1)
    y1 = np.roll(y, -1)
    cross = x * y1 - x1 * y
    area2 = cross.sum()
    if abs(area2) < 1e-300:
        return 0.0, None
    sgn = 1.0 if area2 > 0 else -1.0
    A = 0.5 * area2
    Mx = ((x + x1) * cross).sum() / 6.0
    My = ((y + y1) * cross).sum() / 6.0
    Mxx = ((x * x + x * x1 + x1 * x1) * cross).sum() / 12.0
    Myy = ((y * y + y * y1 + y1 * y1) * cross).sum() / 12.0
    Mxy = ((x * y1 + 2 * x * y + 2 * x1 * y1 + x1 * y) * cross).sum() / 24.0
    m = sgn * np.array([A, Mx, My, Mxx, Mxy, Myy])
    return abs(A), m


def test_standard_triangle_vertices(triangle):
    verts = {tuple(np.round(v, 12)) for v in triangle.vertices}
    assert verts == {(-1.0, -1.0), (-1.0, 2.0), (2.0, -1.0)}


def test_standard_triangle_area(triangle):
    assert triangle.area == pytest.approx(4.5, abs=1e-14)


def test_facet_affine_values(triangle):
    # l1 = x + 1 vanishes on its facet and is 1 at the centroid
    assert triangle.facet_values((-1.0, 0.0))[0] == pytest.approx(0.0, abs=1e-14)
    assert triangle.facet_values((0.0, 0.0))[0] == pytest.approx(1.0, abs=1e-14)


def test_delzant_condition_standard(triangle):
    for v in triangle.vertices:
        active = np.nonzero(np.abs(triangle.facet_values(v)) < 1e-8)[0]
        vi, vj = triangle.normals[active[0]], triangle.normals[active[1]]
        assert abs(int(vi[0]) * int(vj[1]) - int(vi[1]) * int(vj[0])) == 1


def test_rejects_non_primitive_normal():
    with pytest.raises(DegenerateInputError):
        DelzantPolytope(np.array([[2, 0], [0, 1], [-1, -1]]), np.array([1.0, 1.0, 1.0]))


def test_vertices_are_not_a_constructor_input(triangle):
    # they are derived from the facets; an input would be overwritten unread
    with pytest.raises(TypeError):
        DelzantPolytope(triangle.normals, triangle.offsets, vertices=triangle.vertices)


def test_rejects_non_delzant_vertex():
    # normals (1,0) and (1,2) meet at a vertex with determinant 2
    with pytest.raises(DegenerateInputError):
        DelzantPolytope(
            np.array([[1, 0], [0, 1], [-1, -2], [-1, 0]]),
            np.array([0.0, 0.0, 6.0, 4.0]),
        )


def test_rejects_unbounded():
    with pytest.raises(DegenerateInputError):
        DelzantPolytope(np.array([[1, 0], [0, 1]]), np.array([1.0, 1.0]))


def test_grid_n3_contains_centroid(triangle):
    g = build_grid(triangle, 3, 0.1)
    assert any(np.allclose(p, (0.0, 0.0)) for p in g.points)


def test_grid_enumeration_matches_brute_force(triangle):
    n = 48
    h = 3.0 / n
    g = build_grid(triangle, n, h / 2)
    count = 0
    for i in range(n + 1):
        for j in range(n + 1):
            x = -1.0 + i * h
            y = -1.0 + j * h
            if triangle.facet_values((x, y)).min() >= h / 2 - 1e-12:
                count += 1
    assert g.n_nodes == count


def test_grid_too_small_raises(triangle):
    with pytest.raises(DegenerateInputError):
        build_grid(triangle, 3, 2.0)


@pytest.mark.parametrize("n", [12.5, math.nan])
def test_grid_refuses_a_resolution_that_is_not_a_whole_number(triangle, n):
    # 12.5 once built a grid whose snapshot did not load back
    with pytest.raises(DegenerateInputError):
        Grid(triangle, n, 0.12)
    assert type(Grid(triangle, 12.0, 0.12).n) is int


def test_grid_refinement_superset(triangle):
    delta = 0.05
    g1 = build_grid(triangle, 24, delta)
    g2 = build_grid(triangle, 48, delta)
    coarse = {(int(i), int(j)) for i, j in g1.ij}
    fine = {(int(i), int(j)) for i, j in g2.ij}
    assert {(2 * i, 2 * j) for i, j in coarse} <= fine


def test_grid_node_coordinates_are_lattice(triangle, grid48):
    recon = grid48.anchor + grid48.h * grid48.ij
    np.testing.assert_allclose(recon, grid48.points, atol=1e-13)


def _stencil_classification(g):
    """Per-node per-axis 'central' or 'one-sided' tag of a grid's stencils."""
    # both neighbours along x, then both along y
    ids = g._neighbors([(-1, 0), (1, 0), (0, -1), (0, 1)]).reshape(-1, 2, 2)
    central = (ids >= 0).all(axis=2)
    return np.where(central, "central", "one-sided")


def test_stencil_classification_interior(triangle, grid48):
    k = int(np.argmin((grid48.points**2).sum(axis=1)))
    assert list(_stencil_classification(grid48)[k]) == ["central", "central"]


def test_eps_region_examples(triangle, grid48):
    nodes = eps_region(grid48, 0.5)
    centroid = int(np.argmin((grid48.points**2).sum(axis=1)))
    assert centroid in set(nodes.tolist())
    assert len(eps_region(grid48, 10.0)) == 0
    big = set(eps_region(grid48, 0.5).tolist())
    small = set(eps_region(grid48, 0.25).tolist())
    assert big <= small


def test_eps_region_refuses_nan(triangle, grid48):
    # it once returned an empty region
    with pytest.raises(DomainError):
        eps_region(grid48, math.nan)


@pytest.mark.parametrize("poly", ["triangle", "hexagon", "trapezoid"])
def test_grid_guillemin_jets_are_guillemin_partials(poly, request):
    P = request.getfixturevalue(poly)
    width = P.bbox[1][0] - P.bbox[0][0]
    g = build_grid(P, 24, 0.5 * width / 24)
    ref = guillemin_partials(P, g.points, 2)
    # the grid keeps the partials of orders 0-2, and no higher one
    assert g.guillemin_jets.keys() == ref.keys() and len(ref) == 6
    for key, val in ref.items():
        assert np.array_equal(g.guillemin_jets[key].view(np.int64), val.view(np.int64)), key
    # the second partials are the rows of the one stack, not a copy of them
    for row, key in zip(g.guillemin_hessian, HESSIAN_KEYS):
        assert g.guillemin_jets[key].base is g.guillemin_hessian
        assert np.array_equal(row, g.guillemin_jets[key])


def test_distance_to_boundary_exact(triangle):
    # centroid: 1 to the axis facets, 1/sqrt(2) to the hypotenuse
    assert distance_to_boundary(triangle, (0.0, 0.0)) == pytest.approx(1 / np.sqrt(2), abs=1e-14)


def test_boundary_quadrature_lattice_lengths(triangle, hexagon):
    bq = boundary_quadrature(triangle)
    # facet i holds the i-th block of BOUNDARY_PANELS points
    for block in bq.weights.reshape(3, BOUNDARY_PANELS):
        assert block.sum() == pytest.approx(3.0, abs=1e-12)
    assert bq.weights.sum() == pytest.approx(9.0, abs=1e-12)
    assert boundary_quadrature(hexagon).weights.sum() == pytest.approx(7.0, abs=1e-12)


@pytest.mark.parametrize("poly", ["hexagon", "trapezoid", *GENERATED_POLYGONS])
def test_node_moments_are_those_of_every_points_nearest_node(poly, request):
    # the small_grid polygons and the generated ones; the search queries a
    # few points and fills the rest, the reference queries every point
    P = GENERATED_POLYGONS[poly] if poly in GENERATED_POLYGONS else request.getfixturevalue(poly)
    quad = boundary_quadrature(P)
    width = P.bbox[1][0] - P.bbox[0][0]
    for n, factor in itertools.product((32, 48), (0.5, 1.0, 2.0, 4.0)):
        g = build_grid(P, n, factor * width / n)
        ks, dx, dy = g.nearest_nodes(quad.points)
        starts = np.flatnonzero(np.diff(ks, prepend=-1))
        w = quad.weights
        wx, wy = w * dx, w * dy
        ref = np.add.reduceat(np.stack([w, wx, wy, 0.5 * wx * dx, wx * dy, 0.5 * wy * dy]),
                              starts, axis=1)
        nodes, moments = quad.node_moments(g)
        assert np.array_equal(nodes, ks[starts]), (n, factor)
        assert np.array_equal(moments.view(np.int64), ref.view(np.int64)), (n, factor)


# the trapezoid and F_3 have a normal outside {-1, 0, 1}; at N=32 on the
# trapezoid and N = 23 and 27 on F_3 the last lattice row falls more than
# h/2 short of the top facet, so one row more of cells reaches it
@pytest.mark.parametrize("poly, n, area", [
    ("triangle", 96, 4.5), ("trapezoid", 24, 8.0), ("trapezoid", 32, 8.0),
    ("F3", 23, 10.0), ("F3", 27, 10.0)])
def test_cell_weights_tile_area(request, poly, n, area):
    P = hirzebruch(3) if poly == "F3" else request.getfixturevalue(poly)
    assert P.area == pytest.approx(area, abs=1e-14)
    g = build_grid(P, n, 0.5 * (P.bbox[1][0] - P.bbox[0][0]) / n)
    assert g.cell_weights.sum() == pytest.approx(area, abs=1e-12)


@pytest.mark.parametrize("n", [23, 24])
@pytest.mark.parametrize("name", GENERATED_POLYGONS)
def test_generated_polygon_weights_tile_area(name, n):
    P = GENERATED_POLYGONS[name]
    assert abs(generated_grid(name, n).cell_weights.sum() - P.area) <= 1e-12 * P.area


@pytest.mark.parametrize("name", GENERATED_POLYGONS)
def test_generated_polygon_boundary_distance_is_the_segment_distance(name):
    g = generated_grid(name, 24)
    ref = np.array([distance_to_boundary(g.polytope, p) for p in g.points])
    size = np.abs(g.polytope.vertices).max()
    assert np.all(np.abs(g.boundary_distance - ref) <= 2 * np.spacing(size))


@pytest.mark.parametrize("name", GENERATED_POLYGONS)
def test_generated_polygon_eps_region_matches_reference(name):
    g = generated_grid(name, 24)
    ref = np.array([distance_to_boundary(g.polytope, p) for p in g.points])
    for eps in (0.1, 0.2, 0.25, 0.45, 0.5):
        assert np.array_equal(eps_region(g, eps), np.nonzero(ref >= eps - 1e-12)[0])


def _distribute_cell(g, moments, center):
    """(nodes, weights) spreading one clipped cell onto nearby nodes so that
    its moments are matched; the per-cell form of Grid._distribute_cells.

    moments are [A, Mx, My, Mxx, Mxy, Myy] in absolute coordinates; the
    matching system is solved in coordinates scaled by h about `center`.
    Falls back to centroid-only and area-only matching if the local node
    cloud is too thin."""
    k = min(12, g.n_nodes)
    _, near = g.kdtree.query(center, k=k)
    near = np.atleast_1d(near)
    h = g.h
    xi = (g.points[near] - center) / h
    A, Mx, My, Mxx, Mxy, Myy = moments
    # scaled moments of the cell about `center`
    m6 = np.array(
        [
            A,
            (Mx - center[0] * A) / h,
            (My - center[1] * A) / h,
            (Mxx - 2 * center[0] * Mx + center[0] ** 2 * A) / h**2,
            (Mxy - center[0] * My - center[1] * Mx + center[0] * center[1] * A) / h**2,
            (Myy - 2 * center[1] * My + center[1] ** 2 * A) / h**2,
        ]
    )
    rows6 = np.stack(
        [np.ones(len(near)), xi[:, 0], xi[:, 1],
         xi[:, 0] ** 2, xi[:, 0] * xi[:, 1], xi[:, 1] ** 2]
    )
    for rows, m in ((rows6, m6), (rows6[:3], m6[:3]), (rows6[:1], m6[:1])):
        # minimum-norm weights reproducing the requested moments
        gram = rows @ rows.T
        try:
            lam = np.linalg.solve(gram, m)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(lam)):
            continue
        resid = rows @ (rows.T @ lam) - m
        if np.max(np.abs(resid)) > 1e-9 * max(abs(A), 1e-30):
            continue
        return near, rows.T @ lam
    return near[:1], np.array([A])


def _loop_cell_weights(g):
    """(cell weights, full-cell node mask) by one pass over every lattice cell.

    The per-cell reference for Grid.cell_weights: each cell's facet values,
    clipping and moments, added in place in lattice order."""
    P, h, lo = g.polytope, g.h, g.anchor
    weights = np.zeros(g.n_nodes)
    full_cell = np.zeros(g.n_nodes, dtype=bool)
    normals = P.normals.astype(float)
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            cx, cy = lo[0] + h * i, lo[1] + h * j
            corners = [(cx - h / 2, cy - h / 2), (cx + h / 2, cy - h / 2),
                       (cx + h / 2, cy + h / 2), (cx - h / 2, cy + h / 2)]
            vals = P.facet_values(np.asarray(corners))
            nid = g.node_id[i, j]
            if np.all(vals >= 0):
                if nid >= 0:
                    weights[nid] += h * h
                    full_cell[nid] = True
                else:
                    near, w = _distribute_cell(g, _polygon_moments(corners)[1], np.array([cx, cy]))
                    np.add.at(weights, near, w)
                continue
            if np.any(np.all(vals < 0, axis=0)):
                continue
            poly = corners
            for k in range(len(P.offsets)):
                poly = clip_halfplane(poly, normals[k, 0], normals[k, 1], P.offsets[k])
                if not poly:
                    break
            area, m = _polygon_moments(poly)
            if area <= 1e-14 * h * h or m is None:
                continue
            near, w = _distribute_cell(g, m, np.array([m[1] / m[0], m[2] / m[0]]))
            np.add.at(weights, near, w)
    return weights, full_cell


# (polytope, N, delta_min / h).  N = 3 and 4 reach the 1- and 3-moment
# fallbacks of the moment matching.  Only the factor-2 grids have full cells
# without a node (135, 78 and 33 of them); on them the 6-moment fit is
# rejected by its residual (triangle, trapezoid) or its stacked solve meets a
# singular matrix (hexagon).  The last two are the benchmark's grids.
_CELL_GRIDS = [
    (poly, n, factor)
    for poly, n in (("triangle", 3), ("triangle", 4), ("triangle", 48),
                    ("hexagon", 3), ("hexagon", 24), ("trapezoid", 24))
    for factor in (0.25, 0.5, 1.0)
] + [("triangle", 48, 2.0), ("hexagon", 24, 2.0), ("trapezoid", 24, 2.0),
     ("triangle", 96, 0.5), ("hexagon", 128, 0.5)]


@pytest.mark.parametrize("poly, n, factor", _CELL_GRIDS)
def test_cell_weights_match_cell_loop(poly, n, factor, request):
    P = request.getfixturevalue(poly)
    lo, hi = P.bbox
    g = build_grid(P, n, factor * (hi[0] - lo[0]) / n)
    weights, full_cell = _loop_cell_weights(g)
    assert np.array_equal(g.cell_weights, weights)
    stencil_central = (_stencil_classification(g) == "central").all(axis=1)
    assert np.array_equal(g.midpoint_correction_mask, full_cell & stencil_central)


def test_cell_weights_match_cell_loop_off_lattice():
    # the trapezoid's normals with offsets off the lattice: here the squared
    # centroid coordinates of some cut cells differ in the last bit between
    # x * x and the pow of a scalar, which the per-cell reference takes
    P = DelzantPolytope(np.array([[1, 0], [0, 1], [-1, -2], [0, -1]]),
                        np.array([1.1, 0.9, 2.7, 1.3]))
    lo, hi = P.bbox
    g = build_grid(P, 96, 0.5 * (hi[0] - lo[0]) / 96)
    assert np.array_equal(g.cell_weights, _loop_cell_weights(g)[0])


@pytest.mark.parametrize("factor", [0.25, 0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("poly", ["triangle", "hexagon", "trapezoid"])
def test_central_stencil_nodes_own_full_cells(poly, factor, request):
    # midpoint_correction_mask reads the stencils alone; this is why a node it
    # selects owns a full cell
    P = request.getfixturevalue(poly)
    lo, hi = P.bbox
    signs = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    for n in (24, 49, 96):
        g = build_grid(P, n, factor * (hi[0] - lo[0]) / n)
        central = (_stencil_classification(g) == "central").all(axis=1)
        assert np.array_equal(g.midpoint_correction_mask, central)
        assert 0 < central.sum() < g.n_nodes
        corners = g.points[central][:, None, :] + signs * (g.h / 2)
        assert (P.facet_values(corners) >= 0).all()


def test_polytope_json_roundtrip(tmp_path, triangle):
    path = tmp_path / "poly.json"
    save_polytope(triangle, path)
    back = load_polytope(path)
    assert back.content_hash() == triangle.content_hash()
    np.testing.assert_allclose(back.offsets, triangle.offsets)


def test_polytopes_compare_by_content_hash(triangle, hexagon):
    # the generated dataclass comparison once raised numpy's ambiguous truth
    # value error, and the fields' arrays made the polytope unhashable
    same = DelzantPolytope([[1, 0], [0, 1], [-1, -1]], [1, 1, 1])
    assert same is not triangle and same == triangle and not same != triangle
    assert hash(same) == hash(triangle)
    assert triangle != hexagon and triangle != "triangle"
    assert len({triangle, same, hexagon}) == 2
    # the same facets in another order, and an offset of -0.0 for 0.0, are
    # another content hash and so another polytope
    assert DelzantPolytope([[0, 1], [1, 0], [-1, -1]], [1, 1, 1]) != triangle
    zero = DelzantPolytope([[1, 0], [0, 1], [-1, -1]], [0.0, 0.0, 1.0])
    assert DelzantPolytope([[1, 0], [0, 1], [-1, -1]], [-0.0, 0.0, 1.0]) != zero


@pytest.mark.parametrize("normal", [[1.5, 0], [1, 0, 7], [1], [float("nan"), 0], [float("inf"), 0]],
                         ids=["fraction", "three-entries", "one-entry", "nan", "inf"])
def test_rejects_normal_that_is_not_a_pair_of_whole_numbers(normal):
    # a fraction or a third entry was once truncated away, [1, 0] in both cases
    with pytest.raises(DegenerateInputError):
        DelzantPolytope([normal, [0, 1], [-1, -1]], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("normal", [[1, 0, 7], [1]], ids=["three-entries", "one-entry"])
def test_loader_rejects_normal_that_is_not_a_pair(tmp_path, normal):
    data = standard_triangle().to_dict()
    data["facets"][0]["normal"] = normal
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DegenerateInputError):
        load_polytope(path)


@pytest.mark.parametrize("data", [{"vertices": [[0, 0], [1, 0], [0, 1]]}, [[1, 0], [0, 1]]],
                         ids=["no-facets", "not-an-object"])
def test_from_dict_rejects_data_without_facets(data):
    with pytest.raises(DegenerateInputError, match="malformed polytope data"):
        from_dict(data)


def test_loader_rejects_non_primitive(tmp_path):
    path = tmp_path / "bad.json"
    with open(path, "w") as fh:
        json.dump({"facets": [
            {"normal": [2, 0], "offset": 1.0},
            {"normal": [0, 1], "offset": 1.0},
            {"normal": [-1, -1], "offset": 1.0},
        ]}, fh)
    with pytest.raises(DegenerateInputError):
        load_polytope(path)


def test_clip_halfplane_area():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    half = clip_halfplane(square, -1.0, 0.0, 0.5)  # x <= 1/2
    assert _polygon_area(half) == pytest.approx(0.5, abs=1e-14)


def _convex_polygons(rng, count, sizes):
    """Seeded random convex polygons: vertices at sorted angles on circles of
    random centre and radius, counterclockwise."""
    polys = []
    for _ in range(count):
        n = int(rng.choice(sizes))
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, n))
        c, r = rng.normal(size=2), rng.uniform(0.1, 2.0)
        polys.append([(c[0] + r * np.cos(t), c[1] + r * np.sin(t)) for t in ang])
    return polys


def _stacked(polys):
    """(xy, counts) of a list of polygons in the form clip_cells takes."""
    counts = np.array([len(p) for p in polys])
    xy = np.zeros((len(polys), counts.max(initial=0), 2))
    for r, p in enumerate(polys):
        xy[r, :len(p)] = np.asarray(p, dtype=float).reshape(-1, 2)
    return xy, counts


def _assert_same_polygons(xy, counts, polys):
    assert list(counts) == [len(p) for p in polys]
    for r, p in enumerate(polys):
        ref = np.asarray(p, dtype=float).reshape(-1, 2)
        assert xy[r, :counts[r]].tobytes() == ref.tobytes()


def test_clip_cells_matches_clip_halfplane():
    rng = np.random.default_rng(20151)
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    fixed = [
        (square, (1.0, 1.0, 0.0)),     # a vertex on the line, fp == 0, the rest inside
        (square, (-1.0, -1.0, 1.0)),   # a diagonal through two vertices
        (square, (1.0, 1.0, -1.0)),    # the same diagonal, from the other side
        (square, (-1.0, 0.0, 0.0)),    # an edge on the line, the rest outside
        (square, (1.0, 0.0, -1.0)),    # the opposite edge on the line, the rest outside
        (square, (0.0, 1.0, 0.0)),     # an edge on the line, the rest inside
        (square, (1.0, 0.0, -2.0)),    # clipped away entirely
        (square, (1.0, 0.0, 2.0)),     # untouched
        ([], (1.0, 0.0, 0.0)),         # an empty polygon stays empty
    ]
    random = [(p, tuple(rng.normal(size=3)))
              for p in _convex_polygons(rng, 400, [3, 4, 5, 6, 7, 9])]
    for cases in (fixed, random):
        polys = [p for p, _ in cases]
        xy, counts = _stacked(polys)
        for r, (_, (a, b, c)) in enumerate(cases):
            # one line per polygon: clip each one row at a time
            xy_r, n_r = clip_cells(xy[r:r + 1, :max(counts[r], 1)], counts[r:r + 1], a, b, c)
            _assert_same_polygons(xy_r, n_r, [clip_halfplane(polys[r], a, b, c)])
    # one stack through several lines in turn, as the cell weights clip
    polys = _convex_polygons(rng, 300, [3, 4, 5, 8]) + [square, []]
    xy, counts = _stacked(polys)
    angles = rng.uniform(0.0, 2 * np.pi, 4)
    lines = [(np.cos(t), np.sin(t), c) for t, c in zip(angles, rng.uniform(0.5, 2.0, 4))]
    for a, b, c in lines + [(1.0, 0.0, 0.0), (0.0, -1.0, 1.0)]:
        xy, counts = clip_cells(xy, counts, a, b, c)
        polys = [clip_halfplane(p, a, b, c) for p in polys]
        _assert_same_polygons(xy, counts, polys)
    assert (counts == 0).any() and (counts > 0).any()


def test_cell_moments_match_polygon_moments():
    # every vertex count from 3 to 39, in both orientations: numpy sums fewer
    # than 8 terms left to right and 8 or more pairwise, and a stack of rows
    # must be summed as each row alone is
    rng = np.random.default_rng(20152)
    polys = _convex_polygons(rng, 1500, range(3, 40))
    assert {len(p) for p in polys} == set(range(3, 40))
    polys += [p[::-1] for p in polys]
    polys += [[], [(0.0, 0.0)], [(0.0, 0.0), (1.0, 1.0)],
              [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],                  # zero area
              [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]]      # clockwise
    area, moments = _cell_moments(*_stacked(polys))
    for r, p in enumerate(polys):
        a, m = _polygon_moments(p)
        if m is None:
            assert area[r] == 0.0 and np.isnan(moments[r]).all()
        else:
            assert area[r].tobytes() == np.float64(a).tobytes()
            assert moments[r].tobytes() == m.tobytes()


def test_solve_each_retries_a_singular_stack(monkeypatch):
    rng = np.random.default_rng(20153)
    M = rng.normal(size=(5, 6, 6))
    gram = M @ M.swapaxes(1, 2)
    gram[2] = 0.0
    rhs = rng.normal(size=(5, 6))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(gram, rhs[..., None])
    solve, calls = np.linalg.solve, []

    def counting_solve(a, b):
        calls.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    x = _solve_each(gram, rhs)
    monkeypatch.undo()
    # the stack, its halves [0:2] and [2:5], and the halves [2:3] and [3:5]
    # of the one that fails: the matrices after the singular one are not
    # solved one by one
    assert calls == [5, 2, 3, 1, 2]
    assert np.isnan(x[2]).all()
    for i in (0, 1, 3, 4):
        assert x[i].tobytes() == np.linalg.solve(gram[i], rhs[i]).tobytes()
    ok = np.delete(gram, 2, axis=0), np.delete(rhs, 2, axis=0)
    assert np.array_equal(_solve_each(*ok), np.delete(x, 2, axis=0))


def test_field_jets_exact_on_quadratics(grid48):
    x, y = grid48.points[:, 0], grid48.points[:, 1]
    f = 1.5 * x**2 - 0.7 * x * y + 0.3 * y**2 + 2 * x - y + 4
    jets = grid48.field_jets(f)
    np.testing.assert_allclose(jets[(2, 0)], 3.0, atol=1e-9)
    np.testing.assert_allclose(jets[(1, 1)], -0.7, atol=1e-9)
    np.testing.assert_allclose(jets[(0, 2)], 0.6, atol=1e-9)
    np.testing.assert_allclose(jets[(1, 0)], 3.0 * x - 0.7 * y + 2, atol=1e-9)


# the small grids with nodes that no stencil of some axis operator serves
_UNSERVED_GRIDS = ("triangle", "trapezoid", "F2 cut twice")


def test_boundary_distance_matches_scalar_loop(triangle, grid48, hexagon, hex_grid, trap_grid):
    # the nearest facet line, one node and one facet at a time
    for P, g in ((triangle, grid48), (hexagon, hex_grid)):
        lengths = [math.sqrt(float(v[0] * v[0] + v[1] * v[1])) for v in P.normals]
        loop = [min(l / n for l, n in zip(P.facet_values(p), lengths)) for p in g.points]
        assert np.array_equal(g.boundary_distance, loop)
    # the nearest facet segment, the exact distance on any polygon.  Both
    # round sums of coordinates, so they agree to the coordinates' last bits,
    # not to the distance's: a facet value near 0 is a difference of numbers
    # near the polygon's size.  F_3 has a normal entry of 3, so its facet
    # values are rounded as a fused multiply-add or not
    f3 = hirzebruch(3)
    for g in (grid48, hex_grid, trap_grid, build_grid(f3, 48, 0.5 * 8.0 / 48)):
        ref = np.array([distance_to_boundary(g.polytope, p) for p in g.points])
        size = np.abs(g.polytope.vertices).max()
        assert np.all(np.abs(g.boundary_distance - ref) <= 2 * np.spacing(size))
        for eps in (0.1, 0.2, 0.25, 0.45, 0.5):
            assert np.array_equal(eps_region(g, eps), np.nonzero(ref >= eps - 1e-12)[0])


def test_stencil_classification_matches_neighbors(small_grid):
    g = small_grid
    tags = _stencil_classification(g)
    for k, (i, j) in enumerate(g.ij):
        for axis, step in ((0, (1, 0)), (1, (0, 1))):
            has = [
                0 <= i + s * step[0] < g.shape[0] and 0 <= j + s * step[1] < g.shape[1]
                and g.node_id[i + s * step[0], j + s * step[1]] >= 0
                for s in (-1, 1)
            ]
            assert tags[k, axis] == ("central" if all(has) else "one-sided")


def _loop_stencil_rows(g, axis, order):
    """Per-node {column: coefficient} of the first stencil that fits, or None."""
    table = _D1_STENCILS if order == 1 else _D2_STENCILS
    scale = g.h if order == 1 else g.h * g.h
    rows = []
    for i, j in g.ij:
        row = None
        for offs, cs in table:
            ids = []
            for o in offs:
                i2, j2 = (i + o, j) if axis == 0 else (i, j + o)
                inside = 0 <= i2 < g.shape[0] and 0 <= j2 < g.shape[1]
                ids.append(g.node_id[i2, j2] if inside else -1)
            if min(ids) >= 0:
                row = {int(t): c / scale for t, c in zip(ids, cs)}
                break
        rows.append(row)
    return rows


def _row(A, r) -> tuple:
    """(columns, values) of row r of a CSR operator, in storage order."""
    lo, hi = A.indptr[r], A.indptr[r + 1]
    return A.indices[lo:hi].tolist(), A.data[lo:hi].tolist()


def test_axis_operators_match_stencil_loop(small_grid, request):
    # a product sums each row in storage order, so the order is part of the
    # operator's bits: a served row holds its stencil's entries in the order
    # of the table
    g = small_grid
    unserved = 0
    for (axis, order), A in g.axis_operators.items():
        assert A.indices.dtype == A.indptr.dtype == np.int32
        rows = _loop_stencil_rows(g, axis, order)
        served = [k for k, r in enumerate(rows) if r is not None]
        unserved += g.n_nodes - len(served)
        for k, row in enumerate(rows):
            if row is None:
                # unserved rows repeat the row of the nearest served node
                d2 = ((g.points[served] - g.points[k]) ** 2).sum(axis=1)
                row = rows[served[int(np.argmin(d2))]]
            assert _row(A, k) == (list(row), list(row.values())), (axis, order, k)
    # the fill rows are checked where there are some
    assert (unserved > 0) == (request.node.callspec.params["small_grid"] in _UNSERVED_GRIDS)


def test_jet_operator_rows_are_in_stencil_order_off_the_band_and_cloud_order_on_it(
        small_grid):
    g = small_grid
    ops, h, n = g.axis_operators, g.h, g.n_nodes
    nodes, clouds, pinv = g._ls_band()
    band = {node: b for b, node in enumerate(nodes.tolist())}
    stacks = (
        (g.gradient_operator, ((ops[0, 1], pinv[:, 1] / h), (ops[1, 1], pinv[:, 2] / h))),
        (g.hessian_operator, ((ops[0, 2], 2.0 * pinv[:, 3] / (h * h)),
                              (ops[1, 1] @ ops[0, 1], pinv[:, 4] / (h * h)),
                              (ops[1, 2], 2.0 * pinv[:, 5] / (h * h)))),
    )
    for A, parts in stacks:
        assert A.indices.dtype == A.indptr.dtype == np.int32
        assert A.shape == (len(parts) * n, n)
        for k, (stencil, ls) in enumerate(parts):
            for r in range(n):
                b = band.get(r)
                expect = _row(stencil, r) if b is None else (clouds[b].tolist(), ls[b].tolist())
                assert _row(A, k * n + r) == expect, (k, r)


def test_neighbors_match_node_loop(small_grid):
    g = small_grid
    for offsets in (OFFSETS8, [(s, 0) for s in range(-3, 4)], [(0, s) for s in range(-3, 4)]):
        expect = [[g.node_id[i + di, j + dj]
                   if 0 <= i + di < g.shape[0] and 0 <= j + dj < g.shape[1] else -1
                   for di, dj in offsets] for i, j in g.ij]
        assert np.array_equal(g._neighbors(offsets), expect)


@pytest.mark.parametrize("name", ["triangle", "hexagon", "trapezoid"])
def test_facet_values_of_a_stack_are_those_of_its_rows(request, name):
    P = request.getfixturevalue(name)
    lo, hi = P.bbox
    # cell corners about random points, as the cell weights classify them
    pts = np.random.default_rng(20154).uniform(lo - 0.1, hi + 0.1, (500, 2))
    corners = pts[:, None, :] + np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) * 0.03
    stacked = P.facet_values(corners)
    assert stacked.shape == (500, 4, len(P.offsets))
    assert stacked.tobytes() == P.facet_values(corners.reshape(-1, 2)).tobytes()


@pytest.mark.parametrize("delta", [0.5, 2.0, 2.5, 3.0, 4.0])
def test_field_jets_exact_on_quadratics_every_row(small_grid, delta):
    # delta_min in units of h; from 2h on, mixed partials whose d/dx
    # intermediate is a two-point stencil join the least-squares band.  Those
    # grids are twice as fine, so that the trapezoid keeps nodes at 4h
    g = small_grid
    if delta != 0.5:
        g = build_grid(g.polytope, 2 * g.n, delta * g.h / 2)
    x, y = g.points[:, 0], g.points[:, 1]
    f = 1.5 * x**2 - 0.7 * x * y + 0.3 * y**2 + 2 * x - y + 4
    jets = g.field_jets(f)
    expect = {(1, 0): 3.0 * x - 0.7 * y + 2, (0, 1): -0.7 * x + 0.6 * y - 1,
              (2, 0): 3.0, (0, 2): 0.6, (1, 1): -0.7}
    for key, val in expect.items():
        np.testing.assert_allclose(jets[key], np.broadcast_to(val, x.shape), atol=1e-9)
    # the pure second-difference operators are exact on quadratics at fill rows too
    np.testing.assert_allclose(g.diff(f, 2, 0), 3.0, atol=1e-9)
    np.testing.assert_allclose(g.diff(f, 0, 2), 0.6, atol=1e-9)


def test_field_jets_stacked_equals_single(hex_grid):
    rng = np.random.default_rng(7)
    F = rng.standard_normal((hex_grid.n_nodes, 3))
    stacked = hex_grid.field_jets(F)
    for c in range(3):
        single = hex_grid.field_jets(F[:, c].copy())
        for key, val in single.items():
            assert np.array_equal(stacked[key][:, c], val), key


def test_grid_operators_are_read_only(triangle, bundle_class):
    from calabiflow.curvature import class_record

    g = build_grid(triangle, 24, 0.5 * 3.0 / 24)
    f = np.random.default_rng(24).standard_normal(g.n_nodes)
    before = g.hessian_operator @ f
    # max would sort the operator's rows in place, reordering its entries
    # and moving its products by ~1e-14
    with pytest.raises(ValueError):
        g.hessian_operator.max()
    assert np.array_equal(g.hessian_operator @ f, before)
    ops = [*g.axis_operators.values(), g.gradient_operator, g.hessian_operator,
           class_record(g, bundle_class).L]
    assert not any(a.flags.writeable for A in ops for a in (A.data, A.indices, A.indptr))


def _per_partial_blocks(g):
    """{(a, b): dense (n, n) operator of the partial}, assembled one partial
    at a time: the axis stencil row (d/dy of d/dx for the mixed partial) off
    the least-squares band, the least-squares row of the node's cloud on it."""
    ops, h = g.axis_operators, g.h
    nodes, clouds, pinv = g._ls_band()
    parts = {
        (1, 0): (ops[0, 1], pinv[:, 1] / h),
        (0, 1): (ops[1, 1], pinv[:, 2] / h),
        (2, 0): (ops[0, 2], 2.0 * pinv[:, 3] / (h * h)),
        (1, 1): (ops[1, 1] @ ops[0, 1], pinv[:, 4] / (h * h)),
        (0, 2): (ops[1, 2], 2.0 * pinv[:, 5] / (h * h)),
    }
    blocks = {}
    for key, (stencil, ls) in parts.items():
        B = stencil.toarray()
        B[nodes] = 0.0
        for node, cloud, row in zip(nodes, clouds, ls):
            B[node, cloud] = row
        blocks[key] = B
    return blocks


@pytest.mark.parametrize("poly", ["triangle", "hexagon", "trapezoid"])
def test_jet_operator_row_blocks_match_per_partial_assembly(poly, request):
    P = request.getfixturevalue(poly)
    lo, hi = P.bbox
    g = build_grid(P, 16, 0.5 * (hi[0] - lo[0]) / 16)
    n, blocks = g.n_nodes, _per_partial_blocks(g)
    for A, keys in ((g.gradient_operator, ((1, 0), (0, 1))),
                    (g.hessian_operator, ((2, 0), (1, 1), (0, 2)))):
        assert A.shape == (len(keys) * n, n)
        for k, key in enumerate(keys):
            block = A[k * n : (k + 1) * n]
            # no stored zero stands in for an entry the assembly leaves out
            assert block.nnz == np.count_nonzero(blocks[key]), key
            assert np.array_equal(block.toarray(), blocks[key]), key
