import functools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from calabiflow import (
    AdmissibleClass,
    DelzantPolytope,
    FlowRun,
    RunConfig,
    SymplecticPotential,
    build_grid,
    save_polytope,
    standard_triangle,
)


@pytest.fixture(scope="session")
def triangle():
    return standard_triangle()


@pytest.fixture(scope="session")
def grid48(triangle):
    return build_grid(triangle, 48, 0.5 * 3.0 / 48)


@pytest.fixture(scope="session")
def grid96(triangle):
    return build_grid(triangle, 96, 0.5 * 3.0 / 96)


@pytest.fixture(scope="session")
def hexagon():
    """Normals (+-1, 0), (0, +-1), +-(1, 1); offsets 1, 1, 1.5."""
    return DelzantPolytope(
        normals=np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]),
        offsets=np.array([1.0, 1.0, 1.0, 1.0, 1.5, 1.5]),
    )


@pytest.fixture(scope="session")
def trapezoid():
    """Hirzebruch trapezoid: normals (1, 0), (0, 1), (-1, -2), (0, -1);
    offsets 1, 1, 3, 1; vertices (-1, -1), (5, -1), (1, 1), (-1, 1)."""
    return DelzantPolytope(
        normals=np.array([[1, 0], [0, 1], [-1, -2], [0, -1]]),
        offsets=np.array([1.0, 1.0, 3.0, 1.0]),
    )


@pytest.fixture(scope="session")
def hex_grid(hexagon):
    return build_grid(hexagon, 24, 0.5 * 2.0 / 24)


@pytest.fixture(scope="session")
def trap_grid(trapezoid):
    return build_grid(trapezoid, 24, 0.5 * 6.0 / 24)


@pytest.fixture(scope="session")
def fs48(triangle, grid48):
    return SymplecticPotential.fubini_study(grid48)


@pytest.fixture(scope="session")
def fs48_fd(triangle, grid48):
    return SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))


@pytest.fixture(scope="session")
def fs96(triangle, grid96):
    return SymplecticPotential.fubini_study(grid96)


@pytest.fixture()
def csr_products(monkeypatch):
    """A list that grows by one for every sparse product with a vector or a
    stack of vectors (scipy's csr_matvec and csr_matvecs) made while the
    test runs."""
    from scipy.sparse import _sparsetools

    calls = []
    for name in ("csr_matvec", "csr_matvecs"):
        product = getattr(_sparsetools, name)
        monkeypatch.setattr(_sparsetools, name,
                            lambda *a, _product=product: calls.append(1) or _product(*a))
    return calls


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


def _point_segment_distance(x, a, b) -> float:
    ab = (b[0] - a[0], b[1] - a[1])
    ax = (x[0] - a[0], x[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, (ax[0] * ab[0] + ax[1] * ab[1]) / denom))
    dx = x[0] - (a[0] + t * ab[0])
    dy = x[1] - (a[1] + t * ab[1])
    return math.hypot(dx, dy)


def distance_to_boundary(P, x) -> float:
    """Exact Euclidean distance from a point x to the boundary polygon of P,
    one facet segment at a time: the scalar reference of
    Grid.boundary_distance."""
    return min(_point_segment_distance(x, *P.facet_segment(i)) for i in range(len(P.offsets)))


def blow_up(P, i, eps):
    """The toric blow-up of P at the vertex where facet i meets facet i + 1
    (mod d): a new facet, normal v_i + v_{i+1} and offset c_i + c_{i+1} - eps,
    put between the two, cuts the corner where l_i + l_{i+1} < eps.  The
    facets of P must be in cyclic order, and eps positive and below the
    lattice lengths of both facets; the result is then Delzant again
    (Fulton, Introduction to Toric Varieties, 2.5)."""
    d = len(P.offsets)
    j = (i + 1) % d
    normals, offsets = P.normals.tolist(), P.offsets.tolist()
    normals.insert(i + 1, [normals[i][0] + normals[j][0], normals[i][1] + normals[j][1]])
    offsets.insert(i + 1, offsets[i] + offsets[j] - eps)
    return DelzantPolytope(normals, offsets)


def hirzebruch(a):
    """The trapezoid of F_a: normals (1, 0), (0, 1), (-1, -a), (0, -1);
    offsets 1, 1, 1 + a, 1; its top facet runs from (-1, 1) to (1, 1)."""
    return DelzantPolytope([[1, 0], [0, 1], [-1, -a], [0, -1]], [1.0, 1.0, 1.0 + a, 1.0])


def _generated_polygons() -> dict:
    """The triangle and F_0-F_3, each also with its first corner cut, and
    the triangle and F_2 with two corners cut, all cuts at eps = 0.5: every
    smooth projective toric surface is P^2 or some F_a blown up torically,
    so the family reaches polygons the hand-written fixtures do not."""
    base = {"triangle": standard_triangle(), **{f"F{a}": hirzebruch(a) for a in range(4)}}
    polygons = dict(base)
    for name, P in base.items():
        polygons[f"{name} cut"] = blow_up(P, 0, 0.5)
    for name in ("triangle", "F2"):
        polygons[f"{name} cut twice"] = blow_up(polygons[f"{name} cut"], 2, 0.5)
    return polygons


# a fixed list, the same at every run
GENERATED_POLYGONS = _generated_polygons()


@functools.lru_cache(maxsize=None)
def generated_grid(name, n):
    """The grid of GENERATED_POLYGONS[name] at N=n, delta_min = h/2, built
    once per session."""
    P = GENERATED_POLYGONS[name]
    return build_grid(P, n, 0.5 * (P.bbox[1][0] - P.bbox[0][0]) / n)


@pytest.fixture(params=["triangle", "hexagon", "trapezoid", "F2 cut twice"])
def small_grid(request, triangle, hex_grid, trap_grid):
    """A small triangle grid (N=16), the hexagon and trapezoid grids and a
    generated polygon at N=24; all but the hexagon grid have nodes that no
    stencil of some axis operator serves."""
    if request.param == "triangle":
        return build_grid(triangle, 16, 0.5 * 3.0 / 16)
    if request.param in GENERATED_POLYGONS:
        return generated_grid(request.param, 24)
    return {"hexagon": hex_grid, "trapezoid": trap_grid}[request.param]


def interior_points(polytope, rng, n, margin=0.3):
    """Random points at distance >= margin from the boundary."""
    pts = []
    lo, hi = polytope.bbox
    while len(pts) < n:
        c = rng.uniform(lo, hi)
        if polytope.contains(c) and distance_to_boundary(polytope, c) >= margin:
            pts.append(c)
    return np.array(pts)


@pytest.fixture(scope="session")
def bundle_class():
    return AdmissibleClass(p=(1.0, 1.0), c_S=12.0, scal_S=-1.0, m=1, chi_S=-2)


@pytest.fixture(scope="session")
def triangle_file(tmp_path_factory, triangle):
    path = tmp_path_factory.mktemp("polytope") / "triangle.json"
    save_polytope(triangle, path)
    return path


@pytest.fixture(scope="session")
def perturbed_run(triangle_file, bundle_class, tmp_path_factory):
    """The 200-step perturbed-canonical flow shared by the flow tests."""
    out = tmp_path_factory.mktemp("flow_out")
    cfg = RunConfig(
        polytope_path=str(triangle_file),
        admissible_class=bundle_class,
        grid_n=48,
        perturbation_kind="bump",
        perturbation_amplitude=0.05,
        perturbation_width=0.8,
        t_end=1.0,
        max_steps=200,
        monitor_every=5,
        snapshot_every=0,
        out_dir=str(out),
    )
    fr = FlowRun(cfg)
    # the state of each monitor record, for the Sobolev corroboration
    fr.states, monitor = [], fr.monitor

    def monitor_and_keep_state():
        rec = monitor()
        fr.states.append(fr.state)
        return rec

    fr.monitor = monitor_and_keep_state
    fr.advance()
    fr.write_outputs()
    return fr


@pytest.fixture(scope="session")
def fixed_point_run(triangle_file, tmp_path_factory):
    """100 steps from the exact canonical potential in the trivial class."""
    out = tmp_path_factory.mktemp("fs_out")
    cfg = RunConfig(
        polytope_path=str(triangle_file),
        admissible_class=AdmissibleClass.trivial(),
        grid_n=48,
        perturbation_kind="none",
        t_end=1.0,
        max_steps=100,
        monitor_every=5,
        snapshot_every=0,
        out_dir=str(out),
    )
    fr = FlowRun(cfg)
    fr.advance()
    return fr
