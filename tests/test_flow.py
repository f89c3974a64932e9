import heapq
import math

import numpy as np
import pytest

from calabiflow import (
    AdmissibleClass,
    ConfigError,
    FlowRun,
    FlowState,
    RunConfig,
    SymplecticPotential,
    build_grid,
    eps_region,
    rhs,
    save_polytope,
    step,
)
from calabiflow.curvature import class_record, curvature_context, stage_velocity
from calabiflow.energy import average_scalar
from calabiflow.flow import boundary_ring, distance_field, proposed_dt, region_graph
from calabiflow.errors import CurvatureUndefinedError, StiffnessError
from calabiflow.potential import HESSIAN_KEYS, _sym2_inverse, bump_form
from fd_oracle import sym2_matrices


def whole_graph(grid):
    """The RegionGraph of all of a grid's nodes."""
    return region_graph(grid, np.arange(grid.n_nodes))


def fd_state(potential):
    return FlowState(t=0.0, u=potential.with_node_values(potential.f_values))


def _count_calls(monkeypatch):
    """Count Grid.diff, Grid.field_jets and the SPD inverses of curvature
    contexts, one per fd context build."""
    from calabiflow import curvature
    from calabiflow.polytope import Grid

    calls = {"diff": 0, "field_jets": 0, "_spd_inverse": 0}
    for owner, name in ((Grid, "diff"), (Grid, "field_jets"), (curvature, "_spd_inverse")):
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_step_composes_no_higher_differences(monkeypatch, triangle, grid48, bundle_class):
    calls = _count_calls(monkeypatch)
    f = bump_form(0.05)(grid48.points[:, 0], grid48.points[:, 1])
    u = SymplecticPotential.from_node_values(triangle, grid48, f)
    r_bar = average_scalar(triangle, bundle_class, grid48)
    new = step(FlowState(t=0.0, u=u), bundle_class, 0.1, r_bar)
    assert new.step_count == 1
    # the velocity applies single derivative operators, never the full jets
    assert calls["diff"] == 0
    assert calls["field_jets"] == 0
    # five SPD inverses: the fresh state's context, the three later RK
    # stages, the candidate's context
    assert calls["_spd_inverse"] == 5


def test_step_reuses_cached_curvature(monkeypatch, triangle, grid48, bundle_class):
    f = bump_form(0.05)(grid48.points[:, 0], grid48.points[:, 1])
    start = FlowState(t=0.0, u=SymplecticPotential.from_node_values(triangle, grid48, f))
    r_bar = average_scalar(triangle, bundle_class, grid48)
    # reference: every step starts from a fresh copy, so its k1 is computed anew
    ref = start
    for _ in range(3):
        fresh = FlowState(t=ref.t, u=ref.u.with_node_values(ref.u.f_values),
                          step_count=ref.step_count)
        ref = step(fresh, bundle_class, 0.1, r_bar)
    cur = step(start, bundle_class, 0.1, r_bar)
    calls = _count_calls(monkeypatch)
    cur = step(cur, bundle_class, 0.1, r_bar)
    # the candidate of the last step is this state: three later RK stages and
    # the new candidate
    assert calls["_spd_inverse"] == 4
    cur = step(cur, bundle_class, 0.1, r_bar)
    assert cur.step_count == ref.step_count == 3
    assert cur.t == ref.t
    assert np.array_equal(cur.u.f_values, ref.u.f_values)


def _flow_run24(triangle_file, bundle_class):
    cfg = RunConfig(polytope_path=str(triangle_file), admissible_class=bundle_class, grid_n=24,
                    perturbation_kind="bump", perturbation_amplitude=0.05, snapshot_every=0)
    return FlowRun(cfg)


def test_measure_differentiates_node_data_once(monkeypatch, triangle_file, bundle_class,
                                               csr_products):
    from calabiflow.polytope import Grid

    fr = _flow_run24(triangle_file, bundle_class)
    calls = _count_calls(monkeypatch)
    products_per_diff = []
    counted = Grid.diff

    def diff(*args):
        before = len(csr_products)
        out = counted(*args)
        products_per_diff.append(len(csr_products) - before)
        return out

    monkeypatch.setattr(Grid, "diff", diff)
    fr.measure()
    # the nine third/fourth partials of f for the |d^k f| maxima, from seven
    # one-product differences of shared intermediates, two of them of
    # stacks; first/second partials of f, and Hess R for the dissipation,
    # come from the derivative operators
    assert calls["diff"] == 7
    assert products_per_diff == [1] * 7
    assert calls["field_jets"] == 0
    # the state keeps the two first and three second partials of f, no
    # partial of order 3 or 4
    assert {order: len(jet) for order, jet in fr.state.u._f_jets.items()} == {1: 2, 2: 3}


def test_measure_reads_the_contexts_lower_eigenvalues(monkeypatch, triangle_file, bundle_class):
    from calabiflow import curvature, flow

    fr = _flow_run24(triangle_file, bundle_class)
    lo = fr.state.u.min_hessian_eigenvalues()
    calls = []
    for owner in (curvature, flow):
        orig = owner._sym2_eigenvalues
        monkeypatch.setattr(owner, "_sym2_eigenvalues",
                            lambda S, _orig=orig: calls.append(S) or _orig(S))
    first = fr.measure()
    # one eigen-decomposition per record, of the eps-region's columns of the
    # context's Hessian field; the context's SPD certificate is the record's
    # positivity
    G = curvature.curvature_context(fr.state.u)["G"]
    assert len(calls) == 1 and np.array_equal(calls[0], G[:, fr.eps_nodes])
    assert first.min_hess_eig == lo[fr.eps_nodes].min()
    assert first.positivity_ok is True
    # a cached context keeps no eigenvalues: the next record decomposes again
    assert fr.measure().csv_row() == first.csv_row()
    assert len(calls) == 2 and np.array_equal(calls[1], G[:, fr.eps_nodes])


def test_step_decomposes_once_and_a_record_once_more(monkeypatch, triangle_file, bundle_class):
    from calabiflow import curvature, flow

    fr = _flow_run24(triangle_file, bundle_class)
    calls = []
    for owner in (curvature, flow):
        orig = owner._sym2_eigenvalues
        monkeypatch.setattr(owner, "_sym2_eigenvalues",
                            lambda *args, _orig=orig, _name=owner.__name__:
                            calls.append(_name) or _orig(*args))
    fr.state = step(fr.state, fr.cls, fr.cfg.cfl_sigma, fr.r_bar)
    # the SPD checks of the five contexts pass by their trace and determinant
    # certificate; the one eigen-decomposition is that of proposed_dt
    assert calls == ["calabiflow.flow"]
    # a record adds the lower eigenvalue field of the candidate's Hessian
    fr.measure()
    assert calls == ["calabiflow.flow", "calabiflow.flow"]


class _CountingTree:
    """Stands in for Grid.kdtree and counts its queries."""

    def __init__(self, tree):
        self.tree, self.queries = tree, 0

    def query(self, *args, **kwargs):
        self.queries += 1
        return self.tree.query(*args, **kwargs)


def test_measure_builds_run_constants_once(monkeypatch, triangle_file, bundle_class):
    from calabiflow import flow

    fr = _flow_run24(triangle_file, bundle_class)
    tree = _CountingTree(fr.grid.kdtree)
    fr.grid.__dict__["kdtree"] = tree
    graphs = []
    monkeypatch.setattr(flow, "region_graph",
                        lambda *args: graphs.append(region_graph(*args)) or graphs[-1])
    # set-up builds no distance graph and no boundary moments; the first
    # record does
    assert "eps_graph" not in fr.__dict__
    assert fr.grid not in fr.bquad._moments
    first = fr.measure()
    edges, graph, queries = fr.grid.edges8, fr.eps_graph, tree.queries
    moments, ring2 = fr.bquad._moments[fr.grid], fr._eps2_in_graph
    fr.state = step(fr.state, bundle_class, fr.cfg.cfl_sigma, fr.r_bar)
    second = fr.measure()
    # the boundary points' nearest nodes and moments, the distance graph with
    # its undirected-edge table, and the 2eps-ring's place in it are reused
    assert tree.queries == queries == 1
    assert fr.bquad._moments[fr.grid] is moments
    assert fr.grid.edges8 is edges
    assert len(graphs) == 1 and graphs[0] is graph and fr.eps_graph is graph
    assert fr._eps2_in_graph is ring2
    assert second.boundary_u != first.boundary_u


def test_rhs_vanishes_at_fs_trivial(fs48, triangle, grid48):
    cls = AdmissibleClass.trivial()
    v = rhs(fd_state(fs48), cls, average_scalar(triangle, cls, grid48))
    assert np.abs(v).max() <= 1e-9


def test_rhs_vanishes_constant_weight(fs48, triangle, grid48):
    cls = AdmissibleClass((0.0, 0.0), 2.0, -1.0, 1, -2)
    v = rhs(fd_state(fs48), cls, average_scalar(triangle, cls, grid48))
    assert np.abs(v).max() <= 1e-9


def test_rhs_sign(fs48, triangle, grid48):
    # where R exceeds its average the potential must decrease
    from calabiflow import polynomial_form, weighted_scalar_field

    u = SymplecticPotential.from_closed_form(
        triangle, grid48, polynomial_form({(4, 0): 0.002, (0, 4): 0.002})
    )
    cls = AdmissibleClass.trivial()
    r_bar = average_scalar(triangle, cls, grid48)
    v = rhs(fd_state(u), cls, r_bar)
    W = weighted_scalar_field(u.with_node_values(u.f_values), cls)
    hot = W > r_bar
    assert np.all(v[hot] < 0)


def test_dt_scaling_h4(triangle, fs48):
    g192 = build_grid(triangle, 192, 0.5 * 3.0 / 192)
    u192 = SymplecticPotential.fubini_study(g192)
    dt48 = proposed_dt(fs48, 0.1)
    dt192 = proposed_dt(u192, 0.1)
    assert dt48 / dt192 == pytest.approx(256.0, rel=0.05)


def test_step_accepts_and_advances(fs48, triangle, grid48):
    cls = AdmissibleClass.trivial()
    st2 = step(fd_state(fs48), cls, 0.1, average_scalar(triangle, cls, grid48))
    assert st2.step_count == 1
    assert st2.t == st2.dt_last > 0


def test_stiffness_error_carries_state(fs48, triangle, grid48):
    from calabiflow import polynomial_form

    # valid state, absurd step size: every retry loses positivity in a stage
    u = SymplecticPotential.from_closed_form(
        triangle, grid48, polynomial_form({(2, 0): -0.1})
    )
    st = fd_state(u)
    cls = AdmissibleClass.trivial()
    with pytest.raises(StiffnessError) as exc:
        step(st, cls, 1e15, average_scalar(triangle, cls, grid48))
    assert exc.value.last_state is st


def test_step_halves_dt_on_every_energy_increase(monkeypatch, triangle, bundle_class):
    # from the canonical potential at N=12 every candidate raises the Calabi
    # energy, though each stage and candidate stays positive
    import calabiflow.flow as flow

    grid = build_grid(triangle, 12, 0.5 * 3.0 / 12)
    st = FlowState(t=0.0, u=SymplecticPotential.from_node_values(
        triangle, grid, np.zeros(grid.n_nodes)))
    energies, raised = [], []
    real_calabi, real_stage = flow.calabi_energy, flow.stage_velocity

    def calabi(*args):
        energies.append(real_calabi(*args))
        return energies[-1]

    def stage(*args):
        try:
            return real_stage(*args)
        except CurvatureUndefinedError:
            raised.append(args)
            raise

    monkeypatch.setattr(flow, "calabi_energy", calabi)
    monkeypatch.setattr(flow, "stage_velocity", stage)
    with pytest.raises(StiffnessError, match="at t = 0$") as exc:
        step(st, bundle_class, 0.1, average_scalar(triangle, bundle_class, grid))
    # the energy now, then one candidate per attempt
    assert len(energies) == 1 + flow.MAX_RETRIES + 1 == 12
    assert all(e > energies[0] for e in energies[1:])
    assert raised == []
    assert exc.value.last_state is st


def test_step_rejects_non_spd_candidate(monkeypatch, triangle, grid48, bundle_class):
    # A velocity spike at one node lowers both Hessian eigenvalues there.  It
    # grows with the spike, v = s + (4 / dt0) (f - f0), so at dt0 the RK4
    # stage states reach 7 dt0 s and the candidate 50/6 dt0 s; the spike size
    # puts the positivity threshold in between.  The candidate alone must be
    # rejected, and the step accepted at dt0 / 2; the energy check accepts
    # every candidate that is computed.
    import calabiflow.flow as flow

    u = SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))
    f0 = u.f_values
    dt0 = proposed_dt(u, 0.1)
    k = int(np.argmin((grid48.points**2).sum(axis=1)))
    spike = np.zeros(grid48.n_nodes)
    spike[k] = u.min_hessian_eigenvalues()[k] * grid48.h**2 / (2.0 * 7.6 * dt0)
    real_stage, real_calabi = flow.stage_velocity, flow.calabi_energy
    rejected = []

    def checked(f, check, *args):
        # the real evaluation decides positivity at f
        try:
            return check(*args)
        except CurvatureUndefinedError:
            rejected.append(f[k] / (dt0 * spike[k]))
            raise

    def velocity(f):
        return spike + 4.0 / dt0 * (f - f0)

    def stage(grid, rec, f, r_bar):
        checked(f, real_stage, grid, rec, f, r_bar)
        return velocity(f)

    def calabi(p, *args):
        checked(p.f_values, real_calabi, p, *args)
        return 0.0

    # k1 from the state, the later stages and the candidate's energy
    monkeypatch.setattr(flow, "rhs", lambda state, cls, r_bar: velocity(state.u.f_values))
    monkeypatch.setattr(flow, "stage_velocity", stage)
    monkeypatch.setattr(flow, "calabi_energy", calabi)
    new = step(FlowState(t=0.0, u=u), bundle_class, 0.1, 0.0)
    assert rejected == [pytest.approx(50.0 / 6.0)]
    assert new.dt_last == dt0 / 2
    assert new.u.min_hessian_eigenvalues()[k] > 0


def test_riemannian_distance_flat_metric(triangle, grid48):
    # identity Hessians: the graph distance approximates Euclidean length
    ident = np.array([[1.0], [0.0], [1.0]]) * np.ones(grid48.n_nodes)
    a = int(np.argmin(((grid48.points - (-0.5, -0.5)) ** 2).sum(axis=1)))
    b = int(np.argmin(((grid48.points - (0.75, 0.25)) ** 2).sum(axis=1)))
    d = distance_field(whole_graph(grid48), ident, [a])[b]
    euclid = np.hypot(*(grid48.points[a] - grid48.points[b]))
    assert euclid <= d <= 1.09 * euclid


def test_riemannian_distance_zero_on_overlap(fs48, triangle, grid48):
    ring = boundary_ring(grid48, eps_region(grid48, 0.25))
    dist = distance_field(whole_graph(grid48), curvature_context(fs48)["G"], ring)
    assert len(ring) and np.all(dist[ring] == 0.0)


def test_riemannian_distance_refinement_monotone(triangle):
    # refining the grid adds paths, so distances between shared lattice
    # endpoints can only shrink (edge metric sampling converges from above
    # for the convex canonical metric)
    pts = [(-0.5, -0.5), (0.5, 0.25)]
    vals = []
    for n in (24, 48):
        g = build_grid(triangle, n, 0.5 * 3.0 / n)
        u = SymplecticPotential.fubini_study(g)
        a = int(np.argmin(((g.points - pts[0]) ** 2).sum(axis=1)))
        b = int(np.argmin(((g.points - pts[1]) ** 2).sum(axis=1)))
        assert np.allclose(g.points[a], pts[0]) and np.allclose(g.points[b], pts[1])
        vals.append(distance_field(whole_graph(g), curvature_context(u)["G"], [a])[b])
    assert vals[1] <= vals[0] * (1 + 1e-9)


# -- graph: vectorized code against the per-node reference loops -----------------
# The heapq Dijkstra and the ring loop that distance_field and boundary_ring
# replaced; the vectorized versions must reproduce them bit for bit.

_OFFSETS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def reference_neighbors8(grid):
    nbrs = []
    ni, nj = grid.shape
    for (i, j) in grid.ij:
        row = []
        for di, dj in _OFFSETS8:
            i2, j2 = i + di, j + dj
            if 0 <= i2 < ni and 0 <= j2 < nj:
                nid = grid.node_id[i2, j2]
                if nid >= 0:
                    row.append((int(nid), grid.h * di, grid.h * dj))
        nbrs.append(row)
    return nbrs


def reference_distance_field(grid, hessians, sources):
    edges = []
    for n, row in enumerate(reference_neighbors8(grid)):
        lens = []
        Gn = hessians[n]
        for (m, dx, dy) in row:
            Gm = 0.5 * (Gn + hessians[m])
            q = Gm[0, 0] * dx * dx + 2.0 * Gm[0, 1] * dx * dy + Gm[1, 1] * dy * dy
            lens.append((m, math.sqrt(max(q, 0.0))))
        edges.append(lens)
    dist = np.full(grid.n_nodes, np.inf)
    heap = []
    for s in np.atleast_1d(np.asarray(sources, dtype=int)):
        dist[s] = 0.0
        heap.append((0.0, int(s)))
    heapq.heapify(heap)
    while heap:
        d, n = heapq.heappop(heap)
        if d > dist[n]:
            continue
        for m, w in edges[n]:
            nd = d + w
            if nd < dist[m]:
                dist[m] = nd
                heapq.heappush(heap, (nd, m))
    return dist


def reference_boundary_ring(grid, region):
    inside = np.zeros(grid.n_nodes, dtype=bool)
    inside[np.asarray(region, dtype=int)] = True
    nbrs = reference_neighbors8(grid)
    ring = [
        n
        for n in np.nonzero(inside)[0]
        if any(not inside[m] for (m, _, _) in nbrs[n]) or len(nbrs[n]) < 8
    ]
    return np.asarray(ring, dtype=int)


def bump_state(grid):
    f = bump_form(0.05)(grid.points[:, 0], grid.points[:, 1])
    return SymplecticPotential.from_node_values(grid.polytope, grid, f)


def bump_hessians(grid):
    return curvature_context(bump_state(grid))["G"]


# the trapezoid's staircased facet, normal (-1, -2), gives the edge table
# its irregular rows
@pytest.mark.parametrize("grid_name", ["grid48", "hex_grid", "trap_grid"])
def test_boundary_ring_matches_reference(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    for eps in (0.1, 0.25, 0.5):
        region = eps_region(grid, eps)
        ring = boundary_ring(grid, region)
        assert len(ring) > 0
        assert np.array_equal(ring, reference_boundary_ring(grid, region))
    assert np.array_equal(boundary_ring(grid, np.arange(grid.n_nodes)),
                          reference_boundary_ring(grid, np.arange(grid.n_nodes)))


# the trapezoid's staircased facet, normal (-1, -2), gives the edge table
# its irregular rows
@pytest.mark.parametrize("grid_name", ["grid48", "hex_grid", "trap_grid"])
def test_distance_field_matches_reference(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    hess = bump_hessians(grid)
    eps_ring = boundary_ring(grid, eps_region(grid, 0.25))
    graph = whole_graph(grid)
    for sources in (eps_ring, [0], [grid.n_nodes // 2, grid.n_nodes - 1]):
        dist = distance_field(graph, hess, sources)
        assert np.isfinite(dist).all()
        assert np.array_equal(dist, reference_distance_field(grid, sym2_matrices(hess), sources))


def test_distance_field_zero_metric(grid48):
    # zero-length edges are still edges: every node is at distance 0, not inf
    zero = np.zeros((3, grid48.n_nodes))
    dist = distance_field(whole_graph(grid48), zero, [grid48.n_nodes // 2])
    assert np.array_equal(dist, np.zeros(grid48.n_nodes))
    assert np.array_equal(dist, reference_distance_field(grid48, sym2_matrices(zero),
                                                         [grid48.n_nodes // 2]))


@pytest.fixture(scope="module")
def polygon_grids48(triangle, hexagon, trapezoid):
    """N=48 grids, delta_min = h/2, of the three polygons."""
    grids = {}
    for name, P in (("triangle", triangle), ("hexagon", hexagon), ("trapezoid", trapezoid)):
        h = (P.bbox[1][0] - P.bbox[0][0]) / 48
        grids[name] = build_grid(P, 48, 0.5 * h)
    return grids


@pytest.mark.parametrize("polygon", ["triangle", "hexagon", "trapezoid"])
@pytest.mark.parametrize("eps", [0.1, 0.25])
def test_region_distances_are_whole_graph_distances(polygon_grids48, polygon, eps):
    grid = polygon_grids48[polygon]
    G = curvature_context(bump_state(grid))["G"]
    region = eps_region(grid, eps)
    ring = boundary_ring(grid, region)
    graph = region_graph(grid, region)
    assert np.array_equal(graph.nodes, region)
    assert len(graph.nodes) < grid.n_nodes
    dist = distance_field(graph, G, ring)
    assert np.isfinite(dist).all()
    assert np.array_equal(dist, distance_field(whole_graph(grid), G, ring)[region])
    assert np.array_equal(dist, reference_distance_field(grid, sym2_matrices(G), ring)[region])


def test_distance_field_refuses_a_region_entered_off_its_sources(grid48):
    G = curvature_context(bump_state(grid48))["G"]
    region = eps_region(grid48, 0.25)
    ring = boundary_ring(grid48, region)
    graph = region_graph(grid48, region)
    inner = np.setdiff1d(region, ring)
    assert len(inner)
    # the ring is entered from outside, so one interior source leaves
    # entries that are not sources
    with pytest.raises(ValueError, match="not a source"):
        distance_field(graph, G, [inner[0]])
    with pytest.raises(ValueError, match="not a source"):
        distance_field(graph, G, ring[1:])
    outside = np.setdiff1d(np.arange(grid48.n_nodes), region)
    with pytest.raises(ValueError, match="not a node of the region"):
        distance_field(graph, G, np.append(ring, outside[0]))


@pytest.mark.parametrize("polygon", ["triangle", "hexagon", "trapezoid"])
def test_higher_partials_are_the_differences_of_diff(polygon_grids48, polygon):
    grid = polygon_grids48[polygon]
    u = bump_state(grid)
    partials = u._f_higher()
    assert sorted(partials) == sorted((a, k - a) for k in (3, 4) for a in range(k + 1))
    jets = u.jets(4)
    for key, value in partials.items():
        assert np.array_equal(value, grid.diff(u.f_values, *key)), key
        assert np.array_equal(u.f_partial(key), value), key
        assert np.array_equal(jets[key], grid.guillemin_jets[key] + value), key


# -- fixed-point run ---------------------------------------------------------


def test_fixed_point_keeps_f_small(fixed_point_run):
    fr = fixed_point_run
    assert fr.state.step_count == 100
    assert np.abs(fr.state.u.f_values).max() <= 1e-8


def test_fixed_point_calabi_negligible(fixed_point_run):
    assert all(rec.calabi <= 1e-12 for rec in fixed_point_run.records)


def test_fixed_point_positivity(fixed_point_run):
    assert all(rec.positivity_ok for rec in fixed_point_run.records)


# -- perturbed run -----------------------------------------------------------


def test_perturbed_calabi_strictly_decreasing(perturbed_run):
    ca = [r.calabi for r in perturbed_run.records]
    assert all(ca[k + 1] < ca[k] for k in range(len(ca) - 1))


def test_perturbed_rate_residual(perturbed_run):
    res = [r.calabi_rate_residual for r in perturbed_run.records]
    assert all(r <= 0.05 for r in res[1:])


def test_perturbed_invariant_drift(perturbed_run):
    ij = [r.invariant_j for r in perturbed_run.records]
    drift = (max(ij) - min(ij)) / abs(ij[0])
    assert drift <= 0.01


def test_perturbed_l2_bounded(perturbed_run):
    l2 = [r.l2_u for r in perturbed_run.records]
    assert max(l2) <= 2.0 * perturbed_run.initial_witnesses.l2_u


def test_perturbed_q_d2_no_explosion(perturbed_run):
    q = [r.q_d2_max for r in perturbed_run.records]
    assert np.isfinite(q).all()
    assert max(q) <= 2.0 * max(q[0], 1.0)


def test_perturbed_dist_eps_positive(perturbed_run):
    d = [r.dist_eps for r in perturbed_run.records]
    assert min(d) > 0


def test_monitor_rows_increasing_in_t(perturbed_run):
    t = [r.t for r in perturbed_run.records]
    assert all(t[k + 1] > t[k] for k in range(len(t) - 1))


def test_monitor_csv_written(perturbed_run):
    import csv

    path = perturbed_run.cfg.out_dir + "/monitor.csv"
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == (
        "t,calabi,dissipation,calabi_rate_residual,l2_u,boundary_u,min_hess_eig,"
        "max_d1,max_d2,max_d3,max_d4,dist_eps,q_d2_max,invariant_j,positivity_ok"
    ).split(",")
    assert len(rows) == len(perturbed_run.records)


def test_run_config_unknown_perturbation(triangle_file, bundle_class):
    with pytest.raises(ConfigError):
        RunConfig(polytope_path=str(triangle_file), admissible_class=bundle_class,
                  perturbation_kind="sawtooth")


@pytest.mark.parametrize("field, value", [
    ("cfl_sigma", 0.0), ("perturbation_center", (0.0, 0.0, 1.0)), ("grid_n", 1),
    ("delta_min_factor", 0.0), ("t_end", -1.0), ("monitor_every", 0), ("snapshot_every", -1),
    ("epsilon", 0.0), ("grid_n", "abc"), ("perturbation_center", 0.5),
    ("cfl_sigma", math.nan), ("cfl_sigma", math.inf), ("t_end", math.nan),
    ("epsilon", math.nan), ("epsilon", math.inf), ("perturbation_width", math.nan),
    ("perturbation_width", 0.0), ("perturbation_width", math.inf),
    ("perturbation_amplitude", math.nan), ("perturbation_center", (math.nan, 0.0)),
    ("delta_min_factor", math.nan), ("max_steps", -4),
])
def test_run_config_checks_its_fields(triangle_file, bundle_class, field, value):
    with pytest.raises(ConfigError):
        RunConfig(polytope_path=str(triangle_file), admissible_class=bundle_class,
                  **{field: value})


@pytest.mark.parametrize("field, value", [("grid_n", 12.5), ("monitor_every", 2.5),
                                          ("max_steps", 3.9), ("snapshot_every", 0.5)])
def test_run_config_refuses_fractions_for_whole_numbers(triangle_file, bundle_class, field,
                                                        value):
    # each was once truncated: N = 12.5 ran at N = 12, snapshot_every = 0.5
    # turned periodic snapshots off
    with pytest.raises(ConfigError):
        RunConfig(polytope_path=str(triangle_file), admissible_class=bundle_class,
                  **{field: value})


def test_run_config_coerces_its_fields(triangle_file, bundle_class):
    cfg = RunConfig(polytope_path=triangle_file, admissible_class=bundle_class, grid_n=24.0,
                    perturbation_center=np.array([0.25, 0]), max_steps="3")
    assert cfg.polytope_path == str(triangle_file)
    assert type(cfg.grid_n) is int and cfg.max_steps == 3
    assert cfg.perturbation_center == (0.25, 0.0)


@pytest.mark.parametrize("kwargs", [
    {"sigma": 0.0}, {"sigma": -0.1}, {"sigma": math.nan}, {"sigma": math.inf},
])
def test_step_policy_checks_its_fields(fs48, kwargs):
    # step refuses a CFL factor that is not finite and positive
    with pytest.raises(ConfigError):
        step(fd_state(fs48), AdmissibleClass.trivial(), r_bar=4.0, **kwargs)


@pytest.mark.parametrize("poly", ["triangle", "hexagon", "trapezoid"])
def test_rhs_equals_the_velocity_from_separate_blocks(request, poly, bundle_class):
    P = request.getfixturevalue(poly)
    lo, hi = P.bbox
    grid = build_grid(P, 24, 0.5 * (hi[0] - lo[0]) / 24)
    f = bump_form(0.05)(*grid.points.T)
    got = rhs(FlowState(t=0.0, u=SymplecticPotential.from_node_values(P, grid, f)),
              bundle_class, 0.25)
    # each second partial of f by its own row block of the Hessian operator,
    # the inverse of the Hessian field by _sym2_inverse, then the class operator
    n = grid.n_nodes
    G = np.stack([grid.guillemin_jets[key] + grid.hessian_operator[k * n : (k + 1) * n] @ f
                  for k, key in enumerate(HESSIAN_KEYS)])
    rec = class_record(grid, bundle_class)
    assert np.array_equal(got, 0.25 - (rec.scal_q - rec.L @ _sym2_inverse(G).ravel()))
    # the RK4 stages' velocity, with no potential, has the same bits
    assert got.tobytes() == stage_velocity(grid, rec, f, 0.25).tobytes()


def test_step_from_a_cached_state_builds_one_potential(monkeypatch, triangle, grid48,
                                                       bundle_class):
    f = bump_form(0.05)(*grid48.points.T)
    r_bar = average_scalar(triangle, bundle_class, grid48)
    state = step(FlowState(t=0.0, u=SymplecticPotential.from_node_values(triangle, grid48, f)),
                 bundle_class, 0.1, r_bar)
    built = []
    init = SymplecticPotential.__init__
    monkeypatch.setattr(SymplecticPotential, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    new = step(state, bundle_class, 0.1, r_bar)
    # the candidate; the stages are node arrays
    assert new.step_count == 2 and new.dt_last == proposed_dt(state.u, 0.1)
    assert built == [1]


def test_a_run_computes_each_states_calabi_energy_once(monkeypatch, tmp_path, triangle_file,
                                                       bundle_class):
    import sys

    import calabiflow.energy as energy
    import calabiflow.flow as flow

    # the quadratures made by calabi_energy, told apart from energy_report's
    # others by their caller, and the calls of calabi_energy from the step
    # and from a record's energy_report
    quadratures, energies = [], []
    real_quadrature, real_calabi = energy.interior_quadrature, energy.calabi_energy
    monkeypatch.setattr(energy, "interior_quadrature", lambda *args: quadratures.append(
        sys._getframe(1).f_code.co_name) or real_quadrature(*args))

    def calabi(*args):
        energies.append(sys._getframe(1).f_code.co_name)
        return real_calabi(*args)

    monkeypatch.setattr(energy, "calabi_energy", calabi)
    monkeypatch.setattr(flow, "calabi_energy", calabi)

    def run(out, fresh):
        fr = FlowRun(RunConfig(polytope_path=str(triangle_file), admissible_class=bundle_class,
                               grid_n=24, perturbation_kind="bump",
                               perturbation_amplitude=0.05, max_steps=3, monitor_every=1,
                               snapshot_every=0, out_dir=str(tmp_path / out)))
        if fresh:
            # every step starts from a fresh copy, so its energy now and its
            # k1 are computed anew
            real_step = flow.step
            monkeypatch.setattr(flow, "step", lambda st, *args: real_step(
                FlowState(t=st.t, u=st.u.with_node_values(st.u.f_values),
                          step_count=st.step_count), *args))
        del quadratures[:], energies[:]
        fr.advance()
        fr.write_outputs()
        return fr, quadratures.count("calabi_energy"), list(energies)

    cur, cur_count, cur_calls = run("cached", fresh=False)
    ref, ref_count, ref_calls = run("fresh", fresh=True)
    # three accepted steps at their proposed dt: four states, one energy
    # each, though the step asks for it twice per attempt and each of the
    # four records (the initial one and one per step) once more; a record
    # reuses its step's energy, and the first step the initial record's
    assert cur.state.step_count == ref.state.step_count == 3
    assert sorted(cur_calls) == ["energy_report"] * 4 + ["step"] * 6 == sorted(ref_calls)
    assert cur_count == 4 and ref_count == 7
    assert cur.state.t == ref.state.t
    assert np.array_equal(cur.state.u.f_values, ref.state.u.f_values)
    assert ((tmp_path / "cached" / "monitor.csv").read_bytes()
            == (tmp_path / "fresh" / "monitor.csv").read_bytes())


def test_rk4_step_makes_eight_sparse_products(triangle_file, bundle_class, csr_products):
    fr = _flow_run24(triangle_file, bundle_class)
    # the first step also evaluates the velocity of the fresh initial state
    state = step(fr.state, fr.cls, fr.cfg.cfl_sigma, fr.r_bar)
    del csr_products[:]
    state = step(state, fr.cls, fr.cfg.cfl_sigma, fr.r_bar)
    assert state.step_count == 2
    # four velocities (three later RK stages and the candidate), each one
    # product of the stacked Hessian operator for the three second partials
    # of f and one of the class operator
    assert len(csr_products) == 8


@pytest.mark.parametrize("eps", [0.1, 0.25])
@pytest.mark.parametrize("polygon", ["triangle", "hexagon", "trapezoid"])
def test_dist_eps_reads_the_2eps_region_as_its_ring(request, tmp_path, bundle_class, polygon,
                                                    eps):
    # the rings meet where an eps-ring node lies in the 2eps-region, and the
    # least distance over the 2eps-region is the least over its ring: both
    # as computed from the 2eps-ring itself, bit for bit
    path = tmp_path / f"{polygon}.json"
    save_polytope(request.getfixturevalue(polygon), path)
    fr = FlowRun(RunConfig(polytope_path=str(path), admissible_class=bundle_class, grid_n=48,
                           perturbation_kind="bump", perturbation_amplitude=0.05,
                           epsilon=eps, snapshot_every=0))
    rec = fr.measure()
    ring2 = boundary_ring(fr.grid, fr.eps2_nodes)
    meet = bool(np.intersect1d(fr.eps_ring, ring2).size)
    g = fr.eps_graph
    dist = distance_field(g, curvature_context(fr.state.u)["G"], fr.eps_ring)
    ref = math.nan if meet else float(np.min(dist[np.searchsorted(g.nodes, ring2)]))
    assert fr.rings_meet == meet
    assert np.array_equal(rec.dist_eps, ref, equal_nan=True)


# a lattice step can move a node closer to a facet by more than eps, so the
# eps-ring and the 2eps-ring can share nodes: the staircased facet of the
# trapezoid at N=48 and eps = 0.1, and the triangle at N=12 and eps = 0.25;
# at N=48 the triangle's rings are apart
@pytest.mark.parametrize("polygon, n, eps, shared", [
    ("trapezoid", 48, 0.1, 13), ("triangle", 12, 0.25, 6), ("triangle", 48, 0.25, 0)])
def test_dist_eps_is_nan_when_the_rings_share_a_node(request, tmp_path, bundle_class,
                                                     polygon, n, eps, shared):
    path = tmp_path / f"{polygon}.json"
    save_polytope(request.getfixturevalue(polygon), path)
    fr = FlowRun(RunConfig(polytope_path=str(path), admissible_class=bundle_class, grid_n=n,
                           perturbation_kind="bump", perturbation_amplitude=0.05,
                           epsilon=eps, snapshot_every=0))
    assert len(np.intersect1d(fr.eps_ring, boundary_ring(fr.grid, fr.eps2_nodes))) == shared
    assert fr.rings_meet == bool(shared)
    rec = fr.measure()
    # the distance field itself is still defined, so q_d2_max is read
    assert np.isfinite(rec.q_d2_max)
    if shared:
        assert np.isnan(rec.dist_eps)
    else:
        assert rec.dist_eps > 0
