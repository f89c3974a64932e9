import heapq
import math

import numpy as np
import pytest

from calabiflow import (
    AdmissibleClass,
    ConfigError,
    FlowState,
    RunConfig,
    StepPolicy,
    SymplecticPotential,
    build_grid,
    eps_region,
    rhs,
    riemannian_distance,
    step,
)
from calabiflow.flow import boundary_ring, distance_field, proposed_dt
from calabiflow.errors import CurvatureUndefinedError, StiffnessError
from calabiflow.potential import bump_form


def fd_state(potential):
    return FlowState(t=0.0, u=potential.with_node_values(potential.f_values))


def _count_calls(monkeypatch):
    """Count Grid.diff, Grid.field_jets and fd curvature-context builds."""
    from calabiflow import curvature
    from calabiflow.polytope import Grid

    calls = {"diff": 0, "field_jets": 0, "_context_fd": 0}
    for owner, name in ((Grid, "diff"), (Grid, "field_jets"), (curvature, "_context_fd")):
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
    new = step(FlowState(t=0.0, u=u), bundle_class)
    assert new.step_count == 1
    # the velocity applies single derivative operators, never the full jets
    assert calls["diff"] == 0
    assert calls["field_jets"] == 0
    # five contexts: the fresh state, the three later RK stages, the candidate
    assert calls["_context_fd"] == 5


def test_step_reuses_cached_curvature(monkeypatch, triangle, grid48, bundle_class):
    f = bump_form(0.05)(grid48.points[:, 0], grid48.points[:, 1])
    start = FlowState(t=0.0, u=SymplecticPotential.from_node_values(triangle, grid48, f))
    # reference: every step starts from a fresh copy, so its k1 is computed anew
    ref = start
    for _ in range(3):
        fresh = FlowState(t=ref.t, u=ref.u.with_node_values(ref.u.f_values),
                          step_count=ref.step_count)
        ref = step(fresh, bundle_class)
    cur = step(start, bundle_class)
    calls = _count_calls(monkeypatch)
    cur = step(cur, bundle_class)
    # the candidate of the last step is this state: three later RK stages and
    # the new candidate
    assert calls["_context_fd"] == 4
    cur = step(cur, bundle_class)
    assert cur.step_count == ref.step_count == 3
    assert cur.t == ref.t
    assert np.array_equal(cur.u.f_values, ref.u.f_values)


def test_measure_differentiates_node_data_once(monkeypatch, triangle_file, bundle_class):
    from calabiflow.flow import FlowRun

    cfg = RunConfig(polytope_path=str(triangle_file), admissible_class=bundle_class, grid_n=24,
                    perturbation_kind="bump", perturbation_amplitude=0.05, snapshot_every=0)
    fr = FlowRun(cfg)
    calls = _count_calls(monkeypatch)
    fr.measure()
    # the nine third/fourth partials of f for the |d^k f| maxima, and the
    # jets of R for the dissipation; first/second partials of f come from
    # the derivative operators
    assert calls["diff"] == 9
    assert calls["field_jets"] == 1
    fr.state.u.jets(4)
    assert calls["diff"] == 9


def test_rhs_vanishes_at_fs_trivial(fs48):
    st = fd_state(fs48)
    v = rhs(st, AdmissibleClass.trivial())
    assert np.abs(v).max() <= 1e-9


def test_rhs_vanishes_constant_weight(fs48):
    cls = AdmissibleClass((0.0, 0.0), 2.0, -1.0, 1, -2)
    v = rhs(fd_state(fs48), cls)
    assert np.abs(v).max() <= 1e-9


def test_rhs_sign(fs48, triangle, grid48):
    # where R exceeds its average the potential must decrease
    from calabiflow import polynomial_form, weighted_scalar_field
    from calabiflow.energy import average_scalar

    u = SymplecticPotential.from_closed_form(
        triangle, grid48, polynomial_form({(4, 0): 0.002, (0, 4): 0.002})
    )
    cls = AdmissibleClass.trivial()
    r_bar = average_scalar(triangle, cls, grid48)
    v = rhs(fd_state(u), cls, r_bar=r_bar)
    W = weighted_scalar_field(u.with_node_values(u.f_values), cls)
    hot = W > r_bar
    assert np.all(v[hot] < 0)


def test_dt_scaling_h4(triangle, fs48):
    g192 = build_grid(triangle, 192, 0.5 * 3.0 / 192)
    u192 = SymplecticPotential.fubini_study(g192)
    dt48 = proposed_dt(fs48, 0.1)
    dt192 = proposed_dt(u192, 0.1)
    assert dt48 / dt192 == pytest.approx(256.0, rel=0.05)


def test_step_accepts_and_advances(fs48):
    st = fd_state(fs48)
    st2 = step(st, AdmissibleClass.trivial())
    assert st2.step_count == 1
    assert st2.t == st2.dt_last > 0


def test_stiffness_error_carries_state(fs48, triangle, grid48):
    from calabiflow import polynomial_form

    # valid state, absurd step size: every retry loses positivity in a stage
    u = SymplecticPotential.from_closed_form(
        triangle, grid48, polynomial_form({(2, 0): -0.1})
    )
    st = fd_state(u)
    policy = StepPolicy(sigma=1e15, max_retries=2)
    with pytest.raises(StiffnessError) as exc:
        step(st, AdmissibleClass.trivial(), policy)
    assert exc.value.last_state is st


def test_step_rejects_non_spd_candidate(monkeypatch, triangle, grid48, bundle_class):
    # A velocity spike at one node lowers both Hessian eigenvalues there.  It
    # grows with the spike, v = s + (4 / dt0) (f - f0), so at dt0 the RK4
    # stage states reach 7 dt0 s and the candidate 50/6 dt0 s; the spike size
    # puts the positivity threshold in between.  The candidate alone must be
    # rejected, and the step accepted at dt0 / 2.
    import calabiflow.flow as flow

    u = SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))
    f0 = u.f_values
    dt0 = proposed_dt(u, StepPolicy().sigma)
    k = int(np.argmin((grid48.points**2).sum(axis=1)))
    spike = np.zeros(grid48.n_nodes)
    spike[k] = u.min_hessian_eigenvalues()[k] * grid48.h**2 / (2.0 * 7.6 * dt0)
    real = flow.weighted_scalar_field
    rejected = []

    def spiked(p, cls):
        try:
            real(p, cls)
        except CurvatureUndefinedError:
            rejected.append(p.f_values[k] / (dt0 * spike[k]))
            raise
        return -(spike + 4.0 / dt0 * (p.f_values - f0))  # r_bar = 0

    monkeypatch.setattr(flow, "weighted_scalar_field", spiked)
    new = step(FlowState(t=0.0, u=u), bundle_class, r_bar=0.0, calabi_now=np.inf)
    assert rejected == [pytest.approx(50.0 / 6.0)]
    assert new.dt_last == dt0 / 2
    assert new.u.min_hessian_eigenvalues()[k] > 0


def test_riemannian_distance_flat_metric(triangle, grid48):
    # identity Hessians: the graph distance approximates Euclidean length
    ident = np.tile(np.eye(2), (grid48.n_nodes, 1, 1))
    a = int(np.argmin(((grid48.points - (-0.5, -0.5)) ** 2).sum(axis=1)))
    b = int(np.argmin(((grid48.points - (0.75, 0.25)) ** 2).sum(axis=1)))
    d = distance_field(grid48, ident, [a])[b]
    euclid = np.hypot(*(grid48.points[a] - grid48.points[b]))
    assert euclid <= d <= 1.09 * euclid


def test_riemannian_distance_zero_on_overlap(fs48, triangle, grid48):
    ring = boundary_ring(grid48, eps_region(triangle, grid48, 0.25))
    assert riemannian_distance(fs48, ring, ring) == 0.0


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
        vals.append(riemannian_distance(u, [a], [b]))
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


def bump_hessians(grid):
    f = bump_form(0.05)(grid.points[:, 0], grid.points[:, 1])
    return SymplecticPotential.from_node_values(grid.polytope, grid, f).hessians()


@pytest.mark.parametrize("grid_name", ["grid48", "hex_grid"])
def test_boundary_ring_matches_reference(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    for eps in (0.1, 0.25, 0.5):
        region = eps_region(grid.polytope, grid, eps)
        ring = boundary_ring(grid, region)
        assert len(ring) > 0
        assert np.array_equal(ring, reference_boundary_ring(grid, region))
    assert np.array_equal(boundary_ring(grid, np.arange(grid.n_nodes)),
                          reference_boundary_ring(grid, np.arange(grid.n_nodes)))


@pytest.mark.parametrize("grid_name", ["grid48", "hex_grid"])
def test_distance_field_matches_reference(request, grid_name):
    grid = request.getfixturevalue(grid_name)
    hess = bump_hessians(grid)
    eps_ring = boundary_ring(grid, eps_region(grid.polytope, grid, 0.25))
    for sources in (eps_ring, [0], [grid.n_nodes // 2, grid.n_nodes - 1]):
        dist = distance_field(grid, hess, sources)
        assert np.isfinite(dist).all()
        assert np.array_equal(dist, reference_distance_field(grid, hess, sources))


def test_distance_field_zero_metric(grid48):
    # zero-length edges are still edges: every node is at distance 0, not inf
    zero = np.zeros((grid48.n_nodes, 2, 2))
    dist = distance_field(grid48, zero, [grid48.n_nodes // 2])
    assert np.array_equal(dist, np.zeros(grid48.n_nodes))
    assert np.array_equal(dist, reference_distance_field(grid48, zero, [grid48.n_nodes // 2]))


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
    cfg = RunConfig(
        polytope_path=str(triangle_file),
        admissible_class=bundle_class,
        perturbation_kind="sawtooth",
    )
    from calabiflow.flow import FlowRun

    with pytest.raises(ConfigError):
        FlowRun(cfg)
