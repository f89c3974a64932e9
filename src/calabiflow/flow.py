"""Explicit time integration of the Calabi flow du/dt = R_bar - R(u) acting on
the smooth correction f, with per-step estimate monitors."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .curvature import (
    AdmissibleClass,
    class_record,
    curvature_context,
    rm2_total_field,
    stage_velocity,
    weighted_scalar_field,
)
from .energy import average_scalar, calabi_energy, energy_report
from .errors import ConfigError, CurvatureUndefinedError, StiffnessError
from .polytope import (
    OFFSETS8,
    Grid,
    boundary_quadrature,
    build_grid,
    eps_region,
    load_polytope,
)
from .potential import (
    SymplecticPotential,
    _sym2_eigenvalues,
    bump_form,
    save_snapshot,
    zero_form,
)


@dataclass(frozen=True)
class FlowState:
    """One time slice of the flow."""

    t: float
    u: SymplecticPotential
    dt_last: float = 0.0
    step_count: int = 0


# retries of a rejected step, each at half the last dt, before StiffnessError
MAX_RETRIES = 10


@dataclass
class MonitorRecord:
    t: float
    calabi: float
    dissipation: float
    calabi_rate_residual: float
    l2_u: float
    boundary_u: float
    min_hess_eig: float
    max_d1: float
    max_d2: float
    max_d3: float
    max_d4: float
    dist_eps: float
    q_d2_max: float
    invariant_j: float
    positivity_ok: bool

    @classmethod
    def columns(cls) -> list:
        """The monitor.csv columns: the fields, in order."""
        return [f.name for f in fields(cls)]

    def csv_row(self) -> str:
        """Floats by repr, bool fields as 0 or 1."""
        vals = (getattr(self, f.name) for f in fields(self))
        return ",".join(str(int(v)) if isinstance(v, bool) else repr(float(v)) for v in vals)


# ---------------------------------------------------------------------------
# right-hand side and stepping


def rhs(state: FlowState, cls: AdmissibleClass, r_bar: float) -> np.ndarray:
    """Node-wise R_bar - R(u): the flow velocity of f, given the class's
    average scalar curvature r_bar (calabiflow.energy.average_scalar)."""
    return r_bar - weighted_scalar_field(state.u, cls)


def proposed_dt(u: SymplecticPotential, sigma: float) -> float:
    """CFL step: sigma * h^4 / (1 + max ||Hess u^{-1}||)^2."""
    s = float(np.max(_sym2_eigenvalues(curvature_context(u)["U"])[1]))
    return sigma * u.grid.h**4 / (1.0 + s) ** 2


def step(state: FlowState, cls: AdmissibleClass, sigma: float, r_bar: float) -> FlowState:
    """One accepted classical RK4 step from the CFL step proposed_dt(u, sigma),
    with r_bar the class's average scalar curvature; halves dt and retries on
    energy increase or positivity failure, raising StiffnessError after
    MAX_RETRIES retries, and ConfigError unless sigma is finite and positive.

    The stages after the first are stage_velocity of the stage's node values,
    with no potential built; the candidate is a potential, whose cached
    curvature and Calabi energy an accepted step hands on.  Positivity is
    checked where the curvature of a stage or of the candidate is computed:
    a Hessian that is not positive definite raises CurvatureUndefinedError
    there."""
    if not 0 < sigma < math.inf:
        raise ConfigError(f"CFL factor sigma must be finite and positive, got {sigma!r}")
    u = state.u
    calabi_now = calabi_energy(u, cls, r_bar)
    f0 = u.f_values
    dt = proposed_dt(u, sigma)
    grid, rec = u.grid, class_record(u.grid, cls)
    # a node-data field is a function of (grid, f_values) alone, so the
    # state's own cached curvature gives the k1 of a fresh copy
    k1 = rhs(state, cls, r_bar) if u.provider == "fd" else stage_velocity(grid, rec, f0, r_bar)
    for _ in range(MAX_RETRIES + 1):
        try:
            k2 = stage_velocity(grid, rec, f0 + 0.5 * dt * k1, r_bar)
            k3 = stage_velocity(grid, rec, f0 + 0.5 * dt * k2, r_bar)
            k4 = stage_velocity(grid, rec, f0 + dt * k3, r_bar)
            f_new = f0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            cand = u.with_node_values(f_new)
            calabi_new = calabi_energy(cand, cls, r_bar)
        except CurvatureUndefinedError:
            dt *= 0.5
            continue
        if calabi_new <= calabi_now + max(1e-12 * calabi_now, 1e-18):
            return FlowState(t=state.t + dt, u=cand, dt_last=dt,
                             step_count=state.step_count + 1)
        dt *= 0.5
    raise StiffnessError(
        f"step rejected {MAX_RETRIES + 1} times at t = {state.t:.6g}",
        last_state=state,
    )


# ---------------------------------------------------------------------------
# Riemannian grid-graph distances

class RegionGraph(NamedTuple):
    """The 8-neighbour graph induced on a region of grid nodes: the edges of
    grid.edges8 with both ends in the region, in the same order.

    nodes holds the region's grid ids, sorted; indices and indptr are the
    CSR structure of the edges on the numbering of nodes.  An edge and its
    reverse are one undirected edge, stored once: undirected edge e joins
    grid node ends[0, e] to the higher id ends[1, e] at offset (dx[e], dy[e]),
    and pair[d] is the undirected edge of the d-th edge in CSR order.  entries
    holds the region nodes, in the numbering of nodes, that an edge from
    outside enters."""

    nodes: np.ndarray
    ends: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    pair: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    entries: np.ndarray


def region_graph(grid: Grid, region) -> RegionGraph:
    """The RegionGraph of a node set of the grid."""
    inside = np.zeros(grid.n_nodes, dtype=bool)
    inside[np.asarray(region, dtype=int)] = True
    nodes = np.nonzero(inside)[0]
    local = np.full(grid.n_nodes, -1, dtype=np.int32)
    local[nodes] = np.arange(len(nodes), dtype=np.int32)
    rows, cols, k, _ = grid.edges8
    entries = np.unique(local[cols[inside[cols] & ~inside[rows]]])
    keep = inside[rows] & inside[cols]
    rows, cols, k = rows[keep].astype(np.intp), cols[keep].astype(np.intp), k[keep]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(np.bincount(local[rows], minlength=len(nodes)), out=indptr[1:])
    # the edges at offsets 4-7 of OFFSETS8 raise the node id; in CSR order
    # they are sorted by (row, col), so each edge finds its undirected edge,
    # the one from its lower end, by its ends' key
    up = k >= 4
    key = rows * grid.n_nodes + cols
    pair = np.searchsorted(key[up], np.minimum(rows, cols) * grid.n_nodes + np.maximum(rows, cols))
    dx, dy = (np.take(o, k[up]) for o in (grid.h * OFFSETS8).T)
    return RegionGraph(nodes=nodes, ends=np.stack([rows[up], cols[up]]), dx=dx, dy=dy,
                       pair=pair, indices=local[cols], indptr=indptr, entries=entries)


def distance_field(graph: RegionGraph, hessians, sources) -> np.ndarray:
    """Dijkstra distances from a source node set on the 8-neighbour graph of
    a region of the grid, graph from region_graph; the whole grid is the
    region of all its nodes.  Returns the distance at each node of the
    region, in the order of graph.nodes.

    hessians is the metric at every grid node as its components (g00, g01,
    g11).  An edge n -> m has metric length sqrt(dx^T G dx), G the mean of
    the Hessians at its two ends.  The length is that of the reverse edge bit
    for bit (the mean's sum commutes, and negating dx and dy is exact), so
    it is computed once per undirected edge.  Zero-length edges stay edges
    of the graph.

    The sources are grid node ids in the region.  Every edge from outside the
    region enters it at a source, at distance 0, so a shortest path to a
    region node never needs to leave the region, and the distances are those
    of the whole graph bit for bit; ValueError for a region that an edge
    enters at a node that is not a source, or a source outside the region.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    sources = np.atleast_1d(np.asarray(sources, dtype=int))
    local = np.searchsorted(graph.nodes, sources)
    if not (local < len(graph.nodes)).all() or not np.array_equal(graph.nodes[local], sources):
        raise ValueError("a source is not a node of the region")
    is_source = np.zeros(len(graph.nodes), dtype=bool)
    is_source[local] = True
    if not is_source[graph.entries].all():
        raise ValueError("an edge enters the region at a node that is not a source")
    dx, dy = graph.dx, graph.dy
    a, b = graph.ends
    g00, g01, g11 = 0.5 * (np.take(hessians, a, axis=1) + np.take(hessians, b, axis=1))
    q = g00 * dx * dx + 2.0 * g01 * dx * dy + g11 * dy * dy
    A = csr_array((np.take(np.sqrt(np.maximum(q, 0.0)), graph.pair), graph.indices, graph.indptr),
                  shape=(len(graph.nodes),) * 2)
    return dijkstra(A, indices=local, min_only=True)


def boundary_ring(grid: Grid, region) -> np.ndarray:
    """Nodes of a region with an 8-neighbour outside it (or off the grid)."""
    inside = np.zeros(grid.n_nodes, dtype=bool)
    inside[np.asarray(region, dtype=int)] = True
    nodes = np.nonzero(inside)[0]
    nbrs = grid.neighbors8[nodes]
    return nodes[((nbrs < 0) | ~inside[nbrs]).any(axis=1)]


# ---------------------------------------------------------------------------
# run driver


def _whole_number(value) -> int:
    """value as an int, or ValueError if it is not a whole number (12.5, NaN)."""
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


@dataclass
class RunConfig:
    """The configuration of one flow run, with the default of every field.
    Construction coerces each field to its type (12.0 to 12, but not 12.5) and
    raises ConfigError for a value it cannot coerce or that is out of range."""

    polytope_path: str
    admissible_class: AdmissibleClass
    grid_n: int = 48
    delta_min_factor: float = 0.5
    perturbation_kind: str = "none"
    perturbation_amplitude: float = 0.0
    perturbation_width: float = 0.8
    perturbation_center: tuple = (0.0, 0.0)
    t_end: float = 0.01
    max_steps: int = None
    cfl_sigma: float = 0.1
    monitor_every: int = 5
    snapshot_every: int = 50
    epsilon: float = 0.25
    out_dir: str = "."

    def __post_init__(self):
        try:
            # a field whose default is a number or a string takes its type
            coerce = {int: _whole_number, float: float, str: str}
            for f in fields(self):
                if type(f.default) in coerce:
                    setattr(self, f.name, coerce[type(f.default)](getattr(self, f.name)))
            self.polytope_path = str(self.polytope_path)
            self.perturbation_center = tuple(float(c) for c in self.perturbation_center)
            self.max_steps = None if self.max_steps is None else _whole_number(self.max_steps)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed run config: {exc}") from exc
        # each check is written so that NaN fails it
        if len(self.perturbation_center) != 2:
            raise ConfigError("perturbation center must hold two numbers")
        if not all(map(math.isfinite, self.perturbation_center)):
            raise ConfigError("perturbation center must be finite")
        if not math.isfinite(self.perturbation_amplitude):
            raise ConfigError("perturbation_amplitude must be finite")
        if not 0 < self.perturbation_width < math.inf:
            raise ConfigError("perturbation_width must be finite and positive")
        if self.grid_n < 2:
            raise ConfigError("grid N must be at least 2")
        if not 0 < self.delta_min_factor:
            raise ConfigError("delta_min_factor must be positive")
        if not self.t_end > 0:
            raise ConfigError("t_end must be positive")
        if not 0 < self.cfl_sigma < math.inf:
            raise ConfigError("cfl_sigma must be finite and positive")
        if self.monitor_every < 1 or self.snapshot_every < 0:
            raise ConfigError("monitor_every must be >= 1 and snapshot_every >= 0")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be finite and positive")
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if self.perturbation_kind not in ("none", "bump"):
            raise ConfigError(f"unknown perturbation kind {self.perturbation_kind!r}")


def initial_correction(cfg: RunConfig):
    if cfg.perturbation_kind == "none":
        return zero_form()
    return bump_form(cfg.perturbation_amplitude, cfg.perturbation_center, cfg.perturbation_width)


class FlowRun:
    """Owns one trajectory: stepping, monitors, and file outputs."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        P = self.polytope = load_polytope(cfg.polytope_path)
        cls = self.cls = cfg.admissible_class
        h = (P.bbox[1][0] - P.bbox[0][0]) / cfg.grid_n
        self.grid = build_grid(P, cfg.grid_n, cfg.delta_min_factor * h)
        form = initial_correction(cfg)
        u0 = SymplecticPotential.from_node_values(P, self.grid, form(*self.grid.points.T))
        self.state = FlowState(t=0.0, u=u0)
        self.bquad = boundary_quadrature(P)
        self.r_bar = average_scalar(P, cls, self.grid, self.bquad)
        self.eps_nodes = eps_region(self.grid, cfg.epsilon)
        self.eps2_nodes = eps_region(self.grid, 2.0 * cfg.epsilon)
        self.eps_ring = boundary_ring(self.grid, self.eps_nodes)
        # a node on both rings: the lattice cannot separate the two level
        # sets; an eps-ring node in the 2eps-region has a neighbour outside
        # the eps-region, so it is on the 2eps-ring
        self.rings_meet = bool(np.intersect1d(self.eps_ring, self.eps2_nodes).size)
        self.records: list[MonitorRecord] = []
        self.initial_witnesses = None

    # -- monitors -----------------------------------------------------------

    @cached_property
    def eps_graph(self) -> RegionGraph:
        """The 8-neighbour graph of the eps-region, built on the first record."""
        return region_graph(self.grid, self.eps_nodes)

    @cached_property
    def _eps2_in_graph(self) -> np.ndarray:
        """The positions of the 2eps-region's nodes in eps_graph.nodes; the
        2eps-region lies inside the eps-region."""
        return np.searchsorted(self.eps_graph.nodes, self.eps2_nodes)

    def _correction_derivative_maxima(self, u: SymplecticPotential) -> dict:
        """Max over the eps-region of |d^k f| per order k (a flow state is node
        data): orders 1 and 2 from the state's jets, 3 and 4 from one
        _f_higher of the state, all fourteen partials gathered at once."""
        sel = self.eps_nodes
        if not len(sel):
            return dict.fromkeys((1, 2, 3, 4), float("nan"))
        # the rows by order, as _f_higher keeps its keys: 2, 3, 4 and 5
        # partials of orders 1-4
        partials = np.vstack([u._f_jet(1), u._f_jet(2), *u._f_higher().values()])
        top = np.maximum.reduceat(np.abs(partials.take(sel, axis=1)).max(axis=1), [0, 2, 5, 9])
        return dict(zip((1, 2, 3, 4), top.tolist()))

    def measure(self) -> MonitorRecord:
        """Evaluate all monitored quantities at the current state."""
        u = self.state.u
        cls = self.cls
        rep = energy_report(u, cls, self.bquad)
        # the Hessian field of the state's curvature context, cached by
        # energy_report; the context exists only once _spd_inverse has
        # certified G positive definite at every node
        G = curvature_context(u)["G"]
        d = self._correction_derivative_maxima(u)
        if len(self.eps_ring) and len(self.eps2_nodes):
            # distances at the eps-region's nodes, in the order of g.nodes;
            # a path from the eps-ring into the 2eps-region crosses its ring
            # first, and lengths are not negative, so the least distance over
            # the 2eps-region is that over its ring
            g = self.eps_graph
            dist = distance_field(g, G, self.eps_ring)
            dist_eps = float("nan") if self.rings_meet else float(np.min(dist[self._eps2_in_graph]))
            rm2 = rm2_total_field(u, cls)
            q = np.sqrt(np.maximum(rm2[g.nodes], 0.0)) * dist**2
            q_d2_max = float(q.max())
        else:
            dist_eps = float("nan")
            q_d2_max = float("nan")
        return MonitorRecord(
            t=self.state.t,
            calabi=rep.calabi,
            dissipation=rep.dissipation,
            calabi_rate_residual=float("nan"),
            l2_u=rep.l2_u,
            boundary_u=rep.boundary_u,
            min_hess_eig=(float(_sym2_eigenvalues(G[:, self.eps_nodes])[0].min())
                          if len(self.eps_nodes) else float("nan")),
            max_d1=d[1], max_d2=d[2], max_d3=d[3], max_d4=d[4],
            dist_eps=dist_eps,
            q_d2_max=q_d2_max,
            invariant_j=rep.invariant_j,
            positivity_ok=True,
        )

    def monitor(self) -> MonitorRecord:
        rec = self.measure()
        self.records.append(rec)
        return rec

    def _fill_rate_residuals(self) -> None:
        # |d(Ca)/dt + 2 dissipation| / dissipation of every record, the
        # dissipation floored at 1e-14, d(Ca)/dt by differences of the records
        rs = self.records
        for k in range(len(rs)):
            if len(rs) < 2:
                break
            if k == 0:
                dca = (rs[1].calabi - rs[0].calabi) / (rs[1].t - rs[0].t) if rs[1].t > rs[0].t else 0.0
            elif k == len(rs) - 1:
                dca = (rs[k].calabi - rs[k - 1].calabi) / (rs[k].t - rs[k - 1].t)
            else:
                dca = (rs[k + 1].calabi - rs[k - 1].calabi) / (rs[k + 1].t - rs[k - 1].t)
            rs[k].calabi_rate_residual = abs(dca + 2.0 * rs[k].dissipation) / max(
                rs[k].dissipation, 1e-14
            )

    # -- driving ------------------------------------------------------------

    def advance(self) -> None:
        """Step to t_end / max_steps, emitting a record every monitor_every
        accepted steps.  The t = 0 state is measured once for the interior
        witness bands but is not a monitor row."""
        cfg = self.cfg
        limit = cfg.max_steps if cfg.max_steps is not None else 10**9
        if self.initial_witnesses is None:
            self.initial_witnesses = self.measure()
        while self.state.t < cfg.t_end and self.state.step_count < limit:
            self.state = step(self.state, self.cls, cfg.cfl_sigma, self.r_bar)
            if self.state.step_count % cfg.monitor_every == 0:
                self.monitor()
            if cfg.snapshot_every and self.state.step_count % cfg.snapshot_every == 0:
                self._write_snapshot()
        self._fill_rate_residuals()

    def _write_snapshot(self) -> None:
        out = Path(self.cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_snapshot(self.state.u, out / f"snapshot_{self.state.step_count:06d}.csv",
                      t=self.state.t)

    def write_outputs(self) -> dict:
        """Monitor CSV and final snapshot; returns their paths."""
        out = Path(self.cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        monitor_path = out / "monitor.csv"
        with open(monitor_path, "w") as fh:
            fh.write(",".join(MonitorRecord.columns()) + "\n")
            for rec in self.records:
                fh.write(rec.csv_row() + "\n")
        final_snap = out / "snapshot_final.csv"
        save_snapshot(self.state.u, final_snap, t=self.state.t)
        return {"monitor": str(monitor_path), "final_snapshot": str(final_snap)}


def run(cfg: RunConfig) -> FlowRun:
    """Execute a configured flow to t_end (or max_steps); partial outputs are
    flushed before a stiffness error propagates."""
    fr = FlowRun(cfg)
    try:
        fr.advance()
    except StiffnessError:
        fr._fill_rate_residuals()
        fr.write_outputs()
        raise
    fr.write_outputs()
    return fr
