"""Explicit time integration of the Calabi flow du/dt = R_bar - R(u) acting on
the smooth correction f, with per-step estimate monitors."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .curvature import (
    AdmissibleClass,
    curvature_context,
    rm2_total_field,
    weighted_scalar_field,
)
from .energy import average_scalar, energy_report, interior_quadrature
from .errors import ConfigError, CurvatureUndefinedError, StiffnessError
from .polytope import OFFSETS8, Grid, boundary_quadrature, build_grid, eps_region, load_polytope
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


@dataclass
class StepPolicy:
    """Explicit stepping policy: classical RK4 under an h^4 parabolic CFL."""

    sigma: float = 0.1
    max_retries: int = 10


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


def rhs(state: FlowState, cls: AdmissibleClass, r_bar: float = None) -> np.ndarray:
    """Node-wise R_bar - R(u): the flow velocity of f."""
    u = state.u
    if r_bar is None:
        r_bar = average_scalar(u.polytope, cls, u.grid)
    return r_bar - weighted_scalar_field(u, cls)


def proposed_dt(u: SymplecticPotential, sigma: float) -> float:
    """CFL step: sigma * h^4 / (1 + max ||Hess u^{-1}||)^2."""
    s = float(np.max(_sym2_eigenvalues(curvature_context(u)["U"])[1]))
    return sigma * u.grid.h**4 / (1.0 + s) ** 2


def _calabi(u: SymplecticPotential, cls: AdmissibleClass, r_bar: float) -> float:
    pw = cls.weight(u.grid.points)
    R = weighted_scalar_field(u, cls)
    return interior_quadrature(u.grid, (R - r_bar) ** 2 * pw)


def step(state: FlowState, cls: AdmissibleClass, policy: StepPolicy = None,
         r_bar: float = None, calabi_now: float = None) -> FlowState:
    """One accepted RK4 step; halves dt and retries on energy increase or
    positivity failure, raising StiffnessError after max_retries rejections.

    Positivity is checked where the curvature of a stage or of the candidate
    is computed: a Hessian that is not positive definite raises
    CurvatureUndefinedError there."""
    if policy is None:
        policy = StepPolicy()
    u = state.u
    grid = u.grid
    if r_bar is None:
        r_bar = average_scalar(u.polytope, cls, grid)
    if calabi_now is None:
        calabi_now = _calabi(u, cls, r_bar)
    f0 = u.f_values
    dt = proposed_dt(u, policy.sigma)

    def velocity(f_stage: np.ndarray) -> np.ndarray:
        # the flow is autonomous, so a stage keeps the step's start time
        return rhs(FlowState(t=state.t, u=u.with_node_values(f_stage)), cls, r_bar)

    # a node-data field is a function of (grid, f_values) alone, so the
    # state's own cached curvature gives the k1 of a fresh copy
    k1 = rhs(state, cls, r_bar) if u.provider == "fd" else velocity(f0)
    for attempt in range(policy.max_retries + 1):
        try:
            k2 = velocity(f0 + 0.5 * dt * k1)
            k3 = velocity(f0 + 0.5 * dt * k2)
            k4 = velocity(f0 + dt * k3)
            f_new = f0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            cand = u.with_node_values(f_new)
            calabi_new = _calabi(cand, cls, r_bar)
        except CurvatureUndefinedError:
            dt *= 0.5
            continue
        if calabi_new <= calabi_now + max(1e-12 * calabi_now, 1e-18):
            return FlowState(t=state.t + dt, u=cand, dt_last=dt,
                             step_count=state.step_count + 1)
        dt *= 0.5
    raise StiffnessError(
        f"step rejected {policy.max_retries + 1} times at t = {state.t:.6g}",
        last_state=state,
    )


# ---------------------------------------------------------------------------
# Riemannian grid-graph distances

def distance_field(grid: Grid, hessians: np.ndarray, sources) -> np.ndarray:
    """Dijkstra distances from a source node set on the 8-neighbour graph.

    An edge n -> m has metric length sqrt(dx^T G dx), G the mean of the
    Hessians at its two ends.  Zero-length edges stay edges of the graph.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    rows, k = np.nonzero(grid.neighbors8 >= 0)
    cols = grid.neighbors8[rows, k]
    dx, dy = (grid.h * OFFSETS8[k]).T
    G = 0.5 * (hessians[rows] + hessians[cols])
    q = G[:, 0, 0] * dx * dx + 2.0 * G[:, 0, 1] * dx * dy + G[:, 1, 1] * dy * dy
    A = csr_array((np.sqrt(np.maximum(q, 0.0)), (rows, cols)), shape=(grid.n_nodes,) * 2)
    sources = np.atleast_1d(np.asarray(sources, dtype=int))
    return dijkstra(A, indices=sources, min_only=True)


def riemannian_distance(u: SymplecticPotential, A, B) -> float:
    """Shortest grid-graph distance between node sets in the Hessian metric."""
    A = np.atleast_1d(np.asarray(A, dtype=int))
    B = np.atleast_1d(np.asarray(B, dtype=int))
    if len(A) == 0 or len(B) == 0:
        raise ValueError("node sets must be nonempty")
    dist = distance_field(u.grid, u.hessians(), A)
    return float(np.min(dist[B]))


def boundary_ring(grid: Grid, region) -> np.ndarray:
    """Nodes of a region with an 8-neighbour outside it (or off the grid)."""
    inside = np.zeros(grid.n_nodes, dtype=bool)
    inside[np.asarray(region, dtype=int)] = True
    nodes = np.nonzero(inside)[0]
    nbrs = grid.neighbors8[nodes]
    return nodes[((nbrs < 0) | ~inside[nbrs]).any(axis=1)]


# ---------------------------------------------------------------------------
# run driver


@dataclass
class RunConfig:
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
    emit_plots: bool = False


def initial_correction(cfg: RunConfig):
    if cfg.perturbation_kind == "none":
        return zero_form()
    if cfg.perturbation_kind == "bump":
        return bump_form(cfg.perturbation_amplitude, cfg.perturbation_center,
                         cfg.perturbation_width)
    raise ConfigError(f"unknown perturbation kind {cfg.perturbation_kind!r}")


class FlowRun:
    """Owns one trajectory: stepping, monitors, and file outputs."""

    def __init__(self, cfg: RunConfig, polytope=None):
        self.cfg = cfg
        self.polytope = polytope if polytope is not None else load_polytope(cfg.polytope_path)
        cls = cfg.admissible_class
        cls.validate_on(self.polytope)
        self.cls = cls
        h = (self.polytope.bbox[1][0] - self.polytope.bbox[0][0]) / cfg.grid_n
        self.grid = build_grid(self.polytope, cfg.grid_n, cfg.delta_min_factor * h)
        form = initial_correction(cfg)
        u0 = SymplecticPotential.from_closed_form(self.polytope, self.grid, form)
        self.state = FlowState(t=0.0, u=u0.with_node_values(u0.f_values))
        self.policy = StepPolicy(sigma=cfg.cfl_sigma)
        self.r_bar = average_scalar(self.polytope, cls, self.grid)
        self.bquad = boundary_quadrature(self.polytope)
        self.eps_nodes = eps_region(self.polytope, self.grid, cfg.epsilon)
        self.eps2_nodes = eps_region(self.polytope, self.grid, 2.0 * cfg.epsilon)
        self.eps_ring = boundary_ring(self.grid, self.eps_nodes)
        self.eps2_ring = boundary_ring(self.grid, self.eps2_nodes)
        self.records: list[MonitorRecord] = []
        self.initial_witnesses = None
        self.keep_states = False
        self.states: list[FlowState] = []

    # -- monitors -----------------------------------------------------------

    def _correction_derivative_maxima(self, u: SymplecticPotential) -> dict:
        """Max over the eps-region of |d^k f| per order k (a flow state is node data)."""
        sel = self.eps_nodes
        out = {}
        for k in (1, 2, 3, 4):
            comps = [np.abs(u.f_partial((a, k - a))[sel]).max() if len(sel) else np.nan
                     for a in range(k + 1)]
            out[k] = float(np.max(comps))
        return out

    def measure(self) -> MonitorRecord:
        """Evaluate all monitored quantities at the current state."""
        u = self.state.u
        cls = self.cls
        rep = energy_report(u, cls, self.bquad)
        eigs = u.min_hessian_eigenvalues()
        positivity = bool(np.min(eigs) > 0)
        d = self._correction_derivative_maxima(u)
        hess = u.hessians()
        if len(self.eps_ring) and len(self.eps2_ring):
            dist = distance_field(self.grid, hess, self.eps_ring)
            dist_eps = float(np.min(dist[self.eps2_ring]))
            rm2 = rm2_total_field(u, cls)
            q = np.sqrt(np.maximum(rm2[self.eps_nodes], 0.0)) * dist[self.eps_nodes] ** 2
            q_d2_max = float(q.max()) if len(q) else float("nan")
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
            min_hess_eig=float(eigs[self.eps_nodes].min()) if len(self.eps_nodes) else float("nan"),
            max_d1=d[1], max_d2=d[2], max_d3=d[3], max_d4=d[4],
            dist_eps=dist_eps,
            q_d2_max=q_d2_max,
            invariant_j=rep.invariant_j,
            positivity_ok=positivity,
        )

    def monitor(self) -> MonitorRecord:
        rec = self.measure()
        self.records.append(rec)
        if self.keep_states:
            self.states.append(self.state)
        return rec

    def _fill_rate_residuals(self, floor: float = 1e-14) -> None:
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
                rs[k].dissipation, floor
            )

    # -- driving ------------------------------------------------------------

    def advance(self, n_steps: int = None) -> None:
        """Step to t_end / max_steps, emitting a record every monitor_every
        accepted steps.  The t = 0 state is measured once for the interior
        witness bands but is not a monitor row."""
        cfg = self.cfg
        limit = cfg.max_steps if cfg.max_steps is not None else 10**9
        if n_steps is not None:
            limit = min(limit, self.state.step_count + n_steps)
        if self.initial_witnesses is None:
            self.initial_witnesses = self.measure()
        while self.state.t < cfg.t_end and self.state.step_count < limit:
            self.state = step(self.state, self.cls, self.policy, r_bar=self.r_bar)
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
        """Monitor CSV, final snapshot, optional plot series; returns paths."""
        out = Path(self.cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        monitor_path = out / "monitor.csv"
        with open(monitor_path, "w") as fh:
            fh.write(",".join(MonitorRecord.columns()) + "\n")
            for rec in self.records:
                fh.write(rec.csv_row() + "\n")
        final_snap = out / "snapshot_final.csv"
        save_snapshot(self.state.u, final_snap, t=self.state.t)
        paths = {"monitor": str(monitor_path), "final_snapshot": str(final_snap)}
        if self.cfg.emit_plots:
            for name in MonitorRecord.columns()[1:]:
                p = out / f"plot_{name}.dat"
                with open(p, "w") as fh:
                    for rec in self.records:
                        val = getattr(rec, name)
                        fh.write(f"{rec.t!r} {float(val)!r}\n")
                paths[f"plot_{name}"] = str(p)
        return paths


def run(cfg: RunConfig, polytope=None) -> FlowRun:
    """Execute a configured flow to t_end (or max_steps); partial outputs are
    flushed before a stiffness error propagates."""
    fr = FlowRun(cfg, polytope=polytope)
    try:
        fr.advance()
    except StiffnessError:
        fr._fill_rate_residuals()
        fr.write_outputs()
        raise
    fr.write_outputs()
    return fr
