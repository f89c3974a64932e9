"""The three benchmark workloads.

Each workload is a sequence of passes.  A pass is a set-up (timed as
``setup_s``) followed by the work a user waits for (timed as ``wall_s``),
then output checks (not timed).  Inputs come only from the seed, so every
pass of one run does the same work and must produce the same outputs.

* ``tri48_monitored`` -- the acceptance flow: standard triangle, N=48, a
  seeded bump near ``bump_form(0.05)``, a monitor record every 5 steps,
  200 accepted steps per pass.
* ``tri96_stepping`` -- the same class and bump at N=96, 225 steps per pass
  with a record every 75, so about 90% of the pass is spent inside
  ``flow.step``.
* ``hex_analysis`` -- read-only analysis of a seeded node-data snapshot on a
  hexagon at N=128: set-up, snapshot round trip, fd and analytic energy
  reports, the Sobolev tester, curvature blocks at seeded nodes, the
  controlled-class certificate and a dissipation-identity probe.  No RK4 step
  is taken.

Every call whose time is reported goes through ``HostSpeed.time`` (see
``hostspeed.py``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import calabiflow.curvature as curvature
import calabiflow.energy as energy
import calabiflow.flow as flow
import calabiflow.polytope as polytope
import calabiflow.potential as potential
import calabiflow.sobolev as sobolev
from hostspeed import HostSpeed

BUNDLE_CLASS = curvature.AdmissibleClass(p=(1.0, 1.0), c_S=12.0, scal_S=-1.0, m=1, chi_S=-2)
CFL_SIGMA = 0.1


def hexagon() -> polytope.DelzantPolytope:
    """Normals (+-1, 0), (0, +-1), +-(1, 1); offsets 1, 1, 1.5."""
    return polytope.DelzantPolytope(
        normals=np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]),
        offsets=np.array([1.0, 1.0, 1.0, 1.0, 1.5, 1.5]),
    )


def seeded_bump(rng: np.random.Generator) -> dict:
    """Bump parameters jittered around bump_form(0.05).

    The jitter is kept small because the fd errors and the rate residual move
    by several percent for a 3% change of width or a 0.03 shift of centre."""
    return {
        "amplitude": 0.05 * (1.0 + 0.003 * rng.uniform(-1.0, 1.0)),
        "center": (0.001 * rng.uniform(-1.0, 1.0), 0.001 * rng.uniform(-1.0, 1.0)),
        "width": 0.8 * (1.0 + 0.001 * rng.uniform(-1.0, 1.0)),
    }


def bump(params: dict) -> potential.ClosedForm:
    """A fresh closed form, so each pass pays its own symbolic set-up."""
    return potential.bump_form(params["amplitude"], params["center"], params["width"])


class Checks:
    """Output checks; every failure is kept with its detail."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


def fd_error_at(P, grid, form, cls, r_bar):
    """(Calabi-energy relative error, max |R_fd - R_analytic|) over all nodes."""
    x, y = grid.points[:, 0], grid.points[:, 1]
    ua = potential.SymplecticPotential.from_closed_form(P, grid, form)
    uf = potential.SymplecticPotential.from_node_values(P, grid, form(x, y))
    pw = cls.weight(grid.points)
    Ra = curvature.weighted_scalar_field(ua, cls)
    Rf = curvature.weighted_scalar_field(uf, cls)
    ca_a = energy.interior_quadrature(grid, (Ra - r_bar) ** 2 * pw)
    ca_f = energy.interior_quadrature(grid, (Rf - r_bar) ** 2 * pw)
    return abs(ca_f - ca_a) / ca_a, float(np.max(np.abs(Rf - Ra)))


class Samples:
    """Timings (host-corrected seconds) and outputs gathered over one run."""

    TIMINGS = ("setup_s", "wall_s", "step_s", "monitor_s", "cold_start_s")

    def __init__(self, host: HostSpeed):
        self.host = host
        for key in self.TIMINGS:
            setattr(self, key, [])
        self.raw = {key: [] for key in self.TIMINGS}
        self.sim_t = []           # flow time covered per pass
        self.rate_residual = []
        self.dt_last = []
        self.proposed_dt = []

    def add(self, key: str, raw: float, factor: float) -> None:
        getattr(self, key).append(raw * factor)
        self.raw[key].append(raw)

    def timed(self, key: str, fn, *args, **kwargs):
        """Call fn through the host-speed timer, recording it under key."""
        result, raw, factor = self.host.time(fn, *args, **kwargs)
        self.add(key, raw, factor)
        return result

    def to_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self.TIMINGS}
        out.update(raw=self.raw, sim_t=self.sim_t, rate_residual=self.rate_residual,
                   dt_last=self.dt_last, proposed_dt=self.proposed_dt)
        return out


# ---------------------------------------------------------------------------


class FlowWorkload:
    """A monitored RK4 flow of a seeded bump on the standard triangle."""

    def __init__(self, name, seed, out_dir: Path, checks: Checks,
                 n, steps, monitor_every, acceptance_gates):
        self.name = name
        self.n = n
        self.steps = steps
        self.monitor_every = monitor_every
        self.acceptance_gates = acceptance_gates
        self.out_dir = out_dir
        self.checks = checks
        rng = np.random.default_rng(seed)
        self.bump = seeded_bump(rng)
        self.cli_ca = [float(v) * math.pi**2 for v in rng.uniform(0.0, 40.0, 3)]
        self.P = polytope.standard_triangle()
        self.polytope_path = out_dir / "triangle.json"
        polytope.save_polytope(self.P, self.polytope_path)
        self.first_monitor_csv = None
        self.last_grid = None

    def config(self) -> flow.RunConfig:
        return flow.RunConfig(
            polytope_path=str(self.polytope_path),
            admissible_class=BUNDLE_CLASS,
            grid_n=self.n,
            perturbation_kind="bump",
            perturbation_amplitude=self.bump["amplitude"],
            perturbation_center=self.bump["center"],
            perturbation_width=self.bump["width"],
            t_end=1.0,
            max_steps=self.steps,
            cfl_sigma=CFL_SIGMA,
            monitor_every=self.monitor_every,
            snapshot_every=0,
            out_dir=str(self.out_dir / "flow"),
        )

    def setup(self, host: HostSpeed):
        """FlowRun construction plus the lazy stencil and LS-band build."""
        fr, _, _ = host.time(flow.FlowRun, self.config())
        host.time(fr.grid.field_jets, fr.state.u.f_values)
        return fr

    def work(self, fr, samples: Samples) -> None:
        """advance() and write_outputs(); each measure() (the t = 0 witnesses
        and every record) is one monitor sample.  flow.step is timed by the
        wrapper the run installs."""
        inner_measure = fr.measure
        fr.measure = lambda: samples.timed("monitor_s", inner_measure)
        fr.advance()
        self.paths, _, _ = samples.host.time(fr.write_outputs)
        samples.sim_t.append(fr.state.t)
        self.last_grid = fr.grid

    def check(self, fr, samples: Samples) -> None:
        c = self.checks
        recs = fr.records
        ca = [r.calabi for r in recs]
        c.check(f"{self.name} accepted steps", fr.state.step_count == self.steps,
                fr.state.step_count)
        c.check(f"{self.name} calabi energy monotone",
                len(ca) >= 2 and all(ca[k + 1] < ca[k] for k in range(len(ca) - 1)), ca)
        c.check(f"{self.name} positivity at every record",
                all(r.positivity_ok for r in recs), [r.positivity_ok for r in recs])
        res = [r.calabi_rate_residual for r in recs[1:]]
        samples.rate_residual.append(max(res) if res else float("nan"))
        if self.acceptance_gates:
            c.check(f"{self.name} rate residual <= 5% after the first record",
                    bool(res) and max(res) <= 0.05, res)
            ij = [r.invariant_j for r in recs]
            drift = (max(ij) - min(ij)) / abs(ij[0])
            c.check(f"{self.name} invariant drift <= 1%", drift <= 0.01, drift)
        monitor_csv = Path(self.paths["monitor"]).read_bytes()
        if self.first_monitor_csv is None:
            self.first_monitor_csv = monitor_csv
        else:
            c.check(f"{self.name} monitor.csv identical across passes",
                    monitor_csv == self.first_monitor_csv, "outputs differ between passes")

    def sim_t_per_wall_s(self, samples: Samples) -> float:
        """Flow time reached per wall second of the passes."""
        return sum(samples.sim_t) / sum(samples.wall_s)

    def fd_errors(self):
        """Node-data against analytic curvature for the initial bump."""
        grid = self.last_grid
        r_bar = energy.average_scalar(self.P, BUNDLE_CLASS, grid)
        return fd_error_at(self.P, grid, bump(self.bump), BUNDLE_CLASS, r_bar)

    def node_counts(self) -> dict:
        return {"flow_grid": int(self.last_grid.n_nodes)} if self.last_grid else {}

    def polytopes(self) -> dict:
        return {"triangle": self.P.content_hash()}


class HexAnalysis:
    """Read-only analysis of a seeded node-data snapshot on the hexagon."""

    BLOCK_NODES = 16

    def __init__(self, name, seed, out_dir: Path, checks: Checks, n):
        self.name = name
        self.n = n
        self.out_dir = out_dir
        self.checks = checks
        rng = np.random.default_rng(seed)
        self.bump = seeded_bump(rng)
        self.cli_ca = [float(v) * math.pi**2 for v in rng.uniform(0.0, 40.0, 3)]
        self.block_seed = int(rng.integers(2**31))
        self.P = hexagon()
        self.snapshot_path = out_dir / "hex_snapshot.csv"
        self.fd_errs = None
        self.last_grid = None

    def setup(self, host: HostSpeed):
        P = self.P
        h = (P.bbox[1][0] - P.bbox[0][0]) / self.n
        grid, _, _ = host.time(polytope.build_grid, P, self.n, 0.5 * h)
        host.time(lambda: grid.cell_weights)
        host.time(lambda: grid.boundary_distance)
        quad, _, _ = host.time(polytope.boundary_quadrature, P)
        r_bar, _, _ = host.time(energy.average_scalar, P, BUNDLE_CLASS, grid, quad)
        host.time(grid.field_jets, np.zeros(grid.n_nodes))
        return grid, quad, r_bar

    def work(self, state, samples: Samples) -> None:
        grid, quad, r_bar = state
        P, cls, t = self.P, BUNDLE_CLASS, samples.host.time
        form = bump(self.bump)
        self.f_nodes = form(grid.points[:, 0], grid.points[:, 1])
        source = potential.SymplecticPotential.from_node_values(P, grid, self.f_nodes)
        t(potential.save_snapshot, source, self.snapshot_path, t=0.0)
        (self.loaded, _), _, _ = t(potential.load_snapshot, self.snapshot_path, P)
        u_fd = potential.SymplecticPotential.from_node_values(P, grid, self.loaded.f_values)
        u_an = potential.SymplecticPotential.from_closed_form(P, grid, form)

        rep_fd = samples.timed("monitor_s", energy.energy_report, u_fd, cls, quad)
        rep_an, _, _ = t(energy.energy_report, u_an, cls, quad)
        r_err = float(np.max(np.abs(curvature.weighted_scalar_field(u_fd, cls)
                                    - curvature.weighted_scalar_field(u_an, cls))))
        self.fd_errs = (abs(rep_fd.calabi - rep_an.calabi) / rep_an.calabi, r_err)

        t(sobolev.sobolev_inequality_test, u_fd, cls)
        nodes = np.random.default_rng(self.block_seed).choice(
            grid.n_nodes, size=min(self.BLOCK_NODES, grid.n_nodes), replace=False)
        for k in nodes:
            t(curvature.admissible_blocks, u_fd, cls, grid.points[k])
            t(curvature.admissible_blocks, u_an, cls, grid.points[k])
        self.fiber_bound, _, _ = t(sobolev.fiber_energy_bound, cls, polytope=P)
        t(sobolev.certify, rep_fd.calabi, sobolev.ClassTopology.standard_o3(cls.chi_S))

        samples.rate_residual.append(self._rate_probe(u_fd, rep_fd.dissipation, r_bar, samples))
        self.last_grid = grid

    def check(self, state, samples: Samples) -> None:
        grid = state[0]
        c = self.checks
        area = float(grid.cell_weights.sum())
        c.check("hex cell weights sum to the polygon area",
                abs(area - self.P.area) <= 1e-9 * self.P.area, area - self.P.area)
        c.check("hex snapshot round trip reproduces f exactly",
                np.array_equal(self.loaded.grid.ij, grid.ij)
                and np.array_equal(self.loaded.f_values, self.f_nodes), "node data differ")
        cert = self.fiber_bound.certificate
        c.check("hex controlled-class certificate has a bound",
                cert is not None and cert.has_bound, self.fiber_bound.to_dict())

    # eighth-order central first difference: offsets in CFL steps -> weights
    PROBE = {1: 4 / 5, 2: -1 / 5, 3: 4 / 105, 4: -1 / 280}

    def _rate_probe(self, u, dissipation, r_bar, samples: Samples) -> float:
        """|dCa/dt + 2 D| / D at the snapshot, with dCa/dt from a central
        difference along the flow velocity at the CFL step size.

        Each flow-velocity evaluation on a fresh state is one "step" sample."""
        cls, grid = BUNDLE_CLASS, u.grid
        pw = cls.weight(grid.points)

        def velocity(f):
            st = flow.FlowState(t=0.0, u=u.with_node_values(f))
            return samples.timed("step_s", flow.rhs, st, cls, r_bar)

        f0 = u.f_values
        v0 = velocity(f0)
        dt = flow.proposed_dt(u, CFL_SIGMA)
        ca = {s: energy.interior_quadrature(grid, velocity(f0 + s * dt * v0) ** 2 * pw)
              for k in self.PROBE for s in (k, -k)}
        rate = sum(w * (ca[k] - ca[-k]) for k, w in self.PROBE.items()) / dt
        return abs(rate + 2.0 * dissipation) / dissipation

    def sim_t_per_wall_s(self, samples: Samples) -> float:
        """Flow time per wall second of an explicit one-stage flow from the
        snapshot: one CFL step per flow-velocity evaluation."""
        return float(np.median(samples.proposed_dt)) / float(np.median(samples.step_s))

    def fd_errors(self):
        return self.fd_errs

    def node_counts(self) -> dict:
        return {"hex_grid": int(self.last_grid.n_nodes)} if self.last_grid else {}

    def polytopes(self) -> dict:
        return {"hexagon": self.P.content_hash()}


# name -> (class, full-size parameters, tiny parameters for the self-test)
WORKLOADS = {
    "tri48_monitored": (
        FlowWorkload,
        {"n": 48, "steps": 200, "monitor_every": 5, "acceptance_gates": True},
        # the acceptance thresholds belong to the N=48 configuration
        {"n": 12, "steps": 20, "monitor_every": 5, "acceptance_gates": False},
    ),
    "tri96_stepping": (
        FlowWorkload,
        {"n": 96, "steps": 225, "monitor_every": 75, "acceptance_gates": False},
        {"n": 16, "steps": 20, "monitor_every": 10, "acceptance_gates": False},
    ),
    "hex_analysis": (HexAnalysis, {"n": 128}, {"n": 16}),
}
