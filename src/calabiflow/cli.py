"""Command-line front door: configuration ingestion, subcommand dispatch,
output wiring.  Exit codes: 0 success, 1 check failure, 2 config error,
3 numerical termination."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .curvature import (
    AdmissibleClass,
    abreu_scalar_field,
    admissible_blocks,
    fiber_riemann_norm,
    fiber_riemann_norm_field,
    abreu_scalar,
)
from .energy import average_scalar, energy_report, interior_quadrature
from .errors import (
    CalabiflowError,
    ConfigError,
    CurvatureUndefinedError,
    DegenerateInputError,
    DomainError,
    NumericError,
    RegimeError,
    StiffnessError,
)
from .flow import RunConfig, run
from .polytope import build_grid, standard_triangle
from .potential import SymplecticPotential, fs_inverse_hessian, load_snapshot
from .sobolev import ClassTopology, certify, fiber_energy_bound

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON file {path}: {exc}") from exc


def _require_object(value, what):
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def load_class(data) -> AdmissibleClass:
    if isinstance(data, (str, Path)):
        data = _load_json(data)
    _require_object(data, "class data")
    allowed = {"p", "c_S", "scal_S", "m", "chi_S"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown class keys: {sorted(unknown)}")
    try:
        return AdmissibleClass(
            p=tuple(data["p"]),
            c_S=float(data["c_S"]),
            scal_S=float(data["scal_S"]),
            m=int(data.get("m", 1)),
            chi_S=int(data.get("chi_S", -2)),
        )
    except (KeyError, TypeError, ValueError, DegenerateInputError) as exc:
        raise ConfigError(f"malformed class data: {exc}") from exc


def load_run_config(path, out_dir=None, emit_plots=False) -> RunConfig:
    data = _require_object(_load_json(path), "run config")
    allowed = {
        "polytope", "class", "grid", "perturbation", "t_end", "max_steps",
        "cfl_sigma", "monitor_every", "snapshot_every", "epsilon", "out_dir",
    }
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("polytope", "class"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")
    grid = _require_object(data.get("grid", {}), "grid")
    if set(grid) - {"N", "delta_min_factor"}:
        raise ConfigError(f"unknown grid keys: {sorted(set(grid) - {'N', 'delta_min_factor'})}")
    pert = _require_object(data.get("perturbation", {"kind": "none"}), "perturbation")
    if set(pert) - {"kind", "amplitude", "width", "center"}:
        raise ConfigError(
            f"unknown perturbation keys: {sorted(set(pert) - {'kind', 'amplitude', 'width', 'center'})}"
        )
    ppath = data["polytope"]
    if not Path(ppath).exists():
        raise ConfigError(f"polytope file {ppath} does not exist")
    try:
        cfg = RunConfig(
            polytope_path=str(ppath),
            admissible_class=load_class(data["class"]),
            grid_n=int(grid.get("N", 48)),
            delta_min_factor=float(grid.get("delta_min_factor", 0.5)),
            perturbation_kind=str(pert.get("kind", "none")),
            perturbation_amplitude=float(pert.get("amplitude", 0.0)),
            perturbation_width=float(pert.get("width", 0.8)),
            perturbation_center=tuple(float(c) for c in pert.get("center", (0.0, 0.0))),
            t_end=float(data.get("t_end", 0.01)),
            max_steps=None if data.get("max_steps") is None else int(data["max_steps"]),
            cfl_sigma=float(data.get("cfl_sigma", 0.1)),
            monitor_every=int(data.get("monitor_every", 5)),
            snapshot_every=int(data.get("snapshot_every", 50)),
            epsilon=float(data.get("epsilon", 0.25)),
            out_dir=str(out_dir if out_dir is not None else data.get("out_dir", ".")),
            emit_plots=emit_plots,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed run config: {exc}") from exc
    if len(cfg.perturbation_center) != 2:
        raise ConfigError("perturbation center must hold two numbers")
    if cfg.grid_n < 2:
        raise ConfigError("grid N must be at least 2")
    if not (0 < cfg.delta_min_factor):
        raise ConfigError("delta_min_factor must be positive")
    if cfg.t_end <= 0:
        raise ConfigError("t_end must be positive")
    if cfg.cfl_sigma <= 0:
        raise ConfigError("cfl_sigma must be positive")
    if cfg.monitor_every < 1 or cfg.snapshot_every < 0:
        raise ConfigError("monitor_every must be >= 1 and snapshot_every >= 0")
    if cfg.epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    return cfg


# ---------------------------------------------------------------------------
# baseline golden suite


def baseline_checks(n: int = 48):
    """The canonical-potential golden suite; yields (name, ok, got, expect)."""
    P = standard_triangle()
    grid = build_grid(P, n, 0.5 * 3.0 / n)
    u = SymplecticPotential.fubini_study(grid)

    verts = {(float(round(v[0], 9)), float(round(v[1], 9))) for v in P.vertices}
    yield (
        "triangle vertices",
        verts == {(-1.0, -1.0), (-1.0, 2.0), (2.0, -1.0)},
        sorted(verts),
        "{(-1,-1), (-1,2), (2,-1)}",
    )
    area = interior_quadrature(grid, np.ones(grid.n_nodes))
    yield ("area = 9/2", abs(area - 4.5) <= 1e-6, area, 4.5)
    bm = P.boundary_measure()
    yield ("boundary measure = 9", abs(bm - 9.0) <= 1e-12, bm, 9.0)

    jet = u.evaluate((0.0, 0.0), order=2)
    H = jet.hessian
    yield (
        "Hessian at origin",
        np.allclose(H, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12, rtol=0),
        H.tolist(),
        "[[1, 1/2], [1/2, 1]]",
    )
    Hin = fs_inverse_hessian((0.0, 0.0))
    yield (
        "inverse Hessian at origin",
        np.allclose(Hin, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-12, rtol=0),
        Hin.tolist(),
        "[[4/3, -2/3], [-2/3, 4/3]]",
    )
    det = float(np.linalg.det(H))
    yield ("det Hessian at origin = 3/4", abs(det - 0.75) <= 1e-12, det, 0.75)
    prod = H @ Hin
    yield (
        "Hessian x inverse = identity",
        np.allclose(prod, np.eye(2), atol=1e-12, rtol=0),
        prod.tolist(),
        "I",
    )

    R = abreu_scalar_field(u)
    yield ("scalar curvature = 4 everywhere", np.abs(R - 4.0).max() <= 1e-10,
           float(np.abs(R - 4.0).max()), "max |R - 4| <= 1e-10")
    rm2 = fiber_riemann_norm_field(u)
    yield ("|Rm|^2 = 4/3 everywhere", np.abs(rm2 - 4.0 / 3.0).max() <= 1e-10,
           float(np.abs(rm2 - 4.0 / 3.0).max()), "max |.| <= 1e-10")

    Uf = fs_inverse_hessian(grid.points)
    dbounds = (
        np.all(Uf[:, 0, 0] < 3.0)
        and np.all(Uf[:, 1, 1] < 3.0)
        and np.all(np.abs(Uf[:, 0, 1]) < 6.0)
    )
    yield ("inverse-Hessian entry bounds", bool(dbounds),
           [float(Uf[:, 0, 0].max()), float(Uf[:, 1, 1].max()), float(np.abs(Uf[:, 0, 1]).max())],
           "v_xx < 3, v_yy < 3, |v_xy| < 6")
    x, y = grid.points[:, 0], grid.points[:, 1]
    d1 = np.abs(2.0 / 3.0 * (1.0 - 2.0 * x))
    d2 = np.abs(-2.0 / 3.0 * (1.0 + y))
    d3 = np.abs(-2.0 / 3.0 * (1.0 + x))
    d4 = np.abs(2.0 / 3.0 * (1.0 - 2.0 * y))
    ok = all(v.max() <= 2.0 + 1e-12 for v in (d1, d2, d3, d4))
    yield ("inverse-Hessian derivative bounds", bool(ok),
           [float(v.max()) for v in (d1, d2, d3, d4)], "all <= 2")

    triv = AdmissibleClass.trivial()
    rbar = average_scalar(P, triv, grid)
    yield ("average scalar curvature = 4", abs(rbar - 4.0) <= 1e-6, rbar, 4.0)
    vol = 0.5 * (2.0 * math.pi) ** 2 * area
    yield ("fiber volume = 9 pi^2", abs(vol - 9.0 * math.pi**2) <= 1e-6, vol, 9.0 * math.pi**2)

    topo = ClassTopology.standard_o3()
    cert = certify(0.0, topo)
    yield (
        "Yamabe lower bound at zero energy = 12 pi",
        abs(cert.yamabe_lower - 12.0 * math.pi) <= 1e-12 * 12.0 * math.pi,
        cert.yamabe_lower,
        12.0 * math.pi,
    )
    yield (
        "Sobolev bound at zero energy = 1",
        abs(cert.sobolev_bound - 1.0) <= 1e-12,
        cert.sobolev_bound,
        1.0,
    )


def cmd_baseline(args) -> int:
    results = []
    for name, ok, got, expect in baseline_checks():
        results.append({"check": name, "ok": bool(ok), "got": got, "expected": expect})
    if args.json:
        print(json.dumps({"checks": results, "passed": all(r["ok"] for r in results)}, indent=2))
    else:
        for r in results:
            mark = "ok  " if r["ok"] else "FAIL"
            print(f"[{mark}] {r['check']}: got {r['got']}")
        n_bad = sum(not r["ok"] for r in results)
        print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def cmd_flow(args) -> int:
    cfg = load_run_config(args.config, out_dir=args.out_dir, emit_plots=args.emit_plots)
    fr = run(cfg)
    rep = energy_report(fr.state.u, fr.cls, fr.bquad)
    summary = {
        "t": fr.state.t,
        "steps": fr.state.step_count,
        "dt_last": fr.state.dt_last,
        "records": len(fr.records),
        "final_report": rep.to_dict(),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"flow finished at t = {fr.state.t:.6g} after {fr.state.step_count} steps")
        print(f"final calabi = {rep.calabi:.6g}, dissipation = {rep.dissipation:.6g}")
        print(f"monitor rows: {len(fr.records)} -> {cfg.out_dir}/monitor.csv")
    return EXIT_OK


def _load_snapshot_potential(path):
    try:
        return load_snapshot(path)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc


def cmd_curvature(args) -> int:
    u, t = _load_snapshot_potential(args.snapshot)
    x = np.array([args.at[0], args.at[1]], dtype=float)
    if not u.polytope.contains(x):
        raise DomainError(f"point {tuple(x)} lies outside the open polytope")
    k = u.node_index(x)
    node = u.grid.points[k]
    if args.cls is not None:
        cls = load_class(args.cls)
        sample = admissible_blocks(u, cls, node)
        out = sample.to_dict()
    else:
        out = {
            "point": [float(node[0]), float(node[1])],
            "r_fiber": abreu_scalar(u, node),
            "rm2_fiber": fiber_riemann_norm(u, node),
            "r_weighted": None,
            "rm_0000": None,
            "rm_00ij": None,
            "rm_ijkl": None,
            "ric_00": None,
            "ric_ij": None,
            "rm2_total": None,
        }
    out["requested_point"] = [float(x[0]), float(x[1])]
    out["t"] = t
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_energy(args) -> int:
    u, t = _load_snapshot_potential(args.snapshot)
    cls = load_class(args.cls) if args.cls is not None else AdmissibleClass.trivial()
    rep = energy_report(u, cls)
    out = rep.to_dict()
    out["t"] = t
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_sobolev_bound(args) -> int:
    cls = load_class(args.cls) if args.cls is not None else None
    chi = cls.chi_S if cls is not None else -2
    topo = ClassTopology.standard_o3(euler_char_base=chi)
    cert = certify(float(args.ca), topo)
    print(json.dumps(cert.to_dict(), indent=2))
    return EXIT_OK


def cmd_fiber_bound(args) -> int:
    cls = load_class(args.cls)
    fb = fiber_energy_bound(cls)
    print(json.dumps(fb.to_dict(), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="calabiflow",
        description="Calabi-flow laboratory on toric Kahler classes",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--emit-plots", action="store_true",
                    help="write one whitespace-separated data file per monitored series")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("baseline", help="run the canonical-potential golden suite")

    p_flow = sub.add_parser("flow", help="run a configured flow")
    p_flow.add_argument("config", help="run configuration JSON")
    p_flow.add_argument("--out-dir", default=None, help="override the config's out_dir")

    p_curv = sub.add_parser("curvature", help="curvature sample from a snapshot")
    p_curv.add_argument("--snapshot", required=True)
    p_curv.add_argument("--at", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p_curv.add_argument("--class", dest="cls", default=None, help="class JSON file")

    p_en = sub.add_parser("energy", help="energy report from a snapshot")
    p_en.add_argument("--snapshot", required=True)
    p_en.add_argument("--class", dest="cls", default=None, help="class JSON file")

    p_sb = sub.add_parser("sobolev-bound", help="Yamabe/Sobolev certificate for a Calabi energy")
    p_sb.add_argument("--ca", type=float, required=True)
    p_sb.add_argument("--class", dest="cls", default=None, help="class JSON file")

    p_fb = sub.add_parser("fiber-bound", help="controlled-class fiber energy bound")
    p_fb.add_argument("--class", dest="cls", required=True, help="class JSON file")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "baseline": cmd_baseline,
        "flow": cmd_flow,
        "curvature": cmd_curvature,
        "energy": cmd_energy,
        "sobolev-bound": cmd_sobolev_bound,
        "fiber-bound": cmd_fiber_bound,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DegenerateInputError, DomainError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StiffnessError, CurvatureUndefinedError, NumericError) as exc:
        print(f"numerical termination: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CalabiflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
