"""Command-line front door: configuration ingestion, subcommand dispatch,
output wiring.  Exit codes: 0 success, 1 check failure, 2 config error,
3 numerical termination."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# each command imports the modules it runs, so `sobolev-bound` loads no numpy,
# no dataclasses and no grid, potential, curvature, energy or flow code
from ._serialize import json_value
from .errors import (
    ConfigError,
    CurvatureUndefinedError,
    DegenerateInputError,
    DomainError,
    RegimeError,
    StiffnessError,
)
from .sobolev import ClassTopology, certify, fiber_energy_bound

if TYPE_CHECKING:
    from .curvature import AdmissibleClass
    from .flow import RunConfig

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, or bytes that do not decode
        raise ConfigError(f"cannot read JSON file {path}: {exc}") from exc


def _require_object(value, what):
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    return value


def load_class(data) -> AdmissibleClass:
    """The AdmissibleClass of a JSON object or file; a key left out keeps the
    class's default, and the class checks the values."""
    from dataclasses import fields

    from .curvature import AdmissibleClass

    if isinstance(data, (str, Path)):
        data = _load_json(data)
    _require_object(data, "class data")
    unknown = set(data) - {f.name for f in fields(AdmissibleClass)}
    if unknown:
        raise ConfigError(f"unknown class keys: {sorted(unknown)}")
    try:
        return AdmissibleClass(**data)
    except (TypeError, DegenerateInputError) as exc:
        # TypeError: a required key is missing
        raise ConfigError(f"malformed class data: {exc}") from exc


# the RunConfig field each key of a run config sets; a nested table is the
# table of a nested JSON object
_RUN_CONFIG_KEYS = {
    "polytope": "polytope_path",
    "class": "admissible_class",
    "grid": {"N": "grid_n", "delta_min_factor": "delta_min_factor"},
    "perturbation": {"kind": "perturbation_kind", "amplitude": "perturbation_amplitude",
                     "width": "perturbation_width", "center": "perturbation_center"},
    "t_end": "t_end",
    "max_steps": "max_steps",
    "cfl_sigma": "cfl_sigma",
    "monitor_every": "monitor_every",
    "snapshot_every": "snapshot_every",
    "epsilon": "epsilon",
    "out_dir": "out_dir",
}


def _config_fields(data, table: dict, what: str) -> dict:
    """{RunConfig field: value} of the keys of a config object, by `table`."""
    unknown = set(_require_object(data, what)) - set(table)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        if isinstance(table[key], dict):
            values.update(_config_fields(value, table[key], key))
        else:
            values[table[key]] = value
    return values


def load_run_config(path, out_dir=None) -> RunConfig:
    """The RunConfig of a JSON run config; keys it omits keep RunConfig's defaults."""
    from .flow import RunConfig

    data = _require_object(_load_json(path), "run config")
    values = _config_fields(data, _RUN_CONFIG_KEYS, "config")
    for key in ("polytope", "class"):
        if key not in data:
            raise ConfigError(f"config is missing required key {key!r}")
    values["admissible_class"] = load_class(values["admissible_class"])
    if out_dir is not None:
        values["out_dir"] = out_dir
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# baseline golden suite


def baseline_checks(n: int = 48):
    """The canonical-potential golden suite; yields (name, ok, got, expect)."""
    import numpy as np

    from .curvature import AdmissibleClass, abreu_scalar_field, fiber_riemann_norm_field
    from .energy import average_scalar, interior_quadrature
    from .polytope import build_grid, standard_triangle
    from .potential import SymplecticPotential, fs_inverse_hessian

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


def _print_json(data) -> None:
    """Print a result as strict JSON: non-finite floats print as null."""
    print(json.dumps(json_value(data), indent=2, allow_nan=False))


def cmd_baseline(args) -> int:
    results = []
    for name, ok, got, expect in baseline_checks():
        results.append({"check": name, "ok": bool(ok), "got": got, "expected": expect})
    if args.json:
        _print_json({"checks": results, "passed": all(r["ok"] for r in results)})
    else:
        for r in results:
            mark = "ok  " if r["ok"] else "FAIL"
            print(f"[{mark}] {r['check']}: got {r['got']}")
        n_bad = sum(not r["ok"] for r in results)
        print(f"{len(results) - n_bad}/{len(results)} checks passed")
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def cmd_flow(args) -> int:
    from .energy import energy_report
    from .flow import run

    cfg = load_run_config(args.config, out_dir=args.out_dir)
    fr = run(cfg)
    rep = energy_report(fr.state.u, fr.cls, fr.bquad)
    summary = {
        "t": fr.state.t,
        "steps": fr.state.step_count,
        "dt_last": fr.state.dt_last,
        "records": len(fr.records),
        "final_report": rep,
    }
    if args.json:
        _print_json(summary)
    else:
        print(f"flow finished at t = {fr.state.t:.6g} after {fr.state.step_count} steps")
        print(f"final calabi = {rep.calabi:.6g}, dissipation = {rep.dissipation:.6g}")
        print(f"monitor rows: {len(fr.records)} -> {cfg.out_dir}/monitor.csv")
    return EXIT_OK


def _load_snapshot_potential(path):
    from .potential import load_snapshot

    try:
        return load_snapshot(path)
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc


def cmd_curvature(args) -> int:
    from dataclasses import fields

    import numpy as np

    from .curvature import CurvatureSample, abreu_scalar, admissible_blocks, fiber_riemann_norm

    u, t = _load_snapshot_potential(args.snapshot)
    x = np.array([args.at[0], args.at[1]], dtype=float)
    if not u.polytope.contains(x):
        raise DomainError(f"point {tuple(x)} lies outside the open polytope")
    k = u.node_index(x)
    node = u.grid.points[k]
    if args.cls is not None:
        cls = load_class(args.cls)
        sample = admissible_blocks(u, cls, node)
    else:
        # the fiber scalars alone; the admissible blocks need a class
        blank = dict.fromkeys((f.name for f in fields(CurvatureSample)), None)
        sample = CurvatureSample(**{**blank, "point": node, "r_fiber": abreu_scalar(u, node),
                                    "rm2_fiber": fiber_riemann_norm(u, node)})
    _print_json({**sample.to_dict(), "requested_point": x, "t": t})
    return EXIT_OK


def cmd_energy(args) -> int:
    from .curvature import AdmissibleClass
    from .energy import energy_report

    u, t = _load_snapshot_potential(args.snapshot)
    cls = load_class(args.cls) if args.cls is not None else AdmissibleClass.trivial()
    _print_json({**energy_report(u, cls).to_dict(), "t": t})
    return EXIT_OK


def cmd_sobolev_bound(args) -> int:
    _print_json(certify(args.ca, ClassTopology.standard_o3()))
    return EXIT_OK


def cmd_fiber_bound(args) -> int:
    cls = load_class(args.cls)
    _print_json(fiber_energy_bound(cls))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="calabiflow",
        description="Calabi-flow laboratory on toric Kahler classes",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p_base = sub.add_parser("baseline", help="run the canonical-potential golden suite")
    p_base.set_defaults(handler=cmd_baseline)

    p_flow = sub.add_parser("flow", help="run a configured flow")
    p_flow.set_defaults(handler=cmd_flow)
    p_flow.add_argument("config", help="run configuration JSON")
    p_flow.add_argument("--out-dir", default=None, help="override the config's out_dir")

    p_curv = sub.add_parser("curvature", help="curvature sample from a snapshot")
    p_curv.set_defaults(handler=cmd_curvature)
    p_curv.add_argument("--snapshot", required=True)
    p_curv.add_argument("--at", nargs=2, type=float, required=True, metavar=("X", "Y"))
    p_curv.add_argument("--class", dest="cls", default=None, help="class JSON file")

    p_en = sub.add_parser("energy", help="energy report from a snapshot")
    p_en.set_defaults(handler=cmd_energy)
    p_en.add_argument("--snapshot", required=True)
    p_en.add_argument("--class", dest="cls", default=None, help="class JSON file")

    p_sb = sub.add_parser("sobolev-bound", help="Yamabe/Sobolev certificate for a Calabi energy")
    p_sb.set_defaults(handler=cmd_sobolev_bound)
    p_sb.add_argument("--ca", type=float, required=True)

    p_fb = sub.add_parser("fiber-bound", help="controlled-class fiber energy bound")
    p_fb.set_defaults(handler=cmd_fiber_bound)
    p_fb.add_argument("--class", dest="cls", required=True, help="class JSON file")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (ConfigError, DegenerateInputError, DomainError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StiffnessError, CurvatureUndefinedError) as exc:
        print(f"numerical termination: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
