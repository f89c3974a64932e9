"""Byte-identity check of this tree's outputs against another revision's.

    python3 tools/identity.py PARENT_REV

Exports PARENT_REV with ``git archive`` into a temporary directory and runs
the same set in both trees, each in a fresh interpreter with
``PYTHONPATH=<tree>/src``:

* the N=48 acceptance flow on the standard triangle (bump 0.05, 200 steps,
  a monitor record every 5 and a snapshot every 50);
* N=48 flows on the hexagon and the trapezoid (bump 0.05, 40 steps, a
  monitor record every 2, epsilon = 0.1), so that the monitors' region
  distances and third and fourth partials are compared off the triangle;
* 10-step command-line flows on the triangle and the hexagon at N=12, with
  the ``energy`` and ``curvature`` JSON of their final snapshots;
* a 10-step N=12 triangle flow at epsilon = 0.5, whose 2epsilon-region has no
  node, so that its records' ring distances take their NaN side;
* the ``--json`` outputs of the golden suite (``baseline``), of
  ``fiber-bound`` on the bundle class, and of ``sobolev-bound`` at one Calabi
  energy per outcome: a bound (Ca = 0 and 10), a closed Yamabe gap
  (Ca = 48 pi^2, written as its repr) and a failed quadratic-curvature test
  (Ca = 1e4);
* digests of the grid arrays (cell and quadrature weights, boundary
  distances, axis, jet and velocity operators, ``edges8``) on the triangle,
  the hexagon, the trapezoid, the Hirzebruch F_3 trapezoid and the triangle
  with its (-1, -1) corner cut (a toric blow-up, normal (1, 1), offset 1.5)
  at N = 12-128 with delta_min = h/2, h, 2h, 4h.  F_3 has a normal entry of 3:
  where every entry is 0, +-1 or +-2, each product of an entry with a
  coordinate is exact, and a fused and an unfused multiply-add give the same
  facet value, so only such a polygon shows a change in how facet values
  are multiplied that moves bits.

Prints every output that differs and, for a monitor CSV, the largest
relative drift of each column and the number of its rows that are NaN on one
side only.  Exits 1 on any difference, 0 otherwise.
It runs from any working directory; the revision is read from the checkout
that holds this script.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BUNDLE = {"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1, "chi_S": -2}
POLYGONS = {
    "triangle": ([[1, 0], [0, 1], [-1, -1]], [1.0, 1.0, 1.0]),
    "hexagon": ([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]],
                [1.0, 1.0, 1.0, 1.0, 1.5, 1.5]),
    "trapezoid": ([[1, 0], [0, 1], [-1, -2], [0, -1]], [1.0, 1.0, 3.0, 1.0]),
    "hirzebruch3": ([[1, 0], [0, 1], [-1, -3], [0, -1]], [1.0, 1.0, 4.0, 1.0]),
    "triangle_cut": ([[1, 0], [1, 1], [0, 1], [-1, -1]], [1.0, 1.5, 1.0, 1.0]),
}
GRID_NS = (12, 24, 48, 96, 128)
# delta_min as a multiple of h
DELTA_FACTORS = (0.5, 1.0, 2.0, 4.0)
# the off-triangle N=48 flows: short, with a record every other step
MONITORED_FLOW = {"max_steps": 40, "monitor_every": 2, "snapshot_every": 0, "epsilon": 0.1}
# the sobolev-bound energies of the module docstring, 48 pi^2 as its repr
CERTIFICATE_CAS = ("0", "10", "473.7410112522892", "1e4")


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(a.dtype.str.encode() + str(a.shape).encode())
        sha.update(a.tobytes())
    return sha.hexdigest()


def _csr_digest(A) -> str:
    return _digest(A.data, A.indices, A.indptr)


def _grid_digests() -> dict:
    from calabiflow import AdmissibleClass, DelzantPolytope, build_grid
    from calabiflow.curvature import class_record
    from calabiflow.errors import DegenerateInputError

    cls = AdmissibleClass(**BUNDLE)
    out = {}
    for name, (normals, offsets) in POLYGONS.items():
        P = DelzantPolytope(normals, offsets)
        width = float(P.bbox[1][0] - P.bbox[0][0])
        for n in GRID_NS:
            for factor in DELTA_FACTORS:
                try:
                    g = build_grid(P, n, factor * width / n)
                    g.axis_operators
                except DegenerateInputError as exc:
                    # a grid with no node, or too sparse for its stencils: its
                    # refusal is the output
                    out[f"{name} N={n} delta={factor}h"] = str(exc)
                    continue
                arrays = {
                    "points": _digest(g.points, g.ij, g.node_id, g.min_facet_distance),
                    "cell_weights": _digest(g.cell_weights),
                    "quadrature_weights": _digest(g.quadrature_weights),
                    "boundary_distance": _digest(g.boundary_distance),
                    "gradient_operator": _csr_digest(g.gradient_operator),
                    "hessian_operator": _csr_digest(g.hessian_operator),
                    "velocity_operator": _csr_digest(class_record(g, cls).L),
                    "edges8": _digest(*g.edges8),
                }
                for (axis, order), A in g.axis_operators.items():
                    arrays[f"axis_operator_{axis}{order}"] = _csr_digest(A)
                for key, value in arrays.items():
                    out[f"{name} N={n} delta={factor}h {key}"] = value
    return out


def _write_inputs(work: Path) -> None:
    from calabiflow import DelzantPolytope, save_polytope

    for name in POLYGONS:
        save_polytope(DelzantPolytope(*POLYGONS[name]), work / f"{name}.json")
    (work / "class.json").write_text(json.dumps(BUNDLE))
    flows = {
        "acceptance": ("triangle", 48, {"max_steps": 200, "monitor_every": 5,
                                        "snapshot_every": 50}),
        "cli_triangle": ("triangle", 12, {"max_steps": 10, "snapshot_every": 0}),
        "cli_hexagon": ("hexagon", 12, {"max_steps": 10, "snapshot_every": 0}),
        "hexagon48": ("hexagon", 48, MONITORED_FLOW),
        "trapezoid48": ("trapezoid", 48, MONITORED_FLOW),
        "triangle12_eps": ("triangle", 12, {"max_steps": 10, "snapshot_every": 0,
                                            "epsilon": 0.5}),
    }
    for name, (polygon, n, extra) in flows.items():
        config = {"polytope": f"{polygon}.json", "class": "class.json", "grid": {"N": n},
                  "perturbation": {"kind": "bump", "amplitude": 0.05, "width": 0.8},
                  "t_end": 1.0, "out_dir": name, **extra}
        (work / f"{name}.json").write_text(json.dumps(config))


def collect(work: Path) -> None:
    """Write every output of the set into `work`, with this interpreter's
    calabiflow."""
    work.mkdir(parents=True, exist_ok=True)
    _write_inputs(work)
    cli = [sys.executable, "-m", "calabiflow.cli"]

    def call(args, stdout):
        with open(work / stdout, "w") as fh:
            subprocess.run(cli + args, cwd=work, stdout=fh, check=True)

    for name in ("acceptance", "cli_triangle", "cli_hexagon", "hexagon48", "trapezoid48",
                 "triangle12_eps"):
        call(["--json", "flow", f"{name}.json"], f"{name}-flow.json")
    for name in ("cli_triangle", "cli_hexagon"):
        snap = f"{name}/snapshot_final.csv"
        call(["energy", "--snapshot", snap, "--class", "class.json"], f"{name}-energy.json")
        call(["curvature", "--snapshot", snap, "--at", "0", "0", "--class", "class.json"],
             f"{name}-curvature.json")
    call(["--json", "baseline"], "baseline.json")
    call(["--json", "fiber-bound", "--class", "class.json"], "fiber-bound.json")
    for ca in CERTIFICATE_CAS:
        call(["--json", "sobolev-bound", "--ca", ca], f"sobolev-bound-{ca}.json")
    (work / "grid_digests.json").write_text(json.dumps(_grid_digests(), indent=1))


def _monitor_drift(a: Path, b: Path) -> list:
    """Largest relative drift of each column of two monitor CSVs, and the
    number of rows whose value is NaN in one of them only."""
    import numpy as np

    names = a.read_text().splitlines()[0].split(",")
    x, y = (np.atleast_2d(np.loadtxt(p, delimiter=",", skiprows=1)) for p in (a, b))
    if x.shape != y.shape:
        return [f"  rows differ: {x.shape} against {y.shape}"]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    one_nan = np.isnan(x) != np.isnan(y)
    rel = np.where((x == y) | one_nan | np.isnan(x), 0.0, rel)
    lines = []
    for name, col, nans in zip(names, rel.T, one_nan.sum(axis=0)):
        if col.max() > 0:
            lines.append(f"  {name}: {float(col.max()):.3e}")
        if nans:
            lines.append(f"  {name}: NaN on one side only in {nans} of {len(col)} rows")
    return lines


def compare(a: Path, b: Path) -> int:
    """Print each output that differs between two collect directories; the
    number of differences."""
    files = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    bad = 0
    for rel in files:
        pa, pb = a / rel, b / rel
        if pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes():
            continue
        bad += 1
        if not (pa.is_file() and pb.is_file()):
            print(f"{rel}: only in {'the parent' if pa.is_file() else 'this tree'}")
        elif rel.name == "grid_digests.json":
            da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
            for key in sorted(set(da) | set(db)):
                if da.get(key) != db.get(key):
                    print(f"{rel}: {key} differs")
        elif rel.name == "monitor.csv":
            print(f"{rel} differs; largest relative drift per column:")
            print("\n".join(_monitor_drift(pa, pb)))
        else:
            print(f"{rel} differs")
    print(f"{len(files)} outputs compared, {bad} differ")
    return bad


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--collect":
        collect(Path(argv[2]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[1]],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for label, tree in (("parent", parent), ("tree", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect",
                            str(tmp / f"out-{label}")], env=env, check=True)
        return 1 if compare(tmp / "out-parent", tmp / "out-tree") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
