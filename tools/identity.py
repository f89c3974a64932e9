"""Byte-identity check of this tree's outputs against another revision's.

    python3 tools/identity.py PARENT_REV

Exports PARENT_REV with ``git archive`` into a temporary directory and
collects the set of each tree with that tree's own ``tools/identity.py``, in
a fresh interpreter with ``PYTHONPATH=<tree>/src``, so that an output one
tree adds, or a command or option the other lacks, shows as a difference
instead of stopping the run.  A revision without ``tools/identity.py`` has
nothing to collect with: the script says so and exits 2.  The set of this
tree is:

* the N=48 acceptance flow on the standard triangle (bump 0.05, 200 steps,
  a monitor record every 5 and a snapshot every 50);
* N=48 flows on the hexagon and the trapezoid (bump 0.05, 40 steps, a
  monitor record every 2, epsilon = 0.1), so that the monitors' region
  distances and third and fourth partials are compared off the triangle;
* 10-step command-line flows on the triangle and the hexagon at N=12, with
  the ``energy`` JSON of their final snapshots with and without the class,
  and their ``curvature`` JSON at the node (0, 0) with the class and at
  (0.3, -0.2), which is not a node, with and without it;
* a 10-step N=12 triangle flow at epsilon = 0.5, whose 2epsilon-region has no
  node, so that its records' ``dist_eps`` takes its NaN side while
  ``q_d2_max``, which reads the epsilon-region alone, is finite;
* the ``--json`` outputs of the golden suite (``baseline``), of
  ``fiber-bound`` on the bundle class, and of ``sobolev-bound`` at one Calabi
  energy per outcome: a bound (Ca = 0 and 10), a closed Yamabe gap
  (Ca = 48 pi^2, written as its repr) and a failed quadratic-curvature test
  (Ca = 1e4);
* ``library.json``: the repr of sobolev_inequality_test for Fubini-Study
  on the N=48 triangle in the trivial and the bundle class, and for the bump
  0.05 on the N=48 hexagon in the bundle class, once as node data and once
  as a closed form; and for that closed form, which reads the canonical
  partials of orders 3 and 4 off the triangle, the reprs of its bundle-class
  energy_report fields and of its admissible_blocks sample at (0.3, -0.2);
  and, for a closed form of every monomial of degree <= 4 plus two bumps on
  the N=48 hexagon and trapezoid, the digest of its ``jets(4)`` at the nodes
  and the reprs of its ``partials_at((0.3, -0.2))``;
* digests of the grid arrays (cell and quadrature weights, boundary
  distances, axis, jet and velocity operators, the structure arrays of the
  8-neighbour graph ``region_graph`` of all nodes, and the boundary
  quadrature's ``node_moments``, its nearest nodes and moments) on the triangle,
  the hexagon, the trapezoid, the Hirzebruch F_3 trapezoid and the triangle
  with its (-1, -1) corner cut (a toric blow-up, normal (1, 1), offset 1.5)
  at N = 12-128 with delta_min = h/2, h, 2h, 4h.  F_3 has a normal entry of 3:
  where every entry is 0, +-1 or +-2, each product of an entry with a
  coordinate is exact, and a fused and an unfused multiply-add give the same
  facet value, so only such a polygon shows a change in how facet values
  are multiplied that moves bits.

Prints every output that differs, every output, grid digest and library
entry found in one tree only, every command that fails in either tree (a
failing command leaves a ``<output>.failed`` file holding its exit status; it
fails the run even where it fails alike in both) and a collect that fails as a whole; for a
monitor CSV it prints the largest relative drift of each column and the
number of its rows that are NaN on one side only.  Exits 1 on any difference
or failure, 0 otherwise; 2 when the revision cannot be exported.
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
    from calabiflow import AdmissibleClass, DelzantPolytope, boundary_quadrature, build_grid
    from calabiflow.curvature import class_record
    from calabiflow.errors import DegenerateInputError
    from calabiflow.flow import region_graph

    cls = AdmissibleClass(**BUNDLE)
    out = {}
    for name, (normals, offsets) in POLYGONS.items():
        P = DelzantPolytope(normals, offsets)
        quad = boundary_quadrature(P)
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
                # the whole grid is entered at no node, so any source will do
                graph = region_graph(g, range(g.n_nodes), [0])
                arrays = {
                    "points": _digest(g.points, g.ij, g.node_id, g.min_facet_distance),
                    "cell_weights": _digest(g.cell_weights),
                    "quadrature_weights": _digest(g.quadrature_weights),
                    "boundary_distance": _digest(g.boundary_distance),
                    "gradient_operator": _csr_digest(g.gradient_operator),
                    "hessian_operator": _csr_digest(g.hessian_operator),
                    "velocity_operator": _csr_digest(class_record(g, cls).L),
                    "region_graph": _digest(graph.nodes, graph.ends, graph.dx, graph.dy,
                                            graph.pair, graph.csr.indices, graph.csr.indptr,
                                            graph.entries),
                    "node_moments": _digest(*quad.node_moments(g)),
                }
                for (axis, order), A in g.axis_operators.items():
                    arrays[f"axis_operator_{axis}{order}"] = _csr_digest(A)
                for key, value in arrays.items():
                    out[f"{name} N={n} delta={factor}h {key}"] = value
    return out


def _library() -> dict:
    """Outputs of library calls that no command prints, as reprs or digests:
    the Sobolev tester's worst ratios, a closed form's energies and curvature
    blocks off the triangle, and the partials of a polynomial-plus-bumps
    closed form."""
    from calabiflow import (AdmissibleClass, ClosedForm, DelzantPolytope, SymplecticPotential,
                            admissible_blocks, build_grid, bump_form, energy_report,
                            sobolev_inequality_test)

    # every monomial of degree <= 4 plus two bumps, so that each partial up
    # to order 4 has a polynomial and a Hermite part
    mixed = ClosedForm({(i, j): 0.01 * (1 + i - 2 * j) for i in range(5) for j in range(5 - i)},
                       [(0.3, (0.15, -0.2), 0.7), (-0.05, (-0.3, 0.25), 0.5)])
    cls = AdmissibleClass(**BUNDLE)
    triangle, hexagon = (DelzantPolytope(*POLYGONS[name]) for name in ("triangle", "hexagon"))
    fs = SymplecticPotential.fubini_study(build_grid(triangle, 48, 0.5 * 3.0 / 48))
    g = build_grid(hexagon, 48, 0.5 * 2.0 / 48)
    form = bump_form(0.05)
    states = {
        "fubini_study triangle N=48 trivial": (fs, AdmissibleClass.trivial()),
        "fubini_study triangle N=48 bundle": (fs, cls),
        "bump node data hexagon N=48 bundle": (
            SymplecticPotential.from_node_values(hexagon, g, form(*g.points.T)), cls),
        "bump closed form hexagon N=48 bundle": (
            SymplecticPotential.from_closed_form(hexagon, g, form), cls),
    }
    out = {f"sobolev_inequality_test {name}": repr(sobolev_inequality_test(u, c))
           for name, (u, c) in states.items()}
    closed, _ = states["bump closed form hexagon N=48 bundle"]
    out["energy_report bump closed form hexagon N=48 bundle"] = repr(
        energy_report(closed, cls).to_dict())
    out["admissible_blocks bump closed form hexagon N=48 bundle at (0.3, -0.2)"] = repr(
        admissible_blocks(closed, cls, (0.3, -0.2)).to_dict())
    for name in ("hexagon", "trapezoid"):
        P = DelzantPolytope(*POLYGONS[name])
        width = float(P.bbox[1][0] - P.bbox[0][0])
        u = SymplecticPotential.from_closed_form(P, build_grid(P, 48, 0.5 * width / 48), mixed)
        out[f"jets(4) mixed closed form {name} N=48"] = _digest(*u.jets(4).values())
        out[f"partials_at mixed closed form {name} N=48 at (0.3, -0.2)"] = repr(
            {key: val.tolist() for key, val in u.partials_at((0.3, -0.2)).items()})
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
            status = subprocess.run(cli + args, cwd=work, stdout=fh).returncode
        if status:
            # the failure is an output too, so that a command failing in one
            # tree only is listed as a difference
            (work / f"{stdout}.failed").write_text(f"exit status {status}\n")

    for name in ("acceptance", "cli_triangle", "cli_hexagon", "hexagon48", "trapezoid48",
                 "triangle12_eps"):
        call(["--json", "flow", f"{name}.json"], f"{name}-flow.json")
    for name in ("cli_triangle", "cli_hexagon"):
        snap = f"{name}/snapshot_final.csv"
        call(["energy", "--snapshot", snap, "--class", "class.json"], f"{name}-energy.json")
        call(["energy", "--snapshot", snap], f"{name}-energy-fiber.json")
        call(["curvature", "--snapshot", snap, "--at", "0", "0", "--class", "class.json"],
             f"{name}-curvature.json")
        off_node = ["curvature", "--snapshot", snap, "--at", "0.3", "-0.2"]
        call(off_node + ["--class", "class.json"], f"{name}-curvature-off-node.json")
        call(off_node, f"{name}-curvature-off-node-fiber.json")
    call(["--json", "baseline"], "baseline.json")
    call(["--json", "fiber-bound", "--class", "class.json"], "fiber-bound.json")
    for ca in CERTIFICATE_CAS:
        call(["--json", "sobolev-bound", "--ca", ca], f"sobolev-bound-{ca}.json")
    (work / "library.json").write_text(json.dumps(_library(), indent=1))
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
    """Print each output that differs between two collect directories, a the
    parent's and b this tree's, that is found in one of them only, or whose
    command fails in either; the number of such outputs."""
    files = sorted({p.relative_to(d) for d in (a, b) for p in d.rglob("*") if p.is_file()})
    bad = 0
    for rel in files:
        pa, pb = a / rel, b / rel
        both = pa.is_file() and pb.is_file()
        side = "the parent" if pa.is_file() else "this tree"
        if rel.suffix == ".failed":
            # a failing command counts even where it fails alike in both
            # trees, where its outputs are alike too
            bad += 1
            print(f"{rel.with_suffix('')}: its command fails in "
                  f"{'both trees' if both else side + ' only'}")
            continue
        if both and pa.read_bytes() == pb.read_bytes():
            continue
        bad += 1
        if not both:
            print(f"{rel}: only in {side}")
        elif rel.name in ("grid_digests.json", "library.json"):
            da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
            for key in sorted(set(da) | set(db)):
                if (key in da) != (key in db):
                    print(f"{rel}: {key} only in {'the parent' if key in da else 'this tree'}")
                elif da[key] != db[key]:
                    print(f"{rel}: {key} differs")
        elif rel.name == "monitor.csv":
            print(f"{rel} differs; largest relative drift per column:")
            print("\n".join(_monitor_drift(pa, pb)))
        else:
            print(f"{rel} differs")
    print(f"{len(files)} outputs compared, {bad} differ or fail")
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
                                 stdout=subprocess.PIPE)
        if archive.returncode:
            print(f"git cannot export {argv[1]}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        script = Path("tools", "identity.py")
        if not (parent / script).is_file():
            print(f"{argv[1]} has no {script} to collect its outputs with", file=sys.stderr)
            return 2
        failed = 0
        for label, tree in (("the parent", parent), ("this tree", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            status = subprocess.run([sys.executable, str(tree / script), "--collect",
                                     str(tmp / label.replace(" ", "-"))], env=env).returncode
            if status:
                print(f"the collect of {label} fails (exit status {status})")
                failed += 1
        return 1 if compare(tmp / "the-parent", tmp / "this-tree") + failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
