import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calabiflow import AdmissibleClass, SymplecticPotential, fiber_energy_bound, save_snapshot
from calabiflow.cli import main
import calabiflow
import calabiflow.cli as cli_mod


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_baseline_passes(capsys):
    code, out, _ = run_cli(capsys, "baseline")
    assert code == 0
    assert out.count("[ok  ]") >= 12
    assert "FAIL" not in out


def test_baseline_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "baseline")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) >= 12


def test_baseline_fault_injection(capsys, monkeypatch):
    import calabiflow.potential as pot

    orig = pot.fs_inverse_hessian

    def corrupted(points):
        out = orig(points)
        return -out  # flipped sign

    # the golden suite imports the function from its module when it runs
    monkeypatch.setattr(pot, "fs_inverse_hessian", corrupted)
    code, out, _ = run_cli(capsys, "baseline")
    assert code == 1
    assert "FAIL" in out
    assert "inverse Hessian" in out


def test_flow_command_fixed_point(capsys, tmp_path, triangle_file):
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0, "chi_S": 1},
        "grid": {"N": 24, "delta_min_factor": 0.5},
        "perturbation": {"kind": "none"},
        "t_end": 1.0,
        "max_steps": 10,
        "monitor_every": 2,
        "snapshot_every": 0,
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "--json", "flow", str(cfg_path))
    assert code == 0, err
    data = json.loads(out)
    assert data["steps"] == 10
    assert data["final_report"]["calabi"] <= 1e-12
    assert (tmp_path / "out" / "monitor.csv").exists()
    assert (tmp_path / "out" / "snapshot_final.csv").exists()


def test_flow_command_monotone_calabi(capsys, tmp_path, triangle_file):
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1, "chi_S": -2},
        "grid": {"N": 24},
        "perturbation": {"kind": "bump", "amplitude": 0.05},
        "t_end": 1.0,
        "max_steps": 20,
        "monitor_every": 2,
        "snapshot_every": 0,
        "out_dir": str(tmp_path / "out2"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 0, err
    rows = (tmp_path / "out2" / "monitor.csv").read_text().strip().splitlines()
    ca = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(ca[k + 1] < ca[k] for k in range(len(ca) - 1))


def test_flow_missing_polytope(capsys, tmp_path):
    cfg = {
        "polytope": str(tmp_path / "nope.json"),
        "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2
    assert f"cannot read polytope file {tmp_path / 'nope.json'}: " in err


def test_flow_polytope_that_is_not_a_path(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"polytope": 5, "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2
    assert "cannot read polytope file 5: " in err


# each of these once ended `calabiflow flow` with a traceback and exit code 1
@pytest.mark.parametrize("write", [
    lambda path: path.write_text('{"facets": [{"normal": [1, 0], "offs'),
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"facets": "\xff\xfe"}'),
], ids=["truncated", "directory", "invalid utf-8"])
def test_flow_polytope_file_it_cannot_read(capsys, tmp_path, write):
    poly_path = tmp_path / "poly.json"
    write(poly_path)
    cfg = {"polytope": str(poly_path), "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
           "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read polytope file {poly_path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_flow_unknown_key(capsys, tmp_path, triangle_file):
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
        "wibble": 3,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2
    assert "wibble" in err


@pytest.mark.parametrize("text", [None, b'{"p": [1, 1],', b'{"p": "\xff"}'],
                         ids=["missing", "malformed", "invalid utf-8"])
def test_fiber_bound_rejects_a_class_file_it_cannot_read(capsys, tmp_path, text):
    cpath = tmp_path / "class.json"
    if text is not None:
        cpath.write_bytes(text)
    code, _, err = run_cli(capsys, "fiber-bound", "--class", str(cpath))
    assert code == 2, err
    assert "cannot read JSON file" in err


def test_fiber_bound_rejects_an_unknown_class_key(capsys, tmp_path):
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"p": [1, 1], "c_S": 12, "scal_S": -1, "genus": 2}))
    code, _, err = run_cli(capsys, "fiber-bound", "--class", str(cpath))
    assert code == 2, err
    assert "unknown class keys: ['genus']" in err


def test_flow_rejects_a_config_without_a_class(capsys, tmp_path, triangle_file):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"polytope": str(triangle_file), "max_steps": 1,
                                    "out_dir": str(tmp_path / "out")}))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2, err
    assert "missing required key 'class'" in err and not (tmp_path / "out").exists()


def test_flow_out_dir_option_replaces_the_configs(capsys, tmp_path, triangle_file):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "polytope": str(triangle_file), "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
        "grid": {"N": 12}, "max_steps": 1, "snapshot_every": 0,
        "out_dir": str(tmp_path / "config_out")}))
    code, _, err = run_cli(capsys, "flow", str(cfg_path), "--out-dir", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "monitor.csv").exists()
    assert not (tmp_path / "config_out").exists()


@pytest.mark.parametrize("p", [[1], [1, 1, 5]], ids=["one-entry", "three-entries"])
def test_fiber_bound_rejects_class_without_two_p_entries(capsys, tmp_path, p):
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"p": p, "c_S": 12, "scal_S": -1, "m": 1, "chi_S": -2}))
    code, _, err = run_cli(capsys, "fiber-bound", "--class", str(cpath))
    assert code == 2, err
    assert "two entries" in err


def test_fiber_bound_rejects_fractional_base_dimension(capsys, tmp_path):
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1.7, "chi_S": -2}))
    code, out, err = run_cli(capsys, "fiber-bound", "--class", str(cpath))
    assert code == 2, out
    assert "whole number" in err


def test_flow_rejects_nan_class_constant(capsys, tmp_path, triangle_file):
    # a NaN c_S once ran the flow to exit 3, "step rejected 11 times at t = 0"
    cfg = {"polytope": str(triangle_file),
           "class": {"p": [1, 1], "c_S": math.nan, "scal_S": -1, "m": 1, "chi_S": -2},
           "max_steps": 1, "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2, err
    assert "finite" in err and not (tmp_path / "out").exists()


def test_flow_rejects_polygon_normal_that_is_not_a_pair(capsys, tmp_path, triangle_file):
    poly = json.loads(Path(triangle_file).read_text())
    poly["facets"][0]["normal"] = [1]
    ppath = tmp_path / "poly.json"
    ppath.write_text(json.dumps(poly))
    cfg = {"polytope": str(ppath), "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
           "max_steps": 1, "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2, err
    assert err.startswith("error:")


@pytest.mark.parametrize("edit", [{"grid": {"N": "abc"}}, {"grid": {"N": 12.5}},
                                  {"perturbation": {"kind": "bump", "center": [0.1]}},
                                  {"max_steps": -4}],
                         ids=["non-numeric-N", "fractional-N", "one-number-center",
                              "negative-max-steps"])
def test_flow_rejects_malformed_config_values(capsys, tmp_path, triangle_file, edit):
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
        "max_steps": 1,
        "out_dir": str(tmp_path / "out"),
        **edit,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2, err
    assert err.startswith("error:")


@pytest.mark.parametrize("key", ["grid", "perturbation", "class"],
                         ids=["grid", "perturbation", "class-file"])
def test_flow_rejects_config_value_that_is_not_an_object(capsys, tmp_path, triangle_file, key):
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
        "max_steps": 1,
        "out_dir": str(tmp_path / "out"),
        key: 5,
    }
    if key == "class":
        cpath = tmp_path / "class.json"
        cpath.write_text("5")
        cfg["class"] = str(cpath)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 2, err
    assert "must be a JSON object" in err


@pytest.fixture()
def fs_snapshot(tmp_path, triangle, grid48):
    u = SymplecticPotential.from_node_values(triangle, grid48, np.zeros(grid48.n_nodes))
    path = tmp_path / "fs.csv"
    save_snapshot(u, path, t=0.0)
    return path


def test_curvature_command(capsys, fs_snapshot):
    code, out, err = run_cli(capsys, "curvature", "--snapshot", str(fs_snapshot),
                             "--at", "0", "0")
    assert code == 0, err
    data = json.loads(out)
    assert data["r_fiber"] == pytest.approx(4.0, abs=1e-9)
    assert data["rm2_fiber"] == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_curvature_command_with_class(capsys, fs_snapshot, tmp_path):
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1, "chi_S": -2}))
    code, out, err = run_cli(capsys, "curvature", "--snapshot", str(fs_snapshot),
                             "--at", "0", "0", "--class", str(cpath))
    assert code == 0, err
    data = json.loads(out)
    assert data["rm2_total"] >= data["rm2_fiber"]
    assert data["r_weighted"] == pytest.approx(-1.0 / 12.0 + 4.0, abs=1e-9)


@pytest.mark.parametrize("with_class", [False, True], ids=["fiber", "class"])
def test_curvature_off_a_node_reports_the_nearest_node(capsys, fs_snapshot, tmp_path, grid48,
                                                       with_class):
    extra = []
    if with_class:
        cpath = tmp_path / "class.json"
        cpath.write_text(json.dumps({"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1,
                                     "chi_S": -2}))
        extra = ["--class", str(cpath)]
    x = np.array([0.3, -0.2])
    node = grid48.points[np.argmin(((grid48.points - x) ** 2).sum(axis=1))]
    assert not np.array_equal(node, x)
    outputs = []
    for at in (x, node):
        code, out, err = run_cli(capsys, "curvature", "--snapshot", str(fs_snapshot),
                                 "--at", repr(float(at[0])), repr(float(at[1])), *extra)
        assert code == 0, err
        outputs.append(json.loads(out))
    off, on = outputs
    assert off["point"] == node.tolist()
    assert off["requested_point"] == [0.3, -0.2]
    assert on["requested_point"] == node.tolist()
    del off["requested_point"], on["requested_point"]
    assert off == on


def test_curvature_exterior_point(capsys, fs_snapshot):
    code, _, err = run_cli(capsys, "curvature", "--snapshot", str(fs_snapshot),
                           "--at", "5", "5")
    assert code == 2
    assert "outside" in err


def test_energy_command(capsys, fs_snapshot):
    code, out, err = run_cli(capsys, "energy", "--snapshot", str(fs_snapshot))
    assert code == 0, err
    data = json.loads(out)
    assert data["calabi"] <= 1e-12
    assert data["r_bar"] == pytest.approx(4.0, abs=1e-8)


def _edit_sidecar(edit):
    """A snapshot fault that rewrites the sidecar's fields with edit."""
    def fault(path):
        sidecar = path.with_suffix(".csv.json")
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
    return fault


def _edit_rows(edit):
    """A snapshot fault that rewrites the CSV lines (header first) with edit."""
    def fault(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
    return fault


def _first_f(value):
    return _edit_rows(lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + "," + value,
                                     *lines[2:]])


@pytest.mark.parametrize("fault", [
    lambda path: path.with_suffix(".csv.json").write_text("{not json"),
    _edit_sidecar(lambda meta: meta.pop("grid_n")),
    _first_f("abc"),
    _edit_rows(lambda lines: lines + ["1000,1000,0.0,0.0,0.0"]),
    _edit_rows(lambda lines: lines + [lines[1]]),
    _first_f("nan"),
    _edit_rows(lambda lines: [lines[0], "1.5," + lines[1].split(",", 1)[1], *lines[2:]]),
    _edit_rows(lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]]),
    _edit_rows(lambda lines: lines[:1]),
    _edit_rows(lambda lines: ["i,j,x,y", *lines[1:]]),
    _edit_sidecar(lambda meta: meta.update(t=math.inf)),
], ids=["sidecar-not-json", "sidecar-without-grid-n", "non-numeric-f", "row-off-the-grid",
        "duplicate-row", "nan-f", "non-integer-i", "row-missing-a-field", "header-without-rows",
        "header-without-f", "sidecar-infinite-t"])
@pytest.mark.filterwarnings("error")
def test_energy_rejects_malformed_snapshot(capsys, fs_snapshot, fault):
    fault(fs_snapshot)
    code, _, err = run_cli(capsys, "energy", "--snapshot", str(fs_snapshot))
    assert code == 2, err
    assert "snapshot" in err


def test_sobolev_bound_command(capsys):
    code, out, err = run_cli(capsys, "sobolev-bound", "--ca", "0")
    assert code == 0, err
    data = json.loads(out)
    assert data["sobolev_bound"] == pytest.approx(1.0, rel=1e-12)
    assert data["yamabe_lower"] == pytest.approx(12 * math.pi, rel=1e-12)


@pytest.mark.parametrize("ca", ["inf", "nan"])
def test_sobolev_bound_rejects_non_finite_energy(capsys, ca):
    code, out, err = run_cli(capsys, "--json", "sobolev-bound", "--ca", ca)
    assert code == 2, out
    assert out == "" and "finite" in err


def test_fiber_bound_command(capsys, tmp_path):
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1, "chi_S": -2}))
    code, out, err = run_cli(capsys, "fiber-bound", "--class", str(cpath))
    assert code == 0, err
    data = json.loads(out)
    assert data["fiber_l2_bound"] == pytest.approx(11.55, abs=1e-10)
    assert data["ca_bound"] / math.pi**2 == pytest.approx(44.4, abs=1e-10)


def test_fiber_bound_regime_error(capsys, tmp_path):
    cpath = tmp_path / "class.json"
    cpath.write_text(json.dumps({"p": [1, 1], "c_S": 11, "scal_S": -1, "m": 1, "chi_S": -2}))
    code, _, err = run_cli(capsys, "fiber-bound", "--class", str(cpath))
    assert code == 2
    assert "12 p1" in err


@pytest.mark.parametrize("p1", [1e77, 1e80], ids=["1e77", "1e80"])
def test_fiber_bound_accepts_a_class_past_the_float_range(capsys, tmp_path, p1):
    # p1**4 overflows a float from about 1.2e77, and a product in the old
    # form of the bound from about 5e76, so the command once refused these
    # in-regime classes with "bound inf"; in the ratio r = p1 / q the bound
    # is finite and, at c_S = 12 p1, the bundle class's
    cpath = tmp_path / "class.json"
    c_S = 12.0 * p1
    cpath.write_text(json.dumps({"p": [p1, 1], "c_S": c_S, "scal_S": -1, "m": 1,
                                 "chi_S": -2}))
    code, out, err = run_cli(capsys, "--json", "fiber-bound", "--class", str(cpath))
    assert code == 0, err
    data = json.loads(out)
    q = c_S - 2.0 * p1
    r = p1 / q
    assert data["sup_rm2_pointwise"] == ((1.0 / q) ** 2 + 90.0 * r**4
                                         + (4.0 * r + 24.0 * r**2) ** 2 + 4.0 / 3.0)
    assert data["sup_rm2_pointwise"] == pytest.approx(1.7519333, abs=1e-7)
    bundle = fiber_energy_bound(AdmissibleClass((1.0, 1.0), 12.0, -1.0, 1, -2))
    assert data["ca_bound"] == pytest.approx(bundle.ca_bound, rel=1e-12)
    assert data["certificate"]["sobolev_bound"] == pytest.approx(
        bundle.certificate.sobolev_bound, rel=1e-12)


@pytest.mark.parametrize("command", [("energy",), ("curvature", "--at", "0", "0")],
                         ids=["energy", "curvature"])
def test_snapshot_commands_refuse_a_missing_snapshot(capsys, tmp_path, command, fs_snapshot):
    # the error names the file that is missing: the snapshot, and its sidecar
    # only when the snapshot exists
    lone = tmp_path / "lone.csv"
    lone.write_bytes(fs_snapshot.read_bytes())
    for path, absent in ((tmp_path / "missing.csv", "missing.csv"), (lone, "lone.csv.json")):
        code, out, err = run_cli(capsys, command[0], "--snapshot", str(path), *command[1:])
        assert code == 2, err
        assert out == ""
        assert err.startswith(f"error: cannot read snapshot {path}")
        assert err.endswith(f"No such file or directory: '{tmp_path / absent}'\n")


def test_deterministic_outputs(capsys, tmp_path, triangle_file):
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [1, 1], "c_S": 12, "scal_S": -1, "m": 1, "chi_S": -2},
        "grid": {"N": 24},
        "perturbation": {"kind": "bump", "amplitude": 0.02},
        "t_end": 1.0,
        "max_steps": 6,
        "monitor_every": 2,
        "snapshot_every": 0,
    }
    outs = []
    for tag in ("a", "b"):
        c = dict(cfg, out_dir=str(tmp_path / tag))
        p = tmp_path / f"run_{tag}.json"
        p.write_text(json.dumps(c))
        code, _, err = run_cli(capsys, "flow", str(p))
        assert code == 0, err
        outs.append((tmp_path / tag / "monitor.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args", [
    ("--threads", "1", "baseline"),
    ("--emit-plots", "baseline"),
    ("sobolev-bound", "--ca", "0", "--class", "c.json"),
], ids=["threads", "emit-plots", "sobolev-bound-class"])
def test_removed_flag_is_rejected(capsys, args):
    code, _, _ = run_cli(capsys, *args)
    assert code == 2


def test_stiffness_exit_code(capsys, tmp_path, triangle_file):
    # absurd CFL factor: every retry fails, distinct exit code, partial flush
    cfg = {
        "polytope": str(triangle_file),
        "class": {"p": [0, 0], "c_S": 1.0, "scal_S": 0, "m": 0},
        "grid": {"N": 16},
        "perturbation": {"kind": "bump", "amplitude": 0.02},
        "t_end": 1.0,
        "max_steps": 3,
        "cfl_sigma": 1e18,
        "monitor_every": 1,
        "snapshot_every": 0,
        "out_dir": str(tmp_path / "stiff"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "flow", str(cfg_path))
    assert code == 3
    assert "rejected" in err
    assert (tmp_path / "stiff" / "monitor.csv").exists()


def test_cli_import_loads_no_symbolic_engine():
    # closed forms are plain numpy, so importing the CLI must not pull in sympy
    src = str(Path(calabiflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, calabiflow.cli; print('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# a command in a fresh interpreter: its exit code, its printed output, and the
# modules outside the standard library ("modules") and in it ("stdlib") loaded
# by then that the interpreter's start had not loaded; `from calabiflow import *`
# first loads every module of the package, and `sys.modules["numpy"] = None`
# makes every `import numpy` fail
_FRESH_RUN = """
import contextlib, io, json, sys
started = set(sys.modules)
{prelude}
from calabiflow import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main({argv!r})
new = [m for m in sorted(sys.modules) if m not in started]
stdlib = [m for m in new if m.split(".")[0] in sys.stdlib_module_names]
print(json.dumps({{"code": code, "out": buf.getvalue(),
                  "modules": [m for m in new if m not in stdlib], "stdlib": stdlib}}))
"""

_SOBOLEV_BOUND = ["--json", "sobolev-bound", "--ca", "1.0"]
_NO_NUMPY = 'sys.modules["numpy"] = None'


def _run_in_fresh_interpreter(prelude, argv=_SOBOLEV_BOUND):
    src = str(Path(calabiflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN.format(prelude=prelude, argv=argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_sobolev_bound_loads_only_its_own_modules():
    lazy = _run_in_fresh_interpreter("")
    eager = _run_in_fresh_interpreter("from calabiflow import *")
    assert lazy["code"] == eager["code"] == 0
    assert lazy["out"] == eager["out"]
    # no numpy, no scipy and no other third-party module
    assert lazy["modules"] == ["calabiflow", "calabiflow._serialize", "calabiflow.cli",
                               "calabiflow.errors", "calabiflow.sobolev"]
    # the eager run does load the field stack and numpy, so the comparison
    # above is one between the two import graphs
    assert {"calabiflow.flow", "calabiflow.polytope", "numpy"} <= set(eager["modules"])
    # nor dataclasses, whose import pulls in inspect, ast and dis; the field
    # stack's dataclasses do load it, so the start had not
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(lazy["stdlib"])
    assert "dataclasses" in eager["stdlib"]


def test_sobolev_bound_runs_where_numpy_cannot_be_imported():
    eager = _run_in_fresh_interpreter("from calabiflow import *")
    blocked = _run_in_fresh_interpreter(_NO_NUMPY)
    assert (blocked["code"], blocked["out"]) == (eager["code"], eager["out"])
    # "numpy" is the blocking None entry itself
    assert blocked["modules"] == ["calabiflow", "calabiflow._serialize", "calabiflow.cli",
                                  "calabiflow.errors", "calabiflow.sobolev", "numpy"]
    assert _run_in_fresh_interpreter(
        _NO_NUMPY, ["--json", "sobolev-bound", "--ca", "inf"])["code"] == 2
    helped = _run_in_fresh_interpreter(_NO_NUMPY, ["--help"])
    assert helped["code"] == 0 and "sobolev-bound" in helped["out"]
