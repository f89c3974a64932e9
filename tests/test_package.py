import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calabiflow

# every name the package exported when its __init__ imported each module
# eagerly, by module
EXPORTED = {
    "errors": ["CalabiflowError", "ConfigError", "CurvatureUndefinedError",
               "DegenerateInputError", "DomainError", "RegimeError", "StiffnessError"],
    "polytope": ["BoundaryQuadrature", "DelzantPolytope", "Grid", "boundary_quadrature",
                 "build_grid", "eps_region", "guillemin_partials", "load_polytope",
                 "save_polytope", "standard_triangle"],
    "potential": ["ClosedForm", "SymplecticPotential", "bump_form", "fs_inverse_hessian",
                  "load_snapshot", "polynomial_form", "save_snapshot", "zero_form"],
    "curvature": ["AdmissibleClass", "CurvatureSample", "abreu_scalar", "abreu_scalar_field",
                  "admissible_blocks", "control_rm_rhs", "fiber_riemann_norm",
                  "fiber_riemann_norm_field", "ricci_trace", "rm2_total_field",
                  "weighted_scalar", "weighted_scalar_field"],
    "energy": ["EnergyReport", "average_scalar", "energy_report", "interior_quadrature"],
    "flow": ["FlowRun", "FlowState", "MonitorRecord", "RunConfig", "rhs", "run",
             "step"],
    "sobolev": ["ClassTopology", "FiberEnergyBound", "SobolevCertificate", "certify",
                "fiber_energy_bound", "sobolev_inequality_test"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_every_export_is_its_modules_object():
    listing = dir(calabiflow)
    for module, name in NAMES:
        mod = importlib.import_module(f"calabiflow.{module}")
        assert getattr(calabiflow, name) is getattr(mod, name), name
        assert name in listing, name
        # resolved on access, never kept in the package namespace
        assert name not in vars(calabiflow), name
    assert sorted(calabiflow.__all__) == sorted(name for _, name in NAMES)


def test_a_name_replaced_in_its_module_is_seen_through_the_package(monkeypatch):
    for module, name in NAMES:
        mod = importlib.import_module(f"calabiflow.{module}")
        original, stand_in = getattr(mod, name), object()
        monkeypatch.setattr(mod, name, stand_in)
        assert getattr(calabiflow, name) is stand_in, name
        monkeypatch.undo()
        assert getattr(calabiflow, name) is original, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        calabiflow.not_a_name
    with pytest.raises(ImportError):
        from calabiflow import not_a_name  # noqa: F401


def test_a_submodule_imports_by_name_in_a_fresh_interpreter():
    # the package imports no module of its own; `from calabiflow import
    # curvature` must still give the submodule, not an AttributeError
    code = ("import sys, calabiflow\n"
            "before = sorted(m for m in sys.modules if m.startswith('calabiflow.'))\n"
            "from calabiflow import curvature\n"
            "print(__import__('json').dumps([before, curvature.__name__,\n"
            "    curvature is sys.modules['calabiflow.curvature']]))\n")
    src = str(Path(calabiflow.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], "calabiflow.curvature", True]
