"""Numerical laboratory for the Calabi flow on toric Kahler classes.

The public names are loaded on first access (PEP 562): importing the package
imports none of its modules, so a command compiles and runs only the modules
it uses.  A name is looked up in its module on every access and never kept
here, so a name replaced in its module is the name the package gives.
"""

import importlib

# the module of each exported name
_EXPORTS = {
    "errors": (
        "CalabiflowError",
        "ConfigError",
        "CurvatureUndefinedError",
        "DegenerateInputError",
        "DomainError",
        "RegimeError",
        "StiffnessError",
    ),
    "polytope": (
        "BoundaryQuadrature",
        "DelzantPolytope",
        "Grid",
        "boundary_quadrature",
        "build_grid",
        "eps_region",
        "guillemin_partials",
        "load_polytope",
        "save_polytope",
        "standard_triangle",
    ),
    "potential": (
        "ClosedForm",
        "SymplecticPotential",
        "bump_form",
        "fs_inverse_hessian",
        "load_snapshot",
        "polynomial_form",
        "save_snapshot",
        "zero_form",
    ),
    "curvature": (
        "AdmissibleClass",
        "CurvatureSample",
        "abreu_scalar",
        "abreu_scalar_field",
        "admissible_blocks",
        "control_rm_rhs",
        "fiber_riemann_norm",
        "fiber_riemann_norm_field",
        "ricci_trace",
        "rm2_total_field",
        "weighted_scalar",
        "weighted_scalar_field",
    ),
    "energy": (
        "EnergyReport",
        "average_scalar",
        "energy_report",
        "interior_quadrature",
    ),
    "flow": (
        "FlowRun",
        "FlowState",
        "MonitorRecord",
        "RunConfig",
        "rhs",
        "run",
        "step",
    ),
    "sobolev": (
        "ClassTopology",
        "FiberEnergyBound",
        "SobolevCertificate",
        "certify",
        "fiber_energy_bound",
        "sobolev_inequality_test",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
