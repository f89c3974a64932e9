"""Integral quantities over the polytope: volumes, averages, Calabi energy,
dissipation, and the flow-invariant combination."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serialize import json_value
from .curvature import (
    AdmissibleClass,
    abreu_scalar_field,
    class_record,
    curvature_context,
    fiber_riemann_norm_field,
    rm2_total_field,
    weighted_scalar_field,
)
from .errors import DegenerateInputError
from .polytope import BoundaryQuadrature, DelzantPolytope, Grid, quadrature_for
from .potential import SymplecticPotential, _trace_of_square


def interior_quadrature(grid: Grid, integrand: np.ndarray) -> float:
    """Integral over the polytope of a node field.

    Midpoint rule with exact cell-clipping weights; the weights tile the
    polytope, so constants and affine integrands integrate exactly and smooth
    integrands converge at second order (boundary-limited; the Laplacian
    correction lifts the interior cells to fourth order).  The rule is one
    dot product with the grid's quadrature_weights.
    """
    integrand = np.asarray(integrand, dtype=float)
    if integrand.shape != (grid.n_nodes,):
        raise DegenerateInputError("integrand must be defined at all grid nodes")
    return float(np.dot(grid.quadrature_weights, integrand))


def average_scalar(P: DelzantPolytope, cls: AdmissibleClass, grid: Grid,
                   quad: BoundaryQuadrature = None) -> float:
    """Class average of the weighted scalar curvature, independent of u.

    R_bar = [scal_S * int p/q dmu + 2 * int_dP p dsigma] / int_P p dmu,
    with q = <p, z> + c_S and p = q^m; by parts the curvature term of the
    weighted scalar integrates to twice the weighted boundary measure.  q and
    p at the nodes are those of the class record (see class_record).  The
    grid must be one of P (DegenerateInputError), and so must the boundary
    quadrature (DomainError, as in SymplecticPotential.boundary_integral).
    """
    if P != grid.polytope:
        raise DegenerateInputError("the grid is not one of the polytope")
    quad = quadrature_for(P, quad)
    rec = class_record(grid, cls)
    base = cls.scal_S * interior_quadrature(grid, rec.pw / rec.q)
    bdry = 2.0 * float(np.dot(quad.weights, cls.weight(quad.points)))
    vol = interior_quadrature(grid, rec.pw)
    return (base + bdry) / vol


@dataclass
class EnergyReport:
    """Integral diagnostics of one potential in one class."""

    area: float
    weighted_volume: float
    r_bar: float
    calabi: float
    total_rm2: float
    fiber_rm2_unweighted: float
    dissipation: float
    boundary_u: float
    l2_u: float
    invariant_j: float

    def to_dict(self) -> dict:
        return json_value(self)


def dissipation_integral(u: SymplecticPotential, cls: AdmissibleClass) -> float:
    """int_P u^{ir} u^{js} R_{,ij} R_{,rs} p dmu, R the weighted scalar field.

    The rate identity along the flow is d(Ca)/dt = -2 * this integral; the
    curvature Hessian comes from second differences of the scalar field, which
    costs one extra order of finite-difference noise.
    """
    R = weighted_scalar_field(u, cls)
    grid = u.grid
    # Hess R as its components (3, n), one product of the hessian_operator;
    # u^{ir} u^{js} R_{,ij} R_{,rs} is tr((U Hess R)^2)
    Rh = (grid.hessian_operator @ R).reshape(3, -1)
    U = curvature_context(u)["U"]
    return interior_quadrature(grid, _trace_of_square(U, Rh) * class_record(grid, cls).pw)


def calabi_energy(u: SymplecticPotential, cls: AdmissibleClass, r_bar: float) -> float:
    """int_P (R - r_bar)^2 p dmu, R the weighted scalar field and r_bar the
    class's average_scalar, kept in u.curvature_cache: a flow step compares
    it with its candidate's, an accepted candidate's is the next step's
    energy now, and a record of that state reads it again."""
    cache = u.curvature_cache
    key = ("calabi", cls, r_bar)
    if key not in cache:
        R = weighted_scalar_field(u, cls)
        cache[key] = interior_quadrature(u.grid, (R - r_bar) ** 2 * class_record(u.grid, cls).pw)
    return cache[key]


def fiber_average_scalar(P: DelzantPolytope) -> float:
    """Unweighted class average of the fiber scalar curvature: 2 |dP| / |P|."""
    return 2.0 * P.boundary_measure() / P.area


def _state_energies(u: SymplecticPotential, cls: AdmissibleClass, r_bar: float,
                    quad: BoundaryQuadrature) -> dict:
    """The EnergyReport fields of a state that depend on u, given the class
    average r_bar and P's boundary quadrature: five interior quadratures
    once the state's Calabi energy is cached.  A flow record reads these
    alone, with the r_bar its run holds."""
    grid = u.grid
    pw = class_record(grid, cls).pw
    calabi = calabi_energy(u, cls, r_bar)
    rm2_tot = interior_quadrature(grid, rm2_total_field(u, cls) * pw)
    rm2_fib_field = fiber_riemann_norm_field(u)
    rm2_fib = interior_quadrature(grid, rm2_fib_field)
    diss = dissipation_integral(u, cls)
    u_bdry = u.boundary_integral(quad)
    u_nodes = u.jets(0)[(0, 0)]
    l2_u = interior_quadrature(grid, u_nodes**2)
    rf = abreu_scalar_field(u)
    rf_bar = fiber_average_scalar(u.polytope)
    invariant_j = rm2_fib - 0.25 * interior_quadrature(grid, (rf - rf_bar) ** 2)
    return dict(calabi=calabi, total_rm2=rm2_tot, fiber_rm2_unweighted=rm2_fib, dissipation=diss,
                boundary_u=u_bdry, l2_u=l2_u, invariant_j=invariant_j)


def energy_report(u: SymplecticPotential, cls: AdmissibleClass,
                  quad: BoundaryQuadrature = None) -> EnergyReport:
    grid = u.grid
    quad = quadrature_for(u.polytope, quad)
    r_bar = average_scalar(u.polytope, cls, grid, quad)
    return EnergyReport(
        area=interior_quadrature(grid, np.ones(grid.n_nodes)),
        weighted_volume=interior_quadrature(grid, class_record(grid, cls).pw),
        r_bar=r_bar,
        **_state_energies(u, cls, r_bar, quad),
    )
