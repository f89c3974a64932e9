"""Integral quantities over the polytope: volumes, averages, Calabi energy,
dissipation, boundary integrals, and the flow-invariant combination."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .curvature import (
    AdmissibleClass,
    abreu_scalar_field,
    curvature_context,
    fiber_riemann_norm_field,
    rm2_total_field,
    weighted_scalar_field,
)
from .errors import DegenerateInputError
from .polytope import BoundaryQuadrature, DelzantPolytope, Grid, boundary_quadrature
from .potential import SymplecticPotential, _tensorize


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


def boundary_integral(P: DelzantPolytope, values_fn, quad: BoundaryQuadrature = None) -> float:
    """Integral over the boundary against the lattice measure.

    values_fn maps an (M, 2) array of boundary points to values.
    """
    if quad is None:
        quad = boundary_quadrature(P)
    vals = np.asarray(values_fn(quad.points), dtype=float)
    return float(np.dot(quad.weights, vals))


def average_scalar(P: DelzantPolytope, cls: AdmissibleClass, grid: Grid = None,
                   quad: BoundaryQuadrature = None) -> float:
    """Class average of the weighted scalar curvature, independent of u.

    R_bar = [scal_S * int p/q dmu + 2 * int_dP p dsigma] / int_P p dmu,
    with q = <p, z> + c_S and p = q^m; by parts the curvature term of the
    weighted scalar integrates to twice the weighted boundary measure.
    """
    cls.validate_on(P)
    if grid is None:
        grid = Grid(P, 96, 0.5 * (P.bbox[1][0] - P.bbox[0][0]) / 96)
    if quad is None:
        quad = boundary_quadrature(P)
    q = cls.affine(grid.points)
    pw = cls.weight(grid.points)
    base = cls.scal_S * interior_quadrature(grid, pw / q)
    bdry = 2.0 * float(np.dot(quad.weights, cls.weight(quad.points)))
    vol = interior_quadrature(grid, pw)
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
        return asdict(self)


def _r_hessian_parts(u: SymplecticPotential, cls: AdmissibleClass, R: np.ndarray):
    """(U, Rh, p) at every node: the inverse Hessian of u, the Hessian of a
    scalar-curvature node field R by second differences, the class weight."""
    Rh = _tensorize(u.grid.field_jets(R), 2, u.grid.n_nodes)
    return curvature_context(u)["U"], Rh, cls.weight(u.grid.points)


def dissipation_integral(u: SymplecticPotential, cls: AdmissibleClass,
                         R: np.ndarray = None) -> float:
    """int_P u^{ir} u^{js} R_{,ij} R_{,rs} p dmu.

    The rate identity along the flow is d(Ca)/dt = -2 * this integral; the
    curvature Hessian comes from second differences of the scalar field, which
    costs one extra order of finite-difference noise.
    """
    if R is None:
        R = weighted_scalar_field(u, cls)
    U, Rh, pw = _r_hessian_parts(u, cls, R)
    integrand = np.einsum("nir,njs,nij,nrs->n", U, U, Rh, Rh) * pw
    return interior_quadrature(u.grid, integrand)


def fiber_average_scalar(P: DelzantPolytope) -> float:
    """Unweighted class average of the fiber scalar curvature: 2 |dP| / |P|."""
    return 2.0 * P.boundary_measure() / P.area


def energy_report(u: SymplecticPotential, cls: AdmissibleClass,
                  quad: BoundaryQuadrature = None) -> EnergyReport:
    cls.validate_on(u.polytope)
    grid = u.grid
    if quad is None:
        quad = boundary_quadrature(u.polytope)
    pw = cls.weight(grid.points)
    area = interior_quadrature(grid, np.ones(grid.n_nodes))
    wvol = interior_quadrature(grid, pw)
    r_bar = average_scalar(u.polytope, cls, grid, quad)
    R = weighted_scalar_field(u, cls)
    calabi = interior_quadrature(grid, (R - r_bar) ** 2 * pw)
    rm2_tot = interior_quadrature(grid, rm2_total_field(u, cls) * pw)
    rm2_fib_field = fiber_riemann_norm_field(u)
    rm2_fib = interior_quadrature(grid, rm2_fib_field)
    diss = dissipation_integral(u, cls, R)
    u_bdry = boundary_integral(u.polytope, u.value_at, quad)
    u_nodes = u.jets(0)[(0, 0)]
    l2_u = interior_quadrature(grid, u_nodes**2)
    rf = abreu_scalar_field(u)
    rf_bar = fiber_average_scalar(u.polytope)
    invariant_j = rm2_fib - 0.25 * interior_quadrature(grid, (rf - rf_bar) ** 2)
    return EnergyReport(
        area=area,
        weighted_volume=wvol,
        r_bar=r_bar,
        calabi=calabi,
        total_rm2=rm2_tot,
        fiber_rm2_unweighted=rm2_fib,
        dissipation=diss,
        boundary_u=u_bdry,
        l2_u=l2_u,
        invariant_j=invariant_j,
    )


def mixed_trace(u0: SymplecticPotential, u1: SymplecticPotential):
    """(int u0_{ij} u1^{ij} dmu, int u1_{ij} u0^{ij} dmu) on a shared grid."""
    if u0.grid is not u1.grid and (
        u0.grid.n != u1.grid.n
        or u0.grid.delta_min != u1.grid.delta_min
        or u0.polytope.content_hash() != u1.polytope.content_hash()
    ):
        raise DegenerateInputError("mixed trace requires both potentials on the same grid")
    G0 = curvature_context(u0)["G"]
    G1 = curvature_context(u1)["G"]
    U0 = curvature_context(u0)["U"]
    U1 = curvature_context(u1)["U"]
    t01 = interior_quadrature(u0.grid, np.einsum("nij,nij->n", G0, U1))
    t10 = interior_quadrature(u0.grid, np.einsum("nij,nij->n", G1, U0))
    return t01, t10


def cauchy_schwarz_gap(u: SymplecticPotential, cls: AdmissibleClass) -> float:
    """Dissipation minus its Cauchy-Schwarz lower bound.

    int u^{ir} u^{js} R_{ij} R_{rs} p dmu >= (int u^{ij} R_{ij} p dmu)^2 / (2 int p dmu);
    the 2 is the squared norm of the metric itself (trace of the identity).
    Returns LHS - RHS (nonnegative up to quadrature noise).
    """
    R = weighted_scalar_field(u, cls)
    U, Rh, pw = _r_hessian_parts(u, cls, R)
    mixed = interior_quadrature(u.grid, np.einsum("nij,nij->n", U, Rh) * pw)
    vol = interior_quadrature(u.grid, pw)
    return dissipation_integral(u, cls, R) - mixed**2 / (2.0 * vol)
