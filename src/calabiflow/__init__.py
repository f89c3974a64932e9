"""Numerical laboratory for the Calabi flow on toric Kahler classes."""

from .errors import (
    CalabiflowError,
    ConfigError,
    CurvatureUndefinedError,
    DegenerateInputError,
    DomainError,
    RegimeError,
    StiffnessError,
)
from .polytope import (
    BoundaryQuadrature,
    DelzantPolytope,
    Grid,
    boundary_quadrature,
    build_grid,
    eps_region,
    guillemin_partials,
    load_polytope,
    save_polytope,
    standard_triangle,
)
from .potential import (
    ClosedForm,
    SymplecticPotential,
    bump_form,
    fs_inverse_hessian,
    load_snapshot,
    polynomial_form,
    save_snapshot,
    zero_form,
)
from .curvature import (
    AdmissibleClass,
    CurvatureSample,
    abreu_scalar,
    abreu_scalar_field,
    admissible_blocks,
    control_rm_rhs,
    fiber_riemann_norm,
    fiber_riemann_norm_field,
    ricci_trace,
    rm2_total_field,
    weighted_scalar,
    weighted_scalar_field,
)
from .energy import (
    EnergyReport,
    average_scalar,
    energy_report,
    interior_quadrature,
)
from .flow import (
    FlowRun,
    FlowState,
    MonitorRecord,
    RunConfig,
    StepPolicy,
    rhs,
    run,
    step,
)
from .sobolev import (
    ClassTopology,
    FiberEnergyBound,
    SobolevCertificate,
    certify,
    fiber_energy_bound,
    sobolev_inequality_test,
)

__version__ = "0.1.0"
