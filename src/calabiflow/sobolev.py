"""Certification chain from Calabi energy to Sobolev-constant control.

Pure arithmetic: a Yamabe lower bound from the topology of the fiber class
and the total squared scalar curvature, a Sobolev-constant bound from the
Yamabe gap, the fiber Calabi-energy bound in the controlled-class regime,
and a numerical tester of the resulting Sobolev inequality on the polytope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ._serialize import json_value
from .errors import RegimeError

# the certificate is arithmetic on numbers; only the fiber bound and the
# inequality tester import numpy and the field modules, each where it runs,
# so that `calabiflow sobolev-bound` loads none of them
if TYPE_CHECKING:
    from .curvature import AdmissibleClass
    from .polytope import DelzantPolytope
    from .potential import SymplecticPotential

_SUP_RM2_CEILING = 0.5 + 4.0 / 3.0


@dataclass(frozen=True)
class ClassTopology:
    """Topological data the certification consumes (never recomputed).

    c1_squared : self-intersection of the fiber first Chern class
    volume : Riemannian volume of the fiber class
    r_bar : average scalar curvature of the class
    euler_char_base : Euler characteristic of the base curve, recorded only;
        no bound reads it
    """

    c1_squared: float
    volume: float
    r_bar: float
    euler_char_base: int = -2

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (0 < self.volume < math.inf and 0 < self.c1_squared < math.inf):
            raise RegimeError("fiber class must have finite positive volume and c1^2")
        if not math.isfinite(self.r_bar):
            raise RegimeError("average scalar curvature r_bar must be finite")

    @classmethod
    def standard_o3(cls, euler_char_base: int = -2) -> "ClassTopology":
        """The projective-plane fiber normalized so the class is O(3).

        c1^2 = 9/2, volume = (1/2)(2 pi)^2 (9/2) = 9 pi^2, average scalar 4.
        """
        return cls(
            c1_squared=4.5,
            volume=9.0 * math.pi**2,
            r_bar=4.0,
            euler_char_base=euler_char_base,
        )


@dataclass
class SobolevCertificate:
    """Outcome of the Yamabe -> Sobolev chain for one Calabi-energy value."""

    calabi: float
    eq_cs_satisfied: bool
    yamabe_lower: float          # nan when the radicand is not positive
    calabi_l2: float             # sqrt(Ca), the L2 size of R - R_bar
    sobolev_bound: float         # nan when no bound is certified
    eq_cs_threshold: float       # largest Ca passing the quadratic-curvature test
    prop_threshold_variant: float  # the alternative stated threshold, reported only
    derivation_log: list = field(default_factory=list)

    @property
    def has_bound(self) -> bool:
        return math.isfinite(self.sobolev_bound)

    def to_dict(self) -> dict:
        return json_value(self)


def certify(ca: float, topo: ClassTopology) -> SobolevCertificate:
    """The Yamabe -> Sobolev chain for one Calabi energy Ca.

    With total curvature int R^2 = Ca + r_bar^2 Vol, the Yamabe constant of
    the fiber class is bounded below by Y_lb = sqrt(96 pi^2 c1^2 - 2 int R^2)
    whenever the radicand is positive.  When additionally
    96 pi^2 c1^2 - 2 int R^2 >= Ca (the quadratic-curvature test) and
    Y_lb > sqrt(Ca), the Sobolev constant is bounded by
    C_s <= max(6, r_bar sqrt(Vol)) / (Y_lb - sqrt(Ca)); otherwise the
    certificate carries no bound (NaN).  A negative or non-finite Ca raises
    RegimeError.
    """
    if not math.isfinite(ca):
        raise RegimeError(f"Calabi energy must be finite, got {ca!r}")
    if ca < 0:
        raise RegimeError("Calabi energy must be nonnegative")
    log = []
    total_r2 = ca + topo.r_bar**2 * topo.volume
    radicand = 96.0 * math.pi**2 * topo.c1_squared - 2.0 * total_r2
    threshold = (96.0 * math.pi**2 * topo.c1_squared - 2.0 * topo.r_bar**2 * topo.volume) / 3.0
    log.append(f"int R^2 = Ca + r_bar^2 Vol = {total_r2:.9g}")
    log.append(f"radicand 96 pi^2 c1^2 - 2 int R^2 = {radicand:.9g}")
    log.append(
        f"quadratic-curvature test passes iff Ca <= {threshold:.9g} "
        f"(= {threshold / math.pi**2:.6g} pi^2)"
    )
    eq_cs = radicand >= ca - 1e-9 * max(1.0, ca)
    y_lb = math.sqrt(radicand) if radicand > 0 else float("nan")
    calabi_l2 = math.sqrt(ca)
    log.append(
        "note: the headline statement subtracts Ca itself against a 96 pi^2 "
        "threshold; this chain uses the derivation's quantities (threshold above, "
        "subtrahend sqrt(Ca)), which reproduce the worked constants"
    )
    prefactor = max(6.0, topo.r_bar * math.sqrt(topo.volume))
    log.append(f"prefactor max(6, r_bar sqrt(Vol)) = {prefactor:.9g}")
    bound, gap = float("nan"), y_lb - calabi_l2
    if not eq_cs or not math.isfinite(y_lb):
        log.append("quadratic-curvature test failed: no Sobolev bound")
    elif gap <= 0:
        log.append(
            f"Yamabe lower bound {y_lb:.6g} does not exceed "
            f"|R - r_bar|_L2 = {calabi_l2:.6g}: no Sobolev bound"
        )
    else:
        bound = prefactor / gap
        log.append(f"Sobolev constant bound = {bound:.9g}")
    return SobolevCertificate(
        calabi=float(ca),
        eq_cs_satisfied=bool(eq_cs),
        yamabe_lower=y_lb,
        calabi_l2=calabi_l2,
        sobolev_bound=bound,
        eq_cs_threshold=threshold,
        prop_threshold_variant=96.0 * math.pi**2,
        derivation_log=log,
    )


# ---------------------------------------------------------------------------
# controlled-class fiber energy bound


@dataclass
class FiberEnergyBound:
    """Outcome of the controlled-class chain c_S >= 12 p1."""

    sup_rm2_pointwise: float     # max of the curvature-bound right-hand side
    sup_rm2_ceiling: float       # the regime ceiling 1/2 + 4/3 fed downstream
    inf_weight: float
    sup_weight: float
    total_rm2_upper: float       # bound on the weighted total curvature
    fiber_l2_bound: float        # bound on int |Rm|^2 over the polytope
    ca_bound: float              # fiber Calabi-energy bound
    certificate: SobolevCertificate = None

    def to_dict(self) -> dict:
        return json_value(self)


def fiber_energy_bound(cls: AdmissibleClass,
                       polytope: DelzantPolytope = None) -> FiberEnergyBound:
    """Bound the fiber Calabi energy along the flow in a controlled class.

    Requires c_S >= 12 p1, p1 >= p2 >= 1, a curve base with scal_S = -1 or 1
    and chi_S != 0; a refusal (RegimeError) names the condition that failed.
    The chain: a pointwise curvature bound from the canonical initial
    potential, transfer through the weight interval [c_S - 2 p1, c_S + 2 p1],
    and the fiber-energy identity anchored at the initial value 6; the
    resulting Calabi-energy bound feeds the Yamabe and Sobolev chain.
    """
    from .curvature import canonical_rm2_bound

    p1, p2 = cls.p
    if cls.m != 1:
        raise RegimeError("controlled-class chain requires a curve base (m = 1)")
    if cls.chi_S == 0:
        raise RegimeError(
            "base with chi_S = 0 degenerates the base-volume normalization |4 pi chi_S|"
        )
    if cls.scal_S == 0.0:
        raise RegimeError("flat base (scal_S = 0): the controlled-class chain needs "
                          "scal_S = -1 or 1")
    if not (p1 >= p2 >= 1.0):
        raise RegimeError("need p1 >= p2 >= 1")
    if cls.c_S < 12.0 * p1:
        raise RegimeError(f"need c_S >= 12 p1 = {12.0 * p1:g}, got c_S = {cls.c_S:g}")

    # weight interval over the closed polytope: |<p, z>| <= 2 p1 on the
    # standard triangle, matching the chain's worked constants at c_S = 12 p1
    inf_w = cls.c_S - 2.0 * p1
    sup_w = cls.c_S + 2.0 * p1
    if polytope is not None:
        w = cls.affine(polytope.vertices)
        # the affine form attains its extremes at vertices; keep the interval
        # only if it really contains them
        if w.min() < inf_w - 1e-12 or w.max() > sup_w + 1e-12:
            raise RegimeError("weight interval does not cover the polytope")

    # pointwise curvature bound, maximized where the weight is smallest
    sup_rm2 = canonical_rm2_bound(cls, inf_w)
    if not sup_rm2 < _SUP_RM2_CEILING:
        raise RegimeError(
            f"pointwise curvature bound {sup_rm2:.6g} does not clear the regime "
            f"ceiling {_SUP_RM2_CEILING:.6g}"
        )

    base_area = 4.0 * math.pi * abs(cls.chi_S)
    fiber_factor = (2.0 * math.pi) ** 2 / 6.0 * 4.5
    total_upper = base_area * fiber_factor * sup_w * _SUP_RM2_CEILING
    fiber_l2 = (sup_w / inf_w) * 4.5 * _SUP_RM2_CEILING
    ca_bound = 8.0 * math.pi**2 * (fiber_l2 - 6.0)

    cert = certify(ca_bound, ClassTopology.standard_o3(euler_char_base=cls.chi_S))
    cert.derivation_log.insert(0, f"weight interval [{inf_w:g}, {sup_w:g}]")
    cert.derivation_log.insert(
        1,
        f"pointwise |Rm|^2 bound {sup_rm2:.9g} < {_SUP_RM2_CEILING:.9g}; "
        f"ceiling used downstream",
    )
    cert.derivation_log.insert(
        2,
        f"fiber curvature L2 bound {fiber_l2:.9g}; Ca bound "
        f"{ca_bound / math.pi**2:.6g} pi^2",
    )
    return FiberEnergyBound(
        sup_rm2_pointwise=sup_rm2,
        sup_rm2_ceiling=_SUP_RM2_CEILING,
        inf_weight=inf_w,
        sup_weight=sup_w,
        total_rm2_upper=total_upper,
        fiber_l2_bound=fiber_l2,
        ca_bound=ca_bound,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# numerical Sobolev-inequality tester


def builtin_test_functions() -> dict:
    """Smooth test functions on the closed polytope, {name: ClosedForm}."""
    from .potential import bump_form, polynomial_form

    return {
        "one": polynomial_form({(0, 0): 1.0}),
        "x": polynomial_form({(1, 0): 1.0}),
        "y": polynomial_form({(0, 1): 1.0}),
        "1+x+y": polynomial_form({(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}),
        "x2-y2": polynomial_form({(2, 0): 1.0, (0, 2): -1.0}),
        "xy": polynomial_form({(1, 1): 1.0}),
        "bump": bump_form(1.0, (0, 0), 1.0),
    }


def sobolev_inequality_test(u: SymplecticPotential, cls: AdmissibleClass) -> float:
    """Worst ratio ||f||_L3 / (||f||_L2 + ||grad f||_L2) over the functions
    of builtin_test_functions, each read at the grid nodes as the closed
    form it is, its value and gradient from one partials(1, x, y) call.

    Norms use the weighted measure p(z) dmu; the gradient norm is the inverse
    Hessian contraction u^{ij} f_i f_j.  On every state checked so far the
    worst ratio is that of the constant function "one", whose gradient term
    is 0: q^(1/3) / q^(1/2) with q the interior quadrature of the class
    weight p, which reads nothing of u.  The ratio notices the potential only
    if a non-constant test function overtakes "one".
    """
    import numpy as np

    from .curvature import class_record, curvature_context
    from .energy import interior_quadrature
    from .potential import _sym2_dot

    grid = u.grid
    x, y = grid.points[:, 0], grid.points[:, 1]
    pw = class_record(grid, cls).pw
    U = curvature_context(u)["U"]
    worst = 0.0
    for form in builtin_test_functions().values():
        jets = form.partials(1, x, y)
        fv, gx, gy = jets[0, 0], jets[1, 0], jets[0, 1]
        l3 = interior_quadrature(grid, np.abs(fv) ** 3 * pw) ** (1.0 / 3.0)
        l2 = math.sqrt(interior_quadrature(grid, fv**2 * pw))
        grad2 = _sym2_dot(U, (gx * gx, gx * gy, gy * gy))
        h1 = math.sqrt(interior_quadrature(grid, grad2 * pw))
        denom = l2 + h1
        if denom > 0:
            worst = max(worst, l3 / denom)
    return worst
