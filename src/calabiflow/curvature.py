"""Pointwise curvature of toric and admissible metrics.

Everything is computed from the inverse-Hessian field U = (Hess u)^{-1} and
its first two derivatives, the U-jets: exact matrix calculus for potentials
with a closed form, field differencing for node data.  Each symmetric 2x2
field is held by its components (00, 01, 11), a (3, n) array, and the U-jets
in the layout of the grid's jet operators, partial-major: dU (2, 3, n) with
dU[k] the components of d_k U, and d2U (3, 3, n) with d2U[kl] those of
d_k d_l U, kl = 00, 01, 11.  The fields are contracted entry by entry with
the 2x2 helpers of calabiflow.potential.

The weighted scalar curvature of node data, the flow velocity, is linear in
U: it is one sparse product of the class record's operator L (see
class_record) with the contiguous components of U, and reads no U-jet.  The
pointwise operations evaluate the field formulas on a one-point context, which
for node data is the node's slice of the grid context, so they equal the rows
of the fields; only the curvature blocks expand it to full tensors.
Derivatives in the dual coordinates are obtained by the chain rule
u_{ik} d/dxi_k = d/dz_i, never by differencing in dual space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._serialize import json_value
from .errors import CurvatureUndefinedError, DegenerateInputError, DomainError, RegimeError
from .polytope import DelzantPolytope, Grid, _frozen
from .potential import (HESSIAN_KEYS, SymplecticPotential, _mat2, _mat2_product, _sym2_dot,
                        _sym2_eigenvalues, _sym2_inverse, _sym2_matrix, _sym2_sandwich,
                        _trace_of_square)

_SPD_RATIO = 1e-12


@dataclass(frozen=True)
class AdmissibleClass:
    """Scalar data of an admissible Kahler class on a projective-plane bundle.

    p : line-bundle curvature factors (p1, p2), any two finite floats; the
        |Rm|^2 bound (canonical_rm2_bound) needs p1 >= |p2|
    c_S : class constant, a finite float, with <p, z> + c_S > 0 on the
          closed polytope (validate_on)
    scal_S : normalized base scalar curvature, one of -1, 0, 1
    m : complex dimension of the base, 0 (the bare fiber) or 1 (a curve)
    chi_S : Euler characteristic of the base, a whole number

    Construction coerces each field to its type (m = 1.0 to 1, but not 1.7)
    and raises DegenerateInputError for any other value.
    """

    p: tuple
    c_S: float
    scal_S: float
    m: int = 1
    chi_S: int = -2

    def __post_init__(self):
        try:
            if isinstance(self.p, str) or len(self.p) != 2:
                raise DegenerateInputError(f"p must have two entries (p1, p2), got {self.p!r}")
            p, c_S, scal_S, m, chi_S = (tuple(map(float, self.p)), float(self.c_S),
                                        float(self.scal_S), float(self.m), float(self.chi_S))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DegenerateInputError(f"malformed class data: {exc}") from exc
        # each check is written so that NaN fails it
        if not all(map(math.isfinite, (*p, c_S))):
            raise DegenerateInputError("p and c_S must be finite")
        if scal_S not in (-1.0, 0.0, 1.0):
            raise DegenerateInputError("scal_S must be -1, 0 or 1 after normalization")
        if not (m.is_integer() and chi_S.is_integer()):
            raise DegenerateInputError(f"m, chi_S must be whole numbers: {self.m!r} {self.chi_S!r}")
        if m not in (0.0, 1.0):
            raise DegenerateInputError(f"base dimension m must be 0 (fiber) or 1 (curve): {m:g}")
        for key, value in dict(p=p, c_S=c_S, scal_S=scal_S, m=int(m), chi_S=int(chi_S)).items():
            object.__setattr__(self, key, value)

    @classmethod
    def trivial(cls) -> "AdmissibleClass":
        """Pure fiber: weight identically 1, no base curvature."""
        return cls(p=(0.0, 0.0), c_S=1.0, scal_S=0.0, m=0, chi_S=1)

    @property
    def a(self) -> float:
        """Expansion constant of the base potential, a = -scal_S / 2 (derived)."""
        return -self.scal_S / 2.0

    def affine(self, points) -> np.ndarray:
        """<p, z> + c_S, elementwise so that one point gives the same bits as
        a whole grid (a matrix product may fuse the multiply-adds)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        q = pts[:, 0] * self.p[0] + pts[:, 1] * self.p[1] + self.c_S
        return q if np.asarray(points).ndim > 1 else q[0]

    def weight(self, points) -> np.ndarray:
        """p(z) = (<p, z> + c_S)^m."""
        return self.affine(points) ** self.m

    def validate_on(self, polytope: DelzantPolytope) -> None:
        """The affine form attains its extremes at vertices; require positivity
        (a NaN fails the check)."""
        if not np.min(self.affine(polytope.vertices)) > 0:
            raise DegenerateInputError(
                "class weight <p, z> + c_S is not positive on the closed polytope"
            )


@dataclass(frozen=True, eq=False)
class ClassRecord:
    """Constants of one admissible class on one grid, at every node.

    q      : <p, z> + c_S
    pw     : the class weight q^m
    scal_q : scal_S / q
    L      : (n, 3n) CSR operator with L @ U.ravel() = sum_rs d_r d_s (q^m U_rs) / q^m
             for U the (3, n) components (U00, U01, U11), so that the weighted
             scalar curvature of node data is scal_q - L @ U.ravel()

    With a_r = 2 m p_r / q the blocks of L are
    L00 = diag(a0) Dx + Dxx,  L01 = diag(a0) Dy + diag(a1) Dx + 2 Dxy,
    L11 = diag(a1) Dy + Dyy; D are the row blocks of the grid's
    gradient_operator and hessian_operator.  The weight q^m is affine for m
    in {0, 1}, so no second derivative of it enters.  L's arrays are
    read-only, like the grid's operators.
    """

    q: np.ndarray
    pw: np.ndarray
    scal_q: np.ndarray
    L: object


def _velocity_operator(grid: Grid, cls: AdmissibleClass, q: np.ndarray):
    """The operator L of ClassRecord, with the int32 indices of the grid's
    operators.

    The five D are row blocks of the grid's jet operators, built on slices
    of their arrays, not copied row by row.  Scipy's products and sums form
    L00, L01 and L11, and so fix the entry order of each of their rows; row
    r of L is row r of L00, of L01 and of L11 in turn.  A row's entry order
    is part of L's bits, since its products sum in that order, so the sums
    stay scipy's until ROADMAP item 15 moves these bits anyway."""
    from scipy import sparse

    G, H, n = grid.gradient_operator, grid.hessian_operator, grid.n_nodes

    def rows(A, k):
        lo, hi = A.indptr[k * n], A.indptr[(k + 1) * n]
        return sparse.csr_array((A.data[lo:hi], A.indices[lo:hi],
                                 A.indptr[k * n:(k + 1) * n + 1] - lo), shape=(n, n))

    Dx, Dy, Dxx, Dxy, Dyy = (rows(A, k) for A, k in ((G, 0), (G, 1), (H, 0), (H, 1), (H, 2)))
    a0, a1 = (sparse.diags_array(2.0 * cls.m * p / q) for p in cls.p)
    blocks = a0 @ Dx + Dxx, a0 @ Dy + a1 @ Dx + 2.0 * Dxy, a1 @ Dy + Dyy
    return _frozen(sparse.hstack(blocks, format="csr"))


def class_record(grid: Grid, cls: AdmissibleClass) -> ClassRecord:
    """The ClassRecord of cls on grid, built on first request and kept in
    grid.class_records.  The class is validated on the grid's polytope when
    its record is built (DegenerateInputError), so a record exists only for a
    valid class."""
    rec = grid.class_records.get(cls)
    if rec is None:
        cls.validate_on(grid.polytope)
        q = cls.affine(grid.points)
        # q^1 is q itself, so the bundle classes keep one array for both
        pw = q if cls.m == 1 else q**cls.m
        rec = grid.class_records[cls] = ClassRecord(
            q=q, pw=pw, scal_q=cls.scal_S / q, L=_velocity_operator(grid, cls, q))
    return rec


@dataclass
class CurvatureSample:
    """All pointwise curvature data at one point."""

    point: np.ndarray
    r_fiber: float
    r_weighted: float
    rm2_fiber: float
    rm_0000: float
    rm_00ij: np.ndarray
    rm_ijkl: np.ndarray
    ric_00: float
    ric_ij: np.ndarray
    rm2_total: float

    def to_dict(self) -> dict:
        return json_value(self)


# ---------------------------------------------------------------------------
# derivative context


def _spd_inverse(G) -> np.ndarray:
    """The components (3, n) of the inverse of a Hessian field G, which must
    be positive definite (CurvatureUndefinedError).

    The test is lo > _SPD_RATIO max(hi, 1) at every point, lo <= hi the
    eigenvalues.  One bound from the trace and the determinant, which the
    inverse needs anyway, decides first: with T the largest trace, tr > 0
    and det > max(T, 1) T 4 _SPD_RATIO at every point.  Each point's own
    bound max(tr, 1) tr 4 _SPD_RATIO, multiplied in the same order, is at
    most this one, since rounding is monotone, and it gives
    lo > 4 _SPD_RATIO max(hi, 1), since lo = det / hi and hi < tr.  The
    rounding of det and tr (about u tr^2, u = 2^-53) and the error of a
    computed lo (about 6 u hi) stay far inside the factor 4, so the
    eigenvalue test passes wherever the bound does.  T is a Python float, so
    a T^2 past the float range is inf without a warning.  Where the bound
    fails (NaN, inf, T^2 overflowing, tiny, indefinite, nearly singular or
    widely spread fields) the eigenvalue test decides, without warnings of
    its arithmetic on such fields, and its error message counts the failing
    points."""
    s00, s01, s11 = G
    sq = s01 * s01
    det = s00 * s11
    det -= sq
    tr = s00 + s11
    T = float(tr.max())
    # a NaN fails both comparisons
    if not (tr.min() > 0 and det.min() > max(T, 1.0) * T * (4.0 * _SPD_RATIO)):
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = _sym2_eigenvalues(G, sq)
            np.maximum(hi, 1.0, out=hi)
            hi *= _SPD_RATIO
        if not np.all(lo > hi):
            # fmin skips NaN without the all-NaN warning of nanmin
            raise CurvatureUndefinedError(
                f"Hessian not positive definite at {np.count_nonzero(~(lo > hi))} point(s); "
                f"min eigenvalue {np.fmin.reduce(lo):.3e}"
            )
    return _sym2_inverse(G, det)


def _dU_trace(dU: np.ndarray) -> np.ndarray:
    """dU_trace[s, r] = d_s U_rs, from the first U-jets."""
    return np.stack([dU[0, :2], dU[1, 1:]])


def _d2U_trace(d2U: np.ndarray) -> np.ndarray:
    """The sum of d_r d_s U_rs over rs = 00, 01, 10, 11 in this order, from
    the second U-jets."""
    dxy01 = d2U[1, 1]
    return ((d2U[0, 0] + dxy01) + dxy01) + d2U[2, 2]


def _context_from_jets(p: dict) -> dict:
    """Context from u-partials {(a, b): array}, the U-jets by matrix calculus.

    G, U    : (3, n) components (00, 01, 11) of Hess u and of its inverse
    dU, d2U : the U-jets, (2, 3, n) and (3, 3, n): dU[k] the components of
              d_k U, k = 0, 1, and d2U[kl] those of d_k d_l U, kl = 00, 01, 11

    With T3_k = (u_ijk)_ij and T4_kl = (u_ijkl)_ij read from the partials,
    dU_k = -U T3_k U and d2U_kl = -((U T4_kl U + C) + C^T), C = dU_l T3_k U.
    """
    G = np.stack([p[key] for key in HESSIAN_KEYS])
    U = _spd_inverse(G)

    def T(m, order):  # the matrix (u_ij..)_ij of that order, m y's among its indices past ij
        return tuple(p[(order - m - c, m + c)] for c in range(3))

    T3 = [T(k, 3) for k in (0, 1)]
    dU = -np.stack([_sym2_sandwich(U, T3[k]) for k in (0, 1)])
    d2U = np.empty((3, *U.shape))
    for kl, (k, l) in enumerate(((0, 0), (0, 1), (1, 1))):
        c00, c01, c10, c11 = _mat2_product(_mat2_product(_mat2(dU[l]), _mat2(T3[k])), _mat2(U))
        s00, s01, s11 = _sym2_sandwich(U, T(k + l, 4))
        d2U[kl] = -np.stack([(s00 + c00) + c00, (s01 + c01) + c10, (s11 + c11) + c11])
    return {"G": G, "U": U, "dU": dU, "d2U": d2U}


def _node_context(grid: Grid, f_hessian: np.ndarray) -> dict:
    """The context {"G", "U"} of node data whose second partials are
    f_hessian, (3, n): G the canonical Hessian plus f_hessian, U its inverse."""
    G = np.add(grid.guillemin_hessian, f_hessian)
    return {"G": G, "U": _spd_inverse(G)}


def _node_scalar(rec: ClassRecord, U: np.ndarray) -> np.ndarray:
    """The weighted scalar curvature scal_q - L U of node data from its U."""
    R = rec.L @ U.ravel()
    return np.subtract(rec.scal_q, R, out=R)


def stage_velocity(grid: Grid, rec: ClassRecord, f: np.ndarray, r_bar: float) -> np.ndarray:
    """The flow velocity r_bar - R at every node of the node data f, R the
    weighted scalar curvature of the class whose record is rec.

    The chain of curvature_context and weighted_scalar_field for node data,
    bit for bit, with no potential and no cache: one product of the grid's
    hessian_operator, the canonical Hessian added, _spd_inverse, and one
    product of rec.L."""
    f_hessian = (grid.hessian_operator @ f).reshape(3, -1)
    return r_bar - _node_scalar(rec, _node_context(grid, f_hessian)["U"])


def curvature_context(u: SymplecticPotential) -> dict:
    """Cached grid-wide derivative context of the potential, as
    _context_from_jets has it for a closed form; node data has G and U alone
    (_node_context) until _jet_context adds the U-jets."""
    cache = u.curvature_cache
    if "context" not in cache:
        if u.f_form is None:
            cache["context"] = _node_context(u.grid, u._f_jet(2))
        else:
            cache["context"] = _context_from_jets(u.jets(4))
    return cache["context"]


def _jet_context(u: SymplecticPotential) -> dict:
    """curvature_context(u) with its U-jets dU and d2U; for node data the
    first call adds them: one product of the grid's gradient_operator and
    one of its hessian_operator per component of U, six in all."""
    ctx = curvature_context(u)
    if "dU" not in ctx:
        for name, A in (("dU", u.grid.gradient_operator), ("d2U", u.grid.hessian_operator)):
            # the partial-major layout: [partial, component, node]
            ctx[name] = np.stack([(A @ e).reshape(-1, len(e)) for e in ctx["U"]], axis=1)
    return ctx


def _locate(u: SymplecticPotential, x):
    """(point, node) of a pointwise op at x.

    A closed form is evaluated at x itself (node None); node data needs x to
    be a grid node, and gives that node and its index.
    """
    x = np.asarray(x, dtype=float)
    if not u.polytope.contains(x):
        raise DomainError(f"point {tuple(x)} is not interior to the polytope")
    if u.f_form is None:
        k = u.grid_node(x)
        return u.grid.points[k], k
    return x, None


def _point_context(u: SymplecticPotential, pt, k) -> dict:
    """One-point context at (pt, k) from _locate: the exact context at pt of
    a closed form, or the k:k+1 slice of the grid context of node data."""
    if k is None:
        return _context_from_jets(u.partials_at(pt[None, :]))
    ctx = _jet_context(u)
    return {key: ctx[key][..., k : k + 1] for key in ("G", "U", "dU", "d2U")}


# ---------------------------------------------------------------------------
# field operations


def abreu_scalar_field(u: SymplecticPotential) -> np.ndarray:
    """R = -sum_ij (u^{ij})_{,ij} at every node, from the second U-jets."""
    return -_d2U_trace(_jet_context(u)["d2U"])


def _fiber_rm2(d2U: np.ndarray) -> np.ndarray:
    """|Rm|^2 of the fiber metric: (1/4) sum (u^{ij})_{,kl} (u^{kl})_{,ij}, that
    is, the sum over kl = 00, 01, 10, 11 of <d2U[kl], d2U[:, kl]>."""
    t00, t01, t11 = (_sym2_dot(d2U[c], d2U[:, c]) for c in range(3))
    return 0.25 * ((t00 + 2.0 * t01) + t11)


def fiber_riemann_norm_field(u: SymplecticPotential) -> np.ndarray:
    """Fiber |Rm|^2 at every node."""
    cache = u.curvature_cache
    if "fiber_rm2" not in cache:
        cache["fiber_rm2"] = _fiber_rm2(_jet_context(u)["d2U"])
    return cache["fiber_rm2"]


def _weighted_scalar_from_ctx(ctx: dict, cls: AdmissibleClass, q: np.ndarray) -> np.ndarray:
    """The weighted scalar curvature from the traces of a context, q the
    affine class form at its points."""
    pw = q**cls.m
    # the weight p(z) = q^m is affine for m in {0, 1}: its gradient is m p
    pr0, pr1 = (cls.m * p for p in cls.p)
    # div = sum_rs d_r d_s (p U_rs) = 2 sum p_r d_s U_rs + p sum d_r d_s U_rs
    dUt = _dU_trace(ctx["dU"])
    div = 2.0 * ((pr0 * dUt[0, 0] + pr1 * dUt[0, 1]) + (pr0 * dUt[1, 0] + pr1 * dUt[1, 1]))
    div = div + pw * _d2U_trace(ctx["d2U"])
    return cls.scal_S / q - div / pw


def weighted_scalar_field(u: SymplecticPotential, cls: AdmissibleClass) -> np.ndarray:
    """R = scal_S / q - sum_rs d_r d_s (q^m U_rs) / q^m at every node.

    Node data applies the class record's operator L to the contiguous
    components of U, one sparse product (see ClassRecord); a closed form
    contracts the traces of its exact U-jets.  The class is validated when
    its record is built (see class_record)."""
    cache = u.curvature_cache
    key = ("weighted", cls)
    if key not in cache:
        rec = class_record(u.grid, cls)
        if u.f_form is None:
            cache[key] = _node_scalar(rec, curvature_context(u)["U"])
        else:
            cache[key] = _weighted_scalar_from_ctx(_jet_context(u), cls, rec.q)
    return cache[key]


def _rm2_total_from_ctx(ctx: dict, cls: AdmissibleClass, q: np.ndarray,
                        rm2_fiber: np.ndarray) -> dict:
    """|Rm|^2 of the admissible metric over the context points, with the
    pieces it is built from: {"pw", "A", "pH3", "M", "rm2_fiber",
    "rm2_total"}, pH3 and M as components (3, n).  q is the affine class form
    and rm2_fiber the fiber |Rm|^2 at the same points.  Every contraction is
    written out per entry, and none needs a third-order tensor of H = U."""
    pw = q**cls.m
    a = cls.a
    p0, p1 = cls.p
    U00, U01, U11 = ctx["U"]

    # Hp = U p and A = <Hp, p>
    Hp0, Hp1 = U00 * p0 + U01 * p1, U01 * p0 + U11 * p1
    A = Hp0 * p0 + Hp1 * p1
    # pH3_ij = sum_k p_k H3_ijk with H3_ijk = sum_m U_km d_m U_ij (the chain
    # rule to dual coordinates), so pH3_ij = sum_m Hp_m d_m U_ij
    pH3 = Hp0 * ctx["dU"][0] + Hp1 * ctx["dU"][1]
    M = -pH3 + np.stack([Hp0 * Hp0, Hp0 * Hp1, Hp1 * Hp1]) / pw

    term1 = (2.0 * a * pw + A) ** 2 / (4.0 * pw**4)
    # sum G_ik G_jl M_ij M_kl = tr((G M)^2)
    term2 = _trace_of_square(ctx["G"], M) / (4.0 * pw**2)
    return {"pw": pw, "A": A, "pH3": pH3, "M": M,
            "rm2_fiber": rm2_fiber, "rm2_total": term1 + term2 + rm2_fiber}


def _blocks_from_ctx(ctx: dict, cls: AdmissibleClass, q: np.ndarray) -> dict:
    """All admissible curvature blocks over the context points, from full
    tensors; q is the affine class form at those points."""
    parts = _rm2_total_from_ctx(ctx, cls, q, _fiber_rm2(ctx["d2U"]))
    pw, A = parts["pw"], parts["A"]
    pH3, M, G, U = (_sym2_matrix(S) for S in (parts["pH3"], parts["M"], ctx["G"], ctx["U"]))
    # dU[:, k, i, j] = d_k U_ij and d2U[:, k, l, i, j] = d_k d_l U_ij
    dU = _sym2_matrix(np.moveaxis(ctx["dU"], 0, -1))
    d2U = _sym2_matrix(_sym2_matrix(ctx["d2U"]))

    # chain rule to the dual-coordinate derivative tensors of H = U
    H3 = np.einsum("nkm,nmij->nijk", U, dU)
    H4 = np.einsum("nlv,nvkm,nmij->nijkl", U, dU, dU) + np.einsum(
        "nkm,nlv,nmvij->nijkl", U, U, d2U
    )
    H4 = 0.5 * (H4 + np.swapaxes(H4, 2, 3))

    rm_0000 = -4.0 * cls.a * pw - 2.0 * A
    rm_00ij = 0.5 * M
    fiber_core = -H4 + np.einsum("nst,nilt,njks->nijkl", G, H3, H3)
    rm_ijkl = fiber_core / 8.0
    # The H3-contraction coefficient 2 is forced by the trace identity
    # 2(g^{00}Ric_00 + g^{ij}Ric_ij) = R(u) with g_00 = 2p(z), g_ij = H/2.
    ric_00 = -2.0 * cls.a - 2.0 * np.einsum("nij,nij->n", G, pH3)
    ric_ij = 0.25 * np.einsum("nkl,nijkl->nij", G, fiber_core)
    return {
        "rm_0000": rm_0000,
        "rm_00ij": rm_00ij,
        "rm_ijkl": rm_ijkl,
        "ric_00": ric_00,
        "ric_ij": ric_ij,
        "rm2_fiber": parts["rm2_fiber"],
        "rm2_total": parts["rm2_total"],
    }


def rm2_total_field(u: SymplecticPotential, cls: AdmissibleClass) -> np.ndarray:
    """|Rm|^2 of the admissible metric at every node; the class is validated
    when its record is built (see class_record)."""
    cache = u.curvature_cache
    key = ("rm2_total", cls)
    if key not in cache:
        cache[key] = _rm2_total_from_ctx(_jet_context(u), cls, class_record(u.grid, cls).q,
                                         fiber_riemann_norm_field(u))["rm2_total"]
    return cache[key]


# ---------------------------------------------------------------------------
# pointwise operations


def abreu_scalar(u: SymplecticPotential, x) -> float:
    return float(-_d2U_trace(_point_context(u, *_locate(u, x))["d2U"])[0])


def weighted_scalar(u: SymplecticPotential, cls: AdmissibleClass, x) -> float:
    cls.validate_on(u.polytope)
    pt, k = _locate(u, x)
    if k is not None:
        return float(weighted_scalar_field(u, cls)[k])
    return float(_weighted_scalar_from_ctx(_point_context(u, pt, k), cls,
                                           cls.affine(pt[None, :]))[0])


def fiber_riemann_norm(u: SymplecticPotential, x) -> float:
    pt, k = _locate(u, x)
    return float(_fiber_rm2(_point_context(u, pt, k)["d2U"])[0])


def admissible_blocks(u: SymplecticPotential, cls: AdmissibleClass, x) -> CurvatureSample:
    """All curvature blocks at a point, from the one-point derivative context.

    For node data that context is the node's slice of the grid context, and
    the weighted scalar is the row of its field, so the scalar entries equal
    the rows of the field operations.
    """
    cls.validate_on(u.polytope)
    pt, k = _locate(u, x)
    ctx, q = _point_context(u, pt, k), cls.affine(pt[None, :])
    blocks = _blocks_from_ctx(ctx, cls, q)
    r_weighted = (_weighted_scalar_from_ctx(ctx, cls, q)[0] if k is None
                  else weighted_scalar_field(u, cls)[k])
    return CurvatureSample(
        point=pt,
        r_fiber=float(-_d2U_trace(ctx["d2U"])[0]),
        r_weighted=float(r_weighted),
        rm2_fiber=float(blocks["rm2_fiber"][0]),
        rm_0000=float(blocks["rm_0000"][0]),
        rm_00ij=blocks["rm_00ij"][0],
        rm_ijkl=blocks["rm_ijkl"][0],
        ric_00=float(blocks["ric_00"][0]),
        ric_ij=blocks["ric_ij"][0],
        rm2_total=float(blocks["rm2_total"][0]),
    )


def ricci_trace(u: SymplecticPotential, cls: AdmissibleClass, x) -> float:
    """2 (g^{00} Ric_00 + g^{ij} Ric_ij) with g_00 = 2 p(z), g_ij = H_ij / 2.

    Internal consistency oracle: equals the weighted scalar curvature.
    """
    cls.validate_on(u.polytope)
    pt, k = _locate(u, x)
    ctx = _point_context(u, pt, k)
    blocks = _blocks_from_ctx(ctx, cls, cls.affine(pt[None, :]))
    pw = float(cls.weight(pt))
    fiber = 2.0 * float(np.einsum("nij,nij->n", _sym2_matrix(ctx["G"]), blocks["ric_ij"])[0])
    return 2.0 * (blocks["ric_00"][0] / (2.0 * pw) + fiber)


def control_rm_rhs(cls: AdmissibleClass, x) -> float:
    """Pointwise upper bound for |Rm|^2 of the canonical potential at x,
    canonical_rm2_bound at the class's <p, x> + c_S; RegimeError unless
    p1 >= |p2|."""
    return canonical_rm2_bound(cls, float(cls.affine(np.asarray(x, dtype=float))))


def canonical_rm2_bound(cls: AdmissibleClass, q: float) -> float:
    """|Rm|^2 bound of the canonical potential where <p, z> + c_S = q:

    (scal_S / q)^2 + 90 r^4 + (4 r + 24 r^2)^2 + 4/3, r = p1 / q.

    The bound takes p1 as the larger factor: it holds only for p1 >= |p2|,
    and a class outside that raises RegimeError (on Fubini-Study at N=48,
    p = (0, -2), c_S = 60, the total |Rm|^2 exceeds it at every node).  In
    the ratio r no power of p1 itself is taken, so a class whose p1 and c_S
    are both large has a finite bound wherever r is moderate.
    """
    p1, p2 = cls.p
    if not p1 >= abs(p2):
        raise RegimeError(f"the |Rm|^2 bound needs p1 >= |p2|, got p = ({p1:g}, {p2:g})")
    r = p1 / q
    return (cls.scal_S / q) ** 2 + 90.0 * r**4 + (4.0 * r + 24.0 * r**2) ** 2 + 4.0 / 3.0
