"""Pointwise curvature of toric and admissible metrics.

Everything is computed from the inverse-Hessian field U = (Hess u)^{-1} and
its first two derivative fields: exact matrix calculus for potentials with a
closed form, field differencing for node data.  Pointwise operations evaluate
the same formulas on a one-point context.  Derivatives in the dual
coordinates are obtained by the chain rule u_{ik} d/dxi_k = d/dz_i, never by
differencing in dual space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CurvatureUndefinedError, DegenerateInputError, DomainError, RegimeError
from .polytope import DelzantPolytope
from .potential import SymplecticPotential, _sym2_eigenvalues, _sym2_inverse, _tensorize

_SPD_RATIO = 1e-12


@dataclass(frozen=True)
class AdmissibleClass:
    """Scalar data of an admissible Kahler class on a projective-plane bundle.

    p : line-bundle curvature factors (p1, p2), p1 >= p2
    c_S : class constant, with <p, z> + c_S > 0 on the closed polytope
    scal_S : normalized base scalar curvature, one of -1, 0, 1
    m : complex dimension of the base (0 or 1 supported)
    chi_S : Euler characteristic of the base
    """

    p: tuple
    c_S: float
    scal_S: float
    m: int = 1
    chi_S: int = -2

    def __post_init__(self):
        object.__setattr__(self, "p", (float(self.p[0]), float(self.p[1])))
        if self.scal_S not in (-1.0, 0.0, 1.0):
            raise DegenerateInputError("scal_S must be -1, 0 or 1 after normalization")
        if self.m < 0:
            raise DegenerateInputError("base dimension m must be nonnegative")

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
        """The affine form attains its extremes at vertices; require positivity."""
        if np.min(self.affine(polytope.vertices)) <= 0:
            raise DegenerateInputError(
                "class weight <p, z> + c_S is not positive on the closed polytope"
            )


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
        return {
            "point": [float(self.point[0]), float(self.point[1])],
            "r_fiber": self.r_fiber,
            "r_weighted": self.r_weighted,
            "rm2_fiber": self.rm2_fiber,
            "rm_0000": self.rm_0000,
            "rm_00ij": np.asarray(self.rm_00ij).tolist(),
            "rm_ijkl": np.asarray(self.rm_ijkl).tolist(),
            "ric_00": self.ric_00,
            "ric_ij": np.asarray(self.ric_ij).tolist(),
            "rm2_total": self.rm2_total,
        }


# ---------------------------------------------------------------------------
# derivative context


def _check_spd(G: np.ndarray) -> None:
    lo, hi = _sym2_eigenvalues(G)
    bad = ~np.isfinite(lo) | (lo <= _SPD_RATIO * np.maximum(hi, 1.0))
    if np.any(bad):
        raise CurvatureUndefinedError(
            f"Hessian not positive definite at {int(bad.sum())} point(s); "
            f"min eigenvalue {np.nanmin(lo):.3e}"
        )


def _context_from_jets(partials: dict, n: int) -> dict:
    """Build (G, U, dU, d2U) from u-partials; dU/d2U by matrix calculus.

    G         : (n, 2, 2) Hessian of u
    U         : (n, 2, 2) inverse Hessian
    dU        : (n, 2, 2, 2) with dU[:, k, a, b] = d U_ab / d z_k
    d2U       : (n, 2, 2, 2, 2) with d2U[:, k, l, a, b]
    dU_trace  : (n, 2, 2) with dU_trace[:, s, r] = d U_rs / d z_s
    d2U_trace : (n,) sum over r, s of d2 U_rs / d z_r d z_s
    """
    G = _tensorize(partials, 2, n)
    _check_spd(G)
    T3 = _tensorize(partials, 3, n)  # T3[:, i, j, k] = u_{ijk}
    T4 = _tensorize(partials, 4, n)
    U = _sym2_inverse(G)
    dU = -np.einsum("nai,nijk,njb->nkab", U, T3, U)
    t1 = np.einsum("nlai,nijk,njb->nklab", dU, T3, U)
    t2 = np.einsum("nai,nijkl,njb->nklab", U, T4, U)
    t3 = np.einsum("nai,nijk,nljb->nklab", U, T3, dU)
    d2U = -(t1 + t2 + t3)
    return {"G": G, "U": U, "dU": dU, "d2U": d2U,
            "dU_trace": np.einsum("nsrs->nsr", dU), "d2U_trace": np.einsum("nrsrs->n", d2U)}


def _context_fd(u: SymplecticPotential) -> dict:
    """Field context: G = u.hessians(), then the derivatives of the
    inverse-Hessian entries (see _FdContext)."""
    G = u.hessians()
    _check_spd(G)
    U = _sym2_inverse(G)
    return _FdContext(G, U, u.grid.jet_blocks, np.stack([U[:, 0, 0], U[:, 0, 1], U[:, 1, 1]]))


class _FdContext(dict):
    """Derivative context of an fd potential, from the derivative operators
    of the grid applied to the inverse-Hessian entries (U00, U01, U11).

    blocks holds one operator per JET_KEYS partial, restricted to the rows
    of this context's points; entries is the (3, n) stack of the entries at
    every grid node, which those rows act on.  G, U and the two traces the
    scalar curvatures read are filled at once, from the seven products of a
    block with one entry that the traces need.  The full tensors dU and d2U
    are assembled on first access: the flow velocity needs only the traces.
    """

    def __init__(self, G: np.ndarray, U: np.ndarray, blocks: dict, entries: np.ndarray):
        U00, U01, U11 = entries
        dxy01 = blocks[(1, 1)] @ U01
        dU_trace = np.empty((len(G), 2, 2))  # [:, s, r] = d_s U_rs
        dU_trace[:, 0, 0] = blocks[(1, 0)] @ U00
        dU_trace[:, 0, 1] = blocks[(1, 0)] @ U01
        dU_trace[:, 1, 0] = blocks[(0, 1)] @ U01
        dU_trace[:, 1, 1] = blocks[(0, 1)] @ U11
        super().__init__(
            G=G,
            U=U,
            dU_trace=dU_trace,
            # summed in the order of the einsum over the full d2U tensor
            d2U_trace=((blocks[(2, 0)] @ U00 + dxy01) + dxy01) + blocks[(0, 2)] @ U11,
        )
        self._blocks, self._entries = blocks, entries

    def row(self, k: int) -> "_FdContext":
        """One-row context of node k: row k of G and U, and row k of every
        block, so its traces and full tensors are built as the grid's are."""
        return _FdContext(self["G"][k : k + 1], self["U"][k : k + 1],
                          {key: D[k : k + 1] for key, D in self._blocks.items()},
                          self._entries)

    def __missing__(self, key):
        if key not in ("dU", "d2U"):
            raise KeyError(key)
        jets = {jet: [D @ e for e in self._entries] for jet, D in self._blocks.items()}
        n = len(self["U"])
        dU = np.empty((n, 2, 2, 2))
        d2U = np.empty((n, 2, 2, 2, 2))
        for c, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
            dU[:, 0, a, b] = dU[:, 0, b, a] = jets[(1, 0)][c]
            dU[:, 1, a, b] = dU[:, 1, b, a] = jets[(0, 1)][c]
            d2U[:, 0, 0, a, b] = d2U[:, 0, 0, b, a] = jets[(2, 0)][c]
            d2U[:, 1, 1, a, b] = d2U[:, 1, 1, b, a] = jets[(0, 2)][c]
            d2U[:, 0, 1, a, b] = d2U[:, 0, 1, b, a] = jets[(1, 1)][c]
            d2U[:, 1, 0, a, b] = d2U[:, 1, 0, b, a] = jets[(1, 1)][c]
        self["dU"], self["d2U"] = dU, d2U
        return self[key]


def curvature_context(u: SymplecticPotential) -> dict:
    """Cached grid-wide derivative context of the potential."""
    cache = u.curvature_cache
    if "context" not in cache:
        if u.provider == "analytic":
            cache["context"] = _context_from_jets(u.jets(4), u.grid.n_nodes)
        else:
            cache["context"] = _context_fd(u)
    return cache["context"]


def context_at_points(u: SymplecticPotential, points) -> dict:
    """Derivative context at arbitrary interior points (closed forms only)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _context_from_jets(u.partials_at(pts), len(pts))


def _node_context(u: SymplecticPotential, x):
    """(one-point context, point) for pointwise ops.

    Closed forms evaluate the context at x itself; node data needs x to be a
    grid node and takes that node's row of the grid context (a one-row
    _FdContext, so the whole-grid dU/d2U tensors stay unbuilt).
    """
    x = np.asarray(x, dtype=float)
    if not u.polytope.contains(x):
        raise DomainError(f"point {tuple(x)} is not interior to the polytope")
    if u.provider == "analytic":
        return context_at_points(u, x[None, :]), x
    k = u.grid_node(x)
    return curvature_context(u).row(k), u.grid.points[k]


# ---------------------------------------------------------------------------
# field operations


def abreu_scalar_field(u: SymplecticPotential) -> np.ndarray:
    """R = -sum_ij (u^{ij})_{,ij} at every node."""
    cache = u.curvature_cache
    if "abreu" not in cache:
        cache["abreu"] = -curvature_context(u)["d2U_trace"]
    return cache["abreu"]


def _fiber_rm2(d2U: np.ndarray) -> np.ndarray:
    """|Rm|^2 of the fiber metric: (1/4) sum (u^{ij})_{,kl} (u^{kl})_{,ij}."""
    return 0.25 * np.einsum("nklij,nijkl->n", d2U, d2U)


def fiber_riemann_norm_field(u: SymplecticPotential) -> np.ndarray:
    """Fiber |Rm|^2 at every node."""
    cache = u.curvature_cache
    if "fiber_rm2" not in cache:
        cache["fiber_rm2"] = _fiber_rm2(curvature_context(u)["d2U"])
    return cache["fiber_rm2"]


def _weighted_scalar_from_ctx(ctx: dict, cls: AdmissibleClass, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    q = cls.affine(pts)
    pw = q**cls.m
    pvec = np.asarray(cls.p)
    # derivatives of the weight p(z) = q^m (q affine)
    pr = cls.m * q[:, None] ** (cls.m - 1) * pvec[None, :] if cls.m >= 1 else np.zeros_like(pts)
    # div = sum_rs d_r d_s (p U_rs) = sum p_rs U_rs + 2 sum p_r d_s U_rs + p sum d_r d_s U_rs
    dUt = ctx["dU_trace"]
    div = 2.0 * ((pr[:, 0] * dUt[:, 0, 0] + pr[:, 1] * dUt[:, 0, 1])
                 + (pr[:, 0] * dUt[:, 1, 0] + pr[:, 1] * dUt[:, 1, 1]))
    if cls.m >= 2:
        prs = (cls.m * (cls.m - 1) * q ** (cls.m - 2))[:, None, None] * np.einsum(
            "r,s->rs", pvec, pvec
        )[None, :, :]
        div = np.einsum("nrs,nrs->n", prs, ctx["U"]) + div
    div = div + pw * ctx["d2U_trace"]
    return cls.scal_S / q - div / pw


def weighted_scalar_field(u: SymplecticPotential, cls: AdmissibleClass) -> np.ndarray:
    cls.validate_on(u.polytope)
    cache = u.curvature_cache
    key = ("weighted", cls)
    if key not in cache:
        cache[key] = _weighted_scalar_from_ctx(curvature_context(u), cls, u.grid.points)
    return cache[key]


def _rm2_total_from_ctx(ctx: dict, cls: AdmissibleClass, points) -> dict:
    """|Rm|^2 of the admissible metric over the context points, with the
    pieces it is built from: {"pw", "A", "H3", "pH3", "M", "rm2_fiber",
    "rm2_total"}.  It needs no fourth-order tensor of H."""
    if cls.m > 1:
        raise RegimeError("admissible curvature blocks require base dimension m <= 1")
    q = cls.affine(np.atleast_2d(points))
    pw = q**cls.m
    a = cls.a
    pvec = np.asarray(cls.p)
    G, U, dU = ctx["G"], ctx["U"], ctx["dU"]

    # chain rule to the dual-coordinate derivative tensor of H = U
    H3 = np.einsum("nkm,nmij->nijk", U, dU)
    Hp = np.einsum("nij,j->ni", U, pvec)
    A = np.einsum("ni,i->n", Hp, pvec)
    pH3 = np.einsum("k,nijk->nij", pvec, H3)
    M = -pH3 + np.einsum("ni,nj->nij", Hp, Hp) / pw[:, None, None]

    rm2_fiber = _fiber_rm2(ctx["d2U"])
    term1 = (2.0 * a * pw + A) ** 2 / (4.0 * pw**4)
    term2 = np.einsum("nik,njl,nij,nkl->n", G, G, M, M) / (4.0 * pw**2)
    return {"pw": pw, "A": A, "H3": H3, "pH3": pH3, "M": M,
            "rm2_fiber": rm2_fiber, "rm2_total": term1 + term2 + rm2_fiber}


def _blocks_from_ctx(ctx: dict, cls: AdmissibleClass, points) -> dict:
    """All admissible curvature blocks as arrays over the context points."""
    parts = _rm2_total_from_ctx(ctx, cls, points)
    pw, A, H3, pH3, M = (parts[k] for k in ("pw", "A", "H3", "pH3", "M"))
    a = cls.a
    G, U, dU, d2U = ctx["G"], ctx["U"], ctx["dU"], ctx["d2U"]

    H4 = np.einsum("nlv,nvkm,nmij->nijkl", U, dU, dU) + np.einsum(
        "nkm,nlv,nmvij->nijkl", U, U, d2U
    )
    H4 = 0.5 * (H4 + np.swapaxes(H4, 2, 3))

    rm_0000 = -4.0 * a * pw - 2.0 * A
    rm_00ij = 0.5 * M
    fiber_core = -H4 + np.einsum("nst,nilt,njks->nijkl", G, H3, H3)
    rm_ijkl = fiber_core / 8.0
    # The H3-contraction coefficient 2 is forced by the trace identity
    # 2(g^{00}Ric_00 + g^{ij}Ric_ij) = R(u) with g_00 = 2p(z), g_ij = H/2.
    ric_00 = -2.0 * a - 2.0 * np.einsum("nij,nij->n", G, pH3)
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
    cls.validate_on(u.polytope)
    cache = u.curvature_cache
    key = ("rm2_total", cls)
    if key not in cache:
        cache[key] = _rm2_total_from_ctx(curvature_context(u), cls, u.grid.points)["rm2_total"]
    return cache[key]


# ---------------------------------------------------------------------------
# pointwise operations


def abreu_scalar(u: SymplecticPotential, x) -> float:
    ctx, _ = _node_context(u, x)
    return float(-ctx["d2U_trace"][0])


def weighted_scalar(u: SymplecticPotential, cls: AdmissibleClass, x) -> float:
    cls.validate_on(u.polytope)
    ctx, pt = _node_context(u, x)
    return float(_weighted_scalar_from_ctx(ctx, cls, pt[None, :])[0])


def fiber_riemann_norm(u: SymplecticPotential, x) -> float:
    ctx, _ = _node_context(u, x)
    return float(_fiber_rm2(ctx["d2U"])[0])


def admissible_blocks(u: SymplecticPotential, cls: AdmissibleClass, x) -> CurvatureSample:
    """All curvature blocks at a point, from the one-point derivative context.

    For node data that context is the node's row of the grid context, so the
    scalar entries equal the rows of the field operations.
    """
    cls.validate_on(u.polytope)
    ctx, pt = _node_context(u, x)
    blocks = _blocks_from_ctx(ctx, cls, pt[None, :])
    return CurvatureSample(
        point=pt,
        r_fiber=float(-ctx["d2U_trace"][0]),
        r_weighted=float(_weighted_scalar_from_ctx(ctx, cls, pt[None, :])[0]),
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
    ctx, pt = _node_context(u, x)
    blocks = _blocks_from_ctx(ctx, cls, pt[None, :])
    pw = float(cls.weight(pt))
    fiber = 2.0 * float(np.einsum("nij,nij->n", ctx["G"], blocks["ric_ij"])[0])
    return 2.0 * (blocks["ric_00"][0] / (2.0 * pw) + fiber)


def control_rm_rhs(cls: AdmissibleClass, x) -> float:
    """Pointwise upper bound for |Rm|^2 of the canonical potential at x."""
    return canonical_rm2_bound(cls, float(cls.affine(np.asarray(x, dtype=float))))


def canonical_rm2_bound(cls: AdmissibleClass, q: float) -> float:
    """|Rm|^2 bound of the canonical potential where <p, z> + c_S = q:

    (1/q^2) (scal_S^2 + 90 p1^4 / q^2 + (4 p1 + 24 p1^2 / q)^2) + 4/3.
    """
    p1 = cls.p[0]
    return (
        (cls.scal_S**2 + 90.0 * p1**4 / q**2 + (4.0 * p1 + 24.0 * p1**2 / q) ** 2) / q**2
        + 4.0 / 3.0
    )
