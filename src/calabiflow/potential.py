"""Symplectic potentials u = u_G + f on a Delzant polytope.

The singular canonical part u_G = 1/2 sum_i l_i ln l_i is always handled in
closed form; only the smooth correction f is discretized.  How u is
differentiated follows from what it was built from, it is not chosen:

* a closed form (f_form with the canonical part, or a total_form alone) --
  every partial up to order 4 is exact, at any interior point
  (``partials_at``);
* node data f_values -- differenced on the grid, at grid nodes only: orders
  1-2 by the grid's jet_blocks (stencil rows in the interior, least-squares
  fits on the near-boundary band), orders 3-4 by composed axis differences;
  each partial of f is computed once (``f_partial``).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import DomainError, NumericError
from .polytope import JET_KEYS, BoundaryQuadrature, DelzantPolytope, Grid, standard_triangle
from .polytope import from_dict as polytope_from_dict

PARTIALS = [(a, b) for total in range(5) for a in range(total + 1) for b in [total - a]]


class ClosedForm:
    """Smooth function of (x, y) with exact partial derivatives to order 4.

    A polynomial sum c_ij x^i y^j from coefficients {(i, j): c}, plus Gaussian
    bumps (A, (cx, cy), w) for A exp(-s^2 - t^2), s = (x - cx)/w, t = (y - cy)/w.
    """

    def __init__(self, coeffs: dict = None, bumps=()):
        self.coeffs = dict(coeffs or {})
        self.bumps = [(float(A), (float(c[0]), float(c[1])), float(w)) for A, c, w in bumps]

    def partial(self, a: int, b: int, x, y) -> np.ndarray:
        """d^(a+b) / dx^a dy^b, shaped like x.

        Monomials differentiate by falling factorials; a bump by Rodrigues'
        formula A (-1/w)^(a+b) H_a(s) H_b(t) exp(-s^2 - t^2), H_k the
        physicists' Hermite polynomials."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(x.shape)
        for (i, j), c in self.coeffs.items():
            if i >= a and j >= b:
                out += c * math.perm(i, a) * math.perm(j, b) * x ** (i - a) * y ** (j - b)
        for A, (cx, cy), w in self.bumps:
            s, t = (x - cx) / w, (y - cy) / w
            Ha, Hb = hermval(s, [0] * a + [1]), hermval(t, [0] * b + [1])
            out += A * (-1.0 / w) ** (a + b) * Ha * Hb * np.exp(-s * s - t * t)
        return out

    def __call__(self, x, y) -> np.ndarray:
        return self.partial(0, 0, x, y)


def zero_form() -> ClosedForm:
    return ClosedForm()


def polynomial_form(coeffs: dict) -> ClosedForm:
    """Polynomial sum c_{ab} x^a y^b from {(a, b): c}."""
    return ClosedForm(coeffs)


def bump_form(amplitude: float, center=(0.0, 0.0), width: float = 0.8) -> ClosedForm:
    """Gaussian bump; smooth on the closed polytope."""
    return ClosedForm(bumps=[(amplitude, center, width)])


# ---------------------------------------------------------------------------
# canonical singular part


def guillemin_partials(P: DelzantPolytope, points, order: int = 4) -> dict:
    """All partials of u_G = 1/2 sum l_i ln l_i up to `order` at interior points.

    Returns {(a, b): array}.  Raises DomainError if any point is on or outside
    the boundary.
    """
    if order > 4:
        raise ValueError("derivatives supported up to order 4")
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    L, V = _interior_facet_values(P, np.atleast_2d(pts)), P.normals.astype(float)
    out = {}
    for k in range(order + 1):
        out.update(_guillemin_order(L, V, k))
    if single:
        out = {k: v[0] for k, v in out.items()}
    return out


def _interior_facet_values(P: DelzantPolytope, pts: np.ndarray) -> np.ndarray:
    """Facet values (n, d) at points, which must be interior (DomainError)."""
    L = P.facet_values(pts)
    if np.any(L <= 0):
        raise DomainError("point on or outside the polytope boundary")
    return L


def _guillemin_order(L: np.ndarray, V: np.ndarray, k: int) -> dict:
    """The partials {(a, b): array} of u_G with a + b = k, from the facet
    values L (n, d) and the normals V (d, 2): for k >= 2 they are
    c_k sum_i v_i^(a, b) / l_i^(k-1) with c_k = 1/2, -1/2, 1."""
    if k == 0:
        return {(0, 0): 0.5 * np.sum(L * np.log(L), axis=1)}
    if k == 1:
        g = 0.5 * (np.log(L) + 1.0) @ V  # (n, 2)
        return {(1, 0): g[:, 0], (0, 1): g[:, 1]}
    coef, inv = {2: 0.5, 3: -0.5, 4: 1.0}[k], 1.0 / L ** (k - 1)
    # product of normal components
    return {(a, k - a): coef * inv @ (V[:, 0] ** a * V[:, 1] ** (k - a))
            for a in range(k, -1, -1)}


class GuilleminJets(dict):
    """Partials {(a, b): array} of u_G at fixed interior points, a + b <= 4,
    filled one order at a time on first request: node data reads only
    orders 0 and 2.  Holds the polytope and the points, not their grid."""

    def __init__(self, P: DelzantPolytope, points: np.ndarray):
        super().__init__()
        self._P, self._points = P, points

    def __missing__(self, key):
        if key not in PARTIALS:
            raise KeyError(key)
        L = _interior_facet_values(self._P, self._points)
        self.update(_guillemin_order(L, self._P.normals.astype(float), sum(key)))
        return self[key]


def guillemin_value(P: DelzantPolytope, points) -> np.ndarray:
    """u_G extended continuously to the closed polytope (l ln l -> 0)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    L = P.facet_values(pts)
    if np.any(L < -1e-12):
        raise DomainError("point outside the closed polytope")
    Lc = np.clip(L, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(Lc > 0, Lc * np.log(np.where(Lc > 0, Lc, 1.0)), 0.0)
    val = 0.5 * terms.sum(axis=1)
    return val if np.asarray(points).ndim > 1 else val[0]


@dataclass
class Jet:
    """Value and partial derivatives of a function at one point."""

    partials: dict

    @property
    def value(self) -> float:
        return float(self.partials[(0, 0)])

    @property
    def gradient(self) -> np.ndarray:
        p = self.partials
        return np.array([p[(1, 0)], p[(0, 1)]], dtype=float)

    @property
    def hessian(self) -> np.ndarray:
        return _sym2_matrix(np.array([self.partials[key] for key in HESSIAN_KEYS], dtype=float))


# The partials (a, b) of the Hessian components (00, 01, 11); the second
# derivatives d_k d_l of any field are keyed the same way, kl = 00, 01, 11.
HESSIAN_KEYS = ((2, 0), (1, 1), (0, 2))

# 2x2 algebra on fields of matrices held entry by entry: a symmetric field S
# is the triple of its components (00, 01, 11), each an array over the same
# points (a (3, n) array unpacks into one); a general one is the four entries
# (00, 01, 10, 11).  Every formula is elementwise, so one point gives the same
# bits as that point's row of a field, and no generic contraction loop runs.


def _sym2_matrix(S) -> np.ndarray:
    """The (..., 2, 2) matrices of a symmetric field S = (00, 01, 11)."""
    s00, s01, s11 = S
    return np.stack([np.stack([s00, s01], -1), np.stack([s01, s11], -1)], -2)


def _mat2(S) -> tuple:
    """The four entries of a symmetric field S = (00, 01, 11)."""
    s00, s01, s11 = S
    return s00, s01, s01, s11


def _sym2_eigenvalues(S):
    """(lower, upper) eigenvalues of a symmetric field S."""
    s00, s01, s11 = S
    tr, d = s00 + s11, s00 - s11
    # the discriminant as a sum of squares: tr^2 - 4 det cancels when the
    # two eigenvalues are close
    disc = np.sqrt(d * d + 4.0 * (s01 * s01))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def _sym2_inverse(S) -> np.ndarray:
    """Components (3, n) of the inverse of a symmetric field S."""
    s00, s01, s11 = S
    det = s00 * s11 - s01**2
    return np.stack([s11 / det, -s01 / det, s00 / det])


def _mat2_product(A, B) -> tuple:
    """Entries of the product A B of two fields given by their four entries."""
    a00, a01, a10, a11 = A
    b00, b01, b10, b11 = B
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _sym2_sandwich(U, A) -> np.ndarray:
    """Components (3, n) of U A U for symmetric U and A, taken as (U A) U."""
    c00, c01, _, c11 = _mat2_product(_mat2_product(_mat2(U), _mat2(A)), _mat2(U))
    return np.stack([c00, c01, c11])


def _trace_of_square(A, B) -> np.ndarray:
    """tr((A B)^2) of two symmetric fields."""
    p00, p01, p10, p11 = _mat2_product(_mat2(A), _mat2(B))
    return (p00 * p00 + 2.0 * (p01 * p10)) + p11 * p11


def _sym2_dot(A, B) -> np.ndarray:
    """sum_ij A_ij B_ij of two symmetric fields."""
    a00, a01, a11 = A
    b00, b01, b11 = B
    return (a00 * b00 + 2.0 * (a01 * b01)) + a11 * b11


# ---------------------------------------------------------------------------


def fs_inverse_hessian(points) -> np.ndarray:
    """Inverse Hessian of the Fubini-Study potential on the standard triangle.

    (2/3) * [[(2-x)(1+x), -(1+x)(1+y)], [-(1+x)(1+y), (2-y)(1+y)]]
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    x, y = pts[:, 0], pts[:, 1]
    if np.any((x <= -1) | (y <= -1) | (x + y >= 1)):
        raise DomainError("point outside the open standard triangle")
    out = _sym2_matrix(np.stack([(2 - x) * (1 + x), -(1 + x) * (1 + y), (2 - y) * (1 + y)])
                       * (2.0 / 3.0))
    return out[0] if single else out


# ---------------------------------------------------------------------------


class SymplecticPotential:
    """State variable of the flow: u = u_G + f, immutable once built."""

    def __init__(
        self,
        polytope: DelzantPolytope,
        grid: Grid,
        f_values: np.ndarray = None,
        f_form: ClosedForm = None,
        total_form: ClosedForm = None,
    ):
        self.polytope = polytope
        self.grid = grid
        self.f_form = f_form
        self.total_form = total_form
        if total_form is not None:
            self.f_values = np.zeros(grid.n_nodes)
        elif f_values is not None:
            f_values = np.asarray(f_values, dtype=float)
            if f_values.shape != (grid.n_nodes,):
                raise ValueError("f_values must have one entry per grid node")
            self.f_values = f_values
        elif f_form is not None:
            self.f_values = f_form(grid.points[:, 0], grid.points[:, 1])
        else:
            self.f_values = np.zeros(grid.n_nodes)
        # partials (a, b) of the node data f, filled on first request by f_partial
        self._f_partials = {}
        # curvature fields of this state, filled on first request by
        # calabiflow.curvature: the derivative context and the scalar fields
        self.curvature_cache = {}

    @property
    def provider(self) -> str:
        """How u is differentiated, fixed by its inputs: "analytic" for a closed
        form, "fd" for node data."""
        return "fd" if self.f_form is None and self.total_form is None else "analytic"

    # -- constructors --------------------------------------------------------

    @classmethod
    def guillemin(cls, polytope: DelzantPolytope, grid: Grid) -> "SymplecticPotential":
        """Canonical potential (f = 0), analytic derivatives."""
        return cls(polytope, grid, f_form=zero_form())

    @classmethod
    def fubini_study(cls, grid: Grid) -> "SymplecticPotential":
        """Fubini-Study potential on the standard triangle."""
        return cls.guillemin(standard_triangle(), grid)

    @classmethod
    def from_closed_form(cls, polytope, grid, f_form: ClosedForm):
        return cls(polytope, grid, f_form=f_form)

    @classmethod
    def from_node_values(cls, polytope, grid, f_values):
        return cls(polytope, grid, f_values=f_values)

    @classmethod
    def from_total_form(cls, polytope, grid, form: ClosedForm):
        """Potential given entirely by a closed form (no canonical part).

        For synthetic curvature checks, e.g. quadratics on a square.
        """
        return cls(polytope, grid, total_form=form)

    def with_node_values(self, f_values) -> "SymplecticPotential":
        """Fresh node-data state on the same grid (used by the flow)."""
        return SymplecticPotential.from_node_values(self.polytope, self.grid, f_values)

    # -- derivative fields ----------------------------------------------------

    def jets(self, order: int = 4) -> dict:
        """Partials {(a, b): array over nodes} of u with a + b <= `order`."""
        if order > 4:
            raise ValueError("derivatives supported up to order 4")
        return self._node_partials([key for key in PARTIALS if sum(key) <= order])

    def _node_partials(self, keys) -> dict:
        """Partials `keys` of u at every node: exact for a closed form, the
        canonical partials plus those of the node data otherwise."""
        if self.provider == "analytic":
            return self._closed_partials(self.grid.points, keys, lambda: self.grid.guillemin_jets)
        base = self.grid.guillemin_jets
        return {key: base[key] + self.f_partial(key) for key in keys}

    def f_partial(self, key) -> np.ndarray:
        """Partial key = (a, b) of the node data f at every node, computed on
        first request: f itself, the grid's first/second-derivative operators,
        or composed differences for orders 3 and 4."""
        if key not in self._f_partials:
            a, b = key
            if a + b == 0:
                self._f_partials[key] = self.f_values
            elif a + b <= 2:
                self._f_partials[key] = self.grid.jet_blocks[key] @ self.f_values
            else:
                self._f_partials[key] = self.grid.diff(self.f_values, a, b)
        return self._f_partials[key]

    def partials_at(self, points, order: int = 4) -> dict:
        """Exact partials {(a, b): array over points} of u with a + b <= `order`
        at interior points; node data has none (DomainError)."""
        if order > 4:
            raise ValueError("derivatives supported up to order 4")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        keys = [key for key in PARTIALS if sum(key) <= order]
        return self._closed_partials(
            pts, keys, lambda: guillemin_partials(self.polytope, pts, order)
        )

    def _closed_partials(self, pts: np.ndarray, keys, canonical) -> dict:
        """Partials `keys` of a closed-form u at pts: the total form alone, or
        the canonical partials `canonical()` plus those of f_form."""
        if self.provider == "fd":
            raise DomainError("node-data potentials have no closed-form partials")
        x, y = pts[:, 0], pts[:, 1]
        if self.total_form is not None:
            return {(a, b): self.total_form.partial(a, b, x, y) for (a, b) in keys}
        base = canonical()
        return {(a, b): base[(a, b)] + self.f_form.partial(a, b, x, y) for (a, b) in keys}

    def hessian_field(self) -> np.ndarray:
        """Components (00, 01, 11) of the Hessian of u at every node, (3, n)."""
        if self.provider == "analytic":
            return np.stack(list(self._node_partials(HESSIAN_KEYS).values()))
        # node data, on every flow-velocity evaluation: each sum is written
        # straight into its row
        base, G = self.grid.guillemin_jets, np.empty((3, self.grid.n_nodes))
        for key, row in zip(HESSIAN_KEYS, G):
            np.add(base[key], self.f_partial(key), out=row)
        return G

    def hessians(self) -> np.ndarray:
        """(n, 2, 2) Hessian of u at every node."""
        return _sym2_matrix(self.hessian_field())

    def min_hessian_eigenvalues(self) -> np.ndarray:
        return _sym2_eigenvalues(self.hessian_field())[0]

    # -- pointwise evaluation --------------------------------------------------

    def node_index(self, x) -> int:
        x = np.asarray(x, dtype=float)
        _, k = self.grid.kdtree.query(x)
        return int(k)

    def grid_node(self, x) -> int:
        """Index of the grid node at x (the nearest within h/2); node data is
        only evaluated there, elsewhere this raises DomainError."""
        x = np.asarray(x, dtype=float)
        k = self.node_index(x)
        if np.hypot(*(self.grid.points[k] - x)) > 0.5 * self.grid.h + 1e-12:
            raise DomainError("node-data potentials are evaluated at grid nodes only")
        return k

    def evaluate(self, x, order: int = 2) -> Jet:
        """Value and partials of u at a point.

        Closed forms accept any interior point; node data requires a grid
        node (the nearest node within h/2 is used).
        """
        if self.provider == "fd":
            k = self.grid_node(x)
            return Jet({key: float(val[k]) for key, val in self.jets(order).items()})
        return Jet({key: float(val[0]) for key, val in self.partials_at(x, order).items()})

    # -- off-grid sampling (monitors only) --------------------------------------

    def _f_taylor(self, pts: np.ndarray) -> dict:
        """Partials {(a, b): array over pts}, a + b <= 2, of the second-order
        Taylor polynomial of the node data f about each point's nearest node."""
        _, ks = self.grid.kdtree.query(pts)
        dx, dy = (pts - self.grid.points[ks]).T
        return self._taylor(ks, dx, dy)

    def _taylor(self, ks: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> dict:
        """Partials, a + b <= 2, of the second-order Taylor polynomial of the
        node data f about nodes ks, at offsets (dx, dy) from them."""
        f10, f01, f20, f02, f11 = (self.f_partial(key)[ks] for key in JET_KEYS)
        return {
            (0, 0): (self.f_values[ks] + f10 * dx + f01 * dy
                     + 0.5 * (f20 * dx**2 + 2 * f11 * dx * dy + f02 * dy**2)),
            (1, 0): f10 + f20 * dx + f11 * dy,
            (0, 1): f01 + f11 * dx + f02 * dy,
            (2, 0): f20,
            (1, 1): f11,
            (0, 2): f02,
        }

    def f_at(self, points) -> np.ndarray:
        """f at arbitrary points of the closed polytope.

        Closed forms are evaluated exactly; node data is extended by a local
        second-order Taylor step from the nearest node.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.total_form is not None:
            raise DomainError("potential has no canonical/correction split")
        if self.provider == "analytic":
            val = self.f_form(pts[:, 0], pts[:, 1])
        else:
            val = self._f_taylor(pts)[(0, 0)]
        return val if np.asarray(points).ndim > 1 else np.atleast_1d(val)

    def value_at(self, points) -> np.ndarray:
        """u on the closed polytope (canonical part by continuity on the boundary)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        base = guillemin_value(self.polytope, pts)
        out = np.atleast_1d(base) + self.f_at(pts)
        return out if np.asarray(points).ndim > 1 else out[0]

    def boundary_values(self, quad: BoundaryQuadrature) -> np.ndarray:
        """u at the points of a boundary quadrature, as value_at(quad.points)
        computes it, from the quadrature's canonical values and, for node
        data, its nearest nodes on this grid."""
        if self.total_form is not None:
            raise DomainError("potential has no canonical/correction split")
        if quad.polytope_hash != self.polytope.content_hash():
            raise DomainError("boundary quadrature belongs to a different polytope")
        if self.provider == "analytic":
            f = self.f_form(quad.points[:, 0], quad.points[:, 1])
        else:
            f = self._taylor(*quad.nearest_nodes(self.grid))[(0, 0)]
        return quad.canonical + f

    def gradient_at(self, x) -> np.ndarray:
        """grad u at an interior point (Taylor-extended from the nearest node
        for node data)."""
        if self.provider == "analytic":
            return self.evaluate(x, 1).gradient
        x = np.asarray(x, dtype=float)
        gG = guillemin_partials(self.polytope, x, 1)
        df = self._f_taylor(x[None, :])
        return np.array([gG[(1, 0)] + df[(1, 0)][0], gG[(0, 1)] + df[(0, 1)][0]])

    def hessian_at(self, x) -> np.ndarray:
        """Hess u at an interior point (node data: f's Hessian at the nearest node)."""
        if self.provider == "analytic":
            return self.evaluate(x, 2).hessian
        x = np.asarray(x, dtype=float)
        hG = guillemin_partials(self.polytope, x, 2)
        df = self._f_taylor(x[None, :])
        return Jet({key: hG[key] + df[key][0] for key in hG if sum(key) == 2}).hessian


# ---------------------------------------------------------------------------
# Legendre transform


@dataclass(frozen=True)
class ComplexDual:
    """Legendre-dual data: xi = grad u(x), phi = <x, xi> - u(x)."""

    xi: np.ndarray
    phi: float


def legendre_dual(u: SymplecticPotential, x) -> ComplexDual:
    x = np.asarray(x, dtype=float)
    if not u.polytope.contains(x):
        raise DomainError("point outside the open polytope")
    xi = u.gradient_at(x)
    val = float(u.value_at(x))
    return ComplexDual(xi=xi, phi=float(x @ xi - val))


def legendre_inverse(u: SymplecticPotential, xi, x0=None, tol: float = 1e-12,
                     max_iter: int = 80) -> np.ndarray:
    """Solve grad u(x) = xi by damped Newton iteration with the Hessian."""
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x0, dtype=float) if x0 is not None else u.polytope.vertices.mean(axis=0)
    res = u.gradient_at(x) - xi
    for _ in range(max_iter):
        nrm = np.hypot(*res)
        if nrm < tol:
            return x
        H = u.hessian_at(x)
        step = np.linalg.solve(H, -res)
        lam = 1.0
        while lam > 1e-8:
            cand = x + lam * step
            if u.polytope.contains(cand):
                cand_res = u.gradient_at(cand) - xi
                if np.hypot(*cand_res) < nrm:
                    x, res = cand, cand_res
                    break
            lam *= 0.5
        else:
            raise NumericError(
                f"Newton inversion stalled, |grad u - xi| = {nrm:.3e}", residual=nrm
            )
    raise NumericError(
        f"Newton inversion did not converge, |grad u - xi| = {np.hypot(*res):.3e}",
        residual=float(np.hypot(*res)),
    )


# ---------------------------------------------------------------------------
# snapshots


def save_snapshot(u: SymplecticPotential, path, t: float = 0.0) -> None:
    """Write the node values of u as CSV, plus a JSON sidecar <path>.json.

    The CSV has the header ``i,j,x,y,f`` and one row per grid node in node
    order, CRLF line endings, grid indices as integers and floats as their
    shortest round-trip repr.  The sidecar holds grid_n, delta_min, the
    polytope's content hash and facet data, and the flow time t.
    """
    path = Path(path)
    ij, points = u.grid.ij, u.grid.points
    rows = map("{},{},{!r},{!r},{!r}\r\n".format, ij[:, 0].tolist(), ij[:, 1].tolist(),
               points[:, 0].tolist(), points[:, 1].tolist(), u.f_values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("i,j,x,y,f\r\n")
        fh.writelines(rows)
    sidecar = {
        "grid_n": u.grid.n,
        "delta_min": u.grid.delta_min,
        "polytope_hash": u.polytope.content_hash(),
        "polytope": u.polytope.to_dict(),
        "t": float(t),
    }
    with open(path.with_suffix(path.suffix + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2)


def load_snapshot(path, polytope: DelzantPolytope = None):
    """Rebuild the node-data potential saved by save_snapshot.

    Returns (potential, t).  If a polytope is supplied its content hash must
    match the sidecar.  The columns i, j and f are read by name; x and y are
    informative only, and either line ending loads.  DomainError is raised
    for a malformed sidecar, a header without i, j or f, a malformed row or
    a non-integer i or j, a row that is not a node of the grid, two rows for
    one node, a node without a row, and an f that is not finite.
    """
    path = Path(path)
    try:
        with open(path.with_suffix(path.suffix + ".json")) as fh:
            meta = json.load(fh)
        P = polytope_from_dict(meta["polytope"])
        if polytope is not None and polytope.content_hash() != meta["polytope_hash"]:
            raise DomainError("snapshot belongs to a different polytope")
        grid = Grid(P, int(meta["grid_n"]), float(meta["delta_min"]))
        t = float(meta["t"])
        with open(path) as fh:
            names = fh.readline().rstrip("\n").split(",")
            with warnings.catch_warnings():
                # a header without rows is reported below as a missing node
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", ndmin=1,
                                  usecols=[names.index(c) for c in ("i", "j", "f")],
                                  dtype=[("i", np.int64), ("j", np.int64), ("f", float)])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed snapshot {path}: {exc!r}") from exc
    i, j = rows["i"], rows["j"]
    ni, nj = grid.node_id.shape
    on_grid = (0 <= i) & (i < ni) & (0 <= j) & (j < nj)
    ids = np.full(len(rows), -1)
    ids[on_grid] = grid.node_id[i[on_grid], j[on_grid]]
    if np.any(ids < 0):
        k = np.flatnonzero(ids < 0)[0]
        raise DomainError(f"snapshot row {(int(i[k]), int(j[k]))} is not a node of its grid")
    counts = np.bincount(ids, minlength=grid.n_nodes)
    if np.any(counts > 1):
        i0, j0 = grid.ij[np.flatnonzero(counts > 1)[0]]
        raise DomainError(f"snapshot has two rows for node {(int(i0), int(j0))}")
    if np.any(counts == 0):
        i0, j0 = grid.ij[np.flatnonzero(counts == 0)[0]]
        raise DomainError(f"snapshot is missing node {(int(i0), int(j0))}")
    f = np.empty(grid.n_nodes)
    f[ids] = rows["f"]
    if not np.all(np.isfinite(f)):
        raise DomainError("snapshot f is not finite at every node")
    return SymplecticPotential.from_node_values(P, grid, f), t
