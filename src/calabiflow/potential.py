"""Symplectic potentials u = u_G + f on a Delzant polytope.

The singular canonical part u_G = 1/2 sum_i l_i ln l_i is always handled in
closed form; only the smooth correction f is discretized.  How u is
differentiated follows from what it was built from, it is not chosen:

* a closed form (f_form with the canonical part, or a total_form alone) --
  every partial up to order 4 is exact, at any interior point
  (``partials_at``);
* node data f_values -- differenced with the grid's second-order stencils
  (one-sided near the boundary, higher orders by composition), at grid
  nodes only; each partial of f is computed once (``f_partial``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import DomainError, NumericError
from .polytope import JET_KEYS, DelzantPolytope, Grid, standard_triangle
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
    pts = np.atleast_2d(pts)
    L = P.facet_values(pts)  # (n, d)
    if np.any(L <= 0):
        raise DomainError("point on or outside the polytope boundary")
    V = P.normals.astype(float)  # (d, 2)
    out = {}
    out[(0, 0)] = 0.5 * np.sum(L * np.log(L), axis=1)
    if order >= 1:
        g = 0.5 * (np.log(L) + 1.0) @ V  # (n, 2)
        out[(1, 0)], out[(0, 1)] = g[:, 0], g[:, 1]
    if order >= 2:
        invL = 1.0 / L
        for (a, b) in [(2, 0), (1, 1), (0, 2)]:
            comp = V[:, 0] ** a * V[:, 1] ** b  # product of normal components
            out[(a, b)] = 0.5 * invL @ comp
    if order >= 3:
        invL2 = 1.0 / L**2
        for (a, b) in [(3, 0), (2, 1), (1, 2), (0, 3)]:
            comp = V[:, 0] ** a * V[:, 1] ** b
            out[(a, b)] = -0.5 * invL2 @ comp
    if order >= 4:
        invL3 = 1.0 / L**3
        for (a, b) in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
            comp = V[:, 0] ** a * V[:, 1] ** b
            out[(a, b)] = invL3 @ comp
    if single:
        out = {k: v[0] for k, v in out.items()}
    return out


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
        p = self.partials
        return np.array([[p[(2, 0)], p[(1, 1)]], [p[(1, 1)], p[(0, 2)]]], dtype=float)


def _tensorize(partials: dict, order: int, n: int) -> np.ndarray:
    """Symmetric derivative tensor field (n, 2, ..., 2) of the given order from
    partials {(a, b): array}; tensor index 0 is x, 1 is y."""
    T = np.empty((n,) + (2,) * order)
    # itertools, not np.ndindex: this runs in every fd curvature context, and
    # np.ndindex builds an nditer per call (about 4.5 us against 1 us)
    for idx in itertools.product((0, 1), repeat=order):
        a = order - sum(idx)
        T[(slice(None),) + idx] = partials[(a, order - a)]
    return T


def _sym2_eigenvalues(G: np.ndarray):
    """(lower, upper) eigenvalues of a field (n, 2, 2) of symmetric matrices."""
    tr = G[:, 0, 0] + G[:, 1, 1]
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
    disc = np.sqrt(np.maximum(tr * tr - 4 * det, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def _sym2_inverse(G: np.ndarray) -> np.ndarray:
    """Inverse of a field (n, 2, 2) of symmetric matrices."""
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] ** 2
    U = np.empty_like(G)
    U[:, 0, 0] = G[:, 1, 1] / det
    U[:, 1, 1] = G[:, 0, 0] / det
    U[:, 0, 1] = U[:, 1, 0] = -G[:, 0, 1] / det
    return U


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
    out = np.empty((len(pts), 2, 2))
    out[:, 0, 0] = (2 - x) * (1 + x)
    out[:, 1, 1] = (2 - y) * (1 + y)
    out[:, 0, 1] = out[:, 1, 0] = -(1 + x) * (1 + y)
    out *= 2.0 / 3.0
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

    def hessians(self) -> np.ndarray:
        """(n, 2, 2) Hessian of u at every node."""
        return _tensorize(self._node_partials(JET_KEYS[2:]), 2, self.grid.n_nodes)

    def min_hessian_eigenvalues(self) -> np.ndarray:
        return _sym2_eigenvalues(self.hessians())[0]

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
    """CSV of node values (i, j, x, y, f) plus a JSON sidecar <path>.json."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x", "y", "f"])
        for (i, j), p, v in zip(u.grid.ij, u.grid.points, u.f_values):
            w.writerow([int(i), int(j), repr(float(p[0])), repr(float(p[1])), repr(float(v))])
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
    match the sidecar.
    """
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as fh:
        meta = json.load(fh)
    P = polytope_from_dict(meta["polytope"])
    if polytope is not None and polytope.content_hash() != meta["polytope_hash"]:
        raise DomainError("snapshot belongs to a different polytope")
    grid = Grid(P, int(meta["grid_n"]), float(meta["delta_min"]))
    rows = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            rows[(int(row["i"]), int(row["j"]))] = float(row["f"])
    f = np.empty(grid.n_nodes)
    for k, (i, j) in enumerate(grid.ij):
        try:
            f[k] = rows[(int(i), int(j))]
        except KeyError as exc:
            raise DomainError(f"snapshot is missing node {(int(i), int(j))}") from exc
    return SymplecticPotential.from_node_values(P, grid, f), float(meta["t"])
