"""Symplectic potentials u = u_G + f on a Delzant polytope.

The singular canonical part u_G = 1/2 sum_i l_i ln l_i is always handled in
closed form; only the smooth correction f is discretized.  How u is
differentiated follows from what it was built from, it is not chosen:

* a closed form f_form -- every partial up to order 4 is exact, at any
  interior point.  ``ClosedForm.partials(order, x, y)`` is the one
  evaluator: all the partials up to `order` of a point set in one pass, from
  one exponential and one table of Hermite values per bump; ``partial`` and
  the value ``__call__`` read one key of it;
* node data f_values -- differenced on the grid: orders 1-2 by the grid's
  two jet operators (stencil rows in the interior, least-squares fits on the
  near-boundary band), one product for each order and computed once; orders
  3-4 by one-product axis differences of shared intermediates
  (``_f_higher``), on each request.  Off the grid only the value is read,
  that of the Taylor step from the nearest node (``_taylor_value``); the
  boundary integral of that value is summed node by node from a boundary
  quadrature's moments about its nearest nodes (``boundary_integral``), with
  no Taylor step at its points.

On the grid the partials of u are the canonical ones plus those of
``f_jets``, which reads both kinds; at any interior point a closed form's
are ``partials_at``.  The kinds are told apart by ``f_form is None`` (node
data) where they differ: here in ``f_jets``, ``partials_at``, ``evaluate``,
``value_at`` and ``boundary_integral``; and in calabiflow.curvature in
``curvature_context``, ``_locate`` and ``weighted_scalar_field``.
calabiflow.flow.step advances node data only and refuses a closed form.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DomainError
from .polytope import (GRADIENT_KEYS, HESSIAN_KEYS, BoundaryQuadrature, DelzantPolytope, Grid,
                       _derivative_order, _guillemin_orders, guillemin_partials, guillemin_value,
                       quadrature_for, standard_triangle)
from .polytope import from_dict as polytope_from_dict

PARTIALS = [(a, b) for total in range(5) for a in range(total + 1) for b in [total - a]]
# the orders (a, b) a ClosedForm differentiates, for a membership test
_PARTIAL_KEYS = frozenset(PARTIALS)


class ClosedForm:
    """Smooth function of (x, y) with exact partial derivatives to order 4.

    A polynomial sum c_ij x^i y^j from coefficients {(i, j): c}, plus Gaussian
    bumps (A, (cx, cy), w) for A exp(-s^2 - t^2), s = (x - cx)/w, t = (y - cy)/w.
    Construction raises DegenerateInputError unless each exponent pair (i, j)
    is a pair of whole numbers >= 0 (2.0 is 2), every coefficient, amplitude
    and centre is finite, and each width is finite and positive.
    """

    def __init__(self, coeffs: dict = None, bumps=()):
        try:
            self.coeffs = {_exponents(*key): c for key, c in dict(coeffs or {}).items()}
            self.bumps = [(float(A), (float(cx), float(cy)), float(w))
                          for A, (cx, cy), w in bumps]
            finite = all(map(math.isfinite, [*self.coeffs.values(),
                                             *(v for A, c, _ in self.bumps for v in (A, *c))]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise DegenerateInputError(f"malformed closed form: {exc}") from exc
        # each check is written so that NaN fails it
        if not finite:
            raise DegenerateInputError("closed-form coefficients, amplitudes and centres "
                                       "must be finite")
        if not all(0 < w < math.inf for _, _, w in self.bumps):
            raise DegenerateInputError("bump widths must be finite and positive")

    def partials(self, order: int, x, y) -> dict:
        """Every partial {(a, b): d^(a+b) / dx^a dy^b} with a + b <= `order`,
        in PARTIALS order, each shaped like the broadcast of x and y;
        ValueError unless order is a whole number from 0 to 4.

        Monomials differentiate by falling factorials; a bump by Rodrigues'
        formula A (-1/w)^(a+b) H_a(s) H_b(t) exp(-s^2 - t^2), H_k the
        physicists' Hermite polynomials.  Each bump's exponential and its
        Hermite values H_0..H_order of s and of t are computed once for all
        the partials; each partial is summed from zeros, the monomials in
        coefficient order and then the bumps in order."""
        order = _derivative_order(order)
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        tables = []
        for A, (cx, cy), w in self.bumps:
            s, t = (x - cx) / w, (y - cy) / w
            tables.append((A, w, _hermite_values(s, order), _hermite_values(t, order),
                           np.exp(-s * s - t * t)))
        out = {}
        for a, b in [key for key in PARTIALS if sum(key) <= order]:
            f = np.zeros(x.shape)
            for (i, j), c in self.coeffs.items():
                if i >= a and j >= b:
                    f += c * math.perm(i, a) * math.perm(j, b) * x ** (i - a) * y ** (j - b)
            for A, w, Hs, Ht, E in tables:
                f += A * (-1.0 / w) ** (a + b) * Hs[a] * Ht[b] * E
            out[a, b] = f
        return out

    def partial(self, a: int, b: int, x, y) -> np.ndarray:
        """d^(a+b) / dx^a dy^b, the one key (a, b) of partials(a + b, x, y);
        ValueError unless a and b are whole numbers, not negative, with
        a + b <= 4."""
        if (a, b) not in _PARTIAL_KEYS:
            raise ValueError(f"partial orders must be whole numbers a, b >= 0 with a + b <= 4, "
                             f"got {(a, b)!r}")
        a, b = int(a), int(b)
        return self.partials(a + b, x, y)[a, b]

    def __call__(self, x, y) -> np.ndarray:
        return self.partial(0, 0, x, y)


def _hermite_values(s, order: int) -> list:
    """The physicists' Hermite polynomials [H_0(s), ..., H_order(s)]: each by
    the Clenshaw steps of numpy's hermval(s, [0] * k + [1]), so each has its
    bits."""
    s2 = s * 2
    out = [1.0 + 0 * s2]
    if order >= 1:
        out.append(0.0 + 1.0 * s2)
    for k in range(2, order + 1):
        c0, c1 = 0.0, 1.0
        for nd in range(k, 1, -1):
            c0, c1 = 0.0 - c1 * (2 * (nd - 1)), c0 + c1 * s2
        out.append(c0 + c1 * s2)
    return out


def _exponents(i, j) -> tuple:
    """(i, j) as ints; ValueError unless both are whole numbers >= 0."""
    if not all(float(e).is_integer() and e >= 0 for e in (i, j)):
        raise ValueError(f"exponents must be whole numbers >= 0, got {(i, j)!r}")
    return int(i), int(j)


def zero_form() -> ClosedForm:
    return ClosedForm()


def polynomial_form(coeffs: dict) -> ClosedForm:
    """Polynomial sum c_{ab} x^a y^b from {(a, b): c}."""
    return ClosedForm(coeffs)


def bump_form(amplitude: float, center=(0.0, 0.0), width: float = 0.8) -> ClosedForm:
    """Gaussian bump; smooth on the closed polytope."""
    return ClosedForm(bumps=[(amplitude, center, width)])


@dataclass
class Jet:
    """Value and partial derivatives of a function at one point:
    partials {(a, b): float}."""

    partials: dict

    @property
    def hessian(self) -> np.ndarray:
        return _sym2_matrix(np.array([self.partials[key] for key in HESSIAN_KEYS], dtype=float))


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


def _sym2_eigenvalues(S, s01_sq=None):
    """(lower, upper) eigenvalues of a symmetric field S; s01_sq, if given,
    is s01 * s01 already computed."""
    s00, s01, s11 = S
    if s01_sq is None:
        s01_sq = s01 * s01
    # the discriminant as a sum of squares, sqrt(d^2 + 4 s01^2) with
    # d = s00 - s11: tr^2 - 4 det cancels when the two eigenvalues are close
    disc = s00 - s11
    disc *= disc
    disc += 4.0 * s01_sq
    np.sqrt(disc, out=disc)
    tr = s00 + s11
    lo = tr - disc
    lo *= 0.5
    tr += disc
    tr *= 0.5
    return lo, tr


def _sym2_inverse(S, det=None) -> np.ndarray:
    """Components (3, n) of the inverse of a symmetric field S, a (3, n)
    array; det, if given, is its determinant s00 s11 - s01 s01 already
    computed."""
    if det is None:
        det = S[0] * S[2]
        det -= S[1] * S[1]
    # (s11, s01, s00) / det, then the middle row negated
    inv = S[::-1] / det
    np.negative(inv[1], out=inv[1])
    return inv


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
    """State variable of the flow: u = u_G + f, with f node data f_values or
    a closed form f_form, never both (DegenerateInputError); f = 0 if neither
    is given.  Its inputs never change once built; its caches of derived
    fields never change a returned value."""

    def __init__(
        self,
        polytope: DelzantPolytope,
        grid: Grid,
        f_values: np.ndarray = None,
        f_form: ClosedForm = None,
    ):
        if polytope != grid.polytope:
            raise DegenerateInputError("the potential's polytope is not its grid's")
        if f_values is not None and f_form is not None:
            raise DegenerateInputError("a potential is node data or a closed form, not both")
        self.polytope = polytope
        self.grid = grid
        self.f_form = f_form
        if f_form is not None:
            f_values = f_form(grid.points[:, 0], grid.points[:, 1])
        self.f_values = np.zeros(grid.n_nodes) if f_values is None else np.asarray(f_values, float)
        if self.f_values.shape != (grid.n_nodes,):
            raise ValueError("f_values must have one entry per grid node")
        # {order: (k, n) product of the grid's jet operator of that order
        # with the node data f}, for orders 1 and 2, filled on first request
        # by _f_jet
        self._f_jets = {}
        # curvature fields of this state, filled on first request by
        # calabiflow.curvature: the derivative context and the scalar fields
        self.curvature_cache = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def guillemin(cls, polytope: DelzantPolytope, grid: Grid) -> "SymplecticPotential":
        """Canonical potential (f = 0), analytic derivatives."""
        return cls(polytope, grid, f_form=zero_form())

    @classmethod
    def fubini_study(cls, grid: Grid) -> "SymplecticPotential":
        """Fubini-Study potential on a grid of the standard triangle."""
        if grid.polytope != standard_triangle():
            raise DegenerateInputError("Fubini-Study needs a grid of the standard triangle")
        return cls.guillemin(grid.polytope, grid)

    @classmethod
    def from_closed_form(cls, polytope, grid, f_form: ClosedForm):
        return cls(polytope, grid, f_form=f_form)

    @classmethod
    def from_node_values(cls, polytope, grid, f_values):
        return cls(polytope, grid, f_values=f_values)

    def with_node_values(self, f_values) -> "SymplecticPotential":
        """Fresh node-data state on the same grid (used by the flow)."""
        return SymplecticPotential.from_node_values(self.polytope, self.grid, f_values)

    # -- derivative fields ----------------------------------------------------

    def jets(self, order: int = 4) -> dict:
        """Partials {(a, b): array over nodes} of u with a + b <= `order`;
        ValueError unless order is a whole number from 0 to 4.  The canonical
        partials are the grid's guillemin_jets, and those of orders 3 to
        `order`, built on each call."""
        order, grid = _derivative_order(order), self.grid
        base = grid.guillemin_jets
        if order > 2:
            base = {**base, **_guillemin_orders(grid.polytope, grid.points, range(3, order + 1))}
        return {key: base[key] + val for key, val in self.f_jets(order).items()}

    def f_jets(self, order: int = 4) -> dict:
        """Partials {(a, b): array over nodes} of f with a + b <= `order`, in
        PARTIALS order; ValueError unless order is a whole number from 0 to 4.

        A closed form's are exact: one ClosedForm.partials call, made on each
        call.  Node data's are f itself, the rows of _f_jet for orders 1 and
        2, kept, and for orders 3 and 4 those of one _f_higher, computed on
        each call.  Nothing of an order above `order` is built."""
        order = _derivative_order(order)
        if self.f_form is not None:
            return self.f_form.partials(order, *self.grid.points.T)
        rows = {(0, 0): self.f_values}
        for k, names in enumerate((GRADIENT_KEYS, HESSIAN_KEYS)[:order], 1):
            rows.update(zip(names, self._f_jet(k)))
        if order > 2:
            rows.update(self._f_higher(order))
        return {key: rows[key] for key in PARTIALS if sum(key) <= order}

    def _f_jet(self, order: int) -> np.ndarray:
        """The first (order 1, (2, n) in GRADIENT_KEYS order) or second
        (order 2, (3, n) in HESSIAN_KEYS order) partials of the node data f:
        one product of the grid's jet operator, computed on first request."""
        if order not in self._f_jets:
            A = self.grid.gradient_operator if order == 1 else self.grid.hessian_operator
            self._f_jets[order] = (A @ self.f_values).reshape(-1, self.grid.n_nodes)
        return self._f_jets[order]

    def _f_higher(self, order: int) -> dict:
        """The third partials {(a, b): array over nodes} of the node data f,
        and its fourth if order is 4, computed on each call and not kept.

        One-product Grid.diff calls of shared intermediates, twelve for both
        orders: f_x, f_xx and f_yy, then one axis difference of one of them,
        or of f_xxx or f_xyy, per partial.  Each partial gets the operator
        sequence of diff(f, a, b), x before y, so its bits are those of
        diff."""
        d, f = self.grid.diff, self.f_values
        fx, fxx, fyy = d(f, 1, 0), d(f, 2, 0), d(f, 0, 2)
        out = {(3, 0): d(fxx, 1, 0), (2, 1): d(fxx, 0, 1), (1, 2): d(fx, 0, 2),
               (0, 3): d(fyy, 0, 1)}
        if order > 3:
            out.update({(4, 0): d(fxx, 2, 0), (3, 1): d(out[3, 0], 0, 1), (2, 2): d(fxx, 0, 2),
                        (1, 3): d(out[1, 2], 0, 1), (0, 4): d(fyy, 0, 2)})
        return out

    def partials_at(self, points, order: int = 4) -> dict:
        """Exact partials {(a, b): array over points} of a closed-form u with
        a + b <= `order` at interior points.  Node data is read off the grid
        only as a value (value_at), so for it this raises DomainError.
        ValueError unless order is a whole number from 0 to 4."""
        order = _derivative_order(order)
        if self.f_form is None:
            raise DomainError("node-data potentials have no off-grid partials")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        base, f = guillemin_partials(self.polytope, pts, order), self.f_form.partials(order, *pts.T)
        return {key: base[key] + f[key] for key in base}

    def min_hessian_eigenvalues(self) -> np.ndarray:
        """The lower eigenvalue of the Hessian of u at every node."""
        jets = self.jets(2)
        return _sym2_eigenvalues([jets[key] for key in HESSIAN_KEYS])[0]

    # -- pointwise evaluation --------------------------------------------------

    def node_index(self, x) -> int:
        return int(self.grid.nearest_nodes(x)[0])

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
        if self.f_form is None:
            k = self.grid_node(x)
            return Jet({key: float(val[k]) for key, val in self.jets(order).items()})
        return Jet({key: float(val[0]) for key, val in self.partials_at(x, order).items()})

    # -- off-grid sampling -------------------------------------------------------

    def _taylor_value(self, ks: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """The second-order Taylor polynomial of the node data f about nodes
        ks, at offsets (dx, dy) from them."""
        f10, f01 = self._f_jet(1).take(ks, axis=1)
        f20, f11, f02 = self._f_jet(2).take(ks, axis=1)
        return (self.f_values[ks] + f10 * dx + f01 * dy
                + 0.5 * (f20 * dx**2 + 2 * f11 * dx * dy + f02 * dy**2))

    def value_at(self, points) -> np.ndarray:
        """u on the closed polytope (canonical part by continuity on the
        boundary); node data by the Taylor step from the nearest node."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.f_form is None:
            f = self._taylor_value(*self.grid.nearest_nodes(pts))
        else:
            f = self.f_form(pts[:, 0], pts[:, 1])
        out = guillemin_value(self.polytope, pts) + f
        return out if np.asarray(points).ndim > 1 else out[0]

    def boundary_integral(self, quad: BoundaryQuadrature) -> float:
        """The boundary quadrature of u, the dot product of quad.weights with
        u at quad.points as value_at computes it, from the quadrature's
        canonical values.  Node data's Taylor steps are linear in the node
        data, so their quadrature is the products of the quadrature's node
        moments on this grid with f and its first and second partials there.
        A quadrature of another polytope raises DomainError."""
        quadrature_for(self.polytope, quad)
        if self.f_form is None:
            nodes, m = quad.node_moments(self.grid)
            return float(np.dot(quad.weights, quad.canonical) + np.dot(m[0], self.f_values[nodes])
                         + np.vdot(m[1:3], self._f_jet(1)[:, nodes])
                         + np.vdot(m[3:], self._f_jet(2)[:, nodes]))
        f = self.f_form(quad.points[:, 0], quad.points[:, 1])
        return float(np.dot(quad.weights, quad.canonical + f))


# ---------------------------------------------------------------------------
# snapshots


def _repr_column(values: np.ndarray) -> list:
    """repr of each float of an array, taken once per distinct value; the
    values are told apart by their bits, so -0.0 and 0.0 keep their own."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    reprs = list(map(repr, distinct.view(float).tolist()))
    return [reprs[k] for k in inverse.tolist()]


def save_snapshot(u: SymplecticPotential, path, t: float = 0.0) -> None:
    """Write the node values of u as CSV, plus a JSON sidecar <path>.json.

    The CSV has the header ``i,j,x,y,f`` and one row per grid node in node
    order, CRLF line endings, grid indices as integers and floats as their
    shortest round-trip repr.  The sidecar holds grid_n, delta_min, the
    polytope's content hash and facet data, and the flow time t.
    """
    path = Path(path)
    ij, points = u.grid.ij, u.grid.points
    # a grid has few distinct coordinates, so x and y cost a repr per lattice
    # line and f one per node
    rows = zip(ij[:, 0].tolist(), ij[:, 1].tolist(), _repr_column(points[:, 0]),
               _repr_column(points[:, 1]), u.f_values.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("i,j,x,y,f\r\n" + "".join(map("%d,%d,%s,%s,%r\r\n".__mod__, rows)))
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

    Returns (potential, t).  The columns i, j and f are read by name; x and
    y are informative only, and either line ending loads.  DomainError is
    raised for a malformed sidecar (one whose polytope or grid cannot be
    built included), sidecar facets that do not hash to its polytope_hash, a
    supplied polytope other than those facets' (compared with ==), a flow
    time that is not finite, a header without i, j or f, a malformed row or
    a non-integer i or j, a row that is not a node of the grid, two rows for
    one node, a node without a row, and an f that is not finite.
    """
    path = Path(path)
    # the snapshot is opened before its sidecar, so that a missing snapshot
    # is reported by its own name
    with open(path) as fh:
        try:
            with open(path.with_suffix(path.suffix + ".json")) as side:
                meta = json.load(side)
            P = polytope_from_dict(meta["polytope"])
            if P.content_hash() != meta["polytope_hash"]:
                raise DomainError(f"malformed snapshot {path}: facets differ from polytope_hash")
            if polytope is not None and polytope != P:
                raise DomainError("snapshot belongs to a different polytope")
            grid = Grid(P, meta["grid_n"], float(meta["delta_min"]))
            t = float(meta["t"])
            if not math.isfinite(t):
                raise DomainError(f"malformed snapshot {path}: flow time {t!r} is not finite")
            names = fh.readline().rstrip("\n").split(",")
            with warnings.catch_warnings():
                # a header without rows is reported below as a missing node
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", ndmin=1,
                                  usecols=[names.index(c) for c in ("i", "j", "f")],
                                  dtype=[("i", np.int64), ("j", np.int64), ("f", float)])
        except (KeyError, TypeError, ValueError, DegenerateInputError) as exc:
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
