"""Delzant polytopes in the plane, their canonical potential u_G, interior
lattice grids, and boundary measure.

The polytope is held in facet form l_i(x) = <x, v_i> + c_i >= 0 with primitive
integer inward normals v_i.  Vertices are derived and validated against the
Delzant condition (the two normals meeting at a vertex form a Z^2 basis).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import weakref
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import DegenerateInputError, DomainError

_TOL = 1e-10
# multiply-adds per facet-value product: below OpenBLAS's threading size
# (65536 * 4 of them), so no product waits on its thread pool, which stalls
# for tens of milliseconds when it wakes on a busy host
_FACET_PRODUCT_SIZE = 2**16


def _polygon_area(poly) -> float:
    """Shoelace area of a polygon given as a vertex sequence."""
    if len(poly) < 3:
        return 0.0
    x = np.asarray([p[0] for p in poly])
    y = np.asarray([p[1] for p in poly])
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_cells(xy, counts, a: float, b: float, c: float):
    """Clip many polygons at once to the half-plane a*x + b*y + c >= 0
    (Sutherland-Hodgman).

    xy is (m, V, 2): polygon r has its vertices in slots 0..counts[r]-1 and
    zeros in the rest.  Returns (xy, counts) of the clipped polygons in the
    same form; each gets the vertices, in the order and with the bits, that
    the one-polygon Sutherland-Hodgman loop gives it."""
    m, V, _ = xy.shape
    slot = np.arange(V)
    nxt = (slot + 1) % np.maximum(counts, 1)[:, None]
    valid = slot < counts[:, None]
    fp = a * xy[..., 0] + b * xy[..., 1] + c
    fq = np.take_along_axis(fp, nxt, axis=1)
    keep = valid & (fp >= 0.0)
    # the edge from a vertex to the next crosses the line
    cross = valid & ((fp >= 0.0) != (fq >= 0.0))
    emit = keep + cross.astype(int)
    start = np.cumsum(emit, axis=1) - emit
    counts = emit.sum(axis=1)
    out = np.zeros((m, counts.max(initial=0), 2))
    r, k = np.nonzero(keep)
    out[r, start[r, k]] = xy[r, k]
    r, k = np.nonzero(cross)
    p, q = xy[r, k], xy[r, nxt[r, k]]
    fp, fq = fp[r, k], fq[r, k]
    t = (fp / (fp - fq))[:, None]
    out[r, start[r, k] + keep[r, k]] = p + t * (q - p)
    return out, counts


def _cell_moments(xy, counts):
    """(area, moments) of each polygon of a clip_cells array: moments (m, 6)
    are the integrals [A, Mx, My, Mxx, Mxy, Myy] of 1, x, y, x^2, xy, y^2 over
    the polygon, positively oriented regardless of input orientation, and a
    polygon of fewer than 3 vertices or of zero area has area 0 and NaN
    moments.

    The polygons of one vertex count are summed as one stack; numpy sums
    each row as it sums a 1-d array (left to right below 8 terms, pairwise
    from 8 on), so a polygon gets the bits it gets alone."""
    area = np.zeros(len(counts))
    moments = np.full((len(counts), 6), np.nan)
    for n in np.unique(counts[counts >= 3]):
        rows = np.flatnonzero(counts == n)
        x, y = xy[rows, :n, 0], xy[rows, :n, 1]
        x1, y1 = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * y1 - x1 * y
        area2 = cross.sum(axis=1)
        A = 0.5 * area2
        Mx = ((x + x1) * cross).sum(axis=1) / 6.0
        My = ((y + y1) * cross).sum(axis=1) / 6.0
        Mxx = ((x * x + x * x1 + x1 * x1) * cross).sum(axis=1) / 12.0
        Myy = ((y * y + y * y1 + y1 * y1) * cross).sum(axis=1) / 12.0
        Mxy = ((x * y1 + 2 * x * y + 2 * x1 * y1 + x1 * y) * cross).sum(axis=1) / 24.0
        sgn = np.where(area2 > 0, 1.0, -1.0)
        ok = np.abs(area2) >= 1e-300
        rows = rows[ok]
        area[rows] = np.abs(A[ok])
        moments[rows] = (sgn[:, None] * np.stack([A, Mx, My, Mxx, Mxy, Myy], axis=1))[ok]
    return area, moments


def _solve_each(gram, rhs):
    """np.linalg.solve of a stack of systems, NaN rows where a matrix is
    singular.

    LAPACK gives up on the whole stack if one matrix is singular; the stack
    is then solved again as its two halves, each by this rule, so that only
    the halves holding a singular matrix are split further."""
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full(rhs.shape, np.nan)
        half = len(rhs) // 2
        return np.concatenate([_solve_each(gram[:half], rhs[:half]),
                               _solve_each(gram[half:], rhs[half:])])


@dataclass(frozen=True, eq=False)
class DelzantPolytope:
    """Convex lattice polygon in facet presentation l_i(x) = <x, v_i> + c_i.

    normals : (d, 2) int array of primitive inward normals
    offsets : (d,) float array
    vertices : (d, 2) float array, derived, ordered counterclockwise; not a
        constructor input

    Construction raises DegenerateInputError unless each normal is a pair of
    finite whole numbers ([1.0, 0] is [1, 0]) and each offset finite, and the
    facets bound a Delzant polygon.  Two polytopes are equal, and hash alike,
    when their content hashes are: the same facets in the same order, with
    offsets equal bit for bit (-0.0 is not 0.0).
    """

    normals: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray = field(init=False)

    def __post_init__(self):
        try:
            normals = np.asarray(self.normals, dtype=float)
            offsets = np.asarray(self.offsets, dtype=float)
        except (TypeError, ValueError) as exc:
            # a ragged list holds a normal that is not a pair
            raise DegenerateInputError(
                "each facet normal must be a pair of numbers and each offset a number") from exc
        if normals.ndim != 2 or normals.shape[1] != 2 or normals.shape[0] < 3 or (
                offsets.shape != normals.shape[:1]):
            raise DegenerateInputError("need 3 or more facets, each with a 2d normal and an offset")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(offsets))
                and np.array_equal(normals, np.round(normals))):
            raise DegenerateInputError("facet normals must be finite whole numbers, offsets finite")
        object.__setattr__(self, "normals", normals.astype(np.int64))
        object.__setattr__(self, "offsets", offsets)
        for v in self.normals:
            if math.gcd(int(abs(v[0])), int(abs(v[1]))) != 1:
                raise DegenerateInputError(f"facet normal {tuple(v)} is not primitive")
        object.__setattr__(self, "vertices", self._derive_vertices())
        # the fields never change, so neither do their area, hash and
        # boundary measure
        object.__setattr__(self, "_area", _polygon_area(self.vertices))
        self._validate()
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        object.__setattr__(self, "_content_hash", hashlib.sha256(blob).hexdigest())
        object.__setattr__(self, "_boundary_measure", sum(
            self.facet_lattice_length(i) for i in range(len(self.offsets))))

    def _derive_vertices(self) -> np.ndarray:
        d = len(self.offsets)
        cands = []
        for i in range(d):
            for j in range(i + 1, d):
                A = np.array([self.normals[i], self.normals[j]], dtype=float)
                det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
                if abs(det) < _TOL:
                    continue
                x = np.linalg.solve(A, -self.offsets[[i, j]])
                if np.all(self.facet_values(x) >= -1e-9):
                    cands.append(x)
        verts = []
        for x in cands:
            if not any(np.hypot(*(x - w)) < 1e-8 for w in verts):
                verts.append(x)
        if len(verts) < 3:
            raise DegenerateInputError("facet system has no bounded 2-cell")
        verts = np.array(verts)
        center = verts.mean(axis=0)
        order = np.argsort(np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0]))
        return verts[order]

    def _validate(self):
        d = len(self.offsets)
        if len(self.vertices) != d:
            raise DegenerateInputError(
                f"{d} facets but {len(self.vertices)} vertices; not a simple facet presentation"
            )
        # Delzant condition at every vertex
        for x in self.vertices:
            active = np.nonzero(np.abs(self.facet_values(x)) < 1e-8)[0]
            if len(active) != 2:
                raise DegenerateInputError(f"vertex {tuple(x)} meets {len(active)} facets")
            vi, vj = self.normals[active[0]], self.normals[active[1]]
            det = int(vi[0]) * int(vj[1]) - int(vi[1]) * int(vj[0])
            if abs(det) != 1:
                raise DegenerateInputError(
                    f"normals at vertex {tuple(x)} have determinant {det}, not a Z^2 basis"
                )
        if self.area <= _TOL:
            raise DegenerateInputError("polytope has empty interior")
        centroid = self.vertices.mean(axis=0)
        if np.min(self.facet_values(centroid)) <= 0:
            raise DegenerateInputError("polytope has empty interior")

    # -- geometry queries (pure) -------------------------------------------

    def facet_values(self, x) -> np.ndarray:
        """l_i(x) for all facets; x is a point (2,) or an array (..., 2).

        A stack of point arrays (ndim > 2) takes the products of its (-1, 2)
        rows, not one product per array.  The rows are multiplied in blocks
        of _FACET_PRODUCT_SIZE multiply-adds; each value is the same product
        of its own row, so blocking leaves every bit as it is."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 2:
            return self.facet_values(x.reshape(-1, 2)).reshape(*x.shape[:-1], -1)
        V = self.normals.T.astype(float)
        if x.ndim < 2:
            return x @ V + self.offsets
        out = np.empty((len(x), V.shape[1]))
        rows = max(1, _FACET_PRODUCT_SIZE // V.size)
        for i in range(0, len(x), rows):
            np.matmul(x[i : i + rows], V, out=out[i : i + rows])
        out += self.offsets
        return out

    def contains(self, x) -> bool:
        """Whether x is in the open polytope."""
        return bool(np.all(self.facet_values(x) > 0))

    @property
    def area(self) -> float:
        """Euclidean area, computed when the polytope is built."""
        return self._area

    @property
    def bbox(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return lo, hi

    def facet_segment(self, i: int):
        """The two vertices spanning facet i."""
        on = [v for v in self.vertices if abs(self.facet_values(v)[i]) < 1e-8]
        if len(on) != 2:
            raise DegenerateInputError(f"facet {i} supports {len(on)} vertices")
        return np.asarray(on[0]), np.asarray(on[1])

    def facet_lattice_length(self, i: int) -> float:
        """Length of facet i in the lattice boundary measure.

        The measure assigns length 1 to a primitive lattice step along the
        facet, which is the normalization under which the integral of the
        Abreu scalar curvature over the polytope equals twice the total
        boundary measure.
        """
        a, b = self.facet_segment(i)
        e = b - a
        g = math.gcd(int(round(abs(e[0]))), int(round(abs(e[1])))) if (
            abs(e[0] - round(e[0])) < 1e-9 and abs(e[1] - round(e[1])) < 1e-9
        ) else 0
        if g > 0:
            return float(g)
        # non-lattice endpoints: fall back to Euclidean length over primitive step
        v = self.normals[i]
        tau = np.array([-v[1], v[0]], dtype=float)
        return float(np.hypot(*e) / np.hypot(*tau))

    def boundary_measure(self) -> float:
        """Total lattice length of the facets, computed when the polytope is built."""
        return self._boundary_measure

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "facets": [
                {"normal": [int(v[0]), int(v[1])], "offset": float(c)}
                for v, c in zip(self.normals, self.offsets)
            ]
        }

    def content_hash(self) -> str:
        """SHA-256 of the sorted JSON of to_dict, computed when the polytope is built."""
        return self._content_hash

    def __eq__(self, other):
        return isinstance(other, DelzantPolytope) and self._content_hash == other._content_hash

    def __hash__(self):
        return hash(self._content_hash)


def from_dict(data: dict) -> DelzantPolytope:
    """The polytope of a {"facets": [{"normal": [a, b], "offset": c}, ...]}
    object; the polytope checks the values (DegenerateInputError)."""
    try:
        facets = data["facets"]
        normals = [f["normal"] for f in facets]
        offsets = [f["offset"] for f in facets]
    except (KeyError, TypeError) as exc:
        raise DegenerateInputError(f"malformed polytope data: {exc}") from exc
    return DelzantPolytope(normals, offsets)


def load_polytope(path) -> DelzantPolytope:
    """The polytope of a JSON file (see from_dict); DegenerateInputError,
    naming the file, if it cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, or bytes that do not decode
        raise DegenerateInputError(f"cannot read polytope file {path}: {exc}") from exc
    return from_dict(data)


def save_polytope(P: DelzantPolytope, path) -> None:
    with open(path, "w") as fh:
        json.dump(P.to_dict(), fh, indent=2)


def standard_triangle() -> DelzantPolytope:
    """Triangle with vertices (-1,-1), (-1,2), (2,-1).

    Facets: l1 = x+1, l2 = y+1, l3 = 1-x-y.
    """
    return DelzantPolytope(
        normals=np.array([[1, 0], [0, 1], [-1, -1]]),
        offsets=np.array([1.0, 1.0, 1.0]),
    )


# ---------------------------------------------------------------------------
# canonical singular part


def _derivative_order(order) -> int:
    """order as an int; ValueError unless it is a whole number from 0 to 4,
    the orders whose partials are supported."""
    if not (isinstance(order, numbers.Real) and float(order).is_integer() and 0 <= order <= 4):
        raise ValueError(f"derivative order must be a whole number from 0 to 4, got {order!r}")
    return int(order)


def guillemin_partials(P: DelzantPolytope, points, order: int = 4) -> dict:
    """All partials of u_G = 1/2 sum l_i ln l_i up to `order` at interior points.

    Returns {(a, b): array}.  Raises DomainError if any point is on or outside
    the boundary, ValueError unless order is a whole number from 0 to 4.
    """
    order = _derivative_order(order)
    pts = np.asarray(points, dtype=float)
    out = _guillemin_orders(P, np.atleast_2d(pts), range(order + 1))
    if pts.ndim == 1:
        out = {k: v[0] for k, v in out.items()}
    return out


def _guillemin_orders(P: DelzantPolytope, pts: np.ndarray, orders: range) -> dict:
    """The partials {(a, b): array} of u_G with a + b in `orders` at interior
    points (n, 2): one _guillemin_order call per order on one table of facet
    values, whose logarithm is taken only if order 0 or 1 reads it."""
    L, V = _interior_facet_values(P, pts), P.normals.astype(float)
    log_l = np.log(L) if orders[0] <= 1 else None
    out = {}
    for k in orders:
        out.update(_guillemin_order(L, log_l, V, k))
    return out


def _interior_facet_values(P: DelzantPolytope, pts: np.ndarray) -> np.ndarray:
    """Facet values (n, d) at points, which must be interior (DomainError)."""
    L = P.facet_values(pts)
    if np.any(L <= 0):
        raise DomainError("point on or outside the polytope boundary")
    return L


def _guillemin_order(L: np.ndarray, log_l: np.ndarray, V: np.ndarray, k: int) -> dict:
    """The partials {(a, b): array} of u_G with a + b = k, from the facet
    values L (n, d), their logarithm log_l (read for k <= 1 only) and the
    normals V (d, 2): for k >= 2 they are c_k sum_i v_i^(a, b) / l_i^(k-1)
    with c_k = 1/2, -1/2, 1."""
    if k == 0:
        return {(0, 0): 0.5 * np.sum(L * log_l, axis=1)}
    if k == 1:
        g = 0.5 * (log_l + 1.0) @ V  # (n, 2)
        return {(1, 0): g[:, 0], (0, 1): g[:, 1]}
    coef, inv = {2: 0.5, 3: -0.5, 4: 1.0}[k], 1.0 / L ** (k - 1)
    # product of normal components
    return {(a, k - a): coef * inv @ (V[:, 0] ** a * V[:, 1] ** (k - a))
            for a in range(k, -1, -1)}


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


# ---------------------------------------------------------------------------
# interior grid


_D1_STENCILS = [
    ((-1, 1), (-0.5, 0.5)),
    ((0, 1, 2), (-1.5, 2.0, -0.5)),
    ((0, -1, -2), (1.5, -2.0, 0.5)),
    ((0, 1), (-1.0, 1.0)),
    ((0, -1), (1.0, -1.0)),
]

_D2_STENCILS = [
    ((-1, 0, 1), (1.0, -2.0, 1.0)),
    ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)),
    ((0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0)),
    ((0, 1, 2), (1.0, -2.0, 1.0)),
    ((0, -1, -2), (1.0, -2.0, 1.0)),
]

# The partials (a, b) of the rows of Grid.gradient_operator, and those of the
# rows of Grid.hessian_operator, which are the Hessian components (00, 01, 11);
# the derivatives d_k and d_k d_l of any field are ordered the same way, k = 0, 1
# and kl = 00, 01, 11.
GRADIENT_KEYS = ((1, 0), (0, 1))
HESSIAN_KEYS = ((2, 0), (1, 1), (0, 2))

# lattice offsets (di, dj) of the columns of Grid.neighbors8
OFFSETS8 = np.array([(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)])


def _frozen(A):
    """A with read-only data, indices and row pointer, so that a read which
    sorts its rows in place (scipy's max or abs) raises ValueError instead of
    reordering A and moving the bits of its products."""
    for a in (A.data, A.indices, A.indptr):
        a.flags.writeable = False
    return A


class Grid:
    """Axis-aligned lattice of interior nodes with finite-difference stencils.

    Nodes are the lattice points x = anchor + h*(i, j) whose smallest facet
    value min_i l_i(x) is at least delta_min.  The lattice spans the
    polytope's bounding box, and its cells, the h-squares about the lattice
    points, cover the bounding box.  Construction is deterministic
    from (polytope, n, delta_min) and reads the nodes and their boundary
    distances off one table of facet values; what else is derived is built
    on first request and immutable.  A grid keeps a table that a second
    request reads; what has one reader is built by it and not kept
    (``neighbors8``, ``midpoint_correction_mask``, the canonical partials of
    orders 3 and 4, the edges of calabiflow.flow.region_graph).

    Every linear derivative operator is a sparse (CSR) matrix over the node
    list, compiled once per grid: the axis stencils in ``axis_operators``,
    the two jet operators ``gradient_operator`` (2n, n) and
    ``hessian_operator`` (3n, n), which stack the first and the second
    partials row block by row block, and the quadrature functional in
    ``quadrature_weights``.  The axis and jet operators are compiled by
    writing their CSR arrays in place: every row's length is known before
    any entry is written, so indptr is one cumulative sum, and each source
    (a stencil of the table, the stored rows of an axis operator or of the
    product d/dy d/dx, a least-squares cloud) writes its entries at
    indptr[row] + slot in a fixed order.  That order is part of the
    operators' bits: a product sums each row in it.  The operators' arrays
    are read-only: a caller copies an operator before canonicalizing it
    (sum_duplicates, sort_indices), or before a read that does so in place,
    since either reorders the rows.  ``class_records`` holds
    the constants of each admissible class on the grid, among them the flow
    velocity's operator (see calabiflow.curvature.class_record).  Nothing
    derived refers back to the grid, so a grid is freed without a cyclic
    collection.
    """

    def __init__(self, polytope: DelzantPolytope, n: int, delta_min: float):
        # each check is written so that NaN fails it
        if not (float(n).is_integer() and n >= 2):
            raise DegenerateInputError(f"grid resolution must be a whole number >= 2, got {n!r}")
        if delta_min <= 0:
            raise DegenerateInputError("delta_min must be positive")
        lo, hi = polytope.bbox
        h = (hi[0] - lo[0]) / n
        ni = int(round((hi[0] - lo[0]) / h)) + 1
        # one row more where the last falls more than h/2 short of hi[1], so
        # that the cells cover the bounding box
        nj = int(math.ceil((hi[1] - lo[1]) / h - 0.5 - 1e-9)) + 1
        ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
        xs = lo[0] + h * ii
        ys = lo[1] + h * jj
        pts = np.stack([xs, ys], axis=-1)
        values = polytope.facet_values(pts)
        # the smallest facet value, one elementwise pass per facet
        delta = reduce(np.minimum, np.moveaxis(values, -1, 0))
        mask = delta >= delta_min - 1e-12

        if not mask.any():
            raise DegenerateInputError(
                f"no lattice point of spacing {h:g} clears delta_min={delta_min:g}"
            )

        self.polytope = polytope
        self.n = int(n)
        self.delta_min = float(delta_min)
        self.h = float(h)
        self.anchor = np.asarray(lo, dtype=float)
        self.shape = (ni, nj)
        # node ids and lattice indices fit int32, as do the operators' indices
        node_id = -np.ones((ni, nj), dtype=np.int32)
        node_id[mask] = np.arange(mask.sum())
        self.node_id = node_id
        self.ij = np.stack(np.nonzero(mask), axis=1).astype(np.int32)
        self.points = pts[mask]
        self.min_facet_distance = delta[mask]
        self.n_nodes = len(self.points)
        # a node lies inside the convex polygon, so its nearest boundary
        # point is on the nearest facet line: l_i(x) / |v_i| minimized over i
        lengths = np.sqrt((polytope.normals**2).sum(axis=1).astype(float))
        self._boundary_distance = reduce(np.minimum, (values[mask] / lengths).T)

        self._cell_weights = None
        # {AdmissibleClass: record of its constants on this grid}, filled on
        # first request by calabiflow.curvature.class_record
        self.class_records = {}

    # -- stencil machinery --------------------------------------------------

    def _neighbors(self, offsets) -> np.ndarray:
        """(n_nodes, k) ids of the lattice neighbours at k offsets (di, dj),
        -1 where the neighbour is not a node: one flat gather from the
        node_id table padded with -1."""
        offsets = np.asarray(offsets)
        pad = int(np.abs(offsets).max())
        ids = np.pad(self.node_id, pad, constant_values=-1)
        width = ids.shape[1]
        at = (self.ij[:, 0] + pad) * width + (self.ij[:, 1] + pad)
        return ids.ravel().take(at[:, None] + (offsets[:, 0] * width + offsets[:, 1]))

    @property
    def neighbors8(self) -> np.ndarray:
        """(n_nodes, 8) ids of the 8 lattice neighbours at OFFSETS8, -1 where
        the neighbour is not a node; built on each access, not kept."""
        return self._neighbors(OFFSETS8)

    def _axis_operators(self, axis: int):
        """{order: (CSR matrix, stencil)} of the axis's stencil operators of
        orders 1 and 2.

        Each node takes the first stencil of the order's table whose nodes all
        exist; stencil holds its index in the table, -1 where no stencil
        serves the node.  Such a node gets the row of the nearest served node.
        The axis neighbours at offsets -3..3 are gathered once for both
        orders, and each stencil picks its columns from them.  The arrays are
        written in place: a row's length is its stencil's, so indptr is one
        cumulative sum, and each stencil writes its coefficients and columns,
        in table order, into the slots of the rows it serves.
        """
        from scipy import sparse

        n = self.n_nodes
        line = self._neighbors(np.outer(np.arange(-3, 4), np.eye(2, dtype=int)[axis]))
        exists = line >= 0
        out = {}
        for order, table, scale in ((1, _D1_STENCILS, self.h), (2, _D2_STENCILS, self.h * self.h)):
            stencil = np.full(n, -1, dtype=np.int8)
            for s, (offs, _) in enumerate(table):
                take = (stencil < 0) & exists[:, np.add(offs, 3)].all(axis=1)
                stencil[take] = s
            # row r holds the stencil row of node src[r]
            src = np.arange(n)
            bad = np.nonzero(stencil < 0)[0]
            if len(bad):
                good = np.nonzero(stencil >= 0)[0]
                if len(good) == 0:
                    raise DegenerateInputError("grid too sparse for finite differences")
                d2 = ((self.points[bad][:, None, :] - self.points[good][None, :, :]) ** 2).sum(-1)
                src[bad] = good[np.argmin(d2, axis=1)]
            row_stencil = stencil[src]
            lengths = np.array([len(offs) for offs, _ in table])[row_stencil]
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(lengths, out=indptr[1:])
            data = np.empty(indptr[-1])
            indices = np.empty(indptr[-1], dtype=np.int32)
            for s, (offs, cs) in enumerate(table):
                served = row_stencil == s
                rows = np.nonzero(served)[0]
                at = np.repeat(served, lengths)
                data[at] = np.tile(np.asarray(cs) / scale, len(rows))
                indices[at] = line.take(src[rows], axis=0)[:, np.add(offs, 3)].ravel()
            out[order] = sparse.csr_array((data, indices, indptr), shape=(n, n)), stencil
        return out

    @cached_property
    def _compiled(self):
        """({(axis, order): CSR}, {(axis, order): stencil}) for orders 1, 2;
        stencil as _axis_operators has it."""
        ops, stencils = {}, {}
        for axis in (0, 1):
            for order, (A, stencils[axis, order]) in self._axis_operators(axis).items():
                ops[axis, order] = _frozen(A)
        return ops, stencils

    @property
    def axis_operators(self) -> dict:
        """{(axis, order): CSR matrix} of the stencil partials d/dx, d/dy,
        d2/dx2, d2/dy2; rows of nodes no stencil serves are filled from the
        nearest served node."""
        return self._compiled[0]

    def diff(self, f: np.ndarray, dx: int, dy: int) -> np.ndarray:
        """Finite-difference partial of a node field, composing per axis.

        f is (n,) or a stack (n, k) of k fields, each differenced as it is
        alone.  Pure derivatives up to order 2 use a single stencil; higher
        orders and mixed derivatives compose first/second differences.
        """
        ops = self.axis_operators
        out = np.asarray(f, dtype=float)
        for axis, k in ((0, dx), (1, dy)):
            while k >= 2:
                out = ops[axis, 2] @ out
                k -= 2
            if k == 1:
                out = ops[axis, 1] @ out
        return out

    def _quadratic_cloud(self, centers, k):
        """(near, M) of the node cloud of a quadratic fit about each of m
        centers: near (m, k) the ids of its k nearest nodes (all nodes if
        fewer), and M (m, k, 6) the monomials (1, dx, dy, dx^2, dx dy, dy^2)
        of their offsets (dx, dy) from the center in units of h."""
        m, k = len(centers), min(k, self.n_nodes)
        _, near = self.kdtree.query(centers, k=k)
        near = near.reshape(m, k)
        d = (self.points[near] - centers[:, None, :]) / self.h
        dx, dy = d[..., 0], d[..., 1]
        return near, np.stack([np.ones((m, k)), dx, dy, dx**2, dx * dy, dy**2], axis=-1)

    def _ls_band(self):
        """(nodes, clouds, pinv) of the least-squares quadratic jets on the
        near-boundary node band.

        The band covers every node within 3h of a facet in the facet-affine
        sense, plus any node the axis stencils cannot serve (corner wedges),
        and every node whose mixed partial, d/dy of the d/dx field, reads a
        d/dx row that is not exact on quadratics: an unserved row or a
        two-point stencil, whose h f_xx / 2 error the central d/dy would
        carry.  A single smooth quadratic fit per node kills the row-to-row
        alternation of one-sided stencil patterns along staircased facets,
        which otherwise injects wrong-signed high-frequency error into the
        flow's energy balance; it reproduces quadratic fields exactly, so the
        canonical inverse-Hessian field stays exact to roundoff.  pinv[:, c]
        maps the node values of a cloud to the coefficient c of
        (1, dx, dy, dx^2, dx dy, dy^2) in units of h.
        """
        ops, stencils = self._compiled
        bad = self.min_facet_distance < 3.0 * self.h
        for stencil in stencils.values():
            bad |= stencil < 0
        # composition d/dy of the d/dx field: flag consumers of inexact
        # intermediates; the entry appended for index -1 marks unserved rows
        inexact = np.array([len(offs) == 2 and 0 in offs for offs, _ in _D1_STENCILS] + [True])
        dy = ops[1, 1]
        rows = np.repeat(np.arange(self.n_nodes), np.diff(dy.indptr))
        bad[rows[inexact[stencils[0, 1][dy.indices]]]] = True
        nodes = np.nonzero(bad)[0]
        clouds, M = self._quadratic_cloud(self.points[nodes], 24)
        # Gaussian distance weights: neighbors fade smoothly, so the fitted
        # jets vary smoothly with node position (abrupt k-NN cloud changes
        # otherwise inject node-scale noise that fourth-order differencing
        # amplifies catastrophically along the flow)
        r2 = M[..., 3] + M[..., 5]
        omega = np.exp(-r2 / 1.5**2)
        MtW = np.swapaxes(M, 1, 2) * omega[:, None, :]  # (nb, 6, k)
        gram = MtW @ M  # (nb, 6, 6)
        pinv = np.linalg.solve(gram, MtW)  # (nb, 6, k) weighted LS solve
        return nodes, clouds, pinv

    @cached_property
    def _jet_operators(self):
        """(gradient_operator, hessian_operator): see those.

        Tensor-product stencil rows in the interior, the mixed partial being
        d/dy of d/dx; least-squares rows on the near-boundary band.  The
        arrays are written in place: a row's length is known first (its
        stencil row's off the band, its cloud's on it), so indptr is one
        cumulative sum; each off-band row copies its stencil row's entries in
        their stored order, and each band row its cloud's in cloud order.
        """
        from scipy import sparse

        ops = self.axis_operators
        n, h = self.n_nodes, self.h
        nodes, clouds, pinv = self._ls_band()
        off_band = np.ones(n, dtype=bool)
        off_band[nodes] = False

        def stack(parts):
            # row block k of the stack: the stencil rows of parts[k] off the
            # band, its least-squares rows on it; the band nodes are sorted,
            # so their rows take the clouds in turn
            lengths = np.empty((len(parts), n), dtype=np.int32)
            for k, (stencil, _) in enumerate(parts):
                lengths[k] = np.diff(stencil.indptr)
            lengths[:, nodes] = clouds.shape[1]
            indptr = np.zeros(lengths.size + 1, dtype=np.int32)
            np.cumsum(lengths.ravel(), out=indptr[1:])
            data = np.empty(indptr[-1])
            indices = np.empty(indptr[-1], dtype=np.int32)
            for k, (stencil, ls) in enumerate(parts):
                at = slice(indptr[k * n], indptr[(k + 1) * n])
                copied = np.repeat(off_band, lengths[k])
                kept = np.repeat(off_band, np.diff(stencil.indptr))
                data[at][copied] = stencil.data[kept]
                indices[at][copied] = stencil.indices[kept]
                data[at][~copied] = ls.ravel()
                indices[at][~copied] = clouds.ravel()
            return _frozen(sparse.csr_array((data, indices, indptr), shape=(len(parts) * n, n)))

        gradient = stack(((ops[0, 1], pinv[:, 1] / h), (ops[1, 1], pinv[:, 2] / h)))
        hessian = stack(((ops[0, 2], 2.0 * pinv[:, 3] / (h * h)),
                         (ops[1, 1] @ ops[0, 1], pinv[:, 4] / (h * h)),
                         (ops[1, 2], 2.0 * pinv[:, 5] / (h * h))))
        return gradient, hessian

    @property
    def gradient_operator(self):
        """(2n, n) CSR operator of the two first partials, stacked in
        GRADIENT_KEYS order: its product with a node field f, reshaped to
        (2, n), is the gradient (d/dx f, d/dy f)."""
        return self._jet_operators[0]

    @property
    def hessian_operator(self):
        """(3n, n) CSR operator of the three second partials, stacked in
        HESSIAN_KEYS order: its product with a node field f, reshaped to
        (3, n), is the (00, 01, 11) components of Hess f."""
        return self._jet_operators[1]

    def field_jets(self, f: np.ndarray) -> dict:
        """First and second derivative fields of a node field.

        f is (n,) or a stack (n, m) of m fields.  Tensor-product stencils in
        the interior; smooth least-squares jets on the near-boundary band.
        Returns {(a, b): array shaped like f} for every (a, b) with
        1 <= a+b <= 2, from one product of each jet operator.
        """
        f = np.asarray(f, dtype=float)
        jets = {}
        for keys, A in ((GRADIENT_KEYS, self.gradient_operator),
                        (HESSIAN_KEYS, self.hessian_operator)):
            jets.update(zip(keys, (A @ f).reshape(len(keys), *f.shape)))
        return jets

    @property
    def boundary_distance(self) -> np.ndarray:
        """Euclidean distance of each node to the boundary polygon,
        min_i l_i(x) / |v_i|, computed with the grid."""
        return self._boundary_distance

    @cached_property
    def kdtree(self):
        from scipy.spatial import cKDTree

        return cKDTree(self.points)

    def nearest_nodes(self, points):
        """(ks, dx, dy): the nearest node to each point, a (2,) point or an
        (m, 2) array of them, and the point's offset from that node."""
        points = np.asarray(points, dtype=float)
        _, ks = self.kdtree.query(points)
        dx, dy = (points - self.points[ks]).T
        return ks, dx, dy

    @cached_property
    def guillemin_jets(self) -> dict:
        """guillemin_partials of u_G at the nodes up to order 2, built on first
        request: all that node data reads of u_G.  Its second partials are
        the rows of guillemin_hessian.  Orders 3 and 4 are built by their
        reader, SymplecticPotential.jets, and not kept."""
        jets = guillemin_partials(self.polytope, self.points, 2)
        hessian = np.stack([jets[key] for key in HESSIAN_KEYS])
        jets.update(zip(HESSIAN_KEYS, hessian))
        return jets

    @property
    def guillemin_hessian(self) -> np.ndarray:
        """Components (00, 01, 11) of Hess u_G at the nodes, (3, n): the array
        whose rows are guillemin_jets' second partials."""
        return self.guillemin_jets[HESSIAN_KEYS[0]].base

    @property
    def cell_weights(self) -> np.ndarray:
        """Quadrature weights tiling the polytope with quadratic precision.

        Every lattice cell (the h-square about a lattice point) is classified
        at once by the facet values at its corners: full, missing (outside
        one facet) or cut.  A full cell that owns a node gives it h^2.  The
        cut cells and the full cells without a node are clipped to P in one
        array pass per facet (clip_cells), and each is distributed over its
        nearby nodes so that its exact area, centroid, and second moments
        are reproduced; quadratic integrands therefore see no boundary error
        and the weights sum to the polytope area.  The moment-matching
        systems are solved as one stack per stage; a stack that holds a
        singular matrix is solved again as two halves, and so on down to the
        singular cells.
        """
        if self._cell_weights is None:
            self._cell_weights = self._compute_cell_weights()
        return self._cell_weights

    def _distribute_cells(self, moments, center):
        """(r, nodes, weights) spreading clipped cells onto nearby nodes so
        that their moments are matched: cell r[e] gives weights[e] to
        nodes[e], in cell order.

        moments are (m, 6) rows [A, Mx, My, Mxx, Mxy, Myy] in absolute
        coordinates; each cell's matching system is solved in coordinates
        scaled by h about its row of `center`.  All cells are matched at
        once; a cell whose local node cloud is too thin falls back to
        centroid-only, then area-only matching, and one that none of the
        three matches puts its area on its nearest node."""
        near, M = self._quadratic_cloud(center, 12)
        (m, k), h = near.shape, self.h
        A, Mx, My, Mxx, Mxy, Myy = moments.T
        cx, cy = center.T
        # math.pow, the libm pow that squares a numpy scalar, not the x * x
        # that squares a numpy array: the two differ in the last bit, and
        # the weights keep the bits of a per-cell computation
        cx2, cy2 = (np.fromiter(map(math.pow, c.tolist(), itertools.repeat(2.0)), float, m)
                    for c in (cx, cy))
        # scaled moments of each cell about its `center`
        m6 = np.stack(
            [
                A,
                (Mx - cx * A) / h,
                (My - cy * A) / h,
                (Mxx - 2 * cx * Mx + cx2 * A) / h**2,
                (Mxy - cx * My - cy * Mx + cx * cy * A) / h**2,
                (Myy - 2 * cy * My + cy2 * A) / h**2,
            ],
            axis=1,
        )
        # a contiguous copy: the products of the transposed view round
        # differently in the last bit
        rows6 = np.ascontiguousarray(M.swapaxes(1, 2))  # (m, 6, k)
        weights = np.zeros((m, k))
        weights[:, 0] = A
        used = np.ones(m, dtype=int)
        todo = np.arange(m)
        for s in (6, 3, 1):
            # minimum-norm weights reproducing the first s moments
            rows, ms = rows6[todo, :s], m6[todo, :s]
            lam = _solve_each(rows @ rows.swapaxes(1, 2), ms)
            fin = np.isfinite(lam).all(axis=1)
            rows, ms, lam = rows[fin], ms[fin], lam[fin]
            w = (rows.swapaxes(1, 2) @ lam[..., None])[..., 0]
            resid = (rows @ w[..., None])[..., 0] - ms
            ok = ~(np.abs(resid).max(axis=1) > 1e-9 * np.maximum(np.abs(ms[:, 0]), 1e-30))
            done = todo[fin][ok]
            weights[done], used[done] = w[ok], k
            todo = np.setdiff1d(todo, done, assume_unique=True)
            if not len(todo):
                break
        r, slot = np.nonzero(np.arange(k) < used[:, None])
        return r, near[r, slot], weights[r, slot]

    def _compute_cell_weights(self) -> np.ndarray:
        """Cell weights of the nodes.

        Cells are numbered in lattice order, the order of the nodes, and all
        contributions are summed in cell order."""
        P, h = self.polytope, self.h
        normals = P.normals.astype(float)
        centers = self.anchor + h * np.indices(self.shape).reshape(2, -1).T
        signs = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        corners = centers[:, None, :] + signs * (h / 2)  # (cells, 4, 2)
        vals = P.facet_values(corners)  # (cells, 4, d)
        full = (vals >= 0).all(axis=(1, 2))
        # all corners on the far side of one facet: the cell misses P; one
        # elementwise pass over the corners, then one over the facets
        out = reduce(np.logical_and, np.moveaxis(vals < 0, 1, 0))
        missing = reduce(np.logical_or, out.T)
        node = self.node_id.ravel()
        owned = full & (node >= 0)
        parts = [(np.flatnonzero(owned), node[owned], np.full(owned.sum(), h * h))]
        # clipping leaves a full cell's four corners as they are
        cut = np.flatnonzero(~owned & ~missing)
        xy, counts = corners[cut], np.full(len(cut), 4)
        for k in range(len(P.offsets)):
            xy, counts = clip_cells(xy, counts, normals[k, 0], normals[k, 1], P.offsets[k])
        area, moments = _cell_moments(xy, counts)
        kept = area > 1e-14 * h * h
        cut, moments = cut[kept], moments[kept]
        if len(cut):
            center = np.where(full[cut, None], centers[cut], moments[:, 1:3] / moments[:, :1])
            r, near, w = self._distribute_cells(moments, center)
            parts.append((cut[r], near, w))
        cells, nodes, contribs = map(np.concatenate, zip(*parts))
        order = np.argsort(cells, kind="stable")
        weights = np.zeros(self.n_nodes)
        np.add.at(weights, nodes[order], contribs[order])
        return weights

    @property
    def midpoint_correction_mask(self) -> np.ndarray:
        """Nodes whose stencils are central on both axes; built on each
        access, not kept.

        Such a node owns a full interior cell: its axis neighbours clear
        delta_min, so each facet value at the node exceeds delta_min by at
        least h * max(|n_x|, |n_y|), which is no less than the
        h * (|n_x| + |n_y|) / 2 its cell's corners fall below it.  On these
        nodes the composite-midpoint Laplacian correction h^2/24 * lap f is
        well defined and lifts the interior rule to fourth order.
        """
        return (self._neighbors([(-1, 0), (1, 0), (0, -1), (0, 1)]) >= 0).all(axis=1)

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """Node weights of the refined interior quadrature.

        cell_weights plus the midpoint Laplacian correction, which is linear
        in the integrand and so folds in: h^4/24 * (d2/dx2 + d2/dy2)^T mask.
        """
        ops = self.axis_operators
        lap = ops[0, 2] + ops[1, 2]
        mask = self.midpoint_correction_mask.astype(float)
        return self.cell_weights + self.h**4 / 24.0 * (lap.T @ mask)


def build_grid(polytope: DelzantPolytope, n: int, delta_min: float) -> Grid:
    """Interior lattice grid of spacing h = (bbox width)/n, keeping nodes with
    min_i l_i >= delta_min.  Raises DegenerateInputError if no node survives."""
    return Grid(polytope, n, delta_min)


def eps_region(grid: Grid, eps: float) -> np.ndarray:
    """Indices of grid nodes at Euclidean distance >= eps from the boundary,
    sorted."""
    if not eps > 0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    return np.nonzero(grid.boundary_distance >= eps - 1e-12)[0]


# ---------------------------------------------------------------------------
# boundary quadrature


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Midpoint panels on each facet against the lattice boundary measure.

    points : (M, 2), weights : (M,).  Facet i holds the contiguous block
    i*BOUNDARY_PANELS:(i+1)*BOUNDARY_PANELS, whose weights sum exactly to the
    facet's lattice length.  canonical : (M,) is u_G at the points, and
    polytope_hash the content hash of the polytope they were built for.
    """

    points: np.ndarray
    weights: np.ndarray
    canonical: np.ndarray
    polytope_hash: str
    # grid -> node_moments(grid); weak keys, so an entry never outlives its grid
    _moments: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False
    )

    def node_moments(self, grid: Grid):
        """(nodes, moments) of the points about their nearest grid nodes,
        computed once per grid.  Consecutive points along a facet share their
        nearest node in runs: nodes (k,) holds the nearest node of each run,
        and moments (6, k) the sums over the run's points of w, w dx, w dy,
        w dx^2 / 2, w dx dy and w dy^2 / 2, with w a point's weight and
        (dx, dy) its offset from the node.  The quadrature of the second-order
        Taylor step about the nearest node is the products of these rows with
        the value and the first and second partials (HESSIAN_KEYS order) at
        the nodes.

        The nearest nodes are those grid.nearest_nodes gives, found by
        querying grid.kdtree at few points.  The search relies on the layout:
        each facet's points are a block of BOUNDARY_PANELS consecutive points
        in order along the facet's segment.  Every _PROBE_STRIDE-th point of
        a block and its last point are queried; where the two ends of an
        interval of the block have the same nearest node, every point between
        them gets it, and otherwise the midpoint is queried and both halves
        are searched again.  A Voronoi cell is convex, so a segment whose
        ends lie in one node's cell lies in it.  Ties cannot flip between
        probes: along a facet the difference of the squared distances to two
        nodes is affine in the position, and not constant 0, both nodes
        lying on the polygon's side of the facet's line.  Where it is at most
        0 at both ends of an interval it is below 0 at every point inside, by
        a margin far above the rounding of the tree's distances, so only a
        queried end can be equidistant to two nodes; the tree's choice there
        is never copied to a point whose own query could choose the other."""
        if grid not in self._moments:
            ks = _facet_nearest_nodes(grid.kdtree, self.points)
            dx, dy = (self.points - grid.points[ks]).T
            starts = np.flatnonzero(np.diff(ks, prepend=-1))
            w = self.weights
            wx, wy = w * dx, w * dy
            self._moments[grid] = ks[starts], np.add.reduceat(
                np.stack([w, wx, wy, 0.5 * wx * dx, wx * dy, 0.5 * wy * dy]), starts, axis=1)
        return self._moments[grid]


BOUNDARY_PANELS = 2048
# the spacing, in points, of the first nearest-node queries along a facet;
# strides of 8 to 64 took about the same time
_PROBE_STRIDE = 16


def _facet_nearest_nodes(tree, points) -> np.ndarray:
    """The nearest node of each point, tree.query's, where points are blocks
    of BOUNDARY_PANELS consecutive points along a segment each: queried at
    the probes of each block, and by bisection between probes whose nearest
    nodes differ (see BoundaryQuadrature.node_moments)."""
    m = BOUNDARY_PANELS
    ks = np.empty(len(points), dtype=np.intp)
    known = np.zeros(len(points), dtype=bool)
    probes = (np.arange(0, len(points), m)[:, None]
              + np.append(np.arange(0, m, _PROBE_STRIDE), m - 1)).ravel()
    at, lo, hi = probes, probes[:-1], probes[1:]
    while len(at):
        ks[at] = tree.query(points[at])[1]
        known[at] = True
        # the intervals with points inside whose ends' nodes differ; those
        # between two blocks have none
        split = (hi - lo > 1) & (ks[lo] != ks[hi])
        lo, hi = lo[split], hi[split]
        at = (lo + hi) // 2
        lo, hi = np.concatenate([lo, at]), np.concatenate([at, hi])
    # each point not queried takes the node of the last queried point before it
    last = np.maximum.accumulate(np.where(known, np.arange(len(points)), 0))
    return ks[last]


def boundary_quadrature(P: DelzantPolytope) -> BoundaryQuadrature:
    """BOUNDARY_PANELS midpoint panels on every facet."""
    pts = []
    wts = []
    m = BOUNDARY_PANELS
    t = (np.arange(m) + 0.5) / m
    for i in range(len(P.offsets)):
        a, b = P.facet_segment(i)
        L = P.facet_lattice_length(i)
        pts.append(a[None, :] + t[:, None] * (b - a)[None, :])
        wts.append(np.full(m, L / m))
    points = np.concatenate(pts)
    return BoundaryQuadrature(
        points=points,
        weights=np.concatenate(wts),
        canonical=guillemin_value(P, points),
        polytope_hash=P.content_hash(),
    )


def quadrature_for(P: DelzantPolytope, quad: BoundaryQuadrature = None) -> BoundaryQuadrature:
    """quad, refused unless it is a boundary quadrature of P (DomainError), or P's own if None."""
    if quad is None:
        return boundary_quadrature(P)
    if quad.polytope_hash != P.content_hash():
        raise DomainError("boundary quadrature belongs to a different polytope")
    return quad
