"""Independent high-resolution curvature oracle.

Differentiates potential VALUES on a local fine patch with central
differences, inverts the Hessian pointwise, and differences the resulting
fields again -- sharing no derivative machinery with the package.  Richardson
extrapolation of two spacings gives reference values used to validate every
curvature operation.
"""

import numpy as np


def _patch_values(u_value, center, s, m):
    """(2m+1)^2 values of u on a local grid of spacing s."""
    off = np.arange(-m, m + 1) * s
    X, Y = np.meshgrid(center[0] + off, center[1] + off, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    return np.asarray(u_value(pts), dtype=float).reshape(2 * m + 1, 2 * m + 1)


def _hessian_patch(V, s):
    """Central-difference Hessians on the interior of a value patch."""
    Hxx = (V[2:, 1:-1] - 2 * V[1:-1, 1:-1] + V[:-2, 1:-1]) / s**2
    Hyy = (V[1:-1, 2:] - 2 * V[1:-1, 1:-1] + V[1:-1, :-2]) / s**2
    Hxy = (V[2:, 2:] - V[2:, :-2] - V[:-2, 2:] + V[:-2, :-2]) / (4 * s**2)
    return Hxx, Hxy, Hyy


def _second_derivs(F, s):
    """(Fxx, Fxy, Fyy) at the center of a (2k+1)^2 field patch."""
    c = F.shape[0] // 2
    fxx = (F[c + 1, c] - 2 * F[c, c] + F[c - 1, c]) / s**2
    fyy = (F[c, c + 1] - 2 * F[c, c] + F[c, c - 1]) / s**2
    fxy = (F[c + 1, c + 1] - F[c + 1, c - 1] - F[c - 1, c + 1] + F[c - 1, c - 1]) / (4 * s**2)
    return fxx, fxy, fyy


def _first_derivs(F, s):
    c = F.shape[0] // 2
    fx = (F[c + 1, c] - F[c - 1, c]) / (2 * s)
    fy = (F[c, c + 1] - F[c, c - 1]) / (2 * s)
    return fx, fy


def _curvature_once(u_value, center, s, cls=None):
    """All curvature quantities at `center` using one spacing."""
    m = 4
    V = _patch_values(u_value, center, s, m)
    Hxx, Hxy, Hyy = _hessian_patch(V, s)  # (2m-1)^2 patch
    det = Hxx * Hyy - Hxy**2
    U = np.empty(Hxx.shape + (2, 2))
    U[..., 0, 0] = Hyy / det
    U[..., 1, 1] = Hxx / det
    U[..., 0, 1] = U[..., 1, 0] = -Hxy / det

    c = Hxx.shape[0] // 2
    out = {}
    d2U = np.empty((2, 2, 2, 2))  # [k, l, a, b]
    dU = np.empty((2, 2, 2))  # [k, a, b]
    for a in range(2):
        for b in range(2):
            fxx, fxy, fyy = _second_derivs(U[..., a, b], s)
            d2U[0, 0, a, b] = fxx
            d2U[0, 1, a, b] = d2U[1, 0, a, b] = fxy
            d2U[1, 1, a, b] = fyy
            fx, fy = _first_derivs(U[..., a, b], s)
            dU[0, a, b] = fx
            dU[1, a, b] = fy
    out["r_fiber"] = -np.einsum("ijij->", d2U)
    out["rm2_fiber"] = 0.25 * np.einsum("klij,ijkl->", d2U, d2U)

    if cls is not None:
        pvec = np.asarray(cls.p)
        q = float(center @ pvec + cls.c_S)
        Q = U[..., 0, 0] * 0.0  # weight field over the patch
        off = np.arange(-(m - 1), m) * s
        Xc, Yc = np.meshgrid(center[0] + off, center[1] + off, indexing="ij")
        Q = (Xc * pvec[0] + Yc * pvec[1] + cls.c_S) ** cls.m
        W = Q[..., None, None] * U
        wxx = _second_derivs(W[..., 0, 0], s)
        wxy = _second_derivs(W[..., 0, 1], s)
        wyy = _second_derivs(W[..., 1, 1], s)
        div = wxx[0] + 2 * wxy[1] + wyy[2]
        pw = q**cls.m
        out["r_weighted"] = cls.scal_S / q - div / pw

        # block algebra from the center-point tensors
        Uc = U[c, c]
        pieces = rm2_total_pieces(np.linalg.inv(Uc), Uc, dU, out["rm2_fiber"], cls, pw)
        out["rm2_total"] = pieces[2]
    return out


def rm2_total_pieces(G, U, dU, rm2_fiber, cls, pw):
    """(A, M, rm2_total) of the admissible metric at one point, by the
    block algebra's einsum contractions.

    G is the Hessian, U its inverse, dU[k] = d_k U (each 2x2), rm2_fiber the
    fiber |Rm|^2 and pw the class weight at the point.
    """
    pvec = np.asarray(cls.p)
    a_const = -cls.scal_S / 2.0
    H3 = np.einsum("km,mij->ijk", U, dU)
    Up = U @ pvec
    A = float(pvec @ U @ pvec)
    M = -np.einsum("k,ijk->ij", pvec, H3) + np.outer(Up, Up) / pw
    term1 = (2 * a_const * pw + A) ** 2 / (4 * pw**4)
    term2 = np.einsum("ik,jl,ij,kl->", G, G, M, M) / (4 * pw**2)
    return A, M, term1 + term2 + rm2_fiber


# -- full tensors from the package's component layout --------------------------
# The package holds a symmetric 2x2 field by its components (00, 01, 11) on
# the first axis and the derivatives of U partial-major, dU[k] and d2U[kl]
# components, k = 0, 1 and kl = 00, 01, 11.  The einsum references read full
# tensors; these loops build them.

_COMPONENT = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}


def sym2_matrices(S):
    """(..., 2, 2) matrices of a symmetric field with components S[0..2]."""
    S = np.asarray(S)
    out = np.empty(S.shape[1:] + (2, 2))
    for (i, j), c in _COMPONENT.items():
        out[..., i, j] = S[c]
    return out


def full_tensors(ctx):
    """(G, U, dU, d2U) of a curvature context as arrays (n, 2, 2),
    (n, 2, 2, 2) and (n, 2, 2, 2, 2), indexed [n, i, j], [n, k, i, j] and
    [n, k, l, i, j] with k, l the derivative directions."""
    dU = np.stack([sym2_matrices(ctx["dU"][k]) for k in (0, 1)], axis=1)
    d2U = np.empty(dU.shape[:2] + (2, 2, 2))
    for k in (0, 1):
        for l in (0, 1):
            d2U[:, k, l] = sym2_matrices(ctx["d2U"][k + l])
    return sym2_matrices(ctx["G"]), sym2_matrices(ctx["U"]), dU, d2U


def weighted_scalar_by_blocks(grid, U, cls):
    """(R, scale) at every node of `grid`: the weighted scalar curvature
    R = scal_S/q - [2 sum p_r d_s U_rs + p sum d_r d_s U_rs] / p
    of the class weight p = q^m, q = <p, z> + c_S; m is 0 or 1, so the weight
    is affine with gradient m (p1, p2).  Every trace is a product of one row
    block of the grid's jet operators, copied out on its own, with one
    component of U (3, n).  scale is the sum of the absolute values of its
    terms, the size that the rounding of any order of summation is relative
    to."""
    m, q, n = cls.m, cls.affine(grid.points), grid.n_nodes
    blocks = {}
    for keys, A in ((((1, 0), (0, 1)), grid.gradient_operator),
                    (((2, 0), (1, 1), (0, 2)), grid.hessian_operator)):
        for k, key in enumerate(keys):
            blocks[key] = A[k * n : (k + 1) * n].copy()

    def divergence(D, U, p):
        d = {key: [D[key] @ U[c] for c in range(3)] for key in D}
        div = (2.0 * m * (p[0] * (d[(1, 0)][0] + d[(0, 1)][1])
                          + p[1] * (d[(1, 0)][1] + d[(0, 1)][2]))
               + q**m * (d[(2, 0)][0] + 2.0 * d[(1, 1)][1] + d[(0, 2)][2]))
        return div / q**m

    R = cls.scal_S / q - divergence(blocks, U, cls.p)
    # every term by its absolute value (q > 0); abs() of a CSR matrix sorts
    # and prunes its entries in place, so it is taken of the copies, leaving
    # the grid's operators as built
    absD = {key: abs(B) for key, B in blocks.items()}
    scale = abs(cls.scal_S) / q + divergence(absD, np.abs(U), np.abs(cls.p))
    return R, scale


def tensor_field(partials, order, n):
    """Symmetric derivative tensor field (n, 2, ..., 2) of the given order
    from partials {(a, b): array}; tensor index 0 is x, 1 is y."""
    T = np.empty((n,) + (2,) * order)
    for idx in np.ndindex(*(2,) * order):
        a = order - sum(idx)
        T[(slice(None),) + idx] = partials[(a, order - a)]
    return T


def oracle_curvature(u_value, center, cls=None, s=3.0 / 512.0):
    """Richardson-extrapolated curvature reference at an interior point."""
    coarse = _curvature_once(u_value, center, s, cls)
    fine = _curvature_once(u_value, center, s / 2, cls)
    return {k: (4.0 * fine[k] - coarse[k]) / 3.0 for k in coarse}


def agrees_to_sig(a, b, sig=3):
    """True when a matches b to `sig` significant digits (half-ulp rule)."""
    if b == 0:
        return abs(a) < 10.0 ** (1 - sig)
    import math

    expo = math.floor(math.log10(abs(b)))
    return abs(a - b) <= 0.5 * 10.0 ** (expo - sig + 1)
