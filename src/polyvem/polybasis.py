"""Scaled monomial bases and exact quadrature on edges, polygons, and cells.

The basis functions are m_alpha(x) = ((x - center)/scale)^alpha in graded
ordering, so every matrix in this module is indexed consistently with
multi_indices. Quadrature rules are built from Gauss rules on a reference
simplex and mapped affinely onto a fan sub-triangulation. The reference
rules are cached per argument and returned as read-only arrays, so every
element shares one copy and none can alter it for the others.
"""

import functools
import math

import numpy as np
import scipy.linalg


def multi_indices(dim, degree):
    """Exponent tuples of all monomials up to the given total degree.

    Ordered by total degree, then by descending leading exponents, so the
    first n_poly(dim, j) entries are exactly the degree-j list.
    """
    out = []

    def fill(prefix, remaining_dims, budget):
        if remaining_dims == 1:
            out.append(prefix + (budget,))
            return
        for a in range(budget, -1, -1):
            fill(prefix + (a,), remaining_dims - 1, budget - a)

    for d in range(degree + 1):
        fill((), dim, d)
    return np.array(out, dtype=int)


def n_poly(dim, degree):
    """Dimension of the polynomial space of the given total degree."""
    if degree < 0:
        return 0
    return math.comb(degree + dim, dim)


class ScaledMonomialBasis:
    """Monomials ((x - center)/scale)^alpha up to a total degree."""

    def __init__(self, dim, degree, center, scale):
        self.dim = dim
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.indices = multi_indices(dim, degree)
        self.n = len(self.indices)

    def eval(self, pts):
        """Values at pts (npts, dim), returned as (npts, n)."""
        rel = (np.atleast_2d(pts) - self.center) / self.scale
        # rel[:, d] ** indices[:, d], multiplied over d
        vals = np.ones((len(rel), self.n))
        for d in range(self.dim):
            vals *= rel[:, d, None] ** self.indices[None, :, d]
        return vals

    def grad(self, pts):
        """Gradients at pts, returned as (npts, n, dim)."""
        rel = (np.atleast_2d(pts) - self.center) / self.scale
        grads = np.empty((len(rel), self.n, self.dim))
        for d in range(self.dim):
            part = np.full((len(rel), self.n), 1.0 / self.scale)
            for e in range(self.dim):
                a = self.indices[:, e]
                if e == d:
                    lowered = np.where(a > 0, a - 1, 0)
                    part *= a * rel[:, e, None] ** lowered[None, :]
                else:
                    part *= rel[:, e, None] ** a[None, :]
            grads[:, :, d] = part
        return grads

    def derivative_maps(self):
        """Matrices D_d with d/dx_d m_alpha = sum_beta D_d[alpha, beta] m_beta."""
        index_of = {tuple(a): i for i, a in enumerate(self.indices)}
        maps = []
        for d in range(self.dim):
            D = np.zeros((self.n, self.n))
            for i, alpha in enumerate(self.indices):
                if alpha[d] == 0:
                    continue
                lowered = tuple(a - 1 if e == d else a
                                for e, a in enumerate(alpha))
                D[i, index_of[lowered]] = alpha[d] / self.scale
            maps.append(D)
        return maps

    def laplacian_map(self):
        """Matrix L with laplacian(m_alpha) = sum_beta L[alpha, beta] m_beta."""
        maps = self.derivative_maps()
        L = np.zeros((self.n, self.n))
        for D in maps:
            L += D @ D
        return L


# ---------------------------------------------------------------------------
# 1D rules and nodes


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def gauss_legendre(n):
    """n-point Gauss rule on [0, 1]; weights sum to 1. Cached, read-only."""
    t, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (t + 1.0), 0.5 * w)


def gauss_lobatto(n):
    """n Gauss-Lobatto nodes on [0, 1] including both endpoints."""
    if n < 2:
        raise ValueError("Lobatto rules need at least 2 nodes")
    if n == 2:
        return np.array([0.0, 1.0])
    # interior nodes are the extrema of the Legendre polynomial P_{n-1}
    leg = np.zeros(n)
    leg[n - 1] = 1.0
    interior = np.sort(np.polynomial.legendre.Legendre(leg).deriv().roots())
    return np.concatenate([[0.0], 0.5 * (interior + 1.0), [1.0]])


def edge_interior_nodes(k):
    """The k-1 interior Lobatto nodes of a degree-k edge, on [0, 1]."""
    return gauss_lobatto(k + 1)[1:-1]


# ---------------------------------------------------------------------------
# simplex rules


@functools.cache
def triangle_rule(degree):
    """Quadrature on the triangle (0,0),(1,0),(0,1), exact to the degree.

    Tensor Gauss under the Duffy substitution x=u, y=v(1-u); the extra
    factor (1-u) raises the u-degree by one, covered by the point count.
    Cached, read-only.
    """
    n = degree // 2 + 2
    t, w = gauss_legendre(n)
    U, V = np.meshgrid(t, t, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    wt = (WU * WV * (1.0 - U)).ravel()
    return _read_only(np.column_stack([x, y]), wt)


@functools.cache
def tetrahedron_rule(degree):
    """Quadrature on the unit tetrahedron, exact to the degree. Cached,
    read-only."""
    n = degree // 2 + 2
    t, w = gauss_legendre(n)
    U, V, W = np.meshgrid(t, t, t, indexing="ij")
    WU, WV, WW = np.meshgrid(w, w, w, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    z = (W * (1.0 - U) * (1.0 - V)).ravel()
    wt = (WU * WV * WW * (1.0 - U) ** 2 * (1.0 - V)).ravel()
    return _read_only(np.column_stack([x, y, z]), wt)


def polygon_quadrature(points, star_center, degree):
    """Fan quadrature over a polygon star-shaped about star_center."""
    points = np.asarray(points, dtype=float)
    c = np.asarray(star_center, dtype=float)
    tp, tw = triangle_rule(degree)
    qp, qw = [], []
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        jac = (a[0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (a[1] - c[1])
        if jac == 0.0:
            continue
        qp.append(c + tp @ np.array([a - c, b - c]))
        qw.append(tw * jac)
    return np.concatenate(qp), np.concatenate(qw)


# ---------------------------------------------------------------------------
# Gram matrices


def mass_matrix(basis, qp, qw):
    """H with H[a, b] = integral of m_a m_b, from a quadrature rule."""
    vals = basis.eval(qp)
    H = (vals.T * qw) @ vals
    return 0.5 * (H + H.T)


def stiffness_from_mass(basis, H):
    """Gt with Gt[a, b] = integral of grad m_a . grad m_b, exactly from H."""
    Gt = np.zeros_like(H)
    for D in basis.derivative_maps():
        Gt += D @ H @ D.T
    return 0.5 * (Gt + Gt.T)


# ---------------------------------------------------------------------------
# edge traces


def edge_trace_matrix(basis, p0, p1):
    """Coefficients (in powers of t on [0,1]) of each m_alpha along the edge."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    # each scaled coordinate restricts to the linear a_d + t b_d
    a = (p0 - basis.center) / basis.scale
    b = (p1 - p0) / basis.scale
    k = basis.degree
    T = np.zeros((basis.n, k + 1))
    # precompute powers of each coordinate's linear as 1D polynomials
    coord_pows = []
    for d in range(len(a)):
        pows = [np.array([1.0])]
        for _ in range(k):
            pows.append(np.polynomial.polynomial.polymul(
                pows[-1], np.array([a[d], b[d]])))
        coord_pows.append(pows)
    for i, alpha in enumerate(basis.indices):
        poly = np.array([1.0])
        for d, e in enumerate(alpha):
            poly = np.polynomial.polynomial.polymul(poly, coord_pows[d][e])
        T[i, : len(poly)] = poly
    return T


def normal_derivative_trace_matrix(basis, p0, p1, normal):
    """Coefficients (powers of t) of n . grad m_alpha along the edge.

    The result has degree k-1, returned with max(k, 1) columns.
    """
    T = edge_trace_matrix(basis, p0, p1)
    M = np.zeros((basis.n, basis.n))
    for d, D in enumerate(basis.derivative_maps()):
        M += normal[d] * D
    full = M @ T
    cols = max(basis.degree, 1)
    return full[:, :cols]


def lagrange_matrix(nodes, ts, deriv=False):
    """Values (or derivatives) of the Lagrange basis on nodes, at points ts.

    Returns a matrix of shape (len(ts), len(nodes)).
    """
    nodes = np.asarray(nodes, dtype=float)
    ts = np.asarray(ts, dtype=float)
    m = len(nodes)
    out = np.empty((len(ts), m))
    for i in range(m):
        others = np.delete(nodes, i)
        denom = np.prod(nodes[i] - others)
        if not deriv:
            num = np.prod(ts[:, None] - others[None, :], axis=1)
            out[:, i] = num / denom
        else:
            acc = np.zeros(len(ts))
            for j in range(m - 1):
                rest = np.delete(others, j)
                acc += np.prod(ts[:, None] - rest[None, :], axis=1)
            out[:, i] = acc / denom
    return out


def orthonormal_change(H):
    """Upper-triangular R with positive diagonal and R^T H R = I.

    Applying R as a change of basis turns the monomials into an H-orthonormal
    family, which keeps projector solves well conditioned on stretched cells.
    """
    L = scipy.linalg.cholesky(H, lower=True)
    Linv = scipy.linalg.solve_triangular(L, np.eye(len(H)), lower=True)
    return Linv.T
