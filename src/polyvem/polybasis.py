"""Scaled monomial bases and exact quadrature on edges, polygons, and cells.

The basis functions are m_alpha(x) = ((x - center)/scale)^alpha in graded
ordering, so every matrix in this module is indexed consistently with
multi_indices. A basis evaluates values only: the derivative of a
polynomial m . c is m . (D_d^T c), with the basis' derivative maps D_d
applied to its coefficients. Quadrature on a polygon or polyhedron maps
one collapsed Gauss-Jacobi rule of the reference simplex affinely onto
each simplex of a star fan. The reference rules are cached per argument
and returned as read-only arrays, so every element shares one copy and
none can alter it for the others.
"""

import functools
import math

import numpy as np
import scipy.special


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


@functools.cache
def _derivative_pattern(dim, degree):
    """Integer D_d with d/dx_d m_alpha = sum_beta D_d[alpha, beta] m_beta at
    unit scale, stacked as (dim, n, n). Cached, read-only."""
    indices = multi_indices(dim, degree)
    index_of = {tuple(a): i for i, a in enumerate(indices)}
    pattern = np.zeros((dim, len(indices), len(indices)), dtype=int)
    for i, alpha in enumerate(indices):
        for d in np.flatnonzero(alpha):
            lowered = tuple(alpha - (np.arange(dim) == d))
            pattern[d, i, index_of[lowered]] = alpha[d]
    return _read_only(pattern)


class ScaledMonomialBasis:
    """Monomials ((x - center)/scale)^alpha up to a total degree: their
    values, and their derivatives as matrices on the coefficients.

    One basis may stand for a stack of bases of one dim and degree:
    center (G, dim) and scale (G,). Then eval takes points (G, npts, dim)
    and every matrix carries the leading axis G.
    """

    def __init__(self, dim, degree, center, scale):
        self.dim = dim
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.indices = multi_indices(dim, degree)
        self.n = len(self.indices)
        self._maps = _read_only(_derivative_pattern(dim, degree)
                                / self.scale[..., None, None, None])
        # where each monomial's factor per dim sits in the power table
        offsets = (degree + 1) * np.arange(dim)[:, None]
        self._columns = self.indices.T + offsets

    def eval(self, pts):
        """Values at pts (npts, dim), returned as (npts, n); for a stack,
        at pts (G, npts, dim), returned as (G, npts, n)."""
        # P[..., d * (degree + 1) + j] = rel[..., d] ** j of the scaled
        # offsets rel, by running products: column j is column j - 1 times
        # rel, so it carries at most j - 1 roundings, within j ulps of pow
        # (which is slow on negative bases); columns 0 and 1 are exact
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None]
        rel = ((pts - self.center[..., None, :])
               / self.scale[..., None, None])
        P = np.empty(rel.shape + (self.degree + 1,))
        P[..., 0] = 1.0
        if self.degree >= 1:
            P[..., 1] = rel
        for j in range(2, self.degree + 1):
            np.multiply(P[..., j - 1], rel, out=P[..., j])
        P = P.reshape(rel.shape[:-1] + (-1,))
        # rel[..., d] ** indices[:, d], multiplied over d. np.take keeps
        # the result C-ordered (P[..., cols] would not), and BLAS products
        # of eval results (mass matrices) round differently by layout
        vals = np.take(P, self._columns[0], axis=-1)
        for d in range(1, self.dim):
            vals *= np.take(P, self._columns[d], axis=-1)
        return vals

    def derivative_maps(self):
        """Matrices D_d with d/dx_d m_alpha = sum_beta D_d[alpha, beta] m_beta,
        as (dim, n, n), or (G, dim, n, n) for a stack. Built once per
        basis, read-only."""
        return self._maps

    def laplacian_map(self):
        """Matrix L with laplacian(m_alpha) = sum_beta L[alpha, beta] m_beta."""
        maps = self.derivative_maps()
        L = np.zeros(maps.shape[:-3] + (self.n, self.n))
        for d in range(self.dim):
            L += maps[..., d, :, :] @ maps[..., d, :, :]
        return L


# ---------------------------------------------------------------------------
# 1D rules and nodes


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.cache
def gauss_legendre(n):
    """n-point Gauss rule on [0, 1]; weights sum to 1. Cached, read-only."""
    t, w = scipy.special.roots_legendre(n)
    return _read_only(0.5 * (t + 1.0)), _read_only(0.5 * w)


@functools.cache
def gauss_lobatto(n):
    """n Gauss-Lobatto nodes on [0, 1] including both endpoints. Cached,
    read-only."""
    if n < 2:
        raise ValueError("Lobatto rules need at least 2 nodes")
    # interior nodes are the extrema of the Legendre polynomial P_{n-1},
    # the roots of P'_{n-1}, a multiple of the Jacobi polynomial P^(1,1)_{n-2}
    interior = (scipy.special.roots_jacobi(n - 2, 1, 1)[0] if n > 2
                else np.empty(0))
    nodes = np.concatenate([[0.0], 0.5 * (interior + 1.0), [1.0]])
    return _read_only(nodes)


def edge_interior_nodes(k):
    """The k-1 interior Lobatto nodes of a degree-k edge, on [0, 1]."""
    return gauss_lobatto(k + 1)[1:-1]


# ---------------------------------------------------------------------------
# simplex rules


@functools.cache
def simplex_rule(dim, degree):
    """Quadrature on the unit simplex {x >= 0, x_0 + ... + x_{dim-1} <= 1},
    exact to the degree.

    Collapsed Gauss-Jacobi (Stroud's conical product rule): tensor points
    under the map x_d = t_d prod_{e<d} (1 - t_e), whose Jacobian
    prod_e (1 - t_e)^(dim-1-e) is the weight of the Gauss-Jacobi rule in
    direction e. degree // 2 + 1 points per direction are then exact to
    the degree, and every weight is positive. Cached, read-only.
    """
    n = degree // 2 + 1
    ts, ws = [], []
    for e in range(dim):
        # Jacobi weight (1 - x)^a on [-1, 1] is 2^(a+1) (1 - t)^a dt on [0, 1]
        z, w = scipy.special.roots_jacobi(n, dim - 1 - e, 0)
        ts.append(0.5 * (z + 1.0))
        ws.append(w * 2.0 ** -(dim - e))
    T = np.meshgrid(*ts, indexing="ij")
    W = np.meshgrid(*ws, indexing="ij")
    coords = []
    for d in range(dim):
        x = T[d]
        for e in range(d):
            x = x * (1.0 - T[e])
        coords.append(x.ravel())
    wt = W[0]
    for d in range(1, dim):
        wt = wt * W[d]
    return _read_only(np.column_stack(coords)), _read_only(wt.ravel())


def _fan_quadrature(apex, E, jac, degree):
    """The simplex rule mapped onto each simplex apex + E[i], whose other
    vertices are apex + E[i, j], with weights scaled by jac[i].

    For a stack of fans (apex (G, dim), E (G, ns, dim, dim), jac (G, ns))
    the points and weights come as (G, npts, dim) and (G, npts). A simplex
    with jac == 0 in every fan of the stack is skipped; where only some
    fans have it, its weights there are zero.
    """
    keep = np.any(jac != 0.0, axis=tuple(range(jac.ndim - 1)))
    tp, tw = simplex_rule(E.shape[-1], degree)
    qp = apex[..., None, None, :] + tp @ E[..., keep, :, :]
    shape = qp.shape[:-3] + (-1, E.shape[-1])
    return qp.reshape(shape), (jac[..., keep, None] * tw).reshape(shape[:-1])


def _segment_points(starts, steps, ts):
    """The points start + t * step of each segment at each t, segment by
    segment, as a (len(starts) * len(ts), dim) array; for stacked
    segments (G, ns, dim), as (G, ns * len(ts), dim)."""
    pts = starts[..., None, :] + ts[:, None] * steps[..., None, :]
    return pts.reshape(starts.shape[:-2] + (-1, starts.shape[-1]))


def polygon_quadrature(points, star_center, degree):
    """Fan quadrature over a polygon star-shaped about star_center, or
    over a stack of polygons with one vertex count: points (G, nv, 2) and
    star_center (G, 2)."""
    c = np.asarray(star_center, dtype=float)
    E = np.empty(np.shape(points)[:-1] + (2, 2))
    E[..., 0, :] = np.asarray(points, dtype=float) - c[..., None, :]
    E[..., :-1, 1, :] = E[..., 1:, 0, :]
    E[..., -1, 1, :] = E[..., 0, 0, :]
    jac = E[..., 0, 0] * E[..., 1, 1] - E[..., 1, 0] * E[..., 0, 1]
    return _fan_quadrature(c, E, jac, degree)


# ---------------------------------------------------------------------------
# Gram matrices


def mass_matrix(basis, qp, qw):
    """H with H[a, b] = integral of m_a m_b, from a quadrature rule; for a
    stacked basis, one H per rule of the stack."""
    vals = basis.eval(qp)
    H = np.swapaxes(vals * qw[..., None], -1, -2) @ vals
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def stiffness_from_mass(basis, H):
    """Gt with Gt[a, b] = integral of grad m_a . grad m_b, exactly from H."""
    maps = basis.derivative_maps()
    Gt = np.zeros_like(H)
    for d in range(basis.dim):
        D = maps[..., d, :, :]
        Gt += D @ H @ np.swapaxes(D, -1, -2)
    return 0.5 * (Gt + np.swapaxes(Gt, -1, -2))


# ---------------------------------------------------------------------------
# nodal edge traces


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


@functools.cache
def edge_gauss_lagrange(k):
    """Values and derivatives of the Lagrange basis on the k+1 Lobatto
    nodes of a degree-k edge, at its k+2 Gauss points. Cached, read-only."""
    nodes = gauss_lobatto(k + 1)
    tg, _ = gauss_legendre(k + 2)
    return (_read_only(lagrange_matrix(nodes, tg)),
            _read_only(lagrange_matrix(nodes, tg, deriv=True)))


def orthonormal_change(H):
    """Upper-triangular R with positive diagonal and R^T H R = I, for one
    H or a stack of them.

    Applying R as a change of basis turns the monomials into an H-orthonormal
    family, which keeps projector solves well conditioned on stretched cells.
    """
    return np.swapaxes(np.linalg.inv(np.linalg.cholesky(H)), -1, -2)
