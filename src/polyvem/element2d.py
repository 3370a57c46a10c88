"""Local virtual element operators on a single polygon.

Shape functions are never evaluated inside the cell: everything is driven
by their degrees of freedom (vertex values, Lobatto edge values, scaled
interior moments). The element exposes the energy and L2 projectors onto
polynomials, the projected stiffness with a choice of stabilizations and
the projected load; the interpolant is system.interpolate_global.
"""

import numpy as np
import scipy.linalg

from . import polybasis as pb


class DofLayout:
    """Counts of the local degrees of freedom: n_boundary dofs on the
    boundary (nodes, and in 3D the face moments), then n_moment scaled
    cell moments."""

    def __init__(self, n_boundary, n_moment):
        self.n_boundary = n_boundary
        self.n_moment = n_moment
        self.n_total = n_boundary + n_moment


def _refined_solve(lu, A, B):
    """Solve A X = B with one step of iterative refinement."""
    X = scipy.linalg.lu_solve(lu, B)
    X += scipy.linalg.lu_solve(lu, B - A @ X)
    return X


# The projector core below is shared by the 2D and 3D elements. An element
# supplies basis, geometry, H, Gt, d_mat, layout.n_total and its volume
# quadrature _qp, _qw; its last layout.n_moment dofs are the scaled cell
# moments, and its first len(_node_points) dofs the node values.

def _solve_projectors(el, B, bnd_mean_dof, bnd_mean_mono):
    """Set pi_nabla_star, pi_nabla and pi_zero of an element.

    B holds the boundary integrals of the monomials' normal derivatives
    against the dofs; the two boundary means fix the constants.
    """
    k = el.k
    n_total, nm = el.layout.n_total, el.layout.n_moment
    measure = el.geometry.measure
    # moments carry the exact volume term of the integration by parts
    lap = el.basis.laplacian_map()
    B[:, n_total - nm:] -= measure * lap[:, :nm]

    # a change to an H-orthonormal basis keeps the projector solves
    # well conditioned once the monomials become nearly dependent
    R = pb.orthonormal_change(el.H) if k >= 3 else None
    if R is None:
        Gc = el.Gt.copy()
        Gc[0] = bnd_mean_mono
        Bc = B.copy()
        Bc[0] = bnd_mean_dof
    else:
        Gc = R.T @ el.Gt @ R
        Gc[0] = R.T @ bnd_mean_mono
        Bc = R.T @ B
        Bc[0] = bnd_mean_dof
    lu = scipy.linalg.lu_factor(Gc)
    X = _refined_solve(lu, Gc, Bc)
    el.pi_nabla_star = R @ X if R is not None else X
    el.pi_nabla = el.d_mat @ el.pi_nabla_star

    if k == 1:
        el.pi_zero = el.pi_nabla_star
    else:
        M = el.H @ el.pi_nabla_star
        M[:nm] = 0.0
        M[np.arange(nm), n_total - nm + np.arange(nm)] = measure
        if R is None:
            lu_h = scipy.linalg.lu_factor(el.H)
            el.pi_zero = _refined_solve(lu_h, el.H, M)
        else:
            Z = R @ (R.T @ M)
            Z += R @ (R.T @ (M - el.H @ Z))
            el.pi_zero = Z


def _local_stiffness(el, S):
    """Projected stiffness plus the residual part stabilized by S."""
    K = el.pi_nabla_star.T @ el.Gt @ el.pi_nabla_star
    resid = np.eye(el.layout.n_total) - el.pi_nabla
    K += resid.T @ S @ resid
    return 0.5 * (K + K.T)


def _local_load(el, f):
    """Integrals of f against the load polynomials of the dofs."""
    if el.k == 1:
        C, nj = el.pi_zero, el.basis.n
    elif el.k == 2:
        nj = pb.n_poly(el.basis.dim, 1)
        H1 = el.H[:nj, :nj]
        C = np.linalg.solve(H1, el.H[:nj] @ el.pi_zero)
    else:
        # for k >= 3 the degree k-2 moments are stored dofs
        nj = nm = el.layout.n_moment
        C = np.zeros((nm, el.layout.n_total))
        C[:, -nm:] = el.geometry.measure * np.linalg.inv(el.H[:nm, :nm])
    fvals = np.asarray(f(el._qp), dtype=float)
    mvec = (el.basis.eval(el._qp)[:, :nj].T * el._qw) @ fvals
    return C.T @ mvec


def _moments(el, func):
    """The scaled moments of func against the first layout.n_moment
    monomials of an element, on its volume quadrature."""
    fvals = np.asarray(func(el._qp), dtype=float)
    vals = el.basis.eval(el._qp)[:, :el.layout.n_moment]
    return (vals.T * el._qw) @ fvals / el.geometry.measure


class Element2D:
    """Degree-k virtual element on a star-shaped polygon, built from the
    polygon's record (mesh.polygon_geometry): its geometry, vertices and
    edge table."""

    def __init__(self, polygon, k):
        if k < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.k = k
        self.geometry = polygon
        self.basis = pb.ScaledMonomialBasis(2, k, polygon.centroid, polygon.h)
        nv = len(polygon.points)
        self.layout = DofLayout(nv * k, pb.n_poly(2, k - 2))

        # per segment p -> q: its local dofs p, the k-1 nodes from p to q, q
        ids = np.arange(nv)
        self._edge_dofs = np.column_stack(
            [ids, nv + (k - 1) * ids[:, None] + np.arange(k - 1),
             np.roll(ids, -1)])
        self._node_points = np.concatenate(
            [polygon.points, pb._segment_points(
                polygon.points, polygon.tangents, pb.edge_interior_nodes(k))])
        self._qp, self._qw = self.volume_quadrature(2 * k)
        self.H = pb.mass_matrix(self.basis, self._qp, self._qw)
        self.Gt = pb.stiffness_from_mass(self.basis, self.H)
        self._build_d_mat()
        self._build_projectors()

    # -- geometry ----------------------------------------------------------

    def volume_quadrature(self, degree):
        """A quadrature rule over the polygon, exact to the degree."""
        return pb.polygon_quadrature(self.geometry.points,
                                     self.geometry.star_center, degree)

    # -- dof matrix and projectors -----------------------------------------

    def _build_d_mat(self):
        nm = self.layout.n_moment
        area = self.geometry.measure
        self.d_mat = np.vstack([self.basis.eval(self._node_points),
                                self.H[:nm, :] / area])

    def _build_projectors(self):
        k, n, poly = self.k, self.basis.n, self.geometry
        nv, lengths, dofs = len(poly.points), poly.lengths, self._edge_dofs
        tg, wg = pb.gauss_legendre(k + 2)
        lag, _ = pb.edge_gauss_lagrange(k)
        # traces of the monomials, taken directly at the Gauss points of
        # every edge, as (nv, ng, n)
        pts = pb._segment_points(poly.points, poly.tangents, tg)
        traces = self.basis.eval(pts).reshape(nv, len(tg), n)

        # per edge, the integrals of the monomials against its Lagrange
        # basis, (nv, n, k+1); the normal derivative maps n_e . D turn
        # them into the edge's share of B
        W = lengths[:, None, None] * (traces.transpose(0, 2, 1)
                                      @ (wg[:, None] * lag))
        ND = np.tensordot(poly.normals, self.basis.derivative_maps(), 1)
        B = np.zeros((n, self.layout.n_total))
        np.add.at(B.T, dofs, (ND @ W).transpose(0, 2, 1))
        bnd_mean_dof = np.zeros(self.layout.n_total)
        np.add.at(bnd_mean_dof, dofs, lengths[:, None] * (wg @ lag))
        bnd_mean_mono = (lengths[:, None]
                         * (traces.transpose(0, 2, 1) @ wg)).sum(axis=0)
        bnd_mean_dof /= lengths.sum()
        bnd_mean_mono /= lengths.sum()
        _solve_projectors(self, B, bnd_mean_dof, bnd_mean_mono)

    # -- stabilization and stiffness ---------------------------------------

    def stabilization_matrix(self, kind):
        """Stabilizing inner product on the dofs.

        "s1" is the identity on boundary dofs. "s2" and "s2tilde" penalize
        the tangential derivative jump energy of the edge traces, weighted
        by the cell diameter and the edge length respectively.
        """
        n = self.layout.n_total
        S = np.zeros((n, n))
        if kind == "s1":
            idx = np.arange(self.layout.n_boundary)
            S[idx, idx] = 1.0
            return S
        if kind not in ("s2", "s2tilde"):
            raise ValueError(f"unknown stabilization {kind!r}")
        _, wg = pb.gauss_legendre(self.k + 2)
        _, dlag = pb.edge_gauss_lagrange(self.k)
        local = (dlag.T * wg) @ dlag
        lengths = self.geometry.lengths
        weight = (self.geometry.h / lengths if kind == "s2"
                  else np.ones(len(lengths)))
        dofs = self._edge_dofs
        np.add.at(S, (dofs[:, :, None], dofs[:, None, :]),
                  weight[:, None, None] * local)
        return S

    def local_stiffness(self, kind):
        """Projected stiffness plus the stabilized residual part."""
        return _local_stiffness(self, self.stabilization_matrix(kind))

    # -- load and norms ----------------------------------------------------

    def local_load(self, f):
        """Right hand side integrals of f against the projected dofs."""
        return _local_load(self, f)

    def seminorm_tbar(self, v):
        """Computable seminorm combining the projected interior part with
        scaled L2 norms of the edge trace projections."""
        k = self.k
        nm = self.layout.n_moment
        total = 0.0
        if nm:
            Hm = self.H[:nm, :nm]
            c = np.linalg.solve(Hm, self.geometry.measure * v[self.layout.n_boundary:])
            total += c @ Hm @ c
        tg, wg = pb.gauss_legendre(k + 2)
        lag, _ = pb.edge_gauss_lagrange(k)
        gram = 1.0 / (np.arange(k)[:, None] + np.arange(k)[None, :] + 1.0)
        powers = tg[:, None] ** np.arange(k)
        traces = (lag @ v[self._edge_dofs][:, :, None])[..., 0]
        r = powers.T @ (wg * traces)[:, :, None]
        edge_total = (self.geometry.lengths
                      * (r.transpose(0, 2, 1) @ np.linalg.solve(gram, r))
                      .ravel()).sum()
        total += self.geometry.h * edge_total
        return float(np.sqrt(total))
