"""Local virtual element operators on polygons, computed on stacks.

Shape functions are never evaluated inside the cell: everything is driven
by their degrees of freedom (vertex values, Lobatto edge values, scaled
interior moments). An element exposes the energy and L2 projectors onto
polynomials, the projected stiffness with a choice of stabilizations and
the projected load; the interpolant is system.interpolate_global.

Every matrix of a degree-k element has the same shape on every polygon
with the same vertex count, so the numbers are computed on stacks: a
PolygonStack holds the elements of such polygons with the polygons on a
leading axis, and an Element2D is a view of one polygon in its stack.
stack_elements groups elements by vertex count and cuts each group into
chunks of whole polygons of at most CHUNK_POINTS points of the error rule,
so the stacked temporaries stay small. A standalone Element2D is a stack
of one, built on first use. ElementStack holds what the polygons share
with the polyhedra (element3d): stiffness, load and moments.
"""

import functools

import numpy as np

from . import polybasis as pb

# the most points of the degree 2k + 4 error rule in one stack, about as
# many as one hexahedral cell with octagonal faces has at k = 2
CHUNK_POINTS = 6000


def _chunk_size(n_simplices, dim, degree):
    """How many whole elements with n_simplices simplices in their fans
    fit CHUNK_POINTS points of the degree rule; at least one."""
    per_element = n_simplices * len(pb.simplex_rule(dim, degree)[1])
    return max(1, CHUNK_POINTS // per_element)


class DofLayout:
    """Counts of the local degrees of freedom: n_boundary dofs on the
    boundary (nodes, and in 3D the face moments), then n_moment scaled
    cell moments."""

    def __init__(self, n_boundary, n_moment):
        self.n_boundary = n_boundary
        self.n_moment = n_moment
        self.n_total = n_boundary + n_moment


def _solve_projectors(st, B, bnd_mean_dof, bnd_mean_mono):
    """Set pi_nabla_star, pi_nabla and pi_zero of a stack of elements.

    The stack supplies k, layout, measure, basis, H, Gt and d_mat, with
    the elements on their first axis. B holds the boundary integrals of
    the monomials' normal derivatives against the dofs; the two boundary
    means fix the constants. Its last layout.n_moment dofs are the
    scaled cell moments.
    """
    n_total, nm = st.layout.n_total, st.layout.n_moment
    measure = st.measure[:, None, None]
    # moments carry the exact volume term of the integration by parts
    B[..., n_total - nm:] -= measure * st.basis.laplacian_map()[..., :nm]

    # a change to an H-orthonormal basis keeps the projector solves
    # well conditioned once the monomials become nearly dependent; each
    # solve takes one step of iterative refinement
    R = pb.orthonormal_change(st.H)
    Rt = np.swapaxes(R, -1, -2)
    Gc = Rt @ st.Gt @ R
    Gc[:, 0] = (Rt @ bnd_mean_mono[..., None])[..., 0]
    Bc = Rt @ B
    Bc[:, 0] = bnd_mean_dof
    X = np.linalg.solve(Gc, Bc)
    X += np.linalg.solve(Gc, Bc - Gc @ X)
    st.pi_nabla_star = R @ X
    st.pi_nabla = st.d_mat @ st.pi_nabla_star

    if st.k == 1:
        st.pi_zero = st.pi_nabla_star
        return
    M = st.H @ st.pi_nabla_star
    M[:, :nm] = 0.0
    rows = np.arange(nm)
    M[:, rows, n_total - nm + rows] = st.measure[:, None]
    Z = R @ (Rt @ M)
    Z += R @ (Rt @ (M - st.H @ Z))
    st.pi_zero = Z


class ElementStack:
    """Stiffness, load and moments of a stack of elements of one shape.

    A subclass supplies k, layout, measure (G,), a stacked basis, H, Gt,
    the projectors of _solve_projectors, the volume rule _qp, _qw of
    degree 2k, n_simplices (the simplices of each element's star fan),
    volume_quadrature(degree, part) and stabilization_matrix(kind);
    every array has the G elements on its first axis.
    """

    def parts(self, degree):
        """Slices of whole elements covering the stack, each with at most
        CHUNK_POINTS points of the degree rule."""
        size = _chunk_size(self.n_simplices, self.basis.dim, degree)
        return [slice(i, i + size) for i in range(0, len(self.measure), size)]

    def local_stiffness(self, kind):
        """Projected stiffness plus the stabilized residual part."""
        S = self.stabilization_matrix(kind)
        P = self.pi_nabla_star
        K = np.swapaxes(P, -1, -2) @ self.Gt @ P
        resid = np.eye(self.layout.n_total) - self.pi_nabla
        K += np.swapaxes(resid, -1, -2) @ S @ resid
        return 0.5 * (K + np.swapaxes(K, -1, -2))

    def local_load(self, f):
        """Integrals of f against the load polynomials of the dofs; f is
        called once, on the volume points of the whole stack."""
        if self.k <= 2:
            # the L2 projection onto P1, through H's P1 block
            degree, nj = 1, pb.n_poly(self.basis.dim, 1)
            C = np.linalg.solve(self.H[:, :nj, :nj],
                                self.H[:, :nj] @ self.pi_zero)
        else:
            # for k >= 3 the degree k-2 moments are stored dofs
            degree, nm = self.k - 2, self.layout.n_moment
            C = np.zeros((len(self.measure), nm, self.layout.n_total))
            C[..., -nm:] = (self.measure[:, None, None]
                            * np.linalg.inv(self.H[:, :nm, :nm]))
        qp = self._qp
        fvals = np.asarray(f(qp.reshape(-1, qp.shape[-1])), dtype=float)
        mvec = self._integrals(fvals.reshape(qp.shape[:-1]), degree)
        return (np.swapaxes(C, -1, -2) @ mvec[..., None])[..., 0]

    def moments(self, fvals):
        """The scaled moments against the first layout.n_moment monomials
        of functions with values fvals (G, npts) at the points _qp."""
        return (self._integrals(fvals, self.k - 2) / self.measure[:, None])

    def _integrals(self, fvals, degree):
        # the monomials up to the degree lead the basis in graded order,
        # and a basis of that degree gives their values bit for bit
        basis = pb.ScaledMonomialBasis(self.basis.dim, degree,
                                       self.basis.center, self.basis.scale)
        # the values times the weights, transposed, so that each element's
        # product has the layout (and rounding) of a single element's
        weighted = np.swapaxes(basis.eval(self._qp) * self._qw[..., None],
                               -1, -2)
        return (weighted @ fvals[..., None])[..., 0]


@functools.cache
def _polygon_dofs(nv, k):
    """The local dof layout of a degree-k polygon with nv vertices, and
    per segment p -> q its local dofs: p, the k-1 nodes from p to q, q."""
    ids = np.arange(nv)
    edge_dofs = np.column_stack(
        [ids, nv + (k - 1) * ids[:, None] + np.arange(k - 1),
         np.roll(ids, -1)])
    return DofLayout(nv * k, pb.n_poly(2, k - 2)), pb._read_only(edge_dofs)


class PolygonStack(ElementStack):
    """Degree-k elements of polygons with one vertex count, stacked.

    Built from the elements' records: their vertices, edge tables,
    diameters, areas, centroids and star points, stacked on a first axis.
    """

    def __init__(self, elements):
        first = elements[0]
        k = self.k = first.k
        self.layout, self.edge_dofs = first.layout, first._edge_dofs
        polys = [el.geometry for el in elements]
        self.points = np.array([p.points for p in polys])
        self.n_simplices = self.points.shape[1]
        self.tangents = np.array([p.tangents for p in polys])
        self.lengths = np.array([p.lengths for p in polys])
        self.normals = np.array([p.normals for p in polys])
        self.h = np.array([p.h for p in polys])
        self.measure = np.array([p.measure for p in polys])
        self.star_center = np.array([p.star_center for p in polys])
        self.basis = pb.ScaledMonomialBasis(
            2, k, np.array([p.centroid for p in polys]), self.h)

        self._node_points = np.concatenate(
            [self.points, pb._segment_points(
                self.points, self.tangents, pb.edge_interior_nodes(k))],
            axis=1)
        self._qp, self._qw = self.volume_quadrature(2 * k)
        self.H = pb.mass_matrix(self.basis, self._qp, self._qw)
        self.Gt = pb.stiffness_from_mass(self.basis, self.H)
        nm = self.layout.n_moment
        self.d_mat = np.concatenate(
            [self.basis.eval(self._node_points),
             self.H[:, :nm, :] / self.measure[:, None, None]], axis=1)
        self._build_projectors()
        for i, el in enumerate(elements):
            el._stack, el._index = self, i

    def volume_quadrature(self, degree, part=slice(None)):
        """A quadrature rule over each polygon of the part, exact to the
        degree."""
        return pb.polygon_quadrature(self.points[part],
                                     self.star_center[part], degree)

    def _build_projectors(self):
        k, n, N = self.k, self.basis.n, self.layout.n_total
        nv = self.points.shape[1]
        tg, wg = pb.gauss_legendre(k + 2)
        lag, _ = pb.edge_gauss_lagrange(k)
        # traces of the monomials, taken directly at the Gauss points of
        # every edge, as (G, nv, ng, n)
        pts = pb._segment_points(self.points, self.tangents, tg)
        traces = self.basis.eval(pts).reshape(-1, nv, len(tg), n)
        traces_t = np.swapaxes(traces, -1, -2)

        # per edge, the integrals of the monomials against its Lagrange
        # basis, (G, nv, n, k+1); the normal derivative maps n_e . D turn
        # them into the edge's share of B
        W = self.lengths[..., None, None] * (traces_t @ (wg[:, None] * lag))
        maps = self.basis.derivative_maps()[:, None]
        ND = (self.normals[..., 0, None, None] * maps[:, :, 0]
              + self.normals[..., 1, None, None] * maps[:, :, 1])
        # a vertex sums the ends of its two edges, in either order
        every, dofs = slice(None), self.edge_dofs
        B = np.zeros((len(self.h), n, N))
        np.add.at(B, (every, every, dofs), np.moveaxis(ND @ W, 1, 2))
        bnd_mean_dof = np.zeros((len(self.h), N))
        np.add.at(bnd_mean_dof, (every, dofs),
                  self.lengths[..., None] * (wg @ lag))
        perimeter = self.lengths.sum(axis=1)[:, None]
        bnd_mean_mono = (self.lengths[..., None]
                         * (traces_t @ wg)).sum(axis=1)
        _solve_projectors(self, B, bnd_mean_dof / perimeter,
                          bnd_mean_mono / perimeter)

    def stabilization_matrix(self, kind):
        """Stabilizing inner products on the dofs, (G, N, N).

        "s1" is the identity on boundary dofs. "s2" and "s2tilde" penalize
        the tangential derivative jump energy of the edge traces, weighted
        by the cell diameter and the edge length respectively.
        """
        N = self.layout.n_total
        S = np.zeros((len(self.h), N, N))
        if kind == "s1":
            idx = np.arange(self.layout.n_boundary)
            S[:, idx, idx] = 1.0
            return S
        if kind not in ("s2", "s2tilde"):
            raise ValueError(f"unknown stabilization {kind!r}")
        _, wg = pb.gauss_legendre(self.k + 2)
        _, dlag = pb.edge_gauss_lagrange(self.k)
        local = (dlag.T * wg) @ dlag
        weight = (self.h[:, None] / self.lengths if kind == "s2"
                  else np.ones_like(self.lengths))
        dofs = self.edge_dofs
        np.add.at(S, (slice(None), dofs[:, :, None], dofs[:, None, :]),
                  weight[..., None, None] * local)
        return S


def stack_elements(elements):
    """Compute the numbers of 2D elements in stacks.

    The elements are grouped by vertex count and degree, in order of
    first appearance, and each group is cut into chunks of whole
    polygons; every chunk becomes one PolygonStack.
    """
    groups = {}
    for el in elements:
        groups.setdefault((len(el.geometry.points), el.k), []).append(el)
    for (nv, k), members in groups.items():
        size = _chunk_size(nv, 2, 2 * k + 4)
        for i in range(0, len(members), size):
            PolygonStack(members[i:i + size])


class ElementView:
    """An element as a view of its slice of a stack (an ElementStack):
    the attributes named in _STACKED and its basis are read from the
    stack on first use, and an element first used without a stack
    becomes a stack of its own, of the subclass' _stack_class.
    """

    _STACKED = ("H", "Gt", "d_mat", "pi_nabla_star", "pi_nabla", "pi_zero",
                "_qp", "_qw", "_node_points")

    def __getattr__(self, name):
        # only reached for attributes not set yet: the stack and its slices
        if name in ("_stack", "_index"):
            self._stack_class([self])
            return self.__dict__[name]
        if name == "basis":
            st, i = self._stack, self._index
            value = pb.ScaledMonomialBasis(st.basis.dim, self.k,
                                           st.basis.center[i],
                                           st.basis.scale[i])
        elif name in self._STACKED:
            value = getattr(self._stack, name)[self._index]
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def local_load(self, f):
        """Right hand side integrals of f against the projected dofs."""
        return self._stack.local_load(f)[self._index]


class Element2D(ElementView):
    """Degree-k virtual element on a star-shaped polygon, built from the
    polygon's record (mesh.polygon_geometry): its geometry, vertices and
    edge table.

    The constructor only records the polygon; the numbers are its slice
    of a PolygonStack (stack_elements), a stack of its own when it is
    first used without one. Its stiffness, load and stabilization are
    computed for its whole stack, of which it returns its own.
    """

    _stack_class = PolygonStack

    def __init__(self, polygon, k):
        if k < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.k = k
        self.geometry = polygon
        self.layout, self._edge_dofs = _polygon_dofs(len(polygon.points), k)

    def stabilization_matrix(self, kind):
        """Stabilizing inner product on the dofs; see
        PolygonStack.stabilization_matrix."""
        return self._stack.stabilization_matrix(kind)[self._index]

    def local_stiffness(self, kind):
        """Projected stiffness plus the stabilized residual part."""
        return self._stack.local_stiffness(kind)[self._index]

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
