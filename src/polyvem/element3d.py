"""Local virtual element operators on polyhedra, computed on stacks.

Every face carries a 2D virtual element, built once per mesh from the
face's polygon record in its isometric chart (mesh.face_chart); those face
elements supply the boundary integrals of the 3D projectors, so face traces
are never evaluated away from their dofs. The cell dofs are vertex values,
Lobatto edge values, face moments against the face's own scaled monomials,
and interior cell moments.

Cells of one face pattern (the vertex counts of their faces, in cell
order) have matrices of one shape, so, as for the polygons (element2d),
their numbers are computed on stacks: a PolyhedronStack holds such cells
on a leading axis, and an Element3D is a view of one cell in its stack.
stack_cells groups cells by face pattern and cuts each group into chunks
of whole cells of at most CHUNK_POINTS points of the degree 2k rule. A
standalone Element3D is a stack of one, built on first use.
"""

import functools
import operator

import numpy as np

from . import polybasis as pb
from .element2d import (DofLayout, ElementStack, ElementView, _chunk_size,
                        _solve_projectors)
from .mesh import CellGeometry, star_fan


def _gather(elements, name):
    """An attribute of each element's stack (a dotted name), at the
    element's index, stacked in the order of the elements."""
    get = operator.attrgetter(name)
    return np.array([get(el._stack)[el._index] for el in elements])


class PolyhedronStack(ElementStack):
    """Degree-k elements of polyhedra with one face pattern, stacked.

    Built from the cells' star fans (mesh.star_fan) and their faces'
    elements, whose numbers are read from the face stacks. face_dofs[lf]
    holds, per cell, the positions of its lf-th face's dofs among the
    cell's, in the face element's order.
    """

    def __init__(self, elements):
        first = elements[0]
        mesh, dofmap = first.mesh, first.dofmap
        k = self.k = first.k
        self.layout = first.layout
        cells = [el.cell_id for el in elements]
        geometry, self._fan, self._fan_jac = star_fan(mesh, cells)
        self.n_simplices = self._fan.shape[1]
        self.h, self.measure = geometry.h, geometry.measure
        self.centroid = geometry.centroid
        self.star_center = geometry.star_center
        self.basis = pb.ScaledMonomialBasis(3, k, self.centroid, self.h)

        dofs = np.array([dofmap.cell_dofs(i) for i in cells])
        # the cells' nodes lead their dofs, in global order
        n_nodes = np.count_nonzero(dofs[0] < len(dofmap.node_points))
        self._node_points = dofmap.node_points[dofs[:, :n_nodes]]
        records = np.array([mesh.cells[i] for i in cells])
        order = np.argsort(dofs, axis=1)
        self.face_dofs = [
            np.array([o[np.searchsorted(d, dofmap.face_dofs(fid), sorter=o)]
                      for d, o, fid in zip(dofs, order, column)])
            for column in records[..., 0].T]
        self._qp, self._qw = self.volume_quadrature(2 * k)
        self.H = pb.mass_matrix(self.basis, self._qp, self._qw)
        self.Gt = pb.stiffness_from_mass(self.basis, self.H)
        self._build_projectors(mesh, records,
                               list(zip(*(el._faces for el in elements))))
        for i, el in enumerate(elements):
            el._stack, el._index = self, i

    def volume_quadrature(self, degree, part=slice(None)):
        """A quadrature rule over each cell of the part, exact to the
        degree: the collapsed Gauss-Jacobi simplex rule mapped onto each
        tetrahedron of the cell's star fan, the fan its volume and
        centroid come from."""
        return pb._fan_quadrature(self.star_center[part], self._fan[part],
                                  self._fan_jac[part], degree)

    def _build_projectors(self, mesh, records, faces):
        """d_mat, then the projectors, from one pass per local face over
        the stack.

        Per face, T holds the integrals of the cell monomials against the
        face monomials on the face element's own quadrature; its first
        columns are the face moments of d_mat, and it carries the face's
        share of the boundary term B. The faces add up in cell order.
        """
        k, n, N = self.k, self.basis.n, self.layout.n_total
        nmf = pb.n_poly(2, k - 2)
        G = len(self.h)
        every = np.arange(G)[:, None]
        rows = [self.basis.eval(self._node_points)]
        B = np.zeros((G, n, N))
        bnd_mean_dof = np.zeros((G, N))
        bnd_mean_mono = np.zeros((G, n))
        total_area = np.zeros(G)
        maps = self.basis.derivative_maps()
        # per local face: its boundary dof count and the L2 form of its
        # moments, for the stabilization
        self._face_forms = []
        for lf, fels in enumerate(faces):
            frames = mesh.face_frames()[records[:, lf, 0]]
            normal = records[:, lf, 1, None] * frames.normal
            q2, w2 = _gather(fels, "_qp"), _gather(fels, "_qw")
            fbasis = pb.ScaledMonomialBasis(
                2, k, _gather(fels, "basis.center"),
                _gather(fels, "basis.scale"))
            vals3 = self.basis.eval(frames.to3d(q2))
            T = (np.swapaxes(vals3, -1, -2) * w2[:, None, :]) @ fbasis.eval(q2)
            area, hf = _gather(fels, "measure"), _gather(fels, "h")
            rows.append(np.swapaxes(T[..., :nmf], -1, -2)
                        / area[:, None, None])
            # n . D has one nonzero term per entry, so any order sums it
            ND = sum(normal[:, d, None, None] * maps[:, d] for d in range(3))
            idx = self.face_dofs[lf]
            Hf, pz = _gather(fels, "H"), _gather(fels, "pi_zero")
            B[every, :, idx] += np.swapaxes((ND @ T) @ pz, -1, -2)
            bnd_mean_dof[every, idx] += (Hf[:, :1] @ pz)[:, 0]
            bnd_mean_mono += T[..., 0]
            total_area += area
            self._face_forms.append(
                (fels[0].layout.n_boundary,
                 area[:, None, None] ** 2 * np.linalg.inv(Hf[:, :nmf, :nmf])
                 / hf[:, None, None] ** 2))
        rows.append(self.H[:, :self.layout.n_moment, :]
                    / self.measure[:, None, None])
        self.d_mat = np.concatenate(rows, axis=1)
        _solve_projectors(self, B, bnd_mean_dof / total_area[:, None],
                          bnd_mean_mono / total_area[:, None])

    def stabilization_matrix(self, kind="3d"):
        """Face-wise stabilizing inner products on the dofs, (G, N, N).

        Each face contributes the identity on its boundary nodes plus the
        L2 product of the face moment projections scaled by the inverse
        squared face diameter; nodes shared by several faces are counted
        once per face. Cell moments are left unstabilized.
        """
        if kind != "3d":
            raise ValueError(f"unknown stabilization {kind!r}")
        G, N = len(self.h), self.layout.n_total
        every = np.arange(G)[:, None, None]
        S = np.zeros((G, N, N))
        # a face's dofs are distinct, so each face adds once per entry
        for idx, (nbf, form) in zip(self.face_dofs, self._face_forms):
            nodes = idx[:, :nbf]
            S[every[..., 0], nodes, nodes] += 1.0
            mom = idx[:, nbf:]
            S[every, mom[:, :, None], mom[:, None, :]] += form
        return self.h[:, None, None] * S


def stack_cells(elements):
    """Compute the numbers of 3D elements in stacks.

    The cells are grouped by degree and face pattern, in order of first
    appearance (and by their vertex and dof counts, which a valid mesh
    fixes by the pattern), and each group is cut into chunks of whole
    cells; every chunk becomes one PolyhedronStack.
    """
    groups = {}
    for el in elements:
        cell = el.mesh.cells[el.cell_id]
        pattern = tuple(len(el.mesh.faces[fid]) for fid, _ in cell)
        key = (el.k, pattern, len(el.mesh.cell_vertex_ids(el.cell_id)),
               el.layout.n_total)
        groups.setdefault(key, []).append(el)
    for (k, pattern, _, _), members in groups.items():
        size = _chunk_size(sum(pattern), 3, 2 * k)
        for i in range(0, len(members), size):
            PolyhedronStack(members[i:i + size])


class Element3D(ElementView):
    """Degree-k virtual element on a star-shaped polyhedron.

    faces holds the 2D element of every mesh face, by face id, so that
    neighboring cells share them. Its local dofs are
    dofmap.cell_dofs(cell_id), in that order; a face's dofs sit at
    face_dofs[lf] within them, in its face element's order.

    The constructor only records the cell; the numbers are its slice of
    a PolyhedronStack (stack_cells), a stack of its own when it is first
    used without one.
    """

    _stack_class = PolyhedronStack
    _STACKED = ElementView._STACKED + ("_fan", "_fan_jac")

    def __init__(self, dofmap, cell_id, faces):
        k = self.k = dofmap.k
        self.mesh, self.dofmap, self.cell_id = dofmap.mesh, dofmap, cell_id
        n_moment = pb.n_poly(3, k - 2)
        self.layout = DofLayout(len(dofmap.cell_dofs(cell_id)) - n_moment,
                                n_moment)
        self._faces = [faces[fid] for fid, _ in self.mesh.cells[cell_id]]

    @functools.cached_property
    def geometry(self):
        """The cell's CellGeometry, from its star fan."""
        st, i = self._stack, self._index
        return CellGeometry(st.h[i], st.measure[i], st.centroid[i],
                            st.star_center[i])

    @functools.cached_property
    def face_dofs(self):
        """Per local face, the positions of its dofs among the cell's."""
        return [pos[self._index] for pos in self._stack.face_dofs]

    def stabilization_matrix(self):
        """Face-wise stabilizing inner product on the dofs; see
        PolyhedronStack.stabilization_matrix."""
        return self._stack.stabilization_matrix()[self._index]

    def local_stiffness(self):
        """Projected stiffness plus the stabilized residual part."""
        return self._stack.local_stiffness("3d")[self._index]
