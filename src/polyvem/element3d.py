"""Local virtual element operators on a single polyhedron.

Every face carries a 2D virtual element, built once per mesh from the
face's polygon record in its isometric chart (mesh.face_chart); those face
elements supply the boundary integrals of the 3D projectors, so face traces
are never evaluated away from their dofs. The cell dofs are vertex values,
Lobatto edge values, face moments against the face's own scaled monomials,
and interior cell moments.
"""

import weakref

import numpy as np

from . import polybasis as pb
from .element2d import DofLayout, ElementStack, _solve_projectors
from .mesh import star_fan


class Element3D:
    """Degree-k virtual element on a star-shaped polyhedron.

    faces holds the 2D element of every mesh face, by face id, so that
    neighboring cells share them. Its local dofs are
    dofmap.cell_dofs(cell_id), in that order; a face's dofs sit at
    face_dofs[lf] within them, in its face element's order.
    """

    def __init__(self, dofmap, cell_id, faces):
        mesh, k = dofmap.mesh, dofmap.k
        self.k = k
        self.mesh = mesh
        self.cell_id = cell_id
        dofs = dofmap.cell_dofs(cell_id)
        n_moment = pb.n_poly(3, k - 2)
        self.layout = DofLayout(len(dofs) - n_moment, n_moment)
        order = np.argsort(dofs)
        self.face_dofs = [
            order[np.searchsorted(dofs, dofmap.face_dofs(fid), sorter=order)]
            for fid, _ in mesh.cells[cell_id]]
        self._faces = [faces[fid] for fid, _ in mesh.cells[cell_id]]
        self.geometry, self._fan, self._fan_jac = star_fan(mesh, cell_id)
        self.basis = pb.ScaledMonomialBasis(
            3, k, self.geometry.centroid, self.geometry.h)

        # the cell's nodes lead its dofs, in global order
        self._node_points = dofmap.node_points[
            dofs[dofs < len(dofmap.node_points)]]
        self._qp, self._qw = self.volume_quadrature(2 * k)
        self.H = pb.mass_matrix(self.basis, self._qp, self._qw)
        self.Gt = pb.stiffness_from_mass(self.basis, self.H)
        self._build_projectors()

    # -- geometry ------------------------------------------------------------

    def volume_quadrature(self, degree):
        """A quadrature rule over the cell, exact to the degree.

        The collapsed Gauss-Jacobi simplex rule is mapped onto each
        tetrahedron of the cell's star fan, the fan its volume and
        centroid come from, built once with the element.
        """
        return pb._fan_quadrature(self.geometry.star_center, self._fan,
                                  self._fan_jac, degree)

    # -- dof matrix and projectors --------------------------------------------

    def _build_projectors(self):
        """d_mat, then the projectors, from one pass over the faces.

        Per face, T holds the integrals of the cell monomials against the
        face monomials on the face element's own quadrature; its first
        columns are the face moments of d_mat, and it carries the face's
        share of the boundary term B.
        """
        lay = self.layout
        n = self.basis.n
        nmf = pb.n_poly(2, self.k - 2)

        rows = [self.basis.eval(self._node_points)]
        B = np.zeros((n, lay.n_total))
        bnd_mean_dof = np.zeros(lay.n_total)
        bnd_mean_mono = np.zeros(n)
        total_area = 0.0
        maps = self.basis.derivative_maps()
        for lf, (fid, sign) in enumerate(self.mesh.cells[self.cell_id]):
            fel, frame = self._faces[lf], self.mesh.face_chart(fid)[0]
            vals3 = self.basis.eval(frame.to3d(fel._qp))
            T = (vals3.T * fel._qw) @ fel.basis.eval(fel._qp)
            area = fel.geometry.measure
            rows.append(T[:, :nmf].T / area)
            ND = np.tensordot(sign * frame.normal, maps, 1)
            idx = self.face_dofs[lf]
            B[:, idx] += (ND @ T) @ fel.pi_zero
            bnd_mean_dof[idx] += fel.H[0] @ fel.pi_zero
            bnd_mean_mono += T[:, 0]
            total_area += area
        rows.append(self.H[:lay.n_moment, :] / self.geometry.measure)
        self.d_mat = np.vstack(rows)
        bnd_mean_dof /= total_area
        bnd_mean_mono /= total_area
        self._stack, self._index = CellStack(self), 0
        _solve_projectors(self._stack, B[None], bnd_mean_dof[None],
                          bnd_mean_mono[None])
        self.pi_nabla_star, self.pi_nabla, self.pi_zero = (
            self._stack.pi_nabla_star[0], self._stack.pi_nabla[0],
            self._stack.pi_zero[0])

    # -- stabilization and stiffness -------------------------------------------

    def stabilization_matrix(self):
        """Face-wise stabilizing inner product on the dofs.

        Each face contributes the identity on its boundary nodes plus the
        L2 product of the face moment projections scaled by the inverse
        squared face diameter; nodes shared by several faces are counted
        once per face. Cell moments are left unstabilized.
        """
        lay = self.layout
        S = np.zeros((lay.n_total, lay.n_total))
        nmf = pb.n_poly(2, self.k - 2)
        for idx, fel in zip(self.face_dofs, self._faces):
            nbf = fel.layout.n_boundary
            nodes = idx[:nbf]
            S[nodes, nodes] += 1.0
            if nmf:
                hf = fel.geometry.h
                area = fel.geometry.measure
                HjF = fel.H[:nmf, :nmf]
                form = area ** 2 * np.linalg.inv(HjF)
                mom = idx[nbf:]
                S[np.ix_(mom, mom)] += form / hf ** 2
        return self.geometry.h * S

    def local_stiffness(self):
        """Projected stiffness plus the stabilized residual part."""
        return self._stack.local_stiffness("3d")[0]

    # -- load -------------------------------------------------------------------

    def local_load(self, f):
        """Right hand side integrals of f against the projected dofs."""
        return self._stack.local_load(f)[0]


class CellStack(ElementStack):
    """One polyhedral element as a stack of one, so that it shares the
    projector core and the stacked stiffness, load and moments with the
    polygons."""

    def __init__(self, el):
        # a weak reference: the element holds its stack, and a cycle
        # would keep every level's arrays alive until the next collection
        self._element = weakref.ref(el)
        self.k, self.layout = el.k, el.layout
        self.measure = np.array([el.geometry.measure])
        self.basis = pb.ScaledMonomialBasis(3, el.k, el.basis.center[None],
                                            el.basis.scale[None])
        self.H, self.Gt, self.d_mat = el.H[None], el.Gt[None], el.d_mat[None]
        self._qp, self._qw = el._qp[None], el._qw[None]

    def volume_quadrature(self, degree):
        """The element's volume rule of the degree, as a stack of one."""
        qp, qw = self._element().volume_quadrature(degree)
        return qp[None], qw[None]

    def stabilization_matrix(self, kind):
        """The element's face-wise form, as a stack of one."""
        return self._element().stabilization_matrix()[None]
