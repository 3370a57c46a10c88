"""Local virtual element operators on a single polyhedron.

Every face carries a 2D virtual element built once in an isometric chart
of its plane; those face elements supply the boundary integrals of the 3D
projectors, so face traces are never evaluated away from their dofs. The
cell dofs are vertex values, Lobatto edge values, face moments against the
face's own scaled monomials, and interior cell moments.
"""

import numpy as np

from . import polybasis as pb
from .element2d import (Element2D, _interpolate, _local_load,
                        _local_stiffness, _solve_projectors)
from .mesh import cell_geometry


class FaceData:
    """A mesh face with its chart and its 2D virtual element."""

    def __init__(self, face_id, frame, element):
        self.face_id = face_id
        self.frame = frame
        self.element = element


def build_face_cache(mesh, k):
    """The FaceData of every mesh face, indexable by face id.

    Building the cache once per mesh lets neighboring cells share the
    same face elements and face moment functionals.
    """
    cache = []
    for fid in range(mesh.n_faces):
        frame, _ = mesh.face_chart(fid)
        pts2 = frame.to2d(mesh.face_points(fid))
        cache.append(FaceData(fid, frame, Element2D(pts2, k)))
    return cache


class CellDofLayout3:
    """Dof bookkeeping of one polyhedral cell.

    Order: cell vertices by global id, then per cell edge (by global edge
    id) the k-1 interior nodes oriented from the lower to the higher
    vertex id, then per face (in the cell's face order) the face moments,
    then the cell moments.
    """

    def __init__(self, mesh, cell_id, k):
        self.k = k
        self.vertex_ids = mesh.cell_vertex_ids(cell_id)
        self.edge_ids = mesh.cell_edge_ids[cell_id]
        self.face_ids = [fid for fid, _ in mesh.cells[cell_id]]
        nmf = pb.n_poly(2, k - 2)
        self.n_boundary = len(self.vertex_ids) + len(self.edge_ids) * (k - 1)
        self.n_face_moments = len(self.face_ids) * nmf
        self.n_cell_moments = pb.n_poly(3, k - 2)
        self.n_total = (self.n_boundary + self.n_face_moments
                        + self.n_cell_moments)

        self._vertex_pos = {v: i for i, v in enumerate(self.vertex_ids)}
        self._edge_pos = {e: i for i, e in enumerate(self.edge_ids)}
        self._faces = []
        for lf, fid in enumerate(self.face_ids):
            loop = mesh.faces[fid]
            idx = [self._vertex_pos[v] for v in loop]
            nv = len(self.vertex_ids)
            for a, b in zip(loop, loop[1:] + loop[:1]):
                lo, hi = (a, b) if a < b else (b, a)
                eid = mesh.edge_lookup[(lo, hi)]
                base = nv + self._edge_pos[eid] * (k - 1)
                nodes = range(base, base + k - 1)
                idx.extend(nodes if a == lo else reversed(nodes))
            start = self.n_boundary + lf * nmf
            idx.extend(range(start, start + nmf))
            self._faces.append(np.array(idx, dtype=int))

    def face_dof_indices(self, local_face):
        """Cell dof indices forming the face element's dof vector."""
        return self._faces[local_face]


class Element3D:
    """Degree-k virtual element on a star-shaped polyhedron."""

    def __init__(self, mesh, cell_id, k, cache=None):
        if k < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.k = k
        self.mesh = mesh
        self.cell_id = cell_id
        if cache is None:
            cache = build_face_cache(mesh, k)
        self.layout = CellDofLayout3(mesh, cell_id, k)
        self._faces = [cache[fid] for fid in self.layout.face_ids]
        self._signs = [sign for _, sign in mesh.cells[cell_id]]
        self.geometry = cell_geometry(mesh, cell_id)
        self.basis = pb.ScaledMonomialBasis(
            3, k, self.geometry.centroid, self.geometry.h)

        self._build_nodes()
        self._qp, self._qw = self.volume_quadrature(2 * k)
        self.H = pb.mass_matrix(self.basis, self._qp, self._qw)
        self.Gt = pb.stiffness_from_mass(self.basis, self.H)
        self._build_projectors()

    # -- geometry ------------------------------------------------------------

    def _build_nodes(self):
        verts = self.mesh.vertices
        pts = [verts[self.layout.vertex_ids]]
        if self.k > 1:
            ts = pb.edge_interior_nodes(self.k)
            for eid in self.layout.edge_ids:
                lo, hi = sorted(self.mesh.edges[eid])
                pts.append(verts[lo] + ts[:, None] * (verts[hi] - verts[lo]))
        self._node_points = np.concatenate(pts)

    def volume_quadrature(self, degree):
        """A quadrature rule over the cell, exact to the degree.

        The Duffy rule is mapped onto each tetrahedron of the cell's star
        fan, the same fan its volume and centroid come from.
        """
        star = self.geometry.star_center
        tets, _ = self.mesh._fan_tetrahedra(self.cell_id, star)
        E = tets[:, 1:] - star
        det = np.abs(np.linalg.det(E))
        keep = det != 0.0
        tp, tw = pb.tetrahedron_rule(degree)
        qp = star + tp @ E[keep]
        return qp.reshape(-1, 3), (det[keep, None] * tw).ravel()

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
        for lf, face in enumerate(self._faces):
            fel = face.element
            vals3 = self.basis.eval(face.frame.to3d(fel._qp))
            T = (vals3.T * fel._qw) @ fel.basis.eval(fel._qp)
            area = fel.geometry.measure
            rows.append(T[:, :nmf].T / area)
            normal = self._signs[lf] * face.frame.normal
            ND = sum(normal[d] * maps[d] for d in range(3))
            idx = lay.face_dof_indices(lf)
            B[:, idx] += (ND @ T) @ fel.pi_zero
            bnd_mean_dof[idx] += fel.H[0] @ fel.pi_zero
            bnd_mean_mono += T[:, 0]
            total_area += area
        rows.append(self.H[:lay.n_cell_moments, :] / self.geometry.measure)
        self.d_mat = np.vstack(rows)
        bnd_mean_dof /= total_area
        bnd_mean_mono /= total_area
        _solve_projectors(self, B, bnd_mean_dof, bnd_mean_mono,
                          lay.n_cell_moments)

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
        for lf, face in enumerate(self._faces):
            idx = lay.face_dof_indices(lf)
            nbf = face.element.layout.n_boundary
            nodes = idx[:nbf]
            S[nodes, nodes] += 1.0
            if nmf:
                hf = face.element.geometry.h
                area = face.element.geometry.measure
                HjF = face.element.H[:nmf, :nmf]
                form = area ** 2 * np.linalg.inv(HjF)
                mom = idx[nbf:]
                S[np.ix_(mom, mom)] += form / hf ** 2
        return self.geometry.h * S

    def local_stiffness(self):
        """Projected stiffness plus the stabilized residual part."""
        return _local_stiffness(self, self.stabilization_matrix())

    # -- load and interpolation -------------------------------------------------

    def local_load(self, f):
        """Right hand side integrals of f against the projected dofs."""
        return _local_load(self, f, self.layout.n_cell_moments)

    def interpolate(self, func):
        """Dof vector of the interpolant of a function given pointwise."""
        lay = self.layout
        dofs = _interpolate(self, func, lay.n_cell_moments)
        for lf, face in enumerate(self._faces):
            frame = face.frame
            trace = lambda q2: func(frame.to3d(q2))
            dofs[lay.face_dof_indices(lf)] = face.element.interpolate(trace)
        return dofs
