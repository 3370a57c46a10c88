"""Global dof numbering, assembly, and linear solvers.

Global dofs are ordered as all vertices, then the interior edge nodes
(edge by edge, oriented from the lower to the higher vertex id), then in
3D the face moments, then the cell moments. Homogeneous or interpolated
Dirichlet data is imposed by elimination: the assembled operator acts on
the free dofs and boundary values only shift the right hand side.
"""

import inspect

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import polybasis as pb
from .element2d import Element2D
from .element3d import Element3D, build_face_cache

DIRECT_SOLVER_LIMIT = 50_000


class NotConverged(Exception):
    """Raised when an iterative solve fails to reach the tolerance."""


class SolveInfo:
    """Outcome of a linear solve."""

    def __init__(self, method, converged, iterations, residual):
        self.method = method
        self.converged = converged
        self.iterations = iterations
        self.residual = residual


class GlobalDofMap:
    """Assigns global indices to the dofs of every cell."""

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        nv, ne = mesh.n_vertices, mesh.n_edges
        self._edge_offset = nv
        self._face_offset = nv + ne * (k - 1)
        if mesh.dim == 2:
            self._n_face_moments = 0
            self._cell_moment_size = pb.n_poly(2, k - 2)
        else:
            self._n_face_moments = pb.n_poly(2, k - 2)
            self._cell_moment_size = pb.n_poly(3, k - 2)
        self._cell_offset = (self._face_offset
                             + getattr(mesh, "n_faces", 0) * self._n_face_moments)
        self.n_total = (self._cell_offset
                        + mesh.n_cells * self._cell_moment_size)

        self.boundary = np.zeros(self.n_total, dtype=bool)
        self.boundary[:nv] = mesh.boundary_vertices
        if k > 1:
            nodes = np.repeat(mesh.boundary_edges, k - 1)
            self.boundary[self._edge_offset:self._edge_offset + len(nodes)] = nodes
        if self._n_face_moments:
            mom = np.repeat(mesh.boundary_faces, self._n_face_moments)
            self.boundary[self._face_offset:self._face_offset + len(mom)] = mom
        self.free = np.flatnonzero(~self.boundary)
        self.fixed = np.flatnonzero(self.boundary)

        self._cell_dofs = [self._build_cell_dofs(i)
                           for i in range(mesh.n_cells)]

    def edge_dofs(self, eid):
        """Global dofs of an edge trace: both vertices and the interior
        nodes, ordered from the lower vertex id to the higher."""
        lo, hi = self.mesh.edges[eid]
        base = self._edge_offset + eid * (self.k - 1)
        return np.concatenate([[lo], np.arange(base, base + self.k - 1),
                               [hi]]).astype(int)

    def cell_dofs(self, i):
        """Global dofs of cell i in the element's local order."""
        return self._cell_dofs[i]

    def _build_cell_dofs(self, i):
        mesh, k = self.mesh, self.k
        if mesh.dim == 2:
            loop = mesh.cells[i]
            idx = list(loop)
            for (a, b), eid in zip(zip(loop, loop[1:] + loop[:1]),
                                   mesh.cell_edge_ids[i]):
                base = self._edge_offset + eid * (k - 1)
                nodes = range(base, base + k - 1)
                idx.extend(nodes if a < b else reversed(nodes))
        else:
            idx = list(mesh.cell_vertex_ids(i))
            for eid in mesh.cell_edge_ids[i]:
                base = self._edge_offset + eid * (k - 1)
                idx.extend(range(base, base + k - 1))
            for fid, _ in mesh.cells[i]:
                base = self._face_offset + fid * self._n_face_moments
                idx.extend(range(base, base + self._n_face_moments))
        base = self._cell_offset + i * self._cell_moment_size
        idx.extend(range(base, base + self._cell_moment_size))
        return np.array(idx, dtype=int)


def build_elements(mesh, k, cache=None):
    """The local element of every cell, sharing one face cache in 3D."""
    if mesh.dim == 2:
        return [Element2D(mesh.cell_points(i), k)
                for i in range(mesh.n_cells)]
    if cache is None:
        cache = build_face_cache(mesh, k)
    return [Element3D(mesh, i, k, cache) for i in range(mesh.n_cells)]


class GlobalSystem:
    """Assembled stiffness and load with Dirichlet elimination applied."""

    def __init__(self, mesh, k, stabilization, dofmap, elements,
                 A_full, b_full):
        self.mesh = mesh
        self.k = k
        self.stabilization = stabilization
        self.dofmap = dofmap
        self.elements = elements
        self.A_full = A_full
        free = dofmap.free
        self.A = A_full[free][:, free].tocsr()
        self._b_free = b_full[free]
        self.b = self._b_free.copy()
        self.x_fixed = np.zeros(dofmap.n_total)

    def apply_boundary_values(self, values):
        """Impose Dirichlet data from a full-length dof vector."""
        values = np.asarray(values, dtype=float)
        fixed = self.dofmap.fixed
        self.x_fixed = np.zeros(self.dofmap.n_total)
        self.x_fixed[fixed] = values[fixed]
        lift = self.A_full[self.dofmap.free][:, fixed] @ values[fixed]
        self.b = self._b_free - lift

    def solve(self, method="auto", tol=1e-12, maxiter=None):
        """Solve for the free dofs; returns the full dof vector."""
        x_free, info = solve_linear(self.A, self.b, method=method,
                                    tol=tol, maxiter=maxiter)
        x = self.x_fixed.copy()
        x[self.dofmap.free] = x_free
        return x, info


def assemble(mesh, k, stabilization=None, f=None, boundary_values=None):
    """Assemble the global system on a mesh.

    The stabilization defaults to "s2" on polygonal meshes and to the
    face-wise form on polyhedral ones. When f is given the projected load
    is assembled as well; boundary_values (a full dof vector) imposes
    inhomogeneous Dirichlet data by elimination.
    """
    if stabilization is None:
        stabilization = "s2" if mesh.dim == 2 else "3d"
    if mesh.dim == 3 and stabilization != "3d":
        raise ValueError("polyhedral meshes support only the "
                         "face-wise stabilization")
    dofmap = GlobalDofMap(mesh, k)
    elements = build_elements(mesh, k)

    rows, cols, vals = [], [], []
    b_full = np.zeros(dofmap.n_total)
    for i, el in enumerate(elements):
        idx = dofmap.cell_dofs(i)
        K = (el.local_stiffness(stabilization) if mesh.dim == 2
             else el.local_stiffness())
        n = len(idx)
        rows.append(np.repeat(idx, n))
        cols.append(np.tile(idx, n))
        vals.append(K.ravel())
        if f is not None:
            b_full[idx] += el.local_load(f)
    A_full = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.n_total, dofmap.n_total)).tocsr()

    system = GlobalSystem(mesh, k, stabilization, dofmap, elements,
                          A_full, b_full)
    if boundary_values is not None:
        system.apply_boundary_values(boundary_values)
    return system


_CG_TOL_KEY = ("rtol" if "rtol"
               in inspect.signature(scipy.sparse.linalg.cg).parameters
               else "tol")


def solve_linear(A, b, method="auto", tol=1e-12, maxiter=None):
    """Solve A x = b directly or by Jacobi-preconditioned CG.

    "auto" uses the sparse direct factorization up to
    DIRECT_SOLVER_LIMIT unknowns and CG beyond it.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros(0), SolveInfo("direct", True, 0, 0.0)
    if method == "auto":
        method = "direct" if n <= DIRECT_SOLVER_LIMIT else "cg"
    b = np.asarray(b, dtype=float)
    bnorm = max(float(np.linalg.norm(b)), np.finfo(float).tiny)

    if method == "direct":
        x = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(A)).solve(b)
        residual = float(np.linalg.norm(A @ x - b)) / bnorm
        converged = bool(np.isfinite(residual) and residual <= 1e-8)
        if not converged:
            raise NotConverged(
                f"direct solve left relative residual {residual:.3e}")
        return x, SolveInfo("direct", True, 0, residual)

    if method != "cg":
        raise ValueError(f"unknown solver method {method!r}")
    diag = A.diagonal()
    precond = scipy.sparse.diags(np.where(diag > 0, 1.0 / diag, 1.0))
    count = 0

    def tick(_):
        nonlocal count
        count += 1

    x, code = scipy.sparse.linalg.cg(
        A, b, M=precond, maxiter=maxiter, callback=tick,
        **{_CG_TOL_KEY: tol})
    residual = float(np.linalg.norm(A @ x - b)) / bnorm
    if code != 0:
        raise NotConverged(
            f"cg stopped after {count} iterations with relative "
            f"residual {residual:.3e}")
    return x, SolveInfo("cg", True, count, residual)


def interpolate_global(mesh, k, func, elements=None, dofmap=None):
    """Dof vector interpolating a function given pointwise."""
    if dofmap is None:
        dofmap = GlobalDofMap(mesh, k)
    if elements is None:
        elements = build_elements(mesh, k)
    x = np.zeros(dofmap.n_total)
    for i, el in enumerate(elements):
        x[dofmap.cell_dofs(i)] = el.interpolate(func)
    return x
