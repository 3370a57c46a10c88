"""Global dof numbering, assembly, and linear solvers.

Global dofs are ordered as all vertices, then the interior edge nodes
(edge by edge, oriented from the lower to the higher vertex id), then the
moments of each polygon (the cells in 2D, the faces in 3D), then in 3D the
cell moments. Homogeneous or interpolated Dirichlet data is imposed by
elimination: the assembled operator acts on the free dofs and boundary
values only shift the right hand side.
"""

import inspect

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import polybasis as pb
from .element2d import Element2D, stack_elements
from .element3d import Element3D, stack_cells

DIRECT_SOLVER_LIMIT = 50_000


class NotConverged(Exception):
    """Raised when a linear solve fails or misses its tolerance."""


class SolveInfo:
    """Outcome of a linear solve."""

    def __init__(self, method, converged, iterations, residual):
        self.method = method
        self.converged = converged
        self.iterations = iterations
        self.residual = residual


class GlobalDofMap:
    """Assigns global indices to the dofs of every cell, and owns their
    local order.

    The polygons of a mesh are its cells in 2D and its faces in 3D. One
    walk numbers every polygon: its loop vertices, the k-1 nodes of each
    segment (oriented from the lower to the higher vertex id), then its
    moments. A 3D cell takes its faces' nodes in global order, then its
    face moments in the cell's face order, then its own moments.
    """

    def __init__(self, mesh, k):
        if k < 1:
            raise ValueError("polynomial degree must be at least 1")
        self.mesh = mesh
        self.k = k
        nv, ne = mesh.n_vertices, mesh.n_edges
        # in 2D a cell's moments are those of its polygon
        if mesh.dim == 2:
            loops, loop_edges = mesh.cells, mesh.cell_edge_ids
            boundary_loops, ncm = np.zeros(len(loops), dtype=bool), 0
        else:
            loops, loop_edges = mesh.faces, mesh.face_edge_ids
            boundary_loops, ncm = mesh.boundary_faces, pb.n_poly(3, k - 2)
        npm = pb.n_poly(2, k - 2)
        moment_offset = nv + ne * (k - 1)
        cell_offset = moment_offset + len(loops) * npm
        self.n_total = cell_offset + mesh.n_cells * ncm
        # per edge: its lower vertex, its k-1 nodes, its higher vertex
        self.edge_dofs = np.column_stack(
            [mesh.edges[:, 0], nv + (k - 1) * np.arange(ne)[:, None]
             + np.arange(k - 1), mesh.edges[:, 1]])
        # the point of each node dof: the vertices, then each edge's nodes
        lo, hi = mesh.vertices[mesh.edges.T]
        self.node_points = np.concatenate(
            [mesh.vertices,
             pb._segment_points(lo, hi - lo, pb.edge_interior_nodes(k))])
        self._polygon_dofs = [
            self._walk(loop, eids, moment_offset + j * npm, npm)
            for j, (loop, eids) in enumerate(zip(loops, loop_edges))]
        if mesh.dim == 2:
            self._cell_dofs = self._polygon_dofs
        else:
            self._cell_dofs = [
                self._cell_dofs_3d(i, moment_offset, cell_offset + i * ncm,
                                   ncm)
                for i in range(mesh.n_cells)]

        self.boundary = np.concatenate(
            [mesh.boundary_vertices, np.repeat(mesh.boundary_edges, k - 1),
             np.repeat(boundary_loops, npm),
             np.zeros(mesh.n_cells * ncm, dtype=bool)])
        self.free = np.flatnonzero(~self.boundary)
        self.fixed = np.flatnonzero(self.boundary)

    def face_dofs(self, fid):
        """Global dofs of 3D face fid in its face element's local order."""
        return self._polygon_dofs[fid]

    def cell_dofs(self, i):
        """Global dofs of cell i in the element's local order."""
        return self._cell_dofs[i]

    def _walk(self, loop, edge_ids, start, n_moments):
        nodes = self.edge_dofs[edge_ids, 1:-1]
        backward = np.array(loop) > np.roll(loop, -1)
        nodes[backward] = nodes[backward, ::-1]
        return np.concatenate([loop, nodes.ravel(),
                               np.arange(start, start + n_moments)])

    def _cell_dofs_3d(self, i, moment_offset, start, n_moments):
        dofs = np.concatenate([self._polygon_dofs[fid]
                               for fid, _ in self.mesh.cells[i]])
        node = dofs < moment_offset
        return np.concatenate([np.unique(dofs[node]), dofs[~node],
                               np.arange(start, start + n_moments)])


def build_elements(dofmap):
    """The local element of every cell; in 3D the cells share one face
    element per mesh face, built on the face's chart. The numbers are
    computed in stacks: the polygons' (2D cells', 3D faces') by
    stack_elements, the 3D cells' by stack_cells."""
    mesh, k = dofmap.mesh, dofmap.k
    if mesh.dim == 2:
        cells = [Element2D(mesh.cell_record(i), k)
                 for i in range(mesh.n_cells)]
        stack_elements(cells)
        return cells
    faces = [Element2D(mesh.face_chart(fid)[1], k)
             for fid in range(mesh.n_faces)]
    stack_elements(faces)
    cells = [Element3D(dofmap, i, faces) for i in range(mesh.n_cells)]
    stack_cells(cells)
    return cells


def _stacks(elements):
    """The stacks behind a list of elements, in order of first use, each
    with the positions of its members in the list, in stack order. The
    list holds whole stacks, as build_elements returns them."""
    where = {}
    for i, el in enumerate(elements):
        where.setdefault(el._stack, {})[el._index] = i
    out = []
    for st, found in where.items():
        if len(found) != len(st.measure):
            raise ValueError("elements must hold every element of a stack")
        out.append((st, np.array([found[j] for j in range(len(found))])))
    return out


class GlobalSystem:
    """Assembled stiffness and load with Dirichlet elimination applied."""

    def __init__(self, mesh, k, dofmap, elements, A_full, b_full):
        self.mesh = mesh
        self.k = k
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

    def solve(self):
        """Solve for the free dofs; returns the full dof vector."""
        x_free, info = solve_linear(self.A, self.b)
        x = self.x_fixed.copy()
        x[self.dofmap.free] = x_free
        return x, info


def assemble(mesh, k, stabilization=None, f=None):
    """Assemble the global system on a mesh.

    The stabilization defaults to "s2" on polygonal meshes and to the
    face-wise form on polyhedral ones. When f is given the projected load
    is assembled as well. The boundary values are zero until
    GlobalSystem.apply_boundary_values imposes others.
    """
    if stabilization is None:
        stabilization = "s2" if mesh.dim == 2 else "3d"
    allowed = ("s1", "s2", "s2tilde") if mesh.dim == 2 else ("3d",)
    if stabilization not in allowed:
        raise ValueError(f"unknown stabilization {stabilization!r} on a "
                         f"{mesh.dim}D mesh; allowed: {', '.join(allowed)}")
    dofmap = GlobalDofMap(mesh, k)
    elements = build_elements(dofmap)

    # the COO entries and load entries of each cell sit at its offset in
    # cell order, so duplicates are summed in cell order
    sizes = np.array([len(dofmap.cell_dofs(i)) for i in range(mesh.n_cells)])
    offsets = np.concatenate([[0], np.cumsum(sizes ** 2)])
    rows, cols = np.empty((2, offsets[-1]), dtype=int)
    vals = np.empty(offsets[-1])
    load_offsets = np.concatenate([[0], np.cumsum(sizes)])
    load_dofs = np.empty(load_offsets[-1], dtype=int)
    loads = np.empty(load_offsets[-1])
    for st, cells in _stacks(elements):
        idx = np.array([dofmap.cell_dofs(i) for i in cells])
        n = idx.shape[1]
        at = offsets[cells, None] + np.arange(n * n)
        vals[at] = st.local_stiffness(stabilization).reshape(len(cells), -1)
        rows[at] = np.repeat(idx, n, axis=1)
        cols[at] = np.tile(idx, n)
        if f is not None:
            at = load_offsets[cells, None] + np.arange(n)
            load_dofs[at] = idx
            loads[at] = st.local_load(f)
    A_full = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(dofmap.n_total, dofmap.n_total)).tocsr()
    b_full = (np.bincount(load_dofs, loads, minlength=dofmap.n_total)
              if f is not None else np.zeros(dofmap.n_total))

    return GlobalSystem(mesh, k, dofmap, elements, A_full, b_full)


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
        try:
            lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(A))
        except RuntimeError as exc:  # SuperLU: an exactly singular factor
            raise NotConverged(f"direct solve failed: {exc}") from None
        x = lu.solve(b)
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


def interpolate_global(mesh, k, func, elements, dofmap):
    """Dof vector interpolating a function given pointwise.

    Each dof is filled once: every node value from one call on
    dofmap.node_points, then the moments of each polygon (the cells in
    2D, the faces through their charts in 3D) and in 3D of each cell,
    stack by stack. func is called once per polygon and cell, on its own
    volume points, so that each moment rounds as if computed alone.
    """
    x = np.empty(dofmap.n_total)
    x[:len(dofmap.node_points)] = func(dofmap.node_points)
    if k == 1:
        return x
    if mesh.dim == 3:
        faces = {fid: fel for el in elements for (fid, _), fel
                 in zip(mesh.cells[el.cell_id], el._faces)}
        fids = sorted(faces)
        for st, where in _stacks([faces[fid] for fid in fids]):
            frames = mesh.face_frames()[np.array(fids)[where]]
            values = np.array([func(q) for q in frames.to3d(st._qp)],
                              dtype=float)
            idx = np.array([dofmap.face_dofs(fids[j]) for j in where])
            x[idx[:, st.layout.n_boundary:]] = st.moments(values)
    for st, cells in _stacks(elements):
        values = np.array([func(q) for q in st._qp], dtype=float)
        idx = np.array([dofmap.cell_dofs(i) for i in cells])
        x[idx[:, st.layout.n_boundary:]] = st.moments(values)
    return x
