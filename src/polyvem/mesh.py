"""Polygonal and polyhedral meshes of the unit square and cube.

Meshes are plain containers (vertex array plus cell connectivity) with
derived incidence data. Generators produce the benchmark families:
uniform grids, grids with one controllably short edge per segment,
checkerboard 2:1 nonconforming refinements, and randomly jittered grids.
"""

import json
import math
import operator
import re

import numpy as np
import scipy.optimize


class MeshError(Exception):
    """Raised when a mesh fails a structural or geometric check."""


class KernelEmpty(MeshError):
    """Raised when a polygon or cell has no interior star point."""


# ---------------------------------------------------------------------------
# polygon geometry


class CellGeometry:
    """Diameter, measure, centroid, and a star point of a single cell."""

    def __init__(self, h, measure, centroid, star_center):
        self.h = h
        self.measure = measure
        self.centroid = centroid
        self.star_center = star_center


class PolygonGeometry(CellGeometry):
    """The record of a polygon, a 2D cell or a 3D face in its chart: its
    CellGeometry, its vertices, and its edge table (per segment p -> q of
    the loop: the tangent q - p, its length and the outward unit normal).

    One record may stand for a stack of polygons with one vertex count,
    every field with the polygons on a first axis; record[i] is then the
    record of polygon i, its fields views of the stack's.
    """

    def __init__(self, points, edges, h, measure, centroid, star_center):
        super().__init__(h, measure, centroid, star_center)
        self.points = points
        self.tangents, self.lengths, self.normals = edges

    def __getitem__(self, i):
        return PolygonGeometry(
            self.points[i], (self.tangents[i], self.lengths[i],
                             self.normals[i]),
            self.h[i], self.measure[i], self.centroid[i], self.star_center[i])


def _dots(a, b):
    """Row-by-row dot products of (..., d) arrays, each one BLAS dot as
    for two vectors, which np.einsum and np.linalg.norm(axis=-1) do not
    round like."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _diameter(points):
    """The largest distance between two of the points (m, dim), or per
    set of a stack (G, m, dim)."""
    d = points[..., :, None, :] - points[..., None, :, :]
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", d, d).max(axis=(-2, -1)))


def _zero_edges(points):
    """Whether an edge of the loop (m, dim) has zero length, or one whose
    square underflows to zero; per loop for a stack (G, m, dim)."""
    tang = np.roll(points, -1, axis=-2) - points
    return ~np.all(np.einsum("...ij,...ij->...i", tang, tang) > 0.0, axis=-1)


def _edge_table(points):
    """Tangents q - p, lengths and unit outward normals of the segments
    p -> q of CCW polygon loops (..., m, 2)."""
    tang = np.roll(points, -1, axis=-2) - points
    lengths = np.sqrt(_dots(tang, tang))
    if not np.all(lengths > 0.0):
        raise MeshError("polygon has a zero-length edge")
    normals = (np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
               / lengths[..., None])
    return tang, lengths, normals


def _chebyshev_center(normals, anchors, dim):
    """Largest ball inside the intersection of half-spaces n.(x-a) <= 0."""
    c = np.zeros(dim + 1)
    c[dim] = -1.0
    A = np.column_stack([normals, np.ones(len(normals))])
    b = np.einsum("ij,ij->i", normals, anchors)
    res = scipy.optimize.linprog(
        c, A_ub=A, b_ub=b,
        bounds=[(None, None)] * dim + [(0.0, None)],
        method="highs")
    if not res.success:
        return None, 0.0
    return res.x[:dim], res.x[dim]


def _star_points(candidates, normals, anchors, h, names):
    """Per member g of a stack: its candidate point when that sees every
    facet n.(x-a) <= 0 of the member strictly from inside, otherwise the
    Chebyshev center of its kernel; only those members solve the LP.

    Raises KernelEmpty, naming the member (names[g]), when its kernel has
    no interior point.
    """
    star = candidates.copy()
    slack = np.einsum("gij,gij->gi", normals, candidates[:, None, :] - anchors)
    for g in np.flatnonzero(~(slack.max(axis=1) <= -1e-9 * h)):
        center, radius = _chebyshev_center(normals[g], anchors[g],
                                           star.shape[1])
        if center is None or radius <= 1e-12 * h[g]:
            raise KernelEmpty(f"{names[g]} has an empty kernel")
        star[g] = center
    return star


def polygon_geometry(points):
    """The PolygonGeometry of a simple CCW polygon, an (m, 2) vertex array,
    or of a stack (G, m, 2) of polygons with one vertex count.

    The star point is the centroid when the centroid sees every edge from
    inside; only the polygons where it does not solve the LP for the
    Chebyshev center of their kernel. Raises MeshError on a zero-length
    edge and KernelEmpty when a kernel has no interior point.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 2:
        return polygon_geometry(points[None])[0]
    x, y = points[..., 0], points[..., 1]
    xr, yr = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yr - xr * y
    area = 0.5 * np.sum(cross, axis=-1)
    if not np.all(area > 0.0):
        raise MeshError("polygon is degenerate or not counterclockwise")
    centroid = (np.stack([np.sum((x + xr) * cross, axis=-1),
                          np.sum((y + yr) * cross, axis=-1)], axis=-1)
                / (6.0 * area[:, None]))
    h = _diameter(points)
    edges = _edge_table(points)
    star = _star_points(centroid, edges[2], points, h,
                        ["polygon"] * len(points))
    return PolygonGeometry(points, edges, h, area, centroid, star)


# ---------------------------------------------------------------------------
# planar faces embedded in 3D


class FaceFrame:
    """Isometric chart of the plane carrying a face, right-handed with the
    face loop counterclockwise when seen against the normal: its origin,
    unit normal and, as rows, its two unit axes.

    One frame may stand for a stack of frames, every field with the faces
    on a first axis; frame[i] is then the frame of face i, or a stack for
    an index array i.
    """

    def __init__(self, origin, normal, axes):
        self.origin = origin
        self.normal = normal
        self.axes = axes

    def __getitem__(self, i):
        return FaceFrame(self.origin[i], self.normal[i], self.axes[i])

    def to2d(self, pts3):
        """Chart coordinates of pts3 (npts, 3), or (G, npts, 3) for a
        stack."""
        return ((np.atleast_2d(pts3) - self.origin[..., None, :])
                @ np.swapaxes(self.axes, -1, -2))

    def to3d(self, pts2):
        """The points of chart coordinates pts2 (npts, 2), or (G, npts, 2)
        for a stack."""
        return self.origin[..., None, :] + np.atleast_2d(pts2) @ self.axes


def face_frame(points3):
    """The FaceFrame of a planar face loop (m, 3), or of a stack (G, m, 3)
    of face loops with one vertex count: the origin at the vertex average,
    the Newell normal, and the first axis along the first edge."""
    points3 = np.asarray(points3, dtype=float)
    if points3.ndim == 2:
        return face_frame(points3[None])[0]
    n = np.cross(points3, np.roll(points3, -1, axis=-2)).sum(axis=-2)
    norm = np.sqrt(_dots(n, n))
    if not np.all(norm > 0.0):
        raise MeshError("face is degenerate")
    normal = n / norm[:, None]
    seed = points3[:, 1] - points3[:, 0]
    seed = seed - _dots(seed, normal)[:, None] * normal
    length = np.sqrt(_dots(seed, seed))
    if not np.all(length > 0.0):
        raise MeshError("face is degenerate")
    a0 = seed / length[:, None]
    return FaceFrame(points3.mean(axis=-2), normal,
                     np.stack([a0, np.cross(normal, a0)], axis=-2))


def _stacked_loops(vertices, loops, what):
    """The loops' points, grouped by vertex count in order of first
    appearance: per group the loop ids and their points (G, m, dim).

    Raises MeshError naming the first loop, by id, with a zero-length
    edge (what: "cell" or "face").
    """
    groups = {}
    for i, loop in enumerate(loops):
        groups.setdefault(len(loop), []).append(i)
    stacks, bad = [], []
    for ids in groups.values():
        ids = np.array(ids)
        pts = vertices[np.array([loops[i] for i in ids])]
        bad.extend(ids[_zero_edges(pts)])
        stacks.append((ids, pts))
    if bad:
        raise MeshError(f"{what} {min(bad)} has a zero-length edge")
    return stacks


# ---------------------------------------------------------------------------
# mesh containers


def _check_used(n, used, what):
    """Raise MeshError naming the first vertex or face (what) id below n
    that is not among the ids in used."""
    unused = np.setdiff1d(np.arange(n), used)
    if unused.size:
        raise MeshError(f"{what} {unused[0]} is used by no cell")


def _number_edges(mesh, loops):
    """Number the segments of the vertex loops by first appearance.

    Sets mesh.edges, one (lower, higher) vertex id row per edge, and
    mesh.n_edges. Returns the edge ids of each loop's segments, in loop
    order, and the number of segments on each edge.
    """
    lookup = {}
    counts = []
    loop_ids = []
    for loop in loops:
        ids = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (a, b) if a < b else (b, a)
            eid = lookup.get(key)
            if eid is None:
                eid = len(lookup)
                lookup[key] = eid
                counts.append(0)
            counts[eid] += 1
            ids.append(eid)
        loop_ids.append(ids)
    mesh.edges = np.array(list(lookup), dtype=int).reshape(-1, 2)
    mesh.n_edges = len(mesh.edges)
    return loop_ids, np.array(counts, dtype=int)


class PolygonalMesh2:
    """A 2D mesh: vertices plus counterclockwise cell loops."""

    dim = 2

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = [[operator.index(v) for v in loop] for loop in cells]
        self.n_vertices = len(self.vertices)
        self.n_cells = len(self.cells)
        self.cell_edge_ids, counts = _number_edges(self, self.cells)
        self.boundary_edges = counts == 1
        self.boundary_vertices = np.zeros(self.n_vertices, dtype=bool)
        self._records = None
        if self.n_edges:
            self.boundary_vertices[self.edges[self.boundary_edges].ravel()] = True

    def cell_points(self, i):
        return self.vertices[self.cells[i]]

    def cell_record(self, i):
        """The PolygonGeometry of cell i.

        On first use the records of all cells are built, one stacked
        polygon_geometry per vertex count, and kept, so the quality report
        and the elements read one record per cell.
        """
        if self._records is None:
            records = [None] * self.n_cells
            for ids, pts in _stacked_loops(self.vertices, self.cells, "cell"):
                geometry = polygon_geometry(pts)
                for j, cell in enumerate(ids):
                    records[cell] = geometry[j]
            self._records = records
        return self._records[i]

    def validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices are not an (n, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("mesh has non-finite vertex coordinates")
        directed = set()
        counts = np.zeros(self.n_edges, dtype=int)
        for ci, loop in enumerate(self.cells):
            if len(loop) < 3 or len(set(loop)) != len(loop):
                raise MeshError(f"cell {ci} is not a simple loop")
            if min(loop) < 0 or max(loop) >= self.n_vertices:
                raise MeshError(f"cell {ci} references a missing vertex")
            pts = self.cell_points(ci)
            x, y = pts[:, 0], pts[:, 1]
            area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
            if not area > 0.0:
                raise MeshError(f"cell {ci} is not counterclockwise")
            if _zero_edges(pts):
                raise MeshError(f"cell {ci} has a zero-length edge")
            for a, b in zip(loop, loop[1:] + loop[:1]):
                if (a, b) in directed:
                    raise MeshError(f"edge {a}-{b} traversed twice "
                                    "in the same direction")
                directed.add((a, b))
            counts[self.cell_edge_ids[ci]] += 1
        if self.n_edges and not np.all((counts == 1) | (counts == 2)):
            raise MeshError("an edge is used by more than two cells")
        if not self.cells:
            raise MeshError("mesh has no cells")
        _check_used(self.n_vertices, self.edges, "vertex")
        return self


class PolyhedralMesh3:
    """A 3D mesh: vertices, planar face loops, and cells as signed faces.

    Each cell lists [face_id, sign] pairs where sign is +1 when the face
    normal (right-hand rule on the stored loop) points out of the cell.
    """

    dim = 3

    def __init__(self, vertices, faces, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = [[operator.index(v) for v in loop] for loop in faces]
        self.cells = [[[operator.index(f), operator.index(s)] for f, s in cell]
                      for cell in cells]
        self.n_vertices = len(self.vertices)
        self.n_faces = len(self.faces)
        self.n_cells = len(self.cells)
        self._frames = self._records = None
        self.face_edge_ids, _ = _number_edges(self, self.faces)
        counts = np.zeros(self.n_faces, dtype=int)
        for cell in self.cells:
            for fid, _ in cell:
                counts[fid] += 1
        self.boundary_faces = counts == 1
        self.boundary_edges = np.zeros(self.n_edges, dtype=bool)
        self.boundary_vertices = np.zeros(self.n_vertices, dtype=bool)
        for fid in np.flatnonzero(self.boundary_faces):
            self.boundary_edges[self.face_edge_ids[fid]] = True
            self.boundary_vertices[self.faces[fid]] = True

        self.cell_edge_ids = []
        self._cell_vertices = []
        for cell in self.cells:
            eids = sorted({e for fid, _ in cell
                           for e in self.face_edge_ids[fid]})
            self.cell_edge_ids.append(eids)
            vids = sorted({v for fid, _ in cell for v in self.faces[fid]})
            self._cell_vertices.append(vids)

    def cell_vertex_ids(self, i):
        return self._cell_vertices[i]

    def cell_points(self, i):
        return self.vertices[self._cell_vertices[i]]

    def face_points(self, fid):
        return self.vertices[self.faces[fid]]

    def face_frames(self):
        """The FaceFrames of all faces, one stack in face id order.

        The charts are built on first use, one stacked face_frame and
        polygon_geometry per vertex count, and kept, so the cells sharing
        a face and its face element read one chart; being lazy, it lets
        validate's ordered checks come first. A zero-length edge, on which
        a frame would divide by zero, raises MeshError naming the first
        such face.
        """
        if self._frames is None:
            frames = FaceFrame(np.empty((self.n_faces, 3)),
                               np.empty((self.n_faces, 3)),
                               np.empty((self.n_faces, 2, 3)))
            records = [None] * self.n_faces
            for ids, pts3 in _stacked_loops(self.vertices, self.faces,
                                            "face"):
                frame = face_frame(pts3)
                frames.origin[ids] = frame.origin
                frames.normal[ids] = frame.normal
                frames.axes[ids] = frame.axes
                geometry = polygon_geometry(frame.to2d(pts3))
                for j, fid in enumerate(ids):
                    records[fid] = geometry[j]
            self._frames, self._records = frames, records
        return self._frames

    def face_chart(self, fid):
        """(FaceFrame, PolygonGeometry in that frame) of a face; see
        face_frames."""
        return self.face_frames()[fid], self._records[fid]

    def cell_volume_divergence(self, i):
        """Cell volume from the divergence theorem applied to x/3; a face's
        sign is +1 when its frame normal points out of the cell."""
        vol = 0.0
        for fid, sign in self.cells[i]:
            frame, geom = self.face_chart(fid)
            vol += sign * (self.face_points(fid)[0] @ frame.normal) * geom.measure
        return vol / 3.0

    def validate(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices are not an (n, 3) array")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("mesh has non-finite vertex coordinates")
        for fid, loop in enumerate(self.faces):
            if len(loop) < 3 or len(set(loop)) != len(loop):
                raise MeshError(f"face {fid} is not a simple loop")
            if min(loop) < 0 or max(loop) >= self.n_vertices:
                raise MeshError(f"face {fid} references a missing vertex")
            pts3 = self.face_points(fid)
            if _zero_edges(pts3):
                raise MeshError(f"face {fid} has a zero-length edge")
            try:
                frame = face_frame(pts3)
            except MeshError:
                raise MeshError(f"face {fid} is degenerate") from None
            offsets = (pts3 - frame.origin) @ frame.normal
            hf = _diameter(pts3)
            if np.max(np.abs(offsets)) > 1e-12 * hf:
                raise MeshError(f"face {fid} is not planar")
        signs = {}
        for ci, cell in enumerate(self.cells):
            seen = set()
            for fid, sign in cell:
                if fid < 0 or fid >= self.n_faces or sign not in (-1, 1):
                    raise MeshError(f"cell {ci} has an invalid face record")
                if fid in seen:
                    raise MeshError(f"cell {ci} repeats face {fid}")
                seen.add(fid)
                signs.setdefault(fid, []).append(sign)
            vol_div = self.cell_volume_divergence(ci)
            vol_fan = cell_geometry(self, ci).measure
            if not vol_div > 0.0:
                raise MeshError(f"cell {ci} has non-positive volume")
            if abs(vol_div - vol_fan) > 1e-10 * max(vol_div, vol_fan):
                raise MeshError(f"cell {ci} volume is inconsistent; "
                                "face orientations are likely wrong")
        for fid, ss in signs.items():
            if len(ss) > 2:
                raise MeshError(f"face {fid} is used by more than two cells")
            if len(ss) == 2 and ss[0] + ss[1] != 0:
                raise MeshError(f"face {fid} has matching signs "
                                "in both neighboring cells")
        if not self.cells:
            raise MeshError("mesh has no cells")
        _check_used(self.n_faces, list(signs), "face")
        # every face is a cell's, so every vertex of an edge is a cell's
        _check_used(self.n_vertices, self.edges, "vertex")
        return self


def _kernel_halfspaces(mesh, i):
    """Outward unit normals and anchor points of the facets of cell i,
    whose half-spaces n.(x-a) <= 0 cut out its kernel, and its diameter."""
    if mesh.dim == 2:
        polygon = mesh.cell_record(i)
        return polygon.normals, polygon.points, polygon.h
    fids, signs = np.array(mesh.cells[i]).T
    normals = signs[:, None] * mesh.face_frames().normal[fids]
    anchors = mesh.vertices[[mesh.faces[fid][0] for fid in fids]]
    return normals, anchors, _diameter(mesh.cell_points(i))


def cell_geometry(mesh, i):
    """CellGeometry of one cell, in either dimension: a polygon's record
    in 2D, a polyhedron's star fan geometry (star_fan) in 3D."""
    if mesh.dim == 2:
        return mesh.cell_record(i)
    g = star_fan(mesh, [i])[0]
    return CellGeometry(g.h[0], g.measure[0], g.centroid[0],
                        g.star_center[0])


def star_fan(mesh, cells):
    """The geometry of polyhedra of one face pattern (the vertex counts
    of their faces, in cell order) and one vertex count, with their star
    fans: a CellGeometry of arrays over the cells, and per cell c and fan
    tet t the edges E[c, t, j] = (tet vertex j + 1) - star and |det E[c, t]|.

    A fan tet (star, p, q, face star) stands on each stored face edge
    p -> q. The star point is the vertex average when that sees every
    face from inside; only the cells where it does not solve the LP for
    the Chebyshev center of their kernel. The volume and centroid come
    from the fan on the star point. Raises KernelEmpty when a kernel has
    no interior point.
    """
    pts = mesh.vertices[[mesh.cell_vertex_ids(i) for i in cells]]
    h = _diameter(pts)
    records = np.array([mesh.cells[i] for i in cells])
    normals, anchors, fans, fan_signs = [], [], [], []
    for fids, signs in zip(records[:, :, 0].T, records[:, :, 1].T):
        frames = mesh.face_frames()[fids]
        normals.append(signs[:, None] * frames.normal)
        loop = mesh.vertices[[mesh.faces[fid] for fid in fids]]
        anchors.append(loop[:, 0])
        sc = np.array([mesh.face_chart(fid)[1].star_center for fid in fids])
        # the tets' star vertex is filled in below
        fan = np.empty(loop.shape[:2] + (4, 3))
        fan[:, :, 1] = loop
        fan[:, :, 2] = np.roll(loop, -1, axis=1)
        fan[:, :, 3] = frames.to3d(sc[:, None, :])
        fans.append(fan)
        fan_signs.append(np.repeat(signs[:, None], loop.shape[1], axis=1))
    normals, anchors = np.stack(normals, axis=1), np.stack(anchors, axis=1)
    star = _star_points(pts.mean(axis=1), normals, anchors, h,
                        [f"cell {i}" for i in cells])

    tets = np.concatenate(fans, axis=1)
    tets[:, :, 0] = star[:, None, :]
    signs = np.concatenate(fan_signs, axis=1)
    E = tets[:, :, 1:] - star[:, None, None, :]
    det = np.linalg.det(E)
    vols = signs * det / 6.0
    vol = vols.sum(axis=1)
    centroid = (vols[:, None, :] @ tets.mean(axis=2))[:, 0] / vol[:, None]
    return CellGeometry(h, vol, centroid, star), E, np.abs(det)


# ---------------------------------------------------------------------------
# quality measures


class QualityReport:
    """Mesh quality: edge-length ratios and star-shapedness per cell."""

    def __init__(self, tau, rho, tau_face):
        self.tau = tau
        self.rho = rho
        self.tau_face = tau_face
        self.max_tau = float(np.max(tau))
        self.alpha_h = math.log1p(self.max_tau)
        self.beta_h = (math.log1p(float(np.max(tau_face)))
                       if tau_face is not None else None)


def quality_report(mesh):
    """Edge-length ratios tau per cell (and per face in 3D) and the
    kernel radius ratio rho per cell."""
    lens = np.linalg.norm(np.subtract(*mesh.vertices[mesh.edges.T]), axis=1)

    def ratios(loop_edge_ids):
        return np.array([lens[ids].max() / lens[ids].min()
                         for ids in loop_edge_ids])

    rho = np.empty(mesh.n_cells)
    for i in range(mesh.n_cells):
        # a zero-length edge raises here, before its ratio divides by 0
        normals, anchors, h = _kernel_halfspaces(mesh, i)
        _, radius = _chebyshev_center(normals, anchors, mesh.dim)
        rho[i] = radius / h
    tau = ratios(mesh.cell_edge_ids)
    tau_face = None
    if mesh.dim == 3:
        tau_face = ratios(mesh.face_edge_ids)
    return QualityReport(tau, rho, tau_face)


# ---------------------------------------------------------------------------
# generators


def _parse_family(family, allowed):
    m = re.fullmatch(r"([a-z0-9]+)(?:\(([^()]*)\))?", family.strip())
    if not m or m.group(1) not in allowed:
        raise ValueError(f"unknown mesh family {family!r}")
    return m.group(1), m.group(2)


def _parse_eps(arg):
    try:
        eps = float(arg)
    except (TypeError, ValueError):
        raise ValueError(f"invalid edge split parameter {arg!r}") from None
    if not 0.0 < eps <= 0.5:
        raise ValueError("edge split parameter must lie in (0, 1/2]")
    return eps


def generate_square_mesh(n, family="uniform"):
    """An n-by-n mesh of the unit square from one of the families
    uniform, smalledge(eps), hanging, or distorted(seed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    name, arg = _parse_family(family, {"uniform", "smalledge", "hanging",
                                       "distorted"})
    if name == "uniform":
        return _square_uniform(n)
    if name == "smalledge":
        return _square_smalledge(n, _parse_eps(arg))
    if name == "hanging":
        return _square_hanging(n)
    seed = int(arg) if arg else 0
    return _square_distorted(n, seed)


def _grid_vertices(n):
    side = np.arange(n + 1) / n
    X, Y = np.meshgrid(side, side, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def _square_uniform(n):
    def vid(i, j):
        return i * (n + 1) + j

    cells = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(n) for i in range(n)]
    return PolygonalMesh2(_grid_vertices(n), cells)


def _square_smalledge(n, eps):
    """Uniform grid with every segment split at relative eps from its
    lexicographically lower endpoint, so every cell gets short edges."""
    verts = list(map(tuple, _grid_vertices(n)))

    def vid(i, j):
        return i * (n + 1) + j

    split = {}
    for i in range(n + 1):
        for j in range(n + 1):
            for di, dj in ((1, 0), (0, 1)):
                if i + di > n or j + dj > n:
                    continue
                a, b = vid(i, j), vid(i + di, j + dj)
                split[(a, b)] = len(verts)
                verts.append(((i + eps * di) / n, (j + eps * dj) / n))

    def side(a, b):
        return [a, split[(a, b) if a < b else (b, a)]]

    cells = []
    for j in range(n):
        for i in range(n):
            c = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            loop = []
            for a, b in zip(c, c[1:] + c[:1]):
                loop.extend(side(a, b))
            cells.append(loop)
    return PolygonalMesh2(np.array(verts), cells)


def _square_hanging(n):
    """Checkerboard 2:1 refinement: cells with even i+j are split in four,
    leaving hanging midpoints on their coarse neighbors."""
    ids = {}

    def vid(px, py):
        # lattice coordinates in units of 1/(2n)
        key = (px, py)
        if key not in ids:
            ids[key] = len(ids)
        return ids[key]

    def refined(i, j):
        return 0 <= i < n and 0 <= j < n and (i + j) % 2 == 0

    cells = []
    for j in range(n):
        for i in range(n):
            x, y = 2 * i, 2 * j
            corners = [(x, y), (x + 2, y), (x + 2, y + 2), (x, y + 2)]
            mids = [(x + 1, y), (x + 2, y + 1), (x + 1, y + 2), (x, y + 1)]
            if refined(i, j):
                cc = (x + 1, y + 1)
                quads = [(corners[0], mids[0], cc, mids[3]),
                         (mids[0], corners[1], mids[1], cc),
                         (cc, mids[1], corners[2], mids[2]),
                         (mids[3], cc, mids[2], corners[3])]
                cells.extend([vid(*p) for p in quad] for quad in quads)
            else:
                neighbors = [(i, j - 1), (i + 1, j), (i, j + 1), (i - 1, j)]
                loop = []
                for s in range(4):
                    loop.append(vid(*corners[s]))
                    if refined(*neighbors[s]):
                        loop.append(vid(*mids[s]))
                cells.append(loop)
    verts = np.array(list(ids), dtype=float) / (2 * n)
    return PolygonalMesh2(verts, cells)


def _square_distorted(n, seed):
    verts = _grid_vertices(n)
    rng = np.random.default_rng(seed)
    mesh = _square_uniform(n)
    for v in range(len(verts)):
        if mesh.boundary_vertices[v]:
            continue
        radius = 0.2 / n * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2.0 * math.pi)
        verts[v] += radius * np.array([math.cos(angle), math.sin(angle)])
    return PolygonalMesh2(verts, mesh.cells)


def generate_cube_mesh(n, family="uniform"):
    """An n-by-n-by-n mesh of the unit cube from the families uniform
    or facesplit(eps)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    name, arg = _parse_family(family, {"uniform", "facesplit"})
    if name == "uniform":
        return _cube_uniform(n)
    return _cube_facesplit(n, _parse_eps(arg))


def _cube_uniform(n):
    """The uniform cube grid: quad face loops and signed cells."""
    side = np.arange(n + 1) / n
    X, Y, Z = np.meshgrid(side, side, side, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    faces = []
    # faces normal to x, then y, then z; loops follow the right-hand rule
    fx = {}
    for i in range(n + 1):
        for j in range(n):
            for k in range(n):
                fx[(i, j, k)] = len(faces)
                faces.append([vid(i, j, k), vid(i, j + 1, k),
                              vid(i, j + 1, k + 1), vid(i, j, k + 1)])
    fy = {}
    for j in range(n + 1):
        for i in range(n):
            for k in range(n):
                fy[(i, j, k)] = len(faces)
                faces.append([vid(i, j, k), vid(i, j, k + 1),
                              vid(i + 1, j, k + 1), vid(i + 1, j, k)])
    fz = {}
    for k in range(n + 1):
        for i in range(n):
            for j in range(n):
                fz[(i, j, k)] = len(faces)
                faces.append([vid(i, j, k), vid(i + 1, j, k),
                              vid(i + 1, j + 1, k), vid(i, j + 1, k)])
    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cells.append([[fx[(i, j, k)], -1], [fx[(i + 1, j, k)], 1],
                              [fy[(i, j, k)], -1], [fy[(i, j + 1, k)], 1],
                              [fz[(i, j, k)], -1], [fz[(i, j, k + 1)], 1]])
    return PolyhedralMesh3(verts, faces, cells)


def _cube_facesplit(n, eps):
    """Uniform cube grid with every edge e split by a new vertex nv + e at
    relative eps from its lower vertex id, which on the grid is also its
    lexicographically lower endpoint, making every face an octagon."""
    base = _cube_uniform(n)
    lo, hi = base.vertices[base.edges.T]
    verts = np.concatenate([base.vertices, (1.0 - eps) * lo + eps * hi])
    nv = base.n_vertices
    faces = [[v for a, e in zip(loop, ids) for v in (a, nv + e)]
             for loop, ids in zip(base.faces, base.face_edge_ids)]
    return PolyhedralMesh3(verts, faces, base.cells)


# ---------------------------------------------------------------------------
# serialization


def save_mesh(mesh, path):
    """Write a mesh as JSON."""
    data = {"dim": mesh.dim,
            "vertices": mesh.vertices.tolist(),
            "cells": mesh.cells}
    if mesh.dim == 3:
        data["faces"] = mesh.faces
    with open(path, "w") as fh:
        json.dump(data, fh)


def load_mesh(path):
    """Read a mesh written by save_mesh; MeshError if the file holds none."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        if data["dim"] == 2:
            return PolygonalMesh2(data["vertices"], data["cells"])
        if data["dim"] == 3:
            return PolyhedralMesh3(data["vertices"], data["faces"],
                                   data["cells"])
    except TypeError as exc:
        raise MeshError(f"malformed mesh file: {exc}") from None
    raise MeshError(f"unsupported dimension {data['dim']!r}")
