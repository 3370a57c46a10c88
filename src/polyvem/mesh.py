"""Polygonal and polyhedral meshes of the unit square and cube.

Meshes are plain containers (vertex array plus cell connectivity) with
derived incidence data. Generators produce the benchmark families:
uniform grids, grids with one controllably short edge per segment,
checkerboard 2:1 nonconforming refinements, and randomly jittered grids.
"""

import json
import math
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


def _diameter(points):
    d = points[:, None, :] - points[None, :, :]
    return math.sqrt(np.max(np.einsum("ijk,ijk->ij", d, d)))


def _edge_outward_normals(points):
    """Unit outward normals and anchor points of a CCW polygon's edges."""
    rolled = np.roll(points, -1, axis=0)
    tang = rolled - points
    lengths = np.linalg.norm(tang, axis=1)
    keep = lengths > 0
    normals = np.column_stack([tang[keep, 1], -tang[keep, 0]])
    normals /= lengths[keep, None]
    return normals, points[keep]


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


def _star_point(candidate, normals, anchors, h, what):
    """The candidate when it sees every facet n.(x-a) <= 0 strictly from
    inside, otherwise the Chebyshev center of the kernel.

    Raises KernelEmpty, naming what, when the kernel has no interior point.
    """
    slack = np.einsum("ij,ij->i", normals, candidate - anchors)
    if np.max(slack) <= -1e-9 * h:
        return candidate
    star, radius = _chebyshev_center(normals, anchors, len(candidate))
    if star is None or radius <= 1e-12 * h:
        raise KernelEmpty(f"{what} has an empty kernel")
    return star


def polygon_geometry(points):
    """Geometry of a simple CCW polygon given as an (m, 2) vertex array.

    The star point is the centroid when the centroid sees every edge from
    inside; otherwise it is the Chebyshev center of the polygon's kernel.
    Raises KernelEmpty when the kernel has no interior point.
    """
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    cross = x * yr - xr * y
    area = 0.5 * np.sum(cross)
    if not area > 0.0:
        raise MeshError("polygon is degenerate or not counterclockwise")
    centroid = np.array([np.sum((x + xr) * cross),
                         np.sum((y + yr) * cross)]) / (6.0 * area)
    h = _diameter(points)
    normals, anchors = _edge_outward_normals(points)
    star = _star_point(centroid, normals, anchors, h, "polygon")
    return CellGeometry(h, area, centroid, star)


# ---------------------------------------------------------------------------
# planar faces embedded in 3D


def _newell_normal(points3):
    rolled = np.roll(points3, -1, axis=0)
    n = np.cross(points3, rolled).sum(axis=0)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise MeshError("face is degenerate")
    return n / norm


class FaceFrame:
    """Isometric chart of the plane carrying a face, right-handed with the
    face loop counterclockwise when seen against the normal."""

    def __init__(self, points3):
        points3 = np.asarray(points3, dtype=float)
        self.origin = points3.mean(axis=0)
        self.normal = _newell_normal(points3)
        seed = points3[1] - points3[0]
        seed = seed - (seed @ self.normal) * self.normal
        a0 = seed / np.linalg.norm(seed)
        self.axes = np.array([a0, np.cross(self.normal, a0)])

    def to2d(self, pts3):
        return (np.atleast_2d(pts3) - self.origin) @ self.axes.T

    def to3d(self, pts2):
        return self.origin + np.atleast_2d(pts2) @ self.axes


# ---------------------------------------------------------------------------
# mesh containers


class PolygonalMesh2:
    """A 2D mesh: vertices plus counterclockwise cell loops."""

    dim = 2

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = [[int(v) for v in loop] for loop in cells]
        self.n_vertices = len(self.vertices)
        self.n_cells = len(self.cells)
        self._build_edges()

    def _build_edges(self):
        lookup = {}
        counts = []
        self.cell_edge_ids = []
        for loop in self.cells:
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
            self.cell_edge_ids.append(ids)
        self.edges = np.array(list(lookup), dtype=int).reshape(-1, 2)
        self.edge_lookup = lookup
        self.n_edges = len(self.edges)
        self.boundary_edges = np.array(counts, dtype=int) == 1
        self.boundary_vertices = np.zeros(self.n_vertices, dtype=bool)
        if self.n_edges:
            self.boundary_vertices[self.edges[self.boundary_edges].ravel()] = True

    def cell_points(self, i):
        return self.vertices[self.cells[i]]

    def validate(self):
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
            for a, b in zip(loop, loop[1:] + loop[:1]):
                if (a, b) in directed:
                    raise MeshError(f"edge {a}-{b} traversed twice "
                                    "in the same direction")
                directed.add((a, b))
            counts[self.cell_edge_ids[ci]] += 1
        if self.n_edges and not np.all((counts == 1) | (counts == 2)):
            raise MeshError("an edge is used by more than two cells")
        return self


class PolyhedralMesh3:
    """A 3D mesh: vertices, planar face loops, and cells as signed faces.

    Each cell lists [face_id, sign] pairs where sign is +1 when the face
    normal (right-hand rule on the stored loop) points out of the cell.
    """

    dim = 3

    def __init__(self, vertices, faces, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.faces = [[int(v) for v in loop] for loop in faces]
        self.cells = [[[int(f), int(s)] for f, s in cell] for cell in cells]
        self.n_vertices = len(self.vertices)
        self.n_faces = len(self.faces)
        self.n_cells = len(self.cells)
        self._build_incidence()
        self._charts = {}

    def _build_incidence(self):
        lookup = {}
        self.face_edge_ids = []
        for loop in self.faces:
            ids = []
            for a, b in zip(loop, loop[1:] + loop[:1]):
                key = (a, b) if a < b else (b, a)
                eid = lookup.get(key)
                if eid is None:
                    eid = len(lookup)
                    lookup[key] = eid
                ids.append(eid)
            self.face_edge_ids.append(ids)
        self.edges = np.array(list(lookup), dtype=int).reshape(-1, 2)
        self.edge_lookup = lookup
        self.n_edges = len(self.edges)

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

    def face_chart(self, fid):
        """(FaceFrame, CellGeometry in that frame) of a face.

        Built on first use and kept, so the cells sharing a face read one
        chart; being lazy, it lets validate's ordered checks come first.
        """
        chart = self._charts.get(fid)
        if chart is None:
            frame = FaceFrame(self.face_points(fid))
            geom = polygon_geometry(frame.to2d(self.face_points(fid)))
            chart = self._charts[fid] = (frame, geom)
        return chart

    def _oriented_face_data(self, i):
        """Per face of cell i: (loop points, frame, geometry in the frame,
        sign), the sign being +1 when the frame normal points outward."""
        return [(self.face_points(fid), *self.face_chart(fid), sign)
                for fid, sign in self.cells[i]]

    def cell_volume_divergence(self, i):
        """Cell volume from the divergence theorem applied to x/3."""
        vol = 0.0
        for pts3, frame, geom, sign in self._oriented_face_data(i):
            vol += sign * (pts3[0] @ frame.normal) * geom.measure
        return vol / 3.0

    def _fan_tetrahedra(self, i, star):
        """The star fan of cell i: tets (star, p, q, face star) over each
        stored face edge p -> q, with the sign (+1 or -1) of each tet's
        orientation, so that sign * det(tet - star) / 6 is its volume."""
        tets, signs = [], []
        for pts3, frame, geom, sign in self._oriented_face_data(i):
            fan = np.empty((len(pts3), 4, 3))
            fan[:, 0] = star
            fan[:, 1] = pts3
            fan[:, 2] = np.roll(pts3, -1, axis=0)
            fan[:, 3] = frame.to3d(geom.star_center)[0]
            tets.append(fan)
            signs.append(np.full(len(pts3), float(sign)))
        return np.concatenate(tets), np.concatenate(signs)

    def validate(self):
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("mesh has non-finite vertex coordinates")
        for fid, loop in enumerate(self.faces):
            if len(loop) < 3 or len(set(loop)) != len(loop):
                raise MeshError(f"face {fid} is not a simple loop")
            if min(loop) < 0 or max(loop) >= self.n_vertices:
                raise MeshError(f"face {fid} references a missing vertex")
            pts3 = self.face_points(fid)
            frame = FaceFrame(pts3)
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
        return self


def _kernel_halfspaces(mesh, i):
    """Outward unit normals and anchor points of the facets of cell i,
    whose half-spaces n.(x-a) <= 0 cut out its kernel, and its diameter."""
    pts = mesh.cell_points(i)
    if mesh.dim == 2:
        normals, anchors = _edge_outward_normals(pts)
    else:
        data = mesh._oriented_face_data(i)
        normals = np.array([sign * frame.normal for _, frame, _, sign in data])
        anchors = np.array([pts3[0] for pts3, _, _, _ in data])
    return normals, anchors, _diameter(pts)


def cell_star_center(mesh, i):
    """An interior point of cell i seeing all of its boundary.

    The vertex average is used when it works; otherwise the Chebyshev
    center of the cell's kernel. Raises KernelEmpty when no such point
    exists.
    """
    if mesh.dim == 2:
        return polygon_geometry(mesh.cell_points(i)).star_center
    candidate = mesh.cell_points(i).mean(axis=0)
    return _star_point(candidate, *_kernel_halfspaces(mesh, i), f"cell {i}")


def cell_geometry(mesh, i):
    """CellGeometry of one cell, in either dimension."""
    if mesh.dim == 2:
        return polygon_geometry(mesh.cell_points(i))
    star = cell_star_center(mesh, i)
    tets, signs = mesh._fan_tetrahedra(i, star)
    vols = signs * np.linalg.det(tets[:, 1:] - star) / 6.0
    vol = vols.sum()
    centroid = vols @ tets.mean(axis=1) / vol
    return CellGeometry(_diameter(mesh.cell_points(i)), vol, centroid, star)


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


def _edge_length_ratio(vertices, edges, ids):
    lens = np.linalg.norm(vertices[edges[ids, 0]] - vertices[edges[ids, 1]],
                          axis=1)
    return float(lens.max() / lens.min())


def quality_report(mesh):
    """Edge-length ratios tau per cell (and per face in 3D) and the
    kernel radius ratio rho per cell."""
    tau = np.array([_edge_length_ratio(mesh.vertices, mesh.edges, ids)
                    for ids in mesh.cell_edge_ids])
    rho = np.empty(mesh.n_cells)
    for i in range(mesh.n_cells):
        normals, anchors, h = _kernel_halfspaces(mesh, i)
        _, radius = _chebyshev_center(normals, anchors, mesh.dim)
        rho[i] = radius / h
    tau_face = None
    if mesh.dim == 3:
        tau_face = np.array(
            [_edge_length_ratio(mesh.vertices, mesh.edges, ids)
             for ids in mesh.face_edge_ids])
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


def _cube_structure(n):
    """Vertices, quad face loops, and signed cells of the uniform cube."""
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
    return verts, faces, cells


def _cube_uniform(n):
    return PolyhedralMesh3(*_cube_structure(n))


def _cube_facesplit(n, eps):
    """Uniform cube grid with every segment split at relative eps from its
    lexicographically lower endpoint, making every face an octagon."""
    verts, faces, cells = _cube_structure(n)
    verts = list(map(tuple, verts))
    split = {}
    for fid, loop in enumerate(faces):
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (a, b) if a < b else (b, a)
            if key in split:
                continue
            lo, hi = sorted((verts[a], verts[b]))
            split[key] = len(verts)
            verts.append(tuple((1.0 - eps) * l + eps * u
                               for l, u in zip(lo, hi)))
    out_faces = []
    for loop in faces:
        split_loop = []
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (a, b) if a < b else (b, a)
            split_loop.extend([a, split[key]])
        out_faces.append(split_loop)
    return PolyhedralMesh3(np.array(verts), out_faces, cells)


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
    """Read a mesh written by save_mesh."""
    with open(path) as fh:
        data = json.load(fh)
    if data["dim"] == 2:
        return PolygonalMesh2(data["vertices"], data["cells"])
    if data["dim"] == 3:
        return PolyhedralMesh3(data["vertices"], data["faces"],
                               data["cells"])
    raise MeshError(f"unsupported dimension {data['dim']!r}")
