"""Standalone dense references for the polyvem package.

Builds the k=1 virtual element stiffness matrix for the unit square from
first principles with explicit dense linear algebra: energy projector from
the constrained 3x3 system, stabilization applied to the projector residual.
Shares no code with the polyvem package; used to freeze oracle fixtures.

It also expands the edge traces of a scaled monomial basis (and of their
normal derivatives) into powers of t by polynomial multiplication, the
reference for the traces the elements evaluate directly at Gauss points.
These read only the basis' center, scale, indices and derivative maps.

Finally it keeps reference forms of the quadrature and mesh code that the
package shares between dimensions: a triangle and a tetrahedron rule written
out coordinate by coordinate, the polygon fan built one edge at a time, and
the cube face split with its own segment numbering, and the dof order of a
cell written separately for polygons and polyhedra. The package's
simplex_rule, polygon_quadrature, facesplit meshes, GlobalDofMap and
Element3D face dofs must equal them bit for bit.

The sums over edges are kept one edge at a time as well: a polygon's
node points, boundary term B, boundary means and edge stabilizations, an
edge's global dofs, the walk of a polygon's dofs, the pointwise edge
error and a polyhedron's node points. They take the package's basis and
1D rules as arguments, since only the edge loops are under test, and the
package's edge tables must reproduce them bit for bit. Like the package,
B applies the derivative maps to the edge integrals of the monomials.

Last, it keeps the interpolant built one cell at a time, each element
writing func at its own node points and its moments (in 3D also the
moments of each of its faces) into the cells' global dofs. The package
fills each global dof once; its moment entries must equal these bit for
bit, and its node entries may differ only by the rounding of the points.

The package builds polygon records and face charts on stacks of
polygons with one vertex count; this module keeps them one polygon at a
time (polygon_record, face_chart), and every stacked field must equal
them bit for bit.

The package solves for the projectors of every degree in an H-orthonormal
basis and forms the load of k = 1 and k = 2 by one formula; this module
keeps the plain solve of the monomial systems and the k = 1 load from
pi_zero itself (plain_projectors, plain_load), and the package's
projectors, stiffness and load may differ from them only by roundoff at
k = 1, 2. It also keeps the patch case's polynomial evaluated by pow,
one product of powers per monomial and lowered index (patch_case), which
the package builds from the basis' derivative maps.

The package evaluates no basis gradient; this module keeps the textbook
values and gradients of a basis (direct_eval_and_grad), the one gradient
reference of the tests. From it, it sums the projected error norms one
cell and one projector at a time. The package takes the gradients of
both projections from the derivative maps in one product per cell; its
norms must equal these to roundoff. Those sums take each cell's volume
rule from the package's fan quadrature, on the cell's polygon in 2D and
on its element's star fan in 3D.

The package's quality report solves the kernel LP once per cell shape
(a cell's LP data relative to its first facet anchor) and gives the
exact translates of a cell its radius; this module solves one LP per
cell (kernel_radius_ratios), on half-spaces built one cell at a time
from polygon_record and face_chart. The package's rho must equal it bit
for bit on the first cell of each shape, and to roundoff elsewhere. The
package takes the edge ratios on stacks of loops with one edge count;
edge_ratios takes them one loop at a time, and they must be equal.

Run as a script to (re)generate tests/fixtures/klocal_unit_square_k1_*.json.
"""

import json
import math
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.special

from polyvem import polybasis as pb

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

# 2-point Gauss on [0,1], exact through cubics; enough for every line
# integral appearing at k=1.
_GT = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GW = np.array([0.5, 0.5])


def _monomials(x, center, h):
    """Rows [1, (x-xc)/h, (y-yc)/h] at each point of x (n,2)."""
    s = (np.atleast_2d(x) - center) / h
    return np.column_stack([np.ones(len(s)), s[:, 0], s[:, 1]])


def klocal_unit_square_k1(stab):
    """K_local for the unit square at k=1 with stabilization 's1' or 's2'."""
    verts = SQUARE
    nv = 4
    center = np.array([0.5, 0.5])
    h_d = np.sqrt(2.0)
    area = 1.0

    edges = [(verts[i], verts[(i + 1) % nv]) for i in range(nv)]
    lengths = [np.linalg.norm(b - a) for a, b in edges]
    perimeter = sum(lengths)
    # Outward normals of a counter-clockwise loop.
    normals = [np.array([(b - a)[1], -(b - a)[0]]) / np.linalg.norm(b - a)
               for a, b in edges]

    # Stiffness of the scaled monomials: gradients of the two linears are
    # constant 1/h_d, the constant has zero gradient.
    g_tilde = np.zeros((3, 3))
    g_tilde[1, 1] = g_tilde[2, 2] = area / h_d**2

    # Hat-function traces on edge i: phi_i falls 1 -> 0, phi_{i+1} rises.
    b_mat = np.zeros((3, nv))
    for i, (a, b) in enumerate(edges):
        le = lengths[i]
        n = normals[i]
        pts = a[None, :] + _GT[:, None] * (b - a)[None, :]
        # n . grad m_alpha is constant: (0, n_x/h, n_y/h).
        nder = np.array([0.0, n[0] / h_d, n[1] / h_d])
        falling = 1.0 - _GT
        rising = _GT
        for alpha in range(3):
            b_mat[alpha, i] += nder[alpha] * le * np.sum(_GW * falling)
            b_mat[alpha, (i + 1) % nv] += nder[alpha] * le * np.sum(_GW * rising)
    # Constraint row: boundary mean of each hat replaces the constant row.
    row0 = np.zeros(nv)
    for i, (a, b) in enumerate(edges):
        row0[i] += lengths[i] * np.sum(_GW * (1.0 - _GT))
        row0[(i + 1) % nv] += lengths[i] * np.sum(_GW * _GT)
    b_mat[0] = row0 / perimeter

    g_con = g_tilde.copy()
    g_con[0] = [np.sum(_GW * 0 + 1.0) * 0 + 1.0, 0.0, 0.0]
    # Boundary means of the monomials on the square: X and Y average to 0.
    g_con[0, 0] = 1.0
    pi_star = np.linalg.solve(g_con, b_mat)

    d_mat = _monomials(verts, center, h_d)
    pi_dof = d_mat @ pi_star
    resid = np.eye(nv) - pi_dof

    if stab == "s1":
        s_mat = np.eye(nv)
    elif stab == "s2":
        s_mat = np.zeros((nv, nv))
        for i in range(nv):
            le = lengths[i]
            # d/ds of the two hats supported on edge i: -1/le and +1/le.
            loc = np.array([[1.0, -1.0], [-1.0, 1.0]]) / le
            idx = [i, (i + 1) % nv]
            for a in range(2):
                for b in range(2):
                    s_mat[idx[a], idx[b]] += h_d * loc[a, b]
    else:
        raise ValueError(f"unknown stabilization {stab!r}")

    k_mat = pi_star.T @ g_tilde @ pi_star + resid.T @ s_mat @ resid
    return 0.5 * (k_mat + k_mat.T)


# ---------------------------------------------------------------------------
# edge traces in powers of t


def edge_trace_matrix(basis, p0, p1):
    """Coefficients (in powers of t on [0,1]) of each m_alpha along the edge."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    # each scaled coordinate restricts to the linear a_d + t b_d
    a = (p0 - basis.center) / basis.scale
    b = (p1 - p0) / basis.scale
    k = basis.degree
    T = np.zeros((basis.n, k + 1))
    # precompute powers of each coordinate's linear as 1D polynomials
    coord_pows = []
    for d in range(len(a)):
        pows = [np.array([1.0])]
        for _ in range(k):
            pows.append(np.polynomial.polynomial.polymul(
                pows[-1], np.array([a[d], b[d]])))
        coord_pows.append(pows)
    for i, alpha in enumerate(basis.indices):
        poly = np.array([1.0])
        for d, e in enumerate(alpha):
            poly = np.polynomial.polynomial.polymul(poly, coord_pows[d][e])
        T[i, : len(poly)] = poly
    return T


def normal_derivative_trace_matrix(basis, p0, p1, normal):
    """Coefficients (powers of t) of n . grad m_alpha along the edge.

    The result has degree k-1, returned with max(k, 1) columns.
    """
    T = edge_trace_matrix(basis, p0, p1)
    M = np.zeros((basis.n, basis.n))
    for d, D in enumerate(basis.derivative_maps()):
        M += normal[d] * D
    full = M @ T
    cols = max(basis.degree, 1)
    return full[:, :cols]


# ---------------------------------------------------------------------------
# simplex rules, the polygon fan and the cube face split, written out


def _gauss_jacobi01(n, a):
    """n-point Gauss rule on [0, 1] for the weight (1 - t)^a."""
    x, w = scipy.special.roots_jacobi(n, a, 0)
    return 0.5 * (x + 1.0), w * 2.0 ** -(a + 1)


def triangle_rule(degree):
    """Collapsed Gauss-Jacobi rule on the triangle (0,0),(1,0),(0,1):
    x=u, y=v(1-u), the Jacobian (1-u) carried by the u-weights."""
    n = degree // 2 + 1
    tu, wu = _gauss_jacobi01(n, 1)
    tv, wv = _gauss_jacobi01(n, 0)
    U, V = np.meshgrid(tu, tv, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    wt = (WU * WV).ravel()
    return np.column_stack([x, y]), wt


def tetrahedron_rule(degree):
    """Collapsed Gauss-Jacobi rule on the unit tetrahedron: the Jacobian
    (1-u)^2 (1-v) carried by the u- and v-weights."""
    n = degree // 2 + 1
    tu, wu = _gauss_jacobi01(n, 2)
    tv, wv = _gauss_jacobi01(n, 1)
    tw, ww = _gauss_jacobi01(n, 0)
    U, V, W = np.meshgrid(tu, tv, tw, indexing="ij")
    WU, WV, WW = np.meshgrid(wu, wv, ww, indexing="ij")
    x = U.ravel()
    y = (V * (1.0 - U)).ravel()
    z = (W * (1.0 - U) * (1.0 - V)).ravel()
    wt = (WU * WV * WW).ravel()
    return np.column_stack([x, y, z]), wt


def polygon_quadrature(points, star_center, degree):
    """Triangle rule mapped onto each fan triangle (c, p_i, p_i+1) in
    turn, skipping those with a zero Jacobian."""
    points = np.asarray(points, dtype=float)
    c = np.asarray(star_center, dtype=float)
    tp, tw = triangle_rule(degree)
    qp, qw = [], []
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        jac = (a[0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (a[1] - c[1])
        if jac == 0.0:
            continue
        qp.append(c + tp @ np.array([a - c, b - c]))
        qw.append(tw * jac)
    return np.concatenate(qp), np.concatenate(qw)


def number_edges(loops):
    """Edges (lower, higher) of the loops' segments by first appearance,
    and the edge ids of each loop."""
    lookup = {}
    ids = []
    for loop in loops:
        ids.append([])
        for a, b in zip(loop, loop[1:] + loop[:1]):
            key = (a, b) if a < b else (b, a)
            ids[-1].append(lookup.setdefault(key, len(lookup)))
    return np.array(list(lookup), dtype=int).reshape(-1, 2), ids


def cube_facesplit(verts, faces, eps):
    """Vertices and face loops of a cube grid (verts, faces) with every
    segment split at relative eps from its lexicographically lower end."""
    verts = list(map(tuple, verts))
    split = {}
    for loop in faces:
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
    return np.array(verts), out_faces


# ---------------------------------------------------------------------------
# the dof order of a cell, written per dimension


def _n_poly(dim, degree):
    return math.comb(degree + dim, dim) if degree >= 0 else 0


def cell_dofs(mesh, k, i):
    """Global dofs of cell i: in 2D the loop vertices, the nodes of each
    loop segment from its lower to its higher vertex id and the cell
    moments; in 3D the cell's vertices, the nodes of its edges (both by
    global id), the moments of its faces in the cell's face order and
    the cell moments."""
    nv, ne = mesh.n_vertices, mesh.n_edges
    edge_offset = nv
    if mesh.dim == 2:
        nmf, ncm, nf = 0, _n_poly(2, k - 2), 0
    else:
        nmf, ncm, nf = _n_poly(2, k - 2), _n_poly(3, k - 2), mesh.n_faces
    face_offset = nv + ne * (k - 1)
    cell_offset = face_offset + nf * nmf
    if mesh.dim == 2:
        loop = mesh.cells[i]
        idx = list(loop)
        for (a, b), eid in zip(zip(loop, loop[1:] + loop[:1]),
                               mesh.cell_edge_ids[i]):
            base = edge_offset + eid * (k - 1)
            nodes = range(base, base + k - 1)
            idx.extend(nodes if a < b else reversed(nodes))
    else:
        idx = list(mesh.cell_vertex_ids(i))
        for eid in mesh.cell_edge_ids[i]:
            base = edge_offset + eid * (k - 1)
            idx.extend(range(base, base + k - 1))
        for fid, _ in mesh.cells[i]:
            base = face_offset + fid * nmf
            idx.extend(range(base, base + nmf))
    base = cell_offset + i * ncm
    idx.extend(range(base, base + ncm))
    return np.array(idx, dtype=int)


def cell_face_dofs(mesh, k, cell_id):
    """Per face of a polyhedral cell (in the cell's face order), the
    positions in cell_dofs of the face element's dofs: loop vertices,
    the nodes of each loop segment in loop direction, face moments."""
    vertex_ids = mesh.cell_vertex_ids(cell_id)
    edge_ids = mesh.cell_edge_ids[cell_id]
    nmf = _n_poly(2, k - 2)
    n_nodes = len(vertex_ids) + len(edge_ids) * (k - 1)
    vertex_pos = {v: i for i, v in enumerate(vertex_ids)}
    edge_pos = {e: i for i, e in enumerate(edge_ids)}
    faces = []
    for lf, (fid, _) in enumerate(mesh.cells[cell_id]):
        loop = mesh.faces[fid]
        idx = [vertex_pos[v] for v in loop]
        for a, b, eid in zip(loop, loop[1:] + loop[:1],
                             mesh.face_edge_ids[fid]):
            base = len(vertex_ids) + edge_pos[eid] * (k - 1)
            nodes = range(base, base + k - 1)
            idx.extend(nodes if a < b else reversed(nodes))
        start = n_nodes + lf * nmf
        idx.extend(range(start, start + nmf))
        faces.append(np.array(idx, dtype=int))
    return faces


# ---------------------------------------------------------------------------
# edge sums, one edge at a time


def polygon_edge_terms(points, k, basis, h, n_total, rules):
    """Node points, B (before its moment term), both boundary means and
    the s1/s2/s2tilde forms of a degree-k polygon, edge by edge.

    rules holds the Lobatto nodes, the Gauss points and weights and the
    Lagrange values and derivatives at the Gauss points of an edge.
    """
    nodes, tg, wg, lag, dlag = rules
    nv = len(points)
    node_pts = [points]
    edge_dofs = []
    lengths = np.empty(nv)
    normals = np.empty((nv, 2))
    for e in range(nv):
        p0, p1 = points[e], points[(e + 1) % nv]
        tang = p1 - p0
        lengths[e] = np.linalg.norm(tang)
        normals[e] = np.array([tang[1], -tang[0]]) / lengths[e]
        edge_dofs.append(np.array(
            [e] + [nv + e * (k - 1) + j for j in range(k - 1)]
            + [(e + 1) % nv]))
        if k > 1:
            node_pts.append(p0 + nodes[1:-1][:, None] * tang)
    B = np.zeros((basis.n, n_total))
    mean_dof = np.zeros(n_total)
    mean_mono = np.zeros(basis.n)
    D = basis.derivative_maps()
    for e in range(nv):
        p0, p1 = points[e], points[(e + 1) % nv]
        dofs = edge_dofs[e]
        pts = p0 + tg[:, None] * (p1 - p0)
        vals = basis.eval(pts)
        # the monomials against the edge's Lagrange basis, then n . D
        W = lengths[e] * (vals.T @ (wg[:, None] * lag))
        B[:, dofs] += (normals[e, 0] * D[0] + normals[e, 1] * D[1]) @ W
        mean_dof[dofs] += lengths[e] * (wg @ lag)
        mean_mono += lengths[e] * (vals.T @ wg)
    out = {"nodes": np.concatenate(node_pts), "B": B,
           "mean_dof": mean_dof / lengths.sum(),
           "mean_mono": mean_mono / lengths.sum(),
           "s1": np.diag((np.arange(n_total) < nv * k).astype(float))}
    local = (dlag.T * wg) @ dlag
    for kind in ("s2", "s2tilde"):
        S = np.zeros((n_total, n_total))
        for e in range(nv):
            weight = h / lengths[e] if kind == "s2" else 1.0
            S[np.ix_(edge_dofs[e], edge_dofs[e])] += weight * local
        out[kind] = S
    return out


def seminorm_tbar(points, k, H, measure, h, v, rules):
    """The tbar seminorm of dofs v on a polygon, edge by edge."""
    _, tg, wg, lag, _ = rules
    nv = len(points)
    nm = _n_poly(2, k - 2)
    total = 0.0
    if nm:
        c = np.linalg.solve(H[:nm, :nm], measure * v[nv * k:])
        total += c @ H[:nm, :nm] @ c
    gram = 1.0 / (np.arange(k)[:, None] + np.arange(k)[None, :] + 1.0)
    powers = tg[:, None] ** np.arange(k)
    edge_total = 0.0
    for e in range(nv):
        dofs = [e] + [nv + e * (k - 1) + j for j in range(k - 1)] \
            + [(e + 1) % nv]
        r = powers.T @ (wg * (lag @ v[dofs]))
        length = np.linalg.norm(points[(e + 1) % nv] - points[e])
        edge_total += length * (r @ np.linalg.solve(gram, r))
    return float(np.sqrt(total + h * edge_total))


def edge_dofs(mesh, k, eid):
    """Global dofs of an edge: its lower vertex, its k-1 nodes, its
    higher vertex."""
    lo, hi = mesh.edges[eid]
    base = mesh.n_vertices + eid * (k - 1)
    return np.concatenate([[lo], np.arange(base, base + k - 1),
                           [hi]]).astype(int)


def walk(mesh, k, loop, edge_ids, start, n_moments):
    """Global dofs of a polygon: its loop vertices, the nodes of each
    segment in loop direction, then its moments from start on."""
    idx = list(loop)
    for a, b, eid in zip(loop, loop[1:] + loop[:1], edge_ids):
        base = mesh.n_vertices + eid * (k - 1)
        nodes = range(base, base + k - 1)
        idx.extend(nodes if a < b else reversed(nodes))
    idx.extend(range(start, start + n_moments))
    return np.array(idx, dtype=int)


def linf_edges(mesh, k, x_full, u, linf_factor, node_ts, lagrange_matrix):
    """Worst deviation of the edge traces of x_full from u, edge by edge,
    at Chebyshev points plus the endpoints."""
    nch = linf_factor * (4 * k + 1)
    cheb = 0.5 - 0.5 * np.cos(np.pi * (2 * np.arange(nch) + 1) / (2 * nch))
    ts = np.concatenate([[0.0], cheb, [1.0]])
    lag = lagrange_matrix(node_ts, ts)
    worst = 0.0
    for eid in range(mesh.n_edges):
        lo, hi = mesh.vertices[mesh.edges[eid]]
        pts = lo + ts[:, None] * (hi - lo)
        trace = lag @ x_full[edge_dofs(mesh, k, eid)]
        worst = max(worst, float(np.abs(np.asarray(u(pts)) - trace).max()))
    return worst


def cell_node_points(mesh, k, cell_id, interior_ts):
    """Node points of a polyhedron: its vertices, then the interior
    nodes of each of its edges, both by global id."""
    verts = mesh.vertices
    pts = [verts[mesh.cell_vertex_ids(cell_id)]]
    if k > 1:
        for eid in mesh.cell_edge_ids[cell_id]:
            lo, hi = mesh.edges[eid]
            pts.append(verts[lo] + interior_ts[:, None]
                       * (verts[hi] - verts[lo]))
    return np.concatenate(pts)


# ---------------------------------------------------------------------------
# the interpolant, one element at a time


def polygon_node_points(points, interior_ts):
    """Node points of a polygon: its vertices, then the interior nodes of
    each segment in loop direction."""
    nodes = [points] + [p0 + interior_ts[:, None] * (p1 - p0) for p0, p1
                        in zip(points, np.roll(points, -1, axis=0))]
    return np.concatenate(nodes)


def moments(el, func):
    """The scaled moments of func against an element's first n_moment
    monomials, on its volume quadrature."""
    vals = el.basis.eval(el._qp)[:, :el.layout.n_moment]
    fvals = np.asarray(func(el._qp), dtype=float)
    return (vals.T * el._qw) @ fvals / el.geometry.measure


def element_interpolant(el, func, node_points):
    """The dofs of one element: func at its node points, then its cell
    moments; the face moments of a polyhedron are left at zero."""
    dofs = np.zeros(el.layout.n_total)
    dofs[:len(node_points)] = func(node_points)
    dofs[el.layout.n_boundary:] = moments(el, func)
    return dofs


def interpolate_by_cell(mesh, k, func, elements, dofmap, interior_ts):
    """The global interpolant written cell by cell: in 2D each cell's node
    values at its own segment points, in 3D at its edges' points from
    the lower vertex, and each polyhedron's face moments through the face
    charts. A dof shared by cells keeps the last cell's value."""
    x = np.zeros(dofmap.n_total)
    for i, el in enumerate(elements):
        if mesh.dim == 2:
            nodes = polygon_node_points(el.geometry.points, interior_ts)
        else:
            nodes = cell_node_points(mesh, k, i, interior_ts)
        dofs = element_interpolant(el, func, nodes)
        if mesh.dim == 3 and k > 1:
            for pos, (fid, _), fel in zip(el.face_dofs, mesh.cells[i],
                                          el._faces):
                frame = mesh.face_chart(fid)[0]
                dofs[pos[fel.layout.n_boundary:]] = moments(
                    fel, lambda q2: func(frame.to3d(q2)))
        x[dofmap.cell_dofs(i)] = dofs
    return x


# ---------------------------------------------------------------------------
# polygon records and face charts, one polygon at a time


def polygon_record(points):
    """The fields of the record of one CCW polygon (m, 2), as a dict: its
    points, edge table (tangents, lengths, outward unit normals), diameter
    h, area, centroid and star point (the centroid when it sees every edge
    from inside, otherwise the Chebyshev center of the kernel)."""
    x, y = points[:, 0], points[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    cross = x * yr - xr * y
    area = 0.5 * np.sum(cross)
    centroid = np.array([np.sum((x + xr) * cross),
                         np.sum((y + yr) * cross)]) / (6.0 * area)
    d = points[:, None, :] - points[None, :, :]
    h = np.sqrt(np.einsum("...ijk,...ijk->...ij", d, d).max(axis=(-2, -1)))
    tang = np.roll(points, -1, axis=0) - points
    lengths = np.sqrt((tang[:, None, :] @ tang[:, :, None]).ravel())
    normals = np.column_stack([tang[:, 1], -tang[:, 0]]) / lengths[:, None]
    star = centroid
    slack = np.einsum("ij,ij->i", normals, centroid - points)
    if not np.max(slack) <= -1e-9 * h:
        res = scipy.optimize.linprog(
            [0.0, 0.0, -1.0],
            A_ub=np.column_stack([normals, np.ones(len(normals))]),
            b_ub=np.einsum("ij,ij->i", normals, points),
            bounds=[(None, None)] * 2 + [(0.0, None)], method="highs")
        star = res.x[:2]
    return dict(points=points, tangents=tang, lengths=lengths,
                normals=normals, h=h, measure=area, centroid=centroid,
                star_center=star)


def face_chart(points3):
    """The chart of one planar face loop (m, 3), as a dict: the frame's
    origin (vertex average), Newell unit normal and axes (the first along
    the first edge), and the fields of the face's polygon_record in it."""
    origin = points3.mean(axis=0)
    n = np.cross(points3, np.roll(points3, -1, axis=0)).sum(axis=0)
    normal = n / np.linalg.norm(n)
    seed = points3[1] - points3[0]
    seed = seed - (seed @ normal) * normal
    a0 = seed / np.linalg.norm(seed)
    axes = np.array([a0, np.cross(normal, a0)])
    return dict(origin=origin, normal=normal, axes=axes,
                **polygon_record((points3 - origin) @ axes.T))


# ---------------------------------------------------------------------------
# the quality report, one loop and one LP per cell


def edge_ratios(mesh, loop_edge_ids):
    """tau per loop: its longest edge over its shortest."""
    lens = np.linalg.norm(np.subtract(*mesh.vertices[mesh.edges.T]), axis=1)
    return np.array([lens[ids].max() / lens[ids].min()
                     for ids in loop_edge_ids])


def kernel_halfspaces(mesh, i):
    """The outward unit normals and anchor points of the facets of cell i
    (its edges in 2D, its faces in 3D), whose half-spaces n.(x-a) <= 0 cut
    out its kernel, and its diameter."""
    if mesh.dim == 2:
        record = polygon_record(mesh.cell_points(i))
        return record["normals"], record["points"], record["h"]
    normals = np.array([sign * face_chart(mesh.face_points(fid))["normal"]
                        for fid, sign in mesh.cells[i]])
    anchors = np.array([mesh.face_points(fid)[0] for fid, _ in mesh.cells[i]])
    pts = mesh.cell_points(i)
    d = pts[:, None, :] - pts[None, :, :]
    h = np.sqrt(np.einsum("...ijk,...ijk->...ij", d, d).max(axis=(-2, -1)))
    return normals, anchors, h


def kernel_radius_ratios(mesh):
    """rho per cell: the radius of the largest ball in its kernel (the
    Chebyshev center LP, 0 when it fails) over its diameter."""
    dim = mesh.dim
    rho = np.empty(mesh.n_cells)
    for i in range(mesh.n_cells):
        normals, anchors, h = kernel_halfspaces(mesh, i)
        res = scipy.optimize.linprog(
            [0.0] * dim + [-1.0],
            A_ub=np.column_stack([normals, np.ones(len(normals))]),
            b_ub=np.einsum("ij,ij->i", normals, anchors),
            bounds=[(None, None)] * dim + [(0.0, None)], method="highs")
        rho[i] = (res.x[dim] if res.success else 0.0) / h
    return rho


# ---------------------------------------------------------------------------
# the textbook basis values and gradients


def direct_eval_and_grad(basis, pts):
    """Values (npts, n) and gradients (npts, n, dim) of a scaled monomial
    basis, one pow per (point, monomial, dim)."""
    rel = (pts - basis.center) / basis.scale
    alpha = basis.indices
    vals = np.prod(rel[:, None, :] ** alpha[None], axis=2)
    grads = np.empty(vals.shape + (basis.dim,))
    for d in range(basis.dim):
        lowered = alpha.copy()
        lowered[:, d] = np.maximum(alpha[:, d] - 1, 0)
        grads[:, :, d] = alpha[:, d] / basis.scale * np.prod(
            rel[:, None, :] ** lowered[None], axis=2)
    return vals, grads


# ---------------------------------------------------------------------------
# the plain projector solve and load of k <= 2, and the patch polynomial


def _refined_solve(A, B):
    X = np.linalg.solve(A, B)
    X += np.linalg.solve(A, B - A @ X)
    return X


def plain_projectors(st, B, bnd_mean_dof, bnd_mean_mono):
    """element2d._solve_projectors with the monomial systems solved as
    they stand, each with one step of iterative refinement."""
    n_total, nm = st.layout.n_total, st.layout.n_moment
    B[..., n_total - nm:] -= (st.measure[:, None, None]
                              * st.basis.laplacian_map()[..., :nm])
    Gc = st.Gt.copy()
    Gc[:, 0] = bnd_mean_mono
    Bc = B.copy()
    Bc[:, 0] = bnd_mean_dof
    st.pi_nabla_star = _refined_solve(Gc, Bc)
    st.pi_nabla = st.d_mat @ st.pi_nabla_star
    if st.k == 1:
        st.pi_zero = st.pi_nabla_star
        return
    M = st.H @ st.pi_nabla_star
    M[:, :nm] = 0.0
    rows = np.arange(nm)
    M[:, rows, n_total - nm + rows] = st.measure[:, None]
    st.pi_zero = _refined_solve(st.H, M)


def plain_load(st, f):
    """The load of a stack of degree k <= 2 against P1: through pi_zero
    itself at k = 1, through H's P1 block at k = 2."""
    qp = st._qp
    fvals = np.asarray(f(qp.reshape(-1, qp.shape[-1]))).reshape(qp.shape[:-1])
    nj = st.basis.dim + 1
    C = (st.pi_zero if st.k == 1 else
         np.linalg.solve(st.H[:, :nj, :nj], st.H[:, :nj] @ st.pi_zero))
    return (np.swapaxes(C, -1, -2) @ st._integrals(fvals, 1)[..., None])[..., 0]


def patch_case(dim, k):
    """u, grad u and f = -laplacian u of the patch polynomial of
    study.get_case("patch", dim, k), by pow."""
    idx = pb.multi_indices(dim, k)
    rng = np.random.default_rng(1234 + 10 * dim + k)
    coeffs = rng.uniform(-1.0, 1.0, size=len(idx))

    def monomials(p, powers):
        return np.prod(np.atleast_2d(p)[:, None, :] ** powers[None], axis=2)

    def u(p):
        return monomials(p, idx) @ coeffs

    def grad(p):
        g = np.empty((len(np.atleast_2d(p)), dim))
        for d in range(dim):
            lowered = idx.copy()
            lowered[:, d] = np.maximum(idx[:, d] - 1, 0)
            g[:, d] = monomials(p, lowered) @ (coeffs * idx[:, d])
        return g

    def f(p):
        total = np.zeros(len(np.atleast_2d(p)))
        for d in range(dim):
            a = idx[:, d]
            lowered = idx.copy()
            lowered[:, d] = np.maximum(a - 2, 0)
            total += monomials(p, lowered) @ (coeffs * a * (a - 1))
        return -total

    return u, grad, f


# ---------------------------------------------------------------------------
# the projected error norms, one projector at a time


def errors_by_cell(system, x_full, case, degree):
    """The L2 and H1 errors of both projections of x_full against case,
    with basis gradients and one einsum per cell and projector."""
    acc = {"h1_pinabla": 0.0, "h1_pizero": 0.0,
           "l2_pinabla": 0.0, "l2_pizero": 0.0}
    for i, el in enumerate(system.elements):
        dofs = x_full[system.dofmap.cell_dofs(i)]
        g = el.geometry
        if system.mesh.dim == 2:
            qp, qw = pb.polygon_quadrature(g.points, g.star_center, degree)
        else:
            qp, qw = pb._fan_quadrature(g.star_center, el._fan, el._fan_jac,
                                        degree)
        vals, grads = direct_eval_and_grad(el.basis, qp)
        uex = np.asarray(case.u(qp))
        gex = np.asarray(case.grad(qp))
        for proj, tag in ((el.pi_nabla_star, "pinabla"),
                          (el.pi_zero, "pizero")):
            c = proj @ dofs
            du = vals @ c - uex
            acc["l2_" + tag] += float(qw @ du**2)
            dg = np.einsum("qnd,n->qd", grads, c) - gex
            acc["h1_" + tag] += float(qw @ np.einsum("qd,qd->q", dg, dg))
    return {key: math.sqrt(max(val, 0.0)) for key, val in acc.items()}


def main():
    fixdir = Path(__file__).parent / "fixtures"
    fixdir.mkdir(exist_ok=True)
    for stab in ("s1", "s2"):
        k_mat = klocal_unit_square_k1(stab)
        out = {
            "description": f"dense oracle K_local, unit square, k=1, {stab}",
            "matrix": [[float(v) for v in row] for row in k_mat],
        }
        path = fixdir / f"klocal_unit_square_k1_{stab}.json"
        path.write_text(json.dumps(out, indent=1))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
