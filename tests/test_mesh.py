"""Tests for mesh generation, geometry, quality metrics, and mesh I/O."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.optimize

import dense_oracle
from conftest import poly_area, random_star_polygon
from polyvem import mesh as pm


# ---------------------------------------------------------------------------
# 2D generators: counts, topology, areas


def test_uniform_square_n1_counts():
    m = pm.generate_square_mesh(1, "uniform")
    assert m.dim == 2
    assert m.n_cells == 1
    assert m.n_vertices == 4
    assert m.n_edges == 4
    assert np.all(m.boundary_edges)
    m.validate()


def test_uniform_square_n4_counts_and_euler():
    m = pm.generate_square_mesh(4, "uniform")
    assert m.n_cells == 16
    assert m.n_vertices == 25
    assert m.n_edges == 40
    assert m.n_vertices - m.n_edges + m.n_cells == 1
    m.validate()


@pytest.mark.parametrize("family", [
    "uniform", "smalledge(0.1)", "hanging", "distorted(3)",
])
def test_square_families_tile_unit_area(family):
    m = pm.generate_square_mesh(4, family)
    m.validate()
    total = sum(poly_area(m.cell_points(i)) for i in range(m.n_cells))
    assert math.isclose(total, 1.0, rel_tol=1e-12)
    assert m.n_vertices - m.n_edges + m.n_cells == 1


def test_generators_reject_bad_parameters():
    with pytest.raises(ValueError):
        pm.generate_square_mesh(0, "uniform")
    with pytest.raises(ValueError):
        pm.generate_square_mesh(2, "smalledge(0.7)")
    with pytest.raises(ValueError):
        pm.generate_square_mesh(2, "smalledge(0)")
    with pytest.raises(ValueError):
        pm.generate_square_mesh(2, "nosuchfamily")
    with pytest.raises(ValueError):
        pm.generate_cube_mesh(0, "uniform")


def test_smalledge_n2_geometry_frozen():
    m = pm.generate_square_mesh(2, "smalledge(0.1)")
    m.validate()
    assert m.n_cells == 4
    # every grid segment carries one split vertex
    assert m.n_vertices == 21
    assert m.n_edges == 24
    assert m.n_vertices - m.n_edges + m.n_cells == 1
    lengths = np.linalg.norm(
        m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]], axis=1
    )
    assert abs(lengths.min() - 0.05) <= 1e-12
    for i in range(m.n_cells):
        loop = m.cells[i]
        assert len(loop) == 8
        pts = m.cell_points(i)
        el = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        # each cell owns an edge of the minimal length
        assert abs(el.min() - 0.05) <= 1e-12
        assert abs(el.max() / el.min() - 9.0) <= 1e-12


def test_smalledge_tau_ratio_scales_with_eps():
    for eps in (0.25, 0.01, 1e-4):
        m = pm.generate_square_mesh(2, f"smalledge({eps})")
        q = pm.quality_report(m)
        assert abs(q.max_tau - (1.0 - eps) / eps) <= 1e-9 * q.max_tau


def test_hanging_n4_counts_and_conformity():
    m = pm.generate_square_mesh(4, "hanging")
    m.validate()
    assert m.n_cells == 40
    assert m.n_vertices == 65
    assert m.n_edges == 104
    assert m.n_vertices - m.n_edges + m.n_cells == 1
    # a refined neighbor contributes its midpoint vertex to the coarse loop,
    # so the shared geometric segment appears as two mesh edges on both sides
    loop_sizes = sorted(len(c) for c in m.cells)
    assert loop_sizes[0] == 4
    assert loop_sizes[-1] > 4
    counts = np.zeros(m.n_edges, int)
    for i in range(m.n_cells):
        counts[m.cell_edge_ids[i]] += 1
    assert np.all((counts == 1) | (counts == 2))
    assert np.array_equal(counts == 1, m.boundary_edges)


def test_distorted_reproducible_and_bounded():
    a = pm.generate_square_mesh(4, "distorted(3)")
    b = pm.generate_square_mesh(4, "distorted(3)")
    c = pm.generate_square_mesh(4, "distorted(4)")
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)
    ref = pm.generate_square_mesh(4, "uniform")
    delta = np.linalg.norm(a.vertices - ref.vertices, axis=1)
    assert delta.max() <= 0.2 / 4 + 1e-15
    # boundary vertices are never moved
    assert np.allclose(a.vertices[a.boundary_vertices],
                       ref.vertices[ref.boundary_vertices])
    assert delta.max() > 0.0
    a.validate()


# ---------------------------------------------------------------------------
# cell geometry


def test_cell_geometry_unit_square():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)
    g = pm.polygon_geometry(pts)
    assert math.isclose(g.h, math.sqrt(2.0), rel_tol=1e-14)
    assert math.isclose(g.measure, 1.0, rel_tol=1e-14)
    assert np.allclose(g.centroid, [0.5, 0.5])
    assert np.allclose(g.star_center, [0.5, 0.5])


def test_cell_geometry_l_shaped_hexagon():
    pts = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    g = pm.polygon_geometry(pts)
    assert math.isclose(g.measure, 3.0, rel_tol=1e-14)
    assert math.isclose(g.h, 2.0 * math.sqrt(2.0), rel_tol=1e-14)
    # the centroid (5/6, 5/6) can see every vertex, so it is kept
    assert np.allclose(g.star_center, [5.0 / 6.0, 5.0 / 6.0], atol=1e-12)
    assert np.all(g.star_center <= 1.0)


def test_cell_geometry_triangle():
    pts = np.array([[0, 0], [1, 0], [0, 1]], float)
    g = pm.polygon_geometry(pts)
    assert math.isclose(g.measure, 0.5, rel_tol=1e-14)
    assert math.isclose(g.h, math.sqrt(2.0), rel_tol=1e-14)


def test_star_center_found_when_centroid_outside_kernel():
    # tall L with a long foot: kernel is the region x,y <= 1 but the centroid
    # sits outside it, forcing the fallback search
    pts = np.array([[0, 0], [6, 0], [6, 1], [1, 1], [1, 6], [0, 6]], float)
    g = pm.polygon_geometry(pts)
    c = g.star_center
    assert c[0] <= 1.0 + 1e-9 and c[1] <= 1.0 + 1e-9
    centroid = g.centroid
    assert centroid[0] > 1.0 or centroid[1] > 1.0


def test_kernel_empty_raises():
    # U shape: no point sees both prongs
    pts = np.array(
        [[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]], float
    )
    with pytest.raises(pm.KernelEmpty):
        pm.polygon_geometry(pts)


def test_zero_length_edge_raises_mesh_error():
    pts = np.array([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]], float)
    with pytest.raises(pm.MeshError, match="zero-length edge"):
        pm.polygon_geometry(pts)


def test_polygon_record_edge_table():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    g = pm.polygon_geometry(pts)
    assert np.array_equal(g.points, pts)
    assert np.array_equal(g.tangents, [[2, 0], [0, 1], [-2, 0], [0, -1]])
    assert np.array_equal(g.lengths, [2, 1, 2, 1])
    assert np.array_equal(g.normals, [[0, -1], [1, 0], [0, 1], [-1, 0]])


def test_generated_meshes_all_star_shaped():
    for family in ("uniform", "smalledge(0.01)", "hanging", "distorted(7)"):
        m = pm.generate_square_mesh(3, family)
        for i in range(m.n_cells):
            pm.cell_geometry(m, i)  # must not raise KernelEmpty


# ---------------------------------------------------------------------------
# quality report


def test_quality_uniform_square():
    m = pm.generate_square_mesh(4, "uniform")
    q = pm.quality_report(m)
    assert np.allclose(q.tau, 1.0)
    assert math.isclose(q.alpha_h, math.log(2.0), rel_tol=1e-14)
    assert q.beta_h is None
    # inscribed-kernel radius of a square of side s is s/2, h = s*sqrt(2)
    assert np.allclose(q.rho, 0.5 / math.sqrt(2.0), atol=1e-9)


def test_quality_zero_length_edge_raises_mesh_error():
    # an unvalidated mesh with a repeated vertex: a typed error, not an
    # infinite edge ratio from a division by zero
    mesh = pm.PolygonalMesh2([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]],
                             [[0, 1, 2, 3, 4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pm.MeshError, match="zero-length edge"):
            pm.quality_report(mesh)


def test_quality_smalledge_tau_frozen():
    for n in (1, 3):
        m = pm.generate_square_mesh(n, "smalledge(0.1)")
        q = pm.quality_report(m)
        assert abs(q.max_tau - 9.0) <= 1e-12 * 9.0
        assert math.isclose(q.alpha_h, math.log(10.0), rel_tol=1e-12)
        assert np.all(q.tau >= 1.0)
        assert np.all((q.rho > 0) & (q.rho <= 0.5))


@pytest.fixture
def lp_calls(monkeypatch):
    """One entry per scipy.optimize.linprog call made in the test."""
    calls = []
    linprog = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


def generate(dim, n, family):
    """A mesh whose records (2D) or face charts (3D) are already built,
    so that the LPs counted after it are the quality report's."""
    if dim == 2:
        mesh = pm.generate_square_mesh(n, family)
        mesh.cell_stacks()
    else:
        mesh = pm.generate_cube_mesh(n, family)
        mesh.face_frames()
    return mesh


@pytest.mark.parametrize("dim,n,family,lps", [
    (2, 8, "uniform", 1), (2, 8, "smalledge(0.015625)", 1),
    (2, 4, "hanging", 8), (3, 4, "uniform", 1), (3, 2, "facesplit(0.05)", 8),
    (2, 4, "distorted(3)", 16)])
def test_quality_solves_one_lp_per_cell_shape(dim, n, family, lps, lp_calls):
    # grids on dyadic coordinates translate a cell exactly; facesplit(0.05)
    # puts split vertices off the dyadic grid and distorted jitters each
    # vertex, so no two cells there share a shape
    mesh = generate(dim, n, family)
    lp_calls.clear()
    pm.quality_report(mesh)
    assert len(lp_calls) == lps


def test_quality_translate_shares_an_lp_and_mirror_image_does_not(lp_calls):
    # a pentagon with no mirror symmetry; adding 2 or 4 to these
    # coordinates is exact, so the translate's LP data match byte for byte;
    # the half-size copy has the same normals but other anchors
    cell = np.array([[0, 0], [1, 0], [1.25, 0.5], [0.5, 1], [0, 0.75]])
    translate = cell + [2.0, 0.0]
    mirror = cell[::-1] * [-1.0, 1.0] + [4.0, 0.0]  # reversed to stay CCW
    half = 0.5 * cell + [2.0, 0.0]
    for other, lps in ((translate, 1), (mirror, 2), (half, 2)):
        mesh = pm.PolygonalMesh2(np.vstack([cell, other]),
                                 [list(range(5)), list(range(5, 10))])
        mesh.cell_stacks()
        lp_calls.clear()
        rho = pm.quality_report(mesh).rho
        assert len(lp_calls) == lps
        assert rho[1] == pytest.approx(rho[0], rel=1e-13)
        want = dense_oracle.kernel_radius_ratios(mesh)
        assert rho[0] == want[0]
        assert rho[1] == pytest.approx(want[1], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dim,n,family", [
    (2, 4, "distorted(3)"), (2, 8, "smalledge(0.015625)"), (2, 4, "hanging"),
    (2, 4, "smalledge(0.01)"), (3, 3, "uniform"), (3, 2, "facesplit(0.25)"),
    (3, 2, "facesplit(0.05)")])
def test_quality_equals_one_loop_and_one_lp_per_cell(dim, n, family):
    # rho bit for bit on the first cell of each shape, whose LP is the one
    # the reference solves; its translates take its radius over their h
    mesh = generate(dim, n, family)
    q = pm.quality_report(mesh)
    assert np.array_equal(q.tau,
                          dense_oracle.edge_ratios(mesh, mesh.cell_edge_ids))
    if dim == 3:
        assert np.array_equal(
            q.tau_face, dense_oracle.edge_ratios(mesh, mesh.face_edge_ids))
    rho = q.rho
    want = dense_oracle.kernel_radius_ratios(mesh)
    shapes = set()
    for i in range(mesh.n_cells):
        normals, anchors, _ = dense_oracle.kernel_halfspaces(mesh, i)
        key = normals.tobytes() + (anchors - anchors[0]).tobytes()
        if key in shapes:
            assert rho[i] == pytest.approx(want[i], rel=1e-13, abs=0.0)
        else:
            assert rho[i] == want[i]
            shapes.add(key)
    if family.startswith("distorted"):
        assert len(shapes) == mesh.n_cells


# ---------------------------------------------------------------------------
# 3D generators


def test_cube_n1_counts():
    m = pm.generate_cube_mesh(1, "uniform")
    assert m.dim == 3
    assert m.n_cells == 1
    assert m.n_vertices == 8
    assert m.n_faces == 6
    assert m.n_edges == 12
    m.validate()
    g = pm.cell_geometry(m, 0)
    assert math.isclose(g.measure, 1.0, rel_tol=1e-12)
    assert math.isclose(g.h, math.sqrt(3.0), rel_tol=1e-14)


def test_cube_n2_counts_and_euler():
    m = pm.generate_cube_mesh(2, "uniform")
    assert m.n_cells == 8
    assert m.n_faces == 36
    assert m.n_vertices == 27
    assert m.n_edges == 54
    assert m.n_vertices - m.n_edges + m.n_faces - m.n_cells == 1
    m.validate()
    total = sum(pm.cell_geometry(m, i).measure for i in range(m.n_cells))
    assert math.isclose(total, 1.0, rel_tol=1e-12)


def test_cube_volumes_two_ways_agree():
    m = pm.generate_cube_mesh(2, "facesplit(0.2)")
    for i in range(m.n_cells):
        v_fan = pm.cell_geometry(m, i).measure
        v_div = m.cell_volume_divergence(i)
        assert abs(v_fan - v_div) <= 1e-10 * max(v_fan, 1e-30)
        assert math.isclose(v_fan, 0.125, rel_tol=1e-12)


def test_facesplit_n1_frozen():
    m = pm.generate_cube_mesh(1, "facesplit(0.25)")
    m.validate()
    assert m.n_cells == 1
    assert m.n_vertices == 20
    assert m.n_edges == 24
    assert m.n_faces == 6
    assert m.n_vertices - m.n_edges + m.n_faces - m.n_cells == 1
    for f in m.faces:
        assert len(f) == 8
    q = pm.quality_report(m)
    assert q.tau_face is not None
    assert abs(max(q.tau_face) - 3.0) <= 1e-12 * 3.0
    assert math.isclose(q.beta_h, math.log(4.0), rel_tol=1e-12)
    assert math.isclose(q.alpha_h, math.log(4.0), rel_tol=1e-12)


def test_facesplit_n2_counts():
    m = pm.generate_cube_mesh(2, "facesplit(0.1)")
    m.validate()
    assert m.n_cells == 8
    assert m.n_vertices == 81
    assert m.n_edges == 108
    assert m.n_faces == 36
    assert m.n_vertices - m.n_edges + m.n_faces - m.n_cells == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5])
def test_facesplit_equals_reference_bitwise(n, eps):
    base = pm.generate_cube_mesh(n, "uniform")
    verts, faces = dense_oracle.cube_facesplit(base.vertices, base.faces, eps)
    edges, face_edge_ids = dense_oracle.number_edges(faces)
    m = pm.generate_cube_mesh(n, f"facesplit({eps})")
    assert np.array_equal(m.vertices, verts)
    assert m.faces == faces
    assert np.array_equal(m.edges, edges)
    assert m.face_edge_ids == face_edge_ids


def test_nonplanar_face_rejected():
    m = pm.generate_cube_mesh(1, "uniform")
    verts = m.vertices.copy()
    # push one corner off the face planes
    verts[0] += np.array([0.1, 0.05, 0.02])
    bent = pm.PolyhedralMesh3(verts, [list(f) for f in m.faces],
                              [list(c) for c in m.cells])
    with pytest.raises(pm.MeshError):
        bent.validate()


def test_zero_length_edge_rejected_2d():
    verts = [[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]]
    mesh = pm.PolygonalMesh2(verts, [[0, 1, 2, 3, 4]])
    with pytest.raises(pm.MeshError, match="cell 0 has a zero-length edge"):
        mesh.validate()


def test_zero_length_edge_rejected_3d():
    cube = pm.generate_cube_mesh(1, "uniform")
    loop = cube.faces[0]
    verts = np.vstack([cube.vertices, cube.vertices[loop[1]]])
    faces = [loop[:2] + [cube.n_vertices] + loop[2:]] + cube.faces[1:]
    mesh = pm.PolyhedralMesh3(verts, faces, cube.cells)
    with pytest.raises(pm.MeshError, match="face 0 has a zero-length edge"):
        mesh.validate()


def test_collinear_face_named_by_validate():
    cube = pm.generate_cube_mesh(1, "uniform")
    a, b = cube.faces[0][:2]
    mid = 0.5 * (cube.vertices[a] + cube.vertices[b])
    mesh = pm.PolyhedralMesh3(np.vstack([cube.vertices, mid]),
                              cube.faces + [[a, cube.n_vertices, b]],
                              cube.cells)
    with pytest.raises(pm.MeshError, match="face 6 is degenerate"):
        mesh.validate()


def test_mesh_without_cells_rejected():
    with pytest.raises(pm.MeshError, match="mesh has no cells"):
        pm.PolygonalMesh2([[0, 0], [1, 0], [0, 1]], []).validate()
    cube = pm.generate_cube_mesh(1, "uniform")
    with pytest.raises(pm.MeshError, match="mesh has no cells"):
        pm.PolyhedralMesh3(cube.vertices, cube.faces, []).validate()


def test_unused_vertex_rejected_2d():
    square = pm.generate_square_mesh(2, "uniform")
    mesh = pm.PolygonalMesh2(np.vstack([square.vertices, [2.0, 2.0]]),
                             square.cells)
    with pytest.raises(pm.MeshError, match="vertex 9 is used by no cell"):
        mesh.validate()


def test_unused_vertex_rejected_3d():
    cube = pm.generate_cube_mesh(1, "uniform")
    mesh = pm.PolyhedralMesh3(np.vstack([cube.vertices, [2.0, 2.0, 2.0]]),
                              cube.faces, cube.cells)
    with pytest.raises(pm.MeshError, match="vertex 8 is used by no cell"):
        mesh.validate()


def test_unused_face_rejected():
    cube = pm.generate_cube_mesh(1, "uniform")
    mesh = pm.PolyhedralMesh3(cube.vertices, cube.faces + [cube.faces[0]],
                              cube.cells)
    with pytest.raises(pm.MeshError, match="face 6 is used by no cell"):
        mesh.validate()


def quality_without_warnings(mesh):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return pm.quality_report(mesh)


def test_quality_face_with_coincident_first_vertices_raises_mesh_error():
    # the first two vertices of face 0 coincide; its frame would divide
    # by the zero length of the first edge
    cube = pm.generate_cube_mesh(1, "uniform")
    loop = cube.faces[0]
    verts = np.vstack([cube.vertices, cube.vertices[loop[0]]])
    faces = [loop[:1] + [cube.n_vertices] + loop[1:]] + cube.faces[1:]
    mesh = pm.PolyhedralMesh3(verts, faces, cube.cells)
    with pytest.raises(pm.MeshError, match="face 0 has a zero-length edge"):
        quality_without_warnings(mesh)


def test_quality_facesplit_underflowing_edges_raise_mesh_error():
    # eps = 1e-300 puts split vertices on or within 1e-300 of a grid
    # vertex, so edge lengths are zero or their squares underflow
    mesh = pm.generate_cube_mesh(2, "facesplit(1e-300)")
    with pytest.raises(pm.MeshError, match=r"face \d+ has a zero-length edge"):
        quality_without_warnings(mesh)


def test_face_orientation_signs_opposite():
    m = pm.generate_cube_mesh(2, "uniform")
    seen = {}
    for ci, faces in enumerate(m.cells):
        for fid, sign in faces:
            seen.setdefault(fid, []).append(sign)
    for fid, signs in seen.items():
        if len(signs) == 2:
            assert signs[0] == -signs[1]
        else:
            assert m.boundary_faces[fid]


# ---------------------------------------------------------------------------
# records and charts built on stacks


RECORD_FIELDS = ("points", "tangents", "lengths", "normals", "h", "measure",
                 "centroid", "star_center")

U_SHAPE = np.array([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3],
                    [0, 3]], float)


def assert_record_equals(got, want):
    for name in RECORD_FIELDS:
        assert np.array_equal(getattr(got, name), want[name]), name


@pytest.mark.parametrize("family,n", [
    ("distorted(1)", 24), ("distorted(3)", 4), ("smalledge(0.001)", 4),
    ("hanging", 4), ("uniform", 4)])
def test_cell_records_equal_polygon_alone_bitwise(family, n):
    # hanging has cells with 4, 6, 7 and 8 vertices, so several stacks
    m = pm.generate_square_mesh(n, family)
    for i in range(m.n_cells):
        want = dense_oracle.polygon_record(m.cell_points(i))
        assert_record_equals(m.cell_record(i), want)
        assert pm.cell_geometry(m, i) is m.cell_record(i)


@pytest.mark.parametrize("family,n", [
    ("facesplit(0.05)", 3), ("facesplit(0.05)", 4), ("uniform", 3)])
def test_face_charts_equal_face_alone_bitwise(family, n):
    m = pm.generate_cube_mesh(n, family)
    rng = np.random.default_rng(n)
    q2 = rng.uniform(-0.5, 0.5, size=(m.n_faces, 7, 2))
    q3 = rng.uniform(0.0, 1.0, size=(m.n_faces, 5, 3))
    frames = m.face_frames()
    to3d, to2d = frames.to3d(q2), frames.to2d(q3)
    for fid in range(m.n_faces):
        frame, record = m.face_chart(fid)
        want = dense_oracle.face_chart(m.face_points(fid))
        for name in ("origin", "normal", "axes"):
            assert np.array_equal(getattr(frame, name), want[name]), name
        assert_record_equals(record, want)
        # the stacked maps round as one face's
        assert np.array_equal(to3d[fid],
                              want["origin"] + q2[fid] @ want["axes"])
        assert np.array_equal(to2d[fid],
                              (q3[fid] - want["origin"]) @ want["axes"].T)
        assert np.array_equal(frame.to3d(q2[fid]), to3d[fid])


def test_stacked_frames_of_tilted_faces_equal_face_alone_bitwise():
    # the mesh families' faces are axis-aligned, so their normals and
    # axes round trivially; these hexagons lie in random planes
    rng = np.random.default_rng(11)
    faces = []
    for _ in range(30):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        pts2 = random_star_polygon(rng, n_min=6, n_max=6)
        faces.append(pts2 @ q[:2] + rng.uniform(-1, 1, size=3))
    faces = np.array(faces)
    frames = pm.face_frame(faces)
    records = pm.polygon_geometry(frames.to2d(faces))
    for g, pts3 in enumerate(faces):
        want = dense_oracle.face_chart(pts3)
        for name in ("origin", "normal", "axes"):
            assert np.array_equal(getattr(frames[g], name), want[name]), name
        assert_record_equals(records[g], want)


def test_stacked_records_mix_star_test_and_lp_fallback():
    # random hexagons, star-shaped about a point that need not be their
    # centroid, and the tall L, whose centroid lies outside its kernel
    rng = np.random.default_rng(2024)
    tall_l = np.array([[0, 0], [6, 0], [6, 1], [1, 1], [1, 6], [0, 6]], float)
    polys = [random_star_polygon(rng, n_min=6, n_max=6) for _ in range(40)]
    polys.insert(17, tall_l)
    stack = pm.polygon_geometry(np.array(polys))
    fallback = [not np.array_equal(stack.star_center[g], stack.centroid[g])
                for g in range(len(polys))]
    assert fallback[17] and fallback.count(False) > 1
    for g, pts in enumerate(polys):
        want = dense_oracle.polygon_record(pts)
        assert_record_equals(stack[g], want)
        assert_record_equals(pm.polygon_geometry(pts), want)


def without_warnings(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


def test_stacked_record_raises_kernel_empty_for_one_member():
    octagon = np.column_stack([np.cos(np.arange(8) * np.pi / 4),
                               np.sin(np.arange(8) * np.pi / 4)])
    with pytest.raises(pm.KernelEmpty):
        without_warnings(pm.polygon_geometry,
                         np.array([octagon, U_SHAPE, octagon + 3.0]))
    verts = np.vstack([octagon + 5.0, U_SHAPE])
    mesh = pm.PolygonalMesh2(verts, [list(range(8)), list(range(8, 16))])
    with pytest.raises(pm.KernelEmpty):
        without_warnings(mesh.cell_record, 0)


def test_stacked_cell_records_name_first_cell_with_zero_length_edge():
    # cell 2 (a square, in the first stack) and cell 1 (a pentagon, in a
    # later one) each repeat a vertex; the lower id is named
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1],
                      [2, 1], [3, 0], [3, 1], [3, 1]], float)
    cells = [[0, 1, 2, 3], [1, 4, 5, 6, 2], [4, 7, 8, 9]]
    mesh = pm.PolygonalMesh2(verts, cells)
    with pytest.raises(pm.MeshError, match="cell 1 has a zero-length edge"):
        without_warnings(mesh.cell_record, 0)
    with pytest.raises(pm.MeshError, match="cell 1 has a zero-length edge"):
        without_warnings(pm.quality_report, mesh)


def test_stacked_charts_name_first_face_with_zero_length_edge():
    # face 5 keeps four vertices, one of them a copy of its neighbor; face
    # 1 gets a fifth vertex on top of its third, so it sits in a stack
    # built after face 5's; the lower id is named, whichever face is asked
    cube = pm.generate_cube_mesh(1, "uniform")
    faces = [list(f) for f in cube.faces]
    verts = np.vstack([cube.vertices, cube.vertices[faces[5][1]],
                       cube.vertices[faces[1][2]]])
    faces[5][2] = len(verts) - 2
    faces[1].insert(2, len(verts) - 1)
    mesh = pm.PolyhedralMesh3(verts, faces, cube.cells)
    for fid in (0, 5):
        with pytest.raises(pm.MeshError,
                           match="face 1 has a zero-length edge"):
            without_warnings(mesh.face_chart, fid)
    with pytest.raises(pm.MeshError, match="face 1 has a zero-length edge"):
        without_warnings(pm.quality_report, mesh)


def test_stacked_frames_raise_on_a_degenerate_face():
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
    line = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], float)
    with pytest.raises(pm.MeshError, match="face is degenerate"):
        without_warnings(pm.face_frame, np.array([square, line]))


# ---------------------------------------------------------------------------
# mesh file I/O and CLI


def test_mesh_json_roundtrip_2d(tmp_path):
    m = pm.generate_square_mesh(3, "smalledge(0.2)")
    path = tmp_path / "mesh2.json"
    pm.save_mesh(m, path)
    data = json.loads(path.read_text())
    assert data["dim"] == 2
    m2 = pm.load_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.cells == m2.cells
    m2.validate()


def test_mesh_json_roundtrip_3d(tmp_path):
    m = pm.generate_cube_mesh(2, "facesplit(0.25)")
    path = tmp_path / "mesh3.json"
    pm.save_mesh(m, path)
    data = json.loads(path.read_text())
    assert data["dim"] == 3
    assert "faces" in data
    m2 = pm.load_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert m.faces == m2.faces
    assert m.cells == m2.cells
    m2.validate()


def test_cli_mesh_gen_and_check(tmp_path):
    from polyvem.cli import main

    out = tmp_path / "m.json"
    rc = main(["mesh", "gen", "--dim", "2", "--n", "4",
               "--family", "smalledge(0.1)", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert main(["mesh", "check", "--in", str(out)]) == 0

    out3 = tmp_path / "m3.json"
    rc = main(["mesh", "gen", "--dim", "3", "--n", "2",
               "--family", "uniform", "--out", str(out3)])
    assert rc == 0
    assert main(["mesh", "check", "--in", str(out3)]) == 0


def test_cli_mesh_check_prints_quality_extremes(tmp_path, capsys):
    from polyvem.cli import main

    out = tmp_path / "m.json"
    assert main(["mesh", "gen", "--n", "4", "--family", "smalledge(0.01)",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["mesh", "check", "--in", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ok: dim=2")
    fields = dict(line.split(": ") for line in lines[1:])
    assert set(fields) == {"max tau", "min rho"}
    # the short piece of a split segment is 1/99 of the long one
    assert math.isclose(float(fields["max tau"]), 99.0, rel_tol=1e-9)
    rho = pm.quality_report(pm.load_mesh(out)).rho
    assert 0.0 < float(fields["min rho"]) == pytest.approx(rho.min())

    out3 = tmp_path / "m3.json"
    assert main(["mesh", "gen", "--dim", "3", "--n", "2", "--family",
                 "facesplit(0.25)", "--out", str(out3)]) == 0
    capsys.readouterr()
    assert main(["mesh", "check", "--in", str(out3)]) == 0
    fields = dict(line.split(": ")
                  for line in capsys.readouterr().out.splitlines()[1:])
    assert set(fields) == {"max tau", "min rho", "max tau_face"}
    assert math.isclose(float(fields["max tau_face"]), 3.0, rel_tol=1e-9)


def test_cli_mesh_check_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[0,0],[1,0]], "cells": [[0,1]]}')
    from polyvem.cli import main

    assert main(["mesh", "check", "--in", str(bad)]) != 0


def test_cli_mesh_gen_unwritable_out_exit_code(tmp_path, capsys):
    from polyvem.cli import main

    out = tmp_path / "missing" / "m.json"
    assert main(["mesh", "gen", "--n", "2", "--out", str(out)]) == 1
    assert "mesh generation failed:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '[{"dim": 2}]',
    '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "cells": 5}',
    '{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], '
    '"cells": [[0, 1, 2.7]]}',
    '{"dim": 2, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], '
    '"cells": [[0, 1, 2]]}',
], ids=["list", "int-cells", "float-id", "3-columns"])
def test_malformed_mesh_file_raises_mesh_error(tmp_path, capsys, text):
    from polyvem.cli import main

    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(pm.MeshError):
        pm.load_mesh(path).validate()
    assert main(["mesh", "check", "--in", str(path)]) == 1
    assert "invalid mesh:" in capsys.readouterr().err
