"""Tests for per-cell 3D operators built on face-level 2D machinery."""

import math

import numpy as np
import pytest

import dense_oracle
from conftest import integrate_monomial_over_box
from polyvem import element2d, element3d
from polyvem import mesh as pm
from polyvem import polybasis as pb
from polyvem.element2d import Element2D
from polyvem.element3d import Element3D
from polyvem.system import GlobalDofMap, build_elements, interpolate_global


def cube_mesh(family="uniform"):
    return pm.generate_cube_mesh(1, family)


def face_elements(mesh, k):
    """The 2D element of every mesh face, by face id."""
    return [Element2D(mesh.face_chart(fid)[1], k)
            for fid in range(mesh.n_faces)]


def make_element(mesh, cell_id, k, faces=None):
    if faces is None:
        faces = face_elements(mesh, k)
    return Element3D(GlobalDofMap(mesh, k), cell_id, faces)


def interpolate(el, func):
    """The slice of the global interpolant of func on el's one-cell mesh
    that el's dofs pick out."""
    assert el.mesh.n_cells == 1
    dofmap = GlobalDofMap(el.mesh, el.k)
    g = interpolate_global(el.mesh, el.k, func, [el], dofmap)
    return g[dofmap.cell_dofs(el.cell_id)]


# ---------------------------------------------------------------------------
# face frames


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.25)"])
def test_face_frame_isometry(family):
    mesh = cube_mesh(family)
    faces = face_elements(mesh, 1)
    for fid, fel in enumerate(faces):
        frame = mesh.face_chart(fid)[0]
        pts3 = mesh.vertices[mesh.faces[fid]]
        pts2 = frame.to2d(pts3)
        d3 = np.linalg.norm(pts3[:, None, :] - pts3[None, :, :], axis=2)
        d2 = np.linalg.norm(pts2[:, None, :] - pts2[None, :, :], axis=2)
        assert np.max(np.abs(d3 - d2)) <= 1e-13
        back = frame.to3d(pts2)
        assert np.max(np.abs(back - pts3)) <= 1e-13
        # in-frame loop is counterclockwise and the 2D element sees exact area
        x, y = pts2[:, 0], pts2[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0
        assert math.isclose(area, fel.geometry.measure, rel_tol=1e-13)


def test_face_frame_normal_unit_and_orthogonal():
    mesh = cube_mesh("uniform")
    for fid in range(mesh.n_faces):
        f = mesh.face_chart(fid)[0]
        assert math.isclose(np.linalg.norm(f.normal), 1.0, rel_tol=1e-14)
        assert abs(f.axes[0] @ f.normal) <= 1e-14
        assert abs(f.axes[1] @ f.normal) <= 1e-14
        assert abs(f.axes[0] @ f.axes[1]) <= 1e-14


# ---------------------------------------------------------------------------
# dof layout


def test_dof_counts_cube():
    mesh = cube_mesh("uniform")
    el1 = make_element(mesh, 0, 1)
    assert el1.layout.n_total == 8
    el2 = make_element(mesh, 0, 2)
    # 8 vertices + 12 edge nodes + 6 face moments + 1 cell moment
    assert el2.layout.n_total == 27
    assert el2.layout.n_boundary == 8 + 12 + 6
    assert el2.layout.n_moment == 1


def test_dof_counts_facesplit():
    mesh = cube_mesh("facesplit(0.25)")
    el = make_element(mesh, 0, 2)
    assert el.layout.n_total == 20 + 24 + 6 + 1


def permuted_face_records(mesh, seed):
    """The mesh with each cell's [face, sign] records shuffled."""
    rng = np.random.default_rng(seed)
    cells = [[cell[j] for j in rng.permutation(len(cell))]
             for cell in mesh.cells]
    assert cells != mesh.cells
    return pm.PolyhedralMesh3(mesh.vertices, mesh.faces, cells).validate()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family",
                         ["uniform", "facesplit(0.05)", "facesplit(0.5)"])
def test_dof_order_equals_reference_bitwise(family, n):
    stored = pm.generate_cube_mesh(n, family)
    for mesh in (stored, permuted_face_records(stored, n)):
        for k in (1, 2, 3, 4):
            dofmap = GlobalDofMap(mesh, k)
            faces = face_elements(mesh, k)
            for i in range(mesh.n_cells):
                want = dense_oracle.cell_dofs(mesh, k, i)
                assert np.array_equal(dofmap.cell_dofs(i), want)
                el = Element3D(dofmap, i, faces)
                want = dense_oracle.cell_face_dofs(mesh, k, i)
                assert len(el.face_dofs) == len(want)
                for got, ref in zip(el.face_dofs, want):
                    assert np.array_equal(got, ref), (k, i)


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.05)"])
def test_node_points_equal_edge_loop_bitwise(family):
    for n in (1, 2):
        mesh = pm.generate_cube_mesh(n, family)
        for k in (1, 2, 3):
            for el in build_elements(GlobalDofMap(mesh, k)):
                want = dense_oracle.cell_node_points(
                    mesh, k, el.cell_id, pb.edge_interior_nodes(k))
                assert np.array_equal(el._node_points, want)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_face_dofs_pick_the_face_from_the_cell(k):
    mesh = pm.generate_cube_mesh(2, "facesplit(0.05)")
    dofmap = GlobalDofMap(mesh, k)
    for el in build_elements(dofmap):
        cell = dofmap.cell_dofs(el.cell_id)
        for lf, (fid, _) in enumerate(mesh.cells[el.cell_id]):
            assert np.array_equal(cell[el.face_dofs[lf]],
                                  dofmap.face_dofs(fid))


# ---------------------------------------------------------------------------
# quadrature through the mass matrix


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.1)"])
def test_mass_row0_matches_box_closed_form(family):
    mesh = cube_mesh(family)
    el = make_element(mesh, 0, 2)
    lo = np.zeros(3)
    hi = np.ones(3)
    for j, alpha in enumerate(el.basis.indices):
        exact = integrate_monomial_over_box(
            lo, hi, el.basis.center, el.basis.scale, alpha
        )
        assert math.isclose(el.H[0, j], exact, rel_tol=1e-12, abs_tol=1e-14), alpha


def extruded_prism(polygon):
    """One-cell mesh of a CCW polygon times [0, 1]."""
    m = len(polygon)
    verts = np.vstack([np.column_stack([polygon, np.zeros(m)]),
                       np.column_stack([polygon, np.ones(m)])])
    faces = [list(range(m)), list(range(m, 2 * m))]
    faces += [[a, (a + 1) % m, (a + 1) % m + m, a + m] for a in range(m)]
    cell = [[0, -1], [1, 1]] + [[f, 1] for f in range(2, m + 2)]
    return pm.PolyhedralMesh3(verts, faces, [cell])


def assert_fan_quadrature_matches_geometry(mesh, cell_id):
    # the element's volume rule and the cell geometry share one star fan
    g = pm.cell_geometry(mesh, cell_id)
    el = make_element(mesh, cell_id, 2)
    assert abs(el._qw.sum() - g.measure) <= 1e-13 * g.measure
    centroid = el._qw @ el._qp / g.measure
    assert np.max(np.abs(centroid - g.centroid)) <= 1e-13 * g.h


def test_prism_star_point_falls_back_to_kernel():
    # the tall L of test_star_center_found_when_centroid_outside_kernel
    tall_l = np.array([[0, 0], [6, 0], [6, 1], [1, 1], [1, 6], [0, 6]], float)
    mesh = extruded_prism(tall_l).validate()
    g = pm.cell_geometry(mesh, 0)
    assert math.isclose(g.measure, 11.0, rel_tol=1e-13)
    assert np.allclose(g.centroid, [20.5 / 11, 20.5 / 11, 0.5], atol=1e-13)
    assert g.star_center[0] <= 1.0 + 1e-9 and g.star_center[1] <= 1.0 + 1e-9
    vertex_average = mesh.cell_points(0).mean(axis=0)
    assert vertex_average[0] > 1.0 and vertex_average[1] > 1.0
    assert_fan_quadrature_matches_geometry(mesh, 0)


def test_facesplit_fan_quadrature_matches_geometry():
    mesh = pm.generate_cube_mesh(2, "facesplit(0.2)")
    for i in range(mesh.n_cells):
        assert_fan_quadrature_matches_geometry(mesh, i)


def test_prism_without_kernel_raises():
    u_shape = np.array([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1],
                        [1, 3], [0, 3]], float)
    mesh = extruded_prism(u_shape)
    with pytest.raises(pm.KernelEmpty):
        pm.cell_geometry(mesh, 0)


# ---------------------------------------------------------------------------
# projectors


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.25)"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_projector_reproduces_polynomials_3d(family, k):
    mesh = cube_mesh(family)
    el = make_element(mesh, 0, k)
    err = np.max(np.abs(el.pi_nabla_star @ el.d_mat - np.eye(el.basis.n)))
    assert err <= 1e-10


def test_projector_constant_vector_3d():
    mesh = cube_mesh("uniform")
    el = make_element(mesh, 0, 2)
    coeffs = el.pi_nabla_star @ el.d_mat[:, 0]
    expected = np.zeros(el.basis.n)
    expected[0] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pi_zero_reproduces_polynomials_3d(k):
    mesh = cube_mesh("facesplit(0.2)")
    el = make_element(mesh, 0, k)
    err = np.max(np.abs(el.pi_zero @ el.d_mat - np.eye(el.basis.n)))
    assert err <= 1e-10
    if k == 1:
        assert np.array_equal(el.pi_zero, el.pi_nabla_star)


def test_face_projection_of_cell_monomials():
    mesh = cube_mesh("uniform")
    k = 2
    faces = face_elements(mesh, k)
    el = make_element(mesh, 0, k, faces)
    rng = np.random.default_rng(5)
    for local, (fid, _sign) in enumerate(mesh.cells[0]):
        fel, frame = faces[fid], mesh.face_chart(fid)[0]
        idx = el.face_dofs[local]
        ts = rng.uniform(-0.3, 0.3, size=(6, 2))
        pts3 = frame.to3d(ts)
        vals3 = el.basis.eval(pts3)
        for beta in range(el.basis.n):
            fdofs = el.d_mat[idx, beta]
            c2 = fel.pi_zero @ fdofs
            vals2 = fel.basis.eval(ts) @ c2
            assert np.allclose(vals2, vals3[:, beta], atol=1e-12)


# ---------------------------------------------------------------------------
# stabilization


def test_stab_constant_value_unit_cube_frozen():
    mesh = cube_mesh("uniform")
    # k=2: each square face contributes h_F^{-2}|F| = 1/2 from the face-moment
    # term plus 8 boundary nodes, all scaled by h_D = sqrt(3)
    el2 = make_element(mesh, 0, 2)
    ones = el2.d_mat[:, 0]
    S2 = el2.stabilization_matrix()
    expected2 = math.sqrt(3.0) * 6.0 * (0.5 + 8.0)
    assert math.isclose(ones @ S2 @ ones, expected2, rel_tol=1e-12)
    # k=1 has no face-moment block, leaving only the 4 corner nodes per face
    el1 = make_element(mesh, 0, 1)
    S1 = el1.stabilization_matrix()
    ones1 = el1.d_mat[:, 0]
    expected1 = math.sqrt(3.0) * 6.0 * 4.0
    assert math.isclose(ones1 @ S1 @ ones1, expected1, rel_tol=1e-12)


def test_stab_zero_on_cell_moments():
    mesh = cube_mesh("uniform")
    el = make_element(mesh, 0, 2)
    S = el.stabilization_matrix()
    i0 = el.layout.n_total - el.layout.n_moment
    assert np.count_nonzero(S[i0:, :]) == 0
    assert np.count_nonzero(S[:, i0:]) == 0
    assert np.allclose(S, S.T)


def test_stab_node_term_flat_under_face_degeneration():
    # the stabilization of the constant function depends on node counts and
    # face sizes, none of which change as the split position collapses, so
    # its growth is trivially below the admissible logarithmic envelope
    values, taus = [], []
    for eps in (0.25, 0.01, 1e-4):
        mesh = cube_mesh(f"facesplit({eps})")
        el = make_element(mesh, 0, 2)
        ones = el.d_mat[:, 0]
        S = el.stabilization_matrix()
        values.append(ones @ S @ ones)
        taus.append(pm.quality_report(mesh).max_tau)
    values = np.asarray(values)
    growth = values.max() / values.min()
    assert growth <= math.log(1.0 + taus[-1]) / math.log(1.0 + taus[0])


# ---------------------------------------------------------------------------
# stiffness, load, interpolation


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.25)"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffness_polynomial_consistency_3d(family, k):
    mesh = cube_mesh(family)
    el = make_element(mesh, 0, k)
    K = el.local_stiffness()
    got = el.d_mat.T @ K @ el.d_mat
    scale = max(1.0, np.max(np.abs(el.Gt)))
    assert np.max(np.abs(got - el.Gt)) <= 1e-10 * scale


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.25)"])
def test_stiffness_kernel_is_constants_3d(family):
    mesh = cube_mesh(family)
    for k in (1, 2):
        el = make_element(mesh, 0, k)
        K = el.local_stiffness()
        w = np.linalg.eigvalsh(K)
        assert np.sum(w < 1e-12 * np.trace(K)) == 1
        assert np.max(np.abs(K @ el.d_mat[:, 0])) <= 1e-11 * np.max(np.abs(K))


def test_load_3d_patterns():
    mesh = cube_mesh("uniform")
    el2 = make_element(mesh, 0, 2)
    F0 = el2.local_load(lambda p: np.zeros(len(p)))
    assert np.allclose(F0, 0.0)
    F1 = el2.local_load(lambda p: np.ones(len(p)))
    expected = np.zeros(el2.layout.n_total)
    expected[el2.layout.n_total - 1] = el2.geometry.measure
    assert np.allclose(F1, expected, atol=1e-12)
    el1 = make_element(mesh, 0, 1)
    F = el1.local_load(lambda p: np.ones(len(p)))
    assert np.allclose(F, el1.H[0] @ el1.pi_zero, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_monomials_3d(k):
    mesh = cube_mesh("facesplit(0.25)")
    el = make_element(mesh, 0, k)
    for j in range(el.basis.n):
        func = lambda p, j=j: el.basis.eval(p)[:, j]
        dofs = interpolate(el, func)
        assert np.allclose(dofs, el.d_mat[:, j], atol=1e-12)


def test_interpolation_commutes_with_face_restriction():
    # the face dofs of the global interpolant are the 2D interpolant of
    # the trace on the face element
    mesh = cube_mesh("uniform")
    k = 2
    dofmap = GlobalDofMap(mesh, k)
    elements = build_elements(dofmap)

    def zeta(p):
        return np.sin(p[:, 0] + 0.5 * p[:, 1]) * np.cosh(p[:, 2])

    g = interpolate_global(mesh, k, zeta, elements, dofmap)
    ts = pb.edge_interior_nodes(k)
    for (fid, _), fel in zip(mesh.cells[0], elements[0]._faces):
        frame = mesh.face_chart(fid)[0]

        def trace(q2, frame=frame):
            return zeta(frame.to3d(q2))

        dofs2 = dense_oracle.element_interpolant(
            fel, trace,
            dense_oracle.polygon_node_points(fel.geometry.points, ts))
        assert np.allclose(g[dofmap.face_dofs(fid)], dofs2,
                           atol=1e-12)


def load_forcing(p):
    return np.sin(3.0 * p[:, 0]) * np.cos(2.0 * p[:, 1]) + p[:, 2] ** 2


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.05)"])
@pytest.mark.parametrize("k", [1, 2])
def test_orthonormal_solve_moves_low_degree_cells_by_roundoff(
        monkeypatch, family, k):
    # the face and cell projectors are solved in an H-orthonormal basis;
    # at k = 1, 2 they, the stiffness and the load stay within roundoff of
    # the plain monomial solve
    mesh = pm.generate_cube_mesh(2, family)
    with monkeypatch.context() as mp:
        for module in (element2d, element3d):
            mp.setattr(module, "_solve_projectors",
                       dense_oracle.plain_projectors)
        refs = build_elements(GlobalDofMap(mesh, k))
    els = build_elements(GlobalDofMap(mesh, k))

    def move(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    for el, ref in zip(els, refs):
        for name in ("pi_nabla_star", "pi_zero"):
            assert move(getattr(el, name), getattr(ref, name)) <= 1e-14, name
        assert move(el.local_stiffness(), ref.local_stiffness()) <= 1e-14
        want = dense_oracle.plain_load(ref._stack, load_forcing)[ref._index]
        assert move(el.local_load(load_forcing), want) <= 1e-14
