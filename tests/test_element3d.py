"""Tests for per-cell 3D operators built on face-level 2D machinery."""

import math

import numpy as np
import pytest

from conftest import integrate_monomial_over_box
from polyvem import mesh as pm
from polyvem.element3d import Element3D, build_face_cache


def cube_mesh(family="uniform"):
    return pm.generate_cube_mesh(1, family)


def make_element(mesh, cell_id, k, cache=None):
    if cache is None:
        cache = build_face_cache(mesh, k)
    return Element3D(mesh, cell_id, k, cache)


# ---------------------------------------------------------------------------
# face frames


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.25)"])
def test_face_frame_isometry(family):
    mesh = cube_mesh(family)
    cache = build_face_cache(mesh, 1)
    for face in cache:
        pts3 = mesh.vertices[mesh.faces[face.face_id]]
        pts2 = face.frame.to2d(pts3)
        d3 = np.linalg.norm(pts3[:, None, :] - pts3[None, :, :], axis=2)
        d2 = np.linalg.norm(pts2[:, None, :] - pts2[None, :, :], axis=2)
        assert np.max(np.abs(d3 - d2)) <= 1e-13
        back = face.frame.to3d(pts2)
        assert np.max(np.abs(back - pts3)) <= 1e-13
        # in-frame loop is counterclockwise and the 2D element sees exact area
        x, y = pts2[:, 0], pts2[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0
        assert math.isclose(area, face.element.geometry.measure, rel_tol=1e-13)


def test_face_frame_normal_unit_and_orthogonal():
    mesh = cube_mesh("uniform")
    cache = build_face_cache(mesh, 2)
    for face in cache:
        f = face.frame
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
    assert el2.layout.n_face_moments == 6
    assert el2.layout.n_cell_moments == 1


def test_dof_counts_facesplit():
    mesh = cube_mesh("facesplit(0.25)")
    el = make_element(mesh, 0, 2)
    assert el.layout.n_total == 20 + 24 + 6 + 1


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
    cache = build_face_cache(mesh, k)
    el = make_element(mesh, 0, k, cache)
    rng = np.random.default_rng(5)
    for local, (fid, _sign) in enumerate(mesh.cells[0]):
        face = cache[fid]
        idx = el.layout.face_dof_indices(local)
        ts = rng.uniform(-0.3, 0.3, size=(6, 2))
        pts3 = face.frame.to3d(ts)
        vals3 = el.basis.eval(pts3)
        for beta in range(el.basis.n):
            fdofs = el.d_mat[idx, beta]
            c2 = face.element.pi_zero @ fdofs
            vals2 = face.element.basis.eval(ts) @ c2
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
    i0 = el.layout.n_total - el.layout.n_cell_moments
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
        dofs = el.interpolate(func)
        assert np.allclose(dofs, el.d_mat[:, j], atol=1e-12)


def test_interpolation_commutes_with_face_restriction():
    mesh = cube_mesh("uniform")
    k = 2
    cache = build_face_cache(mesh, k)
    el = make_element(mesh, 0, k, cache)

    def zeta(p):
        return np.sin(p[:, 0] + 0.5 * p[:, 1]) * np.cosh(p[:, 2])

    dofs3 = el.interpolate(zeta)
    for local, (fid, _sign) in enumerate(mesh.cells[0]):
        face = cache[fid]
        idx = el.layout.face_dof_indices(local)

        def trace(q2, face=face):
            return zeta(face.frame.to3d(q2))

        dofs2 = face.element.interpolate(trace)
        assert np.allclose(dofs3[idx], dofs2, atol=1e-12)
