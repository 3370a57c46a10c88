"""Tests for per-cell 2D operators: projectors, stabilizations, stiffness,
load, interpolation, and the dof-based diagnostic seminorm."""

import math

import numpy as np
import pytest

import dense_oracle
from conftest import random_star_polygon
from polyvem import element2d
from polyvem import mesh as pm
from polyvem import polybasis as pb
from polyvem import system as ps
from polyvem.element2d import Element2D


def unit_square():
    return np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)


def l_hexagon():
    return np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)


def interpolate(el, func):
    """The element's slice of the global interpolant of func on the
    one-cell mesh of its polygon."""
    pts = el.geometry.points
    mesh = pm.PolygonalMesh2(pts, [list(range(len(pts)))])
    dofmap = ps.GlobalDofMap(mesh, el.k)
    g = ps.interpolate_global(mesh, el.k, func, [el], dofmap)
    return g[dofmap.cell_dofs(0)]


# ---------------------------------------------------------------------------
# dof layout


@pytest.mark.parametrize("k,nb,nm", [(1, 4, 0), (2, 8, 1), (3, 12, 3), (4, 16, 6)])
def test_dof_counts_square(k, nb, nm):
    el = Element2D(pm.polygon_geometry(unit_square()), k)
    assert el.layout.n_boundary == nb == 4 * k
    assert el.layout.n_moment == nm == k * (k - 1) // 2
    assert el.layout.n_total == nb + nm


def test_dof_counts_polygon_edges_times_k():
    el = Element2D(pm.polygon_geometry(l_hexagon()), 3)
    assert el.layout.n_boundary == 6 * 3
    assert el.layout.n_total == 6 * 3 + 3


# ---------------------------------------------------------------------------
# energy projector


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_projector_reproduces_polynomials(rng, k):
    cells = [unit_square(), l_hexagon()]
    for _ in range(4):
        cells.append(random_star_polygon(rng, small_edge=rng.choice([None, 1e-3])))
    for pts in cells:
        el = Element2D(pm.polygon_geometry(pts), k)
        n = el.basis.n
        # dofs of every basis monomial must project back to that monomial
        err = np.max(np.abs(el.pi_nabla_star @ el.d_mat - np.eye(n)))
        assert err <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_projector_constant_vector(k):
    el = Element2D(pm.polygon_geometry(unit_square()), k)
    v = np.zeros(el.layout.n_total)
    v[: el.layout.n_boundary] = 1.0
    if el.layout.n_moment:
        v[el.layout.n_boundary] = 1.0  # average of m_0
    coeffs = el.pi_nabla_star @ v
    expected = np.zeros(el.basis.n)
    expected[0] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_triangle_k1_projection_is_identity():
    pts = np.array([[0.1, 0.2], [1.3, 0.4], [0.5, 1.1]])
    el = Element2D(pm.polygon_geometry(pts), 1)
    assert np.allclose(el.pi_nabla, np.eye(3), atol=1e-12)
    # three vertex values determine the linear polynomial exactly
    assert np.allclose(el.pi_nabla_star, np.linalg.inv(el.d_mat), atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pi_nabla_idempotent(rng, k):
    pts = random_star_polygon(rng)
    el = Element2D(pm.polygon_geometry(pts), k)
    assert np.allclose(el.pi_nabla @ el.pi_nabla, el.pi_nabla, atol=1e-12)


# ---------------------------------------------------------------------------
# L2 projector


def test_pi_zero_equals_pi_nabla_for_k1(rng):
    el = Element2D(pm.polygon_geometry(random_star_polygon(rng)), 1)
    assert np.array_equal(el.pi_zero, el.pi_nabla_star)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_pi_zero_reproduces_polynomials(rng, k):
    for pts in (unit_square(), random_star_polygon(rng, small_edge=1e-2)):
        el = Element2D(pm.polygon_geometry(pts), k)
        err = np.max(np.abs(el.pi_zero @ el.d_mat - np.eye(el.basis.n)))
        assert err <= 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_pi_zero_moment_structure(rng, k):
    pts = random_star_polygon(rng)
    el = Element2D(pm.polygon_geometry(pts), k)
    area = el.geometry.measure
    nm = el.layout.n_moment
    nb = el.layout.n_boundary
    M = el.H @ el.pi_zero
    Mnab = el.H @ el.pi_nabla_star
    scale = max(area, np.max(np.abs(Mnab)))
    # low moments come straight from the internal dofs
    expect_low = np.zeros((nm, el.layout.n_total))
    expect_low[:, nb:] = area * np.eye(nm)
    assert np.allclose(M[:nm], expect_low, atol=1e-12 * scale)
    # remaining moments are inherited from the energy projection
    assert np.allclose(M[nm:], Mnab[nm:], atol=1e-12 * scale)


def test_pi_zero_moments_by_independent_quadrature(rng):
    pts = unit_square()
    el = Element2D(pm.polygon_geometry(pts), 2)
    v = rng.uniform(-1, 1, size=el.layout.n_total)
    coeffs = el.pi_zero @ v
    qp, qw = pb.polygon_quadrature(pts, el.geometry.star_center, degree=4)
    vals = el.basis.eval(qp) @ coeffs
    basis_vals = el.basis.eval(qp)
    area = el.geometry.measure
    # degree-0 moment equals the stored internal dof
    m0 = np.sum(qw * vals)
    assert math.isclose(m0, area * v[el.layout.n_boundary], abs_tol=1e-12)
    # degree-1 moments equal those of the energy projection
    nab = el.basis.eval(qp) @ (el.pi_nabla_star @ v)
    for j in (1, 2):
        got = np.sum(qw * vals * basis_vals[:, j])
        ref = np.sum(qw * nab * basis_vals[:, j])
        assert math.isclose(got, ref, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# stabilizations


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stab_s1_structure(rng, k):
    pts = random_star_polygon(rng)
    el = Element2D(pm.polygon_geometry(pts), k)
    S = el.stabilization_matrix("s1")
    nb = el.layout.n_boundary
    assert np.allclose(S[:nb, :nb], np.eye(nb))
    assert np.count_nonzero(S[nb:, :]) == 0
    assert np.count_nonzero(S[:, nb:]) == 0
    ones = np.ones(el.layout.n_total)
    n_edges = len(pts)
    assert math.isclose(ones @ S @ ones, k * n_edges, rel_tol=1e-14)


def test_stab_s1_unit_square_k1_identity():
    el = Element2D(pm.polygon_geometry(unit_square()), 1)
    assert np.allclose(el.stabilization_matrix("s1"), np.eye(4))


@pytest.mark.parametrize("kind", ["s2", "s2tilde"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stab_s2_annihilates_constants(rng, k, kind):
    el = Element2D(pm.polygon_geometry(random_star_polygon(rng)), k)
    S = el.stabilization_matrix(kind)
    const = el.d_mat[:, 0]
    assert np.max(np.abs(S @ const)) <= 1e-12 * (1 + np.max(np.abs(S)))
    assert np.allclose(S, S.T, atol=1e-13 * (1 + np.max(np.abs(S))))


def test_stab_s2_hat_energy_unit_square_frozen():
    el = Element2D(pm.polygon_geometry(unit_square()), 1)
    S = el.stabilization_matrix("s2")
    hat = np.zeros(4)
    hat[0] = 1.0
    # trace derivative is +-1 on the two incident unit edges, weight h_D
    assert math.isclose(hat @ S @ hat, 2.0 * math.sqrt(2.0), rel_tol=1e-13)


def test_stab_s2_variants_coincide_on_equilateral_triangle():
    pts = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    for k in (1, 2):
        el = Element2D(pm.polygon_geometry(pts), k)
        S = el.stabilization_matrix("s2")
        St = el.stabilization_matrix("s2tilde")
        assert np.allclose(S, St, rtol=1e-13, atol=1e-13)


def test_stab_s2_zero_on_moment_dofs():
    el = Element2D(pm.polygon_geometry(unit_square()), 3)
    S = el.stabilization_matrix("s2")
    nb = el.layout.n_boundary
    assert np.count_nonzero(S[nb:, :]) == 0
    assert np.count_nonzero(S[:, nb:]) == 0


# ---------------------------------------------------------------------------
# local stiffness


@pytest.mark.parametrize("kind", ["s1", "s2", "s2tilde"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stiffness_polynomial_consistency(rng, k, kind):
    pts = random_star_polygon(rng, small_edge=rng.choice([None, 1e-2]))
    el = Element2D(pm.polygon_geometry(pts), k)
    K = el.local_stiffness(kind)
    got = el.d_mat.T @ K @ el.d_mat
    scale = max(1.0, np.max(np.abs(el.Gt)))
    assert np.max(np.abs(got - el.Gt)) <= 1e-10 * scale
    assert np.allclose(K, K.T, atol=1e-13 * max(1.0, np.max(np.abs(K))))


@pytest.mark.parametrize("kind", ["s1", "s2"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffness_kernel_is_constants(rng, k, kind):
    el = Element2D(pm.polygon_geometry(random_star_polygon(rng)), k)
    K = el.local_stiffness(kind)
    w = np.linalg.eigvalsh(K)
    tol = 1e-12 * np.trace(K)
    assert np.sum(w < tol) == 1
    const = el.d_mat[:, 0]
    assert np.max(np.abs(K @ const)) <= 1e-11 * np.max(np.abs(K))


def test_stiffness_robustness_under_edge_collapse():
    """As an edge degenerates, the stabilized energy of interpolated smooth
    functions must keep tracking the projected energy for s2; for s1 the
    overshoot may grow with the edge ratio and is only recorded. Either way
    the element stays well posed (kernel = constants)."""

    smooth = [
        lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
        lambda p: np.exp(p[:, 0]) * p[:, 1] ** 2,
        lambda p: np.cos(2.0 * p[:, 0] + p[:, 1]),
    ]

    def overshoot(eps, kind):
        m = pm.generate_square_mesh(1, f"smalledge({eps})")
        el = Element2D(pm.polygon_geometry(m.cell_points(0)), 2)
        Kc = el.pi_nabla_star.T @ el.Gt @ el.pi_nabla_star
        Kf = el.local_stiffness(kind)
        ratios = []
        for f in smooth:
            w = interpolate(el, f)
            ratios.append((w @ Kf @ w) / (w @ Kc @ w))
        return max(ratios), Kf

    mus_s2 = []
    for eps in (1e-2, 1e-4, 1e-6):
        mu, Kf = overshoot(eps, "s2")
        mus_s2.append(mu)
        # well-posedness survives the degeneration
        evals = np.linalg.eigvalsh(Kf)
        assert np.sum(evals < 1e-12 * np.trace(Kf)) == 1
    assert all(np.isfinite(mus_s2)) and all(mu >= 1.0 - 1e-12 for mu in mus_s2)
    assert max(mus_s2) <= 3.0 * min(mus_s2)

    mus_s1 = [overshoot(eps, "s1")[0] for eps in (1e-2, 1e-4, 1e-6)]
    assert all(np.isfinite(mus_s1))  # growth permitted, only recorded


# ---------------------------------------------------------------------------
# local load


@pytest.mark.parametrize("k", [1, 2, 3])
def test_load_zero_forcing(k):
    el = Element2D(pm.polygon_geometry(unit_square()), k)
    F = el.local_load(lambda p: np.zeros(len(p)))
    assert np.allclose(F, 0.0)


def test_load_constant_forcing_k1():
    el = Element2D(pm.polygon_geometry(unit_square()), 1)
    F = el.local_load(lambda p: np.ones(len(p)))
    # F_i integrates the projected basis function: pair H row 0 with Pi0
    expected = el.H[0] @ el.pi_zero
    assert np.allclose(F, expected, atol=1e-13)
    assert math.isclose(F.sum(), el.geometry.measure, rel_tol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_load_constant_forcing_hits_first_moment(rng, k):
    el = Element2D(pm.polygon_geometry(random_star_polygon(rng)), k)
    F = el.local_load(lambda p: np.ones(len(p)))
    expected = np.zeros(el.layout.n_total)
    expected[el.layout.n_boundary] = el.geometry.measure
    assert np.allclose(F, expected, atol=1e-12 * max(1.0, el.geometry.measure))


def test_load_moment_rows_match_direct_quadrature(rng):
    k = 3
    pts = random_star_polygon(rng)
    el = Element2D(pm.polygon_geometry(pts), k)

    def f(p):
        return np.sin(p[:, 0]) * np.cos(2.0 * p[:, 1])

    F = el.local_load(f)
    nb = el.layout.n_boundary
    # degree k-2 projection pairs f only against internal moment dofs
    assert np.allclose(F[:nb], 0.0, atol=1e-14)
    nj = pb.n_poly(2, k - 2)
    qp, qw = pb.polygon_quadrature(pts, el.geometry.star_center, degree=2 * k)
    vals = el.basis.eval(qp)
    mvec = vals[:, :nj].T @ (qw * f(qp))
    area = el.geometry.measure
    expected = area * np.linalg.solve(el.H[:nj, :nj], mvec)
    assert np.allclose(F[nb:], expected, rtol=1e-11, atol=1e-13)


# ---------------------------------------------------------------------------
# interpolation


@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolation_reproduces_monomials(rng, k):
    pts = random_star_polygon(rng)
    el = Element2D(pm.polygon_geometry(pts), k)
    for j in range(el.basis.n):
        func = lambda p, j=j: el.basis.eval(p)[:, j]
        dofs = interpolate(el, func)
        assert np.allclose(dofs, el.d_mat[:, j], atol=1e-12)
    zero = interpolate(el, lambda p: np.zeros(len(p)))
    assert np.allclose(zero, 0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_interpolation_error_decays_at_expected_rate(k):
    def zeta(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    hs, errs = [], []
    for scale in (0.4, 0.2, 0.1, 0.05):
        pts = np.array([[0.3, 0.3], [0.3 + scale, 0.3],
                        [0.3 + scale, 0.3 + scale], [0.3, 0.3 + scale]])
        el = Element2D(pm.polygon_geometry(pts), k)
        dofs = interpolate(el, zeta)
        coeffs = el.pi_nabla_star @ dofs
        qp, qw = pb.polygon_quadrature(pts, el.geometry.star_center, degree=2 * k + 6)
        diff = zeta(qp) - el.basis.eval(qp) @ coeffs
        errs.append(math.sqrt(np.sum(qw * diff**2)))
        hs.append(el.geometry.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= k + 1 - 0.2


# ---------------------------------------------------------------------------
# diagnostic seminorm


def test_seminorm_zero_vector():
    el = Element2D(pm.polygon_geometry(unit_square()), 2)
    assert el.seminorm_tbar(np.zeros(el.layout.n_total)) == 0.0


def test_seminorm_constant_frozen_values():
    # ||1||^2 over the square is 1 (k >= 2 only: P_{k-2} must contain 1),
    # and each unit edge contributes h_D * 1 with h_D = sqrt(2)
    el2 = Element2D(pm.polygon_geometry(unit_square()), 2)
    v2 = el2.d_mat[:, 0]
    assert math.isclose(el2.seminorm_tbar(v2),
                        math.sqrt(1.0 + 4.0 * math.sqrt(2.0)), rel_tol=1e-12)
    el1 = Element2D(pm.polygon_geometry(unit_square()), 1)
    v1 = el1.d_mat[:, 0]
    assert math.isclose(el1.seminorm_tbar(v1),
                        math.sqrt(4.0 * math.sqrt(2.0)), rel_tol=1e-12)


def test_seminorm_homogeneity(rng):
    el = Element2D(pm.polygon_geometry(random_star_polygon(rng)), 3)
    v = rng.uniform(-1, 1, size=el.layout.n_total)
    assert math.isclose(el.seminorm_tbar(2.0 * v), 2.0 * el.seminorm_tbar(v),
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the edge table against the sums taken one edge at a time


def edge_cases():
    """The unit square, random star polygons without a small edge and
    with one of relative length 1e-3 or 1e-6, and smalledge cells."""
    rng = np.random.default_rng(7)
    polys = [unit_square()]
    for small in [None] * 4 + [1e-3] * 2 + [1e-6] * 2:
        polys.append(random_star_polygon(rng, small_edge=small))
    for eps in ("0.1", "1e-3"):
        mesh = pm.generate_square_mesh(4, f"smalledge({eps})")
        polys += [mesh.cell_points(0), mesh.cell_points(5)]
    return polys


def edge_rules(k):
    tg, wg = pb.gauss_legendre(k + 2)
    return (pb.gauss_lobatto(k + 1), tg, wg, *pb.edge_gauss_lagrange(k))


def edge_case_elements(monkeypatch, k):
    """The degree-k element of each edge case, with the B (before its
    moment term) and boundary means it handed to the projector solve."""
    seen = []
    solve = element2d._solve_projectors

    def spy(st, B, mean_dof, mean_mono):
        # each element is a stack of one
        seen.append(dict(B=B[0].copy(), mean_dof=mean_dof[0].copy(),
                         mean_mono=mean_mono[0].copy()))
        solve(st, B, mean_dof, mean_mono)

    monkeypatch.setattr(element2d, "_solve_projectors", spy)
    # a standalone element is built on first use
    els = [Element2D(pm.polygon_geometry(pts), k) for pts in edge_cases()]
    for el in els:
        assert el.pi_zero is not None
    assert len(seen) == len(els)
    return list(zip(els, seen))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_edge_table_equals_edge_loop_bitwise(monkeypatch, k):
    for el, seen in edge_case_elements(monkeypatch, k):
        want = dense_oracle.polygon_edge_terms(
            el.geometry.points, k, el.basis, el.geometry.h, el.layout.n_total,
            edge_rules(k))
        assert np.array_equal(el._node_points, want["nodes"])
        for key in ("B", "mean_dof", "mean_mono"):
            assert np.array_equal(seen[key], want[key]), key
        for kind in ("s1", "s2", "s2tilde"):
            assert np.array_equal(el.stabilization_matrix(kind), want[kind])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_boundary_term_equals_gradient_formula(monkeypatch, k):
    # B from the derivative maps against the textbook one: the normal
    # derivatives of the monomials at the Gauss points of each edge
    tg, wg = pb.gauss_legendre(k + 2)
    lag, _ = pb.edge_gauss_lagrange(k)
    for el, seen in edge_case_elements(monkeypatch, k):
        poly = el.geometry
        want = np.zeros_like(seen["B"])
        for e, dofs in enumerate(el._edge_dofs):
            qp = poly.points[e] + tg[:, None] * poly.tangents[e]
            _, grads = dense_oracle.direct_eval_and_grad(el.basis, qp)
            normal_der = (grads @ poly.normals[e]).T
            want[:, dofs] += poly.lengths[e] * normal_der @ (wg[:, None] * lag)
        assert (np.abs(seen["B"] - want).max()
                <= 1e-13 * np.abs(want).max())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_seminorm_equals_edge_loop(k):
    for i, pts in enumerate(edge_cases()):
        el = Element2D(pm.polygon_geometry(pts), k)
        v = np.random.default_rng(i).standard_normal(el.layout.n_total)
        want = dense_oracle.seminorm_tbar(
            el.geometry.points, k, el.H, el.geometry.measure, el.geometry.h, v,
            edge_rules(k))
        assert math.isclose(el.seminorm_tbar(v), want, rel_tol=1e-15)


def relative_move(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def load_forcing(p):
    return np.sin(3.0 * p[:, 0]) * np.cos(2.0 * p[:, 1]) + p[:, 1] ** 2


@pytest.mark.parametrize("k", [1, 2])
def test_orthonormal_solve_moves_low_degrees_by_roundoff(monkeypatch, k):
    # the projectors of every degree are solved in an H-orthonormal basis;
    # at k = 1, 2 they, the stiffness and the load stay within roundoff of
    # the plain monomial solve, on polygons with and without small edges
    rng = np.random.default_rng(2024)
    polys = [pm.polygon_geometry(random_star_polygon(rng, small_edge=small))
             for small in (None, 1e-3, 1e-6, 1e-8) for _ in range(10)]
    with monkeypatch.context() as mp:
        mp.setattr(element2d, "_solve_projectors",
                   dense_oracle.plain_projectors)
        refs = [Element2D(p, k) for p in polys]
        element2d.stack_elements(refs)
    els = [Element2D(p, k) for p in polys]
    element2d.stack_elements(els)
    for el, ref in zip(els, refs):
        for name in ("pi_nabla_star", "pi_zero"):
            assert relative_move(getattr(el, name),
                                 getattr(ref, name)) <= 1e-14, name
        for kind in ("s1", "s2", "s2tilde"):
            assert relative_move(el.local_stiffness(kind),
                                 ref.local_stiffness(kind)) <= 1e-14, kind
        want = dense_oracle.plain_load(ref._stack, load_forcing)[ref._index]
        assert relative_move(el.local_load(load_forcing), want) <= 1e-14
