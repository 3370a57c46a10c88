"""Tests for scaled monomial bases, quadrature rules, and trace matrices."""

import math

import numpy as np
import pytest

from conftest import (
    gauss01,
    integrate_monomial_over_box,
    integrate_monomial_over_polygon,
    random_star_polygon,
)
import dense_oracle
from dense_oracle import (
    direct_eval_and_grad,
    edge_trace_matrix,
    normal_derivative_trace_matrix,
)
from polyvem import polybasis as pb


# ---------------------------------------------------------------------------
# multi-index enumeration


def test_multi_indices_2d_order_degree2():
    idx = pb.multi_indices(2, 2)
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(a) for a in idx] == expected


def test_multi_indices_3d_order_degree2():
    idx = pb.multi_indices(3, 2)
    expected = [
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert [tuple(a) for a in idx] == expected


@pytest.mark.parametrize("dim,deg,count", [
    (2, 0, 1), (2, 1, 3), (2, 2, 6), (2, 3, 10), (2, 4, 15),
    (3, 0, 1), (3, 1, 4), (3, 2, 10), (3, 3, 20),
])
def test_n_poly_counts(dim, deg, count):
    assert pb.n_poly(dim, deg) == count
    assert len(pb.multi_indices(dim, deg)) == count


def test_multi_indices_prefix_property():
    # the first n_poly(dim, j) entries of the degree-k list are the degree-j list
    for dim in (2, 3):
        full = pb.multi_indices(dim, 4)
        for j in range(4):
            sub = pb.multi_indices(dim, j)
            assert np.array_equal(full[: pb.n_poly(dim, j)], sub)


# ---------------------------------------------------------------------------
# basis evaluation and derivative maps


def test_first_monomial_is_one(rng):
    basis = pb.ScaledMonomialBasis(2, 3, center=np.array([0.3, -0.2]), scale=0.7)
    pts = rng.uniform(-1, 1, size=(11, 2))
    vals = basis.eval(pts)
    assert np.allclose(vals[:, 0], 1.0)
    assert vals.shape == (11, pb.n_poly(2, 3))


def test_eval_matches_direct_powers(rng):
    center = np.array([0.1, 0.4, -0.3])
    basis = pb.ScaledMonomialBasis(3, 2, center=center, scale=1.3)
    pts = rng.uniform(-1, 1, size=(7, 3))
    vals = basis.eval(pts)
    rel = (pts - center) / 1.3
    for j, alpha in enumerate(basis.indices):
        direct = rel[:, 0] ** alpha[0] * rel[:, 1] ** alpha[1] * rel[:, 2] ** alpha[2]
        assert np.allclose(vals[:, j], direct, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("dim", [2, 3])
def test_eval_and_grad_match_direct_formula(rng, dim, degree):
    # eval builds its power table by running products instead of one pow
    # per monomial; its values stay within 1e-15 relative of the pow
    # formula at these degrees, and its result is C-ordered (BLAS
    # products of it would round differently otherwise)
    center = rng.uniform(-1, 1, size=dim)
    scale = 0.7
    for npts in (1, 3, 5, 10_000):
        pts = center + scale * rng.uniform(-1, 1, size=(npts, dim))
        pts[0] = center
        if npts > 1:
            pts[1] = center + scale * 1e3 * rng.choice([-1, 1], size=dim)
        basis = pb.ScaledMonomialBasis(dim, degree, center, scale)
        vals = basis.eval(pts)
        direct_vals, _ = direct_eval_and_grad(basis, pts)
        np.testing.assert_allclose(vals, direct_vals, rtol=1e-15, atol=0)
        assert vals.flags.c_contiguous


def pow_values(basis, pts):
    """rel ** alpha by pow, one call per (point, monomial, dim), with a
    full exponent array (numpy squares for a stride-0 exponent 2),
    multiplied over the dims in eval's order."""
    rel = (pts - basis.center) / basis.scale
    exponents = np.empty((len(pts),) + basis.indices.shape)
    exponents[:] = basis.indices
    factors = rel[:, None, :] ** exponents
    vals = factors[..., 0].copy()
    for d in range(1, basis.dim):
        vals *= factors[..., d]
    return vals


@pytest.mark.parametrize("degree", range(9))
@pytest.mark.parametrize("dim", [2, 3])
def test_eval_running_products_within_degree_ulps_of_pow(rng, dim, degree):
    # offsets of either sign, up to 1e3 times the scale: column j of the
    # power table is rounded j - 1 times, so each value stays within
    # degree * eps of pow's
    center = rng.uniform(-1, 1, size=dim)
    scale = 0.3
    offsets = rng.uniform(-1, 1, size=(4000, dim))
    offsets *= 10.0 ** rng.uniform(-3, 3, size=(4000, 1))
    pts = center + scale * offsets
    basis = pb.ScaledMonomialBasis(dim, degree, center, scale)
    vals, want = basis.eval(pts), pow_values(basis, pts)
    assert np.all(np.abs(vals - want)
                  <= degree * np.finfo(float).eps * np.abs(want))


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_eval_equals_each_member_bitwise(rng, dim, degree):
    G = 5
    center = rng.uniform(-1, 1, size=(G, dim))
    scale = rng.uniform(0.01, 2.0, size=G)
    pts = center[:, None, :] + rng.uniform(-1e3, 1e3, size=(G, 31, 1)) * \
        rng.uniform(-1, 1, size=(G, 31, dim)) * scale[:, None, None]
    stack = pb.ScaledMonomialBasis(dim, degree, center, scale).eval(pts)
    for g in range(G):
        alone = pb.ScaledMonomialBasis(dim, degree, center[g], scale[g])
        assert np.array_equal(stack[g], alone.eval(pts[g]))


@pytest.mark.parametrize("dim", [2, 3])
def test_derivative_maps_match_gradient(rng, dim):
    center = rng.uniform(-1, 1, size=dim)
    basis = pb.ScaledMonomialBasis(dim, 3, center=center, scale=0.9)
    pts = rng.uniform(-1, 1, size=(9, dim))
    vals = basis.eval(pts)
    _, grads = direct_eval_and_grad(basis, pts)
    maps = basis.derivative_maps()
    # built once per basis and shared by its callers, so read-only
    assert basis.derivative_maps() is maps and not maps.flags.writeable
    for d in range(dim):
        # d/dx_d m_alpha expressed back in the basis must equal grad
        assert np.allclose(vals @ maps[d].T, grads[:, :, d], rtol=1e-12, atol=1e-12)


def test_laplacian_map_is_sum_of_squared_derivatives():
    basis = pb.ScaledMonomialBasis(2, 4, center=np.zeros(2), scale=2.0)
    maps = basis.derivative_maps()
    lap = basis.laplacian_map()
    assert np.allclose(lap, maps[0] @ maps[0] + maps[1] @ maps[1])
    # Laplacian lowers degree by two: rows of degree <= 1 vanish entirely
    degs = basis.indices.sum(axis=1)
    assert np.allclose(lap[:, degs > 2], 0.0)


# ---------------------------------------------------------------------------
# quadrature rules


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_gauss_legendre_unit_interval_exactness(n):
    t, w = pb.gauss_legendre(n)
    assert np.all((t > 0) & (t < 1))
    for j in range(2 * n):
        assert math.isclose(np.sum(w * t**j), 1.0 / (j + 1), rel_tol=1e-13)


@pytest.mark.parametrize("rule, arg", [
    (pb.gauss_legendre, 3),
    pytest.param(lambda d: pb.simplex_rule(2, d), 4, id="triangle_rule-4"),
    pytest.param(lambda d: pb.simplex_rule(3, d), 2,
                 id="tetrahedron_rule-2"),
    pytest.param(lambda n: (pb.gauss_lobatto(n),), 5, id="gauss_lobatto-5"),
    (pb.edge_gauss_lagrange, 3),
    pytest.param(lambda k: (pb._derivative_pattern(3, k),), 2,
                 id="derivative_pattern-2"),
])
def test_cached_rules_are_read_only(rule, arg):
    # the rules are shared by every element: an in-place edit must fail
    # instead of silently corrupting every element built after it
    assert all(a is b for a, b in zip(rule(arg), rule(arg)))
    for a in rule(arg):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0


def test_gauss_lobatto_small_cases():
    assert np.allclose(pb.gauss_lobatto(2), [0.0, 1.0])
    assert np.allclose(pb.gauss_lobatto(3), [0.0, 0.5, 1.0])
    r = 1.0 / math.sqrt(5.0)
    assert np.allclose(pb.gauss_lobatto(4), [0.0, 0.5 * (1 - r), 0.5 * (1 + r), 1.0])


@pytest.mark.parametrize("n", range(2, 13))
def test_1d_rules_equal_legendre_series_construction(n):
    # the scipy.special roots against numpy's Legendre series: Gauss
    # points and weights from leggauss, Lobatto interior nodes as the
    # roots of the derivative of P_{n-1}
    t, w = np.polynomial.legendre.leggauss(n)
    got_t, got_w = pb.gauss_legendre(n)
    assert np.abs(got_t - 0.5 * (t + 1.0)).max() <= 1e-15
    assert np.abs(got_w - 0.5 * w).max() <= 1e-15
    leg = np.zeros(n)
    leg[n - 1] = 1.0
    interior = np.sort(np.polynomial.legendre.Legendre(leg).deriv().roots())
    want = np.concatenate([[0.0], 0.5 * (interior + 1.0), [1.0]])
    assert np.abs(pb.gauss_lobatto(n) - want).max() <= 1e-15


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_edge_interior_nodes_are_lobatto_interior(k):
    nodes = pb.edge_interior_nodes(k)
    assert nodes.shape == (k - 1,)
    assert np.allclose(nodes, pb.gauss_lobatto(k + 1)[1:-1])
    assert np.allclose(nodes, 1.0 - nodes[::-1])  # symmetric about the midpoint


# every degree the package asks for: 2D k=4 errors integrate at degree
# 12, 3D k=2 errors at degree 8
@pytest.mark.parametrize("deg", range(13))
def test_triangle_rule_exactness(deg):
    pts, w = pb.simplex_rule(2, deg)
    assert np.isclose(np.sum(w), 0.5)
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
            assert math.isclose(got, exact, rel_tol=1e-12), (a, b)


@pytest.mark.parametrize("deg", range(13))
def test_tetrahedron_rule_exactness(deg):
    pts, w = pb.simplex_rule(3, deg)
    assert np.isclose(np.sum(w), 1.0 / 6.0)
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            for c in range(deg + 1 - a - b):
                exact = (
                    math.factorial(a) * math.factorial(b) * math.factorial(c)
                    / math.factorial(a + b + c + 3)
                )
                got = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                assert math.isclose(got, exact, rel_tol=1e-12), (a, b, c)


@pytest.mark.parametrize("dim", [2, 3])
def test_simplex_rule_size_and_positive_weights(dim):
    for deg in range(17):
        pts, w = pb.simplex_rule(dim, deg)
        assert pts.shape == ((deg // 2 + 1) ** dim, dim), deg
        assert np.all(w > 0.0), deg
        assert math.isclose(math.fsum(w), 1.0 / math.factorial(dim),
                            rel_tol=1e-14), deg


@pytest.mark.parametrize("dim, reference", [
    (2, dense_oracle.triangle_rule), (3, dense_oracle.tetrahedron_rule)])
def test_simplex_rule_equals_reference_bitwise(dim, reference):
    for deg in range(17):
        for got, want in zip(pb.simplex_rule(dim, deg), reference(deg)):
            assert np.array_equal(got, want), deg


def test_polygon_quadrature_equals_per_edge_reference_bitwise(rng):
    cases = [(random_star_polygon(rng, small_edge=small), None)
             for small in [None, 1e-3, 1e-6] for _ in range(4)]
    # the center lies on the line of the edge (2,1)-(1,1): a zero-area
    # fan triangle that both must skip
    cases.append((np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
                           float), np.array([0.5, 1.0])))
    for pts, center in cases:
        center = pts.mean(axis=0) if center is None else center
        for deg in (0, 2, 5, 8):
            got = pb.polygon_quadrature(pts, center, deg)
            want = dense_oracle.polygon_quadrature(pts, center, deg)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
    n_tri = len(pb.simplex_rule(2, 8)[1])
    assert len(got[1]) == (len(pts) - 1) * n_tri
    assert math.isclose(got[1].sum(), 3.0, rel_tol=1e-14)


def test_polygon_quadrature_matches_divergence_oracle(rng):
    for _ in range(12):
        small = rng.choice([None, 0.05, 1e-4])
        pts = random_star_polygon(rng, small_edge=small)
        center = pts.mean(axis=0)
        h = 1.0
        qp, qw = pb.polygon_quadrature(pts, center, degree=6)
        for alpha in pb.multi_indices(2, 3):
            rel = qp - center
            vals = rel[:, 0] ** alpha[0] * rel[:, 1] ** alpha[1]
            got = np.sum(qw * vals)
            exact = integrate_monomial_over_polygon(pts, center, h, alpha)
            assert math.isclose(got, exact, rel_tol=1e-11, abs_tol=1e-13), alpha


def test_polygon_quadrature_nonconvex_star_center():
    # L-shaped hexagon, star-shaped about (0.75, 0.75) but not its centroid fan-safe
    pts = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    qp, qw = pb.polygon_quadrature(pts, np.array([0.75, 0.75]), degree=2)
    assert math.isclose(np.sum(qw), 3.0, rel_tol=1e-13)
    assert np.all(qw > 0)


# ---------------------------------------------------------------------------
# mass and stiffness matrices of the scaled basis


def unit_square_points():
    return np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float)


def test_mass_matrix_unit_square_k1_frozen():
    pts = unit_square_points()
    center = np.array([0.5, 0.5])
    h = math.sqrt(2.0)
    basis = pb.ScaledMonomialBasis(2, 1, center=center, scale=h)
    qp, qw = pb.polygon_quadrature(pts, center, degree=2)
    H = pb.mass_matrix(basis, qp, qw)
    expected = np.diag([1.0, 1.0 / 24.0, 1.0 / 24.0])
    assert np.allclose(H, expected, atol=1e-14)


def test_mass_matrix_row0_is_monomial_integrals(rng):
    pts = random_star_polygon(rng)
    center = pts.mean(axis=0)
    h = 0.8
    basis = pb.ScaledMonomialBasis(2, 3, center=center, scale=h)
    qp, qw = pb.polygon_quadrature(pts, center, degree=6)
    H = pb.mass_matrix(basis, qp, qw)
    for j, alpha in enumerate(basis.indices):
        exact = integrate_monomial_over_polygon(pts, center, h, alpha)
        assert math.isclose(H[0, j], exact, rel_tol=1e-11, abs_tol=1e-14)
    assert np.allclose(H, H.T, atol=1e-14)


def test_mass_matrix_entries_are_sum_index_integrals(rng):
    # scaled monomials multiply by adding exponents, so every H entry has a
    # closed form through the boundary-reduction oracle
    pts = random_star_polygon(rng, small_edge=1e-3)
    center = pts.mean(axis=0)
    h = 1.7
    basis = pb.ScaledMonomialBasis(2, 2, center=center, scale=h)
    qp, qw = pb.polygon_quadrature(pts, center, degree=4)
    H = pb.mass_matrix(basis, qp, qw)
    for i, ai in enumerate(basis.indices):
        for j, aj in enumerate(basis.indices):
            exact = integrate_monomial_over_polygon(pts, center, h, np.add(ai, aj))
            assert math.isclose(H[i, j], exact, rel_tol=1e-10, abs_tol=1e-14)


def test_mass_matrix_refinement_oracle(rng):
    # refine the star fan into 4^3 subtriangles per wedge with a doubled-degree
    # rule; the base quadrature must agree to tight tolerance on random cells
    for _ in range(20):
        pts = random_star_polygon(rng, small_edge=rng.choice([None, 1e-2]))
        center = pts.mean(axis=0)
        h = float(np.max(np.linalg.norm(pts - center, axis=1)))
        basis = pb.ScaledMonomialBasis(2, 3, center=center, scale=h)
        qp, qw = pb.polygon_quadrature(pts, center, degree=6)
        H = pb.mass_matrix(basis, qp, qw)

        tp, tw = pb.simplex_rule(2, 12)
        Href = np.zeros_like(H)
        n = len(pts)
        levels = 4
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            for r in range(levels):
                for s in range(levels):
                    if r + s >= levels:
                        continue
                    for flip in (False, True):
                        if flip and r + s + 1 >= levels:
                            continue
                        # affine sub-triangle of the barycentric refinement
                        if not flip:
                            v0 = (r / levels, s / levels)
                            v1 = ((r + 1) / levels, s / levels)
                            v2 = (r / levels, (s + 1) / levels)
                        else:
                            v0 = ((r + 1) / levels, (s + 1) / levels)
                            v1 = (r / levels, (s + 1) / levels)
                            v2 = ((r + 1) / levels, s / levels)
                        tri = []
                        for (u, v) in (v0, v1, v2):
                            tri.append(center + u * (a - center) + v * (b - center))
                        tri = np.asarray(tri)
                        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
                        jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
                        sub = tri[0] + tp @ np.array([tri[1] - tri[0], tri[2] - tri[0]])
                        vals = basis.eval(sub)
                        Href += jac * (vals.T * tw) @ vals
        scale = np.max(np.abs(Href))
        assert np.allclose(H, Href, atol=1e-9 * scale)


def test_stiffness_from_mass_k1_frozen(rng):
    for _ in range(5):
        pts = random_star_polygon(rng)
        center = pts.mean(axis=0)
        h = float(rng.uniform(0.5, 2.0))
        basis = pb.ScaledMonomialBasis(2, 1, center=center, scale=h)
        qp, qw = pb.polygon_quadrature(pts, center, degree=2)
        H = pb.mass_matrix(basis, qp, qw)
        Gt = pb.stiffness_from_mass(basis, H)
        area = np.sum(qw)
        expected = np.diag([0.0, area / h**2, area / h**2])
        assert np.allclose(Gt, expected, rtol=1e-12, atol=1e-13)


def test_stiffness_from_mass_against_gradient_quadrature(rng):
    pts = random_star_polygon(rng, small_edge=1e-3)
    center = pts.mean(axis=0)
    h = 1.1
    basis = pb.ScaledMonomialBasis(2, 4, center=center, scale=h)
    qp, qw = pb.polygon_quadrature(pts, center, degree=8)
    H = pb.mass_matrix(basis, qp, qw)
    Gt = pb.stiffness_from_mass(basis, H)
    _, grads = direct_eval_and_grad(basis, qp)
    direct = np.einsum("q,qad,qbd->ab", qw, grads, grads)
    assert np.allclose(Gt, direct, rtol=1e-11, atol=1e-12)


def test_mass_matrix_3d_box_closed_form(rng):
    lo = np.array([0.1, -0.2, 0.3])
    hi = lo + np.array([0.5, 0.8, 0.4])
    center = 0.5 * (lo + hi)
    h = float(np.linalg.norm(hi - lo))
    basis = pb.ScaledMonomialBasis(3, 2, center=center, scale=h)
    # box as two fans is overkill: integrate with the tensorized tet fan via
    # the public polyhedron rule exercised elsewhere; here a plain product
    # Gauss grid suffices as an independent check of mass_matrix itself
    t, w = gauss01(4)
    X, Y, Z = np.meshgrid(
        lo[0] + t * (hi[0] - lo[0]),
        lo[1] + t * (hi[1] - lo[1]),
        lo[2] + t * (hi[2] - lo[2]),
        indexing="ij",
    )
    qp = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    WX, WY, WZ = np.meshgrid(w, w, w, indexing="ij")
    qw = (WX * WY * WZ).ravel() * np.prod(hi - lo)
    H = pb.mass_matrix(basis, qp, qw)
    for i, ai in enumerate(basis.indices):
        for j, aj in enumerate(basis.indices):
            exact = integrate_monomial_over_box(lo, hi, center, h, np.add(ai, aj))
            assert math.isclose(H[i, j], exact, rel_tol=1e-12, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# trace matrices on edges


def test_edge_trace_constant_and_linear():
    center = np.array([0.5, 0.5])
    h = math.sqrt(2.0)
    basis = pb.ScaledMonomialBasis(2, 1, center=center, scale=h)
    p0 = np.array([0.0, 0.0])
    p1 = np.array([1.0, 0.0])
    T = edge_trace_matrix(basis, p0, p1)
    # row alpha holds coefficients of m_alpha(x(t)) in powers of t on [0,1]
    assert np.allclose(T[0], [1.0, 0.0])
    # m_(1,0) along the bottom edge: (t - 0.5)/h -> [-0.5/h, 1/h]
    assert np.allclose(T[1], [-0.5 / h, 1.0 / h])
    # m_(0,1) is constant -0.5/h on that edge
    assert np.allclose(T[2], [-0.5 / h, 0.0])


def test_edge_trace_evaluates_correctly(rng):
    center = rng.uniform(-1, 1, size=2)
    h = 0.9
    basis = pb.ScaledMonomialBasis(2, 3, center=center, scale=h)
    p0, p1 = rng.uniform(-1, 1, size=(2, 2))
    T = edge_trace_matrix(basis, p0, p1)
    t = np.linspace(0, 1, 7)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    vals = basis.eval(pts)
    powers = t[:, None] ** np.arange(T.shape[1])[None, :]
    assert np.allclose(powers @ T.T, vals, rtol=1e-12, atol=1e-12)


def test_normal_derivative_trace_frozen_examples():
    center = np.array([0.5, 0.5])
    h = math.sqrt(2.0)
    # k=1: gradient fields are constant
    basis1 = pb.ScaledMonomialBasis(2, 1, center=center, scale=h)
    p0 = np.array([0.0, 0.0])
    p1 = np.array([1.0, 0.0])
    n = np.array([0.0, -1.0])  # outward on the bottom edge
    Tn = normal_derivative_trace_matrix(basis1, p0, p1, n)
    assert Tn.shape == (3, 1)
    assert np.allclose(Tn[0], [0.0])
    assert np.allclose(Tn[1], [0.0])          # n . grad m_(1,0) = 0
    assert np.allclose(Tn[2], [-1.0 / h])     # n . grad m_(0,1) = -1/h

    # k=2 on the right edge x=1: n . grad m_(2,0) = 2(x-0.5)/h^2 = 1/h^2 there
    basis2 = pb.ScaledMonomialBasis(2, 2, center=center, scale=h)
    q0 = np.array([1.0, 0.0])
    q1 = np.array([1.0, 1.0])
    Tn2 = normal_derivative_trace_matrix(basis2, q0, q1, np.array([1.0, 0.0]))
    row = Tn2[3]  # alpha = (2,0)
    assert np.allclose(row, [1.0 / h**2, 0.0])


def test_normal_derivative_trace_evaluates_correctly(rng):
    center = rng.uniform(-1, 1, size=2)
    basis = pb.ScaledMonomialBasis(2, 3, center=center, scale=1.2)
    p0, p1 = rng.uniform(-1, 1, size=(2, 2))
    d = p1 - p0
    n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    Tn = normal_derivative_trace_matrix(basis, p0, p1, n)
    t = np.linspace(0, 1, 6)
    pts = p0[None, :] + t[:, None] * d[None, :]
    _, grads = direct_eval_and_grad(basis, pts)
    direct = grads @ n
    powers = t[:, None] ** np.arange(Tn.shape[1])[None, :]
    assert np.allclose(powers @ Tn.T, direct, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("small_edge", [None, 1e-6])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_edge_gauss_values_match_trace_matrices(rng, k, small_edge):
    # elements evaluate edge traces directly at the Gauss points; that must
    # agree with expanding the trace in powers of t and evaluating there
    t, _ = pb.gauss_legendre(k + 2)
    for _ in range(5):
        pts = random_star_polygon(rng, small_edge=small_edge)
        center = pts.mean(axis=0)
        h = float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=-1)))
        basis = pb.ScaledMonomialBasis(2, k, center=center, scale=h)
        for p0, p1 in zip(pts, np.roll(pts, -1, axis=0)):
            d = p1 - p0
            n = np.array([d[1], -d[0]]) / np.linalg.norm(d)
            qp = p0 + t[:, None] * d
            T = edge_trace_matrix(basis, p0, p1)
            via_trace = T @ (t[:, None] ** np.arange(T.shape[1])).T
            direct = basis.eval(qp).T
            np.testing.assert_allclose(direct, via_trace, rtol=1e-13,
                                       atol=1e-13 * np.abs(via_trace).max())
            Tn = normal_derivative_trace_matrix(basis, p0, p1, n)
            via_trace = Tn @ (t[:, None] ** np.arange(Tn.shape[1])).T
            direct = (direct_eval_and_grad(basis, qp)[1] @ n).T
            np.testing.assert_allclose(direct, via_trace, rtol=1e-13,
                                       atol=1e-13 * np.abs(via_trace).max())


# ---------------------------------------------------------------------------
# Lagrange matrices for nodal edge traces


def test_lagrange_matrix_values_and_derivative():
    nodes = np.array([0.0, 1.0])
    L = pb.lagrange_matrix(nodes, np.array([0.25]))
    assert np.allclose(L, [[0.75, 0.25]])
    Ld = pb.lagrange_matrix(nodes, np.array([0.25]), deriv=True)
    assert np.allclose(Ld, [[-1.0, 1.0]])


def test_lagrange_matrix_partition_of_unity(rng):
    nodes = np.concatenate([[0.0], pb.edge_interior_nodes(4), [1.0]])
    ts = rng.uniform(0, 1, size=9)
    L = pb.lagrange_matrix(nodes, ts)
    assert np.allclose(L.sum(axis=1), 1.0, atol=1e-12)
    # cardinal property at the nodes themselves
    Lnode = pb.lagrange_matrix(nodes, nodes)
    assert np.allclose(Lnode, np.eye(len(nodes)), atol=1e-11)
    # derivative of the constant function vanishes
    Ld = pb.lagrange_matrix(nodes, ts, deriv=True)
    assert np.allclose(Ld.sum(axis=1), 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# orthonormalization of ill-conditioned bases


def test_orthonormal_change_normalizes_mass(rng):
    pts = random_star_polygon(rng, scale=1.0)
    center = pts.mean(axis=0)
    h = float(np.max(np.linalg.norm(pts - center, axis=1)))
    basis = pb.ScaledMonomialBasis(2, 4, center=center, scale=h)
    qp, qw = pb.polygon_quadrature(pts, center, degree=8)
    H = pb.mass_matrix(basis, qp, qw)
    R = pb.orthonormal_change(H)
    # R is upper triangular with positive diagonal, and R^T H R = I
    assert np.allclose(R, np.triu(R))
    assert np.all(np.diag(R) > 0)
    assert np.allclose(R.T @ H @ R, np.eye(len(H)), atol=1e-10)
    assert np.linalg.cond(R.T @ H @ R) < 1.0 + 1e-8
