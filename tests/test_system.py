"""Tests for global dof mapping, sparse assembly, and the linear solve."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from polyvem import mesh as pm
from polyvem import system as ps


# ---------------------------------------------------------------------------
# dof map


def test_dofmap_counts_2d():
    m = pm.generate_square_mesh(2, "uniform")
    dm = ps.GlobalDofMap(m, 3)
    assert dm.n_total == 9 + 12 * 2 + 4 * 3
    assert int(np.sum(dm.boundary)) == 8 + 8 * 2
    assert len(dm.free) + len(dm.fixed) == dm.n_total

    dm1 = ps.GlobalDofMap(m, 1)
    assert dm1.n_total == 9
    assert len(dm1.free) == 1


def test_dofmap_counts_3d():
    m = pm.generate_cube_mesh(2, "uniform")
    dm = ps.GlobalDofMap(m, 2)
    assert dm.n_total == 27 + 54 + 36 + 8
    # interior entities: 1 vertex, 6 edges, 12 faces, 8 cells
    assert len(dm.free) == 1 + 6 + 12 + 8
    dm1 = ps.GlobalDofMap(m, 1)
    assert dm1.n_total == 27
    assert len(dm1.free) == 1


def test_dofmap_shares_edge_dofs_between_cells():
    m = pm.generate_square_mesh(2, "uniform")
    dm = ps.GlobalDofMap(m, 2)
    d0 = set(dm.cell_dofs(0))
    d1 = set(dm.cell_dofs(1))
    shared = d0 & d1
    # neighboring cells share two vertices and one edge node
    assert len(shared) == 3
    for i in range(m.n_cells):
        assert len(dm.cell_dofs(i)) == len(m.cells[i]) * 2 + 1


# ---------------------------------------------------------------------------
# assembly


def test_one_cell_system_is_empty():
    m = pm.generate_square_mesh(1, "uniform")
    sys_ = ps.assemble(m, 1, "s2", f=lambda p: np.ones(len(p)))
    assert sys_.A.shape == (0, 0)
    assert sys_.b.size == 0
    x, info = sys_.solve()
    assert np.allclose(x, 0.0)
    assert x.shape == (4,)


def test_n2_k1_single_dof_frozen_values():
    m = pm.generate_square_mesh(2, "uniform")
    sys_s1 = ps.assemble(m, 1, "s1")
    assert sys_s1.A.shape == (1, 1)
    assert math.isclose(sys_s1.A[0, 0], 3.0, rel_tol=1e-13)
    sys_s2 = ps.assemble(m, 1, "s2")
    assert math.isclose(sys_s2.A[0, 0], 2.0 + 4.0 * math.sqrt(2.0), rel_tol=1e-13)


def test_assembly_matches_dense_scatter():
    m = pm.generate_square_mesh(2, "distorted(11)")
    k = 2
    sys_ = ps.assemble(m, k, "s2")
    dm = sys_.dofmap
    dense = np.zeros((dm.n_total, dm.n_total))
    for i, el in enumerate(sys_.elements):
        idx = dm.cell_dofs(i)
        dense[np.ix_(idx, idx)] += el.local_stiffness("s2")
    free = dm.free
    assert np.allclose(sys_.A.toarray(), dense[np.ix_(free, free)],
                       rtol=1e-13, atol=1e-13)


def test_assembly_symmetry_exact():
    m = pm.generate_square_mesh(4, "smalledge(0.05)")
    sys_ = ps.assemble(m, 2, "s2")
    diff = (sys_.A - sys_.A.T).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_assembly_linearity():
    m = pm.generate_square_mesh(3, "uniform")

    def f1(p):
        return np.sin(p[:, 0])

    def f2(p):
        return p[:, 1] ** 2

    b1 = ps.assemble(m, 2, "s2", f=f1).b
    b2 = ps.assemble(m, 2, "s2", f=f2).b
    b12 = ps.assemble(m, 2, "s2", f=lambda p: f1(p) + f2(p)).b
    scale = max(np.max(np.abs(b12)), 1e-30)
    assert np.max(np.abs(b12 - (b1 + b2))) <= 1e-13 * scale


def test_assembly_bit_deterministic():
    m = pm.generate_square_mesh(3, "distorted(5)")
    a = ps.assemble(m, 3, "s2", f=lambda p: np.sin(3 * p[:, 0] + p[:, 1]))
    b = ps.assemble(m, 3, "s2", f=lambda p: np.sin(3 * p[:, 0] + p[:, 1]))
    assert np.array_equal(a.A.indptr, b.A.indptr)
    assert np.array_equal(a.A.indices, b.A.indices)
    assert np.array_equal(a.A.data, b.A.data)
    assert np.array_equal(a.b, b.b)


def test_full_matrix_kernel_is_constants():
    m = pm.generate_square_mesh(2, "uniform")
    sys_ = ps.assemble(m, 2, "s2")
    A = sys_.A_full.toarray()
    w = np.linalg.eigvalsh(A)
    assert np.sum(w < 1e-12 * np.trace(A)) == 1
    ones = np.ones(A.shape[0])
    assert np.max(np.abs(A @ ones)) <= 1e-12 * np.max(np.abs(A))


# ---------------------------------------------------------------------------
# linear solver


def test_solve_zero_rhs():
    m = pm.generate_square_mesh(4, "uniform")
    sys_ = ps.assemble(m, 1, "s2")
    x, info = sys_.solve()
    assert np.allclose(x, 0.0)
    assert info.converged


def test_solve_linear_identity():
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, size=5)
    A = sp.identity(5, format="csr")
    x, info = ps.solve_linear(A, b)
    assert np.allclose(x, b, atol=1e-14)


def test_solve_linear_random_spd_vs_dense():
    rng = np.random.default_rng(42)
    R = rng.uniform(-1, 1, size=(50, 50))
    A = R.T @ R + 50 * np.eye(50)
    b = rng.uniform(-1, 1, size=50)
    ref = np.linalg.solve(A, b)
    Asp = sp.csr_matrix(A)
    x_direct, info_d = ps.solve_linear(Asp, b, method="direct")
    assert np.max(np.abs(x_direct - ref)) <= 1e-10
    x_cg, info_cg = ps.solve_linear(Asp, b, method="cg", tol=1e-13)
    assert np.max(np.abs(x_cg - ref)) <= 1e-8
    assert info_cg.method == "cg" and info_cg.iterations > 0


def test_solve_linear_not_converged():
    rng = np.random.default_rng(1)
    R = rng.uniform(-1, 1, size=(40, 40))
    A = sp.csr_matrix(R.T @ R + 0.01 * np.eye(40))
    b = rng.uniform(-1, 1, size=40)
    with pytest.raises(ps.NotConverged):
        ps.solve_linear(A, b, method="cg", tol=1e-14, maxiter=2)


def test_solver_auto_picks_direct_at_small_scale():
    m = pm.generate_square_mesh(4, "uniform")
    sys_ = ps.assemble(m, 2, "s2", f=lambda p: np.ones(len(p)))
    x, info = sys_.solve()
    assert info.method == "direct"
    assert info.converged
    assert np.max(np.abs(x)) > 0


# ---------------------------------------------------------------------------
# boundary injection (test-only lifting mode)


def test_injection_reproduces_linear_function():
    m = pm.generate_square_mesh(2, "uniform")
    k = 1

    def u(p):
        return p[:, 0]

    g = ps.interpolate_global(m, k, u)
    sys_ = ps.assemble(m, k, "s2", boundary_values=g)
    x, info = sys_.solve()
    assert math.isclose(x[sys_.dofmap.free[0]], 0.5, abs_tol=1e-12)
    assert np.max(np.abs(x - g)) <= 1e-12


def test_injection_3d_smoke():
    m = pm.generate_cube_mesh(2, "uniform")
    k = 1

    def u(p):
        return 2.0 * p[:, 0] - p[:, 2]

    g = ps.interpolate_global(m, k, u)
    sys_ = ps.assemble(m, k, boundary_values=g)
    x, _ = sys_.solve()
    assert np.max(np.abs(x - g)) <= 1e-11


def test_homogeneous_solve_positive_interior():
    m = pm.generate_cube_mesh(2, "uniform")
    sys_ = ps.assemble(m, 1, f=lambda p: np.ones(len(p)))
    x, info = sys_.solve()
    assert info.converged
    free = sys_.dofmap.free
    assert x[free[0]] > 0.0
