"""Tests for global dof mapping, sparse assembly, and the linear solve."""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import dense_oracle
from polyvem import element2d, element3d
from polyvem import mesh as pm
from polyvem import polybasis as pb
from polyvem import study as st
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


@pytest.mark.parametrize("dim", [2, 3])
def test_degree_below_one_rejected(dim):
    m = (pm.generate_square_mesh(2) if dim == 2
         else pm.generate_cube_mesh(1))
    with pytest.raises(ValueError, match="degree must be at least 1"):
        ps.assemble(m, 0)


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


@pytest.mark.parametrize("family",
                         ["uniform", "smalledge(0.1)", "distorted(3)",
                          "hanging"])
def test_dofmap_2d_equals_reference_bitwise(family):
    m = pm.generate_square_mesh(4, family)
    for k in (1, 2, 3, 4):
        dm = ps.GlobalDofMap(m, k)
        for i in range(m.n_cells):
            assert np.array_equal(dm.cell_dofs(i),
                                  dense_oracle.cell_dofs(m, k, i))


def dofmap_meshes():
    for family in ("uniform", "smalledge(0.1)", "distorted(3)", "hanging"):
        yield pm.generate_square_mesh(4, family)
    for family in ("uniform", "facesplit(0.05)"):
        for n in (1, 2):
            yield pm.generate_cube_mesh(n, family)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_edge_dofs_and_walk_equal_edge_loop_bitwise(k):
    for m in dofmap_meshes():
        dm = ps.GlobalDofMap(m, k)
        assert dm.edge_dofs.shape == (m.n_edges, k + 1)
        for eid in range(m.n_edges):
            assert np.array_equal(dm.edge_dofs[eid],
                                  dense_oracle.edge_dofs(m, k, eid))
        npm = pb.n_poly(2, k - 2)
        start = m.n_vertices + m.n_edges * (k - 1)
        if m.dim == 2:
            loops, loop_edges, polygon_dofs = (m.cells, m.cell_edge_ids,
                                               dm.cell_dofs)
        else:
            loops, loop_edges, polygon_dofs = (m.faces, m.face_edge_ids,
                                               dm.face_dofs)
        for j, (loop, eids) in enumerate(zip(loops, loop_edges)):
            want = dense_oracle.walk(m, k, loop, eids, start + j * npm, npm)
            assert np.array_equal(polygon_dofs(j), want)


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


def test_solve_linear_singular_factor_not_converged():
    A = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
    with pytest.raises(ps.NotConverged, match="singular"):
        ps.solve_linear(A, np.ones(3), method="direct")


def test_unused_vertex_solve_not_converged():
    # a vertex no cell uses is a free dof with an empty row
    square = pm.generate_square_mesh(2, "uniform")
    mesh = pm.PolygonalMesh2(np.vstack([square.vertices, [2.0, 2.0]]),
                             square.cells)
    system = ps.assemble(mesh, 1, f=lambda p: np.ones(len(p)))
    with pytest.raises(ps.NotConverged):
        system.solve()


def test_unused_face_solve_not_converged():
    # at k = 2 the moment of a face no cell uses is a free dof with an
    # empty row
    cube = pm.generate_cube_mesh(1, "uniform")
    mesh = pm.PolyhedralMesh3(cube.vertices, cube.faces + [cube.faces[0]],
                              cube.cells)
    system = ps.assemble(mesh, 2, f=lambda p: np.ones(len(p)))
    with pytest.raises(ps.NotConverged):
        system.solve()


@pytest.mark.parametrize("dim,kind,allowed", [
    (2, "3d", "s1, s2, s2tilde"), (2, "s3", "s1, s2, s2tilde"),
    (3, "s2", "3d")])
def test_assemble_checks_stabilization_before_building(monkeypatch, dim,
                                                       kind, allowed):
    mesh = (pm.generate_square_mesh(2, "uniform") if dim == 2
            else pm.generate_cube_mesh(1, "uniform"))

    def no_build(dofmap):
        raise AssertionError("elements built before the check")

    monkeypatch.setattr(ps, "build_elements", no_build)
    with pytest.raises(ValueError, match=f"allowed: {allowed}$"):
        ps.assemble(mesh, 1, kind)


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

    sys_ = ps.assemble(m, k, "s2")
    g = ps.interpolate_global(m, k, u, elements=sys_.elements,
                              dofmap=sys_.dofmap)
    sys_.apply_boundary_values(g)
    x, info = sys_.solve()
    assert math.isclose(x[sys_.dofmap.free[0]], 0.5, abs_tol=1e-12)
    assert np.max(np.abs(x - g)) <= 1e-12


def test_injection_3d_smoke():
    m = pm.generate_cube_mesh(2, "uniform")
    k = 1

    def u(p):
        return 2.0 * p[:, 0] - p[:, 2]

    sys_ = ps.assemble(m, k)
    g = ps.interpolate_global(m, k, u, elements=sys_.elements,
                              dofmap=sys_.dofmap)
    sys_.apply_boundary_values(g)
    x, _ = sys_.solve()
    assert np.max(np.abs(x - g)) <= 1e-11


@functools.cache
def built(dim, family, n, k):
    """(mesh, dofmap, elements) of a generated mesh, shared by the tests
    below, which only read them."""
    m = (pm.generate_square_mesh(n, family) if dim == 2
         else pm.generate_cube_mesh(n, family))
    dofmap = ps.GlobalDofMap(m, k)
    return m, dofmap, ps.build_elements(dofmap)


def smooth(p):
    return (p[:, 0] * p[:, 1] + p[:, -1] / (1.0 + p[:, 0])
            - 0.3 * p[:, -1] ** 2)


# the 3D cases keep their ids, k alone
NODE_CASES = (
    [pytest.param(3, "facesplit(0.05)", 2, k, id=str(k)) for k in (1, 2, 3)]
    + [pytest.param(2, family, 4, k, id=f"{family}-{k}")
       for family in ("smalledge(0.1)", "distorted(3)", "hanging")
       for k in (1, 2, 3, 4)])


@pytest.mark.parametrize("dim,family,n,k", NODE_CASES)
def test_interpolant_node_dofs_are_exact_point_values_3d(dim, family, n, k):
    # every node value is func at the mesh node, lo + t (hi - lo), bit
    # for bit, however many cells and faces share the node
    m, dofmap, elements = built(dim, family, n, k)
    g = ps.interpolate_global(m, k, smooth, elements, dofmap)
    v = m.vertices
    lo, hi = v[m.edges[:, 0]], v[m.edges[:, 1]]
    ts = pb.edge_interior_nodes(k)
    nodes = lo[:, None] + ts[None, :, None] * (hi - lo)[:, None]
    nv, n_nodes = m.n_vertices, m.n_edges * (k - 1)
    assert np.array_equal(g[:nv], smooth(v))
    assert np.array_equal(g[nv:nv + n_nodes], smooth(nodes.reshape(-1, dim)))
    assert np.array_equal(g[:nv + n_nodes], smooth(dofmap.node_points))


INTERP_CASES = (
    [(2, family, 4, k)
     for family in ("smalledge(0.1)", "distorted(3)", "hanging", "uniform")
     for k in (1, 2, 3, 4)]
    + [(3, family, n, k) for family in ("uniform", "facesplit(0.05)")
       for n in (1, 2) for k in (1, 2, 3)])


@pytest.mark.parametrize("dim,family,n,k", INTERP_CASES)
def test_interpolant_equals_cell_by_cell_reference(dim, family, n, k):
    m, dofmap, elements = built(dim, family, n, k)
    n_nodes = len(dofmap.node_points)
    for func in (smooth, st.get_case("sine", dim).u,
                 st.get_case("patch", dim, k).u):
        got = ps.interpolate_global(m, k, func, elements, dofmap)
        want = dense_oracle.interpolate_by_cell(
            m, k, func, elements, dofmap, pb.edge_interior_nodes(k))
        assert np.array_equal(got[n_nodes:], want[n_nodes:])
        assert (np.abs(got[:n_nodes] - want[:n_nodes]).max()
                <= 1e-15 * np.abs(want).max())


@pytest.mark.parametrize("dim,family,n", [(2, "distorted(3)", 4),
                                          (3, "facesplit(0.05)", 2)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interpolant_calls_func_once_per_polygon_and_cell(dim, family, n, k):
    # one call for all node values, then one per polygon and cell moment
    # set: the cells in 2D, the faces and the cells in 3D
    m, dofmap, elements = built(dim, family, n, k)
    calls = []

    def func(p):
        calls.append(len(p))
        return smooth(p)

    ps.interpolate_global(m, k, func, elements, dofmap)
    polygons = m.n_cells if dim == 2 else m.n_faces + m.n_cells
    assert len(calls) == (1 if k == 1 else 1 + polygons)
    assert calls[0] == len(dofmap.node_points)


@pytest.mark.parametrize("dim,family", [(2, "hanging"),
                                        (3, "facesplit(0.25)")])
def test_polygon_geometry_once_per_polygon(monkeypatch, dim, family):
    # each polygon (a 2D cell, a 3D face) is described exactly once, in
    # one stacked record per vertex count, which its element and the
    # quality report take and neighboring cells share
    m = (pm.generate_square_mesh(3, family) if dim == 2
         else pm.generate_cube_mesh(2, family))
    sizes = []
    geometry = pm.polygon_geometry

    def counted(points):
        sizes.append(len(points) if np.ndim(points) == 3 else 1)
        return geometry(points)

    for holder in (pm, ps, element2d):
        monkeypatch.setattr(holder, "polygon_geometry", counted,
                            raising=False)
    sys_ = ps.assemble(m, 2)
    pm.quality_report(m)
    loops = m.cells if dim == 2 else m.faces
    assert sum(sizes) == len(loops)
    assert len(sizes) == len({len(loop) for loop in loops})
    if dim == 2:
        for i, el in enumerate(sys_.elements):
            assert el.geometry is m.cell_record(i)
        return
    owner = {}
    for i, el in enumerate(sys_.elements):
        for (fid, _), fel in zip(m.cells[i], el._faces):
            assert fel.geometry is m.face_chart(fid)[1]
            assert owner.setdefault(fid, fel) is fel
    assert len(owner) == m.n_faces


def test_homogeneous_solve_positive_interior():
    m = pm.generate_cube_mesh(2, "uniform")
    sys_ = ps.assemble(m, 1, f=lambda p: np.ones(len(p)))
    x, info = sys_.solve()
    assert info.converged
    free = sys_.dofmap.free
    assert x[free[0]] > 0.0


# ---------------------------------------------------------------------------
# elements computed in stacks


def wave(p):
    # pointwise only, so its values do not depend on how points are batched
    return np.sin(3.0 * p[:, 0] + p[:, 1])


@pytest.mark.parametrize("family", ["hanging", "smalledge(0.1)"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stacked_elements_equal_elements_built_alone(family, k):
    # hanging has cells with 4, 6, 7 and 8 vertices
    m = pm.generate_square_mesh(4, family)
    stacked = ps.build_elements(ps.GlobalDofMap(m, k))
    assert max(len(el._stack.measure) for el in stacked) > 1
    for i, el in enumerate(stacked):
        alone = element2d.Element2D(pm.polygon_geometry(m.cell_points(i)), k)
        assert len(alone._stack.measure) == 1
        for name in ("pi_nabla_star", "pi_nabla", "pi_zero"):
            assert np.array_equal(getattr(el, name), getattr(alone, name))
        for kind in ("s1", "s2", "s2tilde"):
            assert np.array_equal(el.local_stiffness(kind),
                                  alone.local_stiffness(kind))
        assert np.array_equal(el.local_load(wave), alone.local_load(wave))


def solved(family, k, dim=2):
    """A solved sine level: the system, its solution and error norms."""
    m = (pm.generate_square_mesh(4, family) if dim == 2
         else pm.generate_cube_mesh(2, family))
    case = st.get_case("sine", dim)
    case.f = lambda p: dim * np.pi ** 2 * wave(p)
    sys_ = ps.assemble(m, k, f=case.f)
    x, _ = sys_.solve()
    return sys_, st.compute_errors(m, k, sys_, x, case)


@pytest.mark.parametrize("family,k", [("hanging", 2), ("smalledge(0.1)", 3)])
def test_stacks_split_into_chunks_give_the_same_level(monkeypatch, family,
                                                      k):
    whole_sys, whole_errs = solved(family, k)
    # two or three cells per chunk: every group of the mesh is split
    per_cell = 4 * len(pb.simplex_rule(2, 2 * k + 4)[1])
    monkeypatch.setattr(element2d, "CHUNK_POINTS", 2 * per_cell)
    split_sys, split_errs = solved(family, k)
    sizes = {len(el._stack.measure) for el in split_sys.elements}
    assert max(sizes) < min(len(el._stack.measure)
                            for el in whole_sys.elements[:4])
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(split_sys.A_full, name),
                              getattr(whole_sys.A_full, name))
    assert np.array_equal(split_sys.b, whole_sys.b)
    assert split_errs == whole_errs


@pytest.mark.parametrize("dim,family,n", [(2, "hanging", 4),
                                          (3, "facesplit(0.25)", 2)])
def test_one_element_per_polygon_and_one_stack_per_chunk(monkeypatch, dim,
                                                         family, n):
    m = (pm.generate_square_mesh(n, family) if dim == 2
         else pm.generate_cube_mesh(n, family))
    polygons = ([m.cell_points(i) for i in range(m.n_cells)] if dim == 2
                else [m.face_points(f) for f in range(m.n_faces)])
    k = 2
    counts = {}
    for pts in polygons:
        counts[len(pts)] = counts.get(len(pts), 0) + 1
    monkeypatch.setattr(element2d, "CHUNK_POINTS", 1000)
    per_cell = len(pb.simplex_rule(2, 2 * k + 4)[1])
    chunks = sum(-(-count // max(1, 1000 // (nv * per_cell)))
                 for nv, count in counts.items())
    calls = {"element": 0, "stack": 0}
    for cls, key in ((element2d.Element2D, "element"),
                     (element2d.PolygonStack, "stack")):
        def counted(self, *args, _init=cls.__init__, _key=key):
            calls[_key] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    ps.assemble(m, k)
    assert calls == {"element": len(polygons), "stack": chunks}
    assert chunks > len(counts)


@pytest.mark.parametrize("family", ["uniform", "facesplit(0.05)"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_cells_equal_cells_built_alone(monkeypatch, family, k):
    # every cell of the level in one stack
    monkeypatch.setattr(element2d, "CHUNK_POINTS", 10 ** 6)
    m = pm.generate_cube_mesh(2, family)
    dofmap = ps.GlobalDofMap(m, k)
    stacked = ps.build_elements(dofmap)
    assert {len(el._stack.measure) for el in stacked} == {m.n_cells}
    faces = {fid: fel for el in stacked
             for (fid, _), fel in zip(m.cells[el.cell_id], el._faces)}
    faces = [faces[fid] for fid in range(m.n_faces)]
    for i, el in enumerate(stacked):
        alone = element3d.Element3D(dofmap, i, faces)
        assert len(alone._stack.measure) == 1
        for name in ("pi_nabla_star", "pi_nabla", "pi_zero"):
            assert np.array_equal(getattr(el, name), getattr(alone, name))
        assert np.array_equal(el.stabilization_matrix(),
                              alone.stabilization_matrix())
        assert np.array_equal(el.local_stiffness(), alone.local_stiffness())
        assert np.array_equal(el.local_load(wave), alone.local_load(wave))


@pytest.mark.parametrize("family,k", [("uniform", 1), ("facesplit(0.05)", 2)])
def test_cell_stacks_split_into_chunks_give_the_same_level(monkeypatch,
                                                           family, k):
    whole_sys, whole_errs = solved(family, k, dim=3)
    # two cells per chunk of the degree 2k rule; the error rule then
    # takes one cell per part
    fan = 24 if family == "uniform" else 48
    monkeypatch.setattr(element2d, "CHUNK_POINTS",
                        2 * fan * len(pb.simplex_rule(3, 2 * k)[1]))
    split_sys, split_errs = solved(family, k, dim=3)
    assert {len(el._stack.measure) for el in split_sys.elements} == {2}
    assert min(len(el._stack.measure) for el in whole_sys.elements) > 2
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(split_sys.A_full, name),
                              getattr(whole_sys.A_full, name))
    assert np.array_equal(split_sys.b, whole_sys.b)
    assert split_errs == whole_errs


def cubes_and_prism():
    """The eight cells of the 2-grid of the unit cube and, beside them, a
    hexagonal prism as the fourth cell: face patterns of six quadrilaterals
    and of two hexagons then six quadrilaterals."""
    cubes = pm.generate_cube_mesh(2, "uniform")
    hexagon = np.array([[0, 0], [2, 0], [3, 1], [2, 2], [0, 2], [-1, 1]],
                       float) / 3 + [2.0, 0.0]
    m, nv, nf = len(hexagon), cubes.n_vertices, cubes.n_faces
    verts = np.vstack([cubes.vertices,
                       np.column_stack([hexagon, np.zeros(m)]),
                       np.column_stack([hexagon, np.ones(m)])])
    faces = [list(range(nv, nv + m)), list(range(nv + m, nv + 2 * m))]
    faces += [[nv + a, nv + (a + 1) % m, nv + m + (a + 1) % m, nv + m + a]
              for a in range(m)]
    prism = [[nf, -1], [nf + 1, 1]] + [[nf + 2 + a, 1] for a in range(m)]
    cells = cubes.cells[:3] + [prism] + cubes.cells[3:]
    return pm.PolyhedralMesh3(verts, cubes.faces + faces, cells).validate()


def test_one_cell_stack_per_face_pattern_and_chunk(monkeypatch):
    m, k = cubes_and_prism(), 2
    # three cubes (24 fan tets each) per chunk of the degree 2k rule
    monkeypatch.setattr(element2d, "CHUNK_POINTS",
                        3 * 24 * len(pb.simplex_rule(3, 2 * k)[1]))
    stacks = []

    def counted(self, elements, _init=element3d.PolyhedronStack.__init__):
        stacks.append([el.cell_id for el in elements])
        _init(self, elements)

    monkeypatch.setattr(element3d.PolyhedronStack, "__init__", counted)
    sys_ = ps.assemble(m, k)
    assert stacks == [[0, 1, 2], [4, 5, 6], [7, 8], [3]]
    prism = sys_.elements[3]
    assert prism._stack.n_simplices == 2 * 6 + 6 * 4
    err = np.abs(prism.pi_nabla_star @ prism.d_mat - np.eye(prism.basis.n))
    assert err.max() <= 1e-10
