"""End-to-end acceptance suite.

Each test freezes one release gate: patch-test exactness, projector
identities on degenerate cells, convergence rates for both stabilizations
on uniform and small-edge families in 2D and 3D, interpolation rates,
solver health, and agreement with the committed dense-oracle fixtures.
Rate thresholds and runtime budgets are asserted, not just reported.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest
from conftest import random_star_polygon

from polyvem import mesh as pm
from polyvem import system as ps
from polyvem import study as st
from polyvem.element2d import Element2D
from polyvem.polybasis import n_poly

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# solver outcomes recorded by the patch test, consumed by the solver gate
PATCH_SOLVE_INFOS = []


def fitted_slopes(report, compensate=False):
    hs = np.array([lv["h"] for lv in report["levels"]])
    out = {}
    for key in ("energy", "h1_pinabla", "h1_pizero", "l2_pizero",
                "l2_pinabla", "linf_edge"):
        errs = np.array([lv["err_" + key] for lv in report["levels"]])
        if compensate:
            errs = errs / np.array([lv["alpha_h"] for lv in report["levels"]])
        out[key] = st.fit_slope(hs, errs)
    return out


def run(dim, k, stab, family, levels, case="sine"):
    cfg = st.StudyConfig(dim=dim, k=k, stab=stab, family=family,
                         levels=list(levels), case=case)
    return st.run_study(cfg)


@pytest.fixture(scope="module")
def uniform_reports_2d():
    t0 = time.monotonic()
    reports = {k: run(2, k, "s2", "uniform", [4, 8, 16, 32]) for k in (1, 2, 3)}
    return reports, time.monotonic() - t0


@pytest.fixture(scope="module")
def smalledge_s2_reports():
    return {k: run(2, k, "s2", "smalledge(h2)", [4, 8, 16, 32])
            for k in (1, 2, 3)}


@pytest.fixture(scope="module")
def smalledge_s1_reports():
    return {k: run(2, k, "s1", "smalledge(h2)", [4, 8, 16, 32])
            for k in (1, 2, 3)}


@pytest.fixture(scope="module")
def reports_3d():
    t0 = time.monotonic()
    reports = {}
    for k in (1, 2):
        levels = [2, 4, 8, 16] if k == 1 else [2, 4, 8]
        for family in ("uniform", "facesplit(0.05)"):
            reports[(k, family)] = run(3, k, "3d", family, levels)
    return reports, time.monotonic() - t0


# ---------------------------------------------------------------------------
# 1. polynomial patch test


def test_acceptance_1_patch_test_2d():
    t0 = time.monotonic()
    families = ["uniform", "smalledge(1e-3)", "hanging"]
    for k in (1, 2, 3, 4):
        case = st.get_case("patch", 2, k=k)
        for family in families:
            mesh = pm.generate_square_mesh(4, family)
            sys_ = ps.assemble(mesh, k, "s2", f=case.f)
            g = ps.interpolate_global(mesh, k, case.u,
                                      elements=sys_.elements,
                                      dofmap=sys_.dofmap)
            sys_.apply_boundary_values(g)
            x, info = sys_.solve()
            PATCH_SOLVE_INFOS.append(info)
            errs = st.compute_errors(mesh, k, sys_, x, case, g)
            for name, val in errs.items():
                assert val <= 1e-8, (k, family, name, val)
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. projector identities on random and degenerate cells


def test_acceptance_2_projector_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260816)
    for i in range(200):
        k = 1 + i % 4
        small = 1e-6 if i % 4 == 3 else None
        pts = random_star_polygon(rng, small_edge=small)
        el = Element2D(pm.polygon_geometry(pts), k)
        nd = el.d_mat.shape[0]
        # energy projection reproduces polynomials; the identity is evaluated
        # in double precision from the stored coefficient matrices, so its
        # achievable accuracy scales with the size of the projector
        # coefficients, which legitimately reach ~1e7 on near-degenerate
        # quartic cells
        P = el.pi_nabla_star @ el.d_mat
        tol = max(1e-10, 1e-15 * np.max(np.abs(el.pi_nabla_star)))
        assert np.max(np.abs(P - np.eye(P.shape[0]))) <= tol
        # moment-matching structure of the L2 projection
        area = el.geometry.measure
        M = el.H @ el.pi_zero
        Mn = el.H @ el.pi_nabla_star
        nm = n_poly(2, k - 2)
        scale = max(area, np.max(np.abs(Mn)))
        if nm:
            expected = np.zeros((nm, nd))
            expected[:, nd - nm:] = area * np.eye(nm)
            assert np.max(np.abs(M[:nm] - expected)) <= 1e-10 * scale
        assert np.max(np.abs(M[nm:] - Mn[nm:])) <= 1e-10 * scale
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 3. 2D convergence rates with the tangential-derivative stabilization


def test_acceptance_3_convergence_2d_s2(uniform_reports_2d):
    reports, elapsed = uniform_reports_2d
    for k, report in reports.items():
        slopes = fitted_slopes(report)
        assert slopes["energy"] >= k - 0.15, (k, slopes)
        assert slopes["h1_pinabla"] >= k - 0.15, (k, slopes)
        assert slopes["h1_pizero"] >= k - 0.15, (k, slopes)
        assert slopes["l2_pizero"] >= k + 1 - 0.2, (k, slopes)
        assert slopes["l2_pinabla"] >= k + 1 - 0.2, (k, slopes)
        assert slopes["linf_edge"] >= k - 0.2, (k, slopes)
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 4. small-edge robustness of the tangential-derivative stabilization


def test_acceptance_4_smalledge_s2(uniform_reports_2d, smalledge_s2_reports):
    uniform, _ = uniform_reports_2d
    for k, report in smalledge_s2_reports.items():
        slopes = fitted_slopes(report)
        assert slopes["energy"] >= k - 0.15, (k, slopes)
        assert slopes["h1_pinabla"] >= k - 0.15, (k, slopes)
        assert slopes["l2_pizero"] >= k + 1 - 0.2, (k, slopes)
        assert slopes["linf_edge"] >= k - 0.2, (k, slopes)
        # degenerate edges must not inflate the finest-level error
        fine = report["levels"][-1]["err_energy"]
        ref = uniform[k]["levels"][-1]["err_energy"]
        assert fine <= 3.0 * ref, (k, fine, ref)


# ---------------------------------------------------------------------------
# 5. small-edge behavior of the nodal stabilization


def test_acceptance_5_smalledge_s1(smalledge_s1_reports):
    for k, report in smalledge_s1_reports.items():
        comp = fitted_slopes(report, compensate=True)
        raw = fitted_slopes(report)
        thresholds = {"energy": k - 0.15, "h1_pinabla": k - 0.15,
                      "h1_pizero": k - 0.15, "l2_pizero": k + 1 - 0.2,
                      "l2_pinabla": k + 1 - 0.2, "linf_edge": k - 0.2}
        for key, want in thresholds.items():
            assert comp[key] >= want, (k, key, comp)
            assert raw[key] >= want - 0.1, (k, key, raw)


# ---------------------------------------------------------------------------
# 6. 3D convergence rates


def test_acceptance_6_convergence_3d(reports_3d):
    reports, elapsed = reports_3d
    for (k, family), report in reports.items():
        slopes = fitted_slopes(report)
        assert slopes["h1_pinabla"] >= k - 0.25, (k, family, slopes)
        # the short 3D ladders sit in the preasymptotic regime of the
        # face stabilization, so the L2 order is gated on the finest
        # observed reduction and on the transient dying out level to
        # level rather than on the fitted slope
        hs = np.array([lv["h"] for lv in report["levels"]])
        errs = np.array([lv["err_l2_pizero"] for lv in report["levels"]])
        rates = np.log(errs[:-1] / errs[1:]) / np.log(hs[:-1] / hs[1:])
        assert np.all(np.diff(rates) > 0), (k, family, rates)
        assert rates[-1] >= k + 1 - 0.65, (k, family, rates)
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. interpolation rates


def test_acceptance_7_interpolation_rates():
    t0 = time.monotonic()
    case = st.get_case("sine", 2)
    for k in (1, 2, 3):
        hs, l2, h1 = [], [], []
        for n in (4, 8, 16, 32):
            mesh = pm.generate_square_mesh(n, "uniform")
            sys_ = ps.assemble(mesh, k, "s2")
            x = ps.interpolate_global(mesh, k, case.u,
                                      elements=sys_.elements,
                                      dofmap=sys_.dofmap)
            errs = st.compute_errors(mesh, k, sys_, x, case, x)
            hs.append(max(pm.polygon_geometry(mesh.cell_points(c)).h
                          for c in range(mesh.n_cells)))
            l2.append(errs["l2_pizero"])
            h1.append(errs["h1_pinabla"])
        assert st.fit_slope(np.array(hs), np.array(l2)) >= k + 1 - 0.2
        assert st.fit_slope(np.array(hs), np.array(h1)) >= k - 0.15
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 8. solver health


def test_acceptance_8_solver_and_kernels(uniform_reports_2d,
                                         smalledge_s2_reports,
                                         smalledge_s1_reports, reports_3d):
    all_reports = list(uniform_reports_2d[0].values())
    all_reports += list(smalledge_s2_reports.values())
    all_reports += list(smalledge_s1_reports.values())
    all_reports += list(reports_3d[0].values())
    for report in all_reports:
        for lv in report["levels"]:
            assert lv["solver"]["converged"] is True
    for info in PATCH_SOLVE_INFOS:
        assert info.converged is True
    rng = np.random.default_rng(55)
    for i in range(50):
        k = 1 + i % 4
        el = Element2D(pm.polygon_geometry(random_star_polygon(rng)), k)
        K = el.local_stiffness("s2")
        w = np.linalg.eigvalsh(K)
        assert np.sum(w < 1e-12 * np.trace(K)) == 1


# ---------------------------------------------------------------------------
# 9. dense-oracle fixture equivalence


@pytest.mark.parametrize("stab", ["s1", "s2"])
def test_acceptance_9_oracle_fixtures(stab):
    data = json.loads((FIXTURES / f"klocal_unit_square_k1_{stab}.json").read_text())
    expected = np.array(data["matrix"])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    K = Element2D(pm.polygon_geometry(square), 1).local_stiffness(stab)
    assert np.max(np.abs(K - expected)) <= 1e-12
