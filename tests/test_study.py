"""Tests for manufactured cases, error norms, slope fitting, and the study
pipeline with its report files."""

import json
import math

import numpy as np
import pytest

from polyvem import mesh as pm
from polyvem import system as ps
from polyvem import study as st


# ---------------------------------------------------------------------------
# manufactured cases


def fd_laplacian(u, p, h=1e-3):
    """Fourth-order central difference Laplacian of a vectorized field."""
    total = np.zeros(len(p))
    stencil = [(-2, -1.0 / 12), (-1, 4.0 / 3), (0, -5.0 / 2), (1, 4.0 / 3),
               (2, -1.0 / 12)]
    for d in range(p.shape[1]):
        acc = np.zeros(len(p))
        for off, w in stencil:
            q = p.copy()
            q[:, d] += off * h
            acc += w * u(q)
        total += acc / h**2
    return total


@pytest.mark.parametrize("name,dim,k", [
    ("sine", 2, None), ("sine", 3, None), ("corner", 2, None), ("patch", 2, 3),
])
def test_case_forcing_matches_fd_laplacian(name, dim, k):
    case = st.get_case(name, dim, k=k)
    rng = np.random.default_rng(7)
    lo = 0.3 if name == "corner" else 0.05
    p = rng.uniform(lo, 0.95, size=(100, dim))
    f = case.f(p)
    lap = fd_laplacian(case.u, p)
    scale = np.maximum(1.0, np.abs(f))
    assert np.max(np.abs(f + lap) / scale) <= 1e-8


@pytest.mark.parametrize("name,dim,k", [
    ("sine", 2, None), ("sine", 3, None), ("corner", 2, None), ("patch", 2, 2),
])
def test_case_gradient_matches_fd(name, dim, k):
    case = st.get_case(name, dim, k=k)
    rng = np.random.default_rng(8)
    lo = 0.3 if name == "corner" else 0.05
    p = rng.uniform(lo, 0.95, size=(50, dim))
    g = case.grad(p)
    h = 1e-5
    for d in range(dim):
        qp_, qm = p.copy(), p.copy()
        qp_[:, d] += h
        qm[:, d] -= h
        fd = (case.u(qp_) - case.u(qm)) / (2 * h)
        assert np.max(np.abs(g[:, d] - fd)) <= 1e-8 * np.max(1 + np.abs(fd))


@pytest.mark.parametrize("name,dim", [("sine", 2), ("sine", 3), ("corner", 2)])
def test_case_vanishes_on_boundary(name, dim):
    case = st.get_case(name, dim)
    rng = np.random.default_rng(9)
    for d in range(dim):
        for val in (0.0, 1.0):
            p = rng.uniform(0, 1, size=(20, dim))
            p[:, d] = val
            assert np.max(np.abs(case.u(p))) <= 1e-14


def test_patch_case_requires_degree():
    with pytest.raises(ValueError):
        st.get_case("patch", 2)
    case = st.get_case("patch", 2, k=2)
    assert case.mode == "inject"
    # reproducible coefficients
    case2 = st.get_case("patch", 2, k=2)
    p = np.array([[0.3, 0.7], [0.1, 0.2]])
    assert np.array_equal(case.u(p), case2.u(p))


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        st.get_case("nosuchcase", 2)


# ---------------------------------------------------------------------------
# error norms


def solve_sine(n, k, stab="s2"):
    mesh = pm.generate_square_mesh(n, "uniform")
    case = st.get_case("sine", 2)
    sys_ = ps.assemble(mesh, k, stab, f=case.f)
    x, _ = sys_.solve()
    return mesh, sys_, x, case


def test_error_norms_of_zero_solution_frozen():
    mesh = pm.generate_square_mesh(2, "uniform")
    case = st.get_case("sine", 2)
    sys_ = ps.assemble(mesh, 2, "s2", f=case.f)
    x = np.zeros(sys_.dofmap.n_total)
    errs = st.compute_errors(mesh, 2, sys_, x, case)
    # ||u||_L2 = 1/2 and |u|_H1 = pi/sqrt(2) for u = sin(pi x) sin(pi y)
    assert math.isclose(errs["l2_pizero"], 0.5, rel_tol=1e-9)
    assert math.isclose(errs["l2_pinabla"], 0.5, rel_tol=1e-9)
    assert math.isclose(errs["h1_pinabla"], math.pi / math.sqrt(2), rel_tol=1e-9)
    assert math.isclose(errs["h1_pizero"], math.pi / math.sqrt(2), rel_tol=1e-9)
    # the midlines reach the maximum of u at a sampled endpoint
    assert math.isclose(errs["linf_edge"], 1.0, rel_tol=1e-12)
    assert errs["energy"] > 0


def test_error_norms_quadrature_refinement_stable():
    mesh, sys_, x, case = solve_sine(4, 2)
    base = st.compute_errors(mesh, 2, sys_, x, case)
    fine = st.compute_errors(mesh, 2, sys_, x, case, quad_increase=6)
    for key in ("h1_pinabla", "h1_pizero", "l2_pizero", "l2_pinabla"):
        assert math.isclose(base[key], fine[key], rel_tol=1e-8)


def test_error_linf_sampling_density_stable():
    mesh, sys_, x, case = solve_sine(4, 2)
    base = st.compute_errors(mesh, 2, sys_, x, case)
    fine = st.compute_errors(mesh, 2, sys_, x, case, linf_factor=4)
    assert abs(base["linf_edge"] - fine["linf_edge"]) <= 0.01 * fine["linf_edge"]


def test_energy_error_identity():
    mesh, sys_, x, case = solve_sine(4, 2)
    errs = st.compute_errors(mesh, 2, sys_, x, case)
    g = ps.interpolate_global(mesh, 2, case.u)
    d = (g - x)[sys_.dofmap.free]
    direct = math.sqrt(d @ (sys_.A @ d))
    assert math.isclose(errs["energy"], direct, rel_tol=1e-12)


def test_patch_solution_errors_tiny():
    mesh = pm.generate_square_mesh(2, "uniform")
    case = st.get_case("patch", 2, k=2)
    g = ps.interpolate_global(mesh, 2, case.u)
    sys_ = ps.assemble(mesh, 2, "s2", f=case.f, boundary_values=g)
    x, _ = sys_.solve()
    errs = st.compute_errors(mesh, 2, sys_, x, case)
    for v in errs.values():
        assert v <= 1e-9


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_exact_power_law():
    hs = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = 3.7 * hs**2.37
    assert math.isclose(st.fit_slope(hs, errs), 2.37, rel_tol=1e-12)


def test_fit_slope_uses_last_three_levels():
    hs = np.array([1.0, 0.5, 0.25, 0.125])
    errs = 2.0 * hs**3.0
    errs[0] *= 50.0  # corrupt the preasymptotic level
    assert math.isclose(st.fit_slope(hs, errs), 3.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# study pipeline


def run_small_study(tmp_path, **overrides):
    cfg = dict(dim=2, k=1, stab="s2", family="uniform", levels=[2, 4, 8, 16],
               case="sine", out=str(tmp_path / "out"))
    cfg.update(overrides)
    return st.run_study(st.StudyConfig(**cfg))


def test_run_study_report_files(tmp_path):
    report = run_small_study(tmp_path)
    out = tmp_path / "out"
    csv = (out / "report.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == ("h,ndof,err_energy,err_h1_pinabla,err_h1_pizero,"
                        "err_l2_pizero,err_l2_pinabla,err_linf_edge,"
                        "tau_max,alpha_h")
    assert len(lines) == 1 + 4
    data = json.loads((out / "report.json").read_text())
    assert set(data["slopes"]) == {"energy", "h1_pinabla", "h1_pizero",
                                   "l2_pizero", "l2_pinabla", "linf_edge"}
    assert data["config"]["family"] == "uniform"
    rates = (out / "rates.dat").read_text()
    assert rates.startswith("#")
    assert report["slopes"]["l2_pizero"] == data["slopes"]["l2_pizero"]


def test_run_study_csv_bytes_deterministic(tmp_path):
    run_small_study(tmp_path, out=str(tmp_path / "a"), levels=[2, 4, 8])
    run_small_study(tmp_path, out=str(tmp_path / "b"), levels=[2, 4, 8])
    assert ((tmp_path / "a" / "report.csv").read_bytes()
            == (tmp_path / "b" / "report.csv").read_bytes())


def test_run_study_k1_l2_slope_window(tmp_path):
    # the coarsest grids sit in the preasymptotic regime, so the window
    # is checked one refinement deeper than the default ladder
    report = run_small_study(tmp_path, levels=[4, 8, 16, 32])
    assert 1.85 <= report["slopes"]["l2_pizero"] <= 2.3
    errs = [lv["err_l2_pizero"] for lv in report["levels"]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    energies = [lv["err_energy"] for lv in report["levels"]]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_run_study_smalledge_k2_energy_slope_window(tmp_path):
    report = run_small_study(tmp_path, k=2, family="smalledge(1e-4)",
                             levels=[2, 4, 8, 16])
    # the energy column measures the distance to the interpolant, which
    # superconverges up to one order beyond h^k; the lower bound is the
    # small-edge robustness guard
    assert 1.85 <= report["slopes"]["energy"] <= 3.3
    assert report["levels"][0]["tau_max"] == pytest.approx((1 - 1e-4) / 1e-4)


def test_run_study_smalledge_eps_follows_h_squared(tmp_path):
    report = run_small_study(tmp_path, family="smalledge(h2)", levels=[2, 4])
    taus = [lv["tau_max"] for lv in report["levels"]]
    assert taus[0] == pytest.approx(3.0, rel=1e-9)     # eps = 1/4
    assert taus[1] == pytest.approx(15.0, rel=1e-9)    # eps = 1/16


def test_run_study_patch_mode(tmp_path):
    report = run_small_study(tmp_path, k=2, case="patch", levels=[2, 4])
    for lv in report["levels"]:
        for key in ("err_energy", "err_h1_pinabla", "err_l2_pizero",
                    "err_linf_edge"):
            assert lv[key] <= 1e-8


def test_run_study_corner_not_rate_asserted(tmp_path):
    report = run_small_study(tmp_path, case="corner", levels=[2, 4, 8],
                             assert_rates=True)
    assert report["passed"] is True
    assert report["rates_checked"] is False
    assert all(np.isfinite(lv["err_l2_pizero"]) for lv in report["levels"])


def test_run_study_3d_smoke(tmp_path):
    report = run_small_study(tmp_path, dim=3, k=1, stab="3d",
                             levels=[2, 4], case="sine")
    assert len(report["levels"]) == 2
    errs = [lv["err_l2_pizero"] for lv in report["levels"]]
    assert errs[1] < errs[0]
    assert report["levels"][0]["beta_h"] is not None


# ---------------------------------------------------------------------------
# CLI


def test_cli_study_run(tmp_path):
    from polyvem.cli import main

    out = tmp_path / "cli_out"
    rc = main(["study", "run", "--dim", "2", "--k", "1", "--stab", "s2",
               "--family", "uniform", "--levels", "4,8,16",
               "--case", "sine", "--out", str(out), "--assert-rates"])
    assert rc == 0
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()


def test_cli_study_run_config_file(tmp_path):
    from polyvem.cli import main

    out = tmp_path / "cfg_out"
    cfg = {"dim": 2, "k": 1, "stab": "s2", "family": "uniform",
           "levels": [2, 4, 8], "case": "sine", "out": str(out)}
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["study", "run", "--config", str(cfg_path)])
    assert rc == 0
    assert (out / "report.csv").exists()


def test_cli_study_assert_rates_failure_exit_code(tmp_path):
    from polyvem.cli import main

    # two coarse levels of a k=1 run cannot certify slopes near 2 reliably,
    # so force a failure by demanding rates from an interpolation-dominated
    # configuration: a single level makes the fit impossible
    out = tmp_path / "fail_out"
    rc = main(["study", "run", "--dim", "2", "--k", "1", "--stab", "s2",
               "--family", "uniform", "--levels", "2",
               "--case", "sine", "--out", str(out), "--assert-rates"])
    assert rc != 0


def test_cli_study_bad_levels_exit_code(tmp_path, capsys):
    from polyvem.cli import main

    rc = main(["study", "run", "--levels", "4,x",
               "--out", str(tmp_path / "bad_levels")])
    assert rc == 1
    assert "study failed:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"dim": 1, "levels": [2, 3]},
    {"dim": 4, "levels": [2]},
    {"levels": 4},
    {"k": "2", "levels": [2]},
])
def test_bad_study_config_rejected(tmp_path, capsys, bad):
    from polyvem.cli import main

    cfg = dict(dim=2, k=1, family="uniform", case="sine",
               out=str(tmp_path / "out"))
    cfg.update(bad)
    with pytest.raises(ValueError):
        st.run_study(st.StudyConfig(**cfg))
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["study", "run", "--config", str(cfg_path)]) == 1
    assert "study failed:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
