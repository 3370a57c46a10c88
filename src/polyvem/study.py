"""Manufactured-solution convergence studies.

A study solves one manufactured case on a sequence of meshes, measures
the discretization error in several norms, fits convergence slopes over
the finest levels, and optionally writes a CSV/JSON/gnuplot report.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import polybasis as pb
from .mesh import generate_cube_mesh, generate_square_mesh, quality_report
from .system import assemble, interpolate_global

ERROR_KEYS = ("energy", "h1_pinabla", "h1_pizero", "l2_pizero",
              "l2_pinabla", "linf_edge")

# in patch mode the discrete solution must match the interpolant to
# roundoff, so errors are gated instead of slope-fitted
PATCH_ERROR_CEILING = 1e-8


class ManufacturedCase:
    """An exact solution with its gradient and forcing term.

    mode "solve" runs with homogeneous Dirichlet data; mode "inject"
    imposes the interpolated exact trace as boundary values.
    """

    def __init__(self, name, dim, u, grad, f, mode="solve"):
        self.name = name
        self.dim = dim
        self.u = u
        self.grad = grad
        self.f = f
        self.mode = mode


def _sine_case(dim):
    pi = np.pi

    def u(p):
        return np.prod(np.sin(pi * np.atleast_2d(p)), axis=1)

    def grad(p):
        p = np.atleast_2d(p)
        s = np.sin(pi * p)
        c = np.cos(pi * p)
        g = np.empty_like(p)
        for d in range(dim):
            others = np.prod(np.delete(s, d, axis=1), axis=1)
            g[:, d] = pi * c[:, d] * others
        return g

    def f(p):
        return dim * pi**2 * u(p)

    return ManufacturedCase("sine", dim, u, grad, f)


def _corner_case():
    """u = r^(2/3) sin(pi x) sin(pi y): an H^(5/3)-type corner singularity
    at the origin under a smooth zero-boundary envelope."""
    pi = np.pi

    def parts(p):
        p = np.atleast_2d(p)
        x, y = p[:, 0], p[:, 1]
        r2 = x * x + y * y
        eta = np.sin(pi * x) * np.sin(pi * y)
        ex = pi * np.cos(pi * x) * np.sin(pi * y)
        ey = pi * np.sin(pi * x) * np.cos(pi * y)
        return p, x, y, r2, eta, ex, ey

    def u(p):
        _, _, _, r2, eta, _, _ = parts(p)
        return r2 ** (1.0 / 3.0) * eta

    def grad(p):
        p, x, y, r2, eta, ex, ey = parts(p)
        g = np.zeros_like(p)
        ok = r2 > 0
        rm = np.zeros_like(r2)
        rm[ok] = r2[ok] ** (-2.0 / 3.0)
        g[:, 0] = (2.0 / 3.0) * rm * x * eta + r2 ** (1.0 / 3.0) * ex
        g[:, 1] = (2.0 / 3.0) * rm * y * eta + r2 ** (1.0 / 3.0) * ey
        return g

    def f(p):
        _, x, y, r2, eta, ex, ey = parts(p)
        ok = r2 > 0
        rm = np.zeros_like(r2)
        rm[ok] = r2[ok] ** (-2.0 / 3.0)
        return (-(4.0 / 9.0) * rm * eta
                - (4.0 / 3.0) * rm * (x * ex + y * ey)
                + 2.0 * pi**2 * r2 ** (1.0 / 3.0) * eta)

    return ManufacturedCase("corner", 2, u, grad, f)


def _patch_case(dim, k):
    """A random polynomial of total degree k with reproducible
    coefficients; solved with injected boundary values."""
    idx = pb.multi_indices(dim, k)
    rng = np.random.default_rng(1234 + 10 * dim + k)
    coeffs = rng.uniform(-1.0, 1.0, size=len(idx))

    def monomials(p, powers):
        return np.prod(np.atleast_2d(p)[:, None, :] ** powers[None], axis=2)

    def u(p):
        return monomials(p, idx) @ coeffs

    def grad(p):
        p = np.atleast_2d(p)
        g = np.empty((len(p), dim))
        for d in range(dim):
            lowered = idx.copy()
            lowered[:, d] = np.maximum(idx[:, d] - 1, 0)
            g[:, d] = monomials(p, lowered) @ (coeffs * idx[:, d])
        return g

    def f(p):
        p = np.atleast_2d(p)
        total = np.zeros(len(p))
        for d in range(dim):
            a = idx[:, d]
            lowered = idx.copy()
            lowered[:, d] = np.maximum(a - 2, 0)
            total += monomials(p, lowered) @ (coeffs * a * (a - 1))
        return -total

    return ManufacturedCase("patch", dim, u, grad, f, mode="inject")


def get_case(name, dim, k=None):
    """Look up a manufactured case by name."""
    if name == "sine":
        return _sine_case(dim)
    if name == "corner":
        if dim != 2:
            raise ValueError("the corner case is two-dimensional")
        return _corner_case()
    if name == "patch":
        if k is None:
            raise ValueError("the patch case needs the polynomial degree k")
        return _patch_case(dim, k)
    raise ValueError(f"unknown case {name!r}")


# ---------------------------------------------------------------------------
# error norms


def _linf_edges(mesh, k, dofmap, x_full, case, linf_factor):
    """Worst pointwise deviation of the edge traces from the exact
    solution, sampled at Chebyshev points plus the endpoints."""
    node_ts = np.concatenate([[0.0], pb.edge_interior_nodes(k), [1.0]])
    nch = linf_factor * (4 * k + 1)
    cheb = 0.5 - 0.5 * np.cos(np.pi * (2 * np.arange(nch) + 1) / (2 * nch))
    ts = np.concatenate([[0.0], cheb, [1.0]])
    lag = pb.lagrange_matrix(node_ts, ts)
    worst = 0.0
    for eid in range(mesh.n_edges):
        lo, hi = mesh.vertices[mesh.edges[eid]]
        pts = lo + ts[:, None] * (hi - lo)
        trace = lag @ x_full[dofmap.edge_dofs(eid)]
        dev = np.abs(np.asarray(case.u(pts)) - trace)
        worst = max(worst, float(dev.max()))
    return worst


def compute_errors(mesh, k, system, x_full, case,
                   quad_increase=0, linf_factor=1):
    """Error norms of a discrete solution against a manufactured case.

    Returns a dict with the projected H1 and L2 errors (under both
    projectors), the energy norm of the interpolant deviation, and the
    pointwise edge-trace error.
    """
    degree = 2 * k + 4 + quad_increase
    acc = {"h1_pinabla": 0.0, "h1_pizero": 0.0,
           "l2_pinabla": 0.0, "l2_pizero": 0.0}
    for i, el in enumerate(system.elements):
        dofs = x_full[system.dofmap.cell_dofs(i)]
        qp, qw = el.volume_quadrature(degree)
        vals = el.basis.eval(qp)
        grads = el.basis.grad(qp)
        uex = np.asarray(case.u(qp))
        gex = np.asarray(case.grad(qp))
        for proj, tag in ((el.pi_nabla_star, "pinabla"),
                          (el.pi_zero, "pizero")):
            c = proj @ dofs
            du = vals @ c - uex
            acc["l2_" + tag] += float(qw @ du**2)
            dg = np.einsum("qnd,n->qd", grads, c) - gex
            acc["h1_" + tag] += float(qw @ np.einsum("qd,qd->q", dg, dg))
    errs = {key: math.sqrt(max(val, 0.0)) for key, val in acc.items()}
    interp = interpolate_global(mesh, k, case.u,
                                elements=system.elements,
                                dofmap=system.dofmap)
    d = (interp - x_full)[system.dofmap.free]
    errs["energy"] = math.sqrt(max(float(d @ (system.A @ d)), 0.0))
    errs["linf_edge"] = _linf_edges(mesh, k, system.dofmap, x_full, case,
                                    linf_factor)
    return errs


def fit_slope(hs, errs):
    """Least-squares log-log slope over the finest three levels.

    Returns nan when fewer than two usable levels are available.
    """
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    m = min(3, len(hs))
    if m < 2:
        return math.nan
    tail_h, tail_e = hs[-m:], errs[-m:]
    if not (np.all(np.isfinite(tail_e)) and np.all(tail_e > 0)):
        return math.nan
    return float(np.polyfit(np.log(tail_h), np.log(tail_e), 1)[0])


# ---------------------------------------------------------------------------
# study pipeline


@dataclasses.dataclass
class StudyConfig:
    """Configuration of one convergence study."""
    dim: int = 2
    k: int = 1
    stab: str | None = None
    family: str = "uniform"
    levels: list | None = None
    case: str = "sine"
    out: str | None = None
    assert_rates: bool = False


def _family_at_level(family, n):
    # the h2 token couples the short-edge fraction to the mesh size
    if family == "smalledge(h2)":
        return f"smalledge({1.0 / (n * n)!r})"
    return family


def rate_thresholds(dim, k):
    """Minimal acceptable fitted slopes per error norm."""
    if dim == 2:
        return {"energy": k - 0.15, "h1_pinabla": k - 0.15,
                "h1_pizero": k - 0.15, "l2_pizero": k + 1 - 0.2,
                "l2_pinabla": k + 1 - 0.2, "linf_edge": k - 0.2}
    return {"h1_pinabla": k - 0.25, "l2_pizero": k + 1 - 0.3}


def _check_rates(config, case, slopes, rows):
    if case.name == "corner":
        # the corner solution is below full regularity; rates are
        # reported but not gated
        return False, True, {}
    if case.mode == "inject":
        ok = all(row["err_" + key] <= PATCH_ERROR_CEILING
                 for row in rows for key in ERROR_KEYS)
        return False, ok, {}
    thresholds = rate_thresholds(config.dim, config.k)
    ok = all(math.isfinite(slopes[key]) and slopes[key] >= thr
             for key, thr in thresholds.items())
    return True, ok, thresholds


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 1


def _check_config(config):
    """Raise ValueError unless dim, k and levels can drive a study."""
    if config.dim not in (2, 3) or not _is_count(config.dim):
        raise ValueError(f"dim must be 2 or 3, not {config.dim!r}")
    if not _is_count(config.k):
        raise ValueError(f"k must be an integer >= 1, not {config.k!r}")
    if not (isinstance(config.levels, list) and config.levels
            and all(_is_count(n) for n in config.levels)):
        raise ValueError("levels must be a non-empty list of integers "
                         f">= 1, not {config.levels!r}")


def run_study(config):
    """Run a convergence study and return its report dict."""
    _check_config(config)
    case = get_case(config.case, config.dim, k=config.k)
    rows = []
    for n in config.levels:
        family = _family_at_level(config.family, n)
        if config.dim == 2:
            mesh = generate_square_mesh(n, family)
        else:
            mesh = generate_cube_mesh(n, family)
        quality = quality_report(mesh)
        system = assemble(mesh, config.k, config.stab, f=case.f)
        if case.mode == "inject":
            g = interpolate_global(mesh, config.k, case.u,
                                   elements=system.elements,
                                   dofmap=system.dofmap)
            system.apply_boundary_values(g)
        x, info = system.solve()
        errs = compute_errors(mesh, config.k, system, x, case)
        row = {"n": int(n),
               "h": float(max(el.geometry.h for el in system.elements)),
               "ndof": int(system.dofmap.n_total)}
        row.update(("err_" + key, float(errs[key])) for key in ERROR_KEYS)
        row["tau_max"] = float(quality.max_tau)
        row["alpha_h"] = float(quality.alpha_h)
        row["beta_h"] = (None if quality.beta_h is None
                         else float(quality.beta_h))
        row["solver"] = {"method": info.method,
                         "converged": bool(info.converged),
                         "iterations": int(info.iterations)}
        rows.append(row)

    hs = [row["h"] for row in rows]
    slopes = {key: fit_slope(hs, [row["err_" + key] for row in rows])
              for key in ERROR_KEYS}
    rates_checked, passed, thresholds = _check_rates(config, case,
                                                     slopes, rows)
    report = {"config": dataclasses.asdict(config),
              "levels": rows,
              "slopes": slopes,
              "thresholds": thresholds,
              "rates_checked": rates_checked,
              "passed": passed}
    if config.out:
        write_report_files(config.out, report)
    return report


def write_report_files(out, report):
    """Write report.csv, report.json, and a gnuplot-ready rates.dat."""
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)

    header = ("h,ndof," + ",".join("err_" + key for key in ERROR_KEYS)
              + ",tau_max,alpha_h")
    lines = [header]
    for row in report["levels"]:
        fields = ["%.12e" % row["h"], "%d" % row["ndof"]]
        fields += ["%.12e" % row["err_" + key] for key in ERROR_KEYS]
        fields += ["%.12e" % row["tau_max"], "%.12e" % row["alpha_h"]]
        lines.append(",".join(fields))
    (outdir / "report.csv").write_text("\n".join(lines) + "\n")

    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    dat = ["# h " + " ".join("err_" + key for key in ERROR_KEYS)]
    for row in report["levels"]:
        dat.append(" ".join(["%.12e" % row["h"]]
                            + ["%.12e" % row["err_" + key]
                               for key in ERROR_KEYS]))
    (outdir / "rates.dat").write_text("\n".join(dat) + "\n")
