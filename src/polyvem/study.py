"""Manufactured-solution convergence studies.

A study solves one manufactured case on a sequence of meshes, measures
the discretization error in several norms, fits convergence slopes over
the finest levels, and optionally writes a CSV/JSON/gnuplot report.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from . import polybasis as pb
from .mesh import generate_cube_mesh, generate_square_mesh, quality_report
from .system import _stacks, assemble, interpolate_global

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
        # the product of the sines other than s[:, d]: the product of
        # those before d times the product of those after d, each
        # multiplied up from 1 outward from d's far side
        before = np.empty_like(s)
        after = np.empty_like(s)
        before[:, 0] = after[:, -1] = 1.0
        for d in range(1, p.shape[1]):
            before[:, d] = before[:, d - 1] * s[:, d - 1]
            after[:, -1 - d] = after[:, -d] * s[:, -d]
        return pi * c * (before * after)

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
    basis = pb.ScaledMonomialBasis(dim, k, np.zeros(dim), 1.0)
    rng = np.random.default_rng(1234 + 10 * dim + k)
    coeffs = rng.uniform(-1.0, 1.0, size=basis.n)
    grad_coeffs = np.stack([D.T @ coeffs for D in basis.derivative_maps()],
                           axis=1)
    f_coeffs = -(basis.laplacian_map().T @ coeffs)

    def u(p):
        return basis.eval(p) @ coeffs

    def grad(p):
        return basis.eval(p) @ grad_coeffs

    def f(p):
        return basis.eval(p) @ f_coeffs

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
    node_ts = pb.gauss_lobatto(k + 1)
    nch = linf_factor * (4 * k + 1)
    cheb = 0.5 - 0.5 * np.cos(np.pi * (2 * np.arange(nch) + 1) / (2 * nch))
    ts = np.concatenate([[0.0], cheb, [1.0]])
    lag = pb.lagrange_matrix(node_ts, ts)
    lo, hi = mesh.vertices[mesh.edges.T]
    pts = pb._segment_points(lo, hi - lo, ts)
    trace = (lag @ x_full[dofmap.edge_dofs][:, :, None])[..., 0]
    dev = np.abs(np.asarray(case.u(pts)).reshape(trace.shape) - trace)
    return float(dev.max())


def compute_errors(mesh, k, system, x_full, case, interp=None,
                   quad_increase=0, linf_factor=1):
    """Error norms of a discrete solution against a manufactured case.

    Returns a dict with the projected H1 and L2 errors (under both
    projectors), the energy norm of the deviation from interp, the
    interpolant of case.u (made here when None), and the pointwise
    edge-trace error.

    The projected norms use the degree 2k + 4 rule (raised by
    quad_increase) on each cell's star fan, stack by stack of cells, in
    parts of at most CHUNK_POINTS points (ElementStack.parts). The
    gradient of m . c is m . (D_d^T c) with the basis' derivative maps
    D_d, so one product of the basis values with [C, D_1^T C, ...,
    D_dim^T C], where C holds the coefficients of both projections, gives
    the values and gradients of both at every point. The cells' squared
    errors are summed in cell order.
    """
    degree = 2 * k + 4 + quad_increase
    dim = mesh.dim
    # per cell (value, then each partial derivative) x (pinabla, pizero)
    per_cell = np.empty((len(system.elements), 1 + dim, 2))
    for st, cells in _stacks(system.elements):
        x_cells = x_full[np.array([system.dofmap.cell_dofs(i)
                                   for i in cells])]
        for part in st.parts(degree):
            dofs = x_cells[part, :, None]
            qp, qw = st.volume_quadrature(degree, part)
            C = np.stack([st.pi_nabla_star[part] @ dofs,
                          st.pi_zero[part] @ dofs], axis=-1)[..., 0, :]
            basis = pb.ScaledMonomialBasis(dim, k, st.basis.center[part],
                                           st.basis.scale[part])
            D = basis.derivative_maps()
            stack = np.concatenate(
                [C] + [np.swapaxes(D[:, d], -1, -2) @ C for d in range(dim)],
                axis=-1)
            fields = (basis.eval(qp) @ stack).reshape(qw.shape + (-1, 2))
            pts = qp.reshape(-1, dim)
            fields[..., 0, :] -= np.asarray(case.u(pts)).reshape(
                qw.shape + (1,))
            fields[..., 1:, :] -= np.asarray(case.grad(pts)).reshape(
                qw.shape + (dim, 1))
            sq = qw[:, None] @ fields.reshape(qw.shape + (-1,)) ** 2
            per_cell[cells[part]] = sq.reshape(-1, 1 + dim, 2)
    total = per_cell.sum(axis=0)
    # rows h1, l2; columns pinabla, pizero
    acc = [total[1:].sum(axis=0), total[0]]
    errs = {f"{norm}_{tag}": math.sqrt(max(float(val), 0.0))
            for norm, row in zip(("h1", "l2"), acc)
            for tag, val in zip(("pinabla", "pizero"), row)}
    if interp is None:
        interp = interpolate_global(mesh, k, case.u, system.elements,
                                    system.dofmap)
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
    # slopes are fitted over the last levels, taken as the finest
    if any(a >= b for a, b in zip(config.levels, config.levels[1:])):
        raise ValueError("levels must be strictly increasing, not "
                         f"{config.levels!r}")


def run_study(config):
    """Run a convergence study and return its report dict."""
    _check_config(config)
    case = get_case(config.case, config.dim, k=config.k)
    rows = []
    for n in config.levels:
        timings = {}
        clock = time.perf_counter()

        def lap(stage):
            nonlocal clock
            now = time.perf_counter()
            timings[stage] = now - clock
            clock = now

        family = _family_at_level(config.family, n)
        if config.dim == 2:
            mesh = generate_square_mesh(n, family)
        else:
            mesh = generate_cube_mesh(n, family)
        lap("mesh")
        quality = quality_report(mesh)
        lap("quality")
        system = assemble(mesh, config.k, config.stab, f=case.f)
        lap("assemble")
        interp = interpolate_global(mesh, config.k, case.u,
                                    system.elements, system.dofmap)
        lap("interpolate")
        if case.mode == "inject":
            system.apply_boundary_values(interp)
        lap("dirichlet")
        x, info = system.solve()
        lap("solve")
        errs = compute_errors(mesh, config.k, system, x, case, interp)
        lap("errors")
        row = {"n": int(n),
               "h": float(max(el.geometry.h for el in system.elements)),
               "ndof": int(system.dofmap.n_total),
               "nnz": int(system.A.nnz)}
        row.update(("err_" + key, float(errs[key])) for key in ERROR_KEYS)
        row["tau_max"] = float(quality.max_tau)
        row["alpha_h"] = float(quality.alpha_h)
        row["beta_h"] = (None if quality.beta_h is None
                         else float(quality.beta_h))
        row["solver"] = {"method": info.method,
                         "converged": bool(info.converged),
                         "iterations": int(info.iterations),
                         "residual": float(info.residual)}
        # seconds per stage; report.json only, the CSV stays reproducible
        row["timings"] = timings
        rows.append(row)

    hs = [row["h"] for row in rows]
    # patch errors are roundoff, so their slopes are reported as nan
    slopes = {key: (math.nan if case.mode == "inject"
                    else fit_slope(hs, [row["err_" + key] for row in rows]))
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

    # a nan slope (patch mode, one level) is null: JSON has no NaN
    slopes = {key: None if math.isnan(value) else value
              for key, value in report["slopes"].items()}
    (outdir / "report.json").write_text(
        json.dumps({**report, "slopes": slopes}, indent=2) + "\n")

    dat = ["# h " + " ".join("err_" + key for key in ERROR_KEYS)]
    for row in report["levels"]:
        dat.append(" ".join(["%.12e" % row["h"]]
                            + ["%.12e" % row["err_" + key]
                               for key in ERROR_KEYS]))
    (outdir / "rates.dat").write_text("\n".join(dat) + "\n")
