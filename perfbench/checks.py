"""Properties every study output must have, checked without a stored copy.

Each check takes plain data (a report dict, a sparse matrix, a vector)
and returns the failures it found as {level index: [message, ...]}, or
a message or None for a single system. The benchmark attributes every
failure to one level of the ladder, so a failed check counts as one
failed operation.
"""

import math

import numpy as np

from polyvem.study import ERROR_KEYS
from polyvem.system import interpolate_global

# VEM reproduces degree-k polynomials, so patch errors sit at roundoff
PATCH_CEILING = 1e-8
# relative residual of A_full on the interpolant of 1, and of A - A^T
KERNEL_TOL = 1e-12
SYMMETRY_TOL = 1e-12
MEASURE_TOL = 1e-12
# timed rounds must reproduce the checked round's error norms
REPEAT_TOL = 1e-10


def _add(failures, level, message):
    failures.setdefault(level, []).append(message)


def merge(*parts):
    """One failure map from several."""
    out = {}
    for part in parts:
        for level, messages in part.items():
            out.setdefault(level, []).extend(messages)
    return out


def symmetry_failure(A):
    """Message when the sparse matrix A is not symmetric to roundoff."""
    scale = abs(A).max()
    asym = abs(A - A.T).max()
    if not asym <= SYMMETRY_TOL * scale:
        return f"A_full asymmetric: max|A-A^T| = {asym:.3e} of {scale:.3e}"
    return None


def kernel_failure(A, ones):
    """Message when A does not annihilate ones, the interpolant of 1.

    The residual is measured against max-row-sum(|A|) * max|ones|,
    the largest value A @ ones could take.
    """
    scale = float(abs(A).sum(axis=1).max()) * float(np.abs(ones).max())
    resid = float(np.abs(A @ ones).max())
    if not resid <= KERNEL_TOL * scale:
        return (f"A_full misses constants: |A I(1)| = {resid:.3e} "
                f"of {scale:.3e}")
    return None


def measure_failure(measures, total=1.0):
    """Message when the cell measures do not sum to the domain's."""
    s = math.fsum(measures)
    if not abs(s - total) <= MEASURE_TOL * total:
        return f"cell measures sum to {s!r}, not {total!r}"
    return None


def _one(pts):
    return np.ones(len(np.atleast_2d(pts)))


def system_check(system, x):
    """Failure messages and the discrete energy b.x of one solved level.

    The assembled operator must be symmetric and vanish on constants
    (VEM consistency), and the cells must tile the unit box.
    """
    A = system.A_full
    ones = interpolate_global(system.mesh, system.k, _one,
                              elements=system.elements,
                              dofmap=system.dofmap)
    found = (symmetry_failure(A), kernel_failure(A, ones),
             measure_failure([el.geometry.measure
                              for el in system.elements]))
    energy = float(system.b @ x[system.dofmap.free])
    return [m for m in found if m], energy


def _errors(row):
    return [row["err_" + key] for key in ERROR_KEYS]


def finite_errors(rows):
    """Every error norm of every level is a finite number."""
    failures = {}
    for i, row in enumerate(rows):
        bad = [key for key in ERROR_KEYS
               if not math.isfinite(row["err_" + key])]
        if bad:
            _add(failures, i, "non-finite errors: " + ", ".join(bad))
    return failures


def patch_errors(rows, ceiling=PATCH_CEILING):
    """Every error norm stays at or below the patch ceiling."""
    failures = {}
    for i, row in enumerate(rows):
        for key in ERROR_KEYS:
            if not row["err_" + key] <= ceiling:
                _add(failures, i, f"patch {key} = {row['err_' + key]:.3e}"
                                  f" > {ceiling:.0e}")
    return failures


def decreasing_errors(rows):
    """Every error norm falls strictly from each level to the next."""
    failures = {}
    for i in range(1, len(rows)):
        for key in ERROR_KEYS:
            prev, cur = rows[i - 1]["err_" + key], rows[i]["err_" + key]
            if not cur < prev:
                _add(failures, i, f"{key} did not decrease: "
                                  f"{prev:.6e} -> {cur:.6e}")
    return failures


def rate_gate(report):
    """The study's own rate gate; a miss is charged to the finest level."""
    if report["passed"] is True:
        return {}
    return {len(report["levels"]) - 1:
            [f"rate gate failed, slopes {report['slopes']}"]}


def energy_gaps(energies, exact):
    """b.x approaches the exact energy, the gap shrinking every level."""
    failures = {}
    gaps = [abs(e - exact) for e in energies]
    for i, (e, gap) in enumerate(zip(energies, gaps)):
        if not math.isfinite(e):
            _add(failures, i, f"discrete energy {e!r}")
        elif i and not gap < gaps[i - 1]:
            _add(failures, i, f"energy gap did not shrink: "
                              f"{gaps[i - 1]:.6e} -> {gap:.6e}")
    return failures


def same_errors(rows, reference):
    """A repeated study reproduced the reference study's error norms."""
    failures = {}
    for i, ref in enumerate(reference):
        got = _errors(rows[i]) if i < len(rows) else None
        want = _errors(ref)
        if got is None or not all(
                abs(g - w) <= REPEAT_TOL * max(abs(w), 1e-300)
                for g, w in zip(got, want)):
            _add(failures, i, f"errors {got} differ from checked {want}")
    return failures


def report_failures(workload, report):
    """Failures of a study report against the workload's properties."""
    rows = report["levels"]
    parts = [finite_errors(rows)]
    if workload.patch:
        parts.append(patch_errors(rows))
    if workload.rates:
        parts.append(rate_gate(report))
    if workload.decreasing:
        parts.append(decreasing_errors(rows))
    return merge(*parts)
