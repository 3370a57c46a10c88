"""Tests of the benchmark's own code: every output check must be able to
fail, and the tracer must count the same work every time.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from polyvem import study  # noqa: E402
from polyvem.mesh import generate_cube_mesh, generate_square_mesh  # noqa: E402
from polyvem.system import assemble, interpolate_global  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Tally  # noqa: E402


def _rows(errs):
    return [{"err_" + key: e for key in study.ERROR_KEYS} for e in errs]


@pytest.fixture(scope="module")
def patch_level():
    """A solved patch problem on a distorted 4x4 mesh, k=2."""
    mesh = generate_square_mesh(4, "distorted(5)")
    case = study.get_case("patch", 2, k=2)
    system = assemble(mesh, 2, f=case.f)
    g = interpolate_global(mesh, 2, case.u, elements=system.elements,
                           dofmap=system.dofmap)
    system.apply_boundary_values(g)
    x, _ = system.solve()
    return mesh, case, system, x


@pytest.fixture(scope="module")
def sine_report():
    """A k=1 sine study on uniform 4x4, 8x8, 16x16 meshes, with the
    discrete energy of every level."""
    energies = []
    original = study.compute_errors

    def hooked(mesh, k, system, x, case, *args, **kwargs):
        energies.append(checks.system_check(system, x)[1])
        return original(mesh, k, system, x, case, *args, **kwargs)

    study.compute_errors = hooked
    try:
        report = study.run_study(study.StudyConfig(
            dim=2, k=1, family="uniform", levels=[4, 8, 16]))
    finally:
        study.compute_errors = original
    return report, energies


def _off_diagonal(A):
    coo = A.tocoo()
    i = int(np.flatnonzero(coo.row != coo.col)[0])
    return int(coo.row[i]), int(coo.col[i])


def test_system_check_passes_on_assembled_systems(patch_level):
    _, _, system, x = patch_level
    assert checks.system_check(system, x)[0] == []
    cube = assemble(generate_cube_mesh(2, "facesplit(0.05)"), 2)
    x3 = np.zeros(cube.dofmap.n_total)
    assert checks.system_check(cube, x3)[0] == []


def test_symmetry_check_fails_on_one_perturbed_entry(patch_level):
    A = patch_level[2].A_full.tolil()
    i, j = _off_diagonal(A)
    A[i, j] += 1e-6 * abs(A).max()
    assert checks.symmetry_failure(A.tocsr()) is not None


def test_kernel_check_fails_on_one_perturbed_entry(patch_level):
    mesh, _, system, _ = patch_level
    ones = interpolate_global(mesh, 2, checks._one,
                              elements=system.elements,
                              dofmap=system.dofmap)
    A = system.A_full.tolil()
    assert checks.kernel_failure(A.tocsr(), ones) is None
    A[0, 0] += 1e-6 * abs(A).max()
    assert checks.kernel_failure(A.tocsr(), ones) is not None
    assert checks.symmetry_failure(A.tocsr()) is None


def test_measure_check_fails_on_a_missing_or_grown_cell(patch_level):
    measures = [el.geometry.measure for el in patch_level[2].elements]
    assert checks.measure_failure(measures) is None
    assert checks.measure_failure(measures[1:]) is not None
    assert checks.measure_failure([measures[0] * (1 + 1e-9)]
                                  + measures[1:]) is not None


def test_patch_check_fails_on_a_shifted_solution(patch_level):
    mesh, case, system, x = patch_level
    row = study.compute_errors(mesh, 2, system, x, case)
    rows = [{"err_" + key: row[key] for key in study.ERROR_KEYS}]
    assert checks.patch_errors(rows) == {}
    shifted = x.copy()
    shifted[system.dofmap.free] += 1e-6
    row = study.compute_errors(mesh, 2, system, shifted, case)
    rows = [{"err_" + key: row[key] for key in study.ERROR_KEYS}]
    assert 0 in checks.patch_errors(rows)


def test_decreasing_check_fails_on_a_reversed_ladder(sine_report):
    rows = sine_report[0]["levels"]
    assert checks.decreasing_errors(rows) == {}
    assert set(checks.decreasing_errors(rows[::-1])) == {1, 2}
    flat = _rows([1.0, 0.5, 0.5])
    assert set(checks.decreasing_errors(flat)) == {2}


def test_rate_gate_fails_when_the_study_gate_fails(sine_report):
    report = dict(sine_report[0])
    assert report["passed"] is True
    assert checks.rate_gate(report) == {}
    report["passed"] = False
    assert set(checks.rate_gate(report)) == {2}


def test_energy_check_fails_when_the_gap_grows(sine_report):
    energies = sine_report[1]
    exact = workloads.sine_energy(2)
    assert checks.energy_gaps(energies, exact) == {}
    assert set(checks.energy_gaps(energies[::-1], exact)) == {1, 2}
    assert set(checks.energy_gaps(energies[:2] + [math.nan], exact)) == {2}
    # measured from a wrong limit, the middle level, the gap grows
    assert set(checks.energy_gaps(energies, energies[1])) == {2}


def test_finite_check_fails_on_nan():
    assert checks.finite_errors(_rows([1.0, 0.5])) == {}
    assert set(checks.finite_errors(_rows([1.0, math.nan]))) == {1}


def test_repeat_check_fails_on_a_changed_or_missing_level():
    ref = _rows([1.0, 0.5, 0.25])
    assert checks.same_errors(_rows([1.0, 0.5, 0.25]), ref) == {}
    assert set(checks.same_errors(_rows([1.0, 0.5 * (1 + 1e-8), 0.25]),
                                  ref)) == {1}
    assert set(checks.same_errors(_rows([1.0, 0.5]), ref)) == {2}


def test_report_checks_follow_the_workload(sine_report):
    report = sine_report[0]
    patch = workloads.get(workloads.DISTORTED, 1)
    falling = workloads.get(workloads.FACESPLIT, 1)
    assert checks.report_failures(falling, report) == {}
    # sine errors are far above the patch ceiling
    assert set(checks.report_failures(patch, report)) == {0, 1, 2}
    reversed_report = dict(report, levels=report["levels"][::-1])
    assert checks.report_failures(falling, reversed_report) != {}


def test_tally_counts_failed_levels_once():
    tally = Tally(3)
    tally.round({})
    tally.round({2: ["a", "b"], 0: ["c"]})
    tally.round(error=RuntimeError("boom"))
    assert (tally.attempted, tally.failed, tally.correct) == (9, 5, False)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer._wrap("b.inner", lambda: sum(range(20000)))
    outer = tracer._wrap("a.outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.totals()
    count, incl, own = totals["a.outer"]
    assert count == 1 and totals["b.inner"][0] == 3
    assert own == pytest.approx(incl - totals["b.inner"][1], abs=1e-9)
    assert tracer.tree[("a.outer", "b.inner")][0] == 3


def test_tracer_restores_and_counts_repeat():
    config = study.StudyConfig(dim=2, k=2, family="distorted(3)",
                               case="patch", levels=[2, 4])
    assemble_before = study.assemble
    eval_before = study.pb.ScaledMonomialBasis.eval
    runs = []
    tracer = Tracer()
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            study.run_study(config)
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
    assert study.assemble is assemble_before
    assert study.pb.ScaledMonomialBasis.eval is eval_before
    counts = ("mesh.lp_solves", "element2d.builds", "polybasis.eval_points",
              "polybasis.quadrature_points", "system.nnz",
              "system.solve_iterations")
    assert [runs[0][c] for c in counts] == [runs[1][c] for c in counts]
    # one quality LP per cell: 4 + 16 cells
    assert runs[0]["mesh.lp_solves"] == 20
    assert runs[0]["element2d.builds"] == 20
    assert runs[0]["system.nnz"] > 0 and runs[0]["mesh.quality_s"] > 0
