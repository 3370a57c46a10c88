"""One benchmark run of one workload, in a fresh process.

Started by run.py with the BLAS thread pools pinned to one thread and
with the checkout's src/ on the path. The run

1. times the set-up: from the launcher's spawn of this process to the
   end of a one-cell study of the workload's dim, k and family, which
   imports polyvem and makes the first call into every layer;
2. repeats the full study ladder (one round = one `run_study`, as a CLI
   user with --out runs it) until --seconds have passed, tracing off;
   with --trace 1 untraced and traced rounds alternate instead;
3. runs one more round with a hook on `compute_errors` that checks each
   solved level's system, and checks every round's report.

The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import polyvem
import workloads
from polyvem import study
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _clock():
    # CLOCK_MONOTONIC is system-wide, so it spans the launcher too
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC reading at the spawn")
    return parser.parse_args(argv)


def host_record(seed):
    """Host, thread settings and versions the figures were taken on."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "seed": seed}


class Tally:
    """Levels attempted and failed, and whether any output was wrong."""

    def __init__(self, n_levels):
        self.n_levels = n_levels
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []

    def round(self, failures=None, error=None):
        """Count one round: every level, or only those with failures."""
        self.attempted += self.n_levels
        if error is not None:
            # run_study raised: no level of the round has an output
            self.failed += self.n_levels
            self.messages.append(f"raised {error!r}")
            return
        for level in sorted(failures or {}):
            self.failed += 1
            self.correct = False
            self.messages.extend(f"level {level}: {m}"
                                 for m in failures[level])


def timed_round(config):
    """Wall time and report of one study, or (time, None, exception)."""
    start = time.perf_counter()
    try:
        report = study.run_study(config)
    except Exception as exc:  # counted as failed levels, run continues
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, report, None


def checked_round(workload, config):
    """One study with each solved level's system checked on the way.

    Returns the report (or None), the exception it raised (or None) and
    a failure map. The hook runs in no timed round.
    """
    level_msgs, energies = [], []
    original = study.compute_errors

    def hooked(mesh, k, system, x_full, case, *args, **kwargs):
        msgs, energy = checks.system_check(system, x_full)
        level_msgs.append(msgs)
        energies.append(energy)
        return original(mesh, k, system, x_full, case, *args, **kwargs)

    study.compute_errors = hooked
    try:
        _, report, error = timed_round(config)
    finally:
        study.compute_errors = original
    if error is not None:
        return None, error, {}
    failures = checks.merge(
        {i: msgs for i, msgs in enumerate(level_msgs) if msgs},
        checks.report_failures(workload, report),
        (checks.energy_gaps(energies, workload.energy)
         if workload.energy is not None else {}))
    return report, None, failures


def timed_rounds(config, seconds, tally, tracer=None):
    """Repeat the study until `seconds` of rounds have passed.

    Without a tracer every round runs the program untouched. With one,
    rounds alternate untraced and traced, starting untraced, and at
    least one of each runs. Returns the round times (untraced, traced),
    the reports, and the per-layer metrics of every traced round.
    """
    times = {False: [], True: []}
    reports, layer_runs = [], []
    traced = False
    while sum(times[False]) + sum(times[True]) < seconds or (
            tracer is not None and not times[True]):
        if traced:
            tracer.reset()
            tracer.install()
        try:
            elapsed, report, error = timed_round(config)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(elapsed)
        if error is not None:
            tally.round(error=error)
        else:
            reports.append(report)
        if traced:
            layer_runs.append(tracer.metrics())
        traced = tracer is not None and not traced
    return times[False], times[True], reports, layer_runs


def trace_metrics(layer_runs, untraced, traced):
    """Per-layer metrics: medians over the traced rounds, plus the
    traced and untraced study times and the overhead between them."""
    median = statistics.median
    metrics = {name: {"value": median([run[name] for run in layer_runs]),
                      "unit": unit}
               for name, unit in _units(layer_runs[0])}
    metrics["trace.study_s"] = {"value": median(traced), "unit": "s"}
    metrics["trace.untraced_study_s"] = {"value": median(untraced),
                                         "unit": "s"}
    metrics["trace.overhead"] = {
        "value": median(traced) / median(untraced) - 1.0, "unit": "ratio"}
    return metrics


def _units(sample):
    for name in sample:
        if name.endswith("_s"):
            yield name, "s"
        elif name == "system.solve_residual":
            yield name, "relative"
        else:
            yield name, "count"


def main(argv=None):
    args = parse_args(argv)
    if Path(polyvem.__file__).resolve().parent != ROOT / "src" / "polyvem":
        sys.exit(f"polyvem imported from {polyvem.__file__}, "
                 f"not from {ROOT / 'src'}")
    try:
        workload = workloads.get(args.workload, args.seed)
    except ValueError as exc:
        sys.exit(str(exc))
    out = ROOT / "perfbench" / "out" / workload.name
    study.run_study(workload.setup_config(str(out / "setup")))
    setup_s = _clock() - args.spawned

    config = workload.config(str(out / "report"))
    tally = Tally(len(workload.levels))
    tracer = Tracer() if args.trace else None
    untraced, traced, reports, layer_runs = timed_rounds(
        config, args.seconds, tally, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked, error, failures = checked_round(workload, config)
    tally.round(failures, error)
    for report in reports:
        found = checks.report_failures(workload, report)
        if checked is not None:
            found = checks.merge(found, checks.same_errors(
                report["levels"], checked["levels"]))
        tally.round(found)

    record = host_record(args.seed)
    record.update(workload=workload.name, levels=workload.levels,
                  rounds_s=untraced, traced_rounds_s=traced,
                  messages=tally.messages[:20])
    if tracer is not None:
        metrics = trace_metrics(layer_runs, untraced, traced)
        # the call tree of the last traced round
        tree = out / "call_tree.json"
        tree.write_text(json.dumps(tracer.call_tree(), indent=1) + "\n")
        record["call_tree"] = str(tree.relative_to(ROOT))
    else:
        metrics = {"study_s": {"value": statistics.median(untraced),
                               "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
