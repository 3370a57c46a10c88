"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs each workload (all of BENCHMARK.json's by default) --runs times,
one after another, each with its own seed, and prints per metric the
median and the quartile spread (Q3 - Q1) / median beside the metric's
bound, plus the share of failed operations. A spread is taken from
`statistics.quantiles(values, n=4)`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    status = 0
    for name in names:
        values, failed, attempted = {}, 0, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            status |= not result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.6g}" for m, e in
                result["metrics"].items() if m in bounds), flush=True)
        print(f"{name}: failed {failed} of {attempted}")
        for metric in bounds:
            vals = values[metric]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:26s} median {med:12.6g}  spread "
                  f"{spread:7.4f}  bound {bounds[metric]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
