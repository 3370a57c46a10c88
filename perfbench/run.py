"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run it from anywhere; it measures the polyvem sources in src/ next to
this directory. The workload runs in a fresh worker process
(worker.py) with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so the
numbers come from one core of a shared host. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the worker's; it is 1 when src/polyvem is
missing or the worker does not finish in time.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyvem" / "__init__.py").is_file():
        print(f"no polyvem sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        return subprocess.run(cmd, env=env,
                              timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it
        print(f"worker did not finish in {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
