#!/usr/bin/env python3
"""Checks that the benchmark's simulated and count metrics depend only on the seed.

Run from the repository root:

    python3 perfbench/determinism.py --workload nat_churn --seed 7 --seconds 3 [--trace 1]

Runs the workload twice with the same seed and requires every simulated
metric (unit sim_ns) and every deterministic count to match exactly. Wall-clock
metrics are printed side by side but not compared; their run-to-run spread
is what BENCHMARK.json bounds. Exits 1 on any mismatch.
"""

import argparse
import pathlib
import subprocess
import sys

# Counts that depend on wall-clock time (how many packets fit in the
# measured phase) and are therefore not expected to repeat.
TIME_DEPENDENT = {
    "lat_samples",
    "idle_lat_samples",
    "migrations",
    "rtc.pool_exhausted",
    "rtc.pool_in_use_peak",
    "migrate.parked",
    "migrate.quiesced",
}
DETERMINISTIC_UNITS = {"sim_ns", "count", "score", "bytes"}


def metric_lines(args, root):
    cmd = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed with exit code {out.returncode}")
    metrics = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        # "#   <name> <value> <unit> ..." lines list every printed metric.
        if line.startswith("#   ") and len(parts) >= 4:
            try:
                metrics[parts[1]] = (float(parts[2]), parts[3])
            except ValueError:
                pass
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = pathlib.Path(__file__).resolve().parent.parent
    first = metric_lines(args, root)
    second = metric_lines(args, root)
    failures = 0
    for name, (a, unit) in sorted(first.items()):
        b = second.get(name, (None, unit))[0]
        checked = unit in DETERMINISTIC_UNITS and name not in TIME_DEPENDENT
        same = a == b
        if checked and not same:
            failures += 1
        tag = ("same" if same else "DIFFERS") if checked else "wall-clock"
        print(f"{name:34} {a:>18.6f} {b if b is not None else float('nan'):>18.6f} {unit:<10} {tag}")
    print(f"{failures} deterministic metric(s) differ between two runs of seed {args.seed}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
