#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload edge_sfc --seed 1 --seconds 10 --trace 0

The benchmark binary is built with cargo (offline, release profile) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Spans of a traced run are written under <target dir>/perfbench/.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("edge_sfc", "cluster_spill", "nat_churn")
# The binary's own limit; the caller allows 180 s per run.
RUN_TIMEOUT_S = 175


def source_id(root: pathlib.Path) -> str:
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "tests", "perfbench"):
        base = root / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml"):
                digest.update(str(f.relative_to(root)).encode())
                digest.update(f.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def rustc_version() -> str:
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(root / "perfbench" / "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_COMMIT"] = source_id(root)
    env["PERFBENCH_RUSTC"] = rustc_version()
    cmd = [
        str(target / "release" / "dejavu-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(target / "perfbench"),
    ]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
