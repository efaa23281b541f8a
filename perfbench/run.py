#!/usr/bin/env python3
"""Builds and runs the repository benchmark (`perfbench`).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <list_walk|skip_churn|kv_service> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`) that
depends on the repository's crates by path. It is built in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`). The last line of
standard output is the benchmark's JSON result; with `--trace 1` the
spans and counter deltas are written under `<target dir>/perfbench-trace`.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# Backend of each workload's list, for the `core.hop_ns` calibration line.
HOP_BACKEND = {"list_walk": "refcount", "kv_service": "epoch"}


def calibration(workload, hop_ns):
    """Puts the traced `core.hop_ns` beside the ns/hop that the committed
    BENCH_traversal.json records (two measurements of the same rung)."""
    backend = HOP_BACKEND.get(workload)
    if backend is None:
        return None
    try:
        with open("BENCH_traversal.json", encoding="utf-8") as f:
            committed = json.load(f)
    except (OSError, ValueError):
        return f"core.hop_ns calibration: {hop_ns:.2f} ns/hop ({backend}); BENCH_traversal.json unavailable"
    sizes = [s["protected_ns_per_hop"] for s in committed.get("sizes", [])]
    matrix = [
        m["ns_per_hop"]
        for m in committed.get("matrix", [])
        if m.get("backend") == backend and m.get("threads") == 1
    ]
    parts = [f"core.hop_ns calibration: measured {hop_ns:.2f} ns/hop ({backend}, this workload's list)"]
    if backend == "refcount" and sizes:
        parts.append(f"BENCH_traversal.json sizes {min(sizes):.2f}-{max(sizes):.2f}")
    if matrix:
        parts.append(f"matrix {backend} t=1 {matrix[0]:.2f}")
    return "; ".join(parts)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, *sys.argv[1:], "--out-dir", os.path.join(target, "perfbench-trace")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: exited with code {run.returncode}", file=sys.stderr)
        return run.returncode or 1

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    hop = result["metrics"].get("core.hop_ns")
    workload = sys.argv[sys.argv.index("--workload") + 1] if "--workload" in sys.argv else None
    if hop is not None:
        note = calibration(workload, hop["value"])
        if note:
            print(note)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
