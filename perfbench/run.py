#!/usr/bin/env python3
"""Build and run the serscale benchmark from the repository root.

    python3 perfbench/run.py                  # every workload untraced, then traced
    python3 perfbench/run.py --workload campaign-bare --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --describe       # workloads and metrics as JSON

The benchmark binary is built from source with cargo into
$CARGO_TARGET_DIR (default .bench_build). Each workload runs in a process
of its own. The last line printed is the result as one JSON object; the
exit code is non-zero when the build failed or any check failed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["campaign-bare", "campaign-durable", "service-mix"]
DEFAULT_SEED = 20231028
DEFAULT_SECONDS = 25
# A run must finish within 180 s; stop a wedged one before that.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary's path, or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        status = subprocess.run(command, stdout=sys.stderr, env=env).returncode
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run(binary, arguments, capture):
    """Runs the binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run(
            [binary, *arguments],
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3, None
    return proc.returncode, proc.stdout


def run_all(binary, seed, seconds):
    """Every workload untraced, then every workload traced; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            arguments = ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)]
            code, out = run(binary, arguments, capture=True)
            lines = (out or "").splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"perfbench: {workload} printed no result", file=sys.stderr)
                return 1
            status = status or code
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.describe:
        return run(binary, ["--describe"], capture=False)[0]
    if args.workload is None:
        return run_all(binary, args.seed, args.seconds)
    arguments = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return run(binary, arguments, capture=False)[0]


if __name__ == "__main__":
    sys.exit(main())
