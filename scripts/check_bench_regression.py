#!/usr/bin/env python3
"""Throughput regression gate over BENCH_campaign_throughput.json.

Compares a freshly measured `repro bench` artifact (the candidate) with
the committed baseline, row by row, and exits non-zero when a gated row
lost more than the tolerance (default 20%):

* A stage row (one that names a `parent`) is gated on its `ratio`, its
  trials/sec over its parent's from the same rounds, so the comparison
  holds between hosts of different speeds. Its parent must be present in
  both artifacts.
* `jobs=1` is gated on trials/sec, which compares the measuring host
  with the recording host.
* A `jobs=N` row with N >= 2 is gated on trials/sec only when both
  artifacts ran it on N workers with a hardware thread to spare
  (`host_threads > N`). Otherwise it is listed as skipped, with the
  reason.

Both artifacts must carry the same campaign config fingerprint: a
different fingerprint means the bench measures a different workload, so
the baseline must be re-recorded, not compared.

Usage:
    scripts/check_bench_regression.py BASELINE CANDIDATE [--tolerance 0.20]

Re-baselining (intentional perf changes, toolchain bumps, CI runner
changes): regenerate with `repro bench --out BENCH_campaign_throughput.json`,
commit the new file, and apply the `rebaseline-bench` label to the PR so
the CI gate skips the stale comparison for that run. TESTING.md has the
full procedure.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            artifact = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench-gate: cannot read {path}: {e}")
    for field in ("bench", "config_fingerprint", "host_threads", "rows"):
        if field not in artifact:
            sys.exit(f"bench-gate: {path} has no '{field}' field")
    return artifact


def skip_reason(jobs, sides):
    """Why a `jobs=N` row cannot be compared, or None when it can.
    `sides` holds (name, artifact, row) for the baseline and candidate."""
    for name, artifact, row in sides:
        if row.get("workers") != jobs:
            return f"the {name} ran it on {row.get('workers')} workers"
        if artifact["host_threads"] <= jobs:
            return (
                f"the {name} host has {artifact['host_threads']} hardware "
                f"threads, none to spare beside {jobs} workers"
            )
    return None


def compare(baseline, candidate, tolerance):
    """Gates `candidate` against `baseline`. Returns the report lines and
    the failures; the candidate passes when there are no failures."""
    if baseline["bench"] != candidate["bench"]:
        return [], [
            f"bench mismatch: baseline is {baseline['bench']!r}, "
            f"candidate is {candidate['bench']!r}"
        ]
    if baseline["config_fingerprint"] != candidate["config_fingerprint"]:
        return [], [
            "campaign config fingerprint changed "
            f"({baseline['config_fingerprint']} -> {candidate['config_fingerprint']}); "
            "the bench measures a different workload now. Regenerate the "
            "baseline (see TESTING.md) instead of comparing."
        ]
    base_rows = {row["id"]: row for row in baseline["rows"]}
    cand_rows = {row["id"]: row for row in candidate["rows"]}
    lines = [f"bench-gate: tolerance {tolerance:.0%} per row"]
    failures = []
    for row_id, base in base_rows.items():
        cand = cand_rows.get(row_id)
        if cand is None:
            failures.append(f"{row_id}: missing from the candidate")
            continue
        parent = base.get("parent")
        if parent is not None:
            missing = [
                name
                for name, rows in (("baseline", base_rows), ("candidate", cand_rows))
                if parent not in rows
            ]
            if missing:
                failures.append(
                    f"{row_id}: its parent {parent} is missing from the "
                    + " and ".join(missing)
                )
                continue
            if cand.get("parent") != parent or "ratio" not in cand:
                failures.append(f"{row_id}: the candidate has no ratio to {parent}")
                continue
            metric, old, new = f"ratio to {parent}", base["ratio"], cand["ratio"]
            digits = 4
        else:
            sides = (("baseline", baseline, base), ("candidate", candidate, cand))
            reason = skip_reason(base["jobs"], sides) if base["jobs"] >= 2 else None
            if reason:
                lines.append(f"  {row_id:<27} skipped: {reason}")
                continue
            metric, old, new = "trials/sec", base["trials_per_sec"], cand["trials_per_sec"]
            digits = 1
        status = "ok"
        if new < old * (1.0 - tolerance):
            status = "REGRESSION"
            failures.append(f"{row_id}: {metric} fell from {old:g} to {new:g}")
        lines.append(
            f"  {row_id:<27} {old:>11.{digits}f} -> {new:>11.{digits}f} {metric} "
            f"({new / old - 1.0:+.1%})  {status}"
        )
    return lines, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="maximum tolerated fractional regression per row (default 0.20)",
    )
    args = parser.parse_args(argv)

    lines, failures = compare(load(args.baseline), load(args.candidate), args.tolerance)
    for line in lines:
        print(line)
    if failures:
        sys.exit(
            "bench-gate: failed:\n"
            + "\n".join(f"  {failure}" for failure in failures)
            + "\nIf intentional, regenerate the baseline and apply the "
            "'rebaseline-bench' label (TESTING.md)."
        )
    print("bench-gate: within tolerance")


if __name__ == "__main__":
    main()
