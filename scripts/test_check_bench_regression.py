#!/usr/bin/env python3
"""Tests for check_bench_regression.py, the throughput gate.

Run from the repository root:
    python3 scripts/test_check_bench_regression.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def artifact(host_threads=2):
    """An artifact as `repro bench` writes it on a host with `host_threads`
    hardware threads."""

    def row(row_id, jobs, trials_per_sec, parent=None, ratio=None):
        out = {
            "id": row_id,
            "jobs": jobs,
            "workers": min(jobs, host_threads),
            "iterations": 500,
            "trials_per_sec": trials_per_sec,
        }
        if parent:
            out.update(parent=parent, ratio=ratio)
        return out

    return {
        "bench": "campaign_throughput",
        "scale": 0.01,
        "seed": 20231028,
        "trials": 635,
        "config_fingerprint": "548b3325a14de7ba",
        "toolchain": "rustc",
        "host_threads": host_threads,
        "rows": [
            row("jobs=1", 1, 600000.0),
            row("jobs=2", 2, 400000.0),
            row("jobs=4", 4, 400000.0),
            row("jobs=8", 8, 400000.0),
            row("jobs=1+telemetry", 1, 270000.0, "jobs=1", 0.45),
            row("jobs=1+journal", 1, 300000.0, "jobs=1", 0.5),
            row("jobs=1+listen", 1, 190000.0, "jobs=1+telemetry", 0.7),
            row("jobs=1+listen+scrape-storm", 1, 130000.0, "jobs=1+listen", 0.7),
        ],
    }


def find(doc, row_id):
    return next(row for row in doc["rows"] if row["id"] == row_id)


class GateTest(unittest.TestCase):
    def run_gate(self, baseline, candidate):
        """Runs the script's entry point on two artifact files. Returns
        (passed, stdout, failure message)."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("baseline", baseline), ("candidate", candidate)):
                path = os.path.join(tmp, f"{name}.json")
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    gate.main(paths)
                except SystemExit as e:
                    return False, out.getvalue(), str(e.code)
            return True, out.getvalue(), ""

    def test_identical_artifacts_pass(self):
        passed, out, _ = self.run_gate(artifact(), artifact())
        self.assertTrue(passed)
        self.assertIn("within tolerance", out)

    def test_stage_ratio_25_percent_down_fails_naming_the_row(self):
        candidate = artifact()
        find(candidate, "jobs=1+journal")["ratio"] = 0.5 * 0.75
        passed, out, failure = self.run_gate(artifact(), candidate)
        self.assertFalse(passed)
        self.assertIn("jobs=1+journal: ratio to jobs=1 fell", failure)
        self.assertNotIn("jobs=1+telemetry", failure)

    def test_stage_ratio_within_tolerance_passes(self):
        candidate = artifact()
        find(candidate, "jobs=1+journal")["ratio"] = 0.5 * 0.85
        passed, _, _ = self.run_gate(artifact(), candidate)
        self.assertTrue(passed)

    def test_jobs_1_row_gated_on_throughput(self):
        candidate = artifact()
        find(candidate, "jobs=1")["trials_per_sec"] = 600000.0 * 0.75
        passed, _, failure = self.run_gate(artifact(), candidate)
        self.assertFalse(passed)
        self.assertIn("jobs=1: trials/sec fell", failure)

    def test_jobs_4_on_two_workers_is_skipped(self):
        candidate = artifact()
        find(candidate, "jobs=4")["trials_per_sec"] = 200000.0
        passed, out, _ = self.run_gate(artifact(), candidate)
        self.assertTrue(passed)
        self.assertIn("jobs=4", out)
        self.assertIn("skipped: the baseline ran it on 2 workers", out)

    def test_jobs_n_row_gated_with_a_spare_thread_on_both_hosts(self):
        baseline, candidate = artifact(host_threads=8), artifact(host_threads=8)
        find(candidate, "jobs=4")["trials_per_sec"] = 200000.0
        passed, out, failure = self.run_gate(baseline, candidate)
        self.assertFalse(passed)
        self.assertIn("jobs=4: trials/sec fell", failure)
        self.assertIn("skipped: the baseline host has 8 hardware threads", out)

    def test_stage_row_whose_parent_is_missing_fails(self):
        candidate = artifact()
        candidate["rows"] = [r for r in candidate["rows"] if r["id"] != "jobs=1+telemetry"]
        passed, _, failure = self.run_gate(artifact(), candidate)
        self.assertFalse(passed)
        self.assertIn(
            "jobs=1+listen: its parent jobs=1+telemetry is missing from the candidate",
            failure,
        )

    def test_fingerprint_mismatch_fails(self):
        candidate = artifact()
        candidate["config_fingerprint"] = "0000000000000000"
        passed, _, failure = self.run_gate(artifact(), candidate)
        self.assertFalse(passed)
        self.assertIn("fingerprint changed", failure)


if __name__ == "__main__":
    unittest.main()
