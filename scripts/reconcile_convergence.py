#!/usr/bin/env python3
"""Independent reconciliation of the convergence plane against the journal.

The monitoring CI job runs a journaled campaign with the live server
attached, scrapes the final `/convergence` snapshot and the Prometheus
exposition, and keeps the run journal. This script re-derives every
per-(operating point, voltage domain, array) cell from `journal.jsonl`
with a second implementation (Python, not the Rust tracker) and demands
agreement:

  * per-cell masked/DUE/SDC counts      == snapshot counts, integer-exact
  * per-point trials and live seconds   == snapshot, exact
  * rates and Garwood CI bounds         == snapshot, to 1e-9 relative
                                           (own Wilson-Hilferty here)
  * `convergence_events` gauges in the Prometheus text == snapshot counts
  * `convergence_cells_total` / `convergence_resolved_cells` == snapshot
  * every journal line's `crc` == FNV-1a-64 over the line's bytes before
    `,"crc":"`, followed by `}` — recomputed here, independently of the
    Rust writer that stamped it and the Rust reader that checks it

The count checks are exact because both sides stream the same integer
events; the interval checks carry a tolerance only because this script
deliberately re-implements the chi-square quantile instead of calling
the Rust one.

Usage: reconcile_convergence.py JOURNAL_DIR CONVERGENCE_JSON METRICS_PROM
"""

import json
import math
import re
import sys
from pathlib import Path

SERIES_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})? (?P<value>\S+)$'
)
LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')

CRC_MARKER = b',"crc":"'
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

CI_LEVEL = 0.95
TARGET_REL_HALFWIDTH = 0.10
REL_TOL = 1e-9

# ArrayKind display names and their powering voltage domain (L3 rides
# the SoC rail; everything else is PMD-powered).
ARRAYS = {
    "L1I": "PMD",
    "L1D": "PMD",
    "DTLB": "PMD",
    "ITLB": "PMD",
    "L2TLB": "PMD",
    "L2": "PMD",
    "L3": "SoC",
}


def inverse_normal_cdf(p):
    """Acklam's rational approximation, mirroring serscale-stats."""
    assert 0.0 < p < 1.0
    a = [-3.969683028665376e1, 2.209460984245205e2, -2.759285104469687e2,
         1.38357751867269e2, -3.066479806614716e1, 2.506628277459239]
    b = [-5.447609879822406e1, 1.615858368580409e2, -1.556989798598866e2,
         6.680131188771972e1, -1.328068155288572e1]
    c = [-7.784894002430293e-3, -3.223964580411365e-1, -2.400758277161838,
         -2.549732539343734, 4.374664141464968, 2.938163982698783]
    d = [7.784695709041462e-3, 3.224671290700398e-1, 2.445134137142996,
         3.754408661907416]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def chi_square_quantile(p, k):
    """Wilson-Hilferty cube, clamped at zero like the Rust original."""
    kf = float(k)
    z = inverse_normal_cdf(p)
    term = 1.0 - 2.0 / (9.0 * kf) + z * math.sqrt(2.0 / (9.0 * kf))
    return kf * max(term ** 3, 0.0)


def poisson_ci(count, level):
    alpha = 1.0 - level
    lower = 0.0 if count == 0 else 0.5 * chi_square_quantile(alpha / 2.0, 2 * count)
    upper = 0.5 * chi_square_quantile(1.0 - alpha / 2.0, 2 * count + 2)
    return lower, upper


def relative_uncertainty(count):
    if count == 0:
        return math.inf
    lo, hi = poisson_ci(count, 0.95)
    return (hi - lo) / (2.0 * count)


def point_label(pmd_mv, freq_mhz):
    """OperatingPoint::label(): '980mV@2.4 GHz' / '790mV@900 MHz'."""
    if freq_mhz >= 1000:
        ghz = freq_mhz / 1000.0
        text = str(int(ghz)) if ghz == int(ghz) else repr(ghz)
        return f"{pmd_mv}mV@{text} GHz"
    return f"{pmd_mv}mV@{freq_mhz} MHz"


def fnv1a64(data):
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def journal_lines(path):
    """The journal's newline-terminated lines, as bytes."""
    return path.read_bytes().split(b"\n")[:-1]


def digest_problem(raw):
    """Why a journal line's digest does not verify, or None if it does."""
    at = raw.rfind(CRC_MARKER)
    if at < 0:
        return "no crc field"
    want = f"{fnv1a64(raw[:at] + b'}'):016x}"
    got = json.loads(raw).get("crc")
    if got != want:
        return f"crc {got!r}, recomputed {want}"
    return None


def replay_journal(lines):
    """Replays journal.jsonl with the tracker's exact arithmetic: the
    session clock advances by every trial's wall_s (quarantined trials
    included); only non-quarantined trials contribute runs and events."""
    points = {}  # (pmd, soc, freq) -> {"label", "trials", "live", "cells"}
    current = None
    clock = 0.0
    for raw in lines:
        rec = json.loads(raw)
        kind = rec["rec"]
        if kind == "campaign":
            continue
        if kind == "session":
            setting = (rec["pmd_mv"], rec["soc_mv"], rec["freq_mhz"])
            current = points.setdefault(
                setting,
                {"label": point_label(rec["pmd_mv"], rec["freq_mhz"]),
                 "trials": 0, "live": 0.0,
                 "cells": {(dom, arr): [0, 0, 0] for arr, dom in ARRAYS.items()}},
            )
            clock = 0.0
        elif kind == "trial":
            clock += rec["wall_s"]
            if rec["quarantined"]:
                continue
            current["trials"] += 1
            sdc_trial = rec["verdict"] == "sdc"
            for _t, array, severity in rec["edac"]:
                cell = current["cells"][(ARRAYS[array], array)]
                if severity == "CE":
                    cell[0] += 1
                elif sdc_trial:
                    cell[2] += 1
                else:
                    cell[1] += 1
        elif kind == "session_end":
            current["live"] += clock
            clock = 0.0
            current = None
        else:
            sys.exit(f"unknown journal record {kind!r}")
    return points


def close(a, b):
    if math.isinf(a) and math.isinf(b):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def parse_prom(text):
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = SERIES_RE.match(line)
        if not m:
            sys.exit(f"unparseable metrics line: {line!r}")
        labels = dict(
            (lm.group("key"), lm.group("value"))
            for lm in LABEL_RE.finditer(m.group("labels") or "")
        )
        yield m.group("name"), labels, float(m.group("value"))


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    journal = journal_lines(Path(sys.argv[1]) / "journal.jsonl")
    snapshot = json.loads(Path(sys.argv[2]).read_text())
    prom_text = Path(sys.argv[3]).read_text()

    failures = []

    def fail(msg):
        failures.append(msg)
        print(f"MISMATCH {msg}")

    for number, raw in enumerate(journal, 1):
        problem = digest_problem(raw)
        if problem:
            fail(f"journal line {number}: {problem}")
    replayed = replay_journal(journal)

    snap_points = {
        (p["pmd_mv"], p["soc_mv"], p["freq_mhz"]): p for p in snapshot["points"]
    }
    if set(snap_points) != set(replayed):
        fail(f"operating points: snapshot {sorted(snap_points)} journal {sorted(replayed)}")

    cells_checked = 0
    resolved = 0
    for setting, mine in replayed.items():
        label = mine["label"]
        point = snap_points.get(setting)
        if point is None:
            continue
        if point["voltage"] != label:
            fail(f"{setting}: label snapshot {point['voltage']!r} != {label!r}")
        if point["trials"] != mine["trials"]:
            fail(f"{label}: trials snapshot {point['trials']} journal {mine['trials']}")
        if point["live_seconds"] != mine["live"]:
            fail(f"{label}: live_seconds snapshot {point['live_seconds']!r} "
                 f"journal {mine['live']!r}")
        hours = mine["live"] / 3600.0
        for cell in point["cells"]:
            cells_checked += 1
            key = (cell["domain"], cell["array"])
            masked, due, sdc = mine["cells"][key]
            if (cell["masked"], cell["due"], cell["sdc"]) != (masked, due, sdc):
                fail(f"{label} {key}: snapshot ({cell['masked']},{cell['due']},"
                     f"{cell['sdc']}) journal ({masked},{due},{sdc})")
                continue
            events = masked + due + sdc
            if cell["events"] != events:
                fail(f"{label} {key}: events {cell['events']} != {events}")
            if mine["live"] > 0.0:
                lo, hi = poisson_ci(events, CI_LEVEL)
                want_rate, want_lo, want_hi = events / hours, lo / hours, hi / hours
            else:
                want_rate = want_lo = want_hi = 0.0
            for field, want in (("rate_per_hour", want_rate),
                                ("ci_lower_per_hour", want_lo),
                                ("ci_upper_per_hour", want_hi)):
                if not close(cell[field], want):
                    fail(f"{label} {key}: {field} snapshot {cell[field]!r} "
                         f"recomputed {want!r}")
            rel = relative_uncertainty(events)
            snap_rel = cell["rel_halfwidth"]
            if snap_rel is None:
                if not math.isinf(rel):
                    fail(f"{label} {key}: rel_halfwidth null but recomputed {rel!r}")
            elif not close(snap_rel, rel):
                fail(f"{label} {key}: rel_halfwidth snapshot {snap_rel!r} "
                     f"recomputed {rel!r}")
            want_resolved = math.isfinite(rel) and rel <= TARGET_REL_HALFWIDTH
            if cell["resolved"] != want_resolved:
                fail(f"{label} {key}: resolved {cell['resolved']} != {want_resolved}")
            if cell["resolved"]:
                resolved += 1

    if snapshot["cells_total"] != cells_checked:
        fail(f"cells_total {snapshot['cells_total']} != {cells_checked} checked")
    if snapshot["cells_resolved"] != resolved:
        fail(f"cells_resolved {snapshot['cells_resolved']} != {resolved} recomputed")

    # The Prometheus gauges carry the same cells.
    prom_events = {}
    prom_headline = {}
    for name, labels, value in parse_prom(prom_text):
        if name == "convergence_events":
            key = (labels["voltage"], labels["domain"], labels["array"], labels["class"])
            prom_events[key] = value
        elif name in ("convergence_cells_total", "convergence_resolved_cells"):
            prom_headline[name] = value
    if not prom_events:
        fail("no convergence_events gauges in the Prometheus exposition")
    for mine in replayed.values():
        label = mine["label"]
        for (domain, array), (masked, due, sdc) in mine["cells"].items():
            for cls, want in (("masked", masked), ("due", due), ("sdc", sdc)):
                got = prom_events.get((label, domain, array, cls))
                if got != float(want):
                    fail(f"convergence_events{{{label},{domain},{array},{cls}}} "
                         f"prom {got} journal {want}")
    if prom_headline.get("convergence_cells_total") != float(cells_checked):
        fail(f"prom convergence_cells_total {prom_headline.get('convergence_cells_total')} "
             f"!= {cells_checked}")
    if prom_headline.get("convergence_resolved_cells") != float(resolved):
        fail(f"prom convergence_resolved_cells "
             f"{prom_headline.get('convergence_resolved_cells')} != {resolved}")

    if failures:
        sys.exit(f"reconciliation failed: {len(failures)} mismatch(es)")
    print(
        f"reconciled {cells_checked} cells across {len(replayed)} operating points: "
        f"counts integer-exact, live time exact, intervals within {REL_TOL:g}, "
        f"{resolved} resolved at +-{TARGET_REL_HALFWIDTH:.0%}, "
        f"{len(journal)} journal digests recomputed"
    )


if __name__ == "__main__":
    main()
