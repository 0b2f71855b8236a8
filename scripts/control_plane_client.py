#!/usr/bin/env python3
"""Drive a live `repro serve` control plane the way CI does.

Stdlib only. Against a base URL this client:

1. posts a body nested 60,000 arrays deep, which must come back as a 400
   on the `body` field while `/healthz` keeps answering (the service
   survives input that would recurse a parser off its stack),
2. submits three campaign specs from two tenants (two short jobs whose
   reports CI diffs against one-shot `repro --summary-out` goldens, plus
   one deliberately long job),
3. streams one job's chunked JSONL event feed while it runs,
4. cancels the long job mid-run (wave-boundary cancel, resumable
   journal),
5. waits for the surviving jobs, fetches their reports, and
6. asks the service to drain via `POST /shutdown`.

Every response is checked against the control plane's documented
contract; any violation exits nonzero with a readable message.

Usage: control_plane_client.py BASE_URL --out DIR
"""

import argparse
import json
import pathlib
import sys
import threading
import time
import urllib.error
import urllib.request

POLL_SECS = 0.05
DEADLINE_SECS = 240.0

# The two short specs: must mirror the `repro --summary-out` invocations
# in .github/workflows/ci.yml byte for byte (same seed, scale, jobs).
SHORT_SPECS = [
    {"name": "ci-a", "tenant": "ci", "seed": 301, "scale": 0.002, "jobs": 1},
    {"name": "ci-b", "tenant": "ci", "seed": 302, "scale": 0.002, "jobs": 8},
]

# The cancel target: an explicit schedule several times the paper's beam
# time, single-threaded so it stays running while the client takes aim.
CANCEL_SPEC = {
    "name": "ci-cancel",
    "tenant": "ci-2",
    "seed": 303,
    "jobs": 1,
    "sessions": [
        {"pmd_mv": mv, "soc_mv": 950, "freq_mhz": 2400, "minutes": 10000}
        for mv in range(980, 940, -5)
    ],
}

# A submission nested far past the JSON codec's depth limit.
DEEP_BODY = "[" * 60_000


def request(base, method, path, body=None):
    """One HTTP exchange; returns (status, text). A `str` body is sent
    verbatim, anything else as JSON."""
    if body is None:
        data = None
    elif isinstance(body, str):
        data = body.encode()
    else:
        data = json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry a body
        return err.code, err.read().decode()


def submit(base, spec):
    status, body = request(base, "POST", "/campaigns", spec)
    assert status == 202, f"submit {spec['name']}: HTTP {status}: {body}"
    doc = json.loads(body)
    print(f"submitted {spec['name']} as job {doc['id']}")
    return doc["id"]


def job_doc(base, job):
    status, body = request(base, "GET", f"/campaigns/{job}")
    assert status == 200, f"status {job}: HTTP {status}: {body}"
    return json.loads(body)


def wait_until(base, job, pred, what):
    deadline = time.monotonic() + DEADLINE_SECS
    while True:
        doc = job_doc(base, job)
        if pred(doc):
            return doc
        assert time.monotonic() < deadline, f"job {job}: timeout waiting for {what}: {doc}"
        time.sleep(POLL_SECS)


def stream_events(base, job, out_path, errors):
    """Follows the chunked JSONL feed until the server closes it."""
    try:
        req = urllib.request.Request(base + f"/campaigns/{job}/events")
        lines = 0
        with urllib.request.urlopen(req, timeout=DEADLINE_SECS) as resp, open(
            out_path, "wb"
        ) as out:
            for raw in resp:  # http.client undoes the chunking
                out.write(raw)
                json.loads(raw)  # every line must be a standalone event
                lines += 1
        assert lines > 0, "event stream closed without a single event"
        print(f"streamed {lines} events from job {job}")
    except Exception as err:  # surfaced by the main thread
        errors.append(f"event stream of job {job}: {err!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base", help="service base URL, e.g. http://127.0.0.1:8080")
    parser.add_argument("--out", required=True, help="directory for reports and feeds")
    args = parser.parse_args()
    base = args.base.rstrip("/")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    status, body = request(base, "POST", "/campaigns", DEEP_BODY)
    assert status == 400, f"deeply nested body: HTTP {status}: {body[:200]}"
    field = json.loads(body)["error"]["field"]
    assert field == "body", f"deeply nested body rejected on field {field!r}"
    status, body = request(base, "GET", "/healthz")
    assert status == 200, f"healthz after the deeply nested body: HTTP {status}: {body}"
    print("deeply nested body rejected with 400 on `body`; service still healthy")

    short_ids = [submit(base, spec) for spec in SHORT_SPECS]
    cancel_id = submit(base, CANCEL_SPEC)

    # Stream the first short job's events while everything runs.
    stream_errors = []
    streamer = threading.Thread(
        target=stream_events,
        args=(base, short_ids[0], out / f"events-{SHORT_SPECS[0]['seed']}.jsonl", stream_errors),
    )
    streamer.start()

    # Cancel the long job once it is demonstrably mid-run.
    doc = wait_until(
        base,
        cancel_id,
        lambda d: d["done"] or (d["status"] == "running" and d["trials_done"] > 0),
        "progress",
    )
    if not doc["done"]:
        status, body = request(base, "DELETE", f"/campaigns/{cancel_id}")
        assert status == 200, f"cancel: HTTP {status}: {body}"
    doc = wait_until(base, cancel_id, lambda d: d["done"], "terminal state")
    print(f"cancel target finished as {doc['status']!r}")
    assert doc["status"] in ("cancelled", "done"), doc
    if doc["status"] == "cancelled":
        # A cancelled job has no report (409) but keeps a resumable journal.
        status, body = request(base, "GET", f"/campaigns/{cancel_id}/report")
        assert status == 409, f"cancelled job served a report: HTTP {status}: {body}"
        assert doc["journal"], f"cancelled job lost its journal: {doc}"

    # The surviving jobs run to completion; their reports go to disk for
    # the byte-for-byte diff against the one-shot goldens.
    for spec, job in zip(SHORT_SPECS, short_ids):
        doc = wait_until(base, job, lambda d: d["done"], "completion")
        assert doc["status"] == "done", f"job {job} ended {doc['status']!r}: {doc}"
        status, report = request(base, "GET", f"/campaigns/{job}/report")
        assert status == 200, f"report {job}: HTTP {status}"
        path = out / f"report-{spec['seed']}.txt"
        path.write_text(report)
        print(f"job {job} report -> {path}")

    streamer.join(DEADLINE_SECS)
    assert not streamer.is_alive(), "event stream never terminated"
    assert not stream_errors, stream_errors

    # The listing agrees with everything above.
    status, body = request(base, "GET", "/campaigns")
    assert status == 200
    listing = {doc["id"]: doc for doc in json.loads(body)}
    assert set(listing) == set(short_ids) | {cancel_id}, listing

    status, body = request(base, "POST", "/shutdown")
    assert status == 200, f"shutdown: HTTP {status}: {body}"
    print("service draining; client done")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as err:
        print(f"control-plane contract violation: {err}", file=sys.stderr)
        sys.exit(1)
