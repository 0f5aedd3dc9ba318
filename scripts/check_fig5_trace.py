#!/usr/bin/env python3
"""End-to-end check of the JSON-lines trace path on the Figure 5 bench.

Usage: check_fig5_trace.py BENCH_FIG5_BYPASS

Runs the bench with SEMCC_TRACE=<temp file>, so the library dumps its
trace at exit, summarizes the dump with `trace_report.py --json`, and
compares the Figure 5 shape exactly: the bypassing probe of T3 is the one
blocked request, it blocks on T1's retained lock with a root-wait verdict,
and all four transactions commit. Runs as the `trace_report_fig5` ctest.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

EXPECTED = {
    "decisions": 40,
    "blocks": 1,
    "verdicts": {"root-wait": 1},
    "retained_hits": 1,
    "txn_commits": 4,
    "timeouts": 0,
    "deadlock_victims": 0,
}


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = sys.argv[1]
    report = pathlib.Path(__file__).resolve().parent / "trace_report.py"
    with tempfile.TemporaryDirectory() as tmp:
        dump = pathlib.Path(tmp) / "fig5.jsonl"
        subprocess.run([bench], env=dict(os.environ, SEMCC_TRACE=str(dump)),
                       check=True, stdout=subprocess.DEVNULL)
        out = subprocess.run([sys.executable, str(report), "--json",
                              str(dump)], check=True, capture_output=True,
                             text=True).stdout
    summary = json.loads(out)
    bad = [f"{k}: expected {v}, got {summary.get(k)}"
           for k, v in EXPECTED.items() if summary.get(k) != v]
    for line in bad:
        print(f"trace_report_fig5: {line}", file=sys.stderr)
    if bad:
        return 1
    print(f"trace_report_fig5: OK ({summary['events']} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
