#!/usr/bin/env python3
"""Render a semcc JSON-lines trace (util/trace.h) as a readable report.

Usage:
    trace_report.py TRACE.jsonl [--root ID] [--timeline] [--json]

Obtain a trace by running any bench or example with SEMCC_TRACE set to an
output path, e.g.:

    SEMCC_TRACE=/tmp/fig5.jsonl ./build/bench/bench_fig5_bypass
    scripts/trace_report.py /tmp/fig5.jsonl

The report has two parts:
  * a verdict summary — how many lock decisions fell into each outcome
    (commute / Case 1 / Case 2 / root wait), how many blocks hit a
    *retained* lock, wait times;
  * a per-transaction decision timeline (--timeline, or automatically when
    the trace is small) — every grant/block/wakeup/commit in emit order,
    grouped under the top-level transaction that issued it.

--root ID restricts the timeline to one top-level transaction.
--json emits the summary as one JSON object instead of text.
"""

import argparse
import collections
import json
import os
import sys

# ConflictOutcome (src/cc/lock_manager.h) — keep in sync.
VERDICTS = {
    0: "no-lock",
    1: "same-txn",
    2: "commute",
    3: "case1-grant",
    4: "case2-wait",
    5: "root-wait",
    6: "shared-grant",
    7: "holder-wait",
}

FLAG_BLOCKER_RETAINED = 1

# Event kinds that represent a lock decision on the acquire path.
DECISION_KINDS = {"grant", "block"}


def load_events(path):
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as e:
                print(f"{path}:{lineno}: skipping malformed line ({e})",
                      file=sys.stderr)
    events.sort(key=lambda e: e.get("seq", 0))
    return events


def summarize(events):
    s = {
        "events": len(events),
        "decisions": 0,
        "verdicts": collections.Counter(),
        "retained_hits": 0,
        "blocks": 0,
        "grants_after_wait": 0,
        "deadlock_victims": 0,
        "timeouts": 0,
        "txn_begins": 0,
        "txn_commits": 0,
        "txn_aborts": 0,
        "txn_retries": 0,
        "wal_flushes": 0,
        "snapshot_reads": 0,
        "wait_us": [],
        "roots": set(),
    }
    for e in events:
        kind = e.get("kind", "?")
        if e.get("root"):
            s["roots"].add(e["root"])
        if kind in DECISION_KINDS:
            s["decisions"] += 1
            verdict = VERDICTS.get(e.get("verdict", 0), "?")
            if kind == "block":
                s["blocks"] += 1
                s["verdicts"][verdict] += 1
                if e.get("flags", 0) & FLAG_BLOCKER_RETAINED:
                    s["retained_hits"] += 1
            elif verdict != "no-lock":
                s["verdicts"][verdict] += 1
        elif kind == "grant-after-wait":
            s["grants_after_wait"] += 1
            s["wait_us"].append(e.get("value", 0))
        elif kind == "deadlock-victim":
            s["deadlock_victims"] += 1
        elif kind == "lock-timeout":
            s["timeouts"] += 1
        elif kind == "txn-begin":
            s["txn_begins"] += 1
        elif kind == "txn-commit":
            s["txn_commits"] += 1
        elif kind == "txn-abort":
            s["txn_aborts"] += 1
        elif kind == "txn-retry":
            s["txn_retries"] += 1
        elif kind == "wal-flush":
            s["wal_flushes"] += 1
        elif kind == "snapshot-read":
            s["snapshot_reads"] += 1
    return s


def print_summary(s):
    print(f"events           : {s['events']} "
          f"({len(s['roots'])} top-level transactions)")
    print(f"lock decisions   : {s['decisions']} "
          f"({s['blocks']} blocked)")
    if s["verdicts"]:
        print("verdicts         :")
        for verdict, n in s["verdicts"].most_common():
            print(f"  {verdict:<14} {n}")
    print(f"retained-lock hits: {s['retained_hits']} "
          "(blocks against a completed holder's retained lock)")
    print(f"txns             : {s['txn_begins']} begun, "
          f"{s['txn_commits']} committed, {s['txn_aborts']} aborted, "
          f"{s['txn_retries']} retried")
    if s["deadlock_victims"] or s["timeouts"]:
        print(f"failures         : {s['deadlock_victims']} deadlock victims, "
              f"{s['timeouts']} timeouts")
    if s["wal_flushes"]:
        print(f"wal flushes      : {s['wal_flushes']}")
    if s["snapshot_reads"]:
        print(f"snapshot reads   : {s['snapshot_reads']} "
              "(MVCC reads that took no semantic lock)")
    if s["wait_us"]:
        waits = sorted(s["wait_us"])

        def p(q):
            return waits[min(len(waits) - 1, int(len(waits) * q))]

        print(f"wait us          : n={len(waits)} p50={p(0.5)} "
              f"p95={p(0.95)} max={waits[-1]}")


def event_line(e):
    kind = e.get("kind", "?")
    parts = [f"{e.get('us', 0):>8}us", f"{kind:<16}"]
    method = e.get("method", "")
    if method:
        parts.append(f"{method}")
    if e.get("target"):
        parts.append(f"target={e['target']}")
    if kind in DECISION_KINDS or kind == "wakeup":
        verdict = VERDICTS.get(e.get("verdict", 0), "?")
        if verdict != "no-lock":
            parts.append(f"verdict={verdict}")
    if kind == "block":
        parts.append(f"blocker=txn{e.get('other', 0)}")
        if e.get("flags", 0) & FLAG_BLOCKER_RETAINED:
            parts.append("[retained]")
    if kind == "grant-after-wait" and e.get("value"):
        parts.append(f"waited={e['value']}us")
    if kind == "txn-retry":
        parts.append(f"attempt={e.get('value', 0)}")
    if kind == "wal-flush":
        parts.append(f"batch={e.get('other', 0)} device={e.get('value', 0)}us")
    if kind == "snapshot-read":
        parts.append(f"S={e.get('other', 0)} saw=ts{e.get('value', 0)}")
    return "  " + " ".join(parts)


def print_timeline(events, only_root):
    by_root = collections.defaultdict(list)
    for e in events:
        root = e.get("root", 0)
        if only_root is not None and root != only_root:
            continue
        by_root[root].append(e)
    for root in sorted(by_root):
        label = f"txn {root}" if root else "(no transaction)"
        print(f"\n-- {label} " + "-" * max(1, 60 - len(label)))
        for e in by_root[root]:
            subtxn = e.get("txn", 0)
            prefix = f"  [sub {subtxn}]" if subtxn != root else "  [root  ]"
            print(prefix + event_line(e))


def main():
    ap = argparse.ArgumentParser(
        description="Render a semcc JSON-lines trace.")
    ap.add_argument("trace", help="JSON-lines trace file (SEMCC_TRACE dump)")
    ap.add_argument("--root", type=int, default=None,
                    help="limit the timeline to one top-level txn id")
    ap.add_argument("--timeline", action="store_true",
                    help="always print the per-transaction timeline")
    ap.add_argument("--json", action="store_true",
                    help="emit the summary as JSON")
    args = ap.parse_args()

    events = load_events(args.trace)
    if not events:
        print(f"{args.trace}: no events", file=sys.stderr)
        return 1
    s = summarize(events)
    if args.json:
        out = dict(s)
        out["verdicts"] = dict(s["verdicts"])
        out["roots"] = len(s["roots"])
        out["wait_us"] = {"n": len(s["wait_us"]),
                          "max": max(s["wait_us"], default=0)}
        print(json.dumps(out, indent=2))
    else:
        print_summary(s)
        if args.timeline or args.root is not None or s["events"] <= 400:
            print_timeline(events, args.root)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
