#!/usr/bin/env python3
"""Non-gating perf-regression check over the committed BENCH_*.json files.

Usage: check_bench_regression.py OLD.json NEW.json [--threshold 0.15]

Understands both result schemas in this repo:
  * RunSummary row arrays (bench_throughput / bench_contention /
    bench_recovery): a JSON array of objects keyed by
    (protocol|experiment, label, threads), compared on throughput_tps
    (higher is better), deadlocks / retries (lower is better, skipped below
    a count of 10 — single-digit counts are run-to-run noise), or
    *_us / *_micros fields (lower is better).
  * google-benchmark --benchmark_out files (bench_lock_manager): an object
    with a "benchmarks" array, compared on real_time per benchmark name
    (lower is better).

Prints a WARNING line for every metric that regressed by more than the
threshold. Rows written with --stats additionally carry the verdict
breakdown (commute/case1/case2/root_waits/retained_hits/...); those are
compared as *shares of the row's verdict total* and a drift beyond
--verdict-drift (default 10 percentage points) warns — catching protocol-
behavior changes (e.g. Case 1 relief silently stopping) that throughput
alone would hide.

Timing and verdict-mix drifts never gate (exit 0) — gating on shared-runner
timing would make CI flaky. *Coverage* loss does gate: a (protocol, label,
threads) row — or a google-benchmark name — present in the old baseline but
absent from the new run means a bench configuration silently disappeared,
and the script exits 1. One *ordering* invariant also gates, because it is
timing-ratio-based and robust to runner speed: on the file-backed log the
group-commit row must not be slower than force-per-commit (group commit
exists to amortize fsyncs; losing to the unbatched policy means the
batching layer itself is broken).
"""

import argparse
import json
import sys

# Verdict-breakdown columns emitted by JsonSink with --stats. Compared as
# shares of their row sum, not absolute counts (counts scale with run
# length; the *mix* is the protocol's signature).
VERDICT_COLS = ("commute", "case1", "case2", "root_waits", "retained_hits")


def row_key(row):
    name = (row.get("protocol") or row.get("experiment") or
            row.get("section") or "?")
    label = row.get("label", "")
    threads = row.get("threads", "")
    return f"{name}/{label}/t{threads}"


def group_commit_inversion(data):
    """Gating invariant over a bench_recovery result: on the file-backed
    (real-fsync) device, group commit must not be slower than forcing every
    commit. Group commit exists purely to amortize fsyncs; if it loses to
    the policy it amortizes, the batching layer is broken (the PR 8 bug),
    no matter how the absolute numbers moved. Returns an error string or
    None."""
    if not isinstance(data, list):
        return None
    tps = {}
    for row in data:
        if isinstance(row, dict) and row.get("section") == "file-backed":
            tps[row.get("label")] = float(row.get("throughput_tps", 0.0))
    force = tps.get("force-per-commit")
    group = tps.get("group-commit")
    if force is None or group is None or force <= 0:
        return None
    if group < force:
        return (f"file-backed group-commit ({group:.0f} tps) is slower than "
                f"force-per-commit ({force:.0f} tps) — the batching layer "
                "costs more than the fsyncs it saves")
    return None


def row_metrics(row):
    """Yield (metric_name, value, higher_is_better) for a RunSummary row."""
    for key, value in row.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key in ("threads", "committed", "failed", "txns"):
            continue
        if key == "throughput_tps":
            yield key, float(value), True
        elif key in ("deadlocks", "retries"):
            # Lower is better, same warn policy as throughput: a >threshold
            # rise in deadlock aborts/retries is a contention regression even
            # when tps holds (retries hide the wasted work).
            yield key, float(value), False
        elif key.endswith("_us") or key.endswith("_micros") or key.endswith("_ms"):
            yield key, float(value), False


def verdict_shares(row):
    """The row's verdict counts as fractions of their sum, or None."""
    counts = {c: float(row[c]) for c in VERDICT_COLS if c in row}
    total = sum(counts.values())
    if not counts or total <= 0:
        return None
    return {c: v / total for c, v in counts.items()}


def index_rows(data):
    out = {}
    if isinstance(data, dict) and "benchmarks" in data:
        for b in data["benchmarks"]:
            if b.get("run_type") == "aggregate":
                continue
            out[b["name"]] = {"real_time": (float(b["real_time"]), False)}
    elif isinstance(data, list):
        for row in data:
            if not isinstance(row, dict):
                continue
            out[row_key(row)] = {
                m: (v, higher) for m, v, higher in row_metrics(row)
            }
    return out


def index_verdicts(data):
    out = {}
    if isinstance(data, list):
        for row in data:
            if isinstance(row, dict):
                shares = verdict_shares(row)
                if shares is not None:
                    out[row_key(row)] = shares
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--verdict-drift", type=float, default=0.10,
                    help="warn when a verdict's share of the breakdown "
                         "moves by more than this (absolute fraction)")
    args = ap.parse_args()

    try:
        with open(args.old) as f:
            old_data = json.load(f)
        with open(args.new) as f:
            new_data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: cannot compare ({e})", file=sys.stderr)
        return 0
    old = index_rows(old_data)
    new = index_rows(new_data)
    old_verdicts = index_verdicts(old_data)
    new_verdicts = index_verdicts(new_data)

    # Coverage: every baseline row must still exist in the new run. A row
    # vanishing means a bench configuration was silently dropped (e.g. a
    # label renamed or a sweep section deleted) — that gates, unlike timing.
    missing = sorted(k for k in old if k not in new)
    for key in missing:
        print(f"ERROR: baseline row {key} missing from {args.new} "
              "(bench configuration disappeared)")

    inversion = group_commit_inversion(new_data)
    if inversion is not None:
        print(f"ERROR: {inversion}")

    warned = 0
    for key, metrics in sorted(new.items()):
        old_metrics = old.get(key)
        if old_metrics is None:
            continue
        for metric, (value, higher_is_better) in metrics.items():
            ref = old_metrics.get(metric)
            if ref is None:
                continue
            old_value = ref[0]
            if old_value <= 0:
                continue
            if metric in ("deadlocks", "retries") and old_value < 10:
                # Noise floor: single-digit counts swing by whole multiples
                # run to run; a ratio over them is meaningless.
                continue
            if higher_is_better:
                change = (old_value - value) / old_value  # drop = regression
            else:
                change = (value - old_value) / old_value  # rise = regression
            if change > args.threshold:
                print(
                    f"WARNING: perf regression {key} {metric}: "
                    f"{old_value:.2f} -> {value:.2f} "
                    f"({change * 100.0:.1f}% worse, threshold "
                    f"{args.threshold * 100.0:.0f}%)"
                )
                warned += 1
    drifted = 0
    for key, shares in sorted(new_verdicts.items()):
        old_shares = old_verdicts.get(key)
        if old_shares is None:
            continue
        for verdict in VERDICT_COLS:
            before = old_shares.get(verdict, 0.0)
            after = shares.get(verdict, 0.0)
            if abs(after - before) > args.verdict_drift:
                print(
                    f"WARNING: verdict drift {key} {verdict}: "
                    f"{before * 100.0:.1f}% -> {after * 100.0:.1f}% of the "
                    f"breakdown (threshold {args.verdict_drift * 100.0:.0f} "
                    "points)"
                )
                drifted += 1

    if warned == 0 and drifted == 0 and not missing and inversion is None:
        print(f"check_bench_regression: {args.new} OK vs {args.old} "
              f"(no metric >{args.threshold * 100.0:.0f}% worse, "
              "no verdict drift, all baseline rows present)")
    # Timing and behavior mix never gate; lost coverage and the
    # group-commit ordering inversion do.
    return 1 if (missing or inversion is not None) else 0


if __name__ == "__main__":
    sys.exit(main())
