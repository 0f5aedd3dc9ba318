#!/usr/bin/env python3
"""Row-presence gate for the BENCH_*.json trajectory files.

Usage: check_bench_rows.py [DIR]

REQUIRED_ROWS is the one list of row labels each bench file must carry:
the records that the docs cite for a ProtocolOptions flag or a matrix
refinement. DIR
(default: the repository root) holds the files. Exits 1 naming every
missing label or unreadable file. scripts/run_bench.sh runs it after each
regeneration.
"""

import json
import pathlib
import sys

REQUIRED_ROWS = {
    "BENCH_throughput.json": [
        # The protocol comparison across thread counts (paper §1.1).
        "orderentry-zipf0.8-t1",
        "orderentry-zipf0.8-t2",
        "orderentry-zipf0.8-t4",
        "orderentry-zipf0.8-t8",
        "orderentry-zipf0.8-t16",
        # mvcc_reads ablation: both read mixes, locking and snapshot readers.
        "readmix90-t4",
        "readmix90-t16",
        "readmix90-mvcc-t4",
        "readmix90-mvcc-t16",
        "readmix50-t4",
        "readmix50-t16",
        "readmix50-mvcc-t4",
        "readmix50-mvcc-t16",
    ],
    "BENCH_contention.json": [
        # Parameter predicates on one hot item: NewOrder-share sweep.
        "hotset-insert10-t8",
        "hotset-insert30-t8",
        "hotset-insert50-t8",
    ],
}


def missing_rows(path, required):
    """Labels of `required` absent from the row array in `path`."""
    with open(path) as f:
        labels = {row.get("label", "") for row in json.load(f)}
    return [label for label in required if label not in labels]


def main():
    repo = pathlib.Path(__file__).resolve().parent.parent
    bench_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else repo
    failed = False
    for name, required in REQUIRED_ROWS.items():
        try:
            missing = missing_rows(bench_dir / name, required)
        except (OSError, json.JSONDecodeError) as e:
            print(f"ERROR: cannot read rows of {bench_dir / name}: {e}")
            failed = True
            continue
        for label in missing:
            print(f"ERROR: {name} lacks required row {label}")
        failed = failed or bool(missing)
    if failed:
        return 1
    total = sum(len(rows) for rows in REQUIRED_ROWS.values())
    print(f"check_bench_rows: all {total} required rows present in "
          f"{', '.join(REQUIRED_ROWS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
