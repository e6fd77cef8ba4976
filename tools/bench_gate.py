#!/usr/bin/env python3
"""Perf-regression gate over BENCH_engine.json.

Two checks on a fresh bench_engine_throughput run:

* Baseline: each row against the latest committed row with the same
  (backend, studies, tasks, host_threads) key; fails when tasks/s drops
  more than --max-drop below it. A row measured on a host with a different
  thread count is not a baseline: a key with no committed row is accepted
  and, with --append, becomes the first one.
* Size sweep: within the fresh run, for each (backend, studies,
  host_threads) swept over several sizes, fails when the largest size's
  tasks/s falls below MIN_SCALING (half) the smallest size's. A
  scheduling round whose cost grows with the ready queue (an O(ready)
  walk) makes tasks/s fall with N and trips this.

On a pass, --append folds the new rows (with their commit/date/host_threads
provenance) into the committed file so the baseline history keeps growing.

Usage:
  bench_engine_throughput --json /tmp/bench_new.json
  python3 tools/bench_gate.py --baseline BENCH_engine.json \
      --new /tmp/bench_new.json --max-drop 0.25 --append

Exit status: 0 = within budget, 1 = regression, 2 = usage/schema error.
"""

import argparse
import json
import sys

# Least tasks/s the largest swept size may reach, as a fraction of the
# smallest size's: an O(ready) round at 64k tasks reads about 1/16 of its
# 4k rate, a round that costs what it places about 1.
MIN_SCALING = 0.5


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        print(f"bench_gate: {path} has no rows", file=sys.stderr)
        sys.exit(2)
    return doc, rows


def config_key(row):
    """What a baseline must share with a new row to be comparable."""
    return (row.get("backend"), row.get("studies"), row.get("tasks"), row.get("host_threads"))


def latest_per_config(rows):
    """Last committed row per config_key — the file is append-only history,
    so the last entry is the newest baseline."""
    latest = {}
    for row in rows:
        latest[config_key(row)] = row
    return latest


def scaling_failures(rows):
    """Largest-vs-smallest size tasks/s per (backend, studies, host_threads)."""
    sweeps = {}
    for row in rows:
        key = (row.get("backend"), row.get("studies"), row.get("host_threads"))
        sweeps.setdefault(key, []).append(row)
    failed = False
    for key, sweep in sweeps.items():
        if len({row["tasks"] for row in sweep}) < 2:
            continue
        small = min(sweep, key=lambda row: row["tasks"])
        large = max(sweep, key=lambda row: row["tasks"])
        ratio = float(large["tasks_per_second"]) / float(small["tasks_per_second"])
        verdict = "OK"
        if ratio < MIN_SCALING:
            verdict = f"SCALING REGRESSION (<{MIN_SCALING:.2f}x)"
            failed = True
        print("  {}/{} studies/{} host threads: {} tasks {:.1f} -> {} tasks {:.1f} tasks/s "
              "({:.2f}x) {}".format(*key, small["tasks"], float(small["tasks_per_second"]),
                                     large["tasks"], float(large["tasks_per_second"]),
                                     ratio, verdict))
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_engine.json")
    parser.add_argument("--new", dest="new_path", required=True, help="fresh --json output")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.25,
        help="max allowed fractional tasks/s drop vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="on pass, append the new rows to the baseline file",
    )
    args = parser.parse_args()

    base_doc, base_rows = load_rows(args.baseline)
    _, new_rows = load_rows(args.new_path)
    baseline = latest_per_config(base_rows)

    failed = False
    for row in new_rows:
        key = config_key(row)
        label = "{}/{} studies/{} tasks/{} host threads".format(*key)
        committed = baseline.get(key)
        if committed is None:
            print(f"  {label}: no committed baseline, accepting "
                  f"{row['tasks_per_second']:.1f} tasks/s")
            continue
        old = float(committed["tasks_per_second"])
        new = float(row["tasks_per_second"])
        change = (new - old) / old if old > 0 else 0.0
        verdict = "OK"
        if old > 0 and new < old * (1.0 - args.max_drop):
            verdict = f"REGRESSION (>{args.max_drop:.0%} drop)"
            failed = True
        print(f"  {label}: {old:.1f} -> {new:.1f} tasks/s "
              f"({change:+.1%}) {verdict}")

    scaling_failed = scaling_failures(new_rows)
    if failed:
        print(f"bench_gate: FAIL — tasks/s dropped more than {args.max_drop:.0%} "
              "below the committed baseline", file=sys.stderr)
    if scaling_failed:
        print(f"bench_gate: FAIL — tasks/s at the largest size fell below "
              f"{MIN_SCALING:.2f}x the smallest size's", file=sys.stderr)
    if failed or scaling_failed:
        return 1

    if args.append:
        base_doc["rows"] = base_rows + new_rows
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(base_doc, fh, indent=2)
            fh.write("\n")
        print(f"bench_gate: PASS — appended {len(new_rows)} rows to {args.baseline}")
    else:
        print("bench_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
