#!/usr/bin/env python3
"""Compare two BenchJson documents: exact counters and wall times.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.25]
           [--margin PATTERN=FRACTION ...]

Both inputs are documents written by the bench harnesses' --json flag
(see docs/BENCHMARKS.md for the schema). Runs are keyed by
(program, analysis). For a run that completed in both documents, two
checks apply:

  * exact: its status, metrics, stats and cut_shortcut objects must be
    equal, member by member. They are deterministic functions of the
    program and the spec, so any difference is an algorithmic or
    precision change on any machine. A change that alters one must
    regenerate the baseline.
  * timed: it regresses when its total_ms grew by more than the
    threshold (default 25%).

Runs that appear in only one document (tier or spec changes) are
reported but never fail the comparison; a run that flipped from
completed to budget-exhausted always fails.

--margin overrides the global threshold for runs whose "program/analysis"
label matches a glob PATTERN (fnmatch syntax). Repeatable; the first
matching pattern in command-line order wins. Small tiers need wide
margins (sub-millisecond runs are all scheduler noise) while the large
tiers are stable, e.g.:

    bench_compare.py base.json cur.json --threshold 0.25 \\
        --margin 'scale-xs/*=1.00' --margin 'scale-s/*=0.60'

Exit codes: 0 no regression, 1 regression(s) or counter mismatch(es),
2 usage/input error.
"""

import argparse
import fnmatch
import json
import sys

# The deterministic members of a run record that must match exactly.
EXACT_FIELDS = ("status", "metrics", "stats", "cut_shortcut")


def load_runs(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    runs = {}
    for record in doc.get("records", []):
        run = record.get("run")
        if not isinstance(run, dict):
            continue  # program-size / custom records carry no timings
        key = (record.get("program", "?"), run.get("analysis", "?"))
        runs[key] = {field: run.get(field) for field in EXACT_FIELDS}
        runs[key]["status"] = run.get("status", "?")
        runs[key]["total_ms"] = run.get("timings", {}).get("total_ms")
    return doc.get("bench", "?"), runs


def exact_diffs(base, cur):
    """'path base -> current' for each leaf of EXACT_FIELDS that differs."""
    diffs = []

    def walk(path, b, c):
        if isinstance(b, dict) and isinstance(c, dict):
            for key in sorted(b.keys() | c.keys()):
                walk(f"{path}.{key}", b.get(key), c.get(key))
        elif b != c:
            diffs.append(f"{path} {b} -> {c}")

    for field in EXACT_FIELDS:
        walk(field, base[field], cur[field])
    return diffs


def parse_margins(specs):
    """'PATTERN=FRACTION' strings -> [(pattern, fraction)] in given order."""
    margins = []
    for spec in specs:
        pattern, eq, value = spec.rpartition("=")
        try:
            if not eq or not pattern:
                raise ValueError
            fraction = float(value)
            if fraction < 0:
                raise ValueError
        except ValueError:
            print(f"error: bad --margin '{spec}' "
                  f"(expected PATTERN=FRACTION, fraction >= 0)",
                  file=sys.stderr)
            sys.exit(2)
        margins.append((pattern, fraction))
    return margins


def margin_for(label, margins, default):
    for pattern, fraction in margins:
        if fnmatch.fnmatchcase(label, pattern):
            return fraction
    return default


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="fractional wall-time growth that counts as a "
                         "regression (default 0.25 = +25%%)")
    ap.add_argument("--margin", action="append", default=[],
                    metavar="PATTERN=FRACTION",
                    help="per-run threshold override: glob PATTERN matched "
                         "against 'program/analysis', first match wins "
                         "(repeatable)")
    args = ap.parse_args()
    margins = parse_margins(args.margin)

    base_name, base = load_runs(args.baseline)
    cur_name, cur = load_runs(args.current)
    if base_name != cur_name:
        print(f"note: comparing different benches "
              f"({base_name} vs {cur_name})", file=sys.stderr)

    regressions, improvements, skipped, mismatches = [], [], [], []
    for key in sorted(base.keys() | cur.keys()):
        label = f"{key[0]}/{key[1]}"
        b, c = base.get(key), cur.get(key)
        if b is None or c is None:
            skipped.append(f"{label}: only in "
                           f"{'current' if b is None else 'baseline'}")
            continue
        if b["status"] == "completed" and c["status"] != "completed":
            regressions.append(f"{label}: completed -> {c['status']}")
            continue
        if b["status"] != "completed" or c["status"] != "completed":
            skipped.append(f"{label}: status {b['status']} vs {c['status']}")
            continue
        mismatches += [f"{label}: {d}" for d in exact_diffs(b, c)]
        if not b["total_ms"]:
            skipped.append(f"{label}: baseline has no timing")
            continue
        threshold = margin_for(label, margins, args.threshold)
        ratio = c["total_ms"] / b["total_ms"]
        line = (f"{label}: {b['total_ms']:.1f} ms -> {c['total_ms']:.1f} ms "
                f"({ratio:.2f}x, margin +{threshold:.0%})")
        if ratio > 1.0 + threshold:
            regressions.append(line)
        elif ratio < 1.0 - threshold:
            improvements.append(line)

    for line in skipped:
        print(f"skip  {line}")
    for line in improvements:
        print(f"good  {line}")
    for line in regressions:
        print(f"REGR  {line}")
    for line in mismatches:
        print(f"DIFF  {line}")
    compared = len(base.keys() & cur.keys())
    print(f"compared {compared} runs, {len(regressions)} regression(s) "
          f"(threshold +{args.threshold:.0%}), "
          f"{len(mismatches)} counter mismatch(es)")
    return 1 if regressions or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
