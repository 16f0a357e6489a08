#!/usr/bin/env python3
"""Gate a benchmark's JSONL output on the median of repeated runs.

Usage: tools/bench_check.py BASELINE.json RESULTS.jsonl
       tools/bench_check.py --compare OLD.jsonl NEW.jsonl

BASELINE.json carries a "thresholds" object whose keys name a field of
the benchmark record plus a _min or _max suffix:

    {"thresholds": {"batch_scoring_speedup_min": 1.5}}

RESULTS.jsonl is the bench binary's --json output appended over several
runs: every line is one rep (one JSON object). A field's reps are the
lines that carry it, and the gate reads their median, so one noisy run
can neither pass nor fail a gate on its own. Each threshold prints the
rep count n, the min-max spread and the median's margin to the bound.

When a median fails, the reps decide what the failure means:
  regressed          at least 3/4 of the reps fail the bound on their own;
  too noisy to judge the median fails but fewer than 3/4 of the reps do.

Exit status: 0 when every median passes; 1 when any gate regressed; 3
when no gate regressed but at least one is too noisy to judge; 2 on
malformed input. CI treats every non-zero status as a failure: a gate
that cannot tell is a gate to fix, not one to pass. Ratios (speedups)
are the intended gate: absolute ns/* numbers vary with hardware, but
"the pooled path must stay faster than the fresh-vector path" holds on
any machine.

--compare sidesteps thresholds entirely: it prints each metric's median
(with n and min-max) in two JSONL files captured on the SAME machine
(typically the base and head of one PR, runs interleaved) and the change
between the medians. Fields ending in _seconds/_s/_ms/_us/_ns/_mb or
holding _ns_per_ are lower-is-better; everything else numeric is
reported as higher-is-better. Always exits 0 on well-formed input: the deltas
inform, the thresholds gate.
"""

import json
import statistics
import sys

REGRESSED_SHARE = 0.75
EXIT_REGRESSED = 1
EXIT_MALFORMED = 2
EXIT_TOO_NOISY = 3


def malformed(message):
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_MALFORMED)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_reps(path):
    """Field name -> its numeric values, one per line that carries it."""
    reps = {}
    lines = 0
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                malformed(f"{path}:{line_number}: not JSON: {error}")
            if not isinstance(record, dict):
                malformed(f"{path}:{line_number}: not a JSON object")
            lines += 1
            for field, value in record.items():
                if is_number(value):
                    reps.setdefault(field, []).append(value)
    if lines == 0:
        malformed(f"{path}: no benchmark records")
    return reps


def spread(values):
    return f"n={len(values)}, min-max {min(values):.4g}-{max(values):.4g}"


def lower_is_better(field):
    # Costs: times (any unit, but not rates like samples_per_s),
    # per-item times and sizes in MB.
    if field.endswith("_per_s"):
        return False
    return (field.endswith(("_seconds", "_s", "_ms", "_us", "_ns", "_mb"))
            or "_ns_per_" in field)


def compare(old_path, new_path):
    old = load_reps(old_path)
    new = load_reps(new_path)
    shared = [f for f in sorted(old) if f in new]
    if not shared:
        print("no shared numeric fields to compare", file=sys.stderr)
        return EXIT_MALFORMED
    width = max(len(f) for f in shared)
    print(f"{'metric (median)':<{width}}  {'old':>12}  {'new':>12}  delta")
    for field in shared:
        before = statistics.median(old[field])
        after = statistics.median(new[field])
        line = f"{field:<{width}}  {before:>12.4g}  {after:>12.4g}"
        if before:
            change = (after - before) / abs(before) * 100.0
            line += f"  {change:+.1f}%"
            # Flag the direction so a reviewer doesn't have to remember
            # which fields are costs and which are speedups.
            if abs(change) >= 1.0:
                improved = change < 0 if lower_is_better(field) else change > 0
                line += " (better)" if improved else " (worse)"
        line += f"  [old {spread(old[field])}; new {spread(new[field])}]"
        print(line)
    for field in sorted(set(old) ^ set(new)):
        side = "old" if field in old else "new"
        print(f"{field}: only in {side}")
    return 0


def check(baseline_path, results_path):
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    thresholds = baseline.get("thresholds")
    if not isinstance(thresholds, dict) or not thresholds:
        print(f"{baseline_path}: no thresholds object", file=sys.stderr)
        return EXIT_MALFORMED
    reps = load_reps(results_path)

    regressed = noisy = 0
    for name, bound in sorted(thresholds.items()):
        if name.endswith("_min"):
            field, ok = name[: -len("_min")], lambda v, b: v >= b
            relation = ">="
        elif name.endswith("_max"):
            field, ok = name[: -len("_max")], lambda v, b: v <= b
            relation = "<="
        else:
            print(f"{name}: threshold must end in _min or _max",
                  file=sys.stderr)
            return EXIT_MALFORMED
        if field not in reps:
            print(f"FAIL {name}: field '{field}' missing from results")
            regressed += 1
            continue
        values = reps[field]
        median = statistics.median(values)
        line = (f"{field}: median {median:.4g} ({relation} {bound}; "
                f"{spread(values)})")
        if bound:
            # Headroom of the median relative to the bound — a shrinking
            # margin across PRs flags a regression before it trips.
            margin = median - bound if relation == ">=" else bound - median
            line += f", margin {margin / abs(bound) * 100.0:+.1f}%"
        if ok(median, bound):
            print(f"ok   {line}")
            continue
        failing = sum(not ok(value, bound) for value in values)
        if failing >= REGRESSED_SHARE * len(values):
            print(f"FAIL {line}: regressed ({failing}/{len(values)} reps "
                  "fail)")
            regressed += 1
        else:
            print(f"FAIL {line}: too noisy to judge ({failing}/"
                  f"{len(values)} reps fail)")
            noisy += 1
    if regressed:
        return EXIT_REGRESSED
    return EXIT_TOO_NOISY if noisy else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--compare":
        return compare(argv[2], argv[3])
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return EXIT_MALFORMED
    return check(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
