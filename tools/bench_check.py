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
and quartiles (with n and min-max) in two JSONL files captured on the
SAME machine (typically the base and head of one PR, runs interleaved)
and the change between the medians. A record's metrics may be top-level
numbers (the bench binaries' --json) or nested objects whose "value" is
the number (e2ebench's last line, {"metrics": {"setup_s": {"value":
...}}}); either way a metric is named by its own key. Fields ending in
_seconds/_s/_ms/_us/_ns/_mb or _frac, holding _ns_per_, or named failed
are lower-is-better; everything else numeric is reported as
higher-is-better.

When both files hold the same number of records, record i of each is
one pair (run in that order, interleaved), and each shared metric also
gets its pair wins and ties and the gain rule: the new side is better in
at least 9 of 10 pairs, and the medians differ, in the better direction,
by more than the old side's interquartile range. Always exits 0 on
well-formed input: the deltas inform, the thresholds gate.
"""

import json
import statistics
import sys

REGRESSED_SHARE = 0.75
GAIN_WIN_SHARE = 0.9
EXIT_REGRESSED = 1
EXIT_MALFORMED = 2
EXIT_TOO_NOISY = 3


def malformed(message):
    print(message, file=sys.stderr)
    raise SystemExit(EXIT_MALFORMED)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_fields(record):
    """(name, number) for each metric of a record, nested ones included:
    a top-level number, or an object's numeric "value", named by its key;
    other objects are searched the same way."""
    for field, value in record.items():
        if is_number(value):
            yield field, value
        elif isinstance(value, dict):
            if is_number(value.get("value")):
                yield field, value["value"]
            else:
                yield from numeric_fields(value)


def load_records(path):
    """One {field: number} dict per line, in file order."""
    records = []
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
            records.append(dict(numeric_fields(record)))
    if not records:
        malformed(f"{path}: no benchmark records")
    return records


def load_reps(path):
    """Field name -> its numeric values, one per line that carries it."""
    return reps_of(load_records(path))


def reps_of(records):
    reps = {}
    for record in records:
        for field, value in record.items():
            reps.setdefault(field, []).append(value)
    return reps


def spread(values):
    return f"n={len(values)}, min-max {min(values):.4g}-{max(values):.4g}"


def quartiles(values):
    """(q1, q3), exclusive method; both the value itself for one rep."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def lower_is_better(field):
    # Costs: times (any unit, but not rates like samples_per_s),
    # per-item times, sizes in MB and failure counts and shares.
    if field.endswith("_per_s"):
        return False
    return (field.endswith(("_seconds", "_s", "_ms", "_us", "_ns", "_mb",
                            "_frac"))
            or "_ns_per_" in field or field == "failed")


def paired(field, old_records, new_records):
    """Pair wins and ties of one metric and whether the gain rule holds;
    None when no pair carries the metric on both sides."""
    pairs = [(o[field], n[field]) for o, n in zip(old_records, new_records)
             if field in o and field in n]
    if not pairs:
        return None
    lower = lower_is_better(field)
    wins = sum((n < o) if lower else (n > o) for o, n in pairs)
    ties = sum(n == o for o, n in pairs)
    before = [o for o, _ in pairs]
    q1, q3 = quartiles(before)
    gap = statistics.median(before) - statistics.median([n for _, n in pairs])
    if not lower:
        gap = -gap
    holds = wins >= GAIN_WIN_SHARE * len(pairs) and gap > q3 - q1
    return (f"pairs: {wins}/{len(pairs)} wins, {ties} ties; gain rule "
            f"{'holds' if holds else 'fails'} (median gap {gap:.4g}, "
            f"old IQR {q3 - q1:.4g})")


def compare(old_path, new_path):
    old_records = load_records(old_path)
    new_records = load_records(new_path)
    old = reps_of(old_records)
    new = reps_of(new_records)
    shared = [f for f in sorted(old) if f in new]
    if not shared:
        print("no shared numeric fields to compare", file=sys.stderr)
        return EXIT_MALFORMED
    in_pairs = len(old_records) == len(new_records)
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
        old_q1, old_q3 = quartiles(old[field])
        new_q1, new_q3 = quartiles(new[field])
        line += (f"  [old {spread(old[field])}, q1-q3 {old_q1:.4g}-"
                 f"{old_q3:.4g}; new {spread(new[field])}, q1-q3 "
                 f"{new_q1:.4g}-{new_q3:.4g}]")
        print(line)
        if in_pairs:
            summary = paired(field, old_records, new_records)
            if summary is not None:
                print(f"{'':<{width}}  {summary}")
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
