#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the records run.py writes to .perfbench_out/results/.
For every workload, mode and metric it prints the median and quartiles of
each side and the ratio of the medians.  Records whose machines differ (CPU,
core count, Python/numpy/scipy versions or clocksim.structs.BACKEND) are
not comparable: the script says so and exits with code 1.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory):
    groups, machines = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec["failures"]:
            print(f"skipping {path}: it recorded failures", file=sys.stderr)
            continue
        machines.add(json.dumps(rec["machine"], sort_keys=True))
        key = (rec["workload"], "per-layer" if rec["trace"] else "end-to-end")
        for name, value in rec["values"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(value)
    return groups, machines


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (before, m_before), (after, m_after) = load(argv[0]), load(argv[1])
    if len(m_before | m_after) > 1:
        print("NOT COMPARABLE: the records come from different machines or backends:")
        for m in sorted(m_before | m_after):
            print("  ", m)
        return 1
    for key in sorted(set(before) & set(after)):
        print(f"== {key[0]} ({key[1]})")
        for name in before[key]:
            b, a = before[key][name], after[key].get(name)
            if not a or None in a or None in b:
                continue
            (b1, bm, b3), (a1, am, a3) = summary(b), summary(a)
            ratio = f"x{am / bm:.3f}" if bm else "-"
            print(f"  {name:52s} {bm:12.5g} [{b1:.5g}, {b3:.5g}] n={len(b):<3d}"
                  f" -> {am:12.5g} [{a1:.5g}, {a3:.5g}] n={len(a):<3d} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
