#!/usr/bin/env python3
"""Compare two sets of benchmark reports.

Each input is a file of report lines, as `perfbench --out FILE` appends
them (one JSON object per run). For every workload and metric the script
prints each set's median, first and third quartile, and the change of the
median. It warns when the two sets were measured on different hosts, or
when one set mixes hosts, since their timings are then not comparable.

    python3 perfbench/compare.py parent.jsonl change.jsonl
"""

import json
import statistics
import sys

# Host fields that must match for timings to be comparable. The commit
# is expected to differ between the sets.
HOST_KEYS = ["nproc", "cpu_model", "kernel", "rustc", "backend", "obs_feature", "store_fs"]


def load(path):
    reports = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                reports.append(json.loads(line))
    if not reports:
        sys.exit(f"{path}: no reports")
    return reports


def hosts(reports):
    return {tuple((k, r["host"].get(k)) for k in HOST_KEYS) for r in reports}


def describe(host):
    return ", ".join(f"{k}={v}" for k, v in host)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def metrics(reports):
    """(workload, section, metric) -> list of values."""
    out = {}
    for r in reports:
        for section in ("end_to_end", "per_layer"):
            for name, m in r.get(section, {}).items():
                out.setdefault((r["workload"], section, name), []).append(m["value"])
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    ha, hb = hosts(a), hosts(b)
    for path, h in ((sys.argv[1], ha), (sys.argv[2], hb)):
        if len(h) > 1:
            print(f"WARNING: {path} mixes {len(h)} hosts:")
            for x in sorted(h):
                print(f"  {describe(x)}")
    if ha != hb:
        print("WARNING: the two sets come from different hosts; timings are not comparable")
        print(f"  {sys.argv[1]}: " + " | ".join(describe(x) for x in sorted(ha)))
        print(f"  {sys.argv[2]}: " + " | ".join(describe(x) for x in sorted(hb)))
    ma, mb = metrics(a), metrics(b)
    print(f"{'workload':<14} {'metric':<32} {'n':>5} {'first (q1 / median / q3)':>36} "
          f"{'second (q1 / median / q3)':>36} {'change':>8}")
    for key in sorted(set(ma) | set(mb)):
        workload, _, name = key
        va, vb = ma.get(key, []), mb.get(key, [])
        cells = []
        for v in (va, vb):
            if v:
                q1, med, q3 = quartiles(v)
                cells.append((f"{q1:.4g} / {med:.4g} / {q3:.4g}", med))
            else:
                cells.append(("-", None))
        change = "-"
        if cells[0][1] and cells[1][1] is not None:
            change = f"{(cells[1][1] - cells[0][1]) / cells[0][1]:+.1%}"
        n = f"{len(va)}/{len(vb)}"
        print(f"{workload:<14} {name:<32} {n:>5} {cells[0][0]:>36} {cells[1][0]:>36} {change:>8}")


if __name__ == "__main__":
    main()
