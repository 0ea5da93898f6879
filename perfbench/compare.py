"""Compare two result sets of the bfl benchmark: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files run.py wrote (--results-dir).  Per
workload, every end-to-end metric gets each side's median, quartiles and run
count, and a mark under the bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than
              the bound;
  better      the change's median is better by more than the parent's own
              spread (quartile distance over median) and the change wins at
              least nine tenths of the run pairs;
  unresolved  either side spreads wider than the bound, unless every change
              run beats (or loses to) every parent run;
  unchanged   otherwise.

Per-layer metrics (self times and counts from traced runs) are printed as
medians with their difference; they have no bound.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(directory):
    """{workload: {"e2e": [run, ...], "layers": [run, ...]}} from a directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        side = out.setdefault(res["workload"], {"e2e": [], "layers": []})
        side["layers" if res["trace"] else "e2e"].append(res)
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def mark(parent, change, better, bound):
    """One of better / worse / unchanged / unresolved (see the module doc)."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med) / p_med
    if max(spread(parent), spread(change)) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better"
        if max(sign * c for c in change) < min(sign * p for p in parent):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if gain > spread(parent) and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return "%-11.5g [%-.5g, %-.5g] n=%d" % (med, q1, q3, len(values))


def compare(parent, change, spec, out=sys.stdout):
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload), change.get(workload)
        if not p or not c:
            print("%s: only in one result set" % workload, file=out)
            continue
        print("== %s" % workload, file=out)
        for m in spec["end_to_end"]:
            pv = [r["end_to_end"][m["name"]]["median"] for r in p["e2e"]]
            cv = [r["end_to_end"][m["name"]]["median"] for r in c["e2e"]]
            if not pv or not cv:
                continue
            delta = (statistics.median(cv) - statistics.median(pv)) \
                / statistics.median(pv)
            print("  %-14s parent %s  change %s  %+6.1f%%  %s (bound %g)"
                  % (m["name"], _fmt(pv), _fmt(cv), 100 * delta,
                     mark(pv, cv, m["better"], m["bound"]), m["bound"]),
                  file=out)
        if p["layers"] and c["layers"]:
            print("  per layer (traced runs: parent %d, change %d)"
                  % (len(p["layers"]), len(c["layers"])), file=out)
            for m in spec["per_layer"]:
                name = m["name"]
                pv = [r["per_layer"][name]["value"] for r in p["layers"]
                      if name in r["per_layer"]]
                cv = [r["per_layer"][name]["value"] for r in c["layers"]
                      if name in r["per_layer"]]
                if not pv or not cv:
                    continue
                pm, cm = statistics.median(pv), statistics.median(cv)
                if pm == cm == 0:
                    continue
                rel = " %+6.1f%%" % (100 * (cm - pm) / pm) if pm else ""
                print("    %-30s %12.6g -> %-12.6g %+12.6g%s %s"
                      % (name, pm, cm, cm - pm, rel, m["unit"]), file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    compare(load_results(args.parent), load_results(args.change), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
