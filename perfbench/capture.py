"""Capture the golden operation bodies at the default seed.

    python3 perfbench/capture.py --workload classes [--force]

Runs one untraced pass at seed 0xBF with no goldens, requires every
invariant to hold, and writes each operation's body (JSON output minus the
`header` object, for CLI operations) to perfbench/goldens/<workload>.json;
a body over 64 KiB is stored as the SHA-256 of its canonical text.
Goldens pin the behaviour of the commit they were captured at: recapture
only when a change is meant to alter an output, and say so.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--force", action="store_true",
                    help="overwrite an existing golden file")
    args = ap.parse_args(argv)
    path = os.path.join(workloads.GOLDEN_DIR, args.workload + ".json")
    if os.path.exists(path) and not args.force:
        print("error: %s exists (use --force)" % path, file=sys.stderr)
        return 1
    work = os.path.join("perfbench", ".work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "capture.json")
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "passrun.py"),
                    "--workload", args.workload,
                    "--seed", str(workloads.DEFAULT_SEED), "--mode", "plain",
                    "--out", out, "--capture"],
                   check=True, env=dict(os.environ, PYTHONHASHSEED="0"))
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(out)
    if res["failures"]:
        print("error: invariants fail, not capturing:\n  "
              + "\n  ".join(res["failures"]), file=sys.stderr)
        return 1
    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workloads.canonical(
            {k: workloads.golden_form(v) for k, v in res["bodies"].items()})
            + "\n")
    print("wrote %s (%d operations)" % (path, len(res["bodies"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
