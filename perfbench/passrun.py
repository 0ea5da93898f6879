"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload W --seed N --mode M --out FILE

Modes: `setup` stops once bfl is imported and the inputs are ready; `plain`
runs the operation list untraced; `trace` records spans; `count` records
spans and kernel call counts.  The result (set-up end time, wall time, work
units, peak RSS, oracle failures, spans or counts) goes to FILE as JSON.
The goldens are read after the timed region and after peak RSS, so neither
set-up nor memory includes the oracle.  `--capture` judges with the
invariants only and adds every operation's body, for capture.py.
Run from the root of a checkout; bfl is imported from its `src/`.
"""

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import tracing
import workloads

MODES = ("setup", "plain", "trace", "count")


def import_bfl():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import bfl
    import bfl.cli  # noqa: F401  (what `python -m bfl` loads)
    if not os.path.abspath(bfl.__file__).startswith(src + os.sep):
        raise SystemExit("bfl imported from %s, not from %s"
                         % (bfl.__file__, src))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--capture", action="store_true",
                    help="no goldens; also write every operation's body")
    args = ap.parse_args(argv)

    import_bfl()
    workloads.prepare_inputs(args.workload, args.seed)
    ops = workloads.make_ops(args.workload, args.seed)
    ready = time.perf_counter()
    out = {"ready": ready}
    if args.mode != "setup":
        results, measured = run_ops(ops, args.mode)
        out.update(measured)
        goldens = None if args.capture else workloads.load_goldens(
            args.workload)
        judged, bodies = _judge(ops, results, args.seed, goldens)
        out.update(judged)
        if args.capture:
            out["bodies"] = bodies
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def run_ops(ops, mode):
    """Run ops in order under mode's recording: (results, measurements).

    The measurements are the wall time of the whole list and of each
    operation, the peak RSS, and the spans (trace) or counts (count).
    A plain pass samples the host's speed throughout (hostspeed.Sampler):
    its wall time leaves the samples out, and `wall_ref` is that time at
    the reference speed.  Its per-operation times include the samples.
    """
    rec = tracing.Recorder()
    if mode in ("trace", "count"):
        tracing.install(rec, count_kernels=mode == "count")
    results, op_walls = [], []
    timer = hostspeed.Sampler() if mode == "plain" else rec.root()
    with timer as span:
        for op in ops:
            t = time.perf_counter()
            results.append(op.run())
            op_walls.append(time.perf_counter() - t)
    wall = timer.wall() if mode == "plain" else span[2] - span[1]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec.uninstall()  # the oracle's own bfl calls are not part of the pass
    out = {"wall": wall,
           "op_walls": dict(zip([o.id for o in ops], op_walls)),
           "peak_rss_mb": peak_kb / 1024.0}
    if mode == "plain":
        out["wall_ref"] = timer.wall_ref()
        out["host_samples"] = len(timer.marks)
    if mode == "trace":
        out["spans"] = list(rec.spans)
    if mode == "count":
        counts = dict(rec.counts)
        _, calls = tracing.self_times(rec.spans)
        counts.update({name + ".calls": n for name, n in calls.items()})
        out["counts"] = counts
    return results, out


def _judge(ops, results, seed, goldens):
    units, failed, failures, bodies = 0, 0, [], {}
    for op, result in zip(ops, results):
        body, fails = workloads.judge(op, result, seed, goldens)
        units += op.units(result)
        failed += bool(fails)
        failures.extend(fails)
        bodies[op.id] = body
    return {"units": units, "attempted": len(ops), "failed": failed,
            "failures": failures}, bodies


if __name__ == "__main__":
    sys.exit(main())
