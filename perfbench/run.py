"""bfl benchmark: run one workload in fresh interpreters and report metrics.

    python3 perfbench/run.py --workload classes --seed 191 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass is a fresh `python3` process
(bfl keeps module-level caches, and a CLI user pays them on every call), run
one at a time.  With --trace 0 the run repeats untraced passes until the
next one would overrun --seconds and reports the end-to-end metrics; with
--trace 1 it makes one untraced, one traced and one counting pass plus the
kernel timings, and reports the per-layer metrics.  End-to-end times are
given at the reference speed (hostspeed.py), since the host's own speed
drifts more than most changes move them.  The last line of
standard output is one JSON object; a results file with every pass, the
machine record and (traced) the spans goes to --results-dir.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join("perfbench", ".work")
PASS_TIMEOUT = 170
SETUP_PROBES = 6  # least set-up-only processes per untraced run

END_TO_END = {"wall_s": "s", "setup_s": "s", "units_per_s": "1/s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A pass process failed; the run cannot report."""


# ---- passes ------------------------------------------------------------------

def spawn(args, mode, tag):
    """Run one pass process; returns its result with `setup` filled in."""
    out = os.path.join(WORK_DIR, "%s-%s-%s.json" % (args.workload, mode, tag))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "passrun.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--out", out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass exceeded %d s" % (mode, PASS_TIMEOUT))
    if proc.returncode != 0:
        raise BenchError("%s pass exited %d:\n%s"
                         % (mode, proc.returncode, proc.stderr[-4000:]))
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(out)
    res["setup"] = res.pop("ready") - t0
    res["elapsed"] = time.perf_counter() - t0
    return res


def kernel_timings():
    out = os.path.join(WORK_DIR, "kernels.json")
    subprocess.run([sys.executable, os.path.join(BENCH_DIR, "kernels.py"),
                    "--out", out], check=True, timeout=PASS_TIMEOUT)
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    os.remove(out)
    return res


def run_passes(args):
    """All the passes of one run: (set-up times of the probes, passes by mode).

    Untraced, two set-up probes run before each pass, and probes fill what is
    left of the window after the last pass (at least SETUP_PROBES in all),
    so that setup_s is a median over many samples spread over the run.  Each
    probe's set-up time is kept raw and at the reference speed, from host
    speed samples taken just before and after it.  A traced run reports no
    end-to-end metric and makes no probe.
    """
    passes = {"plain": [], "trace": [], "count": []}
    probes = []
    if args.trace:
        for mode in ("plain", "trace", "count"):
            passes[mode].append(spawn(args, mode, "0"))
        return probes, passes

    def probe():
        before = hostspeed.sample()
        res = spawn(args, "setup", "probe")
        after = hostspeed.sample()
        probes.append({"setup": res["setup"], "before": before,
                       "after": after})
        return res["elapsed"]

    deadline = time.perf_counter() + args.seconds
    while True:
        probe()
        probe()
        res = spawn(args, "plain", str(len(passes["plain"])))
        passes["plain"].append(res)
        longest = max(p["elapsed"] for p in passes["plain"])
        if time.perf_counter() + longest > deadline:
            break
    longest = 0.0
    while (len(probes) < SETUP_PROBES
           or time.perf_counter() + longest < deadline):
        longest = max(longest, probe())
    return probes, passes


# ---- summaries -----------------------------------------------------------------

def summary(values):
    """Median, quartiles and sample count of a list of numbers."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(probes, plain):
    """The end-to-end metrics: times at the reference speed (hostspeed)."""
    return {
        "wall_s": summary([p["wall_ref"] for p in plain]),
        "setup_s": summary([hostspeed.scaled(p["setup"], p["before"],
                                             p["after"]) for p in probes]),
        "units_per_s": summary([p["units"] / p["wall_ref"] for p in plain]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in plain]),
    }


def raw_times(probes, plain):
    """The same times as measured, unscaled (results file only)."""
    return {"wall_s": summary([p["wall"] for p in plain]),
            "setup_s": summary([p["setup"] for p in probes])}


def _percentile(values, q):
    """Nearest-rank percentile, 0 when there are no samples."""
    if not values:
        return 0.0
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


# per-layer metric -> span name whose self time it reports.  Every span name
# has a metric, so these add up to the traced pass's wall time; the root's
# own time (outside every wrapped call) is trace.unattributed_s.
SELF_TIMES = {
    "groups.action_s": "groups.action",
    "groups.chain_s": "groups.chain",
    "groups.closure_s": "groups.closure",
    "groups.random_s": "groups.random",
    "groups.order_s": "groups.order",
    "groups.pair_closure_s": "groups.pair_closure",
    "catalog.construct_s": "catalog.construct",
    "genfile.parse_s": "genfile.parse",
    "classes.enumerate_s": "classes.enumerate",
    "verify.scan_s": "verify.scan",
    "chartab.load_s": "chartab.load",
    "chartab.mult_s": "chartab.mult",
    "charcompute.build_table_s": "charcompute.build_table",
    "smallgroup.generate_s": "smallgroup.generate",
    "smallgroup.class_partition_s": "smallgroup.class_partition",
    "wreath.iso_s": "wreath.iso",
    "wreath.detect_s": "wreath.detect",
    "modrep.check_s": "modrep.check",
    "cli.self_s": "cli.main",
    "report.emit_s": "report.emit",
    "trace.unattributed_s": tracing.ROOT,
}

COUNTS = {  # per-layer metric -> counting-pass key
    "elements.matmul_calls": "elements.matmul_calls",
    "elements.matinv_calls": "elements.matinv_calls",
    "elements.permmul_calls": "elements.permmul_calls",
    "groups.action_calls": "groups.action.calls",
    "groups.action_points": "groups.action_points",
    "groups.chain_builds": "groups.chain.calls",
    "groups.sifts": "groups.sifts",
    "groups.elements_enumerated": "groups.elements_enumerated",
    "groups.random_elements": "groups.random.calls",
    "catalog.construct_calls": "catalog.construct.calls",
    "catalog.candidate_chains": "catalog.candidate_chains",
    "classes.classes_found": "classes.classes_found",
    "verify.pairs": "verify.pairs",
    "verify.closures": "verify.closures",
    "chartab.mult_calls": "chartab.mult.calls",
    "smallgroup.generate_elements": "smallgroup.generate_elements",
    "modrep.checks": "modrep.check.calls",
}

KERNELS = {"fields.mul_ns": "ns", "elements.matmul_us": "us",
           "elements.matinv_us": "us", "elements.permmul_deg80_us": "us",
           "elements.permmul_deg728_us": "us"}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(passes, kernels):
    """Every per-layer metric as {name: {"value": v, "unit": u}}."""
    traced, counted = passes["trace"][0], passes["count"][0]
    selfs, _ = tracing.self_times(traced["spans"])
    counts = counted["counts"]
    out = {name: (v, KERNELS[name]) for name, v in kernels.items()}
    for name, span in SELF_TIMES.items():
        out[name] = (selfs.get(span, 0.0), "s")
    for name, key in COUNTS.items():
        out[name] = (counts.get(key, 0), "count")
    lat = [1e3 * d for d in tracing.durations(traced["spans"],
                                              "groups.pair_closure")]
    out["groups.pair_closure_p50_ms"] = (_percentile(lat, 0.5), "ms")
    out["groups.pair_closure_p99_ms"] = (_percentile(lat, 0.99), "ms")
    out["groups.pair_closures"] = (len(lat), "count")
    out["catalog.accept_ratio"] = (
        _ratio(counts.get("catalog.final_generators", 0),
               counts.get("catalog.candidate_chains", 0)), "ratio")
    out["verify.closure_ratio"] = (
        _ratio(counts.get("verify.closures", 0), counts.get("verify.pairs", 0)),
        "ratio")
    out["trace.overhead_ratio"] = (
        traced["wall"] / passes["plain"][0]["wall"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# ---- machine record -------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def machine(args, n_passes):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(), "commit": git_commit(),
            "seed": args.seed, "passes": n_passes}


# ---- main --------------------------------------------------------------------

def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=lambda s: int(s, 0),
                    default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", default=os.path.join("perfbench",
                                                          "results"))
    return ap.parse_args(argv)


def _print_summary(args, e2e, layers, errors, record):
    print("bfl benchmark  workload=%s  seed=%d  trace=%d  passes=%d"
          % (args.workload, args.seed, args.trace, record["passes"]))
    for name, s in e2e.items():
        print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d  %s"
              % (name, s["median"], s["q1"], s["q3"], s["n"],
                 END_TO_END[name]))
    for name, m in sorted(layers.items()):
        print("  %-30s %-12.6g %s" % (name, m["value"], m["unit"]))
    print("  %-30s %d / %d operations  (%s)"
          % ("error_rate", errors["failed"], errors["attempted"],
             workloads.UNITS[args.workload] + " are the work units"))
    for f in errors["failures"][:20]:
        print("    failure: %s" % f)
    print("  machine: python %(python)s, nproc %(nproc)s, %(platform)s, "
          "commit %(commit)s" % record)


def write_results(args, result):
    """The run's results file, and the traced pass's spans beside it."""
    stamp = time.strftime("%Y%m%dT%H%M%S") + "-%d" % os.getpid()
    base = os.path.join(args.results_dir, "%s-seed%d-trace%d-%s"
                        % (args.workload, args.seed, args.trace, stamp))
    os.makedirs(args.results_dir, exist_ok=True)
    spans = []
    every = [p for mode in result["passes"].values() for p in mode]
    for pass_id, p in enumerate(every):
        spans.extend(s + [pass_id] for s in p.pop("spans", []))
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if spans:
        with open(base + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": spans}, fh)
    print("  results: %s.json" % base)


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join("src", "bfl", "__init__.py")):
        print("error: no src/bfl here; run from the root of a bfl checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        probes, passes = run_passes(args)
        kernels = kernel_timings() if args.trace else {}
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    every = [p for mode in passes.values() for p in mode]
    failures = [f for p in every for f in p["failures"]]
    errors = {"attempted": sum(p["attempted"] for p in every),
              "failed": sum(p["failed"] for p in every),
              "failures": failures}
    errors["error_rate"] = errors["failed"] / errors["attempted"]
    record = machine(args, len(every))
    e2e = {} if args.trace else end_to_end(probes, passes["plain"])
    raw = {} if args.trace else raw_times(probes, passes["plain"])
    layers = per_layer(passes, kernels) if args.trace else {}
    _print_summary(args, e2e, layers, errors, record)

    write_results(args, {"workload": args.workload, "trace": args.trace,
                         "machine": record, "end_to_end": e2e,
                         "raw": raw,
                         "per_layer": layers,
                         "errors": errors, "setup_probes": probes,
                         "passes": passes})

    metrics = layers if args.trace else {
        k: {"value": s["median"], "unit": END_TO_END[k]} for k, s in e2e.items()}
    print(json.dumps({"correct": errors["failed"] == 0,
                      "attempted": errors["attempted"],
                      "failed": errors["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
