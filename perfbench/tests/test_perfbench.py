"""Tests of the benchmark itself (not of bfl).

    python3 -m pytest perfbench/tests -q

The end-to-end tests run whole workloads through run.py; the trace and
count tests run a few operations each through passrun.run_ops.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A few operations each, run through passrun.run_ops in a fresh interpreter
# (bfl's module-level caches would change a second pass in one process).
SUBSETS = {
    "pair-scan": ["scan-sym-10", "bf-pair-sym6"],
    "build": ["build-gl43", "build-sl227"],
    "structure": ["load-table-a5", "class-pairs-a5", "detect-q8-full"],
}
SUBSET_PASS = """
import json, sys
sys.path.insert(0, "perfbench")
import passrun, workloads
workload, mode, ids = sys.argv[1], sys.argv[2], sys.argv[3:]
passrun.import_bfl()
ops = [op for op in workloads.make_ops(workload, 7) if op.id in ids]
assert [op.id for op in ops] == ids, [op.id for op in ops]
print(json.dumps(passrun.run_ops(ops, mode)[1]))
"""


def _subset_pass(workload, mode):
    proc = subprocess.run([sys.executable, "-c", SUBSET_PASS, workload, mode]
                          + SUBSETS[workload], cwd=ROOT, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONHASHSEED="0"),
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _run(cwd, workload, *extra):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seconds", "1"]
                          + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _results(directory):
    (path,) = [p for p in directory.iterdir()
               if p.name.endswith(".json") and not p.name.endswith(
                   ".spans.json")]
    return json.loads(path.read_text())


def _copy_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    ignore = shutil.ignore_patterns(".work", "results", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=ignore)



def test_clean_run_is_correct(tmp_path):
    last = _run(ROOT, "build", "--results-dir", str(tmp_path))
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == len(workloads.BUILD_BLUEPRINTS)
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    res = _results(tmp_path)
    assert set(res["raw"]) == {"wall_s", "setup_s"}
    for p in res["passes"]["plain"]:
        # the sampler ran throughout the pass
        assert p["host_samples"] >= p["wall"] / hostspeed.INTERVAL / 2


def test_corrupted_expected_value_gives_errors(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "goldens" / "pair-scan.json"
    golden = json.loads(path.read_text())
    golden["bf-pair-sym6"]["body"]["verdicts"][0]["counters"]["pairs"] += 1
    path.write_text(json.dumps(golden))
    last = _run(tmp_path, "pair-scan")
    assert not last["correct"]
    assert last["failed"] >= 1
    errors = _results(tmp_path / "perfbench" / "results")["errors"]
    assert errors["error_rate"] > 0
    assert errors["failures"] and all(
        f == "bf-pair-sym6: body differs from the golden"
        for f in errors["failures"])


@pytest.mark.parametrize("workload", ["pair-scan", "build"])
def test_self_times_account_for_wall(workload):
    plain = _subset_pass(workload, "plain")
    traced = _subset_pass(workload, "trace")
    wall = traced["wall"]
    selfs, calls = tracing.self_times(traced["spans"])
    assert calls[tracing.ROOT] == 1
    # a mis-parented span leaves its old parent a negative self time
    assert min(selfs.values()) > -1e-6
    # every span name has a per-layer metric ...
    assert set(selfs) <= set(run.SELF_TIMES.values())
    layers = run.per_layer({"plain": [plain], "trace": [traced],
                            "count": [{"counts": {}}]}, {})
    reported = sum(layers[name]["value"] for name in run.SELF_TIMES)
    assert reported == pytest.approx(wall, rel=1e-9)
    # ... and the wrapped layers, not the root, hold the time: a lost
    # wrapper moves its layer's time to trace.unattributed_s
    assert layers["trace.unattributed_s"]["value"] < 0.02 * wall
    # the recorder costs at most the overhead README documents, and the
    # traced pass does the same work (a loose band: the host's speed drifts)
    assert 0.6 < layers["trace.overhead_ratio"]["value"] < 2.0


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_counting_pass_repeats_exactly(workload):
    first = _subset_pass(workload, "count")["counts"]
    second = _subset_pass(workload, "count")["counts"]
    assert first == second
    assert first.get("elements.permmul_calls", 0) > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    last = _run(ROOT, "build", "--trace", "1", "--results-dir", str(tmp_path))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert last["correct"] and set(last["metrics"]) == names
    assert last["metrics"]["groups.chain_builds"]["value"] > 0
    (spans,) = tmp_path.glob("*.spans.json")
    passes = {s[4] for s in json.loads(spans.read_text())["spans"]}
    assert passes == {1}  # pass ids: plain 0, trace 1 (spans), count 2


@pytest.mark.parametrize("missing", ["src", "perfbench/goldens/build.json"])
def test_exits_nonzero_without_the_program_or_its_goldens(tmp_path, missing):
    _copy_checkout(tmp_path)
    path = tmp_path / missing
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", "build", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_mark_rules():
    lower = "lower"
    parent = [10.0, 10.1, 10.2, 9.9, 10.0]
    assert compare.mark(parent, [12.0] * 5, lower, 0.1) == "worse"
    assert compare.mark(parent, [8.0, 8.1, 8.0, 7.9, 8.0], lower,
                        0.1) == "better"
    assert compare.mark(parent, [10.05] * 5, lower, 0.1) == "unchanged"
    noisy = [5.0, 10.0, 15.0, 8.0, 12.0]
    assert compare.mark(noisy, [9.0, 11.0, 10.0, 14.0, 6.0], lower,
                        0.1) == "unresolved"


def test_sampler_scales_each_stretch():
    r = hostspeed.REF_S
    sampler = hostspeed.Sampler()
    # kernel times r, 2r, 2r, r; after the running median: 1.5r, 2r, 2r, 1.5r
    sampler.marks = [(0.0, r), (1.0, 1.0 + 2 * r), (2.0, 2.0 + 2 * r),
                     (3.0, 3.0 + r)]
    d1, d2, d3 = 1.0 - r, 1.0 - 2 * r, 1.0 - 2 * r
    assert sampler.wall() == pytest.approx(d1 + d2 + d3)
    assert sampler.wall_ref() == pytest.approx(d1 / 1.75 + d2 / 2 + d3 / 1.75)


def test_self_times_subtract_children():
    spans = [["pass", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 5.0, 6.0, 0]]
    selfs, calls = tracing.self_times(spans)
    assert selfs == pytest.approx({"pass": 6.0, "a": 3.0, "b": 1.0})
    assert calls == {"pass": 1, "a": 2, "b": 1}
