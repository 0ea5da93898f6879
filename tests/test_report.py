"""Verdict bookkeeping and report emission."""

import glob
import importlib.util
import json
import os
import time

import pytest

from bfl.report import (DEFAULT_SEED, Verdict, ScanPlan, dumps, emit_report,
                        exit_code, timed)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_fails_requires_witness():
    with pytest.raises(ValueError):
        Verdict("x", "fails")
    v = Verdict("x", "fails", witnesses=[{"pair": [0, 1]}])
    assert v.witnesses == [{"pair": [0, 1]}]


def test_bad_status_rejected():
    with pytest.raises(ValueError):
        Verdict("x", "maybe")


def test_sampled_display():
    v = Verdict("s", "holds", sampled=True)
    assert v.display_status == "holds (sampled)"
    assert Verdict("s", "holds").display_status == "holds"
    assert Verdict("s", "indeterminate", sampled=True).display_status == \
        "indeterminate"


def test_exit_codes():
    holds = Verdict("a", "holds")
    fails = Verdict("b", "fails", witnesses=[{"w": 1}])
    indet = Verdict("c", "indeterminate")
    skip = Verdict("d", "skipped")
    assert exit_code([holds, skip]) == 0
    assert exit_code([holds, fails, indet]) == 1
    assert exit_code([holds, indet]) == 2
    assert exit_code([]) == 0


def test_empty_report():
    assert emit_report([], format="human") == ""
    body = json.loads(emit_report([], format="json"))
    assert body == {"verdicts": [], "exit_code": 0}


def test_report_is_deterministic():
    vs = [Verdict("scan", "fails", witnesses=[{"elt": "x"}],
                  counters={"pairs": 3, "closures": 2}, seconds=0.5),
          Verdict("other", "holds", sampled=True)]
    assert emit_report(vs, format="human") == emit_report(vs, format="human")
    assert emit_report(vs, format="json") == emit_report(vs, format="json")
    text = emit_report(vs, format="human")
    assert "FAILS" in text and "holds (sampled)".upper() in text.upper()
    assert "closures=2 pairs=3" in text


def test_json_report_shape():
    v = Verdict("scan", "holds", counters={"pairs": 1}, notes=["note here"])
    body = json.loads(emit_report([v], format="json"))
    assert body["exit_code"] == 0
    assert body["verdicts"][0]["scenario"] == "scan"
    assert body["verdicts"][0]["notes"] == ["note here"]


def test_plan_validation():
    assert ScanPlan.exhaustive().mode == "exhaustive"
    p = ScanPlan.sample(size=10, seed=3)
    assert (p.size, p.seed) == (10, 3)
    with pytest.raises(ValueError):
        ScanPlan(mode="everything")
    with pytest.raises(ValueError):
        ScanPlan.sample(size=0)


def test_bad_format():
    with pytest.raises(ValueError):
        emit_report([], format="xml")


def test_timed_sets_the_wall_time_of_the_call():
    @timed
    def check(pause, status="holds"):
        """A check that takes at least pause seconds."""
        time.sleep(pause)
        return Verdict("slow", status, seconds=99.0)

    v = check(0.02, status="skipped")
    assert v.status == "skipped"
    assert 0.02 <= v.seconds < 99.0
    assert check.__name__ == "check"
    assert check.__doc__ == "A check that takes at least pause seconds."
    assert "(%.3fs)" % v.seconds in emit_report([v], "human")


# -- the one JSON writer ----------------------------------------------------

EDGE_CASES = [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
    (1, (2, 3), [4]), [[1, 2], [3], [[4, [5]]]],
    {1: [1], 2: {}, True: [2], False: 0}, {None: (3,)}, {"x": None},
    {2.5: [1], 1.0: {"k": 0}}, {float("nan"): [1]}, {float("inf"): {}},
    {"\u00e9 \u03b1": ["\u00fc\n\t\"\\", "[", "{", ",", "]}", "\u2603"]},
    [0.1, 1e-7, -0.0, float("nan"), float("inf"), -float("inf"), 1e300],
    {"a": [{"b": [1.5, "z", None, True, False, -3]}], "\u00e9": {"": ""}},
    5, "s", None, 1.0, {"k": 1}, {"a": {"b": {"c": {}}}}, [[[[[1]]]]],
]


def _bodies():
    """Every tests/data body and perfbench golden, read only."""
    paths = sorted(glob.glob(os.path.join(ROOT, "tests", "data", "*.json")))
    paths += sorted(glob.glob(os.path.join(ROOT, "perfbench", "goldens",
                                           "*.json")))
    assert len(paths) >= 8
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield json.load(fh)


def _structure_report():
    """The benchmark's structure workload run once in process: its last
    operation's text, emit_report's JSON of every verdict it made."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.make_ops("structure", DEFAULT_SEED)
    assert ops[-1].id == "emit-report"
    for op in ops:
        text = op.run()
    return text


def test_dumps_matches_the_stdlib():
    for obj in EDGE_CASES + list(_bodies()):
        assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    text = _structure_report()
    body = json.loads(text)
    assert len(body["verdicts"]) > 1000
    assert text == dumps(body)
    assert text == json.dumps(body, indent=2, sort_keys=True) + "\n"


def test_dumps_rejects_what_the_stdlib_rejects():
    for obj in ({(1, 2): [1]}, [object()], {"a": [{1, 2}]}, {1: [], "a": []}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps(obj)
