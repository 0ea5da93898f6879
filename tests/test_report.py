"""Verdict bookkeeping and report emission."""

import json
import time

import pytest

from bfl.report import Verdict, ScanPlan, emit_report, exit_code, timed


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
