"""End-to-end checks of the command-line driver: exit codes, output
formats, determinism, and error mapping."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from bfl.catalog import construct, parse_blueprint
from bfl.chartab import load_table
from bfl import verify
from bfl.cli import _build_parser, _wreath_section_verdict, main
from bfl.elements import deserialize_element
from bfl.groups import Group
from bfl.smallgroup import SmallGroup
from bfl.verify import replay_pair_witness
from bfl.wreath import reconstruct_section


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# ---- documented example invocations ---------------------------------------

def test_s6_pair_example(capsys):
    code, out, _ = run(capsys, "bf-pair", "--group", "sym:6",
                       "--c-class", "fpf2", "--d-class", "2a",
                       "--p", "2", "--plan", "exhaustive")
    assert code == 0
    assert "HOLDS" in out
    assert "c=2b,d=2a" in out  # fpf2 resolved to its label


def test_a5_comm_closed_example(capsys):
    code, out, _ = run(capsys, "comm-closed", "--group", "alt:5",
                       "--class", "5a", "--p", "5")
    assert code == 0
    assert "C is not closed under squares" in out


def test_structconst_example(capsys):
    code, out, _ = run(capsys, "structconst", "--table", "a5",
                       "--i", "4", "--j", "4", "--list-support")
    assert code == 0
    assert "count=" in out
    # counts match the library directly
    code, body = run_json(capsys, "structconst", "--table", "a5",
                          "--i", "4", "--j", "4", "--list-support")
    support = {row["class"]: row["count"] for row in body["info"]["support"]}
    assert support == {0: 12, 2: 3, 3: 1, 4: 5}


# ---- exit codes ------------------------------------------------------------

def test_fail_exit(capsys):
    code, out, _ = run(capsys, "bf-pair", "--group", "alt:5",
                       "--c-class", "5a", "--d-class", "5a",
                       "--p", "5", "--plan", "exhaustive")
    assert code == 1
    assert "FAILS" in out


def test_indeterminate_exit(capsys):
    code, out, _ = run(capsys, "wreath-section", "--group", "q8",
                       "--p", "2", "--tier", "quotient")
    assert code == 2
    assert "INDETERMINATE" in out


def test_usage_errors(capsys):
    for argv in (
        ["bf-pair", "--group", "sym:6", "--c-class", "order:2",
         "--d-class", "2a", "--p", "2"],          # ambiguous selector
        ["bf-pair", "--group", "sym:6", "--c-class", "9z",
         "--d-class", "2a", "--p", "2"],          # unknown label
        ["classes", "--group", "nosuchfamily:3"],  # bad blueprint
        ["repn-check", "--case", "nope"],          # unknown battery case
        ["structconst", "--table", "a5", "--i", "99", "--j", "0"],
        ["scan-sym", "--n", "7"],                  # odd n rejected
        ["nosuchcommand"],
        # p = 4 is not prime
        ["bf-pair", "--group", "sym:4", "--c-class", "4a", "--d-class", "4a",
         "--p", "4"],
        ["cc-inverse", "--group", "sym:4", "--class", "4a", "--p", "4"],
        ["wreath-section", "--group", "dihedral:16", "--p", "4"],
        # no sampled x is no evidence, not a vacuous "holds (sampled)"
        ["l2q-laurent", "--samples", "0"],
        ["l2q-laurent", "--samples", "-3"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
        assert err.strip(), argv


def test_data_errors(capsys, tmp_path):
    code, _, err = run(capsys, "structconst", "--table",
                       str(tmp_path / "missing.json"), "--i", "0", "--j", "0")
    assert code == 65 and err
    bad = tmp_path / "bad.json"
    bad.write_text('{"whatever": 1}')
    code, _, err = run(capsys, "structconst", "--table", str(bad),
                       "--i", "0", "--j", "0")
    assert code == 65 and err


def test_bad_powermap_key_is_a_data_error(capsys, tmp_path):
    # a key 0 must not escape validation as a ZeroDivisionError (exit 1)
    obj = load_table("a5").to_json()
    obj["classes"][1]["powermap"]["0"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run(capsys, "structconst", "--table", str(bad),
                       "--i", "0", "--j", "0")
    assert code == 65
    assert "powermap key 0 is not a prime dividing the order 60" in err


def test_generatorless_matrix_file_is_the_trivial_group(capsys, tmp_path):
    gens = tmp_path / "e.gens"
    gens.write_text("group e mat 2 over GF(5)\n")
    code, body = run_json(capsys, "classes", "--group", "file:%s" % gens)
    assert code == 0
    assert [c["label"] for c in body["info"]["classes"]] == ["1a"]


# ---- output contract -------------------------------------------------------

def test_json_deterministic_modulo_header(capsys):
    argv = ("scan-sl2n3", "--samples", "15", "--seed", "0xBF")
    _, body1 = run_json(capsys, *argv)
    _, body2 = run_json(capsys, *argv)
    h1 = body1.pop("header")
    h2 = body2.pop("header")
    assert body1 == body2
    assert set(h1) == set(h2) == {"timestamp", "elapsed_seconds"}


def test_json_body_has_no_wall_times(capsys):
    _, body = run_json(capsys, "bf-pair", "--group", "sym:6",
                       "--c-class", "2b", "--d-class", "2a",
                       "--p", "2", "--plan", "exhaustive")
    assert body["exit_code"] == 0
    for v in body["verdicts"]:
        assert "seconds" not in v
        assert v["status"] == "holds"


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classes", "--group", "alt:5",
                       "--format", "json", "--out", str(path))
    assert code == 0
    assert out == ""
    body = json.loads(path.read_text())
    labels = [c["label"] for c in body["info"]["classes"]]
    assert labels == ["1a", "2a", "3a", "5a", "5b"]


def test_dry_run_resolves_without_computing(capsys):
    code, body = run_json(capsys, "bf-pair", "--group", "sym:8",
                          "--c-class", "fpf2", "--d-class",
                          "order:2,size:28", "--p", "2", "--dry-run")
    assert code == 0
    assert body["dry_run"] is True
    assert "verdicts" not in body
    assert body["plan"]["c_class"]["label"] == "2b"
    assert body["plan"]["d_class"] == {"label": "2a", "size": 28}


def test_dry_run_everywhere(capsys):
    for argv in (
        ["catalog"], ["catalog", "--group", "q8"],
        ["classes", "--group", "alt:5"],
        ["bf-pair", "--group", "alt:5", "--c-class", "5a",
         "--d-class", "5a", "--p", "5"],
        ["wreath-free", "--group", "sym:6", "--c-class", "fpf2",
         "--d-class", "2a", "--p", "2"],
        ["comm-closed", "--group", "alt:5", "--class", "5a", "--p", "5"],
        ["cc-inverse", "--group", "alt:5", "--class", "5a", "--p", "5"],
        ["structconst", "--table", "a5", "--i", "0", "--j", "0"],
        ["wreath-section", "--group", "q8", "--p", "2"],
        ["repn-check"],
        ["scan-sym", "--n", "6"], ["scan-o3"], ["scan-sl2n3"],
        ["l2q-trace"], ["l2q-laurent"],
        ["identity-scan", "--group", "sym:5"],
    ):
        code, body = run_json(capsys, *argv, "--dry-run")
        assert code == 0, argv
        assert body.get("dry_run") is True, argv
        assert "verdicts" not in body, argv


@pytest.mark.parametrize("command", ["comm-closed", "cc-inverse"])
def test_repeated_class_counted_once(capsys, command):
    argv = [command, "--group", "alt:5", "--class", "5a", "--class", "5a",
            "--class", "5b", "--p", "5"]
    _, plan = run_json(capsys, *argv, "--dry-run")
    _, body = run_json(capsys, *argv)
    v = body["verdicts"][0]
    assert plan["plan"]["classes"] == ["5a", "5b"]
    assert plan["plan"]["set_size"] == v["counters"]["set_size"] == 24
    assert v["scenario"] == "%s:alt:5,C=5a+5b,p=5" % command


def test_table_dir_env(capsys, tmp_path, monkeypatch):
    packaged = load_table("a5")
    import os
    import bfl.chartab as chartab
    pkg_dir = os.path.join(os.path.dirname(chartab.__file__), "tables")
    shutil.copy(os.path.join(pkg_dir, "a5.json"),
                str(tmp_path / "renamed_a5.json"))
    monkeypatch.setenv("BFL_TABLE_DIR", str(tmp_path))
    code, body = run_json(capsys, "structconst", "--table", "renamed_a5",
                          "--i", "4", "--j", "4", "--e", "0")
    assert code == 0
    assert body["info"]["count"] == 12
    assert body["info"]["order"] == packaged.order


def test_trace_scan_reports_failure(capsys):
    code, body = run_json(capsys, "l2q-trace", "--q", "3")
    assert code == 1
    (v,) = body["verdicts"]
    assert v["status"] == "fails"
    assert v["witnesses"]


def test_wreath_section_exits(capsys):
    code, _ = run_json(capsys, "wreath-section", "--group", "dihedral:8",
                       "--p", "2")
    assert code == 1  # the section exists, so wreath-freeness fails
    code, _ = run_json(capsys, "wreath-section", "--group", "q8", "--p", "2")
    assert code == 0


def test_wreath_section_caps_before_indexing(capsys):
    # order 5^6 is read off the chain; the group is never indexed
    code, body = run_json(capsys, "wreath-section", "--group", "wreath:5",
                          "--p", "5", "--tier", "quotient")
    assert code == 2
    (v,) = body["verdicts"]
    assert v["status"] == "indeterminate"
    assert v["notes"] == ["order 15625 exceeds the quotient-tier cap 2187"]
    code, body = run_json(capsys, "wreath-section", "--group", "wreath:5",
                          "--p", "5")
    assert code == 2  # the default full tier stops at its p = 2, 3 rule
    assert "p=2,3" in body["verdicts"][0]["notes"][0]


def test_wreath_free_reads_caps_before_indexing(capsys, monkeypatch):
    # every closure is all of W5, order 5^6: the full tier stops at its
    # p = 2, 3 rule before any closure is indexed
    def refuse(cls, G, *args, **kwargs):
        raise AssertionError("a pair closure was indexed")
    monkeypatch.setattr(SmallGroup, "from_group", classmethod(refuse))
    code, body = run_json(capsys, "wreath-free", "--group", "wreath:5",
                          "--c-class", "5e", "--d-class", "5xe", "--p", "5",
                          "--plan", "sample", "--samples", "5")
    body.pop("header")
    note = ("section search inconclusive at order 15625: full-tier search "
            "supports p=2,3 only; use tier=quotient")
    assert code == 2
    assert body == {
        "command": "wreath-free",
        "exit_code": 2,
        "verdicts": [{
            "counters": {"closures": 5, "inconclusive": 5, "pairs": 5,
                         "sections": 5},
            "notes": [note] * 3,
            "sampled": True,
            "scenario": "wreath-free:wreath:5,c=5e,d=5xe,p=5",
            "status": "indeterminate",
            "witnesses": [],
        }],
    }


def test_catalog_listing(capsys):
    code, body = run_json(capsys, "catalog")
    assert code == 0
    fams = body["info"]["families"]
    assert "sym" in fams and "go_odd" in fams and "file" in fams


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bfl", "classes", "--group", "cyclic:3",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    body = json.loads(proc.stdout)
    assert body["info"]["n_classes"] == 3


def test_identity_scan_seeded(capsys):
    argv = ("identity-scan", "--group", "sym:5", "--samples", "60",
            "--seed", "7")
    _, b1 = run_json(capsys, *argv)
    _, b2 = run_json(capsys, *argv)
    b1.pop("header"), b2.pop("header")
    assert b1 == b2
    assert b1["verdicts"][0]["counters"]["samples"] == 60


# ---- golden bodies ---------------------------------------------------------
# Captured (header dropped): cli_bodies.json's first four before class
# enumeration moved onto the chain's permutation image (the last three of
# them read matrix class members and serialize witnesses from them), and its
# last four (wreath-free on gl:2:3 and sp:4:3, comm-closed and cc-inverse on
# q8) before wreath-free and the normal-set checks moved off matrices onto
# the ambient group's image; pair_scan_bodies.json before pair closures
# moved onto the ambient group's image.

def _bodies(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name),
              encoding="utf-8") as fh:
        return json.load(fh)


PINNED_BODIES = _bodies("cli_bodies.json") + _bodies("pair_scan_bodies.json")


def _pin_ids(recs):
    """The subcommand, with its --group appended after the subcommand's
    first pin."""
    seen, out = set(), []
    for r in recs:
        cmd = r["argv"][0]
        out.append("%s:%s" % (cmd, r["argv"][r["argv"].index("--group") + 1])
                   if cmd in seen else cmd)
        seen.add(cmd)
    return out


@pytest.mark.parametrize("rec", PINNED_BODIES, ids=_pin_ids(PINNED_BODIES))
def test_pinned_json_bodies(capsys, rec):
    code, body = run_json(capsys, *rec["argv"])
    body.pop("header")
    assert code == rec["exit"]
    assert body == rec["body"]
    for v in body.get("verdicts", ()):
        # every pinned pair scan runs at p = 2
        for w in v["witnesses"]:
            if w.get("hypothesis") == "wreath-free":
                # a 2-group closure: replay its section on the matrix pair
                J = Group([deserialize_element(w["c"]),
                           deserialize_element(w["d_conj"])])
                assert J.order() == w["closure_order"]
                assert reconstruct_section(J, w["section"], 2)
            elif "d_conj" in w:
                assert replay_pair_witness(w, 2)


def test_pinned_wreath_free_searches_once_per_orbit(capsys, monkeypatch):
    # 300 draws fall in 86 orbits under conjugation by c: one chain and one
    # section search each, and the pinned body
    rec = next(r for r in PINNED_BODIES
               if r["argv"][:3] == ["wreath-free", "--group", "sp:4:3"])
    searches, builds = [], []
    detect = verify.wreath_section_detect
    monkeypatch.setattr(verify, "wreath_section_detect",
                        lambda *a, **k: searches.append(1) or detect(*a, **k))

    class CountingGroup(Group):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(verify, "Group", CountingGroup)
    code, body = run_json(capsys, *rec["argv"])
    body.pop("header")
    assert (code, body) == (rec["exit"], rec["body"])
    assert body["verdicts"][0]["counters"]["sections"] == 300
    assert len(searches) == len(builds) == 86


def test_help_describes_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    rows = dict(re.findall(r"^    (\S+) +(\S.*)$", capsys.readouterr().out,
                           re.MULTILINE))
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 15
    assert set(sub.choices) <= set(rows)
    assert all(callable(sp.get_default("run")) for sp in sub.choices.values())
    # every subcommand's own help lists the shared options
    for sp in sub.choices.values():
        text = sp.format_help()
        assert all(o in text for o in ("--format", "--out", "--dry-run"))


def test_wreath_section_verdict_is_timed():
    # the human verdict line shows the section search's wall time
    bp = parse_blueprint("dihedral:8")
    v = _wreath_section_verdict(construct(bp), bp, 2, "full")
    assert v.status == "fails" and v.seconds > 0
    assert _wreath_section_verdict.__wrapped__.__name__ == \
        "_wreath_section_verdict"


def test_over_cap_class_list_fails_fast(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "classes", "--group", "gl:4:3")
    assert code == 65
    assert "closure exceeds cap 2000000" in err
    assert time.perf_counter() - t0 < 20  # the order is checked up front
