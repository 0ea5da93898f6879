"""Command-line driver: one subcommand per check, deterministic reports.

Exit codes: 0 every verdict holds or is skipped, 1 some verdict fails,
2 indeterminate present without a failure, 64 usage error, 65 data error.
JSON output is byte-identical for identical argv + seed, with the timestamp
and elapsed time isolated in a "header" object; per-verdict wall times stay
a library-level detail and are dropped from the structured body.
"""

import argparse
import sys
import time
from datetime import datetime, timezone

from .battery import standard_battery
from .catalog import FAMILIES, construct, order_formula, parse_blueprint
from .chartab import TableError, class_constants, load_table
from .classes import NormalSet, enumerate_classes, select_class
from .elements import Overflow
from .genfile import ParseError
from .modrep import cor22_check, lemma21_check
from .report import (DEFAULT_SAMPLES, DEFAULT_SEED, ScanPlan, Verdict, dumps,
                     emit_report, exit_code, timed)
from .wreath import wreath_section_detect
from . import verify

USAGE_EXIT = 64
DATA_EXIT = 65


class _ArgError(Exception):
    """Raised instead of argparse's sys.exit so main can map to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError("%s: %s" % (self.prog, message))


def _add_sampling(sp, samples=DEFAULT_SAMPLES):
    sp.add_argument("--samples", type=int, default=samples)
    sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)


def _add_plan(sp):
    sp.add_argument("--plan", choices=("exhaustive", "sample"))
    _add_sampling(sp)


def _build_parser():
    p = _Parser(prog="bfl", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "json"), default="human")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--dry-run", action="store_true",
                        help="resolve inputs and print the plan without "
                             "computing")

    def command(name, help, run):
        sp = sub.add_parser(name, help=help, parents=[common])
        sp.set_defaults(run=run)
        return sp

    sp = command("catalog", "describe a group blueprint", _cmd_catalog)
    sp.add_argument("--group")

    sp = command("classes", "list conjugacy classes", _cmd_classes)
    sp.add_argument("--group", required=True)

    for name, text in (("bf-pair", "is every <c, d'> a p-group?"),
                       ("wreath-free", "is <c, d'> a wreath-free p-group?")):
        sp = command(name, text, _cmd_pair)
        sp.add_argument("--group", required=True)
        sp.add_argument("--c-class", required=True)
        sp.add_argument("--d-class", required=True)
        sp.add_argument("--p", type=int, required=True)
        _add_plan(sp)

    for name, text in (("comm-closed", "is [c, d] in C or 1 over C x C?"),
                       ("cc-inverse", "is every c d^-1 over C (for one class,"
                        " every [c, g]) a p-element?")):
        sp = command(name, text, _cmd_normal_set)
        sp.add_argument("--group", required=True)
        sp.add_argument("--class", dest="cls", action="append", required=True)
        sp.add_argument("--p", type=int, required=True)

    sp = command("structconst", "class-algebra pair counts", _cmd_structconst)
    sp.add_argument("--table", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--e", type=int)
    sp.add_argument("--list-support", action="store_true")

    sp = command("wreath-section", "Z_p wr Z_p section search",
                 _cmd_wreath_section)
    sp.add_argument("--group", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tier", choices=("full", "quotient"), default="full")

    sp = command("repn-check", "module dimension checks", _cmd_repn_check)
    sp.add_argument("--case", action="append",
                    help="battery case name (default: every case)")

    sp = command("scan-sym", "involution class pairs of Sym(n)", _cmd_scan_sym)
    sp.add_argument("--n", type=int, required=True)
    _add_plan(sp)

    sp = command("scan-o3", "reflection pairs of GO3(q)", _cmd_scan_o3)
    sp.add_argument("--q", type=int, action="append")

    sp = command("scan-sl2n3", "2-group pairs in GL4(3)", _cmd_scan_sl2n3)
    _add_plan(sp)

    sp = command("l2q-trace", "tr[x, y] = t + 3 over GF(q)", _cmd_l2q_trace)
    sp.add_argument("--q", type=int, action="append")

    sp = command("l2q-laurent", "Laurent degree of tr[x, x^g]",
                 _cmd_l2q_laurent)
    sp.add_argument("--q", type=int, action="append")
    _add_sampling(sp, samples=100)

    sp = command("identity-scan", "sampled commutator identities",
                 _cmd_identity_scan)
    sp.add_argument("--group", required=True)
    _add_sampling(sp)

    return p


def _plan_from(args):
    if getattr(args, "plan", None) == "exhaustive":
        return ScanPlan.exhaustive()
    return ScanPlan.sample(args.samples, args.seed)


def _plan_dict(plan):
    if plan is None:
        return {"mode": "by-operation-default"}
    d = {"mode": plan.mode}
    if plan.mode == "sample":
        d["samples"] = plan.size
        d["seed"] = plan.seed
    return d


def _resolved_group(args):
    bp = parse_blueprint(args.group)
    return bp, construct(bp)


def _resolve_classes(G, specs):
    classes = enumerate_classes(G)
    return [select_class(classes, s) for s in specs]


# ---- subcommand handlers ---------------------------------------------------

def _cmd_catalog(args):
    if not args.group:
        if args.dry_run:
            return {"plan": {"action": "list families"}}
        return {"info": {"families": list(FAMILIES)}}
    bp = parse_blueprint(args.group)
    if args.dry_run:
        return {"plan": {"blueprint": str(bp), "family": bp.family,
                         "order_formula": order_formula(bp)}}
    G = construct(bp)
    order = order_formula(bp)
    if order is None:
        order = G.order()
    info = {"blueprint": str(bp), "family": bp.family, "order": order,
            "generators": len(G.gens), "element_kind": G.kind}
    return {"info": info}


def _cmd_classes(args):
    bp, G = _resolved_group(args)
    if args.dry_run:
        return {"plan": {"group": str(bp), "action": "enumerate classes"}}
    classes = enumerate_classes(G)
    rows = [{"label": c.label, "size": c.size, "order": c.order}
            for c in classes]
    return {"info": {"group": str(bp), "n_classes": len(rows),
                     "classes": rows}}


def _cmd_pair(args):
    bp, G = _resolved_group(args)
    c, d = _resolve_classes(G, (args.c_class, args.d_class))
    plan = _plan_from(args)
    if args.dry_run:
        return {"plan": {"group": str(bp), "p": args.p,
                         "c_class": {"label": c.label, "size": c.size},
                         "d_class": {"label": d.label, "size": d.size},
                         "scan": _plan_dict(plan)}}
    op = (verify.bf_pair_direct if args.command == "bf-pair"
          else verify.wreath_free_pair_check)
    return {"verdicts": [op(G, c, d, args.p, plan)]}


def _cmd_normal_set(args):
    bp, G = _resolved_group(args)
    C = NormalSet(_resolve_classes(G, args.cls))
    if args.dry_run:
        return {"plan": {"group": str(bp), "p": args.p,
                         "classes": list(C.labels), "set_size": C.size}}
    if args.command == "comm-closed":
        v = verify.commutator_closed_check(G, C, args.p)
    else:
        v = verify.cc_inverse_check(C, args.p)
    return {"verdicts": [v]}


def _cmd_structconst(args):
    T = load_table(args.table)
    for name, k in (("--i", args.i), ("--j", args.j)):
        if not 0 <= k < T.n_classes:
            raise _ArgError("%s must be in [0, %d)" % (name, T.n_classes))
    if args.e is not None and not 0 <= args.e < T.n_classes:
        raise _ArgError("--e must be in [0, %d)" % T.n_classes)
    if args.dry_run:
        return {"plan": {"table": T.name, "order": T.order,
                         "n_classes": T.n_classes, "i": args.i, "j": args.j,
                         "e": args.e, "list_support": bool(args.list_support
                                                           or args.e is None)}}
    info = {"table": T.name, "order": T.order, "i": args.i, "j": args.j}
    counts = class_constants(T, args.i, args.j)
    if args.e is not None:
        info["e"] = args.e
        info["count"] = counts[args.e]
    if args.list_support or args.e is None:
        info["support"] = [{"class": k, "element_order": T.element_order(k),
                            "size": T.size(k), "count": n}
                           for k, n in enumerate(counts) if n]
    return {"info": info}


@timed
def _wreath_section_verdict(G, bp, p, tier):
    sv = wreath_section_detect(G, p, tier=tier)
    scenario = "wreath-section:%s,p=%d,tier=%s" % (str(bp), p, tier)
    if sv.found:
        return Verdict(scenario, "fails", witnesses=[sv.witness],
                       notes=["a Z_%d wr Z_%d section exists (tier=%s)"
                              % (p, p, sv.tier)])
    if sv.tier == "full":
        return Verdict(scenario, "holds",
                       notes=["no Z_%d wr Z_%d section (full subgroup search)"
                              % (p, p)])
    if sv.tier == "quotient":
        return Verdict(scenario, "indeterminate",
                       notes=["no section among quotients of the whole group; "
                              "subgroup sections unexplored (tier=quotient)"])
    return Verdict(scenario, "indeterminate", notes=[sv.note])


def _cmd_wreath_section(args):
    bp, G = _resolved_group(args)
    if args.dry_run:
        return {"plan": {"group": str(bp), "p": args.p, "tier": args.tier}}
    return {"verdicts": [_wreath_section_verdict(G, bp, args.p, args.tier)]}


def _cmd_repn_check(args):
    cases = standard_battery()
    if args.case:
        by_name = {c["name"]: c for c in cases}
        missing = [n for n in args.case if n not in by_name]
        if missing:
            raise _ArgError("unknown case(s) %s; known: %s"
                            % (", ".join(missing),
                               ", ".join(sorted(by_name))))
        cases = [by_name[n] for n in args.case]
    if args.dry_run:
        return {"plan": {"cases": [c["name"] for c in cases]}}
    verdicts = []
    for c in cases:
        verdicts.append(lemma21_check(c["group"], c["action"], c["p"],
                                      name=c["name"]))
        verdicts.append(cor22_check(c["group"], c["action"], c["p"],
                                    name=c["name"]))
    return {"verdicts": verdicts}


def _cmd_scan_sym(args):
    plan = None if args.plan is None else _plan_from(args)
    if args.dry_run:
        return {"plan": {"n": args.n, "scan": _plan_dict(plan)}}
    return {"verdicts": [verify.symmetric_bf_scan(args.n, plan)]}


def _cmd_scan_o3(args):
    qs = args.q or [3, 5, 7, 9]
    if args.dry_run:
        return {"plan": {"q": qs}}
    return {"verdicts": [verify.reflections_o3_scan(q) for q in qs]}


def _cmd_scan_sl2n3(args):
    plan = _plan_from(args)
    if args.dry_run:
        return {"plan": {"dimension": 4, "scan": _plan_dict(plan)}}
    return {"verdicts": [verify.sl2n3_scan(plan)]}


def _cmd_l2q_trace(args):
    qs = args.q or [3, 5, 7, 9, 11, 13]
    if args.dry_run:
        return {"plan": {"q": qs}}
    return {"verdicts": [verify.l2q_trace_identity(q) for q in qs]}


def _cmd_l2q_laurent(args):
    qs = args.q or [11, 13]
    if args.dry_run:
        return {"plan": {"q": qs, "samples": args.samples, "seed": args.seed}}
    return {"verdicts": [verify.l2q_laurent_scan(q, samples=args.samples,
                                                 seed=args.seed)
                         for q in qs]}


def _cmd_identity_scan(args):
    bp, G = _resolved_group(args)
    plan = ScanPlan.sample(args.samples, args.seed)
    if args.dry_run:
        return {"plan": {"group": str(bp), "scan": _plan_dict(plan)}}
    return {"verdicts": [verify.inversion_identity_scan(G, plan)]}


# ---- output ----------------------------------------------------------------

def _timestamp():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _json_verdict(v):
    d = v.to_json()
    del d["seconds"]
    return d


def _info_lines(info, indent=""):
    lines = []
    for key in info:
        val = info[key]
        if isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append("%s%s:" % (indent, key))
            for row in val:
                cells = "  ".join("%s=%s" % (k, row[k]) for k in row)
                lines.append("%s  %s" % (indent, cells))
        elif isinstance(val, dict):
            lines.append("%s%s:" % (indent, key))
            lines.extend(_info_lines(val, indent + "  "))
        elif isinstance(val, list):
            lines.append("%s%s: %s" % (indent, key,
                                       " ".join(str(x) for x in val)))
        else:
            lines.append("%s%s: %s" % (indent, key, val))
    return lines


def _render(args, payload, elapsed):
    verdicts = payload.get("verdicts")
    code = exit_code(verdicts) if verdicts is not None else 0
    if args.format == "json":
        body = {"command": args.command,
                "header": {"timestamp": _timestamp(),
                           "elapsed_seconds": round(elapsed, 3)}}
        if verdicts is not None:
            body["verdicts"] = [_json_verdict(v) for v in verdicts]
            body["exit_code"] = code
        if "info" in payload:
            body["info"] = payload["info"]
        if "plan" in payload:
            body["plan"] = payload["plan"]
            body["dry_run"] = True
        text = dumps(body)
    else:
        lines = ["# bfl %s  %s  (%.3fs)" % (args.command, _timestamp(),
                                            elapsed)]
        if "plan" in payload:
            lines.append("dry run; plan:")
            lines.extend(_info_lines(payload["plan"], "  "))
        if "info" in payload:
            lines.extend(_info_lines(payload["info"]))
        if verdicts is not None:
            lines.append(emit_report(verdicts, "human").rstrip("\n"))
            lines.append("exit: %d" % code)
        text = "\n".join(lines) + "\n"
    return text, code


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except _ArgError as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    t0 = time.perf_counter()
    try:
        payload = args.run(args)
    except _ArgError as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    except (TableError, ParseError, Overflow, OSError) as e:
        # before ValueError: TableError and ParseError subclass it
        print("error: %s" % e, file=sys.stderr)
        return DATA_EXIT
    except ValueError as e:  # bad blueprint, selector, prime, or parameter
        print("error: %s" % e, file=sys.stderr)
        return USAGE_EXIT
    text, code = _render(args, payload, time.perf_counter() - t0)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print("error: cannot write %s: %s" % (args.out, e),
                  file=sys.stderr)
            return DATA_EXIT
    else:
        sys.stdout.write(text)
    return code
