"""The four workloads: operation lists built from a seed, and their oracles.

An operation calls into bfl from outside: through `bfl.cli.main(argv)` where
a subcommand exists, through public library functions otherwise.  Each one
yields a JSON-able body (compared byte for byte against a golden when the
operation's inputs are the golden's inputs), a count of work units, and a
list of independent invariant failures that hold at any seed.

Importing this module does not import bfl; `make_ops` does.
"""

import contextlib
import hashlib
import io
import json
import os
import random

DEFAULT_SEED = 0xBF
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "goldens")
TEMPLATE = os.path.join(BENCH_DIR, "data", "gammal2_9.gens")
# relative to the checkout root, so the blueprint string (and with it the
# golden body) does not depend on where the checkout lives
GENS_PATH = os.path.join("perfbench", ".work", "gammal2_9.gens")
GAMMAL2_9_ORDER = 11520  # |GL(2,9)| = 5760, times 2 for the Frobenius map

WORKLOADS = ("classes", "pair-scan", "build", "structure")
UNITS = {"classes": "group elements enumerated",
         "pair-scan": "pairs scanned",
         "build": "groups built",
         "structure": "queries answered"}

SCAN_SAMPLES = 1000  # the CLI default plan size, forwarded explicitly
BUILD_BLUEPRINTS = ("go_odd:5:3", "go_odd:3:9", "sp:6:2", "gl:4:3",
                    "sl:2:27", "gu:3:3")


class Op:
    """One operation of a workload.

    run() does the timed work and returns a raw result; body(), units() and
    check() read that result afterwards, outside the timed region.  check()
    also gets the operation's golden body (None when there is none) and
    returns the invariants it breaks.
    """

    def __init__(self, op_id, run, body, units=None, check=None,
                 seeded=False):
        self.id = op_id
        self.run = run
        self.body = body
        self.units = units or (lambda r: 1)
        self.check = check or (lambda r, golden: [])
        self.seeded = seeded  # inputs depend on the seed: golden only at 0xBF


# ---- inputs ------------------------------------------------------------------

def _field_text(F, code):
    """A GF(9) element code as generator-file text (a polynomial in z)."""
    c0, c1 = F.coeffs(code)
    if not c1:
        return str(c0)
    term = "z" if c1 == 1 else "%d*z" % c1
    return term if not c0 else "%d+%s" % (c0, term)


def semilinear_text(seed):
    """The Gamma-L(2,9) generator file, conjugated by a seed-drawn matrix.

    Conjugation keeps the group's order and its (class size, element order)
    multiset, so those invariants hold at every seed while the elements the
    enumeration touches change with it.
    """
    from bfl import GF, SemilinearElement, SquareMatrix
    from bfl.genfile import parse_generator_file
    F = GF(9)
    rng = random.Random(seed)
    while True:
        g = SquareMatrix(F, [[rng.randrange(9) for _ in range(2)]
                             for _ in range(2)])
        if g.det():
            break
    h = SemilinearElement(g, 0)
    parsed = parse_generator_file(TEMPLATE)
    lines = ["group %s mat 2 over GF(9) fieldauto" % parsed.name]
    for name, x in parsed.elements.items():
        y = ~h * x * h
        rows = ",".join("[%s]" % ",".join(_field_text(F, v) for v in row)
                        for row in y.mat.rows)
        twist = " @ frob^%d" % y.e if y.e else ""
        lines.append("%s = [%s]%s" % (name, rows, twist))
    return "\n".join(lines) + "\n"


def prepare_inputs(workload, seed):
    """Write what the workload reads from disk (set-up, not timed as wall)."""
    if workload == "classes":
        os.makedirs(os.path.dirname(GENS_PATH), exist_ok=True)
        with open(GENS_PATH, "w", encoding="utf-8") as fh:
            fh.write(semilinear_text(seed))


# ---- CLI operations ------------------------------------------------------------

def _cli(argv):
    from bfl.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _cli_body(result):
    code, text = result
    body = json.loads(text)
    body.pop("header", None)
    return {"exit": code, "body": body}


def _verdicts(result):
    return json.loads(result[1]).get("verdicts", [])


def _pairs(v):
    c = v["counters"]
    return c.get("pairs", c.get("closures", 0))


def _cli_op(op_id, argv, units=None, check=None, seeded=False):
    argv = list(argv) + ["--format", "json"]
    return Op(op_id, lambda: _cli(argv), _cli_body, units, check, seeded)


# ---- invariants ---------------------------------------------------------------

def _expect(cond, msg, out):
    if not cond:
        out.append(msg)


def _class_shape(info):
    return sorted([row["order"], row["size"]] for row in info["classes"])


def _classes_check(order, same_shape=False):
    """Class sizes sum to the order; with same_shape, the (element order,
    class size) multiset must equal the golden's."""
    def check(result, golden):
        out = []
        info = json.loads(result[1])["info"]
        sizes = [row["size"] for row in info["classes"]]
        _expect(result[0] == 0, "exit code %d" % result[0], out)
        _expect(sum(sizes) == order,
                "class sizes sum to %d, not %d" % (sum(sizes), order), out)
        if same_shape and golden is not None:
            _expect(_class_shape(info) == _class_shape(golden["body"]["info"]),
                    "class (order, size) multiset differs", out)
        return out
    return check


def _replays(v, p, out):
    from bfl.verify import replay_pair_witness
    for w in v["witnesses"]:
        _expect(replay_pair_witness(w, p),
                "%s: witness does not replay" % v["scenario"], out)


def _scan_check(statuses, code, pairs=None):
    """statuses: expected status per verdict; pairs: the pair count every
    verdict must report, when the plan fixes it."""
    def check(result, golden):
        out = []
        vs = _verdicts(result)
        _expect(result[0] == code, "exit code %d, expected %d"
                % (result[0], code), out)
        _expect([v["status"] for v in vs] == list(statuses),
                "statuses %s, expected %s"
                % ([v["status"] for v in vs], list(statuses)), out)
        for v in vs:
            _replays(v, 2, out)
            if pairs is not None:
                _expect(v["counters"].get("pairs") == pairs,
                        "%s: %r pairs, plan size %d"
                        % (v["scenario"], v["counters"].get("pairs"), pairs),
                        out)
        return out
    return check


def _sym_check(samples):
    def check(result, golden):
        out = []
        (v,) = _verdicts(result)
        _expect(v["status"] == "holds", "scan-sym status %s" % v["status"], out)
        n_pairs = v["counters"]["class_pairs"]
        closures = v["counters"]["closures"]
        # the holding class pair scans the full plan; the others stop early
        _expect(samples <= closures <= n_pairs * samples,
                "scan-sym closures %d outside [%d, %d]"
                % (closures, samples, n_pairs * samples), out)
        return out
    return check


# ---- workloads ---------------------------------------------------------------

def _classes_ops(seed):
    import bfl

    def count(result):
        return sum(r["size"] for r in json.loads(result[1])["info"]["classes"])

    ops = []
    for bp in ("sp:4:3", "gl:3:3", "alt:8"):
        order = bfl.order_formula(bfl.parse_blueprint(bp))
        ops.append(_cli_op("classes-" + bp.replace(":", ""),
                           ["classes", "--group", bp], count,
                           _classes_check(order)))
    ops.append(_cli_op("classes-file-gammal2_9",
                       ["classes", "--group", "file:" + GENS_PATH], count,
                       # conjugation keeps the file group's class shape, so
                       # the golden's holds at every seed
                       _classes_check(GAMMAL2_9_ORDER, same_shape=True),
                       seeded=True))
    return ops


def _pair_scan_ops(seed):
    def pairs(result):
        return sum(_pairs(v) for v in _verdicts(result))

    s = str(seed)
    return [
        _cli_op("scan-sl2n3", ["scan-sl2n3", "--plan", "sample", "--samples",
                               str(SCAN_SAMPLES), "--seed", s], pairs,
                _scan_check(["holds"], 0, SCAN_SAMPLES), seeded=True),
        _cli_op("scan-o3", ["scan-o3"], pairs,
                _scan_check(["holds", "fails", "fails", "fails"], 1)),
        _cli_op("scan-sym-10", ["scan-sym", "--n", "10", "--plan", "sample",
                                "--samples", str(SCAN_SAMPLES), "--seed", s],
                pairs, _sym_check(SCAN_SAMPLES), seeded=True),
        # Sym(6) has 15 transpositions: the exhaustive plan scans each once
        _cli_op("bf-pair-sym6", ["bf-pair", "--group", "sym:6", "--c-class",
                                 "fpf2", "--d-class", "2a", "--p", "2",
                                 "--plan", "exhaustive"], pairs,
                _scan_check(["holds"], 0, 15)),
    ]


def _build_ops(seed):
    import bfl

    def op(bp_text):
        bp = bfl.parse_blueprint(bp_text)

        def run():
            G = bfl.construct(bp)
            return G, G.order()

        def body(result):
            G, order = result
            return {"blueprint": bp_text, "order": order, "kind": G.kind,
                    "generators": len(G.gens)}

        def check(result, golden):
            want = bfl.order_formula(bp)
            return ([] if result[1] == want else
                    ["%s: order %d, formula %d" % (bp_text, result[1], want)])

        return Op("build-" + bp_text.replace(":", ""), run, body, None, check)

    return [op(bp) for bp in BUILD_BLUEPRINTS]


def _table_check(T, order):
    out = []
    sizes = [T.size(k) for k in range(T.n_classes)]
    _expect(T.order == order and sum(sizes) == order,
            "%s: order %d, class sizes sum %d, expected %d"
            % (T.name, T.order, sum(sizes), order), out)
    _expect(sum(d * d for d in T.degrees) == order,
            "%s: squared degrees do not sum to |G|" % T.name, out)
    return out


def _structure_ops(seed):
    # library calls go through the bfl namespace at run time, so that the
    # traced run's wrappers see them
    import bfl
    from bfl.charcompute import SHIPPED_TABLES

    tables = {}
    verdicts = []  # library-path verdicts, rendered by emit_report at the end
    ops = []

    def table_op(name, bp):
        order = bfl.order_formula(bfl.parse_blueprint(bp))

        def run():
            tables[name] = bfl.build_table(bfl.construct(bp), name)
            return tables[name]

        ops.append(Op("build-table-" + name, run, lambda T: T.to_json(), None,
                      lambda T, golden: _table_check(T, order)))

    def load_op(name):
        def run():
            tables[name] = bfl.load_table(name)
            return tables[name]

        ops.append(Op("load-table-" + name, run, lambda T: T.to_json(), None,
                      lambda T, golden: _table_check(T, T.order)))

    def pairs_op(name):
        """product_support and bf_pair_table over every class pair."""
        def run():
            T = tables[name]
            rows = []
            for i in range(T.n_classes):
                for j in range(T.n_classes):
                    support = bfl.product_support(T, i, j)
                    v = bfl.bf_pair_table(T, i, j, 2)
                    verdicts.append(v)
                    rows.append((i, j, support, v))
            return T, rows

        def body(result):
            return [[i, j, sorted(s.items()), v.status]
                    for i, j, s, v in result[1]]

        def check(result, golden):
            T, rows = result
            out = []
            for i, j, support, v in rows:
                lhs = sum(n * T.size(k) for k, n in support.items())
                _expect(lhs == T.size(i) * T.size(j),
                        "%s[%d,%d]: sum count*|C_k| = %d != |C_i||C_j| = %d"
                        % (name, i, j, lhs, T.size(i) * T.size(j)), out)
            return out

        ops.append(Op("class-pairs-" + name, run, body,
                      lambda r: 2 * len(r[1]), check))

    table_op("alt8", "alt:8")
    table_op("l2_27", "psl2:27")
    for name, _ in SHIPPED_TABLES:
        load_op(name)
    for name in ["alt8", "l2_27"] + [n for n, _ in SHIPPED_TABLES]:
        pairs_op(name)

    ops.append(Op("iso-wreath-5",
                  lambda: bfl.iso_to_wreath(bfl.build_wreath(5).group, 5),
                  lambda found: found,
                  check=lambda found, golden: [] if found else
                  ["W5 not iso to W5"]))

    sources = {  # label -> (group maker, p)
        "d8": (lambda: bfl.SmallGroup.from_group(bfl.construct("dihedral:8")),
               2),
        "q8": (lambda: bfl.SmallGroup.from_group(bfl.construct("q8")), 2),
        "W3": (lambda: bfl.SmallGroup.from_group(bfl.build_wreath(3).group),
               3),
    }

    def detect_op(label, tier):
        make, p = sources[label]

        def body(sv):
            return {"found": sv.found, "tier": sv.tier, "witness": sv.witness,
                    "note": sv.note}

        ops.append(Op("detect-%s-%s" % (label, tier),
                      lambda: bfl.wreath_section_detect(make(), p, tier=tier),
                      body))

    for tier in ("quotient", "full"):
        for label in sources:
            detect_op(label, tier)

    def modrep_run():
        out = []
        for c in bfl.standard_battery():
            for fn in (bfl.lemma21_check, bfl.cor22_check):
                out.append(fn(c["group"], c["action"], c["p"], name=c["name"]))
        verdicts.extend(out)
        return out

    ops.append(Op("modrep-battery", modrep_run,
                  lambda vs: [_stable_verdict(v.to_json()) for v in vs],
                  lambda vs: len(vs)))

    def emit_body(text):
        body = json.loads(text)
        body["verdicts"] = [_stable_verdict(v) for v in body["verdicts"]]
        return body

    ops.append(Op("emit-report", lambda: bfl.emit_report(verdicts, "json"),
                  emit_body))
    return ops


def _stable_verdict(d):
    """A verdict's JSON without its wall time, the one field that varies."""
    d = dict(d)
    d.pop("seconds", None)
    return d


_BUILDERS = {"classes": _classes_ops, "pair-scan": _pair_scan_ops,
             "build": _build_ops, "structure": _structure_ops}


def load_goldens(workload):
    """The workload's golden bodies by op id; a missing file is an error."""
    with open(os.path.join(GOLDEN_DIR, workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def make_ops(workload, seed):
    return _BUILDERS[workload](seed)


def canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


GOLDEN_INLINE_BYTES = 64 * 1024


def golden_form(body):
    """The body as stored in a golden file: itself, or for a large body the
    SHA-256 of its canonical text (still a byte-for-byte comparison)."""
    text = canonical(body)
    if len(text) <= GOLDEN_INLINE_BYTES:
        return body
    return {"__sha256__": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text)}


def judge(op, result, seed, goldens):
    """Failures of one operation: golden mismatch plus broken invariants.

    goldens is None only while capturing them: then the invariants alone
    judge.  Otherwise an operation whose inputs are the golden's (seed-free,
    or at the default seed) must have a golden body and match it.
    """
    failures = []
    body = op.body(result)
    # round-trip through JSON so tuples and int keys compare as stored
    body = json.loads(canonical(body))
    golden = None if goldens is None else goldens.get(op.id)
    if goldens is not None and (not op.seeded or seed == DEFAULT_SEED):
        if golden is None:
            failures.append("%s: no golden body" % op.id)
        elif canonical(golden_form(body)) != canonical(golden):
            failures.append("%s: body differs from the golden" % op.id)
    failures.extend("%s: %s" % (op.id, f) for f in op.check(result, golden))
    return body, failures
