"""Scenario checks: pair scans, closure identities, and trace/degree scans.

Every check returns a Verdict, whose `seconds` `report.timed` sets.  The pair
scans fix one element and range over conjugates of the other -- any pair
(c^h, d^g) is simultaneously conjugate to (c, d^(g h^-1)), so one orbit of
conjugates covers every combination.  Sampled plans draw conjugators through
the group's stabilizer chain from a fixed seed, so reruns are bit-identical.

Every pair check runs on the ambient group's faithful permutation image, and
an element goes back through `Group.from_perm` only for a witness.  The two
conjugate scans, bf-pair and wreath-free, share one driver: c and every
d' = g^-1 d g are raw images (`Group.raw`) from the draw to the verdict.
Conjugating the pair by c fixes c, so each verdict is decided once per
orbit of d' under conjugation by c.  bf-pair closes <c, d'> on raw
images; a subgroup larger than |G|_p is not a p-group, so the closure stops
past min(|G|_p, PAIR_CLOSURE_CAP), with a chain only past that cap.
wreath-free builds one chain per orbit, for the order and the section
search.  The normal-set checks, comm-closed and cc-inverse, share one exact
pair walk over the classes' image permutations: both are invariant under
conjugation, so the first row of each class decides every row of that class.
"""

import json
import random
from itertools import islice
from math import gcd

from .catalog import construct, parse_blueprint, special_element
from .classes import (ConjClass, NormalSet, class_of, enumerate_classes,
                      involution_classes_sym)
from .elements import (Overflow, Permutation, SquareMatrix, commutator,
                       conjugate, deserialize_element, element_order,
                       identity_like, inverse, serialize_element)
from .fields import GF, is_p_power, is_prime, poly_trim
from .groups import Group, orbit_points
from .modrep import commutator_dim
from .report import (DEFAULT_SAMPLES, DEFAULT_SEED, FAILS, HOLDS,
                     INDETERMINATE, SKIPPED, ScanPlan, Verdict, timed)
from .wreath import wreath_section_detect

MAX_WITNESSES = 3
# Largest pair closure enumerated before a chain takes over: at degree 80, a
# closure past 512 elements costs over 3x a chain build of the same group.
PAIR_CLOSURE_CAP = 512


def _rep(x):
    return x.representative if isinstance(x, ConjClass) else x


def _gname(G):
    return G.name or G.kind


def _desc(cls, order):
    if cls is not None and cls.label:
        return cls.label
    return "ord%d" % order


def _pair_witness(c, dp, order):
    return {"c": serialize_element(c), "d_conj": serialize_element(dp),
            "closure_order": order}


def _serial(G, q):
    """The serialized element whose image permutation is q."""
    return serialize_element(G.from_perm(q))


def replay_pair_witness(witness, p):
    """Recompute a recorded pair's closure; True when the failure reproduces."""
    c = deserialize_element(witness["c"])
    dp = deserialize_element(witness["d_conj"])
    m = Group([c, dp]).order()
    return m == witness["closure_order"] and not is_p_power(m, p)


def _conjugate_perms(G, d, d_cls, plan):
    """Conjugates of d as raw images of G's permutation image, per the plan:
    the whole class in serial_key order (exhaustive, so witness selection is
    stable), or g^-1 d g for each g that G.chain.raw_random would draw from
    Random(plan.seed), the stream of `Chain.random`."""
    if plan.mode == "exhaustive":
        if d_cls is None or d_cls.group is not G or d_cls.raw is None:
            d_cls = class_of(G, d)
        return sorted(d_cls.raw, key=G.image_key())
    rng = random.Random(plan.seed)
    dq = G.raw(d, "d")
    return (G.chain.raw_random_conjugate(dq, rng) for _ in range(plan.size))


def _capped_order(times, cq, dq, cap):
    """|<cq, dq>| for two raw images composed by times (`Chain.kernel`), or
    None once it exceeds cap: the orbit of cq under left multiplication by
    both is <cq, dq> itself, walked with no tree (`groups.orbit_points`)."""
    try:
        return len(orbit_points([cq], [times(cq), times(dq)], cap, "closure"))
    except Overflow:
        return None


def _pair_setup(G, c, d, p):
    """Unwrap class arguments and validate orders; returns
    (c, d, d_cls, scenario_core, skip_reason)."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    c_cls = c if isinstance(c, ConjClass) else None
    d_cls = d if isinstance(d, ConjClass) else None
    c, d = _rep(c), _rep(d)
    oc, od = element_order(c), element_order(d)
    core = "%s,c=%s,d=%s,p=%d" % (_gname(G), _desc(c_cls, oc),
                                  _desc(d_cls, od), p)
    if od == 1:
        return c, d, d_cls, core, "trivial d"
    if oc == 1:
        return c, d, d_cls, core, "trivial c"
    for name, o in (("c", oc), ("d", od)):
        if not is_p_power(o, p):
            raise ValueError("%s is not a %d-element (order %d)" % (name, p, o))
    return c, d, d_cls, core, None


def _scan_conjugates(name, G, c, d, p, plan, max_witnesses, decide, judge,
                     tally=()):
    """The driver of the conjugate scans: c against every d' in the class of d.

    After `_pair_setup`, c and the d' from `_conjugate_perms` are raw images
    cq and dq (`Group.raw`).  decide(cq, dq) gives the pair's
    verdict, unchanged when c and d' are conjugated by c, once per orbit of
    d' under conjugation by c, at the orbit's first d'; every member keeps
    it.  judge(c, dq, verdict, tally, notes) turns it into a witness or None
    per d', and may count into tally (a copy of the given one) and notes; a
    tallied "inconclusive" makes a clean scan indeterminate.  Both `pairs`
    and `closures` count the d' decided.
    """
    plan = plan or ScanPlan()
    c, d, d_cls, core, skip = _pair_setup(G, c, d, p)
    scenario = name + ":" + core
    if skip:
        return Verdict(scenario, SKIPPED, notes=[skip])
    try:
        stream = _conjugate_perms(G, d, d_cls, plan)
    except Overflow as e:
        return Verdict(scenario, INDETERMINATE,
                       notes=["class enumeration overflowed (%s); "
                              "use a sampled plan" % e])
    cq = G.raw(c, "c")
    by_c = G.chain.kernel[2](cq)
    witnesses, notes, tally, decided, scanned = [], [], dict(tally), {}, 0
    for dq in stream:
        if dq not in decided:
            decided.update(dict.fromkeys(orbit_points([dq], [by_c]),
                                         decide(cq, dq)))
        scanned += 1
        w = judge(c, dq, decided[dq], tally, notes)
        if w:
            witnesses.append(w)
            if len(witnesses) >= max_witnesses:
                break
    counters = {"pairs": scanned, "closures": scanned, **tally}
    status = (FAILS if witnesses else
              INDETERMINATE if tally.get("inconclusive") else HOLDS)
    return Verdict(scenario, status, witnesses=witnesses, counters=counters,
                   sampled=plan.mode == "sample", notes=notes)


def _order_rules(G, p):
    """bf-pair's (decide, judge) for `_scan_conjugates`: the verdict is
    |<c, d'>|, closed up to min(|G|_p, PAIR_CLOSURE_CAP), or by a chain."""
    n = G.order()
    cap = min(gcd(n, p ** n.bit_length()), PAIR_CLOSURE_CAP)  # gcd: |G|_p

    def decide(cq, dq):
        return (_capped_order(G.chain.kernel[1], cq, dq, cap)
                or Group([Permutation(cq), Permutation(dq)]).order())

    def judge(c, dq, m, tally, notes):
        return (None if is_p_power(m, p)
                else _pair_witness(c, G.from_perm(dq), m))
    return decide, judge


@timed
def bf_pair_direct(G, c, d, p, plan=None, max_witnesses=MAX_WITNESSES):
    """Is |<c, d'>| a power of p for every d' in the class of d?

    c and d may be elements or ConjClass objects.  Fails carry replayable
    (c, d') witnesses.
    """
    return _scan_conjugates("bf-pair", G, c, d, p, plan, max_witnesses,
                            *_order_rules(G, p))


@timed
def wreath_free_pair_check(G, c, d, p, plan=None):
    """Is every <c, d'> a p-group with no Z_p wr Z_p section?

    Each witness names the first hypothesis that broke: "p-group" when some
    closure order is not a p-power, "wreath-free" when a closure contains a
    wreath section (the section witness rides along).  One chain per orbit
    of d' under conjugation by c gives the order and serves the full-tier
    section search.  The witness indexes `SmallGroup.from_group(<c, d'>)`,
    the breadth-first order from (c, d'), which conjugation by c carries to
    that from (c, d'^c) index for index: it holds for the whole orbit.
    """
    def decide(cq, dq):
        J = Group([Permutation(cq), Permutation(dq)])
        m = J.order()
        return m, (wreath_section_detect(J, p, tier="full")
                   if is_p_power(m, p) else None)

    def judge(c, dq, verdict, tally, notes):
        m, sv = verdict
        if sv is None:
            return dict(_pair_witness(c, G.from_perm(dq), m),
                        hypothesis="p-group")
        tally["sections"] += 1
        if sv.found:
            return dict(_pair_witness(c, G.from_perm(dq), m),
                        hypothesis="wreath-free", section=sv.witness)
        if sv.note:
            tally["inconclusive"] = tally.get("inconclusive", 0) + 1
            if len(notes) < 3:
                notes.append("section search inconclusive at order %d: %s"
                             % (m, sv.note))
    return _scan_conjugates("wreath-free", G, c, d, p, plan, MAX_WITNESSES,
                            decide, judge, {"sections": 0})


def _scan_normal_set(name, G, C, p, judge):
    """The pair walk of the normal-set checks over C x C, exact at every |C|.

    The members are the classes' raw images (`ConjClass.raw`), decoded once
    into image permutations of G, the classes' group, and sorted by
    `Group.image_key` (serial_key order on the elements); the walk takes
    rows a in that order.  judge(G, row_class), row_class mapping each
    member to its class's index in C, returns (step, summary): step(a, b)
    gives a witness or None, and summary(witnesses) the notes and counters
    known after the walk.  Both
    checks are invariant under conjugation ((a, b) fails exactly when
    (a^g, b^g) does), so every row of a class has the witnesses of that
    class's first row up to conjugation: a row whose class already had a
    clean first row holds no witness and is skipped.  The witnesses and
    `pairs` are those of the walk over all n^2 pairs in row-major order,
    stopped at the MAX_WITNESSES-th witness.
    """
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    C = NormalSet.of(C)
    if G is None and C.classes:
        G = C.classes[0].group
    scenario = "%s:%s,C=%s,p=%d" % (name, _gname(G) if G else "?",
                                    "+".join(l or "?" for l in C.labels), p)
    if any(k.raw is None for k in C.classes):
        raise ValueError("the normal set must be fully enumerated")
    row_class = {Permutation(x): i for i, k in enumerate(C.classes)
                 for x in k.raw}
    if not row_class:
        return Verdict(scenario, HOLDS, notes=["empty set"])
    members = sorted(row_class, key=G.image_key())
    n = len(members)
    step, summary = judge(G, row_class)

    def walk():  # (pairs walked so far, witness), in row-major order
        clean = set()
        for i, a in enumerate(members):
            if row_class[a] in clean:
                continue
            hit = False
            for j, b in enumerate(members):
                w = step(a, b)
                if w:
                    hit = True
                    yield i * n + j + 1, w
            if not hit:
                clean.add(row_class[a])
    found = list(islice(walk(), MAX_WITNESSES))
    witnesses = [w for _, w in found]
    pairs = found[-1][0] if len(found) == MAX_WITNESSES else n * n
    notes, tally = summary(witnesses)
    return Verdict(scenario, FAILS if witnesses else HOLDS,
                   witnesses=witnesses,
                   counters={"pairs": pairs, "set_size": n, **tally},
                   notes=notes)


@timed
def commutator_closed_check(G, C, p):
    """Is [c, d] in C or trivial for every pair c, d in the normal set C of G?

    Notes report whether C is closed under squares and under inverses, and
    whether the commutator image fills all of C plus the identity.
    """
    C = NormalSet.of(C)

    def judge(G, row_class):
        for k in C.classes:
            if not is_p_power(k.order, p):
                raise ValueError("class %s has element order %d, not a power "
                                 "of %d" % (k.label, k.order, p))
        base = set(row_class)
        ok = base | {G.chain.identity}
        image = set()  # the commutators of the rows walked

        def step(a, b):
            k = commutator(a, b)
            image.add(k)
            if k not in ok:
                return {"c": _serial(G, a), "d": _serial(G, b),
                        "commutator": _serial(G, k)}

        def summary(witnesses):
            reps = [Permutation(k.raw[0]) for k in C.classes]
            sq = all(a * a in ok for a in reps)
            inv = all(~a in base for a in reps)
            notes = ["C is closed under squares" if sq
                     else "C is not closed under squares",
                     "C is closed under inverses" if inv
                     else "C is not closed under inverses"]
            if witnesses:
                return notes, {}
            # the image is a normal set: the classes it meets, plus 1
            met = {row_class[k] for k in image if k in row_class}
            size = len(image - base) + sum(C.classes[i].size for i in met)
            notes.append("commutator image is exactly C plus the identity"
                         if size == len(ok) else
                         "commutator image covers %d of %d elements"
                         % (size, len(ok)))
            return notes, {"image_size": size}
        return step, summary
    return _scan_normal_set("comm-closed", G, C, p, judge)


def replay_commutator_witness(witness, C):
    """True when the recorded pair's commutator still escapes C ∪ {1}."""
    a = deserialize_element(witness["c"])
    b = deserialize_element(witness["d"])
    k = commutator(a, b)
    if k != deserialize_element(witness["commutator"]):
        return False
    els = NormalSet.of(C).elements
    return not k.is_identity() and k not in els


@timed
def cc_inverse_check(C, p):
    """Is every product c * d^-1 over the normal set C a p-element?

    For one class C this is the class's commutator question: [c, g] =
    c^-1 c^g, so the commutators [c, g] with c in C and g in G are exactly
    C^-1 C, and each c * d^-1 is conjugate to d^-1 * c, which lies in C^-1 C.
    So the check holds exactly when every [c, g] is a p-element.
    """
    def judge(G, row_class):
        def step(a, b):
            x = a * ~b
            m = element_order(x)
            if not is_p_power(m, p):
                return {"c": _serial(G, a), "d": _serial(G, b),
                        "product": _serial(G, x), "product_order": m}
        return step, lambda witnesses: ([], {})
    return _scan_normal_set("cc-inverse", None, C, p, judge)


def replay_product_witness(witness, p):
    """True when the recorded c * d^-1 product still has non-p-power order."""
    a = deserialize_element(witness["c"])
    b = deserialize_element(witness["d"])
    x = a * inverse(b)
    return (x == deserialize_element(witness["product"])
            and element_order(x) == witness["product_order"]
            and not is_p_power(witness["product_order"], p))


@timed
def l2q_trace_identity(q):
    """With x = [[0,1],[-1,t]] and y = [[t,1],[-1,0]] over GF(q), check that
    the trace of [x, y] equals t + 3 at every t; witnesses record mismatches."""
    F = GF(q)
    if F.r == 2:
        raise ValueError("q must be odd")
    three = F.encode_int(3)
    neg1 = F.neg(1)
    witnesses = []
    alt_hits = 0
    for t in F.elements():
        x = SquareMatrix(F, [[0, 1], [neg1, t]])
        y = SquareMatrix(F, [[t, 1], [neg1, 0]])
        tr = commutator(x, y).trace()
        expected = F.add(t, three)
        # running tally against 4t^2 + 2, the shape the scan actually sees
        alt = F.add(F.mul(F.encode_int(4), F.mul(t, t)), F.encode_int(2))
        if tr == alt:
            alt_hits += 1
        if tr != expected:
            witnesses.append({"q": q, "t": t, "trace": tr, "expected": expected})
    status = FAILS if witnesses else HOLDS
    notes = []
    if witnesses:
        notes.append("trace disagrees with t + 3 at %d of %d values of t"
                     % (len(witnesses), F.q))
    if alt_hits == F.q:
        notes.append("observed trace equals 4*t^2 + 2 at every t")
    return Verdict("l2q-trace:q=%d" % q, status, witnesses=witnesses,
                   counters={"t_values": F.q, "mismatches": len(witnesses)},
                   notes=notes)


def _interpolate(F, xs, ys):
    """Coefficients (ascending) of the unique poly of degree < len(xs) through
    the given points, by Newton's divided differences."""
    n = len(xs)
    dd = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = F.div(F.sub(dd[i], dd[i - 1]), F.sub(xs[i], xs[i - j]))
    poly = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        nxt = [0] * (len(poly) + 1)
        for k, ck in enumerate(poly):
            nxt[k + 1] = F.add(nxt[k + 1], ck)
            nxt[k] = F.sub(nxt[k], F.mul(xs[i], ck))
        nxt[0] = F.add(nxt[0], dd[i])
        poly = nxt
    return poly


def l2q_laurent_profile(q, x):
    """(coefficients, degree) of the polynomial s^4 * tr[x, x^g(s)] on GF(q)*,
    where g(s) = diag(s, 1/s)."""
    F = x.field
    if F.q != q:
        raise ValueError("x is not over GF(%d)" % q)
    xs = [s for s in F.elements() if s]
    ys = []
    for s in xs:
        g = SquareMatrix.diagonal(F, (s, F.inv(s)))
        f = commutator(x, conjugate(x, g)).trace()
        ys.append(F.mul(F.pow(s, 4), f))
    poly = _interpolate(F, xs, ys)
    return poly, len(poly_trim(poly[:])) - 1


def _random_sl2(F, rng):
    while True:
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        if a:
            d = F.div(F.add(1, F.mul(b, c)), a)
            return SquareMatrix(F, [[a, b], [c, d]])
        if b:
            return SquareMatrix(F, [[0, b], [F.neg(F.inv(b)),
                                             rng.randrange(F.q)]])


@timed
def l2q_laurent_scan(q, samples=100, seed=DEFAULT_SEED):
    """For sampled x in SL2(q): fit s^4 * tr[x, x^diag(s,1/s)] through every
    nonzero s and check the degree stays at most 8."""
    F = GF(q)
    if q < 11:
        raise ValueError("need q >= 11: nine interpolation points "
                         "must fit in GF(q)*")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = random.Random(seed)
    witnesses = []
    worst = -1
    for _ in range(samples):
        x = _random_sl2(F, rng)
        poly, deg = l2q_laurent_profile(q, x)
        worst = max(worst, deg)
        if deg > 8:
            witnesses.append({"x": serialize_element(x), "degree": deg,
                              "coefficients": poly})
            if len(witnesses) >= MAX_WITNESSES:
                break
    status = FAILS if witnesses else HOLDS
    return Verdict("l2q-laurent:q=%d" % q, status, witnesses=witnesses,
                   counters={"sampled_x": samples, "points_per_x": q - 1,
                             "max_degree": worst}, sampled=True)


def _power(x, k):
    out = identity_like(x)
    acc = x
    while k:
        if k & 1:
            out = out * acc
        acc = acc * acc
        k >>= 1
    return out


@timed
def inversion_identity_scan(G, plan=None):
    """Sample x, y and involutions g from G and check two identities exactly:
    [x,y][y,x] = 1, and that x^-1 g x conjugates c = [x, (x^-1)^g] to c^-1."""
    plan = plan or ScanPlan()
    rng = random.Random(plan.seed)
    ident = G.identity
    witnesses = []
    pair_checks = inv_checks = 0
    for _ in range(plan.size):
        x = G.random_element(rng)
        y = G.random_element(rng)
        pair_checks += 1
        if commutator(x, y) * commutator(y, x) != ident:
            witnesses.append({"identity": "commutator-swap",
                              "x": serialize_element(x),
                              "y": serialize_element(y)})
        z = G.random_element(rng)
        m = element_order(z)
        if m % 2 == 0:
            g = _power(z, m // 2)
            inv_checks += 1
            c = commutator(x, conjugate(inverse(x), g))
            if conjugate(c, conjugate(g, x)) != inverse(c):
                witnesses.append({"identity": "inversion",
                                  "x": serialize_element(x),
                                  "g": serialize_element(g)})
        if len(witnesses) >= MAX_WITNESSES:
            break
    notes = []
    if inv_checks == 0:
        notes.append("no involutions found in the sample; "
                     "inversion identity untested")
    status = FAILS if witnesses else HOLDS
    return Verdict("identity-scan:%s" % _gname(G), status, witnesses=witnesses,
                   counters={"samples": plan.size, "pair_checks": pair_checks,
                             "inversion_checks": inv_checks},
                   sampled=True, notes=notes)


@timed
def symmetric_bf_scan(n, plan=None):
    """Scan every unordered pair of involution classes of Sym(n) with
    bf_pair_direct; the holding set should be exactly
    {(transposition, fixed-point-free)}."""
    if n % 2 or not 6 <= n <= 10:
        raise ValueError("n must be even with 6 <= n <= 10")
    G = construct("sym:%d" % n)
    classes = involution_classes_sym(G, n)
    if plan is None:
        plan = ScanPlan.exhaustive() if n <= 8 else ScanPlan()
    rep_moves = {k.label: sum(1 for i in range(n) if k.representative(i) != i)
                 for k in classes}
    transp = next(k for k in classes if rep_moves[k.label] == 2)
    fpf = next(k for k in classes if rep_moves[k.label] == n)
    expected = tuple(sorted((transp.label, fpf.label)))
    holding, details, indeterminate = [], [], []
    fail_witness = {}
    closures = 0
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            a, b = classes[i], classes[j]
            big, small = (a, b) if a.size >= b.size else (b, a)
            v = bf_pair_direct(G, big, small, 2, plan, max_witnesses=1)
            key = tuple(sorted((a.label, b.label)))
            details.append("pair (%s, %s): %s" % (key[0], key[1],
                                                  v.display_status))
            closures += v.counters.get("closures", 0)
            if v.status == HOLDS:
                holding.append(key)
            elif v.status == FAILS:
                fail_witness[key] = v.witnesses[0]
            else:
                indeterminate.append(key)
    observed = set(holding)
    witnesses = []
    for key in sorted(observed - {expected}):
        witnesses.append({"unexpected_pair": list(key)})
    for key in sorted({expected} - observed):
        w = {"missing_pair": list(key)}
        if key in fail_witness:
            w["witness"] = fail_witness[key]
        witnesses.append(w)
    if witnesses:
        status = FAILS
    elif indeterminate:
        status = INDETERMINATE
    else:
        status = HOLDS
    notes = details + ["expected pair: (%s, %s)" % expected]
    if indeterminate:
        notes.append("unresolved pairs: %s" % sorted(indeterminate))
    npairs = len(classes) * (len(classes) + 1) // 2
    return Verdict("sym-bf-scan:n=%d" % n, status, witnesses=witnesses,
                   counters={"class_pairs": npairs, "closures": closures},
                   sampled=plan.mode == "sample", notes=notes)


@timed
def reflections_o3_scan(q):
    """Exhaustive bf-pair scan at p = 2 of the two reflection classes of
    GO3(q)."""
    if q not in (3, 5, 7, 9):
        raise ValueError("q must be one of 3, 5, 7, 9")
    G = construct("go_odd:3:%d" % q)
    classes = enumerate_classes(G)
    refl = [k for k in classes
            if k.order == 2 and commutator_dim(k.representative) == 1]
    if len(refl) != 2:
        raise ValueError("expected 2 reflection classes in GO3(%d), found %d"
                         % (q, len(refl)))
    a, b = refl
    big, small = (a, b) if a.size >= b.size else (b, a)
    v = bf_pair_direct(G, big, small, 2, ScanPlan.exhaustive())
    v.scenario = "o3-reflections:q=%d" % q
    v.notes = ["reflection classes: %s (size %d), %s (size %d)"
               % (a.label, a.size, b.label, b.size)] + v.notes
    return v


def _sl2n3_probe(G, c, plan):
    """Swap the reflection for diag(-1,-1,1,1) and hunt for a non-2-group
    closure; the outcome is reported as a note, never as a failure."""
    neg = c.field.neg(1)
    d2 = SquareMatrix.diagonal(c.field, (neg, neg, 1, 1))
    size = plan.size if plan.mode == "sample" else DEFAULT_SAMPLES
    v = _scan_conjugates("probe", G, c, d2, 2,
                         ScanPlan.sample(size, plan.seed + 1), 1,
                         *_order_rules(G, 2))
    if v.witnesses:
        w = v.witnesses[0]
        return ("probe: negated-plane involution reached a non-2-group "
                "closure of order %d at conjugate %d: %s"
                % (w["closure_order"], v.counters["pairs"],
                   json.dumps(w["d_conj"], sort_keys=True)))
    return ("probe: negated-plane involution stayed 2-group through %d "
            "conjugates" % size)


@timed
def sl2n3_scan(plan=None):
    """In GL4(3): is <c, d^g> a 2-group for sampled g, with c the blockwise
    fourth root of the identity (c^2 = -1) and d a reflection?

    A notes-only probe reruns the scan with the reflection replaced by an
    involution negating a plane, expecting to surface a non-2-group closure.
    """
    plan = plan or ScanPlan()
    bp = parse_blueprint("gl:4:3")
    G = construct(bp)
    c = special_element(bp, "pm_i_element")
    d = special_element(bp, "reflection")
    v = bf_pair_direct(G, c, d, 2, plan)
    v.scenario = "sl2n3:dim=4"
    v.notes.append(_sl2n3_probe(G, c, plan))
    return v
