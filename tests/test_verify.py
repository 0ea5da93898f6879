"""Scenario checks: pair scans, closure identities, trace/degree scans."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bfl import classes, verify
from bfl.catalog import construct, special_element
from bfl.classes import NormalSet, class_of, enumerate_classes, serial_key
from bfl.elements import (Permutation, SquareMatrix, commutator, conjugate,
                          deserialize_element, element_order, inverse,
                          serialize_element)
from bfl.fields import GF, factorize, is_p_power
from bfl.groups import Group, image_kernel
from bfl.report import ScanPlan
from bfl.verify import (_capped_order, _conjugate_perms, bf_pair_direct,
                        cc_inverse_check,
                        commutator_closed_check, inversion_identity_scan,
                        l2q_laurent_profile, l2q_laurent_scan,
                        l2q_trace_identity, reflections_o3_scan,
                        replay_commutator_witness, replay_pair_witness,
                        replay_product_witness, sl2n3_scan, symmetric_bf_scan,
                        wreath_free_pair_check, _interpolate)
from bfl.verify import MAX_WITNESSES
from bfl.wreath import reconstruct_section, wreath_section_detect
from test_groups import gammal2_9


@pytest.fixture(scope="module")
def a5():
    G = construct("alt:5")
    enumerate_classes(G)
    return G


@pytest.fixture(scope="module")
def s6():
    G = construct("sym:6")
    enumerate_classes(G)
    return G


def cls_of(G, label):
    return next(c for c in enumerate_classes(G) if c.label == label)


def core(v):
    """Everything that must be identical across reruns (seconds excluded)."""
    return (v.scenario, v.status, v.sampled, v.witnesses, v.counters, v.notes)


# ---- bf_pair_direct --------------------------------------------------------

def test_bf_s6_fpf_transposition_holds(s6):
    c = Permutation.from_cycles(6, [(0, 1), (2, 3), (4, 5)])
    d = Permutation.from_cycles(6, [(0, 1)])
    v = bf_pair_direct(s6, c, d, 2, ScanPlan.exhaustive())
    assert v.status == "holds"
    assert v.counters["pairs"] == 15  # the full transposition class
    assert not v.sampled


def test_bf_a5_five_class_fails_with_replayable_witness(a5):
    five = cls_of(a5, "5a")
    v = bf_pair_direct(a5, five, five, 5, ScanPlan.exhaustive())
    assert v.status == "fails"
    assert v.witnesses
    for w in v.witnesses:
        assert replay_pair_witness(w, 5)
        assert not is_p_power(w["closure_order"], 5)


def test_bf_class_labels_reach_the_scenario(a5):
    five = cls_of(a5, "5a")
    v = bf_pair_direct(a5, five, five, 5, ScanPlan.exhaustive())
    assert "c=5a" in v.scenario and "d=5a" in v.scenario


def test_bf_trivial_d_skipped(s6):
    c = Permutation.from_cycles(6, [(0, 1)])
    v = bf_pair_direct(s6, c, Permutation.identity(6), 2)
    assert v.status == "skipped"
    assert v.notes == ["trivial d"]


def test_bf_non_p_element_rejected(s6):
    c = Permutation.from_cycles(6, [(0, 1)])
    three = Permutation.from_cycles(6, [(0, 1, 2)])
    with pytest.raises(ValueError):
        bf_pair_direct(s6, c, three, 2)
    with pytest.raises(ValueError):
        bf_pair_direct(s6, three, c, 2)


@pytest.mark.parametrize("check", [bf_pair_direct, wreath_free_pair_check],
                         ids=lambda f: f.__name__)
def test_bf_c_outside_the_group_rejected(check):
    G = construct("go_odd:3:5")
    enumerate_classes(G)
    c = SquareMatrix.diagonal(G.identity.field, (2, 1, 1))  # scales a norm
    with pytest.raises(ValueError, match="does not act"):
        check(G, c, cls_of(G, "2b"), 2)


def test_other_degree_permutations_rejected():
    # a permutation of another degree is no element of sym:6: no 16-member
    # "class" of (0 1)(6 7), no verdict over it, no IndexError or TypeError
    G = construct("sym:6")
    t = Permutation.from_cycles(6, [(0, 1)])
    d8 = Permutation.from_cycles(8, [(0, 1), (6, 7)])
    t5 = Permutation.from_cycles(5, [(0, 1)])
    exhaustive, sampled = ScanPlan.exhaustive(), ScanPlan.sample(5, 0xBF)
    calls = [lambda: class_of(G, d8),
             lambda: bf_pair_direct(G, t, d8, 2, exhaustive),
             lambda: bf_pair_direct(G, t5, t, 2, exhaustive),
             lambda: bf_pair_direct(G, t, t5, 2, exhaustive),
             lambda: bf_pair_direct(G, t, d8, 2, sampled)]
    for call in calls:
        with pytest.raises(ValueError, match="does not act"):
            call()
    assert not G.contains(d8) and not G.contains(t5) and G.contains(t)


@pytest.mark.parametrize("plan", [ScanPlan.exhaustive(),
                                  ScanPlan.sample(5, 0xBF)],
                         ids=["exhaustive", "sample"])
@pytest.mark.parametrize("check", [bf_pair_direct, wreath_free_pair_check],
                         ids=lambda f: f.__name__)
def test_non_members_rejected(check, plan):
    # elements that permute the group's points but lie outside the group: a
    # transposition of alt:4, and a determinant-2 matrix of sl:2:3, whose
    # "class" was once scanned as 6 or 12 members and answered holds
    a4, sl = construct("alt:4"), construct("sl:2:3")
    F = sl.identity.field
    cases = [(a4, Permutation.from_cycles(4, [(0, 1), (2, 3)]),
              Permutation.from_cycles(4, [(0, 1)])),
             (sl, SquareMatrix(F, [[0, 1], [2, 0]]),
              SquareMatrix.diagonal(F, (2, 1)))]
    for G, member, stranger in cases:
        assert G.contains(member) and not G.contains(stranger)
        assert G.to_perm(stranger) is not None
        for c, d in ((member, stranger), (stranger, member)):
            with pytest.raises(ValueError,
                               match="is not an element of the group"):
                check(G, c, d, 2, plan)
        with pytest.raises(ValueError, match="is not an element of the group"):
            class_of(G, stranger)


def test_bf_conjugation_invariance(s6):
    c = Permutation.from_cycles(6, [(0, 1), (2, 3), (4, 5)])
    d = Permutation.from_cycles(6, [(0, 1)])
    base = bf_pair_direct(s6, c, d, 2, ScanPlan.exhaustive())
    h = Permutation.from_cycles(6, [(0, 3, 4)])
    moved = bf_pair_direct(s6, (~h) * c * h, d, 2, ScanPlan.exhaustive())
    assert moved.status == base.status
    assert moved.counters == base.counters


def test_bf_matches_product_order_test_for_involutions(s6):
    # two involutions generate a 2-group iff their product has 2-power order
    for la, lb in (("2a", "2b"), ("2a", "2a"), ("2b", "2c")):
        A, B = cls_of(s6, la), cls_of(s6, lb)
        v = bf_pair_direct(s6, A, B, 2, ScanPlan.exhaustive())
        orders = {element_order(a * b) for a in A.elements for b in B.elements}
        assert (v.status == "holds") == all(is_p_power(m, 2) for m in orders)


def test_bf_sampled_reruns_are_identical(a5):
    five = cls_of(a5, "5a")
    plan = ScanPlan.sample(40, seed=0xBF)
    assert core(bf_pair_direct(a5, five, five, 5, plan)) == \
        core(bf_pair_direct(a5, five, five, 5, plan))


def test_bf_exhaustive_witness_choice_is_stable(a5):
    five = cls_of(a5, "5a")
    w1 = bf_pair_direct(a5, five, five, 5, ScanPlan.exhaustive()).witnesses
    w2 = bf_pair_direct(a5, five, five, 5, ScanPlan.exhaustive()).witnesses
    assert w1 == w2 and len(w1) <= MAX_WITNESSES


# ---- pair closures on the ambient image -------------------------------------

def _two_part(x):
    """The 2-part of the permutation x: a 2-element."""
    m = x.order()
    y = x
    while m % 2 == 0:
        m //= 2
    for _ in range(m - 1):
        y = y * x
    return y


@pytest.mark.parametrize("name", ["gl:4:3", "go_odd:3:5", "sym:8",
                                  "sl:2:17"])
def test_capped_order_matches_the_chain(name):
    # sl:2:17 acts on 288 points, so its raw images are tuples
    G = construct(name)
    rng = random.Random(5)
    pairs = [[_two_part(G.chain.random(rng)) for _ in range(2)]
             for _ in range(30)]
    one = Permutation.identity(G.chain.degree)
    pairs += [(one, pairs[0][1]), (one, one)]
    encode = image_kernel(G.chain.degree)[0]
    for cq, dq in pairs:
        n = Group([cq, dq]).order()
        # a closure of exactly cap members is not past it
        edge = (n - 1, n) if 1 < n <= 512 else ()
        for cap in (8, 64, 512) + edge:
            assert (_capped_order(G.chain.kernel[1], encode(cq.images),
                                  encode(dq.images), cap)
                    == (n if n <= cap else None))


@pytest.mark.parametrize("cap", [1, 4])
def test_chain_fallback_past_a_low_cap_keeps_verdicts(monkeypatch, a5, s6,
                                                      cap):
    go = construct("go_odd:3:5")
    enumerate_classes(go)
    scans = [
        lambda: bf_pair_direct(a5, cls_of(a5, "5a"), cls_of(a5, "5a"), 5,
                               ScanPlan.exhaustive()),
        lambda: bf_pair_direct(s6, cls_of(s6, "2a"), cls_of(s6, "2c"), 2,
                               ScanPlan.exhaustive()),
        lambda: bf_pair_direct(go, cls_of(go, "2a"), cls_of(go, "4a"), 2,
                               ScanPlan.exhaustive()),
        lambda: sl2n3_scan(ScanPlan.sample(30, 0xBF)),
    ]
    before = [core(scan()) for scan in scans]
    chains = []

    class CountingGroup(Group):
        def order(self):
            chains.append(len(self.gens))
            return Group.order(self)

    monkeypatch.setattr(verify, "PAIR_CLOSURE_CAP", cap)
    monkeypatch.setattr(verify, "Group", CountingGroup)
    assert [core(scan()) for scan in scans] == before
    assert chains and set(chains) == {2}


def _orbit_keys(cq, perms):
    """The least member of each d''s orbit under conjugation by c."""
    c = Permutation(cq)
    keys = set()
    for dq in map(Permutation, perms):
        orbit, y = [dq], conjugate(dq, c)
        while y != dq:
            orbit.append(y)
            y = conjugate(y, c)
        keys.add(min(orbit, key=lambda q: q.images))
    return keys


def _pair_scans():
    """(name, run) for the scans through the conjugate-scan driver."""
    s6, go = construct("sym:6"), construct("go_odd:3:5")
    exhaustive = ScanPlan.exhaustive()
    out = []
    for G, p in ((s6, 2), (go, 2)):
        ks = [k for k in enumerate_classes(G) if is_p_power(k.order, p)][1:]
        for c_cls, d_cls in itertools.product(ks, repeat=2):
            out.append(("%s %s %s" % (G.name, c_cls.label, d_cls.label),
                        lambda G=G, c=c_cls, d=d_cls, p=p:
                        bf_pair_direct(G, c, d, p, exhaustive)))
    for c_cls, d_cls in itertools.product(enumerate_classes(s6)[1:4],
                                          repeat=2):
        out.append(("wreath-free sym:6 %s %s" % (c_cls.label, d_cls.label),
                    lambda c=c_cls, d=d_cls:
                    wreath_free_pair_check(s6, c, d, 2, exhaustive)))
    sp = construct("sp:4:3")
    enumerate_classes(sp)
    a, b = (cls_of(sp, label) for label in ("2a", "2b"))
    out.append(("wreath-free sp:4:3", lambda: wreath_free_pair_check(
        sp, a, b, 2, ScanPlan.sample(300, 0xBF))))
    out.append(("sl2n3", lambda: sl2n3_scan(ScanPlan.sample(200, 0xBF))))
    return out


def test_pair_verdicts_are_decided_once_per_orbit(monkeypatch):
    real, seen = verify._scan_conjugates, []

    def recording(name, G, c, d, p, plan, max_witnesses, decide, judge,
                  tally=()):
        cq = G.raw(verify._rep(c), "c")
        perms = list(verify._conjugate_perms(G, verify._rep(d), None, plan))
        decided, judged = [], []
        seen.append((name, cq, perms, decided, judged))

        def counted(cq, dq):
            decided.append(dq)
            return decide(cq, dq)

        def kept(c, dq, verdict, tally, notes):
            judged.append((dq, verdict))
            return judge(c, dq, verdict, tally, notes)
        return real(name, G, c, d, p, plan, max_witnesses, counted, kept,
                    tally)
    monkeypatch.setattr(verify, "_scan_conjugates", recording)
    closures = []
    capped = verify._capped_order
    monkeypatch.setattr(verify, "_capped_order",
                        lambda *a: closures.append(1) or capped(*a))
    bodies = [(name, core(run())) for name, run in _pair_scans()]
    assert len(seen) > 40
    assert {name for name, *_ in seen} == {"bf-pair", "wreath-free", "probe"}
    for name, cq, perms, decided, judged in seen:
        walked = [dq for dq, _ in judged]
        assert walked == perms[:len(walked)]
        # every d' has the order of its own pair; wreath-free's verdict is
        # (order, section verdict)
        assert [v[0] if name == "wreath-free" else v for _, v in judged] == [
            Group([Permutation(cq), Permutation(dq)]).order()
            for dq in walked]
        # one decision per orbit of d' under conjugation by c, at its first d'
        firsts, met = [], set()
        for dq in walked:
            key = _orbit_keys(cq, [dq])
            if not key <= met:
                firsts.append(dq)
                met |= key
        assert decided == firsts
    assert (sum(len(decided) for *_, decided, _ in seen)
            < sum(len(judged) for *_, judged in seen))
    # bf-pair closes on raw images once per decision
    assert len(closures) == sum(len(decided) for name, _, _, decided, _ in seen
                                if name != "wreath-free")

    # the scans' bodies are those of the walk that decides every d' on its
    # own pair: bf-pair by a chain with no cap, wreath-free by its own search
    def uncached(name, G, c, d, p, plan, max_witnesses, decide, judge,
                 tally=()):
        def fresh(c, dq, verdict, tally, notes):
            if name == "wreath-free":
                verdict = decide(G.raw(c, "c"), dq)
            else:
                verdict = Group([G.to_perm(c), Permutation(dq)]).order()
            return judge(c, dq, verdict, tally, notes)
        return real(name, G, c, d, p, plan, max_witnesses, decide, fresh,
                    tally)
    monkeypatch.setattr(verify, "_scan_conjugates", uncached)
    assert bodies == [(name, core(run())) for name, run in _pair_scans()]


def _old_stream(G, d, n, seed):
    rng = random.Random(seed)
    return [conjugate(d, G.random_element(rng)) for _ in range(n)]


@pytest.mark.parametrize("make", [lambda: construct("gl:4:3"), gammal2_9],
                         ids=["gl:4:3", "gammal2_9"])
def test_sampled_conjugates_are_the_old_stream(make):
    G = make()
    d = G.gens[1]
    new = list(_conjugate_perms(G, d, None, ScanPlan.sample(25, 7)))
    encode = image_kernel(G.chain.degree)[0]
    assert new == [encode(G.to_perm(x).images)
                   for x in _old_stream(G, d, 25, 7)]


@pytest.mark.parametrize("make", [lambda: construct("go_odd:3:5"), gammal2_9],
                         ids=["go_odd:3:5", "gammal2_9"])
def test_exhaustive_conjugates_are_in_serial_key_order(make):
    G = make()
    plan = ScanPlan.exhaustive()
    for k in enumerate_classes(G)[1:6]:
        want = sorted(k.elements, key=serial_key)
        for d_cls in (k, None):
            got = _conjugate_perms(G, k.representative, d_cls, plan)
            assert [G.from_perm(q) for q in got] == want


# ---- wreath_free_pair_check ------------------------------------------------

def test_wreath_free_s6_pair_fails_on_section_hypothesis(s6):
    # the 2-group half survives, but some closure is dihedral of order 8,
    # which is exactly the p = 2 wreath group
    c = Permutation.from_cycles(6, [(0, 1), (2, 3), (4, 5)])
    d = Permutation.from_cycles(6, [(0, 1)])
    v = wreath_free_pair_check(s6, c, d, 2, ScanPlan.exhaustive())
    assert v.status == "fails"
    assert {w["hypothesis"] for w in v.witnesses} == {"wreath-free"}
    assert all(w["closure_order"] == 8 for w in v.witnesses)
    assert all(w["section"] is not None for w in v.witnesses)


def test_wreath_free_reports_p_group_break_first(a5):
    for d_label, counters in (
            ("5a", {"pairs": 4, "closures": 4, "sections": 1,
                    "inconclusive": 1}),
            # no closure is a 5-group: no section search runs, and says so
            ("5b", {"pairs": 3, "closures": 3, "sections": 0})):
        v = wreath_free_pair_check(a5, cls_of(a5, "5a"),
                                   cls_of(a5, d_label), 5,
                                   ScanPlan.exhaustive())
        assert v.status == "fails"
        assert v.witnesses[0]["hypothesis"] == "p-group"
        assert v.counters == counters


def _counting_searches(monkeypatch):
    """(searches, decided): the calls of verify.wreath_section_detect, and
    the d' the conjugate-scan driver decides."""
    searches, decided = [], []
    detect, scan = verify.wreath_section_detect, verify._scan_conjugates
    monkeypatch.setattr(verify, "wreath_section_detect",
                        lambda *a, **k: searches.append(1) or detect(*a, **k))

    def counting(name, G, c, d, p, plan, max_witnesses, decide, *rest):
        return scan(name, G, c, d, p, plan, max_witnesses,
                    lambda cq, dq: decided.append(dq) or decide(cq, dq),
                    *rest)
    monkeypatch.setattr(verify, "_scan_conjugates", counting)
    return searches, decided


@pytest.mark.parametrize("group", ["sym:6", "gl:2:3"])
def test_wreath_free_witness_at_a_later_orbit_member_replays(monkeypatch,
                                                              group):
    # a section witness indexes SmallGroup.from_group of the pair (c, d');
    # conjugation by c carries that indexing to the one of (c, d'^c), so the
    # witness decided at an orbit's first d' is that of every member
    G = construct(group)
    enumerate_classes(G)
    searches, decided = _counting_searches(monkeypatch)
    v = wreath_free_pair_check(G, cls_of(G, "2b"), cls_of(G, "4a"), 2,
                               ScanPlan.exhaustive())
    assert v.status == "fails"
    # three witnesses from two decisions: one sits at a later member
    assert len(searches) == len(decided) < len(v.witnesses) == MAX_WITNESSES
    for w in v.witnesses:
        assert w["hypothesis"] == "wreath-free"
        J = Group([deserialize_element(w["c"]),
                   deserialize_element(w["d_conj"])])
        assert J.order() == w["closure_order"]
        assert reconstruct_section(J, w["section"], 2)
        assert wreath_section_detect(J, 2, tier="full").witness == w["section"]


def test_wreath_free_searches_once_per_orbit(monkeypatch):
    # every closure is W5 itself, and 200 draws fall in 97 orbits under
    # conjugation by c, so 97 searches decide 200 inconclusive pairs
    G = construct("wreath:5")
    enumerate_classes(G)
    searches, decided = _counting_searches(monkeypatch)
    v = wreath_free_pair_check(G, cls_of(G, "5xe"), cls_of(G, "5xf"), 5,
                               ScanPlan.sample(200, 0xBF))
    assert v.status == "indeterminate"
    assert v.counters == {"pairs": 200, "closures": 200, "sections": 200,
                          "inconclusive": 200}
    assert len(searches) == len(decided) == 97


def test_wreath_free_trivial_skip(s6):
    d = Permutation.from_cycles(6, [(0, 1)])
    v = wreath_free_pair_check(s6, Permutation.identity(6), d, 2)
    assert v.status == "skipped"


# ---- commutator_closed_check ----------------------------------------------

def test_comm_closed_a5_five_class(a5):
    five = cls_of(a5, "5a")
    v = commutator_closed_check(a5, five, 5)
    assert v.status == "holds"
    assert v.counters == {"pairs": 144, "set_size": 12, "image_size": 13}
    assert "C is not closed under squares" in v.notes
    assert "C is closed under inverses" in v.notes
    assert "commutator image is exactly C plus the identity" in v.notes


def test_comm_closed_both_five_classes_agree(a5):
    for label in ("5a", "5b"):
        v = commutator_closed_check(a5, cls_of(a5, label), 5)
        assert v.status == "holds"
        assert "C is not closed under squares" in v.notes


def test_comm_closed_involution_class_fails(a5):
    two = cls_of(a5, "2a")
    v = commutator_closed_check(a5, two, 2)
    assert v.status == "fails"
    for w in v.witnesses:
        assert replay_commutator_witness(w, NormalSet([two]))


def test_comm_closed_trivial_class(a5):
    v = commutator_closed_check(a5, cls_of(a5, "1a"), 5)
    assert v.status == "holds"


def test_comm_closed_wrong_prime_rejected(a5):
    with pytest.raises(ValueError):
        commutator_closed_check(a5, cls_of(a5, "3a"), 5)


def test_comm_closed_needs_enumeration():
    from bfl.classes import involution_classes_sym
    G = construct("sym:6")
    lazy = involution_classes_sym(G, 6)[0]  # no element set attached
    with pytest.raises(ValueError):
        commutator_closed_check(G, lazy, 2)


# ---- cc_inverse_check ------------------------------------------------------

def test_cc_inverse_a5_five_class_fails(a5):
    v = cc_inverse_check(cls_of(a5, "5a"), 5)
    assert v.status == "fails"
    for w in v.witnesses:
        assert replay_product_witness(w, 5)


def test_cc_inverse_trivial_class_holds(a5):
    assert cc_inverse_check(cls_of(a5, "1a"), 5).status == "holds"


def test_cc_inverse_inside_a_p_group_holds():
    G = construct("dihedral:8")
    enumerate_classes(G)
    four = cls_of(G, "4a")
    v = cc_inverse_check(four, 2)
    assert v.status == "holds"
    assert v.counters["pairs"] == 4  # class of size 2


# ---- the exact normal-set walk ---------------------------------------------
# Both checks walk C x C row by row in serial_key order, but only the first
# row of each class unless that row holds a witness.  A reference walk over
# every pair, built here on the elements themselves, must give the same
# witnesses, `pairs` and commutator image.

def _reference_walk(C, step):
    """Row-major over all pairs of C's elements in serial_key order, stopped
    at the MAX_WITNESSES-th witness: (witnesses, pairs walked)."""
    els = sorted(C.elements, key=serial_key)
    witnesses, pairs = [], 0
    for a, b in itertools.product(els, repeat=2):
        pairs += 1
        w = step(a, b)
        if w:
            witnesses.append(w)
            if len(witnesses) == MAX_WITNESSES:
                break
    return witnesses, pairs


def _reference_comm_closed(C):
    els, image = C.elements, set()

    def step(a, b):
        k = commutator(a, b)
        image.add(k)
        if not (k.is_identity() or k in els):
            return {"c": serialize_element(a), "d": serialize_element(b),
                    "commutator": serialize_element(k)}
    witnesses, pairs = _reference_walk(C, step)
    return witnesses, pairs, None if witnesses else len(image)


def _reference_cc_inverse(C, p):
    def step(a, b):
        x = a * inverse(b)
        m = element_order(x)
        if not is_p_power(m, p):
            return {"c": serialize_element(a), "d": serialize_element(b),
                    "product": serialize_element(x), "product_order": m}
    return _reference_walk(C, step) + (None,)


def _walked(v):
    return v.witnesses, v.counters["pairs"], v.counters.get("image_size")


def _assert_matches_reference(v, ref):
    assert v.status == ("fails" if ref[0] else "holds")
    assert not v.sampled
    assert _walked(v) == ref


def _normal_sets(G, p):
    """Each p-class of G, every pair of them, and all of them at once."""
    pcs = [c for c in enumerate_classes(G) if is_p_power(c.order, p)]
    return ([[c] for c in pcs] + [list(s) for s in itertools.combinations(pcs, 2)]
            + [pcs])


@pytest.mark.parametrize("name", ["alt:5", "sym:4", "dihedral:8", "q8",
                                  "gl:2:3", "wreath:3"])
def test_normal_set_walk_matches_the_reference_walk(name):
    G = construct(name)
    for p in factorize(G.order()):
        for S in _normal_sets(G, p):
            C = NormalSet(S)
            _assert_matches_reference(commutator_closed_check(G, C, p),
                                      _reference_comm_closed(C))
            _assert_matches_reference(cc_inverse_check(C, p),
                                      _reference_cc_inverse(C, p))


def test_cc_inverse_on_a_625_element_class_matches_the_reference_walk():
    G = construct("wreath:5")
    enumerate_classes(G)
    C = NormalSet([cls_of(G, "5xe")])
    v = cc_inverse_check(C, 5)
    assert (v.status, v.counters["pairs"]) == ("holds", 625 * 625)
    _assert_matches_reference(v, _reference_cc_inverse(C, 5))


@pytest.mark.parametrize("name, labels, p", [("gl:2:3", ("2a", "4a"), 2),
                                             ("wreath:3", ("3i", "3j"), 3)])
@pytest.mark.parametrize("check, patched", [
    (lambda G, C, p: commutator_closed_check(G, C, p), "commutator"),
    (lambda G, C, p: cc_inverse_check(C, p), "element_order")])
def test_holding_set_walks_one_row_per_class(monkeypatch, name, labels, p,
                                              check, patched):
    G = construct(name)
    enumerate_classes(G)
    C = NormalSet([cls_of(G, label) for label in labels])
    calls = []
    real = getattr(verify, patched)
    monkeypatch.setattr(verify, patched,
                        lambda *args: calls.append(args) or real(*args))
    v = check(G, C, p)
    n = len(C.elements)
    assert (v.status, v.counters["pairs"]) == ("holds", n * n)
    assert len(calls) == len(labels) * n


def _perm(*images):
    return {"images": list(images), "kind": "perm"}


# 4b of alt:8 has 2520 elements; both checks fail on the first row.
ALT8_4B_C = _perm(0, 1, 3, 2, 5, 6, 7, 4)
ALT8_4B_DS = [_perm(0, 1, 3, 2, 5, 7, 4, 6), _perm(0, 1, 3, 2, 6, 4, 7, 5),
              _perm(0, 1, 3, 2, 6, 7, 5, 4)]
ALT8_4B_COMMUTATORS = [_perm(0, 1, 2, 3, 6, 5, 7, 4),
                       _perm(0, 1, 2, 3, 5, 6, 4, 7),
                       _perm(0, 1, 2, 3, 4, 6, 7, 5)]
ALT8_4B_PRODUCTS = [(_perm(0, 1, 2, 3, 7, 5, 4, 6), 3),
                    (_perm(0, 1, 2, 3, 6, 4, 5, 7), 3),
                    (_perm(0, 1, 2, 3, 4, 7, 5, 6), 3)]


def _verdict(v):
    d = v.to_json()
    d.pop("seconds")
    return d


def test_alt8_4b_normal_set_verdicts_exact():
    G = construct("alt:8")
    enumerate_classes(G)
    c = cls_of(G, "4b")
    assert c.size == 2520
    C = NormalSet([c])
    comm = commutator_closed_check(G, c, 2)
    assert _verdict(comm) == {
        "scenario": "comm-closed:alt:8,C=4b,p=2", "status": "fails",
        "sampled": False, "counters": {"pairs": 4, "set_size": 2520},
        "witnesses": [{"c": ALT8_4B_C, "d": d, "commutator": k}
                      for d, k in zip(ALT8_4B_DS, ALT8_4B_COMMUTATORS)],
        "notes": ["C is not closed under squares",
                  "C is closed under inverses"]}
    prod = cc_inverse_check(c, 2)
    assert _verdict(prod) == {
        "scenario": "cc-inverse:alt:8,C=4b,p=2", "status": "fails",
        "sampled": False, "counters": {"pairs": 4, "set_size": 2520},
        "witnesses": [{"c": ALT8_4B_C, "d": d, "product": x,
                       "product_order": m}
                      for d, (x, m) in zip(ALT8_4B_DS, ALT8_4B_PRODUCTS)],
        "notes": []}
    assert _walked(comm) == _reference_comm_closed(C)
    assert _walked(prod) == _reference_cc_inverse(C, 2)
    assert all(replay_commutator_witness(w, C) for w in comm.witnesses)
    assert all(replay_product_witness(w, 2) for w in prod.witnesses)


# ---- l2q_trace_identity ----------------------------------------------------

# q -> number of t with trace != t+3; the shortfall from q counts the roots
# of 4t^2 - t - 1 in GF(q)
TRACE_MISMATCHES = {3: 3, 5: 5, 7: 7, 9: 7, 11: 11, 13: 11}


@pytest.mark.parametrize("q", sorted(TRACE_MISMATCHES))
def test_trace_identity_observed_shape(q):
    v = l2q_trace_identity(q)
    assert v.status == "fails"
    assert v.counters["mismatches"] == TRACE_MISMATCHES[q]
    assert "observed trace equals 4*t^2 + 2 at every t" in v.notes
    F = GF(q)
    for w in v.witnesses:
        t = w["t"]
        alt = F.add(F.mul(F.encode_int(4), F.mul(t, t)), F.encode_int(2))
        assert w["trace"] == alt
        assert w["expected"] == F.add(t, F.encode_int(3))
        assert w["trace"] != w["expected"]


def test_trace_identity_even_q_rejected():
    with pytest.raises(ValueError):
        l2q_trace_identity(4)


# ---- l2q_laurent_scan ------------------------------------------------------

def test_laurent_scan_holds_at_11_and_13():
    for q in (11, 13):
        v = l2q_laurent_scan(q, samples=50)
        assert v.status == "holds"
        assert v.counters["max_degree"] <= 8
        assert v.counters["points_per_x"] == q - 1
        assert v.sampled


def test_laurent_profile_central_and_diagonal():
    F = GF(11)
    neg_i = SquareMatrix.identity(F, 2).scale(F.neg(1))
    poly, deg = l2q_laurent_profile(11, neg_i)
    assert deg == 4  # constant trace 2, cleared by s^4
    assert poly[4] == F.encode_int(2)
    diag = SquareMatrix.diagonal(F, (2, F.inv(2)))
    poly, deg = l2q_laurent_profile(11, diag)
    assert deg == 4 and poly[4] == F.encode_int(2)


def test_laurent_scan_small_q_rejected():
    with pytest.raises(ValueError):
        l2q_laurent_scan(7)


def _eval_poly(F, poly, x):
    acc = 0
    for c in reversed(poly):
        acc = F.add(F.mul(acc, x), c)
    return acc


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_interpolation_reproduces_its_points(seed):
    import random
    rng = random.Random(seed)
    F = GF(13)
    xs = rng.sample(range(13), rng.randint(2, 10))
    ys = [rng.randrange(13) for _ in xs]
    poly = _interpolate(F, xs, ys)
    assert len(poly) == len(xs)
    for x, y in zip(xs, ys):
        assert _eval_poly(F, poly, x) == y


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_laurent_degree_bound_is_universal(seed):
    import random
    from bfl.verify import _random_sl2
    rng = random.Random(seed)
    for q in (11, 13):
        x = _random_sl2(GF(q), rng)
        _, deg = l2q_laurent_profile(q, x)
        assert deg <= 8


# ---- inversion_identity_scan -----------------------------------------------

def test_identity_scan_permutation_group():
    v = inversion_identity_scan(construct("sym:6"), ScanPlan.sample(300, 0xBF))
    assert v.status == "holds"
    assert v.counters["inversion_checks"] > 0


def test_identity_scan_matrix_group():
    v = inversion_identity_scan(construct("gl:2:3"), ScanPlan.sample(300, 0xBF))
    assert v.status == "holds"
    assert v.counters["inversion_checks"] > 0


def test_identity_scan_no_involutions_noted():
    v = inversion_identity_scan(construct("cyclic:5"), ScanPlan.sample(50, 1))
    assert v.status == "holds"
    assert v.counters["inversion_checks"] == 0
    assert any("no involutions" in n for n in v.notes)


# ---- symmetric_bf_scan -----------------------------------------------------

def test_sym_scan_6_exact_pair():
    v = symmetric_bf_scan(6)
    assert v.status == "holds"
    assert not v.sampled
    assert "expected pair: (2a, 2b)" in v.notes
    assert v.notes.count("pair (2a, 2b): holds") == 1
    assert sum(1 for n in v.notes if n.endswith(": holds")) == 1
    assert v.counters["class_pairs"] == 6


def test_sym_scan_8_exact_pair():
    v = symmetric_bf_scan(8)
    assert v.status == "holds"
    assert v.counters["class_pairs"] == 10
    assert sum(1 for n in v.notes if n.endswith(": holds")) == 1


def test_sym_scan_10_sampled():
    plan = ScanPlan.sample(25, 0xBF)
    v = symmetric_bf_scan(10, plan)
    assert v.status == "holds"
    assert v.display_status == "holds (sampled)"
    assert v.counters["class_pairs"] == 15
    assert core(v) == core(symmetric_bf_scan(10, plan))


def test_sym_scan_bad_n_rejected():
    for n in (5, 4, 12, 7):
        with pytest.raises(ValueError):
            symmetric_bf_scan(n)


# ---- reflections_o3_scan ---------------------------------------------------

def test_o3_scan_dichotomy():
    assert reflections_o3_scan(3).status == "holds"
    for q in (5, 7, 9):
        v = reflections_o3_scan(q)
        assert v.status == "fails"
        for w in v.witnesses:
            assert replay_pair_witness(w, 2)


def test_o3_scan_reports_the_two_classes():
    v = reflections_o3_scan(3)
    assert v.notes[0].startswith("reflection classes: ")
    assert v.counters["pairs"] == 3  # the smaller reflection class


def test_o3_scan_bad_q_rejected():
    with pytest.raises(ValueError):
        reflections_o3_scan(4)


# ---- sl2n3_scan ------------------------------------------------------------

def test_sl2n3_identity_conjugate_is_a_2_group():
    from bfl.groups import Group, image_kernel
    c = special_element("gl:4:3", "pm_i_element")
    d = special_element("gl:4:3", "reflection")
    assert element_order(c) == 4 and element_order(d) == 2
    assert is_p_power(Group([c, d]).order(), 2)


def test_sl2n3_sampled_scan_holds():
    plan = ScanPlan.sample(60, 0xBF)
    v = sl2n3_scan(plan)
    assert v.status == "holds"
    assert v.display_status == "holds (sampled)"
    assert v.counters["closures"] == 60
    assert core(v) == core(sl2n3_scan(plan))


def test_sl2n3_probe_surfaces_a_non_2_group():
    v = sl2n3_scan(ScanPlan.sample(60, 0xBF))
    probe = [n for n in v.notes if n.startswith("probe:")]
    assert len(probe) == 1
    assert "non-2-group closure of order 48" in probe[0]


def test_sl2n3_probe_witness_replays():
    import json
    v = sl2n3_scan(ScanPlan.sample(60, 0xBF))
    note = next(n for n in v.notes if n.startswith("probe:"))
    blob = note[note.index("{"):]
    dp = deserialize_element(json.loads(blob))
    from bfl.groups import Group, image_kernel
    c = special_element("gl:4:3", "pm_i_element")
    assert not is_p_power(Group([c, dp]).order(), 2)


# ---- witness invariants ----------------------------------------------------

def test_every_fails_witness_replays(a5):
    five = cls_of(a5, "5a")
    checks = [
        (bf_pair_direct(a5, five, five, 5, ScanPlan.exhaustive()),
         lambda w: replay_pair_witness(w, 5)),
        (cc_inverse_check(five, 5), lambda w: replay_product_witness(w, 5)),
        (commutator_closed_check(a5, cls_of(a5, "2a"), 2),
         lambda w: replay_commutator_witness(w, NormalSet([cls_of(a5, "2a")]))),
    ]
    for v, replay in checks:
        assert v.status == "fails"
        assert v.witnesses and all(replay(w) for w in v.witnesses)


def test_commutator_swap_identity_by_hand():
    # the identity the scan relies on, checked once directly
    x = Permutation.from_cycles(6, [(0, 1, 2)])
    y = Permutation.from_cycles(6, [(1, 3), (2, 4)])
    assert (commutator(x, y) * commutator(y, x)).is_identity()


def test_exhaustive_scan_past_the_class_cap_is_indeterminate(monkeypatch):
    # an element d on a fresh group has no cached class: the exhaustive plan
    # enumerates it, and a class past the cap answers indeterminate
    monkeypatch.setattr(classes, "CLOSURE_CAP", 10)
    G = construct("sym:6")
    c = Permutation.from_cycles(6, [(0, 1)])
    d = Permutation.from_cycles(6, [(2, 3)])
    v = bf_pair_direct(G, c, d, 2, ScanPlan.exhaustive())
    assert v.status == "indeterminate" and not v.sampled
    assert v.notes == ["class enumeration overflowed (class exceeds cap 10); "
                       "use a sampled plan"]
    assert v.witnesses == [] and v.counters == {} and v.seconds > 0
