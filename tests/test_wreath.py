"""The wreath model, isomorphism test, and section search."""

import hashlib
import json
import random
import time
from collections import Counter
from functools import partial, reduce
from itertools import product

import pytest

from bfl.battery import standard_battery
from bfl.catalog import construct
from bfl.elements import Permutation
from bfl.groups import Group, orbit
from bfl.smallgroup import (SmallGroup, normal_subgroups, quotient,
                            two_generated)
from bfl.wreath import (_maps_onto_wreath, build_wreath, iso_to_wreath,
                        wreath_section_detect, reconstruct_section,
                        SectionVerdict)


def small(name):
    return SmallGroup.from_group(construct(name), name=name)


def wreath_small(p):
    return SmallGroup.from_group(build_wreath(p).group)


def cycles(*lengths):
    """The direct product of cyclic groups, one disjoint cycle each."""
    n, gens = sum(lengths), []
    for k, m in enumerate(lengths):
        start = sum(lengths[:k])
        gens.append(Permutation.from_cycles(n, [tuple(range(start,
                                                          start + m))]))
    return Group(gens)


def regular(law, gens):
    """The left-regular permutation group of <gens> under the product law."""
    elements = list(orbit(gens, [partial(law, g) for g in gens]))
    index = {x: i for i, x in enumerate(elements)}
    return Group([Permutation([index[law(g, x)] for x in elements])
                  for g in gens])


def semidirect(mods, act, c=None):
    """The words n t^k, n in N = Z_mods (additive) and k mod 3, with t acting
    on N as act and t^3 = c, a fixed point of act (0 by default), as a
    regular permutation group."""
    zero = (0,) * len(mods)
    c = c or zero

    def plus(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, mods))

    def law(a, b):
        (n, k), (m, l) = a, b
        for _ in range(k):
            m = act(m)
        return plus(plus(n, m), c if k + l >= 3 else zero), (k + l) % 3
    basis = [tuple(int(i == j) for j in range(len(mods)))
             for i in range(len(mods))]
    return regular(law, [(e, 0) for e in basis] + [(zero, 1)])


def test_model_orders_and_invariants():
    # the constructor itself asserts order and derived subgroup
    assert build_wreath(2).group.order() == 8
    assert build_wreath(3).group.order() == 81
    assert build_wreath(5).group.order() == 15625
    assert build_wreath(5) is build_wreath(5)  # built and checked once per p
    for p in (2, 3, 5):
        G = build_wreath(p).group
        base, top = G.gens
        center = sum(1 for x in map(Permutation, G.chain.raw_elements())
                     if x * base == base * x and x * top == top * x)
        assert center == p


def test_build_rejects_other_primes():
    with pytest.raises(ValueError):
        build_wreath(7)
    with pytest.raises(ValueError):
        build_wreath(4)


def test_model_two_is_dihedral():
    W = wreath_small(2)
    assert Counter(map(W.element_order, range(W.order))) == {1: 1, 2: 5, 4: 2}


def test_iso_accepts_the_models():
    assert iso_to_wreath(build_wreath(2).group, 2)
    assert iso_to_wreath(build_wreath(3).group, 3)


def test_iso_accepts_the_model_p5():
    assert iso_to_wreath(build_wreath(5).group, 5)


def test_iso_accepts_dihedral_eight():
    assert iso_to_wreath(small("dihedral:8"), 2)


def test_iso_rejects_lookalikes():
    assert not iso_to_wreath(small("cyclic:8"), 2)
    assert not iso_to_wreath(small("q8"), 2)
    assert not iso_to_wreath(small("cyclic:9"), 3)


def test_iso_rejects_order81_nonmodels():
    from bfl.elements import Permutation

    def elem_abelian(k, copies):
        gens = [Permutation.from_cycles(3 * copies,
                                        [tuple(range(3 * i, 3 * i + 3))])
                for i in range(copies)]
        return SmallGroup.generate(gens, Permutation.identity(3 * copies))

    assert not iso_to_wreath(elem_abelian(3, 4), 3)  # exponent 3, abelian
    z9 = Permutation.from_cycles(18, [tuple(range(9))])
    z9b = Permutation.from_cycles(18, [tuple(range(9, 18))])
    zz = SmallGroup.generate([z9, z9b], Permutation.identity(18))
    assert zz.order == 81
    assert not iso_to_wreath(zz, 3)  # abelian of the right order and exponent


def test_detect_dihedral_quotient_tier():
    d8 = small("dihedral:8")
    v = wreath_section_detect(d8, 2)
    assert v.found and v.tier == "quotient"
    assert v.witness["normal"] == [0]
    assert reconstruct_section(d8, v.witness, 2)


def test_detect_dihedral_full_tier():
    d8 = small("dihedral:8")
    v = wreath_section_detect(d8, 2, tier="full")
    assert v.found and v.tier == "full"
    assert reconstruct_section(d8, v.witness, 2)


def test_detect_quaternion_none():
    q8 = small("q8")
    assert not wreath_section_detect(q8, 2).found
    v = wreath_section_detect(q8, 2, tier="full")
    assert not v.found and v.tier == "full"


def test_detect_model3_as_its_own_quotient():
    w3 = wreath_small(3)
    v = wreath_section_detect(w3, 3)
    assert v.found and v.tier == "quotient"
    assert v.witness["normal"] == [0]
    assert reconstruct_section(w3, v.witness, 3)


def test_detect_dihedral16_proper_quotient():
    d16 = small("dihedral:16")
    v = wreath_section_detect(d16, 2)
    assert v.found and v.tier == "quotient"
    assert len(v.witness["normal"]) == 2  # kill the center, keep a D8
    assert reconstruct_section(d16, v.witness, 2)
    v = wreath_section_detect(d16, 2, tier="full")
    assert v.found and reconstruct_section(d16, v.witness, 2)


def test_detect_cyclic_none_both_tiers():
    z16 = small("cyclic:16")
    assert not wreath_section_detect(z16, 2).found
    assert not wreath_section_detect(z16, 2, tier="full").found


def test_full_tier_witness_on_proper_subgroup():
    # D8 x Z2: the section sits inside a proper subgroup after one quotient
    from bfl.elements import Permutation
    r = Permutation.from_cycles(6, [(0, 1, 2, 3)])
    s = Permutation.from_cycles(6, [(0, 2)])
    z = Permutation.from_cycles(6, [(4, 5)])
    G = SmallGroup.generate([r, s, z], Permutation.identity(6))
    assert G.order == 16
    v = wreath_section_detect(G, 2, tier="full")
    assert v.found
    assert len(v.witness["subgroup"]) == 8  # found inside a proper subgroup
    assert reconstruct_section(G, v.witness, 2)


def test_caps_give_indeterminate():
    z5 = small("cyclic:5")
    v = wreath_section_detect(z5, 5, tier="full")
    assert v.tier == "indeterminate" and not v.found
    assert "p=2,3" in v.note


def test_quotient_cap_indeterminate():
    # a Group: the caps are read before indexing
    big = cycles(*[2] * 12)
    assert big.order() == 4096
    v = wreath_section_detect(big, 2)
    assert v.tier == "indeterminate"
    assert "exceeds the quotient-tier cap" in v.note


def test_full_tier_cap_indeterminate():
    big = cycles(*[3] * 7)
    assert big.order() == 2187
    v = wreath_section_detect(big, 3, tier="full")
    assert v.tier == "indeterminate"
    assert "exceeds the full-tier cap" in v.note


def test_input_validation():
    with pytest.raises(ValueError):
        wreath_section_detect(small("dihedral:8"), 2, tier="middle")
    with pytest.raises(ValueError):
        wreath_section_detect(small("sym:3"), 2)  # not a 2-group
    with pytest.raises(ValueError):
        SectionVerdict(True, "quotient")  # found needs a witness


# verdicts of the order, invariant and pair-extension search that the
# presentation search replaced, captured on the same inputs
ORDER_8 = [
    (lambda: construct("cyclic:8"), False),
    (lambda: cycles(4, 2), False),
    (lambda: cycles(2, 2, 2), False),
    (lambda: construct("dihedral:8"), True),
    (lambda: construct("q8"), False),
]


def _j3(n):
    return (n[0] + n[1]) % 3, (n[1] + n[2]) % 3, n[2]


ORDER_81 = [
    # C9 x| C9, y^-1 x y = x^4: 2-generated, exponent 9, no order-3
    # element outside the Frattini subgroup
    (lambda: regular(lambda a, b: ((a[0] + pow(4, a[1], 9) * b[0]) % 9,
                                   (a[1] + b[1]) % 9), [(1, 0), (0, 1)]),
     False),
    # (C9 x C3) x| C3, t: u -> u v, v -> u^6 v: passes every screen, and
    # the search tries all 4 classes x against all 54 y
    (lambda: semidirect((9, 3), lambda n: ((n[0] + 6 * n[1]) % 9,
                                           (n[0] + n[1]) % 3)), False),
    # C3 x Heis(27): three generators, |H : Phi(H)| = 27
    (lambda: semidirect((3, 3, 3), lambda n: ((n[0] + n[1]) % 3, n[1], n[2])),
     False),
    (lambda: cycles(27, 3), False),  # abelian, exponent 27
    # C3^3 . C3 with t acting as a Jordan block and t^3 = (1, 0, 0) a fixed
    # vector: not split on that t, still the model
    (lambda: semidirect((3, 3, 3), _j3, c=(1, 0, 0)), True),
    (lambda: semidirect((3, 3, 3), _j3), True),
]


@pytest.mark.parametrize("p, cases", [(2, ORDER_8), (3, ORDER_81)])
def test_iso_verdicts_at_order_p_p1(p, cases):
    for make, want in cases:
        G = make()
        assert G.order() == p ** (p + 1)
        assert iso_to_wreath(G, p) is want, G
        assert iso_to_wreath(SmallGroup.from_group(G), p) is want, G


def test_iso_p5_frattini_screen_rejects_without_enumerating():
    def unread(*args):
        pytest.fail("elements enumerated")
        yield

    G = cycles(*[5] * 6)  # order 5^6, Phi(G) = 1
    G.chain.raw_elements = unread
    t0 = time.perf_counter()
    assert not iso_to_wreath(G, 5)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_iso_input_kinds_agree(p):
    W = build_wreath(p).group
    assert iso_to_wreath(W, p) is True
    if p < 5:  # W5 has 15,625 elements, past ORDER_CAP
        assert iso_to_wreath(wreath_small(p), p) is True


@pytest.mark.parametrize("tier", ["quotient", "full"])
def test_detect_group_input_matches_indexed(tier):
    G = construct("dihedral:16")
    v = wreath_section_detect(G, 2, tier=tier)
    assert v.witness == wreath_section_detect(small("dihedral:16"), 2,
                                              tier=tier).witness
    assert reconstruct_section(G, v.witness, 2)


def test_caps_read_before_indexing():
    G = cycles(*[3] * 10)  # order 3^10, far past every cap
    t0 = time.perf_counter()
    assert G.order() == 3 ** 10
    for tier in ("quotient", "full"):
        v = wreath_section_detect(G, 3, tier=tier)
        assert v.tier == "indeterminate" and "exceeds the" in v.note
    assert iso_to_wreath(G, 3) is False
    assert time.perf_counter() - t0 < 1.0


# each of these used to raise or, for the repeated identity, replay True
BAD_D8_WITNESSES = [
    ("not closed", [0, 1, 2], [0]),
    ("repeated", [0] * 8, [0]),
    ("out of range", [0, 9], [0]),
    ("negative", [0, -1], [0]),
    ("normal out of range", list(range(8)), [0, 9]),
    ("normal leaves the subgroup", [0, 1, 3, 6], [0, 2]),
    ("normal not a subgroup", list(range(8)), [0, 1]),
    ("normal not normal", list(range(8)), [0, 2]),
    ("not an integer", [0, 1.5], [0]),
    ("a string", [0, "a"], [0]),
    ("normal not an integer", list(range(8)), [0, [1]]),
]


@pytest.mark.parametrize("subgroup, normal",
                         [case[1:] for case in BAD_D8_WITNESSES],
                         ids=[case[0] for case in BAD_D8_WITNESSES])
def test_reconstruct_rejects_bad_witnesses(subgroup, normal):
    d8 = small("dihedral:8")
    assert d8.element_order(1) == 4 and sorted(d8.closure([1])) == [0, 1, 3, 6]
    assert reconstruct_section(d8, {"subgroup": subgroup, "normal": normal},
                               2) is False


def _perms(n, *cycle_lists):
    return Group([Permutation.from_cycles(n, list(c)) for c in cycle_lists])


# full-tier witnesses captured while the tier still walked every subgroup:
# (group, p, order, subgroup size, subgroup, or its digest, normal)
FULL_TIER_WITNESSES = [
    ("sylow2-s8", lambda: _perms(8, [(0, 1)], [(2, 3)], [(0, 2), (1, 3)],
                                 [(4, 5)], [(6, 7)], [(4, 6), (5, 7)],
                                 [(0, 4), (1, 5), (2, 6), (3, 7)]),
     2, 128, [0, 1, 2, 3, 8, 9, 14, 29], [0]),
    ("d8xd8", lambda: _perms(8, [(0, 1, 2, 3)], [(0, 2)], [(4, 5, 6, 7)],
                             [(4, 6)]),
     2, 64, [0, 1, 2, 5, 6, 9, 15, 16], [0]),
    ("sylow3-s9xz3", lambda: _perms(12, [(0, 1, 2)], [(3, 4, 5)],
                                    [(6, 7, 8)],
                                    [(0, 3, 6), (1, 4, 7), (2, 5, 8)],
                                    [(9, 10, 11)]),
     3, 243, "b4aa2e44937f15dd", [0]),
]


@pytest.mark.parametrize("make, p, order, subgroup, normal",
                         [pin[1:] for pin in FULL_TIER_WITNESSES],
                         ids=[pin[0] for pin in FULL_TIER_WITNESSES])
def test_full_tier_witnesses_pinned(make, p, order, subgroup, normal):
    G = make()
    assert G.order() == order
    v = wreath_section_detect(G, p, tier="full")
    assert v.found and v.tier == "full"
    got = v.witness["subgroup"]
    if isinstance(subgroup, str):
        assert len(got) == p ** (p + 1)
        got = hashlib.sha256(json.dumps(got).encode()).hexdigest()[:16]
    assert (got, v.witness["normal"]) == (subgroup, normal)
    assert reconstruct_section(G, v.witness, p)


def test_full_tier_elementary_abelian_is_quick():
    # (Z2)^6 has 2825 subgroups, but the tier closes only the 2080 pairs of
    # its 64 cyclic subgroups, each closure of order at most 4
    G = cycles(*[2] * 6)
    t0 = time.perf_counter()
    v = wreath_section_detect(G, 2, tier="full")
    assert not v.found and v.tier == "full"
    assert time.perf_counter() - t0 < 5.0


def pair_search(W, p):
    """The presentation search iso_to_wreath ran before the module test, on
    a SmallGroup W of order p^(p+1): screens on the Frattini index and the
    exponent, then an order-p pair x, y that generates and has
    [x, x^(y^i)] = 1 for 1 <= i <= p/2."""
    one, mul, inv = 0, W.mul, W.inv

    def power(x, k):
        return reduce(mul, [x] * k, one)

    conj = [lambda x, g=g, gi=inv(g): mul(mul(gi, x), g) for g in W.gens]
    seeds = {power(g, p) for g in W.gens}
    seeds.update(mul(inv(mul(b, a)), mul(a, b)) for a in W.gens
                 for b in W.gens)
    seeds.discard(one)
    phi = orbit([one], [partial(mul, s) for s in seeds] + conj)
    if len(phi) != p ** (p - 1):
        return False
    coset, cands, top = {}, [], 1
    for h in range(W.order):
        o = W.element_order(h)
        top = max(top, o)
        if h not in coset:
            coset.update((mul(h, f), h) for f in phi)
        if o == p:
            cands.append(h)
    if top != p * p:
        return False
    tried = set()
    for x in cands:
        if x in phi or x in tried:
            continue
        tried.update(orbit([x], conj))
        span = {coset[power(x, k)] for k in range(p)}
        for y in cands:
            if coset[y] in span:
                continue
            yi, c = inv(y), x
            for _ in range(p // 2):
                c = mul(mul(yi, c), y)
                if mul(x, c) != mul(c, x):
                    break
            else:
                return True
    return False


def quotient_scan(Q, H, p):
    """Whether the subgroup H of Q has the model as a quotient, decided as
    the section search did before the module test: every normal subgroup of
    index p^(p+1), each quotient put to the pair search."""
    S = Q.induced(H)
    return any(S.order // len(N) == p ** (p + 1)
               and pair_search(quotient(S, N), p)
               for N in normal_subgroups(S))


def test_module_test_agrees_with_the_quotient_scan_on_w3():
    W3 = wreath_small(3)
    subgroups = two_generated(W3)
    assert len(subgroups) == 49
    found = [H for H, gens in subgroups.items()
             if _maps_onto_wreath(W3, gens, len(H), 3)]
    assert found == [H for H in subgroups if quotient_scan(W3, H, 3)]
    assert found == [frozenset(range(81))]


@pytest.mark.parametrize("make, p", [pin[1:3] for pin in FULL_TIER_WITNESSES],
                         ids=[pin[0] for pin in FULL_TIER_WITNESSES])
def test_module_test_agrees_with_the_quotient_scan_on_random_subgroups(make,
                                                                       p):
    # pairs for the full tier's candidates, triples for the per-maximal
    # subgroup form on more than two generators
    Q = SmallGroup.from_group(make())
    rng = random.Random(25)
    verdicts = Counter()
    for k in [2] * 10 + [3] * 4:
        gens = [rng.randrange(1, Q.order) for _ in range(k)]
        H = Q.closure(gens)
        want = quotient_scan(Q, H, p)
        assert _maps_onto_wreath(Q, gens, len(H), p) is want, gens
        verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def ut4_3():
    """UT(4,3), the unitriangular 4x4 matrices over F_3, acting on the 81
    vectors of F_3^4, numbered in base 3."""
    vectors = list(product(range(3), repeat=4))
    index = {v: i for i, v in enumerate(vectors)}

    def transvection(i):  # e_(i+1) -> e_(i+1) + e_i
        def image(v):
            w = list(v)
            w[i] = (w[i] + w[i + 1]) % 3
            return index[tuple(w)]
        return Permutation([image(v) for v in vectors])
    return Group([transvection(i) for i in range(3)])


def test_ut4_3_has_a_w3_section_but_no_w3_quotient():
    G = ut4_3()
    assert G.order() == 3 ** 6
    Q = SmallGroup.from_group(G)
    assert not _maps_onto_wreath(Q, Q.gens, Q.order, 3)
    assert not wreath_section_detect(Q, 3).found
    v = wreath_section_detect(Q, 3, tier="full")
    assert v.found and reconstruct_section(Q, v.witness, 3)
    # the witness the quotient scan picked before the module test: a
    # subgroup that is the model itself
    got = json.dumps(v.witness["subgroup"]).encode()
    assert hashlib.sha256(got).hexdigest()[:16] == "b81dcce2944035ac"
    assert v.witness["normal"] == [0]


@pytest.mark.parametrize("make", [lambda: small("dihedral:8"),
                                  lambda: SmallGroup.from_group(
                                      cycles(*[3] * 6))])
def test_left_is_the_product(make):
    S = make()
    for g in range(0, S.order, S.order // 8 + 1):
        left, ref = S.left(g), partial(S.mul, g)
        assert [left(x) for x in range(S.order)] == list(
            map(ref, range(S.order)))


def pair_loop_full_tier(Q, p):
    """(found, witness) of the full tier by the two_generated loop over
    every 2-generated subgroup, whatever the order of Q."""
    target = p ** (p + 1)
    for H, gens in two_generated(Q).items():
        if len(H) % target or not _maps_onto_wreath(Q, gens, len(H), p):
            continue
        S = Q if len(H) == Q.order else Q.induced(H)
        N = next(N for N in normal_subgroups(S)
                 if S.order // len(N) == target
                 and iso_to_wreath(quotient(S, N), p))
        members = sorted(H)
        return True, {"subgroup": members,
                      "normal": sorted(members[i] for i in N)}
    return False, None


def test_full_tier_at_the_model_order_is_the_pair_loop():
    groups = [(small("dihedral:8"), 2), (small("q8"), 2), (wreath_small(3), 3)]
    groups += [(c["group"], c["p"]) for c in standard_battery()
               if c["group"].order == c["p"] ** (c["p"] + 1)]
    assert len(groups) > 10
    assert {found for found, _ in (pair_loop_full_tier(Q, p)
                                   for Q, p in groups)} == {True, False}
    for Q, p in groups:
        v = wreath_section_detect(Q, p, tier="full")
        assert v.tier == "full"
        assert (v.found, v.witness) == pair_loop_full_tier(Q, p), Q


def w3_times(copies):
    """W3 on points 0-8 times (Z3)^copies, one 3-cycle each on the points
    from 9 on."""
    n = 9 + 3 * copies
    gens = [Permutation(list(g.images) + list(range(9, n)))
            for g in build_wreath(3).group.gens]
    gens += [Permutation.from_cycles(n, [(a, a + 1, a + 2)])
             for a in range(9, n, 3)]
    return Group(gens)


def test_bounded_normal_subgroups_are_the_filtered_lattice():
    S = SmallGroup.from_group(w3_times(1))
    assert S.order == 243
    lattice = normal_subgroups(S)
    for order in (1, 3, 9, 27, 81, 243):
        assert normal_subgroups(S, order) == [N for N in lattice
                                              if len(N) <= order]


def test_quotient_tier_on_w3_times_z3_cubed():
    # order 2187, the quotient tier's cap: only the normal subgroups of
    # order at most 27 are built, and one of order 27 has W3 as quotient
    S = SmallGroup.from_group(w3_times(3))
    assert S.order == 3 ** 7
    v = wreath_section_detect(S, 3)
    assert v.found and v.tier == "quotient"
    assert v.witness["subgroup"] == list(range(S.order))
    N = v.witness["normal"]
    assert len(N) == 27 and S.normal_closure(N) == frozenset(N)
    assert iso_to_wreath(quotient(S, N), 3)
