"""Indexed group arithmetic: tables, subgroup lattices, quotients."""

import hashlib
import json
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bfl.battery import _heis
from bfl.catalog import construct
from bfl.elements import Overflow, Permutation, identity_like
from bfl.fields import GF
from bfl import smallgroup
from bfl.smallgroup import (SmallGroup, group_order, normal_subgroups,
                            quotient, two_generated)
from bfl.wreath import build_wreath


def small(name):
    return SmallGroup.from_group(construct(name), name=name)


def wreath_small(p):
    return SmallGroup.from_group(build_wreath(p).group)


def heis27():
    mats = _heis(GF(4))
    return SmallGroup.generate(mats, identity_like(mats[0]), name="heis-27")


def element_order(S, i):
    """The size of the cyclic subgroup element i generates."""
    return len(S.closure([i]))


def order_histogram(S):
    return Counter(element_order(S, i) for i in range(S.order))


def derived(S):
    """The commutator subgroup: the normal closure of the generators'
    commutators."""
    mul, inv = S.mul, S.inv
    return S.normal_closure({mul(mul(inv(a), inv(b)), mul(a, b))
                             for a in S.gens for b in S.gens})


def breadth_first_tree(S):
    """Each element's (generator position, parent) in generate()'s
    breadth-first closure, read off the table: the first parent, then the
    first generator, whose product reaches it (S.gens are generate()'s raw
    generators when those are distinct and not the identity)."""
    out = [None] * S.order
    for parent in range(S.order):
        for pos, g in enumerate(S.gens):
            i = S.mul(g, parent)
            if i and out[i] is None:
                out[i] = (pos, parent)
    return out


def center_of(S):
    """The singleton classes."""
    return frozenset(i for c in S.class_partition() if len(c) == 1 for i in c)


@pytest.fixture(scope="module")
def s4():
    return small("sym:4")


def test_identity_is_index_zero(s4):
    assert s4.elements[0] == Permutation.identity(4)
    assert s4.order == 24
    assert s4.table is not None


def test_mul_matches_underlying_elements(s4):
    for i in (0, 1, 5, 17, 23):
        for j in (0, 2, 7, 23):
            prod = s4.elements[i] * s4.elements[j]
            assert s4.elements[s4.mul(i, j)] == prod


@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23))
def test_associativity_and_inverse(i, j, k):
    G = test_associativity_and_inverse.group
    assert G.mul(G.mul(i, j), k) == G.mul(i, G.mul(j, k))
    assert G.mul(i, G.inv(i)) == 0


test_associativity_and_inverse.group = small("sym:4")


def test_element_orders(s4):
    hist = order_histogram(s4)
    assert hist == {1: 1, 2: 9, 3: 8, 4: 6}
    assert math.lcm(*hist) == 12


def test_class_partition_sizes(s4):
    sizes = sorted(len(c) for c in s4.class_partition())
    assert sizes == [1, 3, 6, 6, 8]


def test_center_and_derived(s4):
    assert center_of(s4) == frozenset([0])
    assert len(derived(s4)) == 12  # the even permutations
    d8 = small("dihedral:8")
    assert len(center_of(d8)) == 2
    assert len(derived(d8)) == 2


def test_subgroup_counts():
    # every subgroup of these is 2-generated
    assert len(two_generated(small("dihedral:8"))) == 10
    assert len(two_generated(small("q8"))) == 6
    assert len(two_generated(small("cyclic:4"))) == 3


def test_normal_subgroups_agree_with_filtered_lattice():
    for name in ("dihedral:8", "q8", "alt:4", "sym:3", "cyclic:9"):
        S = small(name)
        noted = set(normal_subgroups(S))
        filtered = set()
        for H in two_generated(S):
            if all(S.mul(S.mul(S.inv(g), x), g) in H
                   for x in H for g in S.gens):
                filtered.add(H)
        assert noted == filtered, name


def test_normal_subgroups_q8_all_normal():
    q8 = small("q8")
    assert len(normal_subgroups(q8)) == 6


def test_quotient_d8_by_center_is_klein():
    d8 = small("dihedral:8")
    Q = quotient(d8, center_of(d8))
    assert Q.order == 4
    assert order_histogram(Q) == {1: 1, 2: 3}


def test_quotient_rejects_bad_inputs():
    s3 = small("sym:3")
    twist = next(i for i in range(6) if element_order(s3, i) == 2)
    with pytest.raises(ValueError):
        quotient(s3, s3.closure([twist]))  # not normal
    with pytest.raises(ValueError):
        quotient(s3, frozenset([1]))  # no identity


def test_quotient_of_a4_by_klein():
    a4 = small("alt:4")
    klein = next(N for N in normal_subgroups(a4) if len(N) == 4)
    Q = quotient(a4, klein)
    assert Q.order == 3
    assert element_order(Q, 1) == 3


def test_induced_subgroup(s4):
    three = next(i for i in range(24) if element_order(s4, i) == 3)
    H = s4.induced(s4.closure([three]))
    assert H.order == 3
    assert element_order(H, 1) == 3
    # the induced elements are the parent's, in parent order
    members = sorted(s4.closure([three]))
    assert members[0] == 0
    assert all(H.elements[k] == s4.elements[q]
               for k, q in enumerate(members))


def test_induced_names_the_missing_product():
    D = small("dihedral:8")
    assert D.mul(1, 1) == 3
    with pytest.raises(ValueError, match=r"^indices are not closed: the "
                       r"product 3 of two of them is missing$"):
        D.induced([0, 1, 2])
    with pytest.raises(ValueError, match="identity"):
        D.induced([1, 2])


def test_induced_rejects_an_empty_set():
    with pytest.raises(ValueError, match="^subgroup must contain the "
                       "identity$"):
        small("dihedral:8").induced([])


def test_induced_names_an_index_out_of_range():
    with pytest.raises(ValueError, match=r"^index 99 is out of range for "
                       r"order 8$"):
        small("dihedral:8").induced([0, 99])


def test_group_order_both_input_kinds():
    assert group_order(small("dihedral:8")) == 8
    assert group_order(construct("cyclic:9")) == 9


def test_table_rows_are_the_element_products():
    Z = SmallGroup.from_group(construct("cyclic:300"))
    assert Z.order == 300
    assert all(Z.elements[k] == Z.elements[i] * Z.elements[j]
               for i in range(0, 300, 37) for j, k in enumerate(Z.table[i]))
    assert element_order(Z, 1) == 300
    i2 = Z.mul(1, 1)
    assert Z.elements[i2] == Z.elements[1] * Z.elements[1]
    assert Z.mul(i2, Z.inv(i2)) == 0


def test_closure_and_normal_closure(s4):
    # a transposition's closure is order 2; its normal closure is everything
    t = next(i for i in range(24) if element_order(s4, i) == 2
             and len([p for p in range(4) if s4.elements[i].images[p] != p]) == 2)
    assert len(s4.closure([t])) == 2
    assert len(s4.normal_closure([t])) == 24


def _digest(elements):
    """Short fingerprint of an element list, in order."""
    text = json.dumps([x.serialize() for x in elements])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# element indices and derivations (read off the table by
# `breadth_first_tree`), pinned before the closure loops were folded into
# one orbit routine
WREATH3_DERIVATIONS = [
    None, (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (1, 3),
    (0, 4), (1, 4), (0, 5), (1, 5), (0, 6), (0, 7), (1, 7), (0, 8),
    (1, 8), (0, 9), (1, 10), (0, 11), (1, 11), (0, 12), (1, 12), (0, 13),
    (1, 13), (0, 14), (1, 15), (0, 16), (1, 16), (0, 17), (1, 17), (0, 18),
    (1, 18), (0, 19), (1, 19), (1, 21), (1, 22), (1, 23), (0, 24), (1, 24),
    (0, 25), (1, 25), (0, 26), (1, 26), (0, 27), (1, 27), (1, 29), (1, 30),
    (0, 31), (1, 31), (1, 33), (1, 34), (1, 35), (0, 37), (1, 37), (0, 38),
    (1, 38), (1, 40), (1, 41), (0, 42), (1, 42), (1, 44), (1, 45), (1, 46),
    (1, 48), (1, 49), (1, 50), (0, 53), (1, 53), (1, 55), (1, 56), (1, 57),
    (1, 59), (1, 60), (1, 61), (1, 64), (1, 67), (1, 68), (1, 69), (1, 72),
    (1, 76),
]
HEIS27_DERIVATIONS = [
    None, (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (1, 3),
    (0, 4), (1, 4), (0, 5), (1, 5), (0, 6), (0, 7), (1, 7), (0, 8),
    (1, 8), (0, 9), (1, 11), (1, 12), (0, 13), (1, 13), (0, 14), (1, 16),
    (1, 17), (1, 21), (1, 22),
]
WREATH3_CLASSES = [
    [0],
    [1, 20, 22],
    [2, 13, 15, 58, 62, 63, 65, 66, 80],
    [3, 32, 35],
    [4, 5, 23, 36, 70, 71, 73, 74, 75],
    [6, 24, 25, 26, 27, 29, 31, 33, 67],
    [7, 8, 10, 47, 51, 52, 77, 78, 79],
    [9, 11, 12, 37, 38, 40, 42, 44, 48],
    [14, 16, 17, 18, 19, 21, 53, 55, 59],
    [28, 30, 34],
    [39, 46, 49],
    [41, 43, 50],
    [45],
    [54, 57, 64],
    [56, 60, 61],
    [68, 69, 72],
    [76],
]


@pytest.mark.parametrize("make, elements, derivations", [
    (lambda: wreath_small(3), "233300cdce748451", WREATH3_DERIVATIONS),
    (lambda: heis27(), "6b55ac7b675576d7", HEIS27_DERIVATIONS),
])
def test_generate_pinned(make, elements, derivations):
    S = make()
    assert _digest(S.elements) == elements
    assert breadth_first_tree(S) == derivations


def test_class_partition_pinned():
    got = [sorted(c) for c in wreath_small(3).class_partition()]
    assert got == WREATH3_CLASSES


def test_generate_overflow_text():
    gens = list(construct("sym:7").gens)
    with pytest.raises(Overflow) as err:
        SmallGroup.generate(gens, Permutation.identity(7))
    assert str(err.value) == "group closure exceeds cap 2187"


def test_from_group_overflows_before_any_table(monkeypatch):
    # W5 has 15,625 elements: the closure stops at ORDER_CAP
    monkeypatch.setattr(smallgroup, "_table",
                        lambda *args: pytest.fail("table built"))
    with pytest.raises(Overflow, match="^group closure exceeds cap 2187$"):
        SmallGroup.from_group(construct("wreath:5"))


def _digest_indices(parts):
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def test_from_group_indexes_the_permutation_image():
    # the matrices' own closure gives the same breadth-first indices
    G = construct("gl:2:3")
    S = SmallGroup.from_group(G)
    M = SmallGroup.generate(G.gens, G.identity)
    assert all(isinstance(x, Permutation) for x in S.elements)
    assert list(map(G.from_perm, S.elements)) == M.elements
    assert (S.gens, S.table) == (M.gens, M.table)


def test_gl25_invariants_pinned():
    # pinned while gl:2:5 (480 elements) multiplied its underlying matrices
    # instead of a table: order histogram, center, derived size and digest,
    # class count and digest of the sorted classes
    S = SmallGroup.from_group(construct("gl:2:5"))
    assert order_histogram(S) == {1: 1, 2: 31, 3: 20, 4: 152, 5: 24, 6: 20,
                                  8: 40, 10: 24, 12: 40, 20: 48, 24: 80}
    assert sorted(center_of(S)) == [0, 8, 73, 289]
    comm = sorted(derived(S))
    assert (len(comm), _digest_indices(comm)) == (120, "b4c7a95f283118ce")
    classes = [sorted(c) for c in S.class_partition()]
    assert (len(classes), _digest_indices(classes)) == (24,
                                                        "2e305f56d6fc47b2")


S4_NORMAL_CLOSURES = [
    ([], [0]), ([0], [0]),
    ([3], [0, 3, 4, 5, 11, 12, 13, 14, 15, 21, 22, 23]),
    ([13], [0, 3, 4, 5, 11, 12, 13, 14, 15, 21, 22, 23]),
    ([5], [0, 5, 12, 23]), ([23], [0, 5, 12, 23]),
    ([1], list(range(24))), ([2], list(range(24))),
    ([7, 11], list(range(24))),
]
W3_NORMAL_CLOSURES = [
    ([], 1, [0]), ([45], 3, [0, 45, 76]), ([76], 3, [0, 45, 76]),
    ([1], 27, "14c80f77cd329721"), ([3], 27, "14c80f77cd329721"),
    ([28, 54], 27, "14c80f77cd329721"), ([2], 27, "cca5e844a90e15ec"),
    ([4], 27, "aed0bb55794f040b"), ([12], 27, "74d8371edf967174"),
    ([7, 9], 27, "74d8371edf967174"),
]


def test_normal_closures_pinned(s4):
    for seed, want in S4_NORMAL_CLOSURES:
        assert sorted(s4.normal_closure(seed)) == want, seed
    W3 = wreath_small(3)
    for seed, size, want in W3_NORMAL_CLOSURES:
        got = sorted(W3.normal_closure(seed))
        assert len(got) == size, seed
        assert (got if isinstance(want, list)
                else _digest_indices(got)) == want, seed
    assert sorted(derived(W3)) == [0, 39, 41, 43, 45, 46, 49, 50, 76]
    assert sorted(center_of(W3)) == [0, 45, 76]


# (count and digest of the 2-generated subgroups, then of the normal
# subgroups): every subgroup of these groups is 2-generated except W3's base
# (Z3)^3, so each pair but W3's is the digest of the whole lattice
LATTICE_PINS = [
    ("dihedral:8", lambda: small("dihedral:8"),
     10, "8c8324ed02ddee6e", 6, "6baafbbf26648947"),
    ("q8", lambda: small("q8"), 6, "6baafbbf26648947", 6, "6baafbbf26648947"),
    ("dihedral:16", lambda: small("dihedral:16"),
     19, "05fde5e1c803a609", 7, "4eb00c48b251b076"),
    ("dihedral:32", lambda: small("dihedral:32"),
     36, "e7d87c1e39c0d243", 8, "b41d2af044967f32"),
    ("sym:4", lambda: small("sym:4"),
     30, "e375f4c226ea349b", 4, "dbd05b236db7fe37"),
    ("wreath:3", lambda: wreath_small(3),
     49, "9af46960d2b11667", 8, "13121599b207cdd2"),
    ("heis-27", heis27,
     19, "547570934ce23c0e", 7, "98b46758efce027b"),
]


@pytest.mark.parametrize("name, make, nsub, sub, nnor, nor", LATTICE_PINS,
                         ids=[pin[0] for pin in LATTICE_PINS])
def test_lattices_pinned(name, make, nsub, sub, nnor, nor):
    S = make()
    subs = [sorted(A) for A in two_generated(S)]
    normals = [sorted(N) for N in normal_subgroups(S)]
    assert (len(subs), _digest_indices(subs)) == (nsub, sub), name
    assert (len(normals), _digest_indices(normals)) == (nnor, nor), name


def test_two_generated_is_every_pair_closure():
    W3 = wreath_small(3)
    pairs = {W3.closure([x, y]) for x in range(W3.order)
             for y in range(W3.order)}
    assert set(two_generated(W3)) == pairs
    assert len(pairs) == 49
    # each subgroup is keyed to a pair that generates it
    assert all(W3.closure(xy) == H for H, xy in two_generated(W3).items())
