"""Stabilizer chains, orbits, closures: orders and membership."""

import hashlib
import inspect
import json
import random
from collections import Counter
from functools import reduce
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from bfl.fields import GF
from bfl.elements import (Permutation, SquareMatrix, SemilinearElement,
                          Overflow)
from bfl.groups import (Chain, Group, closure_enumerate, image_kernel,
                        matrix_action, orbit, orbit_points)
from bfl.catalog import construct
from bfl import classes
from bfl.classes import class_of, enumerate_classes
from bfl.genfile import parse_generator_text


def sym(n):
    return Group([Permutation.from_cycles(n, [(0, 1)]),
                  Permutation.from_cycles(n, [tuple(range(n))])], name="sym%d" % n)


def test_symmetric_orders():
    for n in (2, 3, 4, 6, 8):
        import math
        assert sym(n).order() == math.factorial(n)


def test_alternating_order():
    a = Permutation.from_cycles(5, [(0, 1, 2)])
    b = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    assert Group([a, b]).order() == 60


def test_trivial_and_identity_gens():
    e = Permutation.identity(4)
    assert Group([e]).order() == 1
    assert Group([], identity=e).order() == 1
    G = Group([], identity=e)
    perms = map(Permutation, G.chain.raw_elements())
    assert [G.from_perm(p) for p in perms] == [e]


def test_generatorless_matrix_groups_have_order_one():
    # the action orbits the basis under the identity; order() runs first
    for e in (SquareMatrix.identity(GF(5), 2),
              SemilinearElement.identity(GF(9), 2)):
        G = Group([], identity=e)
        assert G.order() == 1
        perms = map(Permutation, G.chain.raw_elements())
        assert [G.from_perm(p) for p in perms] == [e]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chain_order_matches_closure(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    k = data.draw(st.integers(min_value=1, max_value=3))
    gens = [Permutation(list(data.draw(st.permutations(list(range(n))))))
            for _ in range(k)]
    G = Group(gens)
    assert G.order() == len(closure_enumerate(gens))


def test_build_chain_returns_order():
    assert sym(5).order() == 120


def test_membership():
    G = Group([Permutation.from_cycles(5, [(0, 1, 2)]),
               Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])  # alt(5)
    assert G.contains(Permutation.from_cycles(5, [(0, 1), (2, 3)]))
    assert not G.contains(Permutation.from_cycles(5, [(0, 1)]))  # odd


def test_random_element_covers_group():
    G = sym(4)
    rng = random.Random(0)
    seen = {G.random_element(rng) for _ in range(400)}
    assert len(seen) == 24


def test_matrix_group_sl2_3():
    F = GF(3)
    G = Group([SquareMatrix(F, [[1, 1], [0, 1]]),
               SquareMatrix(F, [[0, 1], [2, 0]])], name="sl2_3")
    assert G.order() == 24
    assert G.contains(SquareMatrix(F, [[2, 0], [0, 2]]))
    assert not G.contains(SquareMatrix(F, [[2, 0], [0, 1]]))  # det 2


def test_matrix_group_sl4_3():
    F = GF(3)
    tv = SquareMatrix(F, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    sc = SquareMatrix(F, [[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    G = Group([tv, sc], name="sl4_3")
    assert G.order() == 12130560  # 3^6 * 8 * 26 * 80
    assert G.action.degree == 80  # nonzero vectors up to nothing: one orbit


def test_semilinear_group():
    F = GF(9)
    w = F.primitive()
    a = SemilinearElement(SquareMatrix(F, [[w, 0], [0, 1]]), 0)
    f = SemilinearElement(SquareMatrix.identity(F, 2), 1)
    G = Group([a, f])
    # <diag(w,1)> has order 8; frobenius inverts w ~ w^3: semidirect, order 16
    assert G.order() == 16


def test_kernel_witness_via_scalars():
    F = GF(5)
    A = SquareMatrix(F, [[2, 0], [0, 2]])  # scalar: acts freely on vectors
    G = Group([A])
    assert G.order() == 4


def test_closure_cap_overflow():
    gens = [Permutation.from_cycles(6, [(0, 1)]),
            Permutation.from_cycles(6, [tuple(range(6))])]
    with pytest.raises(Overflow):
        closure_enumerate(gens, cap=100)
    with pytest.raises(Overflow):
        Group(gens).chain.raw_elements(cap=100)


def test_elements_matches_chain_order():
    G = sym(5)
    perms = map(Permutation, G.chain.raw_elements())
    assert len(frozenset(map(G.from_perm, perms))) == 120
    assert G.order() == 120


def test_conjugacy_class_sizes():
    G = sym(5)
    t = Permutation.from_cycles(5, [(0, 1)])
    assert len(class_of(G, t).elements) == 10
    c5 = Permutation.from_cycles(5, [tuple(range(5))])
    assert len(class_of(G, c5).elements) == 24


def test_to_perm_roundtrip():
    F = GF(3)
    G = Group([SquareMatrix(F, [[1, 1], [0, 1]]),
               SquareMatrix(F, [[0, 1], [2, 0]])])
    x = SquareMatrix(F, [[2, 0], [0, 2]])
    p = G.to_perm(x)
    assert p is not None and p.order() == 2
    # a matrix over the wrong field escapes the action
    assert G.to_perm(SquareMatrix(GF(3), [[1, 2], [1, 1]])) is not None


def test_frobenius_alone_is_faithful():
    # on the basis vectors the field automorphism acts trivially; the extra
    # point w*e1 is what separates it from the identity
    F = GF(9)
    G = Group([SemilinearElement(SquareMatrix.identity(F, 2), 1)])
    assert G.order() == 2


def test_semilinear_action_keeps_basis_numbering():
    F = GF(9)
    w = F.primitive()
    a = SemilinearElement(SquareMatrix(F, [[w, 0], [0, 1]]), 0)
    f = SemilinearElement(SquareMatrix.identity(F, 2), 1)
    # w*e1 already lies in the basis orbit (e2 and the 8 multiples of e1)
    assert matrix_action([a, f]).degree == 9
    # here it does not: its orbit is appended after the basis
    assert matrix_action([f]).points == ((1, 0), (0, 1), (w, 0),
                                         (F.frobenius(w), 0))


GAMMAL2_9 = """group gammal2_9 mat 2 over GF(9) fieldauto
a = [[z+1,0],[0,1]]
b = [[2,1],[2,0]]
f = [[1,0],[0,1]] @ frob
"""


def gammal2_9():
    return parse_generator_text(GAMMAL2_9).group


def test_random_elements_lie_in_group():
    rng = random.Random(7)
    for G in (construct("gl:2:5"), construct("sp:4:3"), gammal2_9()):
        for _ in range(20):
            x = G.random_element(rng)
            assert type(x) is type(G.identity)
            assert G.contains(x)


def _code(x):
    """Matrix entries row by row, then /frob for a semilinear map."""
    d = x.serialize()
    s = "".join(str(c) for row in d["rows"] for c in row)
    return s + ("/%d" % d["frob"] if "frob" in d else "")


# the first 50 random elements at Random(0xBF), pinned when chains still
# carried each matrix alongside its permutation: seeded scans must not move
GL4_3_RANDOM = [
    '1221211022222200', '0020102022012121', '1210001001220011', '1111212202121200',
    '2011221020100020', '0002012022120112', '0011010001011220', '0020111001100222',
    '2101200001221022', '0201111012022102', '1102100010212112', '2102122222111100',
    '0001222120002011', '1121122212101212', '1010010101102211', '1201202222210210',
    '1010020022120220', '0210111022210020', '2111012000121022', '1110221111020201',
    '2111210121200221', '1201022010100102', '1210200201000120', '0010210110020221',
    '1110101202221220', '0102120110122010', '2022121212010210', '2202100121202001',
    '0211022200212020', '0012122020102112', '1020101220122112', '0202110102220001',
    '2120101020000012', '2000120021010012', '0100112201210020', '1121101220220100',
    '1210200211100110', '2000021010112212', '0002202122011120', '2222000220120100',
    '2201122100202001', '0122101022210220', '1022212101122221', '0020020000121111',
    '2101212020211002', '2020221012121211', '1001122112001222', '2222020102202212',
    '0201022020002101', '2000111201102012',
]
GAMMAL2_9_RANDOM = [
    '6510/0', '5374/1', '7301/0', '4822/1', '7006/1', '7667/1', '8312/0', '7065/0',
    '6627/1', '5615/1', '7883/1', '2416/0', '1841/0', '6614/1', '7807/1', '6323/0',
    '4118/0', '5560/0', '1186/0', '1178/0', '4752/0', '8186/0', '5850/1', '7713/1',
    '8804/0', '1113/0', '5045/0', '7424/0', '1771/1', '2448/0', '3420/1', '3107/0',
    '2646/1', '4252/0', '0247/1', '8524/0', '4822/0', '4252/0', '1003/0', '2758/0',
    '3616/0', '5557/1', '4452/0', '0578/0', '4886/0', '6487/1', '1476/0', '3378/1',
    '4232/0', '8155/1',
]


@pytest.mark.parametrize("make, pinned", [
    (lambda: construct("gl:4:3"), GL4_3_RANDOM),
    (gammal2_9, GAMMAL2_9_RANDOM),
])
def test_random_stream_pinned(make, pinned):
    G = make()
    rng = random.Random(0xBF)
    assert [_code(G.random_element(rng)) for _ in range(50)] == pinned


# 200 chain draws at Random(2024), digested by their image tuples: pinned
# before each level kept its sorted orbit points, which must not move them
CHAIN_RANDOM_DIGESTS = {"sp:4:3": "ff9e4b433850ee3d",
                        "sl:2:27": "dcc8d22836a86241"}


@pytest.mark.parametrize("name", sorted(CHAIN_RANDOM_DIGESTS))
def test_chain_random_stream_pinned(name):
    chain = construct(name).chain
    rng, h = random.Random(2024), hashlib.sha256()
    for _ in range(200):
        h.update(str(chain.random(rng).images).encode("ascii"))
    assert h.hexdigest()[:16] == CHAIN_RANDOM_DIGESTS[name]
    assert all(L._points == sorted(L.transversal) for L in chain.levels)


@pytest.mark.parametrize("make", [
    lambda: construct("gl:3:3").gens, lambda: gammal2_9().gens,
    # w*e1 is orbited after the basis here
    lambda: [SemilinearElement(SquareMatrix.identity(GF(9), 2), 1)]])
def test_matrix_action_reads_images_off_the_orbit(make, monkeypatch):
    # one apply per (point, generator), and the perms those images give
    gens, calls = make(), Counter()
    kind = type(gens[0])
    apply = kind.apply

    def counted(g, v):
        calls[id(g)] += 1
        return apply(g, v)

    monkeypatch.setattr(kind, "apply", counted)
    act = matrix_action(gens)
    assert sorted(calls.values()) == [act.degree] * len(gens)
    monkeypatch.undo()
    assert act.perms == [Permutation([act.index[g.apply(v)]
                                      for v in act.points]) for g in gens]


def _digest(elements):
    """Short fingerprint of an element list, in order."""
    text = json.dumps([x.serialize() for x in elements])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _points(act):
    return " ".join("".join(map(str, v)) for v in act.points)


# action point numbering, pinned before the orbit loops were folded into one
GL3_3_POINTS = (
    "100 010 001 200 110 020 210 011 220 002 021 111 101 120 022 221 102 211 "
    "201 012 222 202 121 122 112 212")
GAMMAL2_9_POINTS = (
    "10 01 40 22 60 88 70 82 33 30 38 04 55 20 32 34 52 53 06 66 50 58 56 65 "
    "07 15 80 11 86 62 54 16 67 12 13 17 03 76 77 18 37 85 47 83 75 45 42 44 "
    "41 02 36 14 72 27 87 46 43 26 25 05 48 57 64 35 74 78 08 61 68 71 63 81 "
    "24 73 28 23 31 84 21 51")


@pytest.mark.parametrize("make, pinned", [
    (lambda: construct("gl:3:3"), GL3_3_POINTS),
    (gammal2_9, GAMMAL2_9_POINTS),
])
def test_action_points_pinned(make, pinned):
    assert _points(make().action) == pinned


# per level: base point, transversal keys in order, digest of the representatives
SP4_3_LEVELS = [
    (3, [3, 8, 9, 4, 19, 20, 51, 54, 21, 16, 22, 17, 10, 11, 41, 75, 23, 24,
         74, 40, 42, 44, 15, 35, 31, 12, 29, 43, 37, 34, 59, 39, 38, 36, 32, 0,
         57, 33, 25, 26, 27, 70, 65, 63, 53, 45, 46, 47, 79, 56, 69, 58, 67, 60,
         68, 66, 13, 62, 7, 1, 28, 72, 55, 71, 50, 64, 52, 76, 77, 61, 30, 5, 6,
         48, 49, 18, 78, 73, 2, 14], "244586c651ca0184"),
    (2, [2, 6, 49, 5, 14, 67, 47, 11, 60, 12, 64, 73, 27, 72, 55, 76, 25, 1,
         42, 36, 46, 52, 79, 48], "19640c1088bf3a87"),
    (1, [1, 5, 67, 12, 73, 76, 42, 46, 60], "0bcdd3cceb7378a8"),
    (0, [0, 4, 10], "2adbc650236aa5f0"),
]


def test_sp4_3_transversals_pinned():
    got = [(L.point, list(L.transversal), _digest(L.transversal.values()))
           for L in construct("sp:4:3").chain.levels]
    assert got == SP4_3_LEVELS


def _keys_digest(keys):
    return hashlib.sha256(json.dumps(list(keys)).encode()).hexdigest()[:16]


# per level: base point, digest of the transversal keys in order, digest of
# the representatives, digest of the level's strong generators; pinned
# before the Schreier generator loop was rewritten
CHAIN_LEVELS = {
    "sl:2:27": [
        (1, "0b475da628df2903", "6a3ada5de2971859", "c47b5c651ff750ce"),
        (0, "b461975f1abf06fa", "3cc4f0db25f4f1f7", "ab9ce8fe4129ab8b"),
    ],
    "gu:3:3": [
        (2, "fbedbce12fcbd03c", "70c5563773c09b4f", "bb7846f07e0bfddd"),
        (1, "f5da33e9e5aed841", "16e302e805c64f75", "02c28214c964c534"),
        (0, "b511719ddd299581", "993ad95e56fae859", "21320aa52487a860"),
    ],
    "go_odd:5:3": [
        (4, "0e369e709da3e3b3", "d2da6eea0dbe66f5", "64f7325e4cde5f56"),
        (2, "7d6b852ef3dc0649", "59ac3d1973be298a", "86618fc05fb9b0a7"),
        (0, "9608e83e63dc5e2e", "bd32ca166ff6c4d5", "f28eeb9a8fac1890"),
        (1, "f2759a0093030b0d", "4134cd0e00b137d3", "1634be8be1014c5b"),
    ],
    "gl:4:3": [
        (1, "e2437497e571ce06", "9f5d02f3df074d73", "30bd694cb3f1141b"),
        (0, "c8c5020cba55ba4e", "c9800c9e5665dae4", "b8957222a3bdc184"),
        (3, "6597790f05508f84", "115ea2f4da97a849", "81b0a45d42d77bc0"),
        (2, "b30cb518593574fc", "f43e1d2d0537ddbf", "68812aeae1bf8717"),
    ],
    "sym:10": [
        (0, "40252f1ac01f921e", "f7ce5f21bcaf20e9", "51fd4d336a63de08"),
        (1, "c397668324b0ac7d", "17178cae38feb4d6", "36579cb7d64cf77b"),
        (2, "581f951804c4896a", "904251120a3b391e", "6da146048886ba7a"),
        (8, "2bde37021164ba63", "7b2cd00688a9e90a", "0d8690da3fa08fdf"),
        (7, "3ae102194ab493e1", "03ee4c0f28f4a5ce", "0707cffd946cdc64"),
        (6, "504a62c477aa2569", "f2a042c405fd4231", "d1ac349d7c334c61"),
        (5, "cc9726af4bb9afd2", "28b6b7a8cdaedb07", "e8a336b992148362"),
        (4, "06b790b13fcf4e84", "74a52b7329c33fa6", "9283420b05cc02b7"),
        (3, "32421daf0f5edcf6", "bac005b79be15c99", "d31d79ecbe9eec77"),
    ],
}


@pytest.mark.parametrize("name", sorted(CHAIN_LEVELS))
def test_chain_levels_pinned(name):
    got = [(L.point, _keys_digest(L.transversal),
            _digest(L.transversal.values()), _digest(L.gens))
           for L in construct(name).chain.levels]
    assert got == CHAIN_LEVELS[name]


# ---- the known-order stop and deferred representatives ----------------------

# the six blueprints of the benchmark's build workload
BUILD_BLUEPRINTS = ("go_odd:5:3", "go_odd:3:9", "sp:6:2", "gl:4:3",
                    "sl:2:27", "gu:3:3")


def _chain_shape(chain):
    """Level points, strong generators, tree key order and representatives."""
    return [(L.point, L.gens, list(L.tree), list(L.transversal.items()))
            for L in chain.levels]


def _unhinted(degree, perms):
    chain = Chain(degree)
    chain.build(perms)
    return chain


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (class, method name); returns the live counts."""
    counts = [0] * len(targets)

    def counter(k, f):
        def counted(*args):
            counts[k] += 1
            return f(*args)
        return counted
    for k, (cls, name) in enumerate(targets):
        monkeypatch.setattr(cls, name, counter(k, getattr(cls, name)))
    return counts


@pytest.mark.parametrize("bp, pair", [(bp, False) for bp in BUILD_BLUEPRINTS]
                         + [("sp:4:3", True), ("gl:3:3", True)])
def test_order_hint_leaves_the_chain_unchanged(bp, pair):
    G = construct(bp)
    if pair:  # as Group.generating_pair builds its trial chains
        perms = G.generating_pair()
        hinted = Chain(G.chain.degree)
        hinted.build(perms, G.order())
    else:
        perms, hinted = G.image_gens, G.chain
    assert hinted.order() == G.order()
    assert _chain_shape(hinted) == _chain_shape(_unhinted(hinted.degree, perms))


def test_order_hint_above_the_order_verifies_in_full(monkeypatch):
    # two transvections of sl:2:27 generate only C3 x C3
    gens = construct("sl:2:27").gens
    verify = _count_calls(monkeypatch, (Chain, "_verify"))
    G = Group(gens[:2], order=19656)
    assert G.order() == 9
    passes = verify[0]
    unhinted = _unhinted(G.chain.degree, G.image_gens)
    assert verify[0] - passes == passes  # the passes of a build without hint
    assert _chain_shape(G.chain) == _chain_shape(unhinted)
    assert not G.contains(gens[2])


# per build blueprint: Chain._descend calls, Chain._verify passes and
# Permutation.__mul__ calls of construct(bp).order().  A full verification
# with every representative rebuilt on registration took 16,018, 148 and
# 7,616 over the six; building a level's whole transversal on its first read
# after a registration took 4,720 products, building each representative
# only when its point is read takes 1,181.  Since membership reads a matrix
# only at the base points and the basis, a non-member candidate that leaves
# the orbit away from the base points is sifted before membership fails:
# sp:6:2 went 970 -> 972 and gu:3:3 265 -> 267 _descend calls.
BUILD_WORK = {
    "go_odd:5:3": (840, 29, 235),
    "go_odd:3:9": (840, 13, 237),
    "sp:6:2": (972, 52, 179),
    "gl:4:3": (1066, 21, 241),
    "sl:2:27": (351, 5, 189),
    "gu:3:3": (267, 11, 100),
}


@pytest.mark.parametrize("bp", BUILD_BLUEPRINTS)
def test_build_work_pinned(bp, monkeypatch):
    counts = _count_calls(monkeypatch, (Chain, "_descend"), (Chain, "_verify"),
                          (Permutation, "__mul__"))
    construct(bp).order()
    assert tuple(counts) == BUILD_WORK[bp]


def _eager_transversal(L):
    """Every representative of level L, built in tree order from its edges."""
    t = {L.point: L.identity}
    for y, (i, x) in list(L.tree.items())[1:]:
        t[y] = L.gens[i] * t[x]
    return t


@pytest.mark.parametrize("bp", BUILD_BLUEPRINTS + ("sp:4:3",))
def test_reps_follow_the_tree_edges(bp):
    for L in construct(bp).chain.levels:
        for y, (i, x) in list(L.tree.items())[1:]:
            assert L.rep(y) == L.gens[i] * L.rep(x)
        assert (list(L.transversal.items())
                == list(_eager_transversal(L).items()))


def _path(L, y):
    """The tree path from y up to, not including, the base point."""
    path = []
    while y != L.point:
        path.append(y)
        y = L.tree[y][1]
    return path


def test_rep_builds_only_its_tree_path(monkeypatch):
    G = construct("sl:2:27")
    chain = Chain(G.chain.degree)
    for w in G.image_gens:  # registered, never verified: nothing read yet
        chain._register(w)
    L = chain.levels[0]
    assert len(L.tree) == 728 and list(L._reps) == [L.point]
    deep = next(reversed(L.tree))
    path = _path(L, deep)
    assert len(path) > 2
    muls = _count_calls(monkeypatch, (Permutation, "__mul__"))
    t = L.rep(deep)
    assert muls[0] == len(path)
    assert set(L._reps) == {L.point, *path}
    for y in path:  # read again, nothing is built
        L.rep(y)
    assert muls[0] == len(path) and L.rep(deep) is t
    assert t == _eager_transversal(L)[deep]


def test_rep_walks_a_long_path_without_recursion():
    n = 2000  # a single n-cycle: level 0's tree is a path of n - 1 edges
    chain = Chain(n)
    chain._register(Permutation.from_cycles(n, [tuple(range(n))]))
    L, = chain.levels
    assert len(_path(L, n - 1)) == n - 1 and list(L._reps) == [0]
    assert L.rep(n - 1) == Permutation.from_cycles(n, [tuple(range(n))[::-1]])
    assert len(L._reps) == n


def test_rep_after_registration_reads_the_new_tree():
    a = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    chain = Chain(5)
    chain._register(a)
    L = chain.levels[0]
    old = L.transversal
    assert old[4] == a * a * a * a
    b = Permutation.from_cycles(5, [(0, 4)])
    assert chain._register(b) == 0
    assert list(L._reps) == [L.point]  # the memo went with the old tree
    assert L.tree[4] == (1, 0) and L.rep(4) == b != old[4]
    assert L.transversal == _eager_transversal(L)


def _sift_reference(chain, w, start):
    """Chain.sift written with a full inverse and product per strip step."""
    for lev in range(start, len(chain.levels)):
        L = chain.levels[lev]
        pt = w(L.point)
        if pt == L.point:
            continue
        if pt not in L.transversal:
            return w, lev
        w = ~L.transversal[pt] * w
    return w, len(chain.levels)


@pytest.mark.parametrize("small, big", [("alt:6", "sym:6"),
                                        ("sl:2:9", "gl:2:9"),
                                        ("sl:2:27", "gl:2:27")])  # 728 points
def test_sift_matches_reference(small, big):
    H, G = construct(small), construct(big)
    depth = len(H.chain.levels)
    rng = random.Random(11)
    verdicts, outcomes = set(), set()
    for _ in range(60):
        w = H.to_perm(G.random_element(rng))
        for start in range(depth + 1):
            r, lev = H.chain.sift(w, start)
            want, want_lev = _sift_reference(H.chain, w, start)
            assert (r.images, lev) == (want.images, want_lev)
            if start < depth:
                outcomes.add("stuck" if lev < depth else
                             "member" if r.is_identity() else "residue")
        verdicts.add(H.contains(H.from_perm(w)))
    assert verdicts == {True, False}
    # stuck at a level, and through every level with or without a residue
    assert outcomes == {"stuck", "member", "residue"}


def _overflow_text(call):
    with pytest.raises(Overflow) as err:
        call()
    return str(err.value)


def test_overflow_texts(monkeypatch):
    # verify copies these texts into verdict notes, which are part of the JSON
    gens = sym(6).gens
    assert (_overflow_text(lambda: closure_enumerate(gens, cap=100))
            == "closure exceeds cap 100")
    monkeypatch.setattr(classes, "CLOSURE_CAP", 10)
    assert (_overflow_text(lambda: class_of(sym(6), gens[0]))
            == "class exceeds cap 10")
    gl3 = construct("gl:3:3").gens
    assert (_overflow_text(lambda: matrix_action(gl3, cap=20))
            == "orbit exceeds cap 20")
    # the cap counts the basis orbit too when w*e1 is orbited after it
    f = SemilinearElement(SquareMatrix.identity(GF(9), 2), 1)
    assert (_overflow_text(lambda: matrix_action([f], cap=3))
            == "orbit exceeds cap 3")
    assert matrix_action([f], cap=4).degree == 4
    # the basis orbit alone fills the cap, so w*e1 itself passes it
    e = SemilinearElement(SquareMatrix.identity(GF(9), 2), 0)
    assert (_overflow_text(lambda: matrix_action([e], cap=2))
            == "orbit exceeds cap 2")


def test_orbit_fifo_order_and_duplicate_seeds():
    maps = [lambda x: 2 * x % 10, lambda x: (x + 1) % 10]
    tree = orbit([0, 5, 0], maps)
    assert list(tree) == [0, 5, 1, 6, 2, 7, 4, 3, 8, 9]
    assert orbit_points([0, 5, 0], maps) == list(tree)
    assert tree[0] is None and tree[5] is None
    assert tree[1] == (1, 0) and tree[2] == (0, 1)


def test_orbit_tree_edges_replay():
    gens = construct("gl:3:3").gens
    maps = [g.apply for g in gens]
    tree = orbit([(1, 0, 0)], maps)
    assert len(tree) == 26
    assert orbit_points([(1, 0, 0)], maps) == list(tree)
    met = {v: k for k, v in enumerate(tree)}
    for y, edge in tree.items():
        if edge is None:
            assert y == (1, 0, 0)
            continue
        i, x = edge
        assert maps[i](x) == y
        assert met[x] < met[y]


def test_orbit_overflow_at_cap():
    step = [lambda x: (x + 1) % 10]
    for walk in (orbit, orbit_points):
        assert len(walk([0], step, cap=10)) == 10
        with pytest.raises(Overflow) as err:
            walk([0], step, cap=9, what="widget")
        assert str(err.value) == "widget exceeds cap 9"
        # seeds always enter; the cap stops only the points found from them
        assert list(walk([0, 1, 2], [lambda x: x], cap=1)) == [0, 1, 2]


@pytest.mark.parametrize("name", ["sym:6", "gl:3:3", "sl:2:17"])
def test_level_trees_are_the_orbits_under_the_strong_generators(name):
    # the level orbits read the generators' image tuples; the tree entries
    # (i, x), and so every representative, are those under the permutations
    for L in construct(name).chain.levels:
        tree = orbit([L.point], L.gens)
        assert list(L.tree.items()) == list(tree.items())


# ---- the raw-image kernel ---------------------------------------------------

def _random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def _product_by_points(*perms):
    """Images of the product of perms, the last applied first, point by point."""
    n = len(perms[0].images)
    images = list(range(n))
    for p in reversed(perms):
        images = [p.images[v] for v in images]
    return tuple(images)


@pytest.mark.parametrize("n, kind", [(1, bytes), (2, bytes), (8, bytes),
                                     (80, bytes), (255, bytes), (256, bytes),
                                     (257, tuple), (288, tuple), (728, tuple)])
def test_image_kernel_matches_permutation_products(n, kind):
    rng = random.Random(0x21 + n)
    encode, times, conj = image_kernel(n)
    for _ in range(5):
        g, h, x = (_random_perm(rng, n) for _ in range(3))
        gr, hr, xr = encode(g.images), encode(h.images), encode(x.images)
        assert type(gr) is kind and Permutation(gr) == g
        assert tuple(times(gr)(xr)) == _product_by_points(g, x)
        by_g, by_h = (_product_by_points(~p, x, p) for p in (g, h))
        assert tuple(conj(gr)(xr)) == by_g
        # the two-generator form: both conjugates from one table of x
        pair = conj(gr, hr)(xr)
        assert all(type(z) is kind for z in pair)
        assert tuple(map(tuple, pair)) == (by_g, by_h)
        assert tuple(map(tuple, conj(gr, gr)(xr))) == (by_g, by_g)
    # raw images order like the images tuples
    perms = [_random_perm(rng, n) for _ in range(20)]
    assert (sorted(perms, key=lambda p: encode(p.images))
            == sorted(perms, key=lambda p: p.images))


@pytest.mark.parametrize("name", ["sym:5", "gl:3:3", "sl:2:17"])
def test_element_stream_is_the_transversal_products(name):
    # raw images below 257 points (gl:3:3 has 26), tuples past (sl:2:17, 288)
    chain = construct(name).chain
    levels = [list(L.transversal.values()) for L in chain.levels]
    want = [reduce(mul, ts, chain.identity) for ts in product(*levels)]
    assert list(map(Permutation, chain.raw_elements())) == want


def _draw_by_products(chain, rng):
    """A random draw as `Chain.random` made it before raw images: one
    rng.choice of each level's sorted orbit points, multiplied left to right."""
    w = chain.identity
    for L in chain.levels:
        w = w * L.rep(rng.choice(sorted(L.tree)))
    return w


@pytest.mark.parametrize("name, kind", [("gl:4:3", bytes),
                                        ("sl:2:27", tuple)])
def test_raw_random_is_the_random_stream(name, kind):
    # gl:4:3 acts on 80 points (bytes), sl:2:27 on 728 (tuples)
    G = construct(name)
    chain = G.chain
    encode = image_kernel(chain.degree)[0]
    d = encode(G.image_gens[1].images)
    rngs = [random.Random(0x30) for _ in range(4)]
    for _ in range(40):
        want = _draw_by_products(chain, rngs[0])
        raw = chain.raw_random(rngs[1])
        assert type(raw) is kind and Permutation(raw) == want
        assert chain.random(rngs[2]) == want
        conj = chain.raw_random_conjugate(d, rngs[3])
        assert type(conj) is kind
        assert Permutation(conj) == ~want * Permutation(d) * want
    assert len({r.random() for r in rngs}) == 1  # the same picks throughout


def test_cached_conjugations_share_one_set_of_points():
    # past 256 points an inverse table is a tuple; the tables of the cached
    # draws hold one set of int objects, not a fresh one each
    chain = construct("sl:2:27").chain
    d = chain.kernel[0](chain.levels[0].gens[0].images)
    rng = random.Random(0x30)
    for _ in range(5):
        chain.raw_random_conjugate(d, rng)
    tables = [inspect.getclosurevars(by_t).nonlocals["gi"]
              for L in chain.levels for _, by_t in L._raw.values()]
    assert len(tables) >= 5 and type(tables[0]) is tuple
    points = sorted(tables[0])
    assert points == list(range(chain.degree))
    for gi in tables:
        assert all(v is points[v] for v in gi)


def _contains_by_image(G, x):
    """Membership as it was: the full image of x, then one sift."""
    p = G.to_perm(x)
    return p is not None and G.chain.sift(p)[0].is_identity()


def _semilinear_subgroup():
    return parse_generator_text("""group sigma mat 2 over GF(9) fieldauto
b = [[2,1],[2,0]]
f = [[1,0],[0,1]] @ frob
""").group


@pytest.mark.parametrize("make", [lambda: construct("go_odd:3:5"),
                                  lambda: construct("sp:4:3"),
                                  _semilinear_subgroup],
                         ids=["go_odd:3:5", "sp:4:3", "semilinear"])
def test_contains_members_match_the_full_image(make):
    G = make()
    rng = random.Random(0x31)
    for _ in range(30):
        x = G.random_element(rng)
        assert G.contains(x) and _contains_by_image(G, x)


def test_contains_semilinear_non_members():
    G = _semilinear_subgroup()
    F = G.identity.field
    a = SquareMatrix(F, [[F.primitive(), 0], [0, 1]])
    assert G.order() < 11520  # a proper subgroup of Gamma-L(2, 9)
    for e in (0, 1):
        x = SemilinearElement(a, e)
        assert not G.contains(x) and not _contains_by_image(G, x)


def test_contains_rejects_each_kind_of_non_member():
    G = construct("go_odd:3:5")
    act, chain, F = G.action, G.chain, G.identity.field
    base = [L.point for L in chain.levels]
    assert base == [2, 0]  # e1, the basis vector 1, is no base point

    def at(x, k):
        return act.index.get(x.apply(act.points[k]))
    # leaves the orbit at a base point
    off_base = SquareMatrix.diagonal(F, (2, 2, 2))
    assert at(off_base, base[0]) is None
    # keeps the base points on the orbit, leaves it elsewhere, and the sift
    # gets stuck: e2 goes to e0, which is not in e2's orbit
    swap = SquareMatrix(F, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    images = {b: at(swap, b) for b in base}
    assert None not in images.values() and G.to_perm(swap) is None
    assert chain._descend(chain.identity.images, images, 0)[1] == 0
    # agrees with the identity at every base point, not at e1
    off_basis = SquareMatrix.diagonal(F, (1, 2, 1))
    assert all(at(off_basis, b) == b for b in base) and at(off_basis, 1) != 1
    for x in (off_base, swap, off_basis):
        assert not G.contains(x) and not _contains_by_image(G, x)


# ---- the generating pair behind class orbits --------------------------------

def test_generating_pair_of_sp4_3():
    G = construct("sp:4:3")
    assert len(G.gens) == 5
    pair = G.generating_pair()
    assert len(pair) == 2 and all(isinstance(p, Permutation) for p in pair)
    assert Group(pair).order() == G.order() == 51840
    assert construct("sp:4:3").generating_pair() == pair


def _elementary_abelian(p, rank):
    """C_p^rank on rank disjoint p-cycles: no two elements generate it."""
    n = p * rank
    return Group([Permutation.from_cycles(n, [tuple(range(i * p, i * p + p))])
                  for i in range(rank)])


@pytest.mark.parametrize("p", [2, 3])
def test_generating_pair_falls_back_to_the_generators(p):
    G = _elementary_abelian(p, 3)
    assert G.generating_pair() == G.gens
    cls = enumerate_classes(G)
    assert len(cls) == G.order() == p ** 3
    assert all(c.size == 1 for c in cls)
    assert ({Permutation(c.raw[0]) for c in cls}
            == set(map(Permutation, G.chain.raw_elements())))


def test_generating_pair_leaves_caller_streams_alone():
    G = construct("gl:3:3")
    rng, state = random.Random(11), random.getstate()
    first = [G.chain.random(rng) for _ in range(3)]
    enumerate_classes(G)
    assert len(G.generating_pair()) == 2
    rest = [G.chain.random(rng) for _ in range(3)]
    assert random.getstate() == state
    rng = random.Random(11)
    H = construct("gl:3:3")
    assert [H.chain.random(rng) for _ in range(6)] == first + rest
