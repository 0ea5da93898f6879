"""Class enumeration, labels, normal-set algebra."""

import gc
import hashlib
import importlib.util
import json
import os
import random
import weakref
from collections import Counter
from itertools import filterfalse

import pytest

from bfl import classes
from bfl.elements import (Overflow, Permutation, SemilinearElement,
                          SquareMatrix, element_order, inverse)
from bfl.fields import GF
from bfl.groups import Chain, Group, closure_enumerate, orbit
from bfl.catalog import construct
from bfl.classes import (
    ConjClass, NormalSet, SelectorError, enumerate_classes, class_of,
    involution_classes_sym, select_class, serial_key,
)

from test_groups import _elementary_abelian, gammal2_9

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_alt5_class_sizes():
    cls = enumerate_classes(construct("alt:5"))
    assert [c.size for c in cls] == [1, 15, 20, 12, 12]
    assert [c.label for c in cls] == ["1a", "2a", "3a", "5a", "5b"]


def test_cyclic_all_singletons():
    cls = enumerate_classes(construct("cyclic:5"))
    assert len(cls) == 5
    assert all(c.size == 1 for c in cls)


def test_sym6_class_count_is_partition_count():
    # partitions of 6
    def partitions(n, maxpart):
        if n == 0:
            return 1
        return sum(partitions(n - k, k) for k in range(min(n, maxpart), 0, -1))
    cls = enumerate_classes(construct("sym:6"))
    assert len(cls) == partitions(6, 6) == 11


def test_sizes_divide_and_sum():
    for bp in ("sym:4", "alt:4", "dihedral:8", "q8", "wreath:3"):
        G = construct(bp)
        cls = enumerate_classes(G)
        n = G.order()
        assert sum(c.size for c in cls) == n
        assert all(n % c.size == 0 for c in cls)


def test_classes_closed_under_generators():
    G = construct("alt:5")
    for c in enumerate_classes(G):
        for g in G.gens:
            assert {inverse(g) * x * g for x in c.elements} == c.elements


def test_class_order_constant():
    for c in enumerate_classes(construct("sym:5")):
        assert all(element_order(x) == c.order for x in c.elements)


def test_labels_deterministic_across_rebuilds():
    a = [c.label for c in enumerate_classes(construct("sym:6"))]
    b = [c.label for c in enumerate_classes(construct("sym:6"))]
    assert a == b


def test_sym6_involution_labels():
    """Two classes of size 15 (transpositions, fpf): rep order breaks the tie."""
    cls = enumerate_classes(construct("sym:6"))
    by_label = {c.label: c for c in cls}
    assert by_label["2a"].size == 15
    assert by_label["2a"].representative.cycles() == [(4, 5)]
    assert by_label["2b"].size == 15
    assert by_label["2b"].representative.cycles() == [(0, 1), (2, 3),
                                                         (4, 5)]
    assert by_label["2c"].size == 45


def test_involution_classes_sym_matches_enumeration():
    for n in (4, 5, 6, 7):
        G = construct("sym:%d" % n)
        fast = involution_classes_sym(G, n)
        full = {c.label: c for c in enumerate_classes(G) if c.order == 2}
        assert {c.label for c in fast} == set(full)
        for c in fast:
            assert c.size == full[c.label].size
            assert c.representative in full[c.label].elements


def test_involution_classes_sym10():
    G = construct("sym:10")
    fast = involution_classes_sym(G, 10)
    assert [c.size for c in fast] == [45, 630, 945, 3150, 4725]
    fpf = [c for c in fast if all(c.representative(i) != i for i in range(10))]
    assert len(fpf) == 1 and fpf[0].label == "2c"


def test_equal_uncached_classes_hash_alike():
    # the same members under another representative, the inverse of C's
    G = construct("sym:4")
    C = class_of(G, Permutation.from_cycles(4, [(1, 2, 3)], base=1))
    I = ConjClass(G, ~C.representative, C.size, C.order, raw=C.raw)
    assert I == C
    assert hash(I) == hash(C)
    assert len({I, C}) == 1


def test_class_equality_builds_no_member(monkeypatch):
    # sym:6's 2a and 2b both hold 15 involutions, so they hash alike; the
    # classes of a group partition it, so one shared member decides, read
    # off the raw images with no permutation built
    G = construct("sym:6")
    a, b = (select_class(enumerate_classes(G), s) for s in ("2a", "2b"))
    assert (a.size, a.order) == (b.size, b.order) and hash(a) == hash(b)
    twin = ConjClass(G, G.from_perm(b.raw[-1]), b.size, b.order,
                     raw=b.raw[::-1])
    assert twin.representative != b.representative
    built, init = [], Permutation.__init__

    def counted(self, images):
        built.append(images)
        init(self, images)
    monkeypatch.setattr(Permutation, "__init__", counted)
    assert a != b and twin == b and b == twin and twin != a
    assert NormalSet([a, b, twin]).classes == (a, b)
    assert built == []


def test_normal_set_union():
    G = construct("sym:4")
    cls = enumerate_classes(G)
    S = NormalSet([c for c in cls if c.order == 2])
    assert S.size == 6 + 3
    assert len(S.elements) == 9


def test_class_of_uses_cache():
    G = construct("alt:5")
    cls = enumerate_classes(G)
    x = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
    c = class_of(G, x)
    assert c in cls and c.label in ("5a", "5b")


def test_class_of_uses_cache_on_the_image():
    G = construct("gl:2:3")
    cls = enumerate_classes(G)
    F = GF(3)
    x = SquareMatrix(F, [[0, 1], [1, 0]])
    c = class_of(G, x)
    assert c in cls and c.label is not None  # a fresh class has no label
    assert c.order == 2 and G.raw(x, "x") in c.raw
    # the lookup ran on raw images: the class found has not converted its
    # members
    assert c._elements is None
    assert x in c.elements


def test_class_cache_keeps_no_cycle():
    # the cache holds no ConjClass, so a dropped group is freed at once,
    # not at the collector's next full pass
    gc.disable()
    try:
        G = construct("gl:2:3")
        cls = enumerate_classes(G)
        assert class_of(G, cls[1].representative) == cls[1]
        ref = weakref.ref(G)
        del G, cls
        assert ref() is None
    finally:
        gc.enable()


def test_class_of_without_cache():
    G = construct("alt:4")
    x = Permutation.from_cycles(4, [(0, 1, 2)])
    c = class_of(G, x)
    assert c.size == 4 and c.order == 3


def test_selectors():
    G = construct("sym:6")
    cls = enumerate_classes(G)
    assert select_class(cls, "2c").size == 45
    assert select_class(cls, "order:5,size:144").order == 5
    assert select_class(cls, "size:45").size == 45
    fpf = select_class(cls, "fpf2")
    assert fpf.label == "2b"
    with pytest.raises(SelectorError):
        select_class(cls, "order:2")  # three involution classes
    with pytest.raises(SelectorError):
        select_class(cls, "order:6,size:120")  # six-cycles vs (abc)(de)
    with pytest.raises(SelectorError):
        select_class(cls, "9z")
    with pytest.raises(SelectorError):
        select_class(cls, "order:nope")
    with pytest.raises(SelectorError):
        select_class(enumerate_classes(construct("q8")), "fpf2")


# ---- classes on the permutation image ---------------------------------------
# The lists and digests below were captured before class enumeration moved
# onto the chain's permutation image, from the element-closure version.

with open(os.path.join(DATA, "pinned_classes.json"), encoding="utf-8") as _fh:
    PINNED = json.load(_fh)


def _pinned_group(name):
    return gammal2_9() if name == "gammal2_9" else construct(name)


def _digest(c):
    """sha256 prefix of the class's serialized members in serial_key order."""
    els = sorted(c.elements, key=serial_key)
    text = json.dumps([x.serialize() for x in els], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_class_lists(name):
    cls = enumerate_classes(_pinned_group(name))
    got = [[c.label, c.size, c.order, serial_key(c.representative)]
           for c in cls]
    assert json.loads(json.dumps(got)) == PINNED[name]["classes"]


def test_sl2_17_class_list_pinned():
    # 288 points: class orbits run on tuples, past the bytes kernel's 256
    with open(os.path.join(DATA, "pinned_sl2_17.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    G = construct(pinned["blueprint"])
    assert (G.chain.degree, G.order()) == (pinned["degree"], pinned["order"])
    got = [[c.label, c.size, c.order, serial_key(c.representative)]
           for c in enumerate_classes(G)]
    assert json.loads(json.dumps(got)) == pinned["classes"]


@pytest.mark.parametrize("name", [n for n in PINNED
                                  if PINNED[n]["digests"] is not None])
def test_pinned_class_members(name):
    cls = enumerate_classes(_pinned_group(name))
    assert [_digest(c) for c in cls] == PINNED[name]["digests"]


def test_members_convert_lazily():
    G = construct("gl:2:3")
    cls = enumerate_classes(G)
    assert all(c._elements is None for c in cls)
    c = select_class(cls, "3a")
    els = c.elements
    assert c.elements is els and len(els) == c.size == len(c.raw)
    assert all(isinstance(x, SquareMatrix) and G.raw(x, "x") in c.raw
               for x in els)
    assert all(k._elements is None for k in cls if k is not c)
    for k in enumerate_classes(construct("alt:5")):
        assert k.elements == frozenset(map(Permutation, k.raw))


def test_conjugacy_class_matches_enumeration():
    # sp:4:3 orbits under its generating pair, not its 5 generators; the
    # orbits run on a fresh group, which has no class cache to answer from
    for make in (lambda: construct("gl:2:3"), gammal2_9,
                 lambda: construct("sp:4:3")):
        fresh = make()
        for c in enumerate_classes(make()):
            assert class_of(fresh, c.representative).elements == c.elements
        assert getattr(fresh, "_classes", None) is None


def test_chain_streams_each_element_once():
    for G in (construct("gl:2:3"), construct("alt:5"), gammal2_9()):
        perms = list(map(Permutation, G.chain.raw_elements()))
        assert len(perms) == len(set(perms)) == G.order()
        assert frozenset(map(G.from_perm, perms)) == closure_enumerate(G.gens)


def test_cap_checked_before_enumeration(monkeypatch):
    monkeypatch.setattr(classes, "CLOSURE_CAP", 1000)
    with pytest.raises(Overflow) as err:
        enumerate_classes(construct("gl:3:3"))
    assert str(err.value) == "closure exceeds cap 1000"
    with pytest.raises(Overflow) as err:
        construct("gl:3:3").chain.raw_elements(cap=1000)
    assert str(err.value) == "closure exceeds cap 1000"


def test_order_does_not_depend_on_call_history():
    trivial = Group([], identity=SquareMatrix.identity(GF(5), 2))
    for G, n in ((construct("gl:2:3"), 48), (gammal2_9(), 11520),
                 (trivial, 1)):
        assert G.order() == n
        perms = map(Permutation, G.chain.raw_elements())
        assert len(frozenset(map(G.from_perm, perms))) == n
        assert G.order() == n
        enumerate_classes(G)
        assert G.order() == n


def _semilinear_file_group(seed, tmp_path):
    """The benchmark's seeded Gamma-L(2,9) generator file, as a group."""
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / ("gammal2_9_%d.gens" % seed)
    path.write_text(workloads.semilinear_text(seed))
    return construct("file:%s" % path)


def _assert_rank_orders_like_serial_key(G):
    """Sorting every image permutation by image_key gives the serial_key
    order of the elements, and no two ranks are equal; returns the pairs."""
    key = G.image_key()
    pairs = [(p, G.from_perm(p))
             for p in map(Permutation, G.chain.raw_elements())]
    ranks = [key(p) for p, _ in pairs]
    assert all(isinstance(r, int) for r in ranks)
    assert len(set(ranks)) == len(pairs) == G.order()
    assert ([p for p, _ in sorted(pairs, key=lambda t: key(t[0]))]
            == [p for p, _ in sorted(pairs, key=lambda t: serial_key(t[1]))])
    return pairs


@pytest.mark.parametrize("seed", [3, 0xBF])
def test_semilinear_key_read_off_the_image(seed, tmp_path):
    G = _semilinear_file_group(seed, tmp_path)
    pairs = _assert_rank_orders_like_serial_key(G)
    assert len(pairs) == 11520
    assert all(G.to_perm(x) == p for p, x in pairs)


def _gammal1_9():
    """Gamma-L(1,9) on w*frob: one basis point, so the rank reads one column."""
    F = GF(9)
    return Group([SemilinearElement(SquareMatrix(F, [[F.primitive()]]), 1)])


@pytest.mark.parametrize("make", [lambda: construct("sp:4:3"),
                                  lambda: construct("gl:3:3"), _gammal1_9],
                         ids=["sp:4:3", "gl:3:3", "gammal1_9"])
def test_matrix_key_read_off_the_image(make):
    _assert_rank_orders_like_serial_key(make())


def test_stream_base_cases():
    # no level: the trivial group streams exactly its identity
    G = construct("sym:1")
    assert list(G.chain.raw_elements()) == [b"\x00"]
    assert (list(map(Permutation, G.chain.raw_elements()))
            == [Permutation.identity(1)])
    assert [c.label for c in enumerate_classes(G)] == ["1a"]
    # one level: the transversal, in its own order
    chain = construct("cyclic:7").chain
    [level] = chain.levels
    assert (list(map(Permutation, chain.raw_elements()))
            == list(level.transversal.values()))
    assert (list(chain.raw_elements())
            == [bytes(t.images) for t in level.transversal.values()])


def test_wreath5_invariants_pinned():
    # the W5 invariants pinned on its 15,625 indexed elements, read off its
    # classes: order histogram, center size, derived order, class count
    G = construct("wreath:5")
    cls = enumerate_classes(G)
    hist = {}
    for c in cls:
        hist[c.order] = hist.get(c.order, 0) + c.size
    assert hist == {1: 1, 5: 5624, 25: 10000}
    assert sum(c.size == 1 for c in cls) == 5
    # G is 2-generated, so G' is the normal closure of one commutator
    base, top = G.gens
    comm = ~base * ~top * base * top
    assert Group(class_of(G, comm).elements).order() == 625
    assert len(cls) == 649


# ---- class orbits and least members on the raw-image kernel ------------------

def _d8_s3():
    """D8 x S3 on three generators, none to spare (its abelianization is
    C2^3), the third needed to conjugate the S3 factor's 3-cycle."""
    return Group([Permutation.from_cycles(7, [(0, 1, 2, 3), (4, 5, 6)]),
                  Permutation.from_cycles(7, [(1, 3)]),
                  Permutation.from_cycles(7, [(4, 5)])])


def _gl1_257():
    """GL(1,257) on its 256 nonzero scalars: bytes images, but codes up to
    256, past what a byte holds."""
    return Group([SquareMatrix(GF(257), [[3]])])


def _kernel_group(name, tmp_path):
    makers = {"gammal2_9-file": lambda: _semilinear_file_group(0xBF, tmp_path),
              "ea2^3": lambda: _elementary_abelian(2, 3),
              "ea3^3": lambda: _elementary_abelian(3, 3),
              "d8xs3": _d8_s3, "gl:1:257": _gl1_257}
    return makers[name]() if name in makers else construct(name)


@pytest.mark.parametrize("name", ["sym:6", "alt:8", "gl:3:3", "gammal2_9-file",
                                  "sl:2:17", "ea2^3", "ea3^3", "d8xs3"])
def test_class_orbits_are_the_tree_orbits(name, tmp_path):
    # member for member the orbit of the first member under the one-generator
    # conjugations: sl:2:17 has 288 points (tuples), and the last three have
    # three generators, so the last one is paired with itself
    G = _kernel_group(name, tmp_path)
    if name in ("ea2^3", "ea3^3", "d8xs3"):
        assert len(G.generating_pair()) == 3
    encode, _, conj = G.chain.kernel
    maps = [conj(encode(g.images)) for g in G.generating_pair()]
    key = G.image_key()
    cls = enumerate_classes(G)
    assert sum(c.size for c in cls) == G.order()
    for c in cls:
        assert c.raw == tuple(orbit([c.raw[0]], maps))
        assert c.representative == G.from_perm(min(c.raw, key=key))
    if name == "d8xs3":
        assert sorted(c.size for c in cls) == [1, 1, 2, 2, 2, 2, 2, 3, 3,
                                               4, 4, 4, 6, 6, 6]


@pytest.mark.parametrize("name", ["sym:6", "gl:3:3", "gammal2_9-file",
                                  "sl:2:17", "gl:1:257"])
def test_least_is_the_least_image_key(name, tmp_path):
    # sl:2:17 (tuple images) and gl:1:257 (codes past a byte) take min by key
    G = _kernel_group(name, tmp_path)
    if name == "gl:1:257":  # bytes images, but codes past a byte
        assert G.chain.degree == 256 and G.identity.field.q == 257
    key, rng = G.image_key(), random.Random(0x33)
    members = list(G.chain.raw_elements())
    tied = 0
    for size in (1, 2, 3, 8, 40, 300):
        for _ in range(8):
            raws = rng.sample(members, min(size, len(members)))
            low = min(raws, key=key)
            assert G.least(raws) == low
            if not isinstance(G.identity, Permutation):
                rows = [serial_key(G.from_perm(p))[0][0] for p in raws]
                tied += rows.count(serial_key(G.from_perm(low))[0][0]) > 1
    for c in enumerate_classes(G):
        assert G.least(c.raw) == min(c.raw, key=key)
    if name in ("gl:3:3", "gammal2_9-file"):
        assert tied  # image_key broke a tie on the first row


# ---- class seeds: powers of earlier seeds first, the stream after ------------

def _stream_seeded_classes(G):
    """(label, size, order, representative, members) per class, each class
    seeded by the next unplaced element of the chain's raw stream alone."""
    key, total, seen, found = G.image_key(), G.order(), set(), []
    for x in filterfalse(seen.__contains__, G.chain.raw_elements()):
        cls = G.class_orbit(x, seen, total)
        rep = Permutation(min(cls, key=key))
        found.append((element_order(rep), len(cls), key(rep), rep, cls))
        if len(seen) == total:
            break
    found.sort(key=lambda t: t[:3])
    counts, out = Counter(), []
    for order, size, _, rep, cls in found:
        out.append(("%d%s" % (order, classes._letter(counts[order])), size,
                    order, G.from_perm(rep), frozenset(cls)))
        counts[order] += 1
    return out


@pytest.mark.parametrize("name", ["sym:6", "alt:8", "gl:3:3", "gammal2_9-file",
                                  "sl:2:17", "ea2^3", "ea3^3", "d8xs3",
                                  "sp:4:3"])
def test_power_seeds_give_the_stream_seeded_classes(name, tmp_path):
    # only which member comes first in a class's raw may differ
    G = _kernel_group(name, tmp_path)
    want = _stream_seeded_classes(G)
    got = [(c.label, c.size, c.order, c.representative, frozenset(c.raw))
           for c in enumerate_classes(G)]
    assert got == want


def test_seeds_come_from_powers_before_the_stream(monkeypatch):
    # sp:4:3 pulls 29,739 stream elements when every seed comes from the
    # stream; the powers of earlier seeds leave it 744
    pulled = []
    stream = Chain.raw_elements

    def counted(self, cap=None):
        for x in stream(self, cap):
            pulled.append(x)
            yield x
    monkeypatch.setattr(Chain, "raw_elements", counted)
    cls = enumerate_classes(construct("sp:4:3"))
    assert len(cls) == 34 and sum(c.size for c in cls) == 51840
    assert len(pulled) < 1000


@pytest.mark.parametrize("name", ["cyclic:1000", "dihedral:2000"])
def test_small_classes_compose_at_most_one_power_per_element(name):
    # every class is small, so nearly every element seeds its own class;
    # only the powers of stream seeds are composed, never the powers of a
    # power, so the compositions (stream and powers) stay within |G|
    G = construct(name)
    total = G.order()
    encode, times, conj = G.chain.kernel
    composed = [0]

    def counted(g):
        t = times(g)

        def step(y):
            composed[0] += 1
            assert composed[0] <= total
            return t(y)
        return step
    G.chain.kernel = (encode, counted, conj)
    cls = enumerate_classes(G)
    assert sum(c.size for c in cls) == total
    assert len(cls) == {"cyclic:1000": 1000, "dihedral:2000": 503}[name]
