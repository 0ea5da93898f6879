"""Group constructors: orders against closed formulas, special elements."""

import hashlib
import random
from collections import Counter

import pytest

from bfl.fields import GF
from bfl.elements import SquareMatrix, compose
from bfl.catalog import (
    GroupBlueprint, parse_blueprint, construct, special_element,
    order_formula, gram_matrix, bilinear, preserves_bilinear,
    reflection_matrix, _grow_to_order,
)
from bfl import catalog
from bfl.groups import Chain, Group
from bfl.classes import enumerate_classes


def test_parse_roundtrip():
    for s in ("sym:6", "alt:5", "cyclic:7", "dihedral:8", "q8", "wreath:3",
              "sl:2:7", "gl:4:3", "sp:4:3", "gu:2:3", "su:3:2",
              "go_odd:3:9", "go_plus:4:3", "go_minus:2:5",
              "psl2:9", "psl2:9:diagfrob", "file:/tmp/x"):
        assert str(parse_blueprint(s)) == s


def test_parse_errors():
    for s in ("nope:3", "sym:13", "alt:2", "sl:9:3", "sl:2:6", "sl:2:32",
              "sp:3:3", "go_odd:4:3", "go_plus:3:3", "go_odd:3:4",
              "psl2:9:outer", "psl2:4:diag", "psl2:7:frob", "gu:2:8",
              "dihedral:7", "dihedral:20002", "wreath:4", "q8:2", "sym"):
        with pytest.raises(ValueError):
            parse_blueprint(s)


KNOWN_ORDERS = [
    ("sym:1", 1), ("sym:2", 2), ("sym:6", 720),
    ("alt:3", 3), ("alt:5", 60), ("alt:6", 360),
    ("cyclic:7", 7), ("dihedral:4", 4), ("dihedral:8", 8), ("dihedral:12", 12),
    ("q8", 8), ("wreath:2", 8), ("wreath:3", 81),
    ("sl:2:3", 24), ("sl:2:4", 60), ("sl:2:7", 336), ("sl:2:8", 504),
    ("sl:2:9", 720), ("sl:2:25", 15600), ("sl:2:27", 19656),
    ("sl:3:2", 168), ("sl:3:3", 5616), ("sl:3:4", 60480),
    ("gl:2:2", 6), ("gl:2:3", 48), ("gl:2:4", 180), ("gl:2:5", 480),
    ("sp:2:3", 24), ("sp:4:3", 51840),
    ("gu:2:2", 18), ("gu:2:3", 96), ("gu:3:2", 648),
    ("su:2:3", 24), ("su:3:2", 216),
    ("go_odd:3:3", 48), ("go_odd:3:5", 240),
    ("go_plus:2:5", 8), ("go_minus:2:3", 8),
    ("go_plus:4:3", 1152), ("go_minus:4:3", 1440),
    ("psl2:5", 60), ("psl2:7", 168), ("psl2:8", 504), ("psl2:9", 360),
    ("psl2:9:diag", 720), ("psl2:9:frob", 720), ("psl2:9:diagfrob", 720),
    ("psl2:7:diag", 336),
]


@pytest.mark.parametrize("bp,expected", KNOWN_ORDERS)
def test_known_orders(bp, expected):
    blueprint = parse_blueprint(bp)
    assert order_formula(blueprint) == expected
    G = construct(blueprint)
    assert G.order() == expected
    # sl, gl and the grown groups build with the formula as an order hint;
    # a chain without it checks the formula instead of assuming it
    chain = Chain(G.chain.degree)
    chain.build(G.image_gens)
    assert chain.order() == expected


def test_gl4_3_is_sl4_3_extended_by_two():
    assert order_formula(parse_blueprint("gl:4:3")) == 2 * 12130560
    assert construct("gl:4:3").order() == 24261120


def test_psl2_9_extensions_are_distinct():
    """Same order 720, different element-order spectra."""
    spectra = {}
    for ext in ("diag", "frob", "diagfrob"):
        G = construct("psl2:9:%s" % ext)
        spectra[ext] = {c.order for c in enumerate_classes(G)}
    assert 10 in spectra["diag"] and 6 not in spectra["diag"]
    assert 6 in spectra["frob"] and 8 not in spectra["frob"]
    assert 8 in spectra["diagfrob"]
    assert 6 not in spectra["diagfrob"] and 10 not in spectra["diagfrob"]


def test_q8_structure():
    G = construct("q8")
    cls = enumerate_classes(G)
    assert sorted(c.order for c in cls) == [1, 2, 4, 4, 4]
    # a single involution: -I
    invol = [c for c in cls if c.order == 2]
    assert len(invol) == 1 and invol[0].size == 1


def test_wreath2_is_dihedral8():
    G = construct("wreath:2")
    sizes = sorted(c.size for c in enumerate_classes(G))
    H = construct("dihedral:8")
    assert sizes == sorted(c.size for c in enumerate_classes(H))


def test_special_reflection_fixes_perp():
    bp = parse_blueprint("go_odd:3:3")
    F = GF(3)
    gram = gram_matrix(bp)
    v = (0, 0, 1)
    R = reflection_matrix(F, gram, v)
    assert compose(R, R).is_identity()
    assert R.det() == F.neg(1)
    perp = [w for w in
            ((a, b, c) for a in range(3) for b in range(3) for c in range(3))
            if bilinear(F, gram, w, v) == 0]
    assert all(R.apply(w) == w for w in perp)
    assert construct(bp).contains(R)


def test_special_reflection_isotropic_rejected():
    gram = gram_matrix(parse_blueprint("go_odd:3:3"))
    with pytest.raises(ValueError):
        reflection_matrix(GF(3), gram, (1, 0, 0))  # B(e0,e0)=0


def test_special_pm_i():
    c = special_element("sl:4:3", "pm_i_element")
    F = GF(3)
    minus = SquareMatrix.identity(F, 4).scale(F.neg(1))
    assert compose(c, c) == minus
    assert construct("sl:4:3").contains(c)
    with pytest.raises(ValueError):
        special_element("sl:3:3", "pm_i_element")


def test_special_gl_reflection():
    # the reflection in e_0 for the identity form: diag(-1, 1, 1, 1)
    F = GF(3)
    R = special_element("gl:4:3", "reflection")
    assert R == SquareMatrix.diagonal(F, [F.neg(1), 1, 1, 1])
    assert construct("gl:4:3").contains(R)
    # gl:4:2's "reflection" was the identity: x - 2 B(x, v) v is x when 2 = 0
    for bp, kind in (("go_odd:3:3", "reflection"), ("gl:4:2", "reflection"),
                     ("sym:6", "transposition")):
        with pytest.raises(ValueError):
            special_element(bp, kind)


def test_sp_generators_preserve_form():
    bp = parse_blueprint("sp:4:3")
    G = construct(bp)
    gram = gram_matrix(bp)
    assert all(preserves_bilinear(g, gram) for g in G.gens)


def test_go_generators_preserve_form_and_meta():
    for s in ("go_odd:3:3", "go_plus:4:3", "go_minus:2:5"):
        bp = parse_blueprint(s)
        G = construct(bp)
        gram = gram_matrix(bp)
        assert all(preserves_bilinear(g, gram) for g in G.gens)


def test_go_odd_3_3_has_pgl2_3_shape():
    """GO3(3) = {+-1} x SO3(3) with SO3(3) of order 24 acting as PGL2(3)."""
    G = construct("go_odd:3:3")
    assert G.order() == 48
    F = GF(3)
    minus = SquareMatrix.identity(F, 3).scale(2)
    assert G.contains(minus)
    sizes = sorted(c.size for c in enumerate_classes(G))
    assert sum(sizes) == 48


def test_blueprint_equality_and_meta():
    assert parse_blueprint("sl:2:7") == GroupBlueprint("sl", n=2, q=7)
    G = construct("sym:6")
    assert G.name == "sym:6"


# generator lists chosen by _grow_to_order, pinned when it still rebuilt a
# chain per candidate; entries row by row
GROWN_GENERATORS = {
    "go_odd:3:9": ['100010002', '100111102', '100216602', '111010012',
                   '872782226'],
    "sp:6:2": ['100001010000001000000100000010000001',
               '100000010010001000000100000010000001',
               '100000010000001100000100000010000001',
               '100000010000001000001100000010000001',
               '100000010000001000000100010010000001',
               '100000010000001000000100000010100001',
               '100011010011001000000100000010000001',
               '100101010000001101000100000010000001'],
    "gu:3:3": ['100010006', '100060001', '100054045', '600010001',
               '504010405'],
    # pinned before the su and go pools shared one rank-one matrix builder
    "su:3:2": ['100001010', '100003020', '001010100', '322232331',
               '321231111'],
    "su:3:3": ['100044057', '100047087', '404010507'],
    "go_plus:4:3": ['1000010000020020', '1000010000010010',
                    '1000212220022020', '1000112110012010',
                    '1222010002020220'],
    "go_minus:4:3": ['1000010000100002', '1000010000200001',
                     '1000010000020020', '1000110100101002',
                     '1101010000100102'],
}


@pytest.mark.parametrize("bp", sorted(GROWN_GENERATORS))
def test_grown_generator_lists_pinned(bp):
    G = construct(bp)
    got = ["".join(str(c) for row in g.serialize()["rows"] for c in row)
           for g in G.gens]
    assert got == GROWN_GENERATORS[bp]
    assert G.order() == order_formula(parse_blueprint(bp))


def _reference_grow(pool, target):
    """The accepted generators of _grow_to_order, each group built fresh,
    with no images shared between them."""
    gens, G = [], None
    for cand in pool:
        if G is None or not G.contains(cand):
            gens.append(cand)
            G = Group(gens, order=target)
            if G.order() == target:
                return gens
    raise AssertionError("pool exhausted")


def _random_digest(chain):
    rng, h = random.Random(2024), hashlib.sha256()
    for _ in range(200):
        h.update(str(chain.random(rng).images).encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("bp", ["sp:6:2", "go_odd:5:3", "go_odd:3:9",
                                "gu:3:3", "su:3:3", "go_minus:4:3"])
def test_grown_construct_matches_a_fresh_build(bp, monkeypatch):
    # the groups of one construct share their generators' vector images:
    # each accepted generator is evaluated at most once per vector, and the
    # final group is the one Group(final gens, order=formula) builds
    grow, pools, evaluations = _grow_to_order, [], Counter()
    apply = SquareMatrix.apply

    def counted(g, v):
        evaluations[id(g), v] += 1
        return apply(g, v)

    def grow_counted(pool, target, name):
        pool = list(pool)  # its products are made before counting starts
        pools.append(pool)
        monkeypatch.setattr(SquareMatrix, "apply", counted)
        try:
            return grow(pool, target, name)
        finally:
            monkeypatch.setattr(SquareMatrix, "apply", apply)

    monkeypatch.setattr(catalog, "_grow_to_order", grow_counted)
    G = construct(bp)
    monkeypatch.undo()
    target = order_formula(parse_blueprint(bp))
    assert G.order() == target
    assert G.gens == _reference_grow(pools[0], target)
    accepted = {id(g) for g in G.gens}
    assert max(n for (g, _), n in evaluations.items() if g in accepted) == 1
    fresh = Group(G.gens, order=target)
    assert G.action.points == fresh.action.points
    assert G.action.perms == fresh.action.perms
    assert _random_digest(G.chain) == _random_digest(fresh.chain)


def test_grow_to_order_reports_an_exhausted_pool():
    # the order hint never lets a pool that misses its target pass
    pool = construct("sl:2:27").gens[:2]  # they generate C3 x C3
    with pytest.raises(RuntimeError,
                       match="pool exhausted below order 19656"):
        _grow_to_order(pool, 19656, "sl:2:27")
