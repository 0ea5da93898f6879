"""Character tables: validation, structure constants, class-level pair test."""

import hashlib
import json
import math
import os
import random

import pytest

from bfl import charcompute, chartab
from bfl.catalog import construct
from bfl.charcompute import (SHIPPED_TABLES, _eigenvectors, _poly_roots,
                             build_table, structure_constants)
from bfl.chartab import (CharacterTable, TableError, parse_table, load_table,
                         class_constants, class_mult_count, product_support,
                         bf_pair_table)
from bfl.classes import enumerate_classes, serial_key
from bfl.groups import image_kernel
from bfl.cyclotomic import Cyclotomic
from bfl.report import HOLDS

TABLE_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                         "src", "bfl", "tables")

KNOWN_DEGREES = {
    "a5": (1, 3, 3, 4, 5),
    "s5": (1, 1, 4, 4, 5, 5, 6),
    "a6": (1, 5, 5, 8, 8, 9, 10),
    "s6": (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16),
    "pgl2_9": (1, 1, 8, 8, 8, 8, 9, 9, 10, 10, 10),
    "m10": (1, 1, 9, 9, 10, 10, 10, 16),
    "l2_7": (1, 3, 3, 6, 7, 8),
    "l2_8": (1, 7, 7, 7, 7, 8, 9, 9, 9),
    "l2_11": (1, 5, 5, 10, 10, 11, 12, 12),
}

TRIVIAL = {"name": "triv", "order": 1,
           "classes": [{"size": 1, "element_order": 1, "powermap": {}}],
           "irreducibles": [[1]]}


def shipped(name):
    return parse_table(os.path.join(TABLE_DIR, name + ".json"))


# -- parsing and validation -------------------------------------------------

def test_shipped_a5_table():
    T = shipped("a5")
    assert T.n_classes == 5
    assert T.degrees == (1, 3, 3, 4, 5)
    assert sum(d * d for d in T.degrees) == 60


@pytest.mark.parametrize("name", [n for n, _ in SHIPPED_TABLES])
def test_all_shipped_tables_validate(name):
    T = shipped(name)
    assert T.degrees == KNOWN_DEGREES[name]
    assert sum(T.size(k) for k in range(T.n_classes)) == T.order


def test_trivial_table():
    T = CharacterTable.from_json(TRIVIAL)
    assert T.n_classes == 1 and T.degrees == (1,)


def test_corrupted_value_is_rejected():
    obj = json.loads(json.dumps(shipped("a5").to_json()))
    obj["irreducibles"][2][1] = 9
    with pytest.raises(TableError, match="orthogonality"):
        CharacterTable.from_json(obj)


def test_wrong_shape_rejected():
    obj = dict(TRIVIAL)
    obj["irreducibles"] = [[1], [1]]
    with pytest.raises(TableError, match="size mismatch"):
        CharacterTable.from_json(obj)


def test_degree_sum_enforced():
    obj = json.loads(json.dumps(shipped("a5").to_json()))
    obj["irreducibles"][1][0] = 2
    with pytest.raises(TableError):
        CharacterTable.from_json(obj)


@pytest.mark.parametrize("key", ["0", "4"])
def test_powermap_key_must_be_a_prime_dividing_the_order(key):
    # 0 must not divide by zero; 4 divides 60 but is not a prime
    obj = json.loads(json.dumps(shipped("a5").to_json()))
    obj["classes"][1]["powermap"][key] = 0
    with pytest.raises(TableError, match=r"^a5: powermap key %s is not a "
                       r"prime dividing the order 60$" % key):
        CharacterTable.from_json(obj)


def test_parse_errors():
    with pytest.raises(TableError, match="cannot read"):
        parse_table("/nonexistent/nowhere.json")


def test_load_table_by_name_and_env(tmp_path, monkeypatch):
    assert load_table("a5").name == "a5"
    with pytest.raises(TableError, match="no table named"):
        load_table("zz9")
    alt = dict(TRIVIAL, name="a5")
    (tmp_path / "a5.json").write_text(json.dumps(alt))
    monkeypatch.setenv("BFL_TABLE_DIR", str(tmp_path))
    assert load_table("a5").order == 1  # env dir shadows the packaged file


# -- structure constants ----------------------------------------------------

def brute_count(G, cls, i, j, e):
    """#{(c,d) in C_i x C_j : c*d = e} by direct enumeration of c."""
    n = 0
    for c in cls[i].elements:
        if ~c * e in cls[j].elements:
            n += 1
    return n


@pytest.mark.parametrize("bp", ["sym:3", "sym:4", "dihedral:4", "q8"])
def test_counts_match_brute_force_everywhere(bp):
    G = construct(bp)
    cls = enumerate_classes(G)
    T = build_table(G, bp)
    for i in range(T.n_classes):
        for j in range(T.n_classes):
            for k in range(T.n_classes):
                want = brute_count(G, cls, i, j, cls[k].representative)
                assert class_mult_count(T, i, j, k) == want


def test_s4_transposition_pair_count():
    G = construct("sym:4")
    cls = enumerate_classes(G)
    T = build_table(G, "s4")
    i = next(k for k, C in enumerate(cls) if C.order == 2 and C.size == 6)
    e = next(k for k, C in enumerate(cls) if C.order == 3)
    want = brute_count(G, cls, i, i, cls[e].representative)
    assert want > 0
    assert class_mult_count(T, i, i, e) == want


def test_identity_column_normalization():
    T = shipped("a5")
    for i in range(T.n_classes):
        for e in range(T.n_classes):
            assert class_mult_count(T, i, 0, e) == (1 if e == i else 0)


def test_residue_out_of_range_is_not_a_count():
    # a5's ell is 151; one more in a weight of the degree-3 character adds
    # chi(2a)^2 |2a|^2 = 225 = 74 (mod 151) to the 15 of (1,1,0)
    T = shipped("a5")
    assert (T.ell, T.size(1), class_mult_count(T, 1, 1, 0)) == (151, 15, 15)
    assert T.degrees[1] == 3 and T.chi[1][1] == 150
    T.weights[1][0] = (T.weights[1][0] + 1) % T.ell
    with pytest.raises(TableError, match=r"^a5: structure constant \(1,1,0\) "
                       r"is 89 mod 151, not a count$"):
        class_mult_count(T, 1, 1, 0)


def test_single_constant_reads_only_its_column():
    # the bad weight of column 0 fails the whole row and that one entry, and
    # leaves every other single entry as it was
    good = class_constants(shipped("a5"), 1, 1)
    T = shipped("a5")
    T.weights[1][0] = (T.weights[1][0] + 1) % T.ell
    with pytest.raises(TableError, match=r"\(1,1,0\)"):
        class_constants(T, 1, 1)
    assert [class_mult_count(T, 1, 1, k)
            for k in range(1, T.n_classes)] == good[1:]


def test_a5_five_class_self_product_positive():
    T = shipped("a5")
    five = [k for k in range(T.n_classes) if T.element_order(k) == 5]
    for k in five:
        assert class_mult_count(T, k, k, k) > 0


def test_row_sum_identity():
    """Sum over e of count * |C_e| recovers |C_i| * |C_j|."""
    for name in ("a5", "s6", "l2_8"):
        T = shipped(name)
        for i in range(T.n_classes):
            for j in range(T.n_classes):
                total = sum(class_mult_count(T, i, j, e) * T.size(e)
                            for e in range(T.n_classes))
                assert total == T.size(i) * T.size(j)


def test_support_of_identity_product():
    T = shipped("s5")
    for i in range(T.n_classes):
        assert set(product_support(T, i, 0)) == {i}


# -- class-level pair test --------------------------------------------------

def test_s6_involution_pair_holds():
    T = shipped("s6")
    # classes sorted by (order, size, representative): transpositions come
    # before the fixed-point-free class, both size 15
    assert (T.element_order(1), T.size(1)) == (2, 15)
    assert (T.element_order(2), T.size(2)) == (2, 15)
    v = bf_pair_table(T, 2, 1, 2)
    assert v.status == HOLDS
    assert all(T.element_order(k) in (1, 2, 4)
               for k in product_support(T, 2, 1))


def test_a5_five_class_fails():
    T = shipped("a5")
    five = [k for k in range(T.n_classes) if T.element_order(k) == 5]
    v = bf_pair_table(T, five[0], five[0], 5)
    assert v.status == "fails"
    assert v.witnesses  # offending classes listed


def test_identity_pair_iff_p_elements():
    T = shipped("s6")
    for k in range(T.n_classes):
        v = bf_pair_table(T, k, 0, 2)
        o = T.element_order(k)
        while o % 2 == 0:
            o //= 2
        assert (v.status == HOLDS) == (o == 1)


def test_m10_has_exactly_six_holding_pairs():
    T = shipped("m10")
    two = [k for k in range(1, T.n_classes)
           if T.element_order(k) in (2, 4, 8)]
    profiles = []
    for a in range(len(two)):
        for b in range(a, len(two)):
            if bf_pair_table(T, two[a], two[b], 2).status == HOLDS:
                profiles.append(tuple(sorted((T.element_order(two[a]),
                                              T.element_order(two[b])))))
    assert sorted(profiles) == [(2, 4), (2, 8), (2, 8),
                                (4, 4), (4, 8), (4, 8)]


# -- provenance -------------------------------------------------------------

@pytest.mark.parametrize("name,bp", [("a5", "alt:5"), ("l2_7", "psl2:7")])
def test_shipped_files_match_regeneration(name, bp):
    obj = build_table(construct(bp), name).to_json()
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    with open(os.path.join(TABLE_DIR, name + ".json"), encoding="utf-8") as fh:
        assert fh.read() == text


def test_sl2_17_constants_and_table_pinned():
    # 288 points: products run on tuples, past the bytes kernel's 256
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "pinned_sl2_17.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    G = construct(pinned["blueprint"])
    assert G.chain.degree == pinned["degree"] > 256
    assert structure_constants(G)[2] == pinned["structure_constants"]
    text = json.dumps(build_table(G, "sl2_17").to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pinned["table_sha256"]


def test_generator_rejects_wrong_constants(monkeypatch):
    T = build_table(construct("sym:3"), "s3")
    assert T.degrees == (1, 1, 2)
    # sym:3 classes: 1, the transpositions (3), the 3-cycles (2); (2,1,2)
    # is the mirror of the counted (1,2,2), (2,2,0) a diagonal constant
    # a corrupted (2,1,2) enters M_t, so the degrees go wrong before the
    # cross-check
    for (i, j, k), message in (((2, 1, 2), r"^degree squared 23 is not a "
                                           r"square$"),
                               ((2, 2, 0), None)):
        def off_by_one(G):
            cls, loc, a = structure_constants(G)
            a[i][j][k] += 1
            return cls, loc, a
        monkeypatch.setattr(charcompute, "structure_constants", off_by_one)
        with pytest.raises(AssertionError, match=message):
            build_table(construct("sym:3"), "s3")


@pytest.mark.parametrize("bp", ["psl2:7", "sym:5", "gl:2:3"])
def test_structure_constants_either_orientation(bp):
    """Each pair is counted over one class; both orders equal the count of
    |C_i| * #{d in C_j : x_i d in C_k} / |C_k| over every member of C_j."""
    G = construct(bp)
    cls, _, a = structure_constants(G)
    assert len({C.size for C in cls}) > 2
    loc = {tuple(x): k for k, C in enumerate(cls) for x in C.raw}
    r = len(cls)
    for i in range(r):
        x = G.to_perm(cls[i].representative).images
        for j in range(r):
            hits = [0] * r
            for d in cls[j].raw:
                hits[loc[tuple(x[t] for t in d)]] += 1
            for k in range(r):
                assert a[i][j][k] * cls[k].size == cls[i].size * hits[k], \
                    (i, j, k)


def test_indivisible_count_names_the_constant(monkeypatch):
    G = construct("sym:3")
    cls = enumerate_classes(G)
    assert [C.size for C in cls] == [1, 3, 2]
    cls[2].size = 4  # a transposition times the 3 transpositions: 2 3-cycles
    monkeypatch.setattr(charcompute, "enumerate_classes", lambda H: cls)
    with pytest.raises(AssertionError, match=r"^\(1,1,2\): 2 hits times class "
                       r"size 3 is not divisible by class size 4$"):
        structure_constants(G)


def test_eigenvectors_of_a_generic_combination():
    # neither matrix separates the three lines alone; M_2 = M_0 + 2 M_1
    # has roots 3, 5, 6 mod 7, each with one unit eigenvector
    M0 = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    M1 = [[1, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert _eigenvectors([M0, M1], 7) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_abelian_table_needs_ell_above_r_cubed():
    # at ell = working_prime(20, 20) = 61 no t separates cyclic:20's 20
    # characters; ell > 2 r^3 keeps [2, r^3 + 1] apart mod ell
    T = build_table(construct("cyclic:20"), "c20")
    assert T.n_classes == 20 and T.degrees == (1,) * 20


def test_eigenvectors_reject_inseparable_matrices():
    eye = [[1, 0], [0, 1]]
    with pytest.raises(AssertionError, match=r"^no M_t for t in \[2, 9\] has "
                       r"2 distinct roots mod 13$"):
        _eigenvectors([eye, eye], 13)


def _times(x, y):
    """The product of two cyclotomic integers, over the lcm conductor."""
    m = math.lcm(x.m, y.m)
    c = [0] * m
    for s, a in enumerate(x.c):
        for t, b in enumerate(y.c):
            c[(s * (m // x.m) + t * (m // y.m)) % m] += a * b
    return Cyclotomic(m, c)


def _direct_product(T, U):
    """The table of T's group times U's: classes and characters are pairs,
    and values multiply; power maps play no part in the class algebra."""
    classes = [{"size": c["size"] * d["size"],
                "element_order": math.lcm(c["element_order"],
                                          d["element_order"]),
                "powermap": {}} for c in T.classes for d in U.classes]
    rows = [[_times(x, y) for x in row for y in col]
            for row in T.irreducibles for col in U.irreducibles]
    return CharacterTable(T.name + "x" + U.name, T.order * U.order, classes,
                          rows)


def test_direct_product_constants_are_exact():
    T, U = build_table(construct("psl2:27"), "l2_27"), shipped("a6")
    P = _direct_product(T, U)
    assert (P.order, P.n_classes) == (3538080, 112)
    rng = random.Random(0xBF)
    hits = 0
    for _ in range(400):
        ijk = [rng.randrange(T.n_classes) for _ in range(3)]
        uvw = [rng.randrange(U.n_classes) for _ in range(3)]
        want = class_mult_count(T, *ijk) * class_mult_count(U, *uvw)
        got = class_mult_count(P, *(a * U.n_classes + b
                                    for a, b in zip(ijk, uvw)))
        assert got == want, (ijk, uvw)
        hits += want > 0
    assert hits > 100


def test_every_shipped_table_rebuilds_identically():
    for name, bp in SHIPPED_TABLES:
        assert (build_table(construct(bp), name).to_json()
                == load_table(name).to_json()), name


# the table of a matrix group, captured before structure constants moved
# onto the permutation image; the power maps cross back through to_perm
GL2_3_TABLE = {
    "classes": [
        {"element_order": 1, "powermap": {"2": 0, "3": 0}, "size": 1},
        {"element_order": 2, "powermap": {"2": 0, "3": 1}, "size": 1},
        {"element_order": 2, "powermap": {"2": 0, "3": 2}, "size": 12},
        {"element_order": 3, "powermap": {"2": 3, "3": 0}, "size": 8},
        {"element_order": 4, "powermap": {"2": 1, "3": 4}, "size": 6},
        {"element_order": 6, "powermap": {"2": 3, "3": 1}, "size": 8},
        {"element_order": 8, "powermap": {"2": 4, "3": 6}, "size": 6},
        {"element_order": 8, "powermap": {"2": 4, "3": 7}, "size": 6}],
    "irreducibles": [
        [1, 1, -1, 1, 1, 1, -1, -1],
        [1, 1, 1, 1, 1, 1, 1, 1],
        [2, -2, 0, {"c": [0, 1, 1], "m": 3}, 0,
         {"c": [0, 1, -1, 0, 0, 0], "m": 6},
         {"c": [0, -1, 0, -1, 0, 0, 0, 0], "m": 8},
         {"c": [0, 1, 0, 1, 0, 0, 0, 0], "m": 8}],
        [2, -2, 0, {"c": [0, 1, 1], "m": 3}, 0,
         {"c": [0, 1, -1, 0, 0, 0], "m": 6},
         {"c": [0, 1, 0, 1, 0, 0, 0, 0], "m": 8},
         {"c": [0, -1, 0, -1, 0, 0, 0, 0], "m": 8}],
        [2, 2, 0, {"c": [0, 1, 1], "m": 3}, 2,
         {"c": [0, -1, 1, 0, 0, 0], "m": 6}, 0, 0],
        [3, 3, -1, 0, -1, {"c": [1, -1, 1, 0, 0, 0], "m": 6}, 1, 1],
        [3, 3, 1, 0, -1, {"c": [1, -1, 1, 0, 0, 0], "m": 6}, -1, -1],
        [4, -4, 0, 1, 0, {"c": [-2, 1, -1, 0, 0, 0], "m": 6}, 0, 0]],
    "name": "gl2_3", "order": 48}


def test_matrix_group_table_pinned():
    got = build_table(construct("gl:2:3"), "gl2_3").to_json()
    assert json.loads(json.dumps(got)) == GL2_3_TABLE


def _expand(roots, ell):
    """Coefficients c_0..c_d of prod (x - r) mod ell."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [(s - r * c) % ell for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def _scan_roots(coeffs, ell):
    return [x for x in range(ell)
            if not sum(c * pow(x, k, ell) for k, c in enumerate(coeffs)) % ell]


@pytest.mark.parametrize("ell", [97, 101])
@pytest.mark.parametrize("roots", [
    [],  # the constant polynomials 1 and 3
    [5], [0], [0, 0, 3], [7, 7, 7, 2], [1, 2, 3, 4, 5, 6],
    [96, 0, 50, 50, 13, 88, 1], list(range(0, 90, 9)),
])
def test_poly_roots_match_scan(ell, roots):
    for lead in (1, 3):
        coeffs = [(lead * c) % ell for c in _expand(roots, ell)]
        assert _poly_roots(coeffs, ell) == sorted(set(roots))
        assert _poly_roots(coeffs, ell) == _scan_roots(coeffs, ell)
    # a factor with no root in F_ell (x^2 - a non-residue) changes nothing
    nonres = next(a for a in range(2, ell) if pow(a, (ell - 1) // 2, ell) != 1)
    coeffs = _expand(roots, ell)
    mixed = [0] * (len(coeffs) + 2)
    for k, c in enumerate(coeffs):
        mixed[k] = (mixed[k] - nonres * c) % ell
        mixed[k + 2] = (mixed[k + 2] + c) % ell
    assert _poly_roots(mixed, ell) == _scan_roots(mixed, ell)


# -- one pass per class pair, one count per class triple ---------------------

def column_count(T, i, j, k):
    """a_ijk by the column formula, one sum over the characters per k."""
    return (sum(row[i] * row[j] * w[k] for row, w in zip(T.chi, T.weights))
            * T.size(i) * T.size(j) % T.ell)


def test_class_constants_are_the_column_formula():
    tables = [shipped(name) for name, _ in SHIPPED_TABLES]
    tables += [build_table(construct("alt:8"), "alt8"),
               build_table(construct("psl2:27"), "l2_27")]
    for T in tables:
        r = T.n_classes
        for i in range(r):
            for j in range(r):
                want = [column_count(T, i, j, k) for k in range(r)]
                assert class_constants(T, i, j) == want, (T.name, i, j)
                assert product_support(T, i, j) == {
                    k: n for k, n in enumerate(want) if n}


def test_each_class_pair_row_is_evaluated_once_per_table(monkeypatch):
    rows = []
    evaluate = chartab._counts

    def counted(T, i, j, ks, columns):
        rows.append((i, j))
        return evaluate(T, i, j, ks, columns)

    monkeypatch.setattr(chartab, "_counts", counted)
    T = build_table(construct("alt:5"), "a5x")
    r = T.n_classes
    assert sorted(rows) == [(i, j) for i in range(r) for j in range(r)]
    for i in range(r):
        for j in range(r):
            product_support(T, i, j)
            bf_pair_table(T, i, j, 2)
    assert len(rows) == r * r


def test_a_returned_row_is_the_callers_own():
    T = shipped("a5")
    row = class_constants(T, 1, 1)
    want = list(row)
    row[0] += 1
    row.append(7)
    assert class_constants(T, 1, 1) == want
    assert class_constants(T, 1, 1) is not class_constants(T, 1, 1)


def all_pairs_constants(G):
    """Every unordered class pair counted, the larger class's representative
    against the members of the smaller."""
    cls = enumerate_classes(G)
    loc = {x: k for k, C in enumerate(cls) for x in C.raw}
    r = len(cls)
    encode, times, _ = image_kernel(G.chain.degree)
    reps = [times(encode(G.to_perm(C.representative).images)) for C in cls]
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            big, small = (i, j) if cls[i].size >= cls[j].size else (j, i)
            hits = [0] * r
            for x in map(reps[big], cls[small].raw):
                hits[loc[x]] += 1
            for k in range(r):
                a[i][j][k] = a[j][i][k] = (cls[big].size * hits[k]
                                           // cls[k].size)
    return a


@pytest.mark.parametrize("bp", ["sym:3", "sym:4", "q8", "gl:2:3", "psl2:7",
                                "sym:5", "alt:8", "psl2:27"])
def test_structure_constants_are_the_all_pairs_count(bp):
    G = construct(bp)
    a = structure_constants(G)[2]
    assert a == all_pairs_constants(G)
    r = len(a)
    assert all(a[i][j] is not a[j][i] for i in range(r) for j in range(i))
