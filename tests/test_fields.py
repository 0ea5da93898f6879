"""Field arithmetic: axioms, Frobenius, orders, codecs."""

import hashlib
import json
import math

import pytest
from hypothesis import given, strategies as st

from bfl.fields import (DEFAULT_MODULI, GF, FIELD_SIZES, FieldSpec, factorize,
                        is_p_power, is_prime, root_of_unity, working_prime)


def test_all_shipped_sizes_construct():
    # every shipped modulus passes the irreducibility check
    assert set(DEFAULT_MODULI) <= set(FIELD_SIZES)
    for q in FIELD_SIZES:
        F = GF(q)
        assert F.q == q
        assert len(list(F.elements())) == q


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(4, 1)  # 4 is not prime
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(0, 0, 1))  # x^2, reducible
    with pytest.raises(ValueError, match=r"modulus, got \(2, 1\)"):
        FieldSpec(5, 1, modulus=(2, 1))  # a prime field takes no modulus
    assert FieldSpec(5, 1) == GF(5)
    assert hash(FieldSpec(5, 1)) == hash(GF(5))


@pytest.mark.parametrize("r, k, modulus", [
    (3, 2, (2, 0, 1)),                     # x^2 - 1 = (x - 1)(x + 1)
    (2, 12, (1, 0, 1) + (0,) * 9 + (1,)),  # x^12 + x^2 + 1 = (x^6 + x + 1)^2
    (2, 6, (1,) * 7),                      # (x^3 + x + 1)(x^3 + x^2 + 1)
    (2, 5, (1, 1, 0, 0, 0, 1)),            # x^5 + x + 1, a quadratic factor
], ids=["x2-1_gf3", "square_gf4096", "phi7_gf64", "x5+x+1_gf32"])
def test_reducible_modulus_rejected(r, k, modulus):
    with pytest.raises(ValueError, match="modulus"):
        FieldSpec(r, k, modulus=modulus)


@given(st.sampled_from([2, 3, 5, 7, 9, 8, 16, 25, 27]), st.data())
def test_field_axioms(q, data):
    F = GF(q)
    el = st.integers(min_value=0, max_value=q - 1)
    a, b, c = data.draw(el), data.draw(el), data.draw(el)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == 1
        assert F.div(b, a) == F.mul(b, F.inv(a))


@given(st.sampled_from([4, 8, 9, 16, 25, 27, 49, 81]), st.data())
def test_frobenius_is_pth_power(q, data):
    F = GF(q)
    a = data.draw(st.integers(min_value=0, max_value=q - 1))
    assert F.frobenius(a, 1) == F.pow(a, F.r)
    # Frobenius has order k: applying it k times is the identity
    assert F.frobenius(a, F.k) == a


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_table_is_the_pow_loop(q):
    F = GF(q)
    for e in range(-1, 2 * F.k):
        for a in range(q):
            want = a
            for _ in range(e % F.k):
                want = F.pow(want, F.r)
            assert F.frobenius(a, e) == want


def test_frobenius_fixed_field_is_prime_field():
    F = GF(9)
    fixed = [a for a in F.elements() if F.frobenius(a, 1) == a]
    assert sorted(fixed) == [0, 1, 2]


@given(st.sampled_from([5, 7, 9, 16, 27]))
def test_mult_order_divides_group_order(q):
    F = GF(q)
    for a in F.elements():
        if a:
            assert (q - 1) % len({F.pow(a, k) for k in range(1, F.q)}) == 0


def test_primitive_element():
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 81):
        F = GF(q)
        w = F.primitive()
        assert len({F.pow(w, k) for k in range(1, F.q)}) == q - 1


def test_codec_roundtrip():
    F = GF(27)
    for a in F.elements():
        assert F.encode(F.coeffs(a)) == a
    # z itself has code r
    assert F.coeffs(F.r) == (0, 1, 0)


def test_pow_edge_cases():
    F = GF(9)
    w = F.primitive()
    assert F.pow(w, 0) == 1
    assert F.pow(w, -1) == F.inv(w)
    assert F.pow(0, 5) == 0


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_is_prime():
    assert all(is_prime(n) == (factorize(n) == {n: 1})
               for n in range(-5, 5000))
    # strong pseudoprimes to the bases up to 2, 7, 23 and 37, and
    # Carmichael numbers (211 * 421 * 631 is a Fermat pseudoprime to
    # every base up to 41)
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461, 561, 41041, 211 * 421 * 631):
        assert not is_prime(n)
    for e in (31, 61, 89, 127):
        assert is_prime(2 ** e - 1)


@pytest.mark.parametrize("fac", [
    {2: 21, 3: 9, 5: 4, 7: 2, 11: 1, 13: 1, 23: 1},
    {2: 46, 3: 20, 5: 9, 7: 6, 11: 2, 13: 3, 17: 1, 19: 1, 23: 1, 29: 1,
     31: 1, 41: 1, 47: 1, 59: 1, 71: 1}], ids=["Co1", "M"])
def test_working_prime_and_root_at_sporadic_orders(fac):
    # what loading a character table computes: by trial division these
    # took hours (|Co1| ~ 4e18) or forever (|M| ~ 8e53)
    order, m = math.prod(p ** e for p, e in fac.items()), math.prod(fac)
    ell = working_prime(order, m)
    assert ell % m == 1 and ell > 2 * order
    z = root_of_unity(ell, m)
    assert pow(z, m, ell) == 1
    assert all(pow(z, m // p, ell) != 1 for p in fac)


def test_field_identity_map_is_cached():
    assert GF(9) is GF(9)
    assert GF(9) == FieldSpec(3, 2)
    assert GF(4) != GF(8)


def test_is_p_power():
    assert is_p_power(1, 3) and is_p_power(81, 3) and is_p_power(64, 2)
    assert not is_p_power(12, 2) and not is_p_power(5, 3)
    for n, p in ((0, 2), (-4, 2), (8, 1)):
        with pytest.raises(ValueError):
            is_p_power(n, p)


# digest of (ADD, MUL, NEG, INV, primitive()) per shipped size, pinned before
# the table reduction moved onto the shared F_p polynomial helpers
FIELD_TABLE_PINS = {
    2: "f19667db814442f4", 3: "9c9e72e96b9db824", 4: "9dee1dc9e92224f4",
    5: "084fe1a5673828b5", 7: "6d116f1febb201c1", 8: "07557619f2cccae4",
    9: "85a8a1141095eaec", 11: "e5fb74b6fed799c2", 13: "9107b76297fe91a7",
    16: "26cfab92adddbe89", 17: "7119a570c20c0301", 19: "eeb34d013cdaefbc",
    23: "2417cb8db284391e", 25: "6f607fb476fe042f", 27: "a019caa94c381c02",
    49: "8d9c79bf188fc862", 81: "7dd974f969fea9ba",
}


def test_field_tables_pinned():
    assert sorted(FIELD_TABLE_PINS) == sorted(FIELD_SIZES)
    for q in FIELD_SIZES:
        F = GF(q)
        text = json.dumps([F.ADD, F.MUL, F.NEG, F.INV, F.primitive()])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
            FIELD_TABLE_PINS[q], q


def raw_tables(F):
    """ADD, MUL, NEG, INV and FROB entry by entry on raw arithmetic."""
    q = F.q
    add = [[F._add_raw(a, b) for b in range(q)] for a in range(q)]
    mul = [[F._mul_raw(a, b) for b in range(q)] for a in range(q)]

    def rth_power(a):
        out = 1
        for _ in range(F.r):
            out = F._mul_raw(out, a)
        return out

    frob = [list(range(q))]
    for _ in range(1, F.k):
        frob.append([rth_power(a) for a in frob[-1]])
    return (add, mul, [row.index(0) for row in add],
            [0] + [mul[a].index(1) for a in range(1, q)], frob)


@pytest.mark.parametrize("q", sorted(DEFAULT_MODULI) + [2, 3, 5, 7, 11, 13])
def test_tables_are_the_raw_arithmetic(q):
    [(r, k)] = factorize(q).items()
    F = FieldSpec(r, k)
    assert (F.ADD, F.MUL, F.NEG, F.INV, F.FROB) == raw_tables(F)
