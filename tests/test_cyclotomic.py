"""Cyclotomic residues and serialization."""

import math

import pytest
from hypothesis import given, strategies as st

from bfl.cyclotomic import Cyclotomic
from bfl.fields import root_of_unity, working_prime


def at(x, w, m, ell):
    """x's residue when zeta_m maps to w; x's conductor divides m."""
    return x.residue(pow(w, m // x.m, ell), ell)


def test_integer_roundtrip():
    x = Cyclotomic.integer(-7)
    assert x.m == 1 and x.as_int() == -7
    assert x.to_json() == -7
    assert Cyclotomic.from_json(-7) == x


def test_root_values():
    z = root_of_unity(13, 4)
    assert z == 8 and z * z % 13 == 12
    assert Cyclotomic(4, (0, 1, 0, 0)).residue(z, 13) == z
    assert Cyclotomic(4, (3, 0, 2, 0)).residue(z, 13) == 1
    assert Cyclotomic(2, (0, 1)).residue(12, 13) == 12


def test_bad_shapes():
    with pytest.raises(ValueError):
        Cyclotomic(0, ())
    with pytest.raises(ValueError):
        Cyclotomic(3, (1, 2))
    with pytest.raises(ValueError):
        Cyclotomic.from_json({"m": 3})
    with pytest.raises(ValueError):
        Cyclotomic.from_json(True)
    with pytest.raises(ValueError):
        Cyclotomic.from_json("5")


def test_as_int_rejects_irrational():
    golden_part = Cyclotomic(5, (0, 1, 0, 0, 1))
    with pytest.raises(ValueError):
        golden_part.as_int()


def test_json_dict_form():
    x = Cyclotomic(5, (1, 1, 0, 0, 1))
    assert x.to_json() == {"m": 5, "c": [1, 1, 0, 0, 1]}
    assert Cyclotomic.from_json(x.to_json()) == x


cyclos = st.integers(1, 12).flatmap(
    lambda m: st.tuples(st.just(m),
                        st.lists(st.integers(-9, 9), min_size=m, max_size=m)))


def unit_roots(m):
    """(ell, w) for every primitive m-th root w mod two working primes."""
    for order in (1, 10 ** 6):
        ell = working_prime(order, m)
        z = root_of_unity(ell, m)
        for u in range(1, m + 1):
            if math.gcd(u, m) == 1:
                yield ell, pow(z, u, ell)


@given(cyclos)
def test_normalized_preserves_value(mc):
    m, c = mc
    x = Cyclotomic(m, c)
    y = x.normalized()
    for ell, w in unit_roots(m):
        assert at(y, w, m, ell) == x.residue(w, ell)


@given(cyclos)
def test_json_roundtrip(mc):
    m, c = mc
    x = Cyclotomic(m, c)
    back = Cyclotomic.from_json(x.to_json())
    for ell, w in unit_roots(m):
        assert at(back, w, m, ell) == x.residue(w, ell)
    y = x.normalized()
    assert Cyclotomic.from_json(y.to_json()) == y


def test_normalized_folds_to_integers():
    assert Cyclotomic(2, (1, 2)).normalized() == Cyclotomic.integer(-1)
    assert Cyclotomic(3, (1, 1, 1)).normalized() == Cyclotomic.integer(0)
    assert Cyclotomic(4, (0, 1, 1, 1)).normalized() == Cyclotomic.integer(-1)
    assert Cyclotomic(4, (0, 2, 1, 1)).normalized().key() == (4, (-1, 1, 0, 0))


def test_value_of_full_orbit_sums_to_zero():
    for m in (2, 3, 5, 7, 12):
        x = Cyclotomic(m, (1,) * m)
        for ell, w in unit_roots(m):
            assert x.residue(w, ell) == 0
