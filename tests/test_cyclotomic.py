"""Cyclotomic value arithmetic and serialization."""

import cmath

import pytest
from hypothesis import given, strategies as st

from bfl.cyclotomic import Cyclotomic


def test_integer_roundtrip():
    x = Cyclotomic.integer(-7)
    assert x.m == 1 and x.as_int() == -7
    assert x.to_json() == -7
    assert Cyclotomic.from_json(-7) == x


def test_root_values():
    i = Cyclotomic(4, (0, 1, 0, 0))
    assert abs(i.value() - 1j) < 1e-12
    minus_one = Cyclotomic(2, (0, 1))
    assert abs(minus_one.value() + 1.0) < 1e-12


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


@given(cyclos)
def test_normalized_preserves_value(mc):
    m, c = mc
    x = Cyclotomic(m, c)
    assert abs(x.normalized().value() - x.value()) < 1e-9


@given(cyclos)
def test_json_roundtrip(mc):
    m, c = mc
    x = Cyclotomic(m, c)
    back = Cyclotomic.from_json(x.to_json())
    assert abs(back.value() - x.value()) < 1e-9
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
        assert abs(x.value()) < 1e-9
