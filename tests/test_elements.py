"""Group elements: composition conventions, orders, serialization."""

import random

import pytest
from hypothesis import given, strategies as st

from bfl import elements
from bfl.fields import GF
from bfl.elements import (
    Permutation, SquareMatrix, SemilinearElement,
    compose, inverse, conjugate, commutator, element_order, identity_like,
    serialize_element, deserialize_element, Overflow,
)


def random_perm(data, n):
    imgs = data.draw(st.permutations(list(range(n))))
    return Permutation(list(imgs))


def random_matrix(data, F, n):
    """Invertible matrix as L * D * U with unit triangular L, U."""
    el = st.integers(min_value=0, max_value=F.q - 1)
    lo = [[1 if i == j else (data.draw(el) if i > j else 0) for j in range(n)]
          for i in range(n)]
    up = [[1 if i == j else (data.draw(el) if i < j else 0) for j in range(n)]
          for i in range(n)]
    d = [data.draw(st.integers(min_value=1, max_value=F.q - 1)) for _ in range(n)]
    return (SquareMatrix(F, lo) * SquareMatrix.diagonal(F, d)) * SquareMatrix(F, up)


# --- permutations ---

def test_perm_composition_convention():
    # compose(a, b) acts as "b first, then a"
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    ab = compose(a, b)
    assert ab(1) == a(b(1))
    assert [ab(i) for i in range(3)] == [a(b(i)) for i in range(3)]


def test_perm_cycles_roundtrip():
    p = Permutation.from_cycles(7, [(1, 4, 2), (5, 6)])
    assert Permutation.from_cycles(7, p.cycles()) == p
    assert p.cycles() == [(1, 4, 2), (5, 6)]
    assert p.order() == 6


def test_perm_from_cycles_one_based():
    p = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)], base=1)
    assert p(0) == 1 and p(4) == 0


def test_perm_bad_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(0, 5)])  # out of range


@given(st.data())
def test_perm_group_axioms(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    a, b, c = (random_perm(data, n) for _ in range(3))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, inverse(a)).is_identity()
    assert compose(inverse(a), a).is_identity()


@pytest.mark.parametrize("n", [0, 1, 2, 80, 256, 257, 728])
def test_perm_product_point_by_point(n):
    rng = random.Random(0x22 + n)
    for _ in range(3):
        a, b = (Permutation(rng.sample(range(n), n)) for _ in range(2))
        want = [a.images[b.images[v]] for v in range(n)]
        assert list((a * b).images) == want


def test_perm_product_degree_mismatch():
    a, b = Permutation(range(3)), Permutation([1, 0, 2, 3, 4])
    with pytest.raises(TypeError, match="degree mismatch 3 / 5"):
        a * b
    with pytest.raises(TypeError, match="degree mismatch 5 / 3"):
        b * a


# --- matrices ---

def test_matrix_apply_convention():
    F = GF(5)
    A = SquareMatrix(F, [[1, 2], [0, 1]])
    B = SquareMatrix(F, [[1, 0], [3, 1]])
    v = (1, 4)
    assert compose(A, B).apply(v) == A.apply(B.apply(v))


@given(st.data())
def test_matrix_det_multiplicative(data):
    F = GF(5)
    A = random_matrix(data, F, 3)
    B = random_matrix(data, F, 3)
    assert compose(A, B).det() == F.mul(A.det(), B.det())


@given(st.data())
def test_matrix_inverse(data):
    F = GF(7)
    A = random_matrix(data, F, 3)
    assert compose(A, inverse(A)).is_identity()
    assert A.rank() == 3


def test_matrix_rank_and_singular():
    F = GF(3)
    A = SquareMatrix(F, [[1, 2], [2, 1]])  # row2 = 2*row1
    assert A.det() == 0 and A.rank() == 1
    with pytest.raises(ValueError):
        inverse(A)


def test_matrix_trace_transpose_frobenius():
    F = GF(9)
    w = F.primitive()
    A = SquareMatrix(F, [[w, 1], [0, 2]])
    assert A.trace() == F.add(w, 2)
    assert A.transpose().rows[0][1] == 0
    B = A.frobenius(1)
    assert B.rows[0][0] == F.frobenius(w, 1)


# --- semilinear ---

def test_semilinear_composition_law():
    F = GF(9)
    w = F.primitive()
    A = SquareMatrix(F, [[w, 0], [0, 1]])
    B = SquareMatrix(F, [[1, w], [0, 1]])
    s = SemilinearElement(A, 1)
    t = SemilinearElement(B, 0)
    st_ = compose(s, t)
    assert st_.e == 1
    assert st_.mat == compose(A, B.frobenius(1))
    v = (w, 2)
    assert st_.apply(v) == s.apply(t.apply(v))


@given(st.data())
def test_semilinear_inverse(data):
    F = GF(4)
    A = random_matrix(data, F, 2)
    e = data.draw(st.integers(min_value=0, max_value=1))
    s = SemilinearElement(A, e)
    assert compose(s, inverse(s)).is_identity()
    assert compose(inverse(s), s).is_identity()


# --- generic ops ---

def test_conjugate_convention():
    a = Permutation.from_cycles(4, [(0, 1)])
    g = Permutation.from_cycles(4, [(0, 2)])
    # conjugate(x, g) = g^-1 x g
    assert conjugate(a, g) == compose(inverse(g), compose(a, g))
    assert conjugate(a, g) == Permutation.from_cycles(4, [(2, 1)])


@given(st.data())
def test_commutator_identities(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    x = random_perm(data, n)
    y = random_perm(data, n)
    c = commutator(x, y)
    assert c == compose(inverse(x), compose(inverse(y), compose(x, y)))
    assert compose(c, commutator(y, x)).is_identity()
    # [x, y] = x^-1 * x^y
    assert c == compose(inverse(x), conjugate(x, y))


def test_element_order(monkeypatch):
    six = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert element_order(six) == 6
    F = GF(3)
    assert element_order(SquareMatrix(F, [[1, 1], [0, 1]])) == 3
    assert element_order(SquareMatrix(F, [[0, 1], [2, 0]])) == 4
    monkeypatch.setattr(elements, "ORDER_CAP", 2)
    with pytest.raises(Overflow) as err:
        element_order(SquareMatrix(GF(7), [[3, 0], [0, 1]]))
    assert str(err.value) == "element order exceeds cap 2"
    with pytest.raises(Overflow) as err:
        element_order(six)
    assert str(err.value) == "order 6 exceeds cap 2"


def test_identity_like():
    p = Permutation.from_cycles(5, [(0, 1)])
    assert identity_like(p) == Permutation.identity(5)
    F = GF(4)
    m = SquareMatrix(F, [[1, 1], [0, 1]])
    assert identity_like(m) == SquareMatrix.identity(F, 2)
    s = SemilinearElement(m, 1)
    e = identity_like(s)
    assert e.is_identity() and e.e == 0


def test_mixed_kinds_rejected():
    p = Permutation.identity(3)
    m = SquareMatrix.identity(GF(3), 3)
    with pytest.raises(TypeError):
        compose(p, m)
    with pytest.raises(TypeError):
        compose(SquareMatrix.identity(GF(3), 2), SquareMatrix.identity(GF(3), 3))


def test_serialize_roundtrip():
    F = GF(9)
    w = F.primitive()
    cases = [
        Permutation.from_cycles(4, [(0, 3, 1)]),
        SquareMatrix(F, [[w, 1], [2, 0]]),
        SemilinearElement(SquareMatrix(F, [[1, w], [0, 1]]), 1),
    ]
    for x in cases:
        d = serialize_element(x)
        y = deserialize_element(d)
        assert y == x
