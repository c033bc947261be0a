from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from altrings.fields import GF, QQ, FieldError, parse_field


def test_rational_basics():
    assert QQ.characteristic == 0
    assert QQ.zero == Fraction(0)
    assert QQ.one == Fraction(1)
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.parse("2/3") == Fraction(2, 3)
    assert QQ.format(Fraction(-5, 2)) == "-5/2"
    assert QQ.format(Fraction(4)) == "4"
    assert not QQ.is_finite


def test_rational_division():
    assert QQ.div(QQ.coerce(1), QQ.coerce(3)) == Fraction(1, 3)
    with pytest.raises(FieldError):
        QQ.inv(QQ.zero)


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.characteristic == 7
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.parse("-1") == 6
    assert F.format(6) == "6"
    assert list(F.elements()) == list(range(7))


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(FieldError):
            GF(bad)


def test_gf_is_cached():
    assert GF(5) is GF(5)


def test_parse_field_forms():
    assert parse_field("Q") is QQ
    assert parse_field("GF(7)") is GF(7)
    assert parse_field("GF 7") is GF(7)
    assert parse_field("GFp:7") is GF(7)
    for bad in ("R", "GF7", "GFp:6", "GF(x)", ""):
        with pytest.raises(FieldError):
            parse_field(bad)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_rational_ring_axioms(a, b):
    x, y = QQ.coerce(a), QQ.coerce(b)
    assert QQ.add(x, y) == QQ.add(y, x)
    assert QQ.sub(x, y) == QQ.add(x, QQ.neg(y))
    assert QQ.mul(x, y) == QQ.mul(y, x)


@given(st.integers(0, 6), st.integers(0, 6))
def test_gf7_ring_axioms(a, b):
    F = GF(7)
    assert F.add(a, b) == (a + b) % 7
    assert F.mul(a, b) == (a * b) % 7
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


@given(st.integers(1, 6))
def test_gf7_inverse_roundtrip(a):
    F = GF(7)
    assert F.inv(F.inv(a)) == a


@given(st.lists(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 15)), max_size=6))
def test_rational_integer_boundary_roundtrip(vec):
    ints, den = QQ.to_ints(vec)
    assert all(type(n) is int for n in ints)
    assert den == lcm(*(v.denominator for v in vec))
    back = QQ.from_ints(ints, den)
    assert back == tuple(vec)
    assert all(type(v) is Fraction for v in back)
    assert all(v is QQ.zero for v in back if v == 0)


@given(st.lists(st.integers(-100, 100), max_size=6), st.integers(1, 6))
def test_prime_integer_boundary(vec, den):
    F = GF(7)
    assert F.to_ints(vec) == (vec, 1)
    assert F.from_ints(vec) == tuple(v % 7 for v in vec)
    assert all(F.mul(v, den) == n % 7 for v, n in zip(F.from_ints(vec, den), vec))
