import pytest

from altrings.algebra import associator, classify_identities, find_unit, is_idempotent
from altrings.catalog import (
    CATALOG_NAMES,
    SafError,
    catalog,
    direct_sum,
    opposite,
    parse,
    serialize,
)
from altrings.fields import GF, QQ


def test_catalog_names():
    assert set(CATALOG_NAMES) == {"mat2", "tri2", "zorn", "product2"}
    with pytest.raises(Exception):
        catalog("octonions", QQ)


def test_catalog_instances_cached():
    assert catalog("mat2", QQ) is catalog("mat2", QQ)
    assert catalog("mat2", QQ) is not catalog("mat2", GF(5))


def test_mat2_is_associative():
    rep = classify_identities(catalog("mat2", QQ))
    assert rep.associative


def test_zorn_alternative_not_associative():
    Z = catalog("zorn", QQ)
    rep = classify_identities(Z)
    assert rep.alternative and not rep.associative
    u1, u2, u3 = (Z.basis_element(i) for i in (1, 2, 3))
    # associator of the three u-vectors is e2 - e1
    assert associator(u1, u2, u3).coords == (-1, 0, 0, 0, 0, 0, 0, 1)


def test_zorn_over_small_primes():
    for p in (2, 3, 5, 7):
        Z = catalog("zorn", GF(p))
        rep = classify_identities(Z)
        assert rep.alternative is True, p
        assert rep.associative is False, p


def test_zorn_block_products():
    Z = catalog("zorn", QQ)
    e1, u1, u2, u3, v1, v2, v3, e2 = (Z.basis_element(i) for i in range(8))
    assert (e1 * e1) == e1 and (e2 * e2) == e2
    assert (e1 * e2).is_zero()
    assert e1 * u1 == u1 and u1 * e2 == u1
    assert (u1 * e1).is_zero() and (e2 * u1).is_zero()
    assert v1 * e1 == v1 and e2 * v1 == v1
    assert u1 * v1 == e1 and v1 * u1 == e2
    assert u1 * u2 == v3 and u2 * u1 == -v3
    assert v1 * v2 == -u3 and v2 * v1 == u3
    assert (u1 * v2).is_zero()


def test_tri2_gf2_unit_and_idempotent():
    A = catalog("tri2", GF(2))
    assert find_unit(A).coords == (1, 0, 1)
    chk = is_idempotent(A, (1, 0, 0))
    assert chk.idempotent and chk.nontrivial


def test_designated_idempotents_nontrivial():
    for name in sorted(CATALOG_NAMES):
        A = catalog(name, QQ)
        chk = is_idempotent(A, A.idempotent)
        assert chk.idempotent and chk.nontrivial, name


def test_direct_sum():
    A = direct_sum(catalog("mat2", QQ), catalog("product2", QQ))
    assert A.dim == 6
    assert A.unit == (1, 0, 0, 1, 1, 1)
    x = A.element((1, 0, 0, 0, 2, 3))
    y = A.element((0, 1, 0, 0, 1, 1))
    assert (x * y).coords == (0, 1, 0, 0, 2, 3)


def test_opposite_involution():
    for name in ("mat2", "zorn"):
        A = catalog(name, QQ)
        assert opposite(opposite(A)).tensor == A.tensor
    assert classify_identities(opposite(catalog("zorn", QQ))).alternative


def test_roundtrip_byte_identical():
    for name in sorted(CATALOG_NAMES):
        for F in (QQ, GF(5)):
            A = catalog(name, F)
            data = serialize(A)
            B = parse(data)
            assert serialize(B) == data, (name, F.name)
            assert B.tensor == A.tensor
            assert B.unit == A.unit and B.idempotent == A.idempotent


def test_parse_tolerates_comments_and_blanks():
    text = b"""# a one-dimensional field copy
saf 1

field Q
dim 1
unit 1   # the identity
mul 1 1 1 1
"""
    A = parse(text)
    assert A.dim == 1 and A.unit == (1,)


def test_parse_rational_and_residue_literals():
    A = parse(b"saf 1\nfield Q\ndim 1\nmul 1 1 1 3/2\n")
    from fractions import Fraction
    assert A.tensor[0][0][0] == Fraction(3, 2)
    B = parse(b"saf 1\nfield GF 7\ndim 1\nmul 1 1 1 -1\n")
    assert B.tensor[0][0][0] == 6


def test_name_line_is_read_but_not_written():
    A = parse(b"saf 1\nfield Q\ndim 1\nname field copy  # a comment\nmul 1 1 1 1\n")
    assert A.name == "field copy"
    assert serialize(A) == b"saf 1\nfield Q\ndim 1\nmul 1 1 1 1\n"
    assert parse(serialize(A)).name is None


@pytest.mark.parametrize(
    "payload, lineno, needle",
    [
        (b"saf 2\nfield Q\ndim 1\n", 1, "magic"),
        (b"saf 1\nfield R\ndim 1\n", 2, "field"),
        (b"saf 1\nfield GF 6\ndim 1\n", 2, "prime"),
        (b"saf 1\nfield Q\ndim 0\n", 3, "dim"),
        (b"saf 1\nfield Q\ndim 1\nmul 1 1 2 1\n", 4, "range"),
        (b"saf 1\nfield Q\ndim 1\nmul 1 1 1 1\nmul 1 1 1 2\n", 5, "duplicate"),
        (b"saf 1\nfield Q\ndim 2\nunit 1\n", 4, "coordinates"),
        (b"saf 1\nfield Q\ndim 1\nunit 1\nunit 1\n", 5, "duplicate"),
        (b"saf 1\nfield Q\ndim 1\nmul 1 1 1\n", 4, "mul"),
        (b"saf 1\nfield Q\ndim 1\nidem 1\n", 4, "idempotent"),
        (b"saf 1\nfield Q\ndim 1\nname a\nmul 1 1 1 1\nname b\n", 6, "duplicate name"),
        (b"saf 1\nfield Q\ndim 1\nname\n", 4, "name"),
    ],
)
def test_malformed_inputs_carry_line_numbers(payload, lineno, needle):
    with pytest.raises(SafError) as exc:
        parse(payload)
    assert exc.value.line == lineno
    assert needle in str(exc.value).lower()


def test_serialize_is_sorted_and_canonical():
    A = catalog("mat2", QQ)
    lines = serialize(A).decode().splitlines()
    assert lines[0] == "saf 1"
    mul_lines = [ln for ln in lines if ln.startswith("mul ")]
    keys = [tuple(int(t) for t in ln.split()[1:4]) for ln in mul_lines]
    assert keys == sorted(keys)
