import random
from fractions import Fraction
from functools import partial
from itertools import product as iter_product

import pytest
from hypothesis import example, given, settings, strategies as st

from altrings.algebra import (
    Algebra,
    AlgebraError,
    BudgetError,
    IdentityReport,
    LinearMap,
    associator,
    basis_points,
    center,
    classify_identities,
    commutator,
    find_idempotents,
    find_unit,
    is_derivation,
    is_idempotent,
    jordan_product,
    nucleus,
    torsion_free,
)
from altrings.catalog import _triples, catalog, direct_sum
from altrings.fields import GF, QQ, FieldError
from altrings.linalg import Matrix, Subspace
from oracles import dense_rebase, normal, rebase, scalars, zorn


@pytest.fixture(scope="module")
def mat2():
    return catalog("mat2", QQ)


def test_algebra_construction_and_products(mat2):
    # E11*E12 = E12, E12*E21 = E11, E21*E12 = E22
    assert mat2.basis_product(0, 1) == (0, 1, 0, 0)
    assert mat2.basis_product(1, 2) == (1, 0, 0, 0)
    assert mat2.basis_product(2, 1) == (0, 0, 0, 1)
    x = mat2.element((1, 2, 3, 4))
    y = mat2.element((0, 1, 0, 1))
    # row-by-column multiply of [[1,2],[3,4]] and [[0,1],[0,1]]
    assert (x * y).coords == (0, 3, 0, 7)


def test_bad_structure_constants_rejected():
    with pytest.raises(AlgebraError):
        Algebra(QQ, 2, {(0, 0, 5): 1})
    with pytest.raises(AlgebraError):
        Algebra(QQ, 0, {})


def test_element_arithmetic(mat2):
    x = mat2.element((1, 0, 0, -1))
    y = mat2.element((0, 1, 1, 0))
    assert (x + y).coords == (1, 1, 1, -1)
    assert (x - x).is_zero()
    assert (-x).coords == (-1, 0, 0, 1)
    assert (2 * x).coords == (2, 0, 0, -2)
    assert (x * Fraction(1, 2)).coords == (Fraction(1, 2), 0, 0, Fraction(-1, 2))


def test_commutator_and_jordan(mat2):
    E12 = mat2.basis_element(1)
    E21 = mat2.basis_element(2)
    assert commutator(E12, E21).coords == (1, 0, 0, -1)
    assert jordan_product(E12, E21).coords == (1, 0, 0, 1)


def test_associator_vanishes_on_associative(mat2):
    xs = [mat2.element(c) for c in ((1, 2, 0, 1), (0, 1, 1, 0), (3, 0, 0, 2))]
    assert associator(*xs).is_zero()


def test_mul_operators_match_products(mat2):
    y = (0, 1, 2, 0)
    L = LinearMap(mat2, mat2.left_mult_matrix(y))
    R = LinearMap(mat2, mat2.right_mult_matrix(y))
    x = mat2.element((1, 1, 1, 1))
    assert L(x) == mat2.element(y) * x
    assert R(x) == x * mat2.element(y)


def test_linear_map_roundtrips(mat2):
    m = LinearMap.from_images(mat2, [(1, 0, 0, 0), (0, 0, 1, 0),
                                     (0, 1, 0, 0), (0, 0, 0, 1)])
    assert LinearMap.from_vector(mat2, m.to_vector()) == m
    assert (m @ m) == LinearMap.identity(mat2)
    assert (m - m).is_zero()


def test_classify_identities_catalog(mat2, zorn):
    rep = classify_identities(mat2)
    assert rep.associative and rep.alternative and rep.flexible
    rep = classify_identities(zorn)
    assert not rep.associative
    assert rep.alternative and rep.flexible
    # the witness triple of basis vectors u1, u2, u3
    u1, u2, u3 = (zorn.basis_element(i) for i in (1, 2, 3))
    assert not associator(u1, u2, u3).is_zero()


def test_classification_char2_is_decided():
    Z2 = catalog("zorn", GF(2))
    rep = classify_identities(Z2)
    assert rep.alternative is True
    assert rep.associative is False


def test_classification_char2_checks_the_diagonal_points():
    # e_0 e_1 = e_1 and nothing else: every polarised sum
    # (e_i, e_j, y) + (e_j, e_i, y) vanishes over GF(2), but at x = e_0
    # (x, x, e_1) = -e_0 (e_0 e_1) = e_1
    A = Algebra(GF(2), 2, {(0, 1, 1): 1})
    assert associator(A.basis_element(0), A.basis_element(0),
                      A.basis_element(1)) == A.basis_element(1)
    assert classify_identities(A) == IdentityReport(False, False, False)
    # e_1 e_0 = e_0 + e_1 and nothing else: the identities fail at
    # x = e_0 and x = e_1, and hold at x = e_0 + e_1, which squares to itself
    B = Algebra(GF(2), 2, {(1, 0, 0): 1, (1, 0, 1): 1})
    e0, e1 = B.basis()
    assert not associator(e1, e1, e0).is_zero()
    assert associator(e0 + e1, e0 + e1, e0).is_zero()
    assert classify_identities(B) == IdentityReport(False, False, False)


def test_classification_decides_large_char2_sums():
    # 2^18 elements: far past any enumeration
    F = GF(2)
    A = direct_sum(direct_sum(catalog("zorn", F), catalog("zorn", F)),
                   catalog("product2", F))
    assert A.dim == 18
    assert classify_identities(A) == IdentityReport(False, True, True)


@pytest.mark.parametrize("p", [2, 3])
def test_classification_in_a_dense_basis_over_gfp(p):
    # dense structure constants: the basis associators are sums of many
    # products, so they vanish mod p without vanishing as ints
    for name, expected in (("mat2", IdentityReport(True, True, True)),
                           ("tri2", IdentityReport(True, True, True)),
                           ("zorn", IdentityReport(False, True, True))):
        A = dense_rebase(catalog(name, GF(p)), p, 5)
        assert classify_identities(A) == expected, name


def _brute_identities(p, d, c):
    """(associative, alternative, flexible) of the GF(p) algebra with
    structure constants c[i][j][k], by checking every x, y (and z)."""
    els = list(iter_product(range(p), repeat=d))
    index = {x: n for n, x in enumerate(els)}
    # M[x][y]: index of the product of elements x and y
    M = [[index[tuple(sum(x[i] * y[j] * c[i][j][k] for i in range(d)
                          for j in range(d)) % p for k in range(d))]
          for y in els] for x in els]
    S = range(len(els))

    def assoc_zero(x, y, z):
        return M[M[x][y]][z] == M[x][M[y][z]]

    associative = all(assoc_zero(x, y, z) for x in S for y in S for z in S)
    alternative = all(assoc_zero(x, x, y) and assoc_zero(y, x, x)
                      for x in S for y in S)
    flexible = all(assoc_zero(x, y, x) for x in S for y in S)
    return associative, alternative, flexible


def test_classification_matches_brute_force_over_gf2_gf3():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(400):
        p = rng.choice((2, 3))
        d = rng.choice((1, 2, 3))
        density = rng.choice((0.1, 0.25, 0.5))
        c = [[[rng.randrange(1, p) if rng.random() < density else 0
               for _ in range(d)] for _ in range(d)] for _ in range(d)]
        A = Algebra(GF(p), d, {(i, j, k): c[i][j][k] for i in range(d)
                               for j in range(d) for k in range(d) if c[i][j][k]})
        rep = classify_identities(A)
        got = (rep.associative, rep.alternative, rep.flexible)
        assert got == _brute_identities(p, d, c), (p, d, c)
        seen.update(enumerate(got))
    assert seen == {(i, v) for i in range(3) for v in (False, True)}


def _rebased(name):
    """The catalog algebra over Q in a dense basis of det 3: its structure
    constants have the common denominator 3."""
    A = rebase(catalog(name, QQ), 1, det=3)
    assert A._den == 3
    return A


def _shifted_zorn():
    """The rebased Zorn algebra with its first structure constant moved by
    1/3, and no declared unit."""
    triples = _triples(_rebased("zorn"))
    triples[next(iter(triples))] += Fraction(1, 3)
    A = Algebra(QQ, 8, triples)
    assert A._den > 1
    return A


def _identities_at_basis_points(A):
    """The report from element associators: on basis triples, and with the
    repeated x at the basis points of the standard basis."""
    es = A.basis()
    points = [A.element(x) for x in basis_points(A.field, [e.coords for e in es])]

    def zero(x, y, z):
        return associator(x, y, z).is_zero()

    return IdentityReport(
        all(zero(x, y, z) for x in es for y in es for z in es),
        all(zero(x, x, y) and zero(y, x, x) for x in points for y in es),
        all(zero(x, y, x) for x in points for y in es),
    )


@pytest.mark.parametrize("build, expected", [
    (partial(_rebased, "zorn"), IdentityReport(False, True, True)),
    (partial(_rebased, "mat2"), IdentityReport(True, True, True)),
    (partial(_rebased, "tri2"), IdentityReport(True, True, True)),
    (_shifted_zorn, IdentityReport(False, False, False)),
], ids=["zorn", "mat2", "tri2", "zorn-shifted"])
def test_classification_over_q_with_a_denominator(build, expected):
    A = build()
    assert _identities_at_basis_points(A) == expected
    assert classify_identities(A) == expected


def test_nucleus_of_rebased_zorn_is_the_scalars():
    Z = _rebased("zorn")
    assert nucleus(Z) == Subspace.from_vectors(QQ, 8, [Z.unit])


def test_center_and_nucleus_dims(mat2, zorn):
    assert center(mat2).dim == 1
    assert nucleus(mat2).dim == 4
    assert center(zorn).dim == 1
    assert nucleus(zorn).dim == 1
    tri = catalog("tri2", QQ)
    assert center(tri).dim == 1
    assert nucleus(tri).dim == 3
    # commutant-only center vs center-within-nucleus can differ in general;
    # on these instances the center generator is already nuclear
    assert center(zorn).intersect(nucleus(zorn)).dim == 1


@st.composite
def small_field_algebras(draw):
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, d - 1)] * 3)
    return p, d, draw(st.dictionaries(index, st.integers(-5, 5), max_size=2 * d * d))


@settings(max_examples=150, deadline=None)
@given(small_field_algebras())
# the middle slot decides these: the left and right nuclei meet in more
@example((2, 2, {(1, 0, 1): 1, (0, 0, 1): 1, (1, 1, 1): 1, (0, 1, 0): 1}))
@example((2, 3, {(2, 1, 0): 1, (1, 0, 2): 1}))
@example((3, 3, {(1, 1, 2): 1, (1, 0, 2): 1, (1, 2, 2): 1, (0, 2, 2): 1}))
def test_nucleus_matches_brute_force_over_small_fields(case):
    p, d, consts = case
    A = Algebra(GF(p), d, consts)

    def mul(x, y):
        out = [0] * d
        for (i, j, k), c in consts.items():
            out[k] += x[i] * y[j] * c
        return tuple(v % p for v in out)

    def associator_is_zero(x, y, z):
        return all((a - b) % p == 0 for a, b in zip(mul(mul(x, y), z), mul(x, mul(y, z))))

    basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    expected = {
        n for n in iter_product(range(p), repeat=d)
        if all(associator_is_zero(n, a, b) and associator_is_zero(a, n, b)
               and associator_is_zero(a, b, n) for a in basis for b in basis)
    }
    assert set(nucleus(A).vectors()) == expected


def test_catalog_nuclei():
    for F in (QQ, GF(2), GF(3)):
        assert nucleus(catalog("mat2", F)) == Subspace.full(F, 4)
        zorn = catalog("zorn", F)
        assert nucleus(zorn) == Subspace.from_vectors(F, 8, [zorn.unit])


@pytest.mark.parametrize("build", [
    lambda: Algebra(QQ, 2, {(0, 0, 0): 1, (1, 1, 1): 1}, unit=(1, 1), idempotent=(1, 0),
                    name="declared"),
    lambda: catalog("zorn", GF(3)),
], ids=["declared", "catalog"])
def test_algebra_attributes_cannot_be_assigned_or_deleted(build):
    A = build()
    before = (A.field, A.dim, A.name, A.tensor, A.unit, A.idempotent)
    for attr in Algebra.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(A, attr, getattr(A, attr, None))
        with pytest.raises(AttributeError):
            delattr(A, attr)
    assert (A.field, A.dim, A.name, A.tensor, A.unit, A.idempotent) == before


def test_unit_assigned_after_construction_cannot_shortcut_center_and_nucleus():
    # e1 e2 = e2 has no unit and trivial centre and nucleus; a unit slipped
    # in after construction would stop their folding at rank d - 1
    A = Algebra(QQ, 2, {(0, 1, 1): 1})
    with pytest.raises(AttributeError):
        A.unit = (1, 0)
    assert A.unit is None
    assert center(A).dim == 0 and nucleus(A).dim == 0


def test_find_unit(mat2):
    u = find_unit(mat2)
    assert u.coords == (1, 0, 0, 1)
    no_unit = Algebra(QQ, 1, {})  # zero multiplication
    assert find_unit(no_unit) is None


def test_is_idempotent(mat2):
    chk = is_idempotent(mat2, (1, 0, 0, 0))
    assert chk.idempotent and chk.nontrivial
    unit = is_idempotent(mat2, (1, 0, 0, 1))
    assert unit.idempotent and not unit.nontrivial
    zero = is_idempotent(mat2, (0, 0, 0, 0))
    assert not zero.idempotent and zero.nontrivial is None
    assert not is_idempotent(mat2, (0, 1, 0, 0)).idempotent


def test_find_idempotents_counts():
    A = catalog("mat2", GF(2))
    idems = find_idempotents(A)
    assert len(idems) == 8  # includes 0 and I
    coords = {e.coords for e, flag in idems}
    assert (0, 0, 0, 0) in coords and (1, 0, 0, 1) in coords

    P = catalog("product2", GF(2))
    idems = {e.coords for e, _ in find_idempotents(P)}
    assert idems == {(0, 0), (1, 0), (0, 1), (1, 1)}

    nil = Algebra(GF(2), 1, {})  # strictly upper triangular 1-dim model
    assert [e.coords for e, _ in find_idempotents(nil)] == [(0,)]


def test_find_idempotents_rejects_q(mat2):
    with pytest.raises(FieldError):
        find_idempotents(mat2)


def test_find_idempotents_budget():
    A = catalog("zorn", GF(5))
    with pytest.raises(BudgetError):
        find_idempotents(A, budget=100)


def test_torsion_free(mat2):
    assert torsion_free(mat2, 6)
    A3 = catalog("mat2", GF(3))
    assert torsion_free(A3, 2)
    assert not torsion_free(A3, 3)
    assert not torsion_free(A3, 6)
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"got {k}$"):
            torsion_free(mat2, k)


def test_elements_enumeration_order():
    A = catalog("product2", GF(3))
    elems = [x.coords for x in A.elements()]
    # coordinate 0 varies fastest: element k carries the base-3 digits of k
    assert elems[:4] == [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert len(elems) == 9
    assert A.size() == 9


coeff = st.integers(-4, 4)
vec4 = st.tuples(coeff, coeff, coeff, coeff)
vec8 = st.tuples(*([coeff] * 8))


@settings(max_examples=60, deadline=None)
@given(vec8, vec8)
def test_zorn_alternative_laws_hold_pointwise(a, b):
    Z = catalog("zorn", QQ)
    x, y = Z.element(a), Z.element(b)
    assert associator(x, x, y).is_zero()
    assert associator(y, x, x).is_zero()
    assert associator(x, y, x).is_zero()


@settings(max_examples=60, deadline=None)
@given(vec4, vec4, vec4)
def test_mat2_multiplication_bilinear(a, b, c):
    A = catalog("mat2", QQ)
    x, y, z = A.element(a), A.element(b), A.element(c)
    assert (x + y) * z == x * z + y * z
    assert z * (x + y) == z * x + z * y


@settings(max_examples=40, deadline=None)
@given(vec8)
def test_zorn_center_commutes(a):
    Z = catalog("zorn", QQ)
    x = Z.element(a)
    for zvec in center(Z).basis:
        z = Z.element(zvec)
        assert commutator(z, x).is_zero()


# The integer kernels of Algebra against an independent per-scalar
# reference: fractional, mixed-denominator constants over Q (the catalog has
# integer constants only) and unreduced ints over GF(p).

FIELDS = [QQ, GF(2), GF(3), GF(7)]


@st.composite
def algebra_data(draw):
    F = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, 4))
    index = st.tuples(*[st.integers(0, d - 1)] * 3)
    consts = draw(st.dictionaries(index, scalars(F), max_size=2 * d * d))
    vec = st.lists(scalars(F), min_size=d, max_size=d)
    return F, d, consts, draw(vec), draw(vec)


@settings(max_examples=100, deadline=None)
@given(algebra_data())
def test_products_and_operators_match_per_scalar_reference(case):
    F, d, consts, x, y = case
    A = Algebra(F, d, consts)
    xy = [0] * d
    left = [[0] * d for _ in range(d)]    # L_y[k][j] = sum_i y_i c_ijk
    right = [[0] * d for _ in range(d)]   # R_y[k][i] = sum_j y_j c_ijk
    for (i, j, k), c in consts.items():
        xy[k] += x[i] * y[j] * c
        left[k][j] += y[i] * c
        right[k][i] += y[j] * c
    got = A.mul_coords(x, y)
    assert got == tuple(normal(F, v) for v in xy)
    L, R = A.left_mult_matrix(y), A.right_mult_matrix(y)
    assert L.rows == tuple(tuple(normal(F, v) for v in row) for row in left)
    assert R.rows == tuple(tuple(normal(F, v) for v in row) for row in right)
    for v in got + L.rows[0] + R.rows[0]:
        if F is QQ:
            assert type(v) is Fraction
        else:
            assert type(v) is int and 0 <= v < F.p


@settings(max_examples=60, deadline=None)
@given(algebra_data(), st.data())
def test_is_derivation_matches_structure_constant_reference(case, data):
    from altrings.lietype import derivation_space

    F, d, consts, _, _ = case
    A = Algebra(F, d, consts)
    c = {key: normal(F, v) for key, v in consts.items()}

    def reference(M):
        # g(e_i e_j) = g(e_i) e_j + e_i g(e_j), coordinate k, column j = g(e_j)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    lhs = sum(c.get((i, j, m), 0) * M[k][m] for m in range(d))
                    rhs = sum(M[a][i] * c.get((a, j, k), 0) for a in range(d))
                    rhs += sum(M[b][j] * c.get((i, b, k), 0) for b in range(d))
                    if normal(F, lhs - rhs) != normal(F, 0):
                        return False
        return True

    rows = data.draw(st.lists(st.lists(scalars(F), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    maps = [LinearMap(A, Matrix(F, rows))]
    maps += derivation_space(A).maps()[:2]
    for g in maps:
        expected = reference([[normal(F, v) for v in row] for row in g.matrix.rows])
        assert is_derivation(A, g) is expected
    assert all(is_derivation(A, g) for g in maps[1:])
