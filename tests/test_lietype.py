import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altrings.algebra import BudgetError, LinearMap, commutator
from altrings.catalog import catalog
from altrings.fields import GF, QQ
from altrings.linalg import Matrix
from altrings.lietype import (
    DecompositionError,
    NormalizationError,
    OperatorSpace,
    check_conditions_abc,
    conditions_abc_subspace,
    decompose,
    derivation_space,
    fosner_inclusion,
    lie_leibniz_residual,
    lie_n_derivation_space,
    nested_commutator,
    nested_commutator_span,
    normalize_at_idempotent,
    _invert,
    standard_inner_derivation,
)
from altrings.peirce import peirce_context
from altrings.verdict import Verdict


def ad(A, u_index):
    """x -> [x, e_u] as a linear map."""
    return LinearMap(A, A.basis_right_matrix(u_index) - A.basis_left_matrix(u_index))


@pytest.fixture(scope="module")
def mat2():
    return catalog("mat2", QQ)


@pytest.fixture(scope="module")
def zorn():
    return catalog("zorn", QQ)


@pytest.fixture(scope="module")
def ctx_mat2(mat2):
    return peirce_context(mat2, mat2.idempotent)


@pytest.fixture(scope="module")
def ctx_zorn(zorn):
    return peirce_context(zorn, zorn.idempotent)


def trace_map(mat2):
    F = mat2.field
    unit = mat2.unit
    zero = (F.zero,) * 4
    return LinearMap.from_images(mat2, [unit, zero, zero, unit])


def test_nested_commutator_values(mat2):
    E11, E12, E21 = (mat2.basis_element(i) for i in (0, 1, 2))
    assert nested_commutator(mat2, [E11]) == E11
    assert nested_commutator(mat2, [E11, E12]) == E12
    p3 = nested_commutator(mat2, [E11, E12, E21])
    assert p3 == commutator(commutator(E11, E12), E21)
    assert p3.coords == (1, 0, 0, -1)
    with pytest.raises(ValueError):
        nested_commutator(mat2, [])


def test_nested_commutator_span_mat2(mat2):
    W = nested_commutator_span(mat2, 2)
    assert W.dim == 3  # trace-zero matrices
    assert W.contains((1, 0, 0, -1))
    assert not W.contains((1, 0, 0, 0))
    with pytest.raises(BudgetError):
        nested_commutator_span(mat2, 4, budget=10)


def test_derivation_space_dims(mat2, zorn):
    assert derivation_space(mat2).dim == 3
    assert derivation_space(zorn).dim == 14
    assert derivation_space(catalog("product2", QQ)).dim == 0


def test_derivation_space_members_satisfy_leibniz(zorn):
    space = derivation_space(zorn)
    rng = random.Random(7)
    for _ in range(5):
        D = space.random_member(rng)
        for _ in range(10):
            x = zorn.element([rng.randint(-3, 3) for _ in range(8)])
            y = zorn.element([rng.randint(-3, 3) for _ in range(8)])
            assert D(x * y) == D(x) * y + x * D(y)


def test_inner_maps_are_derivations(zorn):
    space = derivation_space(zorn)
    rng = random.Random(3)
    for _ in range(20):
        y = tuple(rng.randint(-3, 3) for _ in range(8))
        z = tuple(rng.randint(-3, 3) for _ in range(8))
        f = standard_inner_derivation(
            zorn, zorn._coerce_coords(y), zorn._coerce_coords(z)
        )
        assert space.contains(f)


def test_standard_inner_derivation_value(mat2):
    E11 = mat2.basis_element(0).coords
    E12 = mat2.basis_element(1).coords
    f = standard_inner_derivation(mat2, E12, E11)
    assert f.apply_coords(mat2.basis_element(2).coords) == (-1, 0, 0, 1)  # E22 - E11


def test_lie_space_dims(mat2):
    assert lie_n_derivation_space(mat2, 2).dim == 4
    assert lie_n_derivation_space(mat2, 3).dim == 4
    # commutative ring: every linear map satisfies the identity
    P = catalog("product2", QQ)
    assert lie_n_derivation_space(P, 2).dim == 4


def test_lie_space_contains_derivations_and_central_maps(mat2, zorn):
    for A in (mat2, zorn):
        der = derivation_space(A)
        l2 = lie_n_derivation_space(A, 2)
        assert l2.contains_space(der)
    assert lie_n_derivation_space(zorn, 2).dim == 15
    assert lie_n_derivation_space(mat2, 2).contains(trace_map(mat2))


def test_lie_space_guards(mat2):
    with pytest.raises(ValueError):
        lie_n_derivation_space(mat2, 1)
    with pytest.raises(ValueError):
        lie_n_derivation_space(mat2, 6)
    with pytest.raises(BudgetError):
        lie_n_derivation_space(mat2, 5, budget=100)


def test_lie_leibniz_residual_detects_violations(mat2):
    not_a_derivation = LinearMap.identity(mat2)
    E11, E12 = mat2.basis_element(0), mat2.basis_element(1)
    res = lie_leibniz_residual(mat2, not_a_derivation, [E11, E12])
    assert res == -E12  # D([x,y]) - [Dx,y] - [x,Dy] = [x,y] - 2[x,y]


def test_operator_space_revalidate(mat2):
    assert lie_n_derivation_space(mat2, 2).revalidate(samples=40, seed=1)
    assert derivation_space(mat2).revalidate()


def test_fosner_inclusion(mat2, zorn):
    assert fosner_inclusion(mat2, 2, 1)
    assert fosner_inclusion(mat2, 2, 0)
    assert fosner_inclusion(zorn, 2, 1)
    with pytest.raises(ValueError):
        fosner_inclusion(mat2, 2, -1)


def test_lie3_contains_lie2_mat2(mat2):
    l2 = lie_n_derivation_space(mat2, 2)
    l3 = lie_n_derivation_space(mat2, 3)
    assert l3.contains_space(l2)


def test_conditions_abc_reports(ctx_mat2, mat2):
    rep = check_conditions_abc(ctx_mat2, ad(mat2, 1))  # ad_{E12}
    assert rep.a.status is Verdict.HOLDS
    assert rep.b.status is Verdict.HOLDS
    assert rep.c.status is Verdict.FAILS
    assert not rep.all_hold
    rep = check_conditions_abc(ctx_mat2, trace_map(mat2))
    assert rep.all_hold
    h = LinearMap(
        mat2,
        (mat2.basis_right_matrix(0) - mat2.basis_left_matrix(0))
        - (mat2.basis_right_matrix(3) - mat2.basis_left_matrix(3)),
    )
    assert check_conditions_abc(ctx_mat2, h).all_hold


def test_conditions_abc_subspace_matches_pointwise_check(ctx_mat2, mat2):
    adm = conditions_abc_subspace(ctx_mat2)
    l2 = lie_n_derivation_space(mat2, 2)
    inter = l2.space.intersect(adm)
    assert inter.dim == 2
    rng = random.Random(11)
    space = OperatorSpace(mat2, inter, n=2)
    for _ in range(10):
        D = space.random_member(rng)
        assert check_conditions_abc(ctx_mat2, D).all_hold
    # the rejected generator is not in the admissible space
    assert not adm.contains(ad(mat2, 1).to_vector())


def test_normalization_kills_offdiag_inner_maps(ctx_mat2, mat2):
    for idx in (1, 2):  # ad_{E12} and ad_{E21}
        D = ad(mat2, idx)
        Dp, f = normalize_at_idempotent(ctx_mat2, D)
        assert Dp.is_zero()
        assert f == D
        assert ctx_mat2.center.contains(Dp.apply_coords(ctx_mat2.e1))
        e2 = tuple(
            mat2.field.sub(a, b) for a, b in zip(mat2.unit, ctx_mat2.e1)
        )
        assert ctx_mat2.center.contains(Dp.apply_coords(e2))


def test_normalization_noop_on_central_friendly_maps(ctx_mat2, mat2):
    D = trace_map(mat2)
    Dp, f = normalize_at_idempotent(ctx_mat2, D)
    assert f.is_zero() and Dp == D


def test_decompose_roundtrip_explicit(ctx_mat2, mat2):
    h = LinearMap(
        mat2,
        (mat2.basis_right_matrix(0) - mat2.basis_left_matrix(0))
        - (mat2.basis_right_matrix(3) - mat2.basis_left_matrix(3)),
    )
    D = h + trace_map(mat2)
    dec = decompose(ctx_mat2, D, 2)
    assert dec.delta + dec.tau == D
    assert dec.delta == h
    assert dec.tau == trace_map(mat2)


def test_decompose_random_members(ctx_mat2, mat2, ctx_zorn, zorn):
    for A, ctx, seed in ((mat2, ctx_mat2, 5), (zorn, ctx_zorn, 6)):
        adm = conditions_abc_subspace(ctx)
        l2 = lie_n_derivation_space(A, 2)
        space = OperatorSpace(A, l2.space.intersect(adm), n=2)
        rng = random.Random(seed)
        W = nested_commutator_span(A, 2)
        for _ in range(8):
            D = space.random_member(rng)
            dec = decompose(ctx, D, 2)
            assert dec.delta + dec.tau == D
            for w in W.basis:
                assert all(
                    A.field.is_zero(v) for v in dec.tau.apply_coords(w)
                )


def test_decompose_rejects_condition_c(ctx_mat2, mat2):
    with pytest.raises(DecompositionError) as exc:
        decompose(ctx_mat2, ad(mat2, 1), 2)
    assert exc.value.certificate == "condition_c"


def test_decompose_rejects_condition_a(mat2):
    # on mat2 + mat2 at e1 = (E11, 0), the (2,2) component strictly exceeds
    # the central action, so a map sending e1 into the second block can
    # violate (a)
    from altrings.catalog import direct_sum

    A = direct_sum(mat2, mat2)
    ctx = peirce_context(A, A.idempotent)
    F = A.field
    zero = (F.zero,) * 8
    images = [zero] * 8
    images[0] = (0, 0, 0, 0, 0, 1, 0, 0)  # e1 -> E12 of the second block
    D = LinearMap.from_images(A, images)
    rep = check_conditions_abc(ctx, D)
    assert rep.a.status is Verdict.FAILS
    with pytest.raises(DecompositionError) as exc:
        decompose(ctx, D, 2, check_ring_conditions=False)
    assert exc.value.certificate == "condition_a"


def test_decompose_warns_on_undecided_ring_conditions():
    P = catalog("product2", QQ)
    ctx = peirce_context(P, P.idempotent)
    D = LinearMap.zero(P)
    with pytest.raises(DecompositionError) as exc:
        decompose(ctx, D, 2)  # conditions (2)/(3) fail on a split ring
    assert exc.value.certificate == "ring_conditions"


def test_decompose_non_unique_z_on_degenerate_ring():
    P = catalog("product2", QQ)
    ctx = peirce_context(P, P.idempotent)
    D = LinearMap.zero(P)
    dec_err = None
    try:
        decompose(ctx, D, 2, check_ring_conditions=False)
    except DecompositionError as e:
        dec_err = e.certificate
    # zero map decomposes as 0 + 0 even here, or the center solve degenerates
    assert dec_err in (None, "non_unique_z")


coeff = st.integers(-3, 3)
vec4 = st.tuples(coeff, coeff, coeff, coeff)


@settings(max_examples=40, deadline=None)
@given(vec4, vec4, st.integers(0, 3))
def test_lie2_members_satisfy_identity_everywhere(a, b, which):
    A = catalog("mat2", QQ)
    basis_maps = lie_n_derivation_space(A, 2).maps()
    D = basis_maps[which]
    x, y = A.element(a), A.element(b)
    assert lie_leibniz_residual(A, D, [x, y]).is_zero()


@settings(max_examples=30, deadline=None)
@given(vec4, vec4, vec4)
def test_lie3_members_satisfy_identity_everywhere(a, b, c):
    A = catalog("mat2", QQ)
    for D in lie_n_derivation_space(A, 3).maps():
        xs = [A.element(a), A.element(b), A.element(c)]
        assert lie_leibniz_residual(A, D, xs).is_zero()


@pytest.mark.parametrize("F, rows", [
    (QQ, [[Fraction(1, 2), 3, 0], [Fraction(-2, 3), 0, Fraction(5, 7)], [1, 1, 1]]),
    (QQ, [[0, 1], [Fraction(7, 4), Fraction(1, 9)]]),
    (GF(5), [[2, 3, 1], [0, 4, 4], [1, 0, 3]]),
    (GF(2), [[0, 1, 1], [1, 0, 1], [1, 1, 1]]),
])
def test_invert_is_a_two_sided_inverse(F, rows):
    P = Matrix(F, rows)
    ident = Matrix.identity(F, P.nrows)
    assert P @ _invert(P) == ident
    assert _invert(P) @ P == ident


@pytest.mark.parametrize("F, rows", [
    (QQ, [[Fraction(1, 2), 1], [1, 2]]),
    (QQ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
    (GF(3), [[1, 2, 0], [2, 1, 0], [0, 1, 1]]),
])
def test_invert_rejects_singular(F, rows):
    with pytest.raises(ValueError):
        _invert(Matrix(F, rows))
