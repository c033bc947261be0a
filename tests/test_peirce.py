import pytest
from hypothesis import given, settings, strategies as st

from altrings.algebra import Algebra, find_unit
from altrings.catalog import catalog, parse, serialize
from altrings.fields import GF, QQ
from altrings.peirce import (
    PeirceError,
    check_conditions_1_to_4,
    check_offdiag_commutant,
    is_prime,
    peirce_context,
    verify_peirce_relations,
)
from altrings.verdict import Verdict


@pytest.fixture(scope="module")
def ctx_mat2():
    A = catalog("mat2", QQ)
    return peirce_context(A, A.idempotent)


@pytest.fixture(scope="module")
def ctx_zorn():
    A = catalog("zorn", QQ)
    return peirce_context(A, A.idempotent)


def test_rejects_non_idempotent():
    A = catalog("mat2", QQ)
    with pytest.raises(PeirceError) as exc:
        peirce_context(A, (0, 1, 0, 0))
    assert exc.value.kind == "not_idempotent"
    with pytest.raises(PeirceError) as exc:
        peirce_context(A, (1, 0, 0, 1))
    assert exc.value.kind == "trivial_idempotent"


def test_component_dims(ctx_mat2, ctx_zorn):
    assert ctx_mat2.dims == (1, 1, 1, 1)
    assert ctx_zorn.dims == (1, 3, 3, 1)
    tri = catalog("tri2", QQ)
    assert peirce_context(tri, tri.idempotent).dims == (1, 1, 0, 1)


def test_components_span_everything(ctx_zorn):
    total = sum(ctx_zorn.dims)
    assert total == ctx_zorn.algebra.dim
    # e1 sits in the (1,1) component
    assert ctx_zorn.component(1, 1).contains(ctx_zorn.e1)


def test_projections_are_idempotent_and_orthogonal(ctx_zorn):
    slots = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for s in slots:
        pi = ctx_zorn.projection(*s)
        assert pi @ pi == pi
    for s in slots:
        for t in slots:
            if s != t:
                comp = ctx_zorn.projection(*s) @ ctx_zorn.projection(*t)
                assert comp.is_zero()


def test_peirce_relations_hold(ctx_mat2, ctx_zorn):
    for ctx in (ctx_mat2, ctx_zorn):
        rep = verify_peirce_relations(ctx)
        assert rep.composition and rep.same_component and rep.orthogonality
        assert rep.square_free is True
        assert rep.all_hold
        assert rep.violations == ()


def test_peirce_relations_char2_enumeration():
    A = catalog("zorn", GF(2))
    ctx = peirce_context(A, A.idempotent)
    rep = verify_peirce_relations(ctx)
    assert rep.square_free is True
    small = verify_peirce_relations(ctx, budget=4)
    assert small.square_free is None  # enumeration budget too small


def test_conditions_mat2_holds(ctx_mat2):
    rep = check_conditions_1_to_4(ctx_mat2)
    assert set(rep.entries) == {"1(1,2)", "1(2,1)", "2a", "2b", "3a", "3b", "4"}
    assert all(v.status is Verdict.HOLDS for v in rep.entries.values())
    assert rep.overall is Verdict.HOLDS


def test_conditions_finite_instances():
    for name, field in (("mat2", GF(2)), ("zorn", GF(5))):
        A = catalog(name, field)
        ctx = peirce_context(A, A.idempotent)
        rep = check_conditions_1_to_4(ctx)
        assert all(v.status is Verdict.HOLDS for v in rep.entries.values()), name


def test_conditions_tri2_failure_pattern():
    tri = catalog("tri2", QQ)
    rep = check_conditions_1_to_4(peirce_context(tri, tri.idempotent))
    assert rep.entries["1(1,2)"].status is Verdict.FAILS
    assert rep.entries["1(1,2)"].witness is not None
    assert rep.entries["1(2,1)"].status is Verdict.HOLDS
    assert rep.overall is Verdict.FAILS


def test_condition_4_three_valued():
    P = catalog("product2", QQ)
    ctx = peirce_context(P, P.idempotent)
    assert check_conditions_1_to_4(ctx).entries["4"].status is Verdict.UNDECIDED
    P2 = catalog("product2", GF(2))
    ctx2 = peirce_context(P2, P2.idempotent)
    assert check_conditions_1_to_4(ctx2).entries["4"].status is Verdict.FAILS


def test_solved_unit_is_not_recorded_as_declared():
    """A unit that find_unit solves for never reaches the .saf bytes."""
    A = parse(b"saf 1\nfield GF 3\ndim 2\nidem 1 0\nmul 1 1 1 1\nmul 2 2 2 1\n")
    before = serialize(A)
    peirce_context(A, A.idempotent)
    assert find_unit(A).coords == (1, 1)
    assert A.unit is None
    assert serialize(A) == before
    assert b"unit" not in before


def _unitless_mat2_q():
    M = catalog("mat2", QQ)
    triples = {(i, j, k): c for i in range(4) for j in range(4)
               for k, c in enumerate(M.tensor[i][j]) if c}
    return Algebra(QQ, 4, triples, idempotent=M.idempotent)


def _central_nilpotent_q():
    """e1 e1 = e1, e1 m = m, z central with zA = 0: Z = Q z, no unit."""
    return Algebra(QQ, 3, {(0, 0, 0): 1, (0, 1, 1): 1}, idempotent=(1, 0, 0))


@pytest.mark.parametrize("build, expected", [
    (_unitless_mat2_q, Verdict.HOLDS),
    (_central_nilpotent_q, Verdict.FAILS),
])
def test_condition_4_rank_one_center_ignores_the_unit(build, expected):
    declared = catalog("mat2", QQ)
    verdicts = []
    for solve_first in (False, True):
        A = build()
        if solve_first:
            find_unit(A)
        entry = check_conditions_1_to_4(peirce_context(A, A.idempotent)).entries["4"]
        assert A.unit is None
        verdicts.append((entry.status, entry.witness))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] is expected
    if expected is Verdict.FAILS:
        assert verdicts[0][1] == (0, 0, 1)
    else:
        ctx = peirce_context(declared, declared.idempotent)
        assert check_conditions_1_to_4(ctx).entries["4"].status is expected


def test_offdiag_commutant(ctx_mat2, ctx_zorn):
    for ctx in (ctx_mat2, ctx_zorn):
        for side in ("12", "21"):
            assert check_offdiag_commutant(ctx, side).contained_in_center


def test_offdiag_commutant_tri2_club_fails():
    tri = catalog("tri2", QQ)
    ctx = peirce_context(tri, tri.idempotent)
    assert check_offdiag_commutant(ctx, "12").contained_in_center
    assert not check_offdiag_commutant(ctx, "21").contained_in_center


def test_prime_mat2_gf2():
    A = catalog("mat2", GF(2))
    rep = is_prime(A)
    assert rep.status is Verdict.HOLDS and rep.mode == "exhaustive"


def test_prime_tri2_gf2_witness():
    A = catalog("tri2", GF(2))
    rep = is_prime(A)
    assert rep.status is Verdict.FAILS
    a, b = rep.witness
    assert a == (0, 1, 0) and b == (0, 1, 0)  # a = b = E12


def test_prime_product2_witness():
    A = catalog("product2", GF(2))
    rep = is_prime(A)
    assert rep.status is Verdict.FAILS
    a, b = rep.witness
    assert a == (1, 0) and b == (0, 1)


def test_prime_rational_sampled_undecided():
    A = catalog("mat2", QQ)
    rep = is_prime(A)
    assert rep.status is Verdict.UNDECIDED and rep.mode == "sampled"


def test_prime_rational_sampled_refutes():
    A = catalog("tri2", QQ)
    rep = is_prime(A)
    assert rep.status is Verdict.FAILS and rep.mode == "sampled"


def test_prime_char3_warns():
    A = catalog("mat2", GF(3))
    with pytest.warns(UserWarning, match="3-torsion"):
        rep = is_prime(A)
    assert rep.status is Verdict.HOLDS


def test_cross_invariants_on_catalog():
    """Prime + alternative forces (1)-(3); (1)-(3) force both commutants."""
    from altrings.algebra import classify_identities
    from altrings.catalog import CATALOG_NAMES
    import warnings

    for name in sorted(CATALOG_NAMES):
        for F in (QQ, GF(2), GF(3), GF(5)):
            A = catalog(name, F)
            ctx = peirce_context(A, A.idempotent)
            conds = check_conditions_1_to_4(ctx)
            one_to_three = all(
                v.status is Verdict.HOLDS
                for k, v in conds.entries.items()
                if k != "4"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                prime = is_prime(A).status is Verdict.HOLDS
            alternative = classify_identities(A).alternative
            if prime and alternative:
                assert one_to_three, (name, F.name)
            if one_to_three:
                assert check_offdiag_commutant(ctx, "12").contained_in_center
                assert check_offdiag_commutant(ctx, "21").contained_in_center


coeff = st.integers(-3, 3)
vec8 = st.tuples(*([coeff] * 8))


@settings(max_examples=50, deadline=None)
@given(vec8)
def test_zorn_projection_decomposition(a):
    Z = catalog("zorn", QQ)
    ctx = peirce_context(Z, Z.idempotent)
    parts = [ctx.component_part(a, i, j) for i in (1, 2) for j in (1, 2)]
    total = tuple(sum(vals) for vals in zip(*parts))
    assert total == tuple(Z.field.coerce(v) for v in a)
    for (i, j), part in zip(((1, 1), (1, 2), (2, 1), (2, 2)), parts):
        assert ctx.component(i, j).contains(part)


@settings(max_examples=50, deadline=None)
@given(vec8, vec8)
def test_zorn_component_products_land_correctly(a, b):
    Z = catalog("zorn", QQ)
    ctx = peirce_context(Z, Z.idempotent)
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for k, l in ((1, 1), (1, 2), (2, 1), (2, 2)):
            x = ctx.component_part(a, i, j)
            y = ctx.component_part(b, k, l)
            prod = Z.mul_coords(x, y)
            if j == k:
                target = ctx.component(i, l)
                if (i, j) == (k, l):  # same-component squares flip
                    target = target.sum_with(ctx.component(j, i))
                assert target.contains(prod)
            elif (i, j) == (k, l):
                assert ctx.component(j, i).contains(prod)
            else:
                assert all(v == 0 for v in prod)
