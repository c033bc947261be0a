import random
from itertools import product
from time import perf_counter

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


def _inverse_mod(P, p):
    """P^-1 mod p by Gauss-Jordan, or None when P is singular."""
    n = len(P)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(P)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % p), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def _dense_rebase(A, p, seed):
    """A over GF(p) in the seeded random basis f_i = sum_r P[i][r] e_r."""
    d = A.dim
    rng = random.Random(seed)
    while True:
        P = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        Q = _inverse_mod(P, p)
        if Q is not None:
            break
    c = A.tensor
    triples = {}
    for i in range(d):
        for j in range(d):
            # f_i f_j = sum P[i][r] P[j][s] e_r e_s, and e_k = sum_l Q[k][l] f_l
            e = [sum(P[i][r] * P[j][s] * int(c[r][s][k]) for r in range(d) for s in range(d))
                 for k in range(d)]
            for l in range(d):
                v = sum(e[k] * Q[k][l] for k in range(d)) % p
                if v:
                    triples[(i, j, l)] = v
    return Algebra(GF(p), d, triples)


_HOLDS = "all {} rays have trivial annihilator"
_FAILS = "a R b = 0 with both nonzero"

# (status, mode, checked, witness, detail) of is_prime, as frozen before the
# scan was rewritten on packed operators
FROZEN_PRIME = {
    "zorn/GF(2)": (Verdict.HOLDS, "exhaustive", 255, None, _HOLDS.format(255)),
    "zorn/GF(3)": (Verdict.HOLDS, "exhaustive", 3280, None, _HOLDS.format(3280)),
    "zorn~dense1/GF(3)": (Verdict.HOLDS, "exhaustive", 3280, None, _HOLDS.format(3280)),
    "zorn~dense2/GF(3)": (Verdict.HOLDS, "exhaustive", 3280, None, _HOLDS.format(3280)),
    "zorn~dense3/GF(3)": (Verdict.HOLDS, "exhaustive", 3280, None, _HOLDS.format(3280)),
    "mat2/GF(5)": (Verdict.HOLDS, "exhaustive", 156, None, _HOLDS.format(156)),
    "mat2/GF(7)": (Verdict.HOLDS, "exhaustive", 400, None, _HOLDS.format(400)),
    "mat2/GF(11)": (Verdict.HOLDS, "exhaustive", 1464, None, _HOLDS.format(1464)),
    "mat2/GF(13)": (Verdict.HOLDS, "exhaustive", 2380, None, _HOLDS.format(2380)),
    "tri2/GF(2)": (Verdict.FAILS, "exhaustive", 2, ((0, 1, 0), (0, 1, 0)), _FAILS),
    "tri2/GF(3)": (Verdict.FAILS, "exhaustive", 2, ((0, 1, 0), (0, 1, 0)), _FAILS),
    "product2/GF(2)": (Verdict.FAILS, "exhaustive", 1, ((1, 0), (0, 1)), _FAILS),
    "product2/GF(3)": (Verdict.FAILS, "exhaustive", 1, ((1, 0), (0, 1)), _FAILS),
    "product2/GF(5)": (Verdict.FAILS, "exhaustive", 1, ((1, 0), (0, 1)), _FAILS),
}


@pytest.mark.filterwarnings("ignore:primality loop")
@pytest.mark.parametrize("case", sorted(FROZEN_PRIME))
def test_prime_reports_are_frozen(case):
    name, field = case.split("/")
    p = int(field[3:-1])
    if "~dense" in name:
        A = _dense_rebase(catalog("zorn", GF(p)), p, int(name[-1]))
    else:
        A = catalog(name, GF(p))
    rep = is_prime(A)
    assert (rep.status, rep.mode, rep.checked, rep.witness, rep.detail) == FROZEN_PRIME[case]


def _mul(c, p, x, y):
    d = len(x)
    return tuple(
        sum(x[i] * y[j] * c[i][j][k] for i in range(d) for j in range(d)) % p
        for k in range(d)
    )


def _brute_prime(c, p, d):
    """(checked, a, b) at the first failing ray in the documented order, or
    (rays, None, None); b is a when a kills itself, else the kernel vector
    whose last nonzero slot comes first, scaled to 1 there."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays = units + [
        v for lead in range(d) for tail in product(range(p), repeat=d - lead - 1)
        if (v := (0,) * lead + (1,) + tail) not in units
    ]
    nonzero = [v for v in product(range(p), repeat=d) if any(v)]
    for checked, a in enumerate(rays, 1):
        aR = [_mul(c, p, a, e) for e in units]
        killed = [b for b in nonzero if not any(any(_mul(c, p, y, b)) for y in aR)]
        if killed:
            if a in killed:
                return checked, a, a
            last = {b: max(i for i in range(d) if b[i]) for b in killed}
            return checked, a, min((b for b in killed if b[last[b]] == 1), key=last.get)
    return len(rays), None, None


@st.composite
def small_algebras(draw):
    """Structure constants over GF(2), GF(3), GF(5) in dim <= 3: arbitrary
    (mostly unit-less), with e_0 as unit, or with R e_{d-1} = 0."""
    p = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("any", "unital", "right_annihilator")))
    scalar = st.one_of(st.just(0), st.integers(0, p - 1))
    c = [[[draw(scalar) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for k in range(d):
            if shape == "unital":
                c[0][i][k] = c[i][0][k] = int(i == k)
            elif shape == "right_annihilator":
                c[i][d - 1][k] = 0
    return p, d, c


@pytest.mark.filterwarnings("ignore:primality loop")
@settings(max_examples=200, deadline=None)
@given(small_algebras())
def test_prime_scan_matches_brute_force(alg):
    p, d, c = alg
    triples = {(i, j, k): c[i][j][k] for i in range(d) for j in range(d) for k in range(d)}
    rep = is_prime(Algebra(GF(p), d, triples))
    checked, a, b = _brute_prime(c, p, d)
    assert rep.mode == "exhaustive" and rep.checked == checked
    if a is None:
        assert rep.status is Verdict.HOLDS and rep.witness is None
        return
    assert rep.status is Verdict.FAILS and rep.witness == (a, b)
    assert any(a) and any(b)
    for r in product(range(p), repeat=d):
        assert not any(_mul(c, p, _mul(c, p, a, r), b))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_condition_4_witness_is_the_first_central_zero_divisor(p):
    P = catalog("product2", GF(p))
    entry = check_conditions_1_to_4(peirce_context(P, P.idempotent)).entries["4"]
    assert entry.status is Verdict.FAILS
    assert entry.witness == (0, 1)
    assert entry.detail == "central z with zR != R"


def test_condition_4_over_budget_is_undecided_without_enumerating():
    # GF(2)^18: commutative, so Z = R has 2^18 - 1 rays, past the 2^17 budget
    d = 18
    A = Algebra(GF(2), d, {(i, i, i): 1 for i in range(d)},
                idempotent=(1,) + (0,) * (d - 1))
    ctx = peirce_context(A, A.idempotent)
    assert ctx.center.dim == d
    start = perf_counter()
    entry = check_conditions_1_to_4(ctx).entries["4"]
    assert perf_counter() - start < 10.0
    assert entry.status is Verdict.UNDECIDED
    assert entry.detail == "262143 central rays exceed the enumeration budget 131072"


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
