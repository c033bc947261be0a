import random
from fractions import Fraction
from itertools import permutations, product
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from altrings import peirce
from altrings.algebra import Algebra, center, find_unit, nucleus
from altrings.catalog import catalog, direct_sum, parse, serialize
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
from oracles import dense_rebase, inverse, mat2_over_x4_plus_1, q_rebase, rebase


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


@pytest.mark.parametrize(
    "triples",
    [
        {(0, 0, 0), (1, 0, 0)},  # e1(a e1) != (e1 a)e1 at a = e_2
        {(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)},  # (e1 .)^2 != e1 .
        {(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)},  # (. e1)^2 != . e1
    ],
)
def test_decomposition_failure_at_e1(triples):
    A = Algebra(GF(2), 2, {t: 1 for t in triples})
    with pytest.raises(PeirceError) as exc:
        peirce_context(A, (1, 0))
    assert exc.value.kind == "decomposition_failure"


def _reference_projections(p, d, c, e):
    """The four Peirce projections at the idempotent e of the algebra with
    structure constants c[i][j][k] over GF(p), as lists of rows (column j
    is the image of e_j), or None when they are not orthogonal idempotents
    summing to the identity with ranks summing to d."""

    def matmul(x, y):
        return [[sum(x[r][t] * y[t][s] for t in range(d)) % p for s in range(d)]
                for r in range(d)]

    def rank(m):
        m = [row[:] for row in m]
        r = 0
        for col in range(d):
            pivot = next((i for i in range(r, d) if m[i][col]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = pow(m[r][col], p - 2, p)
            m[r] = [v * inv % p for v in m[r]]
            for i in range(d):
                if i != r and m[i][col]:
                    f = m[i][col]
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
            r += 1
        return r

    one = [[int(r == s) for s in range(d)] for r in range(d)]
    L = [[sum(e[i] * c[i][j][k] for i in range(d)) % p for j in range(d)]
         for k in range(d)]
    R = [[sum(e[i] * c[j][i][k] for i in range(d)) % p for j in range(d)]
         for k in range(d)]
    if matmul(L, R) != matmul(R, L):
        return None
    L_, R_ = ([[(a - b) % p for a, b in zip(u, v)] for u, v in zip(one, m)]
              for m in (L, R))
    pi = [matmul(L, R), matmul(L, R_), matmul(L_, R), matmul(L_, R_)]
    total = [[sum(m[r][s] for m in pi) % p for s in range(d)] for r in range(d)]
    if total != one:
        return None
    for a, x in enumerate(pi):
        for b, y in enumerate(pi):
            want = x if a == b else [[0] * d for _ in range(d)]
            if matmul(x, y) != want:
                return None
    if sum(rank(m) for m in pi) != d:
        return None
    return pi


def test_peirce_context_matches_four_projection_reference():
    rng = random.Random(20261018)
    outcomes, squares = set(), set()
    for _ in range(1000):
        p = rng.choice((2, 3))
        d = rng.choice((2, 3))
        c = [[[rng.randrange(p) if rng.random() < 0.35 else 0 for _ in range(d)]
              for _ in range(d)] for _ in range(d)]

        def mul(x, y):
            return tuple(
                sum(x[i] * y[j] * c[i][j][k] for i in range(d) for j in range(d)) % p
                for k in range(d)
            )

        basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        elements = list(product(range(p), repeat=d))
        units = [u for u in elements
                 if all(mul(u, b) == b and mul(b, u) == b for b in basis)]
        A = Algebra(GF(p), d, {(i, j, k): c[i][j][k] for i in range(d)
                               for j in range(d) for k in range(d) if c[i][j][k]})
        for e in elements:
            if not any(e) or mul(e, e) != e or e in units:
                continue
            pi = _reference_projections(p, d, c, e)
            try:
                ctx = peirce_context(A, e)
            except PeirceError as exc:
                assert exc.kind == "decomposition_failure"
                assert pi is None, (c, e)
                outcomes.add(False)
                continue
            assert pi is not None, (c, e)
            for s, m in zip(((1, 1), (1, 2), (2, 1), (2, 2)), pi):
                assert [list(row) for row in ctx.projection(*s).matrix.rows] == m
            outcomes.add(True)
            # x^2 = 0 on all of R12 and R21, the images of pi12 and pi21
            off_diagonal = {
                tuple(sum(m[r][t] * x[t] for t in range(d)) % p for r in range(d))
                for m in pi[1:3] for x in elements
            }
            square_free = all(not any(mul(x, x)) for x in off_diagonal)
            assert verify_peirce_relations(ctx).square_free is square_free, (c, e)
            squares.add(square_free)
    assert outcomes == {True, False}
    assert squares == {True, False}


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


def test_peirce_relations_char2_is_decided():
    A = catalog("zorn", GF(2))
    ctx = peirce_context(A, A.idempotent)
    rep = verify_peirce_relations(ctx)
    assert rep.square_free is True


def test_conditions_mat2_holds(ctx_mat2):
    rep = check_conditions_1_to_4(ctx_mat2)
    assert set(rep.entries) == {"1(1,2)", "1(2,1)", "2a", "2b", "3a", "3b", "4"}
    assert all(v.status is Verdict.HOLDS for v in rep.entries.values())


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


def test_condition_4_three_valued():
    # over Q the last RREF row (0, 1) of product2's center is a zero divisor
    P = catalog("product2", QQ)
    ctx = peirce_context(P, P.idempotent)
    assert check_conditions_1_to_4(ctx).entries["4"] == (
        Verdict.FAILS, "central z with zR != R", (0, 1))
    P2 = catalog("product2", GF(2))
    ctx2 = peirce_context(P2, P2.idempotent)
    assert check_conditions_1_to_4(ctx2).entries["4"].status is Verdict.FAILS
    M = mat2_over_x4_plus_1()
    ctx3 = peirce_context(M, M.idempotent)
    assert check_conditions_1_to_4(ctx3).entries["4"].status is Verdict.UNDECIDED


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_condition_4_holds_on_a_zero_center(field):
    # e0 e0 = e0, e0 e1 = e1: nothing commutes with both e0 and e1
    A = Algebra(field, 2, {(0, 0, 0): 1, (0, 1, 1): 1}, idempotent=(1, 0))
    ctx = peirce_context(A, A.idempotent)
    assert ctx.center.is_zero()
    assert ctx.dims == (1, 1, 0, 0)
    assert check_conditions_1_to_4(ctx).entries["4"] == (
        Verdict.HOLDS, "center is zero; nothing to check", None)


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


def test_prime_report_is_memoised_per_algebra():
    A, B = catalog("mat2", GF(2)), catalog("mat2", GF(2))
    first = is_prime(A)
    assert is_prime(A) is first
    again = is_prime(B)
    assert again is not first and again == first
    # over GF(p) the walk reads neither samples nor seed: one report
    C = catalog("mat2", GF(5))
    assert is_prime(C, seed=1) is is_prime(C, seed=2) is is_prime(C, samples=7)
    # over Q the seed picks the samples, so it is part of the memo key
    P = catalog("product2", QQ)
    assert is_prime(P, samples=20, seed=1).status is Verdict.UNDECIDED
    assert is_prime(P, samples=20, seed=2).status is Verdict.FAILS


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


def _divided(A, q):
    """A over Q in the basis e_0, e_1 / q, e_2, ...: a rescaled copy whose
    structure constants have a denominator divisible by q."""
    d = A.dim
    scale = [Fraction(1)] * d
    scale[1] = Fraction(1, q)
    triples = {(i, j, k): c * scale[i] * scale[j] / scale[k]
               for i in range(d) for j in range(d)
               for k, c in enumerate(A.tensor[i][j]) if c}
    return Algebra(QQ, d, triples,
                   idempotent=[x / s for x, s in zip(A.idempotent, scale)])


_HOLDS = "all {} rays have trivial annihilator"
_FAILS = "a R b = 0 with both nonzero"

_SAMPLED = "no witness among 50 random samples; not exhaustive over Q"

# (status, mode, checked, witness, detail) of is_prime, as frozen before the
# scan was rewritten on packed operators (GF(p)) and before the sampled loop
# (Q) was certified mod a prime; mat2~div251 and product2~div251 have a
# denominator divisible by that prime, so no sample is certified there
FROZEN_PRIME = {
    "zorn/Q": (Verdict.UNDECIDED, "sampled", 50, None, _SAMPLED),
    "zorn~dense1/Q": (Verdict.UNDECIDED, "sampled", 50, None, _SAMPLED),
    "zorn~dense2/Q": (Verdict.UNDECIDED, "sampled", 50, None, _SAMPLED),
    "mat2/Q": (Verdict.UNDECIDED, "sampled", 50, None, _SAMPLED),
    "mat2~div251/Q": (Verdict.UNDECIDED, "sampled", 50, None, _SAMPLED),
    "tri2/Q": (Verdict.FAILS, "sampled", 21, ((0, 8, 0), (1, 0, 0)), _FAILS),
    "tri2~dense1/Q": (Verdict.FAILS, "sampled", 10,
                      ((2, 4, 1), (1, 0, Fraction(-2, 5))), _FAILS),
    "product2/Q": (Verdict.FAILS, "sampled", 4, ((3, 0), (0, 1)), _FAILS),
    "product2~dense1/Q": (Verdict.FAILS, "sampled", 28, ((-7, -7), (1, 2)), _FAILS),
    "product2~div251/Q": (Verdict.FAILS, "sampled", 4, ((3, 0), (0, 1)), _FAILS),
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


def _frozen_algebra(case):
    """The algebra of a FROZEN_PRIME key: catalog name / field, where
    name~denseN is the seeded rebase N and name~divN is ``_divided`` by N."""
    name, field = case.split("/")
    F = QQ if field == "Q" else GF(int(field[3:-1]))
    base, _, variant = name.partition("~")
    A = catalog(base, F)
    if variant.startswith("dense"):
        seed = int(variant[5:])
        return q_rebase(A, seed) if field == "Q" else dense_rebase(A, F.p, seed)
    if variant.startswith("div"):
        return _divided(A, int(variant[3:]))
    return A


@pytest.mark.filterwarnings("ignore:primality loop")
@pytest.mark.parametrize("case", sorted(FROZEN_PRIME))
def test_prime_reports_are_frozen(case):
    rep = is_prime(_frozen_algebra(case))
    assert (rep.status, rep.mode, rep.checked, rep.witness, rep.detail) == FROZEN_PRIME[case]


@pytest.mark.parametrize("case", ["mat2~div251/Q", "product2~div251/Q"])
def test_sampled_prime_certificate_never_fires_when_p_divides_den(case):
    """Both frozen reports above come from the exact test alone here."""
    from altrings.peirce import _CERT_PRIME, _packed_ray_test

    A = _frozen_algebra(case)
    assert A._den % _CERT_PRIME == 0
    failing_rows = _packed_ray_test(A, _CERT_PRIME).failing_rows
    rng = random.Random(0)
    samples = [[rng.randint(-9, 9) for _ in range(A.dim)] for _ in range(50)]
    assert all(failing_rows([x % _CERT_PRIME for x in a]) is not None
               for a in samples if any(a))


def _mul(c, p, x, y):
    d = len(x)
    return tuple(
        sum(x[i] * y[j] * c[i][j][k] for i in range(d) for j in range(d)) % p
        for k in range(d)
    )


def _brute_rays(p, d):
    """The rays of GF(p)^d in the documented order: the unit vectors, then
    per lead position the vectors 1 there and 0 before it, with the nonzero
    tails after it in product order."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return units + [
        v for lead in range(d) for tail in product(range(p), repeat=d - lead - 1)
        if (v := (0,) * lead + (1,) + tail) not in units
    ]


def _brute_failing(c, p, d):
    """(checked, a, killed) at every failing ray in the documented order,
    killed being every nonzero b with a R b = 0."""
    units = _brute_rays(p, d)[:d]
    nonzero = [v for v in product(range(p), repeat=d) if any(v)]
    out = []
    for checked, a in enumerate(_brute_rays(p, d), 1):
        aR = [_mul(c, p, a, e) for e in units]
        killed = [b for b in nonzero if not any(any(_mul(c, p, y, b)) for y in aR)]
        if killed:
            out.append((checked, a, killed))
    return out


def _brute_witness(a, killed):
    """b for the ray a: a when a kills itself, else the kernel vector whose
    last nonzero slot comes first, scaled to 1 there."""
    if a in killed:
        return a
    last = {b: max(i for i, x in enumerate(b) if x) for b in killed}
    return min((b for b in killed if b[last[b]] == 1), key=last.get)


def _lane_runs(scan):
    """scan() as a list, with the default chunks and with chunks of a few
    lanes, whose seams fall inside lead blocks; scan builds its kernel,
    which fixes its chunk size when built."""
    runs = []
    for bits in (peirce._LANE_BITS, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(peirce, "_LANE_BITS", bits)
            runs.append(list(scan()))
    return runs


def _walked(A, p):
    """(checked, a) at each ray the walk fails, in each of ``_lane_runs``;
    each failing ray has the rows of the single-ray test."""
    return [[(checked, a) for checked, a, rows in run if rows is not None]
            for run in _lane_runs(lambda: peirce._packed_ray_test(A, p).walk())]


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
    A = Algebra(GF(p), d, triples)
    rep = is_prime(A)
    failing = _brute_failing(c, p, d)
    assert _walked(A, p) == [[(checked, a) for checked, a, _ in failing]] * 2
    assert rep.mode == "exhaustive"
    if not failing:
        assert rep.status is Verdict.HOLDS and rep.witness is None
        assert rep.checked == (p ** d - 1) // (p - 1)
        return
    checked, a, killed = failing[0]
    b = _brute_witness(a, killed)
    assert rep.status is Verdict.FAILS and rep.checked == checked and rep.witness == (a, b)
    assert any(a) and any(b)
    for r in product(range(p), repeat=d):
        assert not any(_mul(c, p, _mul(c, p, a, r), b))



def _gf_square_pair(p):
    """GF(p^2) x GF(p^2) over GF(p), p in (2, 3), on the basis 1, x of each
    factor (x^2 = x + 1 over GF(2), x^2 = -1 over GF(3)): not prime, and
    its failing rays are the 2(p + 1) lying in one factor."""
    square = {2: (1, 1), 3: (p - 1, 0)}[p]  # x^2 on the basis 1, x
    triples = {}
    for f in (0, 2):
        triples[(f, f, f)] = triples[(f, f + 1, f + 1)] = triples[(f + 1, f, f + 1)] = 1
        triples[(f + 1, f + 1, f)], triples[(f + 1, f + 1, f + 1)] = square
    return Algebra(GF(p), 4, {k: v for k, v in triples.items() if v})


# (base, p, seed of the dense basis); over GF(3) the pair's seeds put its
# first failing ray at 23 and 24 of 40, deep inside the lead block of rays
# 5 to 30
DIM4_PRIME_CASES = [("mat2", p, seed) for p in (2, 3) for seed in (1, 2, 3)] + [
    ("square_pair", 2, 1), ("square_pair", 3, 565), ("square_pair", 3, 1409),
]


@pytest.mark.filterwarnings("ignore:primality loop")
@pytest.mark.parametrize("base, p, seed", DIM4_PRIME_CASES)
def test_prime_scan_matches_brute_force_dim4(base, p, seed):
    """Dim 4 in dense bases: mat2 is prime, so every ray is walked and many
    pass only at stage 2; the pair is not, and it fails first deep inside a
    lead block."""
    A = catalog("mat2", GF(p)) if base == "mat2" else _gf_square_pair(p)
    A = dense_rebase(A, p, seed)
    c = [[list(row) for row in plane] for plane in A.tensor]
    rep = is_prime(A)
    failing = _brute_failing(c, p, 4)
    assert _walked(A, p) == [[(checked, a) for checked, a, _ in failing]] * 2
    assert rep.mode == "exhaustive"
    assert (base == "mat2") == (not failing)
    if not failing:
        assert rep.status is Verdict.HOLDS and rep.witness is None
        assert rep.checked == (p ** 4 - 1) // (p - 1)
    else:
        checked, a, killed = failing[0]
        assert rep.status is Verdict.FAILS and rep.checked == checked
        assert rep.witness == (a, _brute_witness(a, killed))


# GF(7) in dim 3 with most constants p - 1 = 6: the stacked L_y of stage 2
# and the products table of failing_rows are sums of d products of residues
# up to 6, so their slots and lanes reach d (p - 1)^2 = 108, the value bound
# V of _packed_ray_test, and hold the sums 90 and 97 = -1 mod 7, which one
# Barrett step reduces exactly only below 2^b with b = V.bit_length().  The
# first algebra fails only at its last ray, (0, 1, 6); the second is prime.
WORST_CASE_ALGEBRAS = [
    [[[6, 3, 3], [5, 3, 4], [6, 6, 4]], [[6, 2, 6], [6, 3, 6], [6, 6, 6]],
     [[6, 6, 6], [6, 6, 6], [6, 0, 6]]],
    [[[6, 6, 3], [6, 1, 6], [2, 6, 3]], [[3, 6, 4], [3, 1, 3], [6, 6, 6]],
     [[0, 2, 6], [6, 5, 6], [6, 6, 2]]],
]


@pytest.mark.parametrize("c", WORST_CASE_ALGEBRAS, ids=["fails", "prime"])
def test_packed_ray_test_reaches_its_value_bound(c):
    """The walk, is_prime and failing_rows at every nonzero a in 0..6
    (rays and their multiples, as the sampled Q loop passes residues) match
    a brute-force kernel, including the rows failing_rows returns."""
    p, d = 7, 3
    A = Algebra(GF(p), d, {(i, j, k): c[i][j][k]
                           for i in range(d) for j in range(d) for k in range(d)})
    failing = _brute_failing(c, p, d)
    assert _walked(A, p) == [[(checked, a) for checked, a, _ in failing]] * 2
    rep = is_prime(A)
    if failing:
        checked, a, killed = failing[0]
        assert (rep.status, rep.checked) == (Verdict.FAILS, checked)
        assert rep.witness == (a, _brute_witness(a, killed))
    else:
        assert rep.status is Verdict.HOLDS
    failing_rows = peirce._packed_ray_test(A, p).failing_rows
    units = _brute_rays(p, d)[:d]
    nonzero = [v for v in product(range(p), repeat=d) if any(v)]
    for a in nonzero:
        aR = [_mul(c, p, a, e) for e in units]
        killed = [b for b in nonzero if not any(any(_mul(c, p, y, b)) for y in aR)]
        rows = failing_rows(list(a))
        assert rows is None if not killed else killed == [
            b for b in nonzero if not any(sum(x * y for x, y in zip(r, b)) % p for r in rows)]


def _first_rref_vector(vectors):
    """Row 1 of the RREF basis of a whole subspace, from its vectors alone:
    the pivot columns are the leading positions of the nonzero vectors, and
    row 1 is 1 at the first pivot column and 0 at the others."""
    lead = {v: next(i for i, x in enumerate(v) if x) for v in vectors if any(v)}
    pivots = set(lead.values())
    first = min(pivots)
    return next(v for v, i in lead.items() if i == first and v[first] == 1
                and not any(v[c] for c in pivots - {first}))


def _brute_center_nucleus(c, p, d):
    """The center and the nucleus of the constants c over GF(p), enumerated:
    every z with z e_j = e_j z, and every n whose associators with n in one
    slot and basis vectors in the other two vanish."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]

    def mul(x, y):
        return _mul(c, p, x, y)

    def associates(x, y, z):
        return mul(mul(x, y), z) == mul(x, mul(y, z))

    space = list(product(range(p), repeat=d))
    center = {z for z in space if all(mul(z, u) == mul(u, z) for u in units)}
    nucleus = {n for n in space if all(
        associates(n, a, b) and associates(a, n, b) and associates(a, b, n)
        for a in units for b in units)}
    return center, nucleus


@st.composite
def unitizations(draw):
    """(p, d, c, declared): F.1 + A for a random A of dim d - 1 over GF(p),
    its unit e_0 declared or not, or else the unit-less A itself."""
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 3 if p == 2 else 2))
    shape = draw(st.sampled_from(("declared", "undeclared", "bare")))
    a = [[[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    if shape == "bare":
        return p, n, a, False
    d = n + 1
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        c[0][i][i] = c[i][0][i] = 1
    for i in range(n):
        for j in range(n):
            c[i + 1][j + 1][1:] = a[i][j]
    return p, d, c, shape == "declared"


@settings(max_examples=120, deadline=None)
@given(unitizations())
def test_center_and_nucleus_match_enumeration_with_and_without_unit(case):
    """With a declared unit center and nucleus stop folding at rank d - 1;
    the sets must not change, with the unit declared, solvable but not
    declared, or absent."""
    p, d, c, declared = case
    triples = {(i, j, k): c[i][j][k] for i in range(d) for j in range(d)
               for k in range(d) if c[i][j][k]}
    unit = tuple(int(i == 0) for i in range(d)) if declared else None
    A = Algebra(GF(p), d, triples, unit=unit)
    Z, N = _brute_center_nucleus(c, p, d)
    assert set(center(A).vectors()) == Z
    assert set(nucleus(A).vectors()) == N


@pytest.mark.parametrize("name, p, seed", [
    ("mat2", 3, 1), ("mat2", 3, 2), ("mat2", 2, 3), ("zorn", 2, 1), ("zorn", 2, 2),
])
def test_center_and_nucleus_of_unital_rebases_match_enumeration(name, p, seed):
    for unit in (True, False):
        A = dense_rebase(catalog(name, GF(p)), p, seed, unit=unit)
        assert (A.unit is not None) is unit
        Z, N = _brute_center_nucleus(A.tensor, p, A.dim)
        assert set(center(A).vectors()) == Z
        assert set(nucleus(A).vectors()) == N


# condition key -> (domain slot, other slot, side): x*b = 0 (right) or b*x = 0
_ANNIHILATORS = {
    "1(1,2)": ((1, 2), (2, 1), "right"), "1(2,1)": ((2, 1), (1, 2), "right"),
    "2a": ((1, 1), (1, 2), "right"), "2b": ((1, 1), (2, 1), "left"),
    "3a": ((2, 2), (1, 2), "left"), "3b": ((2, 2), (2, 1), "right"),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["mat2", "tri2", "product2"]), st.sampled_from([2, 3]),
       st.integers(0, 2 ** 16))
def test_center_annihilators_and_commutants_match_enumeration(name, p, seed):
    """On a random rebase over GF(p), the center, each annihilator of
    conditions (1)-(3), condition (4) and both off-diagonal commutants
    against sets enumerated from the structure constants alone."""
    A = dense_rebase(catalog(name, GF(p)), p, seed)
    ctx = peirce_context(A, A.idempotent)
    d, e = A.dim, A.idempotent

    def mul(x, y):
        return _mul(A.tensor, p, x, y)

    space = list(product(range(p), repeat=d))
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    zero = (0,) * d
    comp = {(i, j): {x for x in space if mul(e, x) == (x if i == 1 else zero)
                     and mul(x, e) == (x if j == 1 else zero)}
            for i in (1, 2) for j in (1, 2)}
    center = {z for z in space if all(mul(z, u) == mul(u, z) for u in units)}
    assert set(ctx.center.vectors()) == center

    report = check_conditions_1_to_4(ctx)
    for key, (dom, other, side) in _ANNIHILATORS.items():
        ann = {x for x in comp[dom] if not any(
            any(mul(x, b) if side == "right" else mul(b, x)) for b in comp[other])}
        verdict = report[key]
        if ann == {zero}:
            assert verdict.status is Verdict.HOLDS and verdict.witness is None
            assert verdict.detail.endswith(": annihilator is zero")
        else:
            assert verdict.status is Verdict.FAILS
            k = next(k for k in range(d + 1) if p ** k == len(ann))
            assert verdict.detail.endswith(f": annihilator has dim {k}")
            assert verdict.witness == _first_rref_vector(ann)

    # (4): zR = R for every nonzero central z; product2 has dim Z = 2
    singular = {z for z in center - {zero} if len({mul(z, x) for x in space}) < len(space)}
    four = report["4"]
    if singular:
        assert four.status is Verdict.FAILS and four.witness in singular
        assert four.detail == "central z with zR != R"
    else:
        assert four.status is Verdict.HOLDS and four.witness is None
        assert four.detail == "all nonzero central z have zR = R (enumerated)"

    diagonal = {tuple((a + b) % p for a, b in zip(x, y))
                for x in comp[(1, 1)] for y in comp[(2, 2)]}
    for side, slot in (("12", (1, 2)), ("21", (2, 1))):
        S = {a for a in diagonal if all(mul(a, b) == mul(b, a) for b in comp[slot])}
        rep = check_offdiag_commutant(ctx, side)
        assert set(rep.subspace.vectors()) == S
        assert rep.contained_in_center == (S <= center)


@pytest.mark.parametrize("name, seed", [
    ("tri2", 1), ("tri2", 2), ("mat2+mat2", 1), ("mat2+mat2", 2),
])
def test_rational_kernel_witnesses_are_killed(name, seed):
    """Over Q, on a rebase with det 3, so the structure constants have a
    denominator above 1: each FAILS witness of (1)-(3) is a nonzero vector
    of its Peirce component that every basis vector of the other one kills
    on its side, and every basis vector of both diagonal commutants lies in
    R11 + R22 and commutes with the other component, at least one of them
    outside the center when the commutant is not central.  Checked with
    Fraction arithmetic on the structure constants alone."""
    base = (direct_sum(catalog("mat2", QQ), catalog("mat2", QQ)) if name == "mat2+mat2"
            else catalog(name, QQ))
    A = rebase(base, seed, det=3)
    assert A._den > 1
    ctx = peirce_context(A, A.idempotent)
    d, c, e = A.dim, A.tensor, A.idempotent
    zero = (0,) * d

    def mul(x, y):
        return tuple(sum(Fraction(x[i]) * y[j] * c[i][j][k]
                         for i in range(d) for j in range(d)) for k in range(d))

    def in_slot(x, i, j):
        return (mul(e, x) == (tuple(x) if i == 1 else zero)
                and mul(x, e) == (tuple(x) if j == 1 else zero))

    report = check_conditions_1_to_4(ctx)
    failures = 0
    for key, (dom, other, side) in _ANNIHILATORS.items():
        verdict = report[key]
        if verdict.status is Verdict.HOLDS:
            continue
        failures += 1
        w = verdict.witness
        assert any(w) and in_slot(w, *dom)
        for b in ctx.component(*other).basis:
            assert in_slot(b, *other)
            assert not any(mul(w, b) if side == "right" else mul(b, w))
    assert failures >= 2

    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    noncentral = 0
    for side, slot in (("12", (1, 2)), ("21", (2, 1))):
        rep = check_offdiag_commutant(ctx, side)
        others = ctx.component(*slot).basis
        assert all(in_slot(b, *slot) for b in others)
        for s in rep.subspace.basis:
            assert any(s) and mul(e, s) == mul(s, e)  # no R12 or R21 part
            assert all(mul(s, b) == mul(b, s) for b in others)
        if not rep.contained_in_center:
            noncentral += 1
            assert any(mul(s, u) != mul(u, s)
                       for s in rep.subspace.basis for u in units)
    assert noncentral >= 1


@pytest.mark.parametrize("p", (2, 3, 5))
def test_condition_4_witness_is_the_first_central_zero_divisor(p):
    P = catalog("product2", GF(p))
    entry = check_conditions_1_to_4(peirce_context(P, P.idempotent)).entries["4"]
    assert entry.status is Verdict.FAILS
    assert entry.witness == (0, 1)
    assert entry.detail == "central z with zR != R"


@pytest.mark.parametrize("p", (3, 5, 7))
def test_condition_4_fails_at_a_combination_of_passing_basis_rows(p):
    """GF(p)[x]/(x^2 - 1): the center is all of it, its basis vectors 1 and
    x are units, but 1 + x is a zero divisor, (1 + x)(1 - x) = 0."""
    A = Algebra(GF(p), 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
                unit=(1, 0), idempotent=((p + 1) // 2, (p + 1) // 2))
    ctx = peirce_context(A, A.idempotent)
    assert ctx.center.dim == 2
    entry = check_conditions_1_to_4(ctx).entries["4"]
    assert entry.status is Verdict.FAILS
    assert entry.witness == (1, 1)
    assert entry.detail == "central z with zR != R"


@st.composite
def commutative_algebras(draw):
    """Commutative constants over GF(2), GF(3), GF(5) in dim 2 to 4 with the
    idempotent e_0: e_0 e_i = e_i for i = 0 and i in a proper subset of
    1..d-1, else 0, so L_{e_0} is a projection and e_0 no unit; the
    products e_i e_j with 0 < i <= j are arbitrary."""
    p = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(2, 4))
    fixed = {0} | draw(st.sets(st.integers(1, d - 1), max_size=d - 2))
    c = [[[int(i == 0 and j == k and k in fixed) for k in range(d)] for j in range(d)]
         for i in range(d)]
    for i in range(1, d):
        c[i][0] = c[0][i]
        for j in range(i, d):
            c[i][j] = c[j][i] = [draw(st.integers(0, p - 1)) for _ in range(d)]
    return p, d, c


def _det(M, p):
    """det M mod p by the Leibniz formula."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total % p


@settings(max_examples=150, deadline=None)
@given(commutative_algebras())
def test_condition_4_matches_brute_force(alg):
    """Z = R here, so (4) scans every ray of R over Z's RREF rows e_0, ...,
    e_{d-1}, last row first; z fails when det L_z = 0 mod p.  The central
    e_0 kills the e_i outside its subset, so (4) always fails here, and
    the list of every singular ray, with both chunk sizes, is what shows
    that the other rays pass."""
    p, d, c = alg
    A = Algebra(GF(p), d, {(i, j, k): c[i][j][k] for i in range(d) for j in range(d)
                           for k in range(d) if c[i][j][k]})
    ctx = peirce_context(A, (1,) + (0,) * (d - 1))
    assert ctx.center.dim == d
    singular = []
    for a in _brute_rays(p, d):
        z = a[::-1]
        L = [[sum(z[i] * c[i][j][k] for i in range(d)) % p for j in range(d)]
             for k in range(d)]
        if _det(L, p) == 0:
            singular.append(z)
    entry = check_conditions_1_to_4(ctx).entries["4"]
    if singular:
        assert entry.status is Verdict.FAILS and entry.witness == singular[0]
    else:
        assert entry.status is Verdict.HOLDS
    runs = _lane_runs(lambda: peirce._packed_ray_test(A, p).singular_rays(ctx.center._num[::-1]))
    assert [[tuple(z) for z in run] for run in runs] == [singular] * 2


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


def _mat2_over_gf_p2(p):
    """2x2 matrices over GF(p^2) = GF(p)[t]/(t^2 - n), n a non-square, as
    an 8-dim GF(p)-algebra with basis E_rc t^a at index 4r + 2c + a."""
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    triples = {}
    for r, c, s, a, b in product(range(2), repeat=5):
        k, scale = divmod(a + b, 2)  # t^(a+b) = n^k t^scale
        triples[(4 * r + 2 * c + a, 4 * c + 2 * s + b, 4 * r + 2 * s + scale)] = n ** k
    return Algebra(GF(p), 8, triples, unit=(1, 0, 0, 0, 0, 0, 1, 0),
                   idempotent=(1,) + (0,) * 7)


def test_condition_4_enumerates_rays_not_vectors():
    """The center GF(p^2) of mat2 over GF(p^2) has dim 2 over GF(p), so (4)
    scans its p + 1 rays; at p = 1009 listing all p^2 central vectors
    instead takes seconds."""
    A = _mat2_over_gf_p2(1009)
    ctx = peirce_context(A, A.idempotent)
    assert ctx.center.dim == 2
    start = perf_counter()
    entry = check_conditions_1_to_4(ctx).entries["4"]
    assert perf_counter() - start < 2.0
    assert entry.status is Verdict.HOLDS
    assert entry.detail == "all nonzero central z have zR = R (enumerated)"


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


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([("mat2", (1, 1, 1, 1)), ("tri2", (1, 1, 0, 1)),
                        ("zorn", (1, 3, 3, 1)), ("product2", (1, 0, 0, 1))]),
       st.integers(0, 2 ** 16))
def test_projections_on_conjugated_catalog_algebras(entry, seed):
    """Rewrite a catalog algebra over Q in the basis f_s = sum_k P[k][s] e_k
    for a seeded invertible integer P.  Its Peirce projections at the
    rewritten idempotent must be orthogonal idempotents summing to 1, equal
    to L_e R_e, L_e (1 - R_e), (1 - L_e) R_e, (1 - L_e)(1 - R_e) and of the
    catalog ranks; all computed here from the rewritten constants."""
    name, dims = entry
    base = catalog(name, QQ)
    d = base.dim
    rng = random.Random(seed)
    while True:
        P = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        Q = inverse(P)
        if Q is not None:
            break
    c = base.tensor

    def to_new(v):
        return [sum(Q[r][k] * v[k] for k in range(d)) for r in range(d)]

    consts = {}
    for i in range(d):
        for j in range(d):
            w = [sum(P[a][i] * P[b][j] * c[a][b][k] for a in range(d) for b in range(d))
                 for k in range(d)]
            for k, v in enumerate(to_new(w)):
                if v:
                    consts[(i, j, k)] = v
    e = to_new(base.idempotent)
    ctx = peirce_context(Algebra(QQ, d, consts), e)

    def matmul(x, y):
        return [[sum(x[r][t] * y[t][s] for t in range(d)) for s in range(d)]
                for r in range(d)]

    one = [[Fraction(int(r == s)) for s in range(d)] for r in range(d)]
    zero = [[0] * d for _ in range(d)]
    L = [[sum(e[i] * consts.get((i, j, k), 0) for i in range(d)) for j in range(d)]
         for k in range(d)]
    R = [[sum(e[i] * consts.get((j, i, k), 0) for i in range(d)) for j in range(d)]
         for k in range(d)]
    L_, R_ = ([[a - b for a, b in zip(u, v)] for u, v in zip(one, m)] for m in (L, R))
    slots = ((1, 1), (1, 2), (2, 1), (2, 2))
    pi = [[list(row) for row in ctx.projection(*s).matrix.rows] for s in slots]
    assert pi == [matmul(L, R), matmul(L, R_), matmul(L_, R), matmul(L_, R_)]
    assert [[sum(m[r][s] for m in pi) for s in range(d)] for r in range(d)] == one
    for a, x in enumerate(pi):
        for b, y in enumerate(pi):
            assert matmul(x, y) == (x if a == b else zero)
    assert tuple(sum(x[r][r] for r in range(d)) for x in pi) == dims  # trace = rank


_RATIONAL_CONSTANTS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


def _relations_algebra(field, seed):
    """A seeded algebra of dim 2..4 over GF(2), GF(3) or Q with e_0 e_0 = e_0.

    Each e_j, j >= 1, is put in a random Peirce slot at e_0 (e_0 e_j and
    e_j e_0 are e_j or 0), the products of e_1 .. e_{d-1} are sparse random
    constants (fractional over Q), and one e_0 product in four is disturbed,
    so that some e_0 are no Peirce idempotent.  Half of the algebras are
    rewritten in a random basis, so the components are not coordinate
    aligned."""
    rng = random.Random(seed)
    F = QQ if field == "Q" else GF(int(field[3:-1]))
    d = rng.choice((2, 3, 4) if field != "GF(3)" else (2, 3, 3, 4))
    triples = {(0, 0, 0): 1}
    for j in range(1, d):
        left, right = rng.choice(_SLOTS_AT_E0)
        if left:
            triples[(0, j, j)] = 1
        if right:
            triples[(j, 0, j)] = 1
    for i in range(1, d):
        for j in range(1, d):
            for k in range(d):
                if rng.random() < 0.15:
                    triples[(i, j, k)] = (rng.choice(_RATIONAL_CONSTANTS) if F is QQ
                                          else rng.randrange(1, F.p))
    if rng.random() < 0.25:
        triples[(0, rng.randrange(1, d), rng.randrange(d))] = 1
    idem = (1,) + (0,) * (d - 1)
    A = Algebra(F, d, {t: c for t, c in triples.items() if F.coerce(c)}, idempotent=idem)
    if rng.random() < 0.5:
        A = q_rebase(A, seed) if F is QQ else dense_rebase(A, F.p, seed)
    return A


# (e_0 e_j == e_j, e_j e_0 == e_j) for e_j in R11, R12, R21, R22
_SLOTS_AT_E0 = ((True, True), (True, False), (False, True), (False, False))


def _relations_context(field, seed):
    A = _relations_algebra(field, seed)
    try:
        return peirce_context(A, A.idempotent)
    except PeirceError:
        return None


def _report_key(rep):
    flags = (rep.composition, rep.same_component, rep.orthogonality, rep.square_free)
    return flags, tuple((v.relation, v.source, v.product, v.detail) for v in rep.violations)


def test_peirce_relations_match_enumeration():
    """On seeded algebras over GF(2) and GF(3), each flag of
    verify_peirce_relations equals the relation enumerated over all element
    pairs of the components (found as sets from e1 x and x e1 alone), and
    every violation is a product of elements of its source components that
    escapes its target (or is nonzero), in this test's own arithmetic."""
    seen = {name: set() for name in ("composition", "same_component",
                                     "orthogonality", "square_free")}
    contexts = 0
    for field in ("GF(2)", "GF(3)"):
        for seed in range(60):
            ctx = _relations_context(field, seed)
            if ctx is None:
                continue
            contexts += 1
            A = ctx.algebra
            p, d, e = A.field.p, A.dim, ctx.e1
            products = {}

            def mul(x, y):
                if (x, y) not in products:
                    products[(x, y)] = _mul(A.tensor, p, x, y)
                return products[(x, y)]

            zero = (0,) * d
            comp = {(i, j): {x for x in product(range(p), repeat=d)
                             if mul(e, x) == (x if i == 1 else zero)
                             and mul(x, e) == (x if j == 1 else zero)}
                    for i in (1, 2) for j in (1, 2)}

            def pairs(s, t):
                return {mul(x, y) for x in comp[s] for y in comp[t]}

            slots = list(comp)
            want = {
                "composition": all(pairs((i, j), (j, l)) <= comp[(i, l)]
                                   for i in (1, 2) for j in (1, 2) for l in (1, 2)),
                "same_component": all(pairs(s, s) <= comp[s[::-1]] for s in slots),
                "orthogonality": all(pairs(s, t) == {zero} for s in slots for t in slots
                                     if s[1] != t[0] and s != t),
                "square_free": all(mul(x, x) == zero
                                   for s in ((1, 2), (2, 1)) for x in comp[s]),
            }
            rep = verify_peirce_relations(ctx)
            got = dict(zip(want, _report_key(rep)[0]))
            assert got == want, (field, seed)
            assert {v.relation for v in rep.violations} == {k for k, ok in want.items() if not ok}
            for name, ok in want.items():
                seen[name].add(ok)
            for v in rep.violations:
                src = v.source
                if v.relation == "composition":
                    i, j, l = src
                    assert v.product in pairs((i, j), (j, l)) - comp[(i, l)]
                elif v.relation == "same_component":
                    assert v.product in pairs(src, src) - comp[src[::-1]]
                elif v.relation == "orthogonality":
                    assert v.product in pairs(src[:2], src[2:]) - {zero}
                else:
                    assert v.product in {mul(x, x) for x in comp[src]} - {zero}
    assert contexts >= 60
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


# (flags, violations) of verify_peirce_relations on _relations_context(field,
# seed), recorded before the relations were checked on int rows; flags are
# (composition, same_component, orthogonality, square_free) and each
# violation is (relation, source, product, detail)
FROZEN_RELATIONS = {
    "GF(2)/10": ((True, True, False, True), (
        ('orthogonality', (1, 1, 2, 2), (0, 1, 1, 1), 'R11*R22 is nonzero'),
    )),
    "GF(2)/17": ((False, False, False, False), (
        ('composition', (2, 2, 1), (1, 0, 0, 0), 'R22*R21 escapes R21'),
        ('same_component', (2, 1), (0, 0, 0, 1), 'R21*R21 escapes R12'),
        ('orthogonality', (2, 1, 2, 2), (0, 1, 1, 0), 'R21*R22 is nonzero'),
        ('orthogonality', (2, 1, 2, 2), (1, 0, 0, 0), 'R21*R22 is nonzero'),
        ('square_free', (2, 1), (0, 0, 0, 1), 'square of (0, 0, 0, 1) is nonzero'),
    )),
    "GF(2)/37": ((False, True, False, True), (
        ('composition', (2, 1, 1), (1, 1, 0, 0), 'R21*R11 escapes R21'),
        ('composition', (2, 1, 1), (1, 0, 0, 0), 'R21*R11 escapes R21'),
        ('orthogonality', (1, 1, 2, 1), (1, 1, 0, 0), 'R11*R21 is nonzero'),
        ('orthogonality', (1, 1, 2, 1), (0, 1, 0, 0), 'R11*R21 is nonzero'),
    )),
    "GF(2)/42": ((True, False, False, False), (
        ('same_component', (2, 1), (0, 0, 0, 1), 'R21*R21 escapes R12'),
        ('orthogonality', (1, 1, 2, 1), (1, 0, 0, 0), 'R11*R21 is nonzero'),
        ('orthogonality', (1, 1, 2, 1), (0, 1, 1, 0), 'R11*R21 is nonzero'),
        ('square_free', (2, 1), (0, 0, 0, 1), 'square of (0, 0, 0, 1) is nonzero'),
    )),
    "GF(3)/11": ((False, False, False, False), (
        ('composition', (2, 2, 2), (2, 1, 0, 0), 'R22*R22 escapes R22'),
        ('composition', (2, 2, 2), (2, 0, 0, 0), 'R22*R22 escapes R22'),
        ('same_component', (1, 2), (1, 0, 0, 0), 'R12*R12 escapes R21'),
        ('same_component', (2, 2), (2, 1, 0, 0), 'R22*R22 escapes R22'),
        ('same_component', (2, 2), (2, 0, 0, 0), 'R22*R22 escapes R22'),
        ('orthogonality', (2, 2, 1, 2), (0, 0, 1, 0), 'R22*R12 is nonzero'),
        ('square_free', (1, 2), (1, 0, 0, 0), 'square of (0, 0, 0, 1) is nonzero'),
    )),
    "GF(3)/20": ((False, True, True, True), (
        ('composition', (2, 1, 1), (1, 0, 0), 'R21*R11 escapes R21'),
    )),
    "GF(3)/30": ((True, True, False, True), (
        ('orthogonality', (1, 2, 1, 1), (0, 0, 1), 'R12*R11 is nonzero'),
    )),
    "GF(3)/53": ((False, True, False, True), (
        ('composition', (1, 2, 2), (0, 0, 1), 'R12*R22 escapes R12'),
        ('orthogonality', (2, 2, 1, 2), (0, 0, 1), 'R22*R12 is nonzero'),
    )),
    "Q/5": ((False, False, False, False), (
        ('composition', (1, 1, 1), (0, 1, 0, 0), 'R11*R11 escapes R11'),
        ('composition', (2, 1, 1), (-1, 0, 0, 0), 'R21*R11 escapes R21'),
        ('same_component', (1, 1), (0, 1, 0, 0), 'R11*R11 escapes R11'),
        ('same_component', (2, 1), (0, 0, 0, -1), 'R21*R21 escapes R12'),
        ('same_component', (2, 1), (Fraction(1, 2), 0, 0, -1), 'R21*R21 escapes R12'),
        ('same_component', (2, 1), (0, 0, Fraction(-2, 3), 0), 'R21*R21 escapes R12'),
        ('same_component', (2, 1), (1, 0, -1, 0), 'R21*R21 escapes R12'),
        ('orthogonality', (1, 1, 2, 1), (0, 0, 0, Fraction(1, 2)), 'R11*R21 is nonzero'),
        ('square_free', (2, 1), (0, 0, 0, -1), 'square of (0, 1, 0, 0) is nonzero'),
    )),
    "Q/10": ((True, True, False, True), (
        ('orthogonality', (1, 1, 2, 2), (22, -8, 4, 2), 'R11*R22 is nonzero'),
        ('orthogonality', (1, 1, 2, 2),
         (Fraction(572, 9), Fraction(-208, 9), Fraction(104, 9), Fraction(52, 9)),
         'R11*R22 is nonzero'),
        ('orthogonality', (1, 1, 2, 2),
         (Fraction(297, 5), Fraction(-108, 5), Fraction(54, 5), Fraction(27, 5)),
         'R11*R22 is nonzero'),
        ('orthogonality', (1, 1, 2, 2),
         (Fraction(858, 5), Fraction(-312, 5), Fraction(156, 5), Fraction(78, 5)),
         'R11*R22 is nonzero'),
    )),
    "Q/37": ((False, True, False, True), (
        ('composition', (2, 1, 1),
         (Fraction(-74, 21), Fraction(23, 21), Fraction(8, 63), Fraction(107, 126)),
         'R21*R11 escapes R21'),
        ('composition', (2, 1, 1),
         (Fraction(-221, 21), Fraction(137, 42), Fraction(17, 42), Fraction(18, 7)),
         'R21*R11 escapes R21'),
        ('composition', (2, 1, 1),
         (Fraction(-4, 7), Fraction(5, 42), Fraction(3, 14), Fraction(8, 21)),
         'R21*R11 escapes R21'),
        ('orthogonality', (1, 1, 2, 1),
         (Fraction(121, 42), Fraction(-23, 21), Fraction(4, 7), Fraction(1, 7)),
         'R11*R21 is nonzero'),
        ('orthogonality', (1, 1, 2, 1),
         (Fraction(359, 42), Fraction(-137, 42), Fraction(73, 42), Fraction(10, 21)),
         'R11*R21 is nonzero'),
        ('orthogonality', (1, 1, 2, 1),
         (Fraction(-6, 7), Fraction(3, 14), Fraction(3, 14), Fraction(3, 7)),
         'R11*R21 is nonzero'),
    )),
    "Q/42": ((True, False, False, False), (
        ('same_component', (2, 1), (0, 0, 0, -1), 'R21*R21 escapes R12'),
        ('orthogonality', (1, 1, 2, 1), (-1, 0, 0, 0), 'R11*R21 is nonzero'),
        ('orthogonality', (1, 1, 2, 1), (0, Fraction(1, 2), 2, 0), 'R11*R21 is nonzero'),
        ('square_free', (2, 1), (0, 0, 0, -1), 'square of (0, 0, 0, 1) is nonzero'),
    )),
}


@pytest.mark.parametrize("case", sorted(FROZEN_RELATIONS))
def test_peirce_relation_reports_are_frozen(case):
    field, seed = case.split("/")
    rep = verify_peirce_relations(_relations_context(field, int(seed)))
    assert _report_key(rep) == FROZEN_RELATIONS[case]
