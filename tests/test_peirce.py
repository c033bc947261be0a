import random
from fractions import Fraction
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
    idem = None if A.idempotent is None else tuple(
        sum(int(A.idempotent[k]) * Q[k][l] for k in range(d)) % p for l in range(d))
    return Algebra(GF(p), d, triples, idempotent=idem)


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


def _first_rref_vector(vectors):
    """Row 1 of the RREF basis of a whole subspace, from its vectors alone:
    the pivot columns are the leading positions of the nonzero vectors, and
    row 1 is 1 at the first pivot column and 0 at the others."""
    lead = {v: next(i for i, x in enumerate(v) if x) for v in vectors if any(v)}
    pivots = set(lead.values())
    first = min(pivots)
    return next(v for v, i in lead.items() if i == first and v[first] == 1
                and not any(v[c] for c in pivots - {first}))


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
    conditions (1)-(3) and both off-diagonal commutants against sets
    enumerated from the structure constants alone."""
    A = _dense_rebase(catalog(name, GF(p)), p, seed)
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

    diagonal = {tuple((a + b) % p for a, b in zip(x, y))
                for x in comp[(1, 1)] for y in comp[(2, 2)]}
    for side, slot in (("12", (1, 2)), ("21", (2, 1))):
        S = {a for a in diagonal if all(mul(a, b) == mul(b, a) for b in comp[slot])}
        rep = check_offdiag_commutant(ctx, side)
        assert set(rep.subspace.vectors()) == S
        assert rep.contained_in_center == (S <= center)


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


def _inverse(P):
    """Inverse of a square Fraction matrix by Gauss-Jordan, or None."""
    d = len(P)
    rows = [list(map(Fraction, row)) + [Fraction(int(r == s)) for s in range(d)]
            for r, row in enumerate(P)]
    for col in range(d):
        pivot = next((i for i in range(col, d) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[d:] for row in rows]


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
        Q = _inverse(P)
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
