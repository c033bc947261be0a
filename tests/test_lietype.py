import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from altrings.algebra import Algebra, LinearMap, commutator, is_derivation, leibniz_rows
from altrings.catalog import catalog, direct_sum
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


def test_nested_commutator_span_needs_no_tuple_budget(zorn):
    # 8^12 basis tuples, but only 11 levels of at most 8 * 8 brackets
    W = nested_commutator_span(zorn, 12)
    assert W == nested_commutator_span(zorn, 2)
    assert W.dim == 7


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


def test_lie_space_past_n_5(mat2, zorn):
    l6 = lie_n_derivation_space(mat2, 6)
    assert l6.dim == 4
    assert l6.contains_space(derivation_space(mat2))
    # 8^7 basis tuples, but 5 spanned levels of at most 8 + 8^3 states each
    l7 = lie_n_derivation_space(zorn, 7)
    assert l7.space == lie_n_derivation_space(zorn, 2).space
    assert l7.dim == 15


def test_lie_leibniz_residual_detects_violations(mat2):
    not_a_derivation = LinearMap.identity(mat2)
    E11, E12 = mat2.basis_element(0), mat2.basis_element(1)
    res = lie_leibniz_residual(mat2, not_a_derivation, [E11, E12])
    assert res == -E12  # D([x,y]) - [Dx,y] - [x,Dy] = [x,y] - 2[x,y]


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


# decompose's output frozen before the split was rebuilt from the Peirce
# projections: a digest of delta, tau and the normalizer for each admissible
# member, or the certificate and message of each rejected map.

def _unimodular_rebase(A, seed):
    """A over Q in the basis f_i = sum_r P[i][r] e_r, P = L U with unit
    triangular integer L, U (so det P = 1 and P^-1 is integral)."""
    d = A.dim
    rng = random.Random(seed)
    L = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(d)]
         for i in range(d)]
    U = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(d)]
         for i in range(d)]
    P = [[sum(L[i][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    # Q = P^-1 by Gauss-Jordan on [P | I]; every pivot is found since det P = 1
    rows = [[Fraction(v) for v in P[i]] + [Fraction(int(i == j)) for j in range(d)]
            for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    Q = [row[d:] for row in rows]
    c = A.tensor
    triples = {}
    for i in range(d):
        for j in range(d):
            e = [sum(P[i][r] * P[j][s] * c[r][s][k] for r in range(d) for s in range(d))
                 for k in range(d)]
            for l in range(d):
                v = sum(e[k] * Q[k][l] for k in range(d))
                if v:
                    triples[(i, j, l)] = v

    def coords(x):
        return [sum(x[k] * Q[k][l] for k in range(d)) for l in range(d)]

    return Algebra(QQ, d, triples, unit=coords(A.unit), idempotent=coords(A.idempotent))


def test_is_derivation_agrees_with_leibniz_rows():
    """is_derivation against the dot products of leibniz_rows with vec(g),
    taken here on field elements: on members of derivation_space, on those
    members moved off it by one matrix unit, and on random maps."""
    algebras = [catalog(name, F) for name in ("mat2", "tri2", "zorn", "product2")
                for F in (QQ, GF(2), GF(3))]
    algebras += [_unimodular_rebase(catalog(name, QQ), seed)
                 for name in ("mat2", "zorn") for seed in (1, 2)]
    rng = random.Random(5)
    for A in algebras:
        F, d = A.field, A.dim
        rows = list(leibniz_rows(A))

        def oracle(g):
            vec = g.to_vector()
            return all(F.is_zero(sum(r * v for r, v in zip(row, vec))) for row in rows)

        space = derivation_space(A)
        maps = []
        for _ in range(2):
            member = space.random_member(rng)
            unit = [[0] * d for _ in range(d)]
            unit[rng.randrange(d)][rng.randrange(d)] = 1
            maps += [member, LinearMap(A, member.matrix + Matrix(F, unit))]
        maps.append(LinearMap(A, Matrix(F, [[rng.randint(-3, 3) for _ in range(d)]
                                            for _ in range(d)])))
        outcomes = set()
        for g in maps:
            outcomes.add(is_derivation(A, g))
            assert is_derivation(A, g) is oracle(g), (A, g)
        assert outcomes == {False, True}, A


def _admissible_members(A, seed, count):
    ctx = peirce_context(A, A.idempotent)
    space = OperatorSpace(
        A,
        lie_n_derivation_space(A, 2).space.intersect(conditions_abc_subspace(ctx)),
        n=2,
    )
    rng = random.Random(seed)
    return ctx, [space.random_member(rng) for _ in range(count)]


def _outcome(ctx, D, **kw):
    """A digest of (delta, tau, normalizer), or (certificate, message)."""
    try:
        dec = decompose(ctx, D, 2, **kw)
    except DecompositionError as exc:
        return exc.certificate, str(exc)
    fmt = ctx.algebra.field.format
    text = "\n--\n".join(
        "\n".join(" ".join(fmt(v) for v in row) for row in m.matrix.rows)
        for m in (dec.delta, dec.tau, dec.normalizer)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _frozen_outcomes():
    out = {}
    for name, F in (("mat2", QQ), ("zorn", QQ), ("mat2", GF(5)), ("zorn", GF(5))):
        ctx, members = _admissible_members(catalog(name, F), 31, 3)
        for k, D in enumerate(members):
            out[f"{name}/{F} #{k}"] = _outcome(ctx, D)
    for name in ("mat2", "zorn"):
        for seed in (1, 2):
            A = _unimodular_rebase(catalog(name, QQ), seed)
            ctx, members = _admissible_members(A, seed, 2)
            for k, D in enumerate(members):
                out[f"{name}~{seed}/Q #{k}"] = _outcome(ctx, D)
    mat2 = catalog("mat2", QQ)
    out["mat2/Q ad E12"] = _outcome(peirce_context(mat2, mat2.idempotent), ad(mat2, 1))
    A = direct_sum(mat2, mat2)
    images = [(0,) * 8] * 8
    images[0] = (0, 0, 0, 0, 0, 1, 0, 0)
    out["mat2+mat2/Q e1 -> E12'"] = _outcome(
        peirce_context(A, A.idempotent), LinearMap.from_images(A, images),
        check_ring_conditions=False,
    )
    P = catalog("product2", QQ)
    ctx = peirce_context(P, P.idempotent)
    out["product2/Q zero"] = _outcome(ctx, LinearMap.zero(P))
    out["product2/Q zero unchecked"] = _outcome(
        ctx, LinearMap.zero(P), check_ring_conditions=False
    )
    return out


FROZEN_DECOMPOSE = {
    'mat2/Q #0': '4592444e2ba5a8bf',
    'mat2/Q #1': 'f519a126711545e6',
    'mat2/Q #2': '2dc7361d7b40e241',
    'zorn/Q #0': 'e096900e206cf90e',
    'zorn/Q #1': '7317cbda4d07f154',
    'zorn/Q #2': '8efb94060d89038e',
    'mat2/GF(5) #0': '8ff9fe1b5b2fcb04',
    'mat2/GF(5) #1': '30d71ab8c0e74fcc',
    'mat2/GF(5) #2': 'c8adace9bcdbbd3a',
    'zorn/GF(5) #0': '4ad84ec08394eeac',
    'zorn/GF(5) #1': 'efde9e832b347466',
    'zorn/GF(5) #2': 'c7a1957380d25873',
    'mat2~1/Q #0': 'a908ffa709645dfb',
    'mat2~1/Q #1': '9ec4b7ab10ba7fd6',
    'mat2~2/Q #0': 'c1180c5d3bbfa316',
    'mat2~2/Q #1': '43124b1dc0436ce1',
    'zorn~1/Q #0': 'b1ab7b8570cc9205',
    'zorn~1/Q #1': '38299959c998eecc',
    'zorn~2/Q #0': '749751e4921a8e7e',
    'zorn~2/Q #1': 'c9a139d50f453854',
    'mat2/Q ad E12': ('condition_c', 'input map violates (c): D(R21) escapes R21'),
    "mat2+mat2/Q e1 -> E12'": ('condition_a', 'input map violates (a): e2 D(R11) e2 inside Z(R) e2: projection escapes the central action space'),
    'product2/Q zero': ('ring_conditions', 'ring condition 2a fails: x11 with x11*R12 = 0: annihilator has dim 1'),
    'product2/Q zero unchecked': ('non_unique_z', 'central solution is not unique; the center is degenerate against conditions (2)/(3)'),
}


def test_decompose_outputs_are_frozen():
    assert _frozen_outcomes() == FROZEN_DECOMPOSE


# ---------------------------------------------------------------------------
# Algebra-level oracles on random structure-constant algebras over GF(p) and
# Q.  Everything the package returns is re-checked with the test's own
# arithmetic straight from the structure constants: maps as d x d lists
# (column s is the image of e_s, flattened row-major as in to_vector), and
# ranks by a plain Gaussian elimination over Fractions or residues mod p.

class _Arith:
    def __init__(self, p, d, consts):
        self.p, self.d = p, d
        self.c = {key: self.norm(v) for key, v in consts.items()}

    def norm(self, v):
        return Fraction(v) if self.p is None else int(v) % self.p

    def mul(self, x, y):
        out = [0] * self.d
        for (i, j, k), c in self.c.items():
            out[k] += x[i] * y[j] * c
        return tuple(self.norm(v) for v in out)

    def bracket(self, x, y):
        return tuple(self.norm(a - b) for a, b in zip(self.mul(x, y), self.mul(y, x)))

    def nested(self, *xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = self.bracket(acc, x)
        return acc

    def basis(self, i):
        return tuple(int(i == j) for j in range(self.d))

    def rows(self, op, arity):
        """The linear conditions D(op(x)) = sum_t op(.., D x_t, ..) on the
        d*d entries of D, one row per basis tuple x and output coordinate."""
        e = [self.basis(i) for i in range(self.d)]
        return self._rows(
            (xs, op(*(e[x] for x in xs)),
             [[op(*(e[r] if u == t else e[x] for u, x in enumerate(xs)))
               for r in range(self.d)] for t in range(arity)])
            for xs in itertools.product(range(self.d), repeat=arity))

    def nested_rows(self, n):
        """rows(self.nested, n) with each nested value built once: p at a
        tuple is [p at its prefix, e_y], and p with e_r in slot t is p at
        another tuple."""
        d = self.d
        e = [self.basis(i) for i in range(d)]
        values = {(x,): e[x] for x in range(d)}
        for _ in range(n - 1):
            values = {xs + (y,): self.bracket(v, e[y])
                      for xs, v in values.items() for y in range(d)}
        return self._rows(
            (xs, v, [[values[xs[:t] + (r,) + xs[t + 1:]] for r in range(d)]
                     for t in range(n)])
            for xs, v in values.items())

    def _rows(self, values):
        """Rows from (x, op(x), slots) per basis tuple x, with slots[t][r]
        the value at x with e_r in slot t."""
        d = self.d
        rows = []
        for xs, v, slots in values:
            for k in range(d):
                row = [0] * (d * d)
                for s in range(d):
                    row[k * d + s] += v[s]
                for t, x in enumerate(xs):
                    for r in range(d):
                        row[r * d + x] -= slots[t][r][k]
                rows.append([self.norm(a) for a in row])
        return rows

    def rank(self, rows):
        rows = [list(r) for r in rows]
        rank = 0
        for col in range(len(rows[0]) if rows else 0):
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = (1 / rows[rank][col] if self.p is None
                   else pow(rows[rank][col], self.p - 2, self.p))
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = rows[i][col] * inv
                    rows[i] = [self.norm(a - f * b) for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    def holds(self, rows, vec):
        return all(self.norm(sum(a * b for a, b in zip(row, vec))) == 0 for row in rows)

    def compose(self, M, N):
        d = self.d
        return [[self.norm(sum(M[r][t] * N[t][s] for t in range(d))) for s in range(d)]
                for r in range(d)]


def _flat(M):
    return [v for row in M for v in row]


@st.composite
def _small_structures(draw):
    p = draw(st.sampled_from([None, 2, 3, 5]))
    d = draw(st.integers(2, 3))
    index = st.tuples(*[st.integers(0, d - 1)] * 3)
    consts = draw(st.dictionaries(index, st.integers(-3, 3), max_size=d * d + 2))
    return p, d, consts


def _algebra(case):
    p, d, consts = case
    return Algebra(QQ if p is None else GF(p), d, consts), _Arith(p, d, consts)


@settings(max_examples=25, deadline=None)
@given(_small_structures())
def test_derivations_close_under_bracket_and_lie_spaces_contain_them(case):
    A, orc = _algebra(case)
    d = orc.d
    leibniz = orc.rows(orc.mul, 2)
    ders = [[[orc.norm(v) for v in row] for row in D.matrix.rows]
            for D in derivation_space(A).maps()]
    assert len(ders) == d * d - orc.rank(leibniz)
    assert all(orc.holds(leibniz, _flat(M)) for M in ders)
    span = [_flat(M) for M in ders]
    for M in ders:
        for N in ders:
            br = _flat([[orc.norm(a - b) for a, b in zip(u, v)]
                        for u, v in zip(orc.compose(M, N), orc.compose(N, M))])
            assert orc.holds(leibniz, br)
            assert orc.rank(span + [br]) == len(span)
    for n in (2, 3, 4, 5):
        rows = orc.nested_rows(n)
        lie = [[orc.norm(v) for v in D.to_vector()]
               for D in lie_n_derivation_space(A, n).maps()]
        assert len(lie) == d * d - orc.rank(rows)
        assert all(orc.holds(rows, v) for v in lie)
        assert orc.rank(lie + span) == len(lie)


@settings(max_examples=25, deadline=None)
@given(_small_structures())
@example((None, 3, {(0, 1, 2): 1}))  # Heisenberg: p_2 values span e3, p_3 = 0
def test_nested_commutator_span_matches_all_basis_tuples(case):
    A, orc = _algebra(case)
    d = orc.d
    for n in range(1, 5):
        values = [orc.nested(*map(orc.basis, xs))
                  for xs in itertools.product(range(d), repeat=n)]
        W = nested_commutator_span(A, n)
        basis = [[orc.norm(v) for v in w] for w in W.basis]
        assert len(basis) == orc.rank(values)
        assert all(orc.rank(basis + [v]) == len(basis) for v in values)


@settings(max_examples=25, deadline=None)
@given(_small_structures(), st.sampled_from([(2, 1), (2, 2), (3, 1)]))
def test_fosner_inclusion_matches_row_space_containment(case, nk):
    """Lie-n inside Lie-m iff the Lie-m conditions lie in the span of the
    Lie-n conditions, both built here from the structure constants.  Since
    p_m nests p_n (p_{2n-1}(x) = p_n(p_n(x_1..x_n), x_{n+1}, ...)), the
    inclusion holds in every algebra."""
    n, k = nk
    A, orc = _algebra(case)
    small, large = orc.nested_rows(n), orc.nested_rows(n + k * (n - 1))
    assert orc.rank(small + large) == orc.rank(small)
    assert fosner_inclusion(A, n, k) is True
