import functools
import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from altrings import lietype, linalg
from altrings.algebra import (Algebra, LinearMap, center, commutator, is_derivation,
                              leibniz_rows)
from altrings.catalog import catalog, direct_sum, opposite, parse
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
    _commutator_ints,
    _walk_levels,
)
from altrings.peirce import peirce_context
from altrings.verdict import Verdict
from oracles import (ad, commutator_walk, dense_rebase, gauss_jordan, kernel_basis, lie_n_walk,
                     q_rebase, rebase, reference_lie_n_rows,
                     reference_walk_levels, unimodular_rebase, zorn)


@pytest.fixture(scope="module")
def mat2():
    return catalog("mat2", QQ)


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


_LIE_ROW_CASES = ([(name, n) for name in ("mat2", "tri2", "product2") for n in (2, 3, 4)]
                  + [(name, n) for name in ("zorn", "zorn~1") for n in (2, 3)])


def _filed(G, rows):
    """The nonzero rows filed by the degree w(m) - w(i) of their columns
    m d + i, as their entries at the columns of that degree, for the
    weights of the grading G; it asserts that every nonzero column of a
    row has one degree, as the grading's proof says."""
    d = G.algebra.dim
    degree = [(G.weights[m] - G.weights[i]) % 3 for m in range(d) for i in range(d)]
    blocks = ([], [], [])
    for row in rows:
        degrees = {degree[c] for c, v in enumerate(row) if v}
        if degrees:
            (g,) = degrees
            blocks[g].append([v for c, v in enumerate(row) if degree[c] == g])
    return blocks


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
@pytest.mark.parametrize("name, n", _LIE_ROW_CASES)
def test_lie_n_rows_match_the_frozen_state_step(name, n, field, monkeypatch):
    """The rows lie_n_derivation_space reads in its last d^2-wide null_space
    call, the one that carries the bound Lie_2 + T_n when n >= 3, are a
    prefix of those of the comprehension-built step
    (oracles.reference_lie_n_rows), row for row; with known dropped that
    call reads all of them and returns the same space.  zorn~1 is a dense
    rebase of zorn (det 1 over Q, seeded over GF(3)), whose Lie_2 goes
    through the Peirce grading: there no d^2-wide call solves Lie_2, and
    its three block folds read the reference rows of the adapted algebra,
    filed by degree."""
    if name == "zorn~1":
        base = catalog("zorn", field)
        A = unimodular_rebase(base, 1) if field is QQ else dense_rebase(base, field.p, 1)
    else:
        A = catalog(name, field)
    dd = A.dim ** 2
    null_space = lietype.null_space
    G = lietype._grading(A) if A.dim >= lietype._GRADED_FROM else None
    assert (G is not None) == (name == "zorn~1")

    def run(drop_known):
        calls, blocks = [], []

        def tap(rows, read):
            for row in rows:
                read.append(row)
                yield row

        def spy(F, width, rows, known=None):
            if width == dd:
                calls.append([])
                rows = tap(rows, calls[-1])
            else:
                rows = list(rows)
                blocks.append(rows)
            return null_space(F, width, rows, None if drop_known else known)

        monkeypatch.setattr(lietype, "null_space", spy)
        space = lie_n_derivation_space(A, n).space
        assert len(calls) == (n > 2) + (G is None)
        if G is not None:
            assert tuple(blocks) == _filed(G, reference_lie_n_rows(G.algebra, 2))
        return space, calls[-1] if calls else []

    expected = reference_lie_n_rows(A, n) if n > 2 or G is None else []
    stopped, read = run(False)
    assert read == expected[:len(read)]
    if (name, n, field) == ("zorn", 3, QQ):
        assert len(read) < len(expected) // 4  # the bound is reached early
    full, read = run(True)
    assert read == expected
    assert full == stopped


def _bound_case(name, F):
    """A catalog algebra, an opposite (^op), a direct sum (+), a dense
    rebase (~1) of any of those, or nil4: e0 e1 = e2, e0 e2 = e3, whose
    centre span(e3) is W_3, so W_4 = 0 is smaller and T_3 is not T_4."""
    if name == "nil4":
        return Algebra(F, 4, {(0, 1, 2): 1, (0, 2, 3): 1})
    if name.endswith("~1"):
        base = _bound_case(name[:-2], F)
        return unimodular_rebase(base, 1) if F is QQ else dense_rebase(base, F.p, 1)
    if name.endswith("^op"):
        return opposite(_bound_case(name[:-3], F))
    if "+" in name:
        return direct_sum(*(catalog(part, F) for part in name.split("+")))
    return catalog(name, F)


_BOUND_CASES = ([(name, n) for name in ("mat2", "tri2", "product2", "zorn", "mat2^op", "tri2^op",
                                        "mat2+tri2", "product2+tri2", "mat2~1", "tri2~1", "nil4")
                 for n in (3, 4, 5)]
                + [("zorn^op", 3), ("zorn~1", 3)])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=str)
@pytest.mark.parametrize("name, n", _BOUND_CASES)
def test_lie_n_space_stopped_at_the_bound_is_the_unstopped_space(name, n, field):
    """The Lie-n space, whose fold stops at Lie_2 + T_n, equals null_space
    of every reference row with no known part.  It fails if T_n is built
    from W_{n+1} (nil4 at n = 3), if Lie_{n-1} stands for Lie_2 (mat2 over
    GF(2) at n = 4, where Lie_3 is larger than Lie_4), or if the fold stops
    one rank early (nil4 at n = 3, and mat2 + tri2 over GF(2) at n = 3 and
    over GF(3) at n = 4, one dimension above the bound: the identity on one
    summand is a Lie-n derivation there as well)."""
    A = _bound_case(name, field)
    if name == "nil4" and n == 3:
        assert center(A).dim == 1
        assert nested_commutator_span(A, 4).dim < nested_commutator_span(A, 3).dim
    expected = linalg.null_space(field, A.dim ** 2, reference_lie_n_rows(A, n))
    assert lie_n_derivation_space(A, n).space == expected


@pytest.mark.parametrize("p, n", [(3, 4), (5, 6)])
def test_lie_n_bound_holds_id_where_p_divides_n_minus_1(p, n, monkeypatch):
    """Where p | n - 1, id joins the bound Lie_2 + T_n, and zorn's Lie_n
    (dim 16, one above Lie_2 + T_n) is that bound: the final fold reads
    fewer rows than the reference has and returns the RREF ints of the
    fold of them all."""
    A = catalog("zorn", GF(p))
    dd = A.dim ** 2
    null_space, read = lietype.null_space, []

    def spy(F, width, rows, known=None):
        if width == dd:  # count the rows each d^2-wide fold reads
            read.append(0)
            rows = _counted(rows, read)
        return null_space(F, width, rows, known)

    monkeypatch.setattr(lietype, "null_space", spy)
    space = lie_n_derivation_space(A, n).space
    expected = reference_lie_n_rows(A, n)
    assert space == linalg.null_space(A.field, dd, expected) and space.dim == 16
    assert read[-1] < len(expected)


def _counted(rows, read):
    for row in rows:
        read[-1] += 1
        yield row


def _oracle_t_n(A, n):
    """T_n as int vectors vec(tau), from the test's own arithmetic: tau = z
    (x) f for z in a basis of the commutant and f in a basis of the
    functionals killing W_n, both solved by ``oracles.kernel_basis`` on
    the structure constants; W_n is spanned by [w, e_j] over a basis w of
    W_{n-1}, from W_1 = A."""
    F, d, c = A.field, A.dim, A.tensor
    bracket = [[[F.sub(c[a][j][m], c[j][a][m]) for m in range(d)] for j in range(d)]
               for a in range(d)]
    Z = kernel_basis(F, [[bracket[a][j][m] for a in range(d)] for j in range(d)
                         for m in range(d)], d)
    W = [[F.one if i == j else F.zero for j in range(d)] for i in range(d)]
    for _ in range(n - 1):
        W = gauss_jordan(F, [[functools.reduce(F.add, (F.mul(w[a], bracket[a][j][m])
                                                       for a in range(d)))
                              for m in range(d)] for w in W for j in range(d)], d)[0]
    taus = [[F.mul(zm, fi) for zm in z for fi in f] for z in Z for f in kernel_basis(F, W, d)]
    return linalg.Subspace(F, d * d, taus)


def _theorem_cases():
    """(name, field, n) with the paper's torsion hypotheses: p not 2 or 3
    and p not dividing n - 1 or n - 3 where these are nonzero (n - 3 = 0 at
    n = 3 asks nothing of p)."""
    for F in (QQ, GF(5), GF(7), GF(11)):
        for name in ("mat2", "mat2^op", "mat2~1", "zorn", "zorn^op", "zorn~1"):
            for n in range(2, 10 if name.startswith("mat2") else 8):
                p = F.characteristic
                if not p or all(k % p for k in (n - 1, n - 3) if k):
                    yield name, F, n


def test_lie_n_is_der_plus_t_n_under_the_papers_hypotheses():
    """The paper's theorem, D = delta + tau, read as Lie_n = Der + T_n: on
    mat2 and zorn, their opposites and dense rebases (whose Der and Lie_2
    go through the Peirce grading), over Q and GF(p) with p not in {2, 3}
    and p not dividing (n - 1)(n - 3), at n = 2 .. 9 on mat2 and 2 .. 7 on
    zorn (trimmed there, so that this test and the gap table take about
    7 s).  T_n comes from the test's own centre and W_n (``_oracle_t_n``).
    """
    algebras = {}
    for name, F, n in _theorem_cases():
        A = algebras.setdefault((name, F), _bound_case(name, F))
        expected = derivation_space(A).space.sum_with(_oracle_t_n(A, n))
        assert lie_n_derivation_space(A, n).space == expected, (name, F, n)


# dim Lie_n - dim(Der + T_n) for n = 2 .. 9, observed on the catalog over
# GF(p): nonzero exactly at p = 2 (every n on mat2 and zorn, odd n on tri2)
# and at p | n - 1; product2 is commutative, so T_n is every map
_GAPS = {
    ("mat2", 2): (3, 4, 3, 4, 3, 4, 3, 4),
    ("tri2", 2): (0, 1, 0, 1, 0, 1, 0, 1),
    ("zorn", 2): (14, 15, 14, 15, 14, 15, 14, 15),
    ("product2", 2): (0,) * 8,
    **{(name, 3): (0, 0, 1, 0, 0, 1, 0, 0) for name in ("mat2", "tri2", "zorn")},
    **{(name, 5): (0, 0, 0, 0, 1, 0, 0, 0) for name in ("mat2", "tri2", "zorn")},
    **{(name, 7): (0, 0, 0, 0, 0, 0, 1, 0) for name in ("mat2", "tri2", "zorn")},
    **{("product2", p): (0,) * 8 for p in (3, 5, 7)},
}


@pytest.mark.parametrize("name, p", sorted(_GAPS))
def test_lie_n_gap_table_over_small_fields(name, p):
    """The observed table, pinned as data: Lie_n exceeds Der + T_n by the
    dims of ``_GAPS``, and for n >= 3 it is Lie_2 + T_n + F id where
    p | n - 1 and Lie_2 + T_n elsewhere, p = 2 included: the hypothesis
    that p not divide n - 3 is never needed on these algebras."""
    F = GF(p)
    A = catalog(name, F)
    d = A.dim
    der, lie2 = derivation_space(A).space, lie_n_derivation_space(A, 2).space
    identity = linalg.Subspace(F, d * d, [[int(c % (d + 1) == 0) for c in range(d * d)]])
    for n, gap in zip(range(2, 10), _GAPS[name, p]):
        T = _oracle_t_n(A, n)
        lie_n = lie_n_derivation_space(A, n).space
        assert lie_n.dim - der.sum_with(T).dim == gap, n
        if n >= 3:
            bound = lie2.sum_with(T)
            assert lie_n == (bound.sum_with(identity) if (n - 1) % p == 0 else bound), n


def _key(S):
    return S._num, S._den, S._pivots


def _flat_spaces(A):
    """Der and Lie_2 as the d^2-wide folds of ``leibniz_rows`` and of the
    reference Lie-2 rows, keyed by the row generator of lietype."""
    F, dd = A.field, A.dim ** 2
    return {leibniz_rows: linalg.null_space(F, dd, leibniz_rows(A)),
            lietype._lie_2_rows: linalg.null_space(F, dd, reference_lie_n_rows(A, 2))}


def _assert_graded_is_flat(A):
    flat = _flat_spaces(A)
    assert _key(derivation_space(A).space) == _key(flat[leibniz_rows])
    assert _key(lie_n_derivation_space(A, 2).space) == _key(flat[lietype._lie_2_rows])
    G = lietype._grading(A)
    if G is not None:  # below _GRADED_FROM only this call takes the graded path
        for rows_of, expected in flat.items():
            assert _key(lietype._graded_null_space(G, rows_of)) == _key(expected)
    return G


_PARITY_CASES = ("mat2", "tri2", "product2", "zorn", "mat2^op", "zorn^op", "mat2+tri2",
                 "tri2+tri2", "mat2+product2", "mat2~1", "tri2~1", "product2~1", "zorn~1",
                 "zorn^op~1", "mat2+tri2~1", "tri2+tri2~1", "mat2+product2~1")


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(65521)], ids=str)
@pytest.mark.parametrize("name", _PARITY_CASES)
def test_graded_spaces_are_the_flat_folds(name, field):
    """Der and Lie_2 through the Peirce grading have the ints, den and
    pivots of the d^2-wide folds, on catalog algebras, opposites, direct
    sums and dense rebases (~1).  The grading is built exactly on the
    rebases with R12 + R21 != 0: a catalog basis already lies in the
    components, and product2 has only R11 and R22."""
    A = _bound_case(name, field)
    G = _assert_graded_is_flat(A)
    assert (G is not None) == (name.endswith("~1") and not name.startswith("product2"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mat2", "tri2", "mat2^op", "tri2^op", "mat2+tri2", "tri2+tri2"]),
       st.sampled_from([QQ, GF(2), GF(3), GF(65521)]), st.integers(0, 2 ** 32),
       st.sampled_from([1, 3]))
def test_graded_spaces_are_the_flat_folds_on_random_rebases(name, F, seed, det):
    """The same on seeded rebases: over Q with det 1 or 3 (constants with
    a den then), over GF(p) random invertible ones."""
    A = _bound_case(name, F)
    _assert_graded_is_flat(rebase(A, seed, det) if F is QQ else dense_rebase(A, F.p, seed))


def _weight_breaking(F):
    """e, u with e e = e, e u = u and u u = u, beside mat2, in a dense
    basis: at the idempotent (e, 0) the Peirce projections build (R11 =
    span e, R12 = span u, R21 = 0, R22 = mat2), but u u = u puts R12 R12
    into R12, of weight 2, not 2 + 2 = 1."""
    S = direct_sum(Algebra(F, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 1}, idempotent=(1, 0)),
                   catalog("mat2", F))
    return q_rebase(S, 1) if F is QQ else dense_rebase(S, F.p, 1)


def _no_idempotent(F):
    """zorn~1 with no idempotent declared."""
    A = _bound_case("zorn~1", F)
    return Algebra(F, A.dim, {(i, j, k): c for i, plane in enumerate(A.tensor)
                              for j, row in enumerate(plane) for k, c in enumerate(row)
                              if not F.is_zero(c)})


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(65521)], ids=str)
@pytest.mark.parametrize("build", [_weight_breaking, _no_idempotent])
def test_no_checked_grading_takes_the_flat_fold(build, field, monkeypatch):
    """Without a checked grading Der and Lie_2 are one d^2-wide fold each:
    where the projections build but a product breaks the weights (the
    weight check), and where no idempotent is declared."""
    from altrings.peirce import _decomposition

    A = build(field)
    assert A.dim >= lietype._GRADED_FROM
    if A.idempotent is not None:
        comps = _decomposition(A, A.idempotent)[2]
        assert [comps[s].dim for s in ((1, 1), (1, 2), (2, 1), (2, 2))] == [1, 1, 0, 4]
    assert lietype._grading(A) is None
    null_space, widths = lietype.null_space, []

    def spy(F, width, rows, known=None):
        widths.append(width)
        return null_space(F, width, rows, known)

    monkeypatch.setattr(lietype, "null_space", spy)
    _assert_graded_is_flat(A)
    assert widths == [A.dim ** 2] * 2


def test_committed_dense_zorn_goes_through_the_grading():
    """tests/data/zorn_dense.saf, a det-1 rebase of zorn over Q whose
    declared idempotent is no basis vector, read over Q and mod 3 (as CI
    runs ``derive`` on it): Der of dim 14 through the grading, equal to
    the d^2-wide fold."""
    text = (Path(__file__).parent / "data" / "zorn_dense.saf").read_text()
    for data in (text, text.replace("field Q\n", "field GF 3\n")):
        A = parse(data)
        assert lietype._grading(A) is not None
        assert derivation_space(A).space == _flat_spaces(A)[leibniz_rows]
        assert derivation_space(A).dim == 14


def test_walk_levels_matches_the_eager_walk(zorn, mat2):
    """The lazy level walk gives the states of the walk that finishes each
    level first (oracles.reference_walk_levels), in order, over 2 and 3
    levels: zorn's W_4 and W_5 streams and mat2's Lie-5 states.  Chained
    generators that read one eliminator variable late share the last
    level's eliminator, and fail here."""
    width, first, step = commutator_walk(zorn)
    for n in (4, 5):
        eager = reference_walk_levels(zorn.field, width, first, step, n - 2)
        assert list(_commutator_ints(zorn, n)) == eager
    width, first, step = lie_n_walk(mat2)
    eager = reference_walk_levels(mat2.field, width, first, step, 3)
    assert list(_walk_levels(mat2.field, width, first, step, 3)) == eager


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
    h = ad(mat2, 0) - ad(mat2, 3)
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


def test_normalization_and_decompose_at_a_fractional_idempotent(mat2):
    """At e1 = (E11 + E12 + E21 + E22) / 2, whose coordinates are not
    integral, the normalizer of ad(E11) is f_{y,e1} with y the off-diagonal
    part of D(e1), and admissible maps decompose."""
    h = Fraction(1, 2)
    ctx = peirce_context(mat2, (h, h, h, h))
    D = ad(mat2, 0)
    De1 = D.apply_coords(ctx.e1)
    y = tuple(a + b for a, b in zip(ctx.component_part(De1, 1, 2),
                                    ctx.component_part(De1, 2, 1)))
    assert any(y)
    Dp, f = normalize_at_idempotent(ctx, D)
    assert f == standard_inner_derivation(mat2, y, ctx.e1)
    assert Dp == D - f
    assert ctx.center.contains(Dp.apply_coords(ctx.e1))
    space = OperatorSpace(
        mat2, lie_n_derivation_space(mat2, 2).space.intersect(conditions_abc_subspace(ctx)),
    )
    rng = random.Random(3)
    for _ in range(3):
        D = space.random_member(rng)
        dec = decompose(ctx, D, 2)
        assert dec.delta + dec.tau == D
        assert is_derivation(mat2, dec.delta)


def test_normalization_noop_on_central_friendly_maps(ctx_mat2, mat2):
    D = trace_map(mat2)
    Dp, f = normalize_at_idempotent(ctx_mat2, D)
    assert f.is_zero() and Dp == D


def test_decompose_roundtrip_explicit(ctx_mat2, mat2):
    h = ad(mat2, 0) - ad(mat2, 3)
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


def _mat2_map(mat2, images):
    """The map of mat2 sending e_j to images[j] (zero where not given)."""
    zero = (0,) * 4
    return LinearMap.from_images(mat2, [images.get(j, zero) for j in range(4)])


# On the basis E11, E12, E21, E22 of mat2 at e1 = E11 every map meets (a) and
# (b), as R22 = Z e2 and R11 = Z e1, and (c) asks only D(E12) in Q E12 and
# D(E21) in Q E21.  On mat2 + mat2 at e1 = (E11, E11) a basis vector of R11
# may send its off-diagonal image to the other block's, where the sum e1
# does not see it.
@pytest.mark.parametrize("case, certificate, message", [
    ("offdiag", "no_central_solution", "diagonal image has an off-diagonal component"),
    ("e12-only", "leibniz_failure", "delta violates the Leibniz rule"),
    ("trace-of-e11", "tau_pn_nonzero", "tau does not vanish"),
])
def test_decompose_certificates_after_the_gates(mat2, case, certificate, message):
    if case == "offdiag":
        A = direct_sum(mat2, mat2)
        ctx = peirce_context(A, (1, 0, 0, 0, 1, 0, 0, 0))
        images = [(0,) * 8] * 8
        images[0] = (0, 1, 0, 0, 0, 0, 0, 0)   # (E11, 0) -> (E12, 0)
        images[4] = (0, -1, 0, 0, 0, 0, 0, 0)  # (0, E11) -> -(E12, 0)
        D = LinearMap.from_images(A, images)
    else:
        A, ctx = mat2, peirce_context(mat2, mat2.idempotent)
        # E12 -> E12 breaks D(E12 E21) = D(E12) E21 + E12 D(E21); E11 -> 1
        # is central but not zero on [E12, E21] = E11 - E22
        D = _mat2_map(mat2, {1: (0, 1, 0, 0)} if case == "e12-only" else {0: (1, 0, 0, 1)})
    assert check_conditions_abc(ctx, D).all_hold
    for n in (2, 3):
        with pytest.raises(DecompositionError) as exc:
            decompose(ctx, D, n, check_ring_conditions=False)
        assert exc.value.certificate == certificate
        assert str(exc.value).startswith(message)


def test_decompose_at_every_n(mat2, monkeypatch):
    """The README's map on mat2: tau = E11 + E22 on E11 and E22 is not 0, so
    n = 1, where W_1 is all of R, fails at tau_pn_nonzero; W_2 and W_3 are
    spanned by E12, E21 and E11 - E22, which tau kills.  tau is tested on
    the vectors that span W_n, not on a folded basis: beyond the ring
    conditions, decompose builds one eliminator at n = 3 (for the level
    W_2 that the walk steps to W_3) and none at n = 1 or 2."""
    ctx = peirce_context(mat2, mat2.idempotent)
    D = LinearMap(mat2, Matrix(QQ, [[1, 0, 0, 1], [0, 3, 0, 0], [0, 0, -3, 0], [1, 0, 0, 1]]))
    with pytest.raises(DecompositionError) as exc:
        decompose(ctx, D, 1)
    assert exc.value.certificate == "tau_pn_nonzero"
    for n in (2, 3):
        dec = decompose(ctx, D, n)
        assert dec.delta.matrix == Matrix(QQ, [[0] * 4, [0, 3, 0, 0], [0, 0, -3, 0], [0] * 4])
        assert dec.tau.matrix == Matrix(QQ, [[1, 0, 0, 1], [0] * 4, [0] * 4, [1, 0, 0, 1]])
        assert dec.normalizer.is_zero()
    assert [nested_commutator_span(mat2, n).dim for n in (1, 2, 3)] == [4, 3, 3]
    built, echelon = [], linalg.echelon

    def counted(*args):
        built.append(args)
        return echelon(*args)

    monkeypatch.setattr(linalg, "echelon", counted)
    monkeypatch.setattr(lietype, "echelon", counted)
    for n in (1, 2, 3):
        built.clear()
        try:
            decompose(ctx, D, n, check_ring_conditions=False)
        except DecompositionError:
            assert n == 1
        assert len(built) == (n == 3)


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


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_decompose_skips_an_empty_diagonal_component(field):
    # e0 e0 = e0, e0 e1 = e1 at e0: R22 and the center are zero
    A = Algebra(field, 2, {(0, 0, 0): 1, (0, 1, 1): 1}, idempotent=(1, 0))
    ctx = peirce_context(A, A.idempotent)
    assert ctx.dims == (1, 1, 0, 0)
    dec = decompose(ctx, LinearMap.zero(A), 2, check_ring_conditions=False)
    assert dec.tau.is_zero() and dec.delta.is_zero()


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

def test_is_derivation_agrees_with_leibniz_rows():
    """is_derivation against the dot products of leibniz_rows with vec(g),
    taken here on field elements: on members of derivation_space, on those
    members moved off it by one matrix unit, and on random maps."""
    algebras = [catalog(name, F) for name in ("mat2", "tri2", "zorn", "product2")
                for F in (QQ, GF(2), GF(3))]
    algebras += [unimodular_rebase(catalog(name, QQ), seed)
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
            A = unimodular_rebase(catalog(name, QQ), seed)
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
@given(_small_structures(), st.integers(3, 5))
def test_lie_n_space_stopped_at_the_bound_on_small_structures(case, n):
    """As test_lie_n_space_stopped_at_the_bound_is_the_unstopped_space, on
    random structure constants over Q, GF(2), GF(3) and GF(5)."""
    A, _ = _algebra(case)
    expected = linalg.null_space(A.field, A.dim ** 2, reference_lie_n_rows(A, n))
    assert lie_n_derivation_space(A, n).space == expected


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


# ---------------------------------------------------------------------------
# decompose's gates and certificates against the test's own Peirce arithmetic
# at e1, from the structure constants (maps as d x d lists, column s the
# image of e_s; subspaces as canonical RREF bases with pivot entries 1).

class _PeirceArith(_Arith):
    def __init__(self, A):
        d = A.dim
        p = A.field.characteristic or None
        c = A.tensor
        super().__init__(p, d, {key: c[key[0]][key[1]][key[2]]
                                for key in itertools.product(range(d), repeat=3)
                                if c[key[0]][key[1]][key[2]]})
        self.table = [[[(k, c) for (a, b, k), c in self.c.items() if (a, b) == (i, j)]
                       for j in range(d)] for i in range(d)]
        self.e1 = tuple(map(self.norm, A.idempotent))
        self.unit = None if A.unit is None else tuple(map(self.norm, A.unit))
        L, R = self.op(self.e1, "left"), self.op(self.e1, "right")
        LR = self.compose(L, R)
        ident = [[self.norm(int(r == s)) for s in range(d)] for r in range(d)]
        self.pi = {
            "11": LR,
            "12": self.plus(L, LR, -1),
            "21": self.plus(R, LR, -1),
            "22": self.plus(self.plus(ident, self.plus(L, R), -1), LR),
        }
        self.comps = {s: self.rref([self.column(m, k) for k in range(d)])
                      for s, m in self.pi.items()}
        e = [self.basis(i) for i in range(d)]
        self.center = self.null_space([[self.bracket(e[a], e[j])[m] for a in range(d)]
                                       for j in range(d) for m in range(d)])
        ze1 = [self.mul(z, self.e1) for z in self.center]
        self.actions = {1: ze1,
                        2: [tuple(self.norm(a - b) for a, b in zip(z, w))
                            for z, w in zip(self.center, ze1)]}

    def mul(self, x, y):
        out = [0] * self.d
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in self.table[i][j]:
                            out[k] += xi * yj * c
        return tuple(map(self.norm, out))

    def op(self, y, side):
        """L_y (side left) or R_y as a matrix."""
        cols = [self.mul(y, self.basis(s)) if side == "left" else self.mul(self.basis(s), y)
                for s in range(self.d)]
        return [[cols[s][r] for s in range(self.d)] for r in range(self.d)]

    def plus(self, M, N, sign=1):
        return [[self.norm(a + sign * b) for a, b in zip(u, v)] for u, v in zip(M, N)]

    def column(self, M, s):
        return tuple(row[s] for row in M)

    def apply(self, M, v):
        return tuple(self.norm(sum(a * b for a, b in zip(row, v))) for row in M)

    def inv(self, a):
        return 1 / a if self.p is None else pow(a, self.p - 2, self.p)

    def rref(self, vectors):
        rows, out = [list(map(self.norm, v)) for v in vectors], []
        for col in range(self.d):
            pivot = next((r for r in rows if r[col]), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            pivot = [self.norm(a * self.inv(pivot[col])) for a in pivot]
            rows = [[self.norm(a - r[col] * b) for a, b in zip(r, pivot)] for r in rows]
            out = [[self.norm(a - r[col] * b) for a, b in zip(r, pivot)] for r in out]
            out.append(pivot)
        return [tuple(r) for r in out]

    def null_space(self, rows):
        rows = self.rref(rows)
        pivots = [next(k for k, a in enumerate(r) if a) for r in rows]
        vectors = []
        for f in (k for k in range(self.d) if k not in pivots):
            v = [0] * self.d
            v[f] = 1
            for r, pc in zip(rows, pivots):
                v[pc] = self.norm(-r[f])
            vectors.append(tuple(map(self.norm, v)))
        return vectors

    def inside(self, v, span):
        span = list(span)
        return self.rank(span + [v]) == self.rank(span)

    def gates(self, D):
        """(status, witness) of (a), (b) and (c): the first basis vector of
        the component whose image escapes, with that image."""
        out = []
        for slot, post, side in (("11", "22", 2), ("22", "11", 1)):
            verdict = ("HOLDS", None)
            for a in self.comps[slot]:
                img = self.apply(self.pi[post], self.apply(D, a))
                if not self.inside(img, self.actions[side]):
                    verdict = ("FAILS", (a, img))
                    break
            out.append(verdict)
        out.append(next((("FAILS", (v, self.apply(D, v)))
                         for slot in ("12", "21") for v in self.comps[slot]
                         if not self.inside(self.apply(D, v), self.comps[slot])),
                        ("HOLDS", None)))
        return out

    def normalized(self, D):
        """D - f_{y,e1}, y the off-diagonal part of D(e1)."""
        y = self.apply(self.plus(self.pi["12"], self.pi["21"]), self.apply(D, self.e1))
        Ly, Ry = self.op(y, "left"), self.op(y, "right")
        Le, Re = self.op(self.e1, "left"), self.op(self.e1, "right")
        f = self.plus(self.plus(self.compose(Ly, Le), self.compose(Le, Ly), -1),
                      self.plus(self.plus(self.compose(Ly, Re), self.compose(Re, Ly), -1),
                                self.plus(self.compose(Ry, Re), self.compose(Re, Ry), -1)))
        return self.plus(D, f, -1)

    def certificate(self, D, Dp):
        """The first failing step of decompose up to the central solve (ring
        conditions unchecked), or "solved"."""
        for name, (status, _) in zip("abc", self.gates(D)):
            if status == "FAILS":
                return f"condition_{name}"
        if not self.inside(self.apply(Dp, self.e1), self.center):
            return "central_normalization"
        if self.unit is not None:
            e2 = tuple(self.norm(a - b) for a, b in zip(self.unit, self.e1))
            if not self.inside(self.apply(Dp, e2), self.center):
                return "central_normalization_complement"
        for name, (status, _) in zip("abc", self.gates(Dp)):
            if status == "FAILS":
                return f"condition_{name}_normalized"
        for slot, other, side in (("11", "22", 2), ("22", "11", 1)):
            for a in self.comps[slot]:
                img = self.apply(Dp, a)
                if any(self.apply(self.pi["12"], img) + self.apply(self.pi["21"], img)):
                    return "no_central_solution"
                if not self.inside(self.apply(self.pi[other], img), self.actions[side]):
                    return "no_central_solution"
                if self.rank(self.actions[side]) < len(self.center):
                    return "non_unique_z"
        return "solved"


def _mod(A, p):
    """A over Q with integral structure constants, unit and idempotent,
    read over GF(p)."""
    d, c = A.dim, A.tensor
    return Algebra(GF(p), d, {key: int(c[key[0]][key[1]][key[2]])
                              for key in itertools.product(range(d), repeat=3)
                              if c[key[0]][key[1]][key[2]]},
                   unit=[int(v) for v in A.unit], idempotent=[int(v) for v in A.idempotent])


@pytest.mark.parametrize("name", ["mat2", "zorn", "mat2+mat2"])
@pytest.mark.parametrize("p", [None, 3])
def test_decompose_certificates_match_own_peirce_arithmetic(name, p):
    """Admissible maps on dense rebases, and the same maps perturbed in the
    R11->R22, R22->R11, R12->R21, R21->R12 and R11->R12 blocks (pi_t X pi_s
    with X random; the last gives D(e1) an off-diagonal part): every gate
    verdict and witness of the input and of the normalized map, the
    normalized map itself, and the certificate of decompose match the
    test's own arithmetic.  Over Q one rebase has
    det 3, so its idempotent and structure constants are not integral.
    mat2 + mat2 (ring conditions unchecked) has Z e2 smaller than R22 and
    a center of dim 2, so it reaches condition (a) and non-unique z.
    Condition (b) cannot fail on these algebras, whose Z e1 is all of
    R11."""
    seen = set()
    for seed, det in ((1, 1), (2, 1), (1, 3)) if p is None else ((1, 1), (2, 1)):
        if name == "mat2+mat2":
            base = direct_sum(catalog("mat2", QQ), catalog("mat2", QQ))
        else:
            base = catalog(name, QQ)
        A = rebase(base, seed, det)
        if p is not None:
            A = _mod(A, p)
        F, d = A.field, A.dim
        ctx, members = _admissible_members(A, seed, 2)
        orc = _PeirceArith(A)
        rng = random.Random(seed)
        maps = list(members)
        for D in members:
            for s, t in (("11", "22"), ("22", "11"), ("12", "21"), ("21", "12"), ("11", "12")):
                X = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
                E = orc.compose(orc.pi[t], orc.compose(X, orc.pi[s]))
                maps.append(LinearMap(A, D.matrix + Matrix(F, E)))
        for D in maps:
            M = [list(map(orc.norm, row)) for row in D.matrix.rows]
            Mp = orc.normalized(M)
            rep = check_conditions_abc(ctx, D)
            assert [(v.status.name, v.witness) for v in (rep.a, rep.b, rep.c)] == orc.gates(M)
            want = orc.certificate(M, Mp)
            seen.add(want)
            if not want.startswith("condition_") or want.endswith("_normalized"):
                try:
                    Dp, _ = normalize_at_idempotent(ctx, D)
                except NormalizationError as exc:
                    assert exc.certificate == want
                else:
                    assert [list(map(orc.norm, row)) for row in Dp.matrix.rows] == Mp
                    rep = check_conditions_abc(ctx, Dp)
                    assert ([(v.status.name, v.witness) for v in (rep.a, rep.b, rep.c)]
                            == orc.gates(Mp))
            try:
                decompose(ctx, D, 2, check_ring_conditions=False)
                got = "solved"
            except DecompositionError as exc:
                got = exc.certificate
            if want == "solved":
                assert got in ("solved", "leibniz_failure", "tau_pn_nonzero")
            else:
                assert got == want, (D, want, got)
    reached = {"condition_c", "central_normalization_complement"} | (
        {"condition_a", "non_unique_z"} if name == "mat2+mat2"
        else {"solved", "central_normalization"})
    assert reached <= seen, seen


def test_decompose_builds_field_elements_only_for_its_outputs(monkeypatch):
    """One decompose on a dense zorn rebase crosses between Fractions and
    ints a bounded number of times: e1 and the unit once each, the ring
    conditions' witnesses, and the returned maps, which are read as field
    elements only when asked.  The bound is d, where a per-vector round
    trip through the Peirce bases would cost O(d^2)."""
    A = unimodular_rebase(catalog("zorn", QQ), 1)
    ctx, (D,) = _admissible_members(A, 1, 1)
    calls = []
    for method in ("to_ints", "from_ints"):
        original = getattr(QQ, method)

        def counted(*args, _original=original, _method=method):
            calls.append(_method)
            return _original(*args)

        monkeypatch.setattr(QQ, method, counted)
    dec = decompose(ctx, D, 2)
    assert len(calls) <= A.dim, calls
    assert dec.delta + dec.tau == D


@pytest.mark.parametrize("p", [None, 3])
def test_abc_gates_agree_with_the_abc_space(p):
    """check_conditions_abc holds on D exactly when conditions_abc_subspace
    contains D, on the catalog algebras and a dense zorn rebase: for random
    integer combinations of the space's basis, the same maps with one or
    two entries perturbed, and sparse random maps."""
    algebras = [catalog(name, QQ) for name in ("mat2", "tri2", "product2", "zorn")]
    algebras.append(rebase(catalog("zorn", QQ), 1))
    holds = 0
    for seed, A in enumerate(algebras):
        if p is not None:
            A = _mod(A, p)
        d = A.dim
        ctx = peirce_context(A, A.idempotent)
        space = conditions_abc_subspace(ctx)
        rng = random.Random(seed)
        cases = []
        for _ in range(16):
            coeffs = [rng.randint(-3, 3) for _ in space.basis]
            member = [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*space.basis)]
            perturbed = list(member)
            for _ in range(rng.randint(1, 2)):
                perturbed[rng.randrange(d * d)] += rng.choice((-1, 1, 2))
            sparse = [0] * (d * d)
            for _ in range(rng.randint(1, 3)):
                sparse[rng.randrange(d * d)] = rng.randint(-2, 2)
            cases += [member, perturbed, sparse]
        for vec in cases:
            D = LinearMap.from_vector(A, vec)
            gate = check_conditions_abc(ctx, D).all_hold
            assert gate == space.contains(D.to_vector()), (A.name, vec)
            holds += gate
    assert 0 < holds < len(algebras) * 48


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=str)
def test_central_lifts_invert_the_action_and_tau_is_central(F):
    """On the catalog algebras, dense rebases of mat2 and zorn, mat2 + mat2
    at (E11, 0) and (E11, E11), and mat2 at (E11 + E12 + E21 + E22) / 2:
    each central lift sends z e_side back to z for every basis row z of Z,
    is None exactly when dim Z e_side < dim Z, and every tau that
    decompose returns on admissible maps has its columns in Z."""
    algebras = [catalog(name, QQ) for name in ("mat2", "tri2", "zorn", "product2")]
    algebras += [rebase(catalog(name, QQ), 1) for name in ("mat2", "zorn")]
    algebras.append(direct_sum(catalog("mat2", QQ), catalog("mat2", QQ)))
    if F is not QQ:
        algebras = [_mod(A, F.p) for A in algebras]
    half = F.coerce(Fraction(1, 2))
    cases = [(A, A.idempotent) for A in algebras]
    cases += [(algebras[-1], (1, 0, 0, 0, 1, 0, 0, 0)), (algebras[0], (half,) * 4)]
    lifts = set()
    central = 0
    for seed, (A, e1) in enumerate(cases):
        ctx = peirce_context(A, e1)
        Z = ctx.center
        for side, lift in ctx.central_lifts.items():
            assert (lift is None) == (ctx.action_spaces[side].dim < Z.dim)
            lifts.add(lift is None)
            if lift is None:
                continue
            for z in Z.basis:
                ze1 = (A.element(z) * A.element(ctx.e1)).coords
                ze = ze1 if side == 1 else tuple(F.sub(a, b) for a, b in zip(z, ze1))
                assert lift.apply(ze) == z
        space = OperatorSpace(
            A, lie_n_derivation_space(A, 2).space.intersect(conditions_abc_subspace(ctx)))
        rng = random.Random(seed)
        for _ in range(3):
            try:
                dec = decompose(ctx, space.random_member(rng), 2, check_ring_conditions=False)
            except DecompositionError:
                continue
            central += not dec.tau.is_zero()
            assert all(Z.contains(column) for column in zip(*dec.tau.matrix.rows))
    assert lifts == {False, True} and central > 0, (lifts, central)
