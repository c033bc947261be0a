import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altrings import linalg
from altrings.algebra import center, leibniz_rows, nucleus
from altrings.catalog import CATALOG_NAMES, catalog
from altrings.fields import GF, QQ
from altrings.lietype import (conditions_abc_subspace, derivation_space, lie_n_derivation_space,
                              nested_commutator_span)
from altrings.linalg import Matrix, Subspace, kernel, rank, rref, solve
from altrings.peirce import check_offdiag_commutant, peirce_context
from oracles import (ReferenceEchelon, ReferencePrimeEchelon, dense_rebase, normal, scalars,
                     unimodular_rebase)


def mat(rows, field=QQ):
    return Matrix(field, rows)


def test_rref_canonical_small():
    m = mat([[2, 4], [1, 2]])
    r, rk = rref(m)
    assert rk == 1
    assert r.rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))


def test_rref_identity_block():
    m = mat([[0, 1, 2], [1, 0, 3]])
    r, rk = rref(m)
    assert rk == 2
    assert r.rows[0] == (Fraction(1), Fraction(0), Fraction(3))
    assert r.rows[1] == (Fraction(0), Fraction(1), Fraction(2))


def test_rank_examples():
    assert rank(mat([[1, 2], [3, 4]])) == 2
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(Matrix.zeros(QQ, 3, 3)) == 0
    assert rank(Matrix.identity(GF(5), 4)) == 4


def test_kernel_of_projection():
    # rows kill the second coordinate only
    m = mat([[1, 0], [0, 0]])
    ker = kernel(m)
    assert ker.dim == 1
    assert ker.contains((0, 1))
    assert not ker.contains((1, 0))


def test_kernel_of_empty_matrix_is_full():
    m = Matrix(QQ, [], ncols=3)
    assert kernel(m) == Subspace.full(QQ, 3)


def test_solve_consistent_and_inconsistent():
    m = mat([[1, 1], [0, 1]])
    sol = solve(m, (3, 1))
    assert sol is not None
    x, ker = sol
    assert m.apply(x) == (Fraction(3), Fraction(1))
    assert ker.is_zero()

    m2 = mat([[1, 1], [2, 2]])
    assert solve(m2, (1, 3)) is None
    sol2 = solve(m2, (1, 2))
    x2, ker2 = sol2
    assert m2.apply(x2) == (Fraction(1), Fraction(2))
    assert ker2.dim == 1


def test_matrix_algebra_over_gf():
    F = GF(3)
    a = Matrix(F, [[1, 2], [0, 1]])
    b = Matrix(F, [[2, 0], [1, 1]])
    assert (a @ b).rows == ((1, 2), (1, 1))
    assert (a + b).rows == ((0, 2), (1, 2))
    assert (a - a).is_zero()


def test_subspace_canonicality():
    s1 = Subspace.from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace.from_vectors(QQ, 3, [(2, 2, 2), (0, 0, 5), (1, 1, 7)])
    assert s1 == s2
    assert s1.dim == 2


def test_subspace_membership_and_residual():
    s = Subspace.from_vectors(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    assert s.contains((1, 1, 2))
    assert not s.contains((1, 1, 1))
    r = s.residual((1, 1, 1))
    # residual differs from the vector by a subspace element
    diff = tuple(QQ.sub(a, b) for a, b in zip((1, 1, 1), r))
    assert s.contains(diff)
    assert s.residual((1, 1, 2)) == (Fraction(0),) * 3


def test_subspace_sum_and_intersection():
    a = Subspace.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.from_vectors(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    assert a.sum_with(b) == Subspace.full(QQ, 3)
    meet = a.intersect(b)
    assert meet.dim == 1
    assert meet.contains((0, 1, 0))


def test_residual_matrix_kernel_is_the_subspace():
    s = Subspace.from_vectors(QQ, 4, [(1, 2, 0, 0), (0, 0, 1, -1)])
    assert kernel(s.residual_matrix()) == s


def test_zero_subspace_edge_cases():
    z = Subspace.zero(QQ, 3)
    assert z.dim == 0 and z.is_zero()
    assert z.contains((0, 0, 0))
    assert Subspace.full(QQ, 3).contains_subspace(z)
    assert kernel(z.residual_matrix()) == z


def test_subspace_vectors_enumeration():
    F = GF(3)
    s = Subspace.from_vectors(F, 2, [(1, 2)])
    vecs = set(s.vectors())
    assert vecs == {(0, 0), (1, 2), (2, 1)}


coeff = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(coeff, min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_nullity(rows):
    m = mat(rows)
    assert rank(m) + kernel(m).dim == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(coeff, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(coeff, min_size=3, max_size=3))
def test_kernel_vectors_annihilate(rows, probe):
    m = mat(rows)
    ker = kernel(m)
    # project the probe onto nothing; instead check each basis vector maps to 0
    for v in ker.basis:
        assert all(x == 0 for x in m.apply(v))
    # solve round-trip when consistent
    rhs = m.apply(tuple(Fraction(c) for c in probe))
    sol = solve(m, rhs)
    assert sol is not None
    x, _ = sol
    assert m.apply(x) == rhs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_gf5_rank_nullity(rows):
    m = Matrix(GF(5), rows)
    assert rank(m) + kernel(m).dim == 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(coeff, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(st.lists(coeff, min_size=3, max_size=3), min_size=1, max_size=3))
def test_modular_law_for_sums_and_meets(rows_a, rows_b):
    a = Subspace.from_vectors(QQ, 3, rows_a)
    b = Subspace.from_vectors(QQ, 3, rows_b)
    meet = a.intersect(b)
    join = a.sum_with(b)
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    assert join.contains_subspace(a) and join.contains_subspace(b)
    assert meet.dim + join.dim == a.dim + b.dim


def _subspace(data, F, n):
    kind = data.draw(st.sampled_from(["zero", "full", "span", "span"]))
    if kind == "zero":
        return Subspace.zero(F, n)
    if kind == "full":
        return Subspace.full(F, n)
    rows = st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=1, max_size=n)
    return Subspace.from_vectors(F, n, data.draw(rows))


def _span_of(F, n, basis):
    """Every vector of span(basis) in GF(p)^n, enumerated from coefficients."""
    return {tuple(sum(c * b[i] for c, b in zip(cs, basis)) % F.p for i in range(n))
            for cs in itertools.product(range(F.p), repeat=len(basis))}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_intersection_and_killed_by_match_their_definitions(data):
    F = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n = data.draw(st.integers(4, 7))
    a, b = _subspace(data, F, n), _subspace(data, F, n)
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                              max_size=4))
    meet, join = a.intersect(b), a.sum_with(b)
    assert meet == b.intersect(a)
    assert Subspace.from_vectors(F, n, meet.basis) == meet  # stored in RREF
    assert a.contains_subspace(meet) and b.contains_subspace(meet)
    assert join.contains_subspace(a) and join.contains_subspace(b)
    assert meet.dim + join.dim == a.dim + b.dim
    killed = a.killed_by(rows)
    K = kernel(Matrix(F, rows, ncols=n))
    assert Subspace.from_vectors(F, n, killed.basis) == killed
    assert a.contains_subspace(killed) and K.contains_subspace(killed)
    assert killed.dim + a.sum_with(K).dim == a.dim + K.dim
    if F.is_finite and F.p ** max(a.dim, b.dim) <= 5 ** 5:
        vecs_a = _span_of(F, n, a.basis)
        assert _span_of(F, n, meet.basis) == vecs_a & _span_of(F, n, b.basis)
        assert _span_of(F, n, killed.basis) == {
            v for v in vecs_a
            if all(sum(r * x for r, x in zip(row, v)) % F.p == 0 for row in rows)}


# Integer kernels against an independent per-scalar reference.  Over Q the
# entries have mixed denominators; over GF(p) the inputs are unreduced ints.

FIELDS = [QQ, GF(2), GF(3), GF(7)]


def rows_of(F, nrows, ncols):
    row = st.lists(scalars(F), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


def assert_normal_form(F, values):
    for v in values:
        if F is QQ:
            assert type(v) is Fraction
        else:
            assert type(v) is int and 0 <= v < F.p


def reference_rref(F, rows, ncols):
    """Textbook Gauss-Jordan on the raw entries; returns (nonzero rows, rank)."""
    m = [[normal(F, v) for v in row] for row in rows]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [v / lead if F is QQ else v * pow(lead, -1, F.p) % F.p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [normal(F, a - f * b) for a, b in zip(m[i], m[r])]
        r += 1
    return [tuple(row) for row in m[:r]], r


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_products_match_per_scalar_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(rows_of(F, n, k))
    b = data.draw(rows_of(F, k, m))
    vec = data.draw(rows_of(F, 1, k))[0]
    A, B = Matrix(F, a, ncols=k), Matrix(F, b, ncols=m)
    product = A @ B
    assert (product.nrows, product.ncols) == (n, m)
    for i in range(n):
        expected = [normal(F, sum(a[i][t] * b[t][j] for t in range(k))) for j in range(m)]
        assert list(product.rows[i]) == expected
        assert_normal_form(F, product.rows[i])
    image = A.apply(vec)
    assert list(image) == [normal(F, sum(x * y for x, y in zip(row, vec))) for row in a]
    assert_normal_form(F, image)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_and_kernel_match_per_scalar_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    n, k = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    raw = data.draw(rows_of(F, n, k))
    M = Matrix(F, raw, ncols=k)
    expected, expected_rank = reference_rref(F, raw, k)
    reduced, rk = rref(M)
    assert rk == expected_rank == rank(M)
    assert list(reduced.rows[:rk]) == expected
    assert all(v == 0 for row in reduced.rows[rk:] for v in row)
    for row in reduced.rows:
        assert_normal_form(F, row)
    ker = kernel(M)
    assert ker.dim == k - expected_rank
    for v in ker.basis:
        assert_normal_form(F, v)
        assert all(normal(F, sum(x * y for x, y in zip(row, v))) == 0 for row in raw)
    # the stored basis is itself in canonical reduced echelon form
    assert reference_rref(F, ker.basis, k)[0] == list(ker.basis)
    # solve reads the same null space off its augmented eliminator
    rhs = M.apply(data.draw(rows_of(F, 1, k))[0])
    x, solve_ker = solve(M, rhs)
    assert M.apply(x) == rhs
    assert solve_ker == ker


def _int_row(F, row):
    """An int row with the null space of a row of field scalars: over Q the
    row times the lcm of its denominators, over GF(p) the unreduced ints."""
    if F is not QQ:
        return list(row)
    den = math.lcm(*[Fraction(v).denominator for v in row])
    return [int(v * den) for v in row]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_and_killed_by_on_row_streams_match_per_scalar_reference(data):
    """kernel(Matrix) and killed_by on the full space against the
    reference above: rank-nullity, every basis vector killed, a canonical
    RREF.  The rows mix zero rows (over GF(p) also nonzero multiples of p)
    and repeats, and killed_by reads them from a stream that fails if read
    past the row that makes the reference rank reach the width."""
    F = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    k = data.draw(st.integers(1, 5))
    raw = []
    for _ in range(data.draw(st.integers(0, k + 4))):
        kind = data.draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            raw.append([0 if F is QQ else F.p * data.draw(st.integers(-2, 2))
                        for _ in range(k)])
        elif kind == "repeat" and raw:
            raw.append(list(data.draw(st.sampled_from(raw))))
        else:
            raw.append(data.draw(rows_of(F, 1, k))[0])
    expected_rank = reference_rref(F, raw, k)[1]
    # the number of rows a reader needs: all of them, unless a prefix fills F^k
    needed = next((i + 1 for i in range(len(raw))
                   if reference_rref(F, raw[:i + 1], k)[1] == k), len(raw))

    def stream():
        for i, row in enumerate(raw):
            if i == needed:
                raise AssertionError(f"row {i} read after the rows spanned F^{k}")
            yield _int_row(F, row)

    ker = kernel(Matrix(F, raw, ncols=k))
    killed = Subspace.full(F, k).killed_by(stream())
    for S in (ker, killed):
        assert S.dim == k - expected_rank
        for v in S.basis:
            assert_normal_form(F, v)
            assert all(normal(F, sum(x * y for x, y in zip(row, v))) == 0 for row in raw)
        assert reference_rref(F, S.basis, k)[0] == list(S.basis)
    assert killed == ker


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_null_space_returns_its_known_part_once_the_rank_allows_no_more(data):
    """null_space(F, k, rows, known) for a subspace known that every row
    kills: the kernel of the rows, and known itself, unread past that row,
    from the row at which the reference rank reaches k - dim known.  The
    rows are combinations of a spanning set of the vectors that kill
    known, with zero rows and repeats among them."""
    F = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    k = data.draw(st.integers(1, 5))
    known = Subspace(F, k, data.draw(rows_of(F, data.draw(st.integers(0, k)), k)))
    killers = known.residual_matrix().rows
    raw = []
    for _ in range(data.draw(st.integers(0, k + 4))):
        kind = data.draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "repeat" and raw:
            raw.append(list(data.draw(st.sampled_from(raw))))
        else:
            coeffs = data.draw(rows_of(F, 1, len(killers)))[0] if kind == "fresh" else ()
            raw.append([normal(F, sum((c * r[i] for c, r in zip(coeffs, killers)), 0))
                        for i in range(k)])
    final = k - known.dim
    # the rows a reader needs; None: all of them, and the answer exceeds known
    needed = 0 if final == 0 else next((i + 1 for i in range(len(raw))
                                        if reference_rref(F, raw[:i + 1], k)[1] == final), None)

    def stream():
        for i, row in enumerate(raw):
            if i == needed:
                raise AssertionError(f"row {i} read after the rank reached {final}")
            yield _int_row(F, row)

    got = linalg.null_space(F, k, stream(), known)
    assert got == kernel(Matrix(F, raw, ncols=k))
    assert known.contains_subspace(got) == (needed is not None)
    if needed is not None:
        assert got is known


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_null_space_is_one_elimination(data):
    """null_space(F, k, rows, known) with a null space larger than known
    (None or a subspace every row kills) builds exactly one eliminator and
    returns the kernel's canonical RREF, in the int form a fold of its
    basis gives.  The rows are combinations of fewer vectors than the
    rank k - dim known needs, with zero rows and repeats among them."""
    F = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(65521)]))
    k = data.draw(st.integers(1, 6))
    known = None
    if data.draw(st.booleans()):
        known = Subspace(F, k, data.draw(rows_of(F, data.draw(st.integers(0, k - 1)), k)))
    killers = (Matrix.identity(F, k) if known is None else known.residual_matrix()).rows
    gens = [[normal(F, sum((c * r[i] for c, r in zip(coeffs, killers)), 0)) for i in range(k)]
            for coeffs in data.draw(rows_of(F, data.draw(st.integers(0, len(killers) - 1)),
                                            len(killers)))]
    raw = []
    for _ in range(data.draw(st.integers(0, k + 4))):
        kind = data.draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "repeat" and raw:
            raw.append(list(data.draw(st.sampled_from(raw))))
        else:
            coeffs = data.draw(rows_of(F, 1, len(gens)))[0] if kind == "fresh" else ()
            raw.append([normal(F, sum((c * g[i] for c, g in zip(coeffs, gens)), 0))
                        for i in range(k)])
    built = []
    with pytest.MonkeyPatch.context() as mp:
        echelon = linalg.echelon
        mp.setattr(linalg, "echelon", lambda *args: built.append(args) or echelon(*args))
        got = linalg.null_space(F, k, (_int_row(F, row) for row in raw), known)
    assert len(built) == 1
    assert got.dim == k - reference_rref(F, raw, k)[1] > (0 if known is None else known.dim)
    for v in got.basis:
        assert_normal_form(F, v)
        assert all(normal(F, sum(x * y for x, y in zip(row, v))) == 0 for row in raw)
    assert reference_rref(F, got.basis, k)[0] == list(got.basis)
    assert Subspace.from_vectors(F, k, got.basis) == got
    assert known is None or got.contains_subspace(known)


@pytest.mark.parametrize("F", [QQ, GF(3)], ids=str)
def test_killed_by_on_the_zero_subspace_reads_no_row(F, monkeypatch):
    def rows():
        raise AssertionError("a row was read")
        yield

    built = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda *args: built.append(args) or echelon(*args))
    zero = Subspace.zero(F, 3)
    assert zero.killed_by(rows()) == zero
    assert built == []


def _kernel_records():
    """(label, _num, _den, _pivots) of the kernels the package computes:
    center, nucleus, Der, Lie-2, Lie-3, W_2, W_3, the (a)-(c) space and
    both commutants of mat2, tri2, zorn, product2 and seeded dense rebases
    of mat2 and zorn, then kernel, intersect and killed_by on seeded random
    matrices, over Q, GF(2), GF(3) and GF(65521)."""
    out = []

    def put(label, S):
        out.append((label, S._num, S._den, S._pivots))

    for F in (QQ, GF(2), GF(3), GF(65521)):
        algebras = [(name, catalog(name, F)) for name in CATALOG_NAMES]
        for name in ("mat2", "zorn"):
            base = catalog(name, F)
            algebras.append((name + "~1", unimodular_rebase(base, 1) if F is QQ
                             else dense_rebase(base, F.p, 1)))
        for name, A in algebras:
            tag = f"{name}/{F}"
            put(tag + " center", center(A))
            put(tag + " nucleus", nucleus(A))
            put(tag + " Der", derivation_space(A).space)
            for n in (2, 3):
                put(f"{tag} Lie-{n}", lie_n_derivation_space(A, n).space)
                put(f"{tag} W_{n}", nested_commutator_span(A, n))
            ctx = peirce_context(A, A.idempotent)
            put(tag + " abc", conditions_abc_subspace(ctx))
            for side in ("12", "21"):
                put(f"{tag} commutant {side}", check_offdiag_commutant(ctx, side).subspace)
        rng = random.Random(11)
        for k in range(12):
            m, w = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[rng.randint(-3, 3) * (rng.random() < 0.7) for _ in range(w)]
                    for _ in range(m)]
            put(f"{F} kernel #{k}", kernel(Matrix(F, rows)))
            a, b = (Subspace(F, w, [[rng.randint(-2, 2) for _ in range(w)]
                                    for _ in range(rng.randint(0, w))]) for _ in range(2))
            put(f"{F} intersect #{k}", a.intersect(b))
            put(f"{F} killed_by #{k}",
                a.killed_by(rows[:1] + [r for r in rows if rng.random() < 0.5]))
    return out


def test_kernels_are_frozen():
    """Every int of every kernel above, frozen from a null_space that
    folded its rows and then folded the null vectors it read off them."""
    records = _kernel_records()
    assert len(records) == 384
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "c7f53455c7dcf2096d7bb8aeacc2805258505822b138987b5729bc29b16bd207")


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def sympy_domain(sympy, F):
    """sympy's domain for F, with maps into it and back."""
    if F is QQ:
        return (sympy.QQ, lambda v: sympy.QQ(v.numerator, v.denominator),
                lambda e: Fraction(int(e.numerator), int(e.denominator)))
    dom = sympy.GF(F.p)
    return dom, dom, lambda e: int(e) % F.p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_rank_nullspace_agree_with_sympy(sympy, data):
    from sympy.polys.matrices import DomainMatrix

    F = data.draw(st.sampled_from(FIELDS))
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    M = Matrix(F, data.draw(rows_of(F, n, k)))
    dom, to_dom, back = sympy_domain(sympy, F)
    dm = DomainMatrix([[to_dom(v) for v in row] for row in M.rows], (n, k), dom)

    reduced, rk = rref(M)
    sym_reduced, _ = dm.rref()
    assert [tuple(back(e) for e in row) for row in sym_reduced.to_list()] == list(reduced.rows)
    assert rk == dm.rank()

    null_rows = dm.nullspace().to_list()
    if null_rows:
        null = DomainMatrix(null_rows, (len(null_rows), k), dom).rref()[0].to_list()
        null = [tuple(back(e) for e in row) for row in null if any(row)]
    else:
        null = []
    assert list(kernel(M).basis) == null


# The int form of Matrix and Subspace against per-scalar arithmetic written
# here: entries are mixed-denominator Fractions over Q and unreduced,
# possibly negative ints over GF(p).

def reference_rows(F, raw):
    return tuple(tuple(normal(F, v) for v in row) for row in raw)


def assert_int_form(F, M, expected):
    """M.int_form() is the canonical int form of the reference rows."""
    rows, den = M.int_form()
    if F is QQ:
        assert den > 0 and math.gcd(den, *[v for row in rows for v in row]) == 1
        assert tuple(tuple(Fraction(v, den) for v in row) for row in rows) == expected
    else:
        assert den == 1
        assert tuple(map(tuple, rows)) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_int_form_matches_per_scalar_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4))
    a, b = data.draw(rows_of(F, n, k)), data.draw(rows_of(F, n, k))
    c = data.draw(scalars(F))
    A, B = Matrix(F, a, ncols=k), Matrix(F, b, ncols=k)
    ref_a, ref_b = reference_rows(F, a), reference_rows(F, b)

    def combined(op):
        return tuple(tuple(normal(F, op(x, y)) for x, y in zip(ra, rb))
                     for ra, rb in zip(ref_a, ref_b))

    cases = [
        (A, ref_a),
        (A + B, combined(lambda x, y: x + y)),
        (A - B, combined(lambda x, y: x - y)),
        (-A, tuple(tuple(normal(F, -x) for x in row) for row in ref_a)),
        (A.scale(c), tuple(tuple(normal(F, c * x) for x in row) for row in ref_a)),
        ((A - B) + B, ref_a),
    ]
    for M, expected in cases:
        assert M.rows == expected
        for row in M.rows:
            assert_normal_form(F, row)
        assert_int_form(F, M, expected)
        assert M.is_zero() == all(v == 0 for row in expected for v in row)
        for j in range(k):
            assert M.column(j) == tuple(row[j] for row in expected)
        # equal to, and hashed like, the matrix built from its field elements
        same = Matrix(F, expected, ncols=k)
        assert M == same and hash(M) == hash(same)
    assert (A == B) == (ref_a == ref_b)
    assert (A - A).is_zero() and A - A == Matrix.zeros(F, n, k)
    assert hash(A - A) == hash(Matrix.zeros(F, n, k))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_from_ints_over_any_denominator_equals_and_hashes_alike(data):
    F = data.draw(st.sampled_from(FIELDS))
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    nums = data.draw(st.lists(st.lists(st.integers(-40, 40), min_size=k, max_size=k),
                              min_size=n, max_size=n))
    dens = [d for d in range(-12, 13) if d and (F is QQ or d % F.p)]
    den = data.draw(st.sampled_from(dens))
    M = Matrix.from_ints(F, nums, den, k)
    if F is QQ:
        expected = tuple(tuple(Fraction(v, den) for v in row) for row in nums)
    else:
        inv = pow(den, -1, F.p)
        expected = tuple(tuple(v * inv % F.p for v in row) for row in nums)
    assert M.rows == expected
    assert_int_form(F, M, expected)
    same = Matrix(F, expected)
    assert M == same and hash(M) == hash(same)
    # the same values over a scaled denominator
    s = data.draw(st.sampled_from([s for s in (2, 3, 5, -4) if F is QQ or s % F.p]))
    scaled = Matrix.from_ints(F, [[v * s for v in row] for row in nums], den * s, k)
    assert scaled == M and hash(scaled) == hash(M)


def test_from_ints_example_equals_its_fraction_matrix():
    a = Matrix.from_ints(QQ, [[2, 4]], 2, 2)
    b = Matrix(QQ, [[1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a.int_form() == ([[1, 2]], 1)
    half = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)]])
    # a sum over two denominators is taken over their lcm
    assert (half - Matrix(QQ, [[Fraction(1, 4), 0]])).rows == ((Fraction(1, 4), Fraction(1, 3)),)
    assert (half + half).int_form() == ([[3, 2]], 3)
    F = GF(7)
    c = Matrix.from_ints(F, [[-1, 15]], 3, 2)
    assert c.rows == ((2, 5),) and c == Matrix(F, [[2, 5]])
    assert hash(c) == hash(Matrix(F, [[2, 5]]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_from_int_rows_equals_and_hashes_like_fraction_rows(data):
    F = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                              min_size=1, max_size=4))
    scales = data.draw(st.lists(st.sampled_from([1, 2, 3, 5, -7]),
                                min_size=len(rows), max_size=len(rows)))
    S = Subspace.from_vectors(F, n, rows)
    if F is QQ:
        # each row divided by its own scale: the same span, other denominators
        fractions = [[Fraction(v, s) for v in row] for row, s in zip(rows, scales)]
    else:
        fractions = [[v * s for v in row] for row, s in zip(rows, scales) if s % F.p]
        fractions += [row for row, s in zip(rows, scales) if not s % F.p]
    T = Subspace.from_vectors(F, n, fractions)
    assert S == T and hash(S) == hash(T)
    # the public constructor from field elements gives the same int form
    U = Subspace(F, n, T.basis)
    assert U == S and hash(U) == hash(S)
    assert reference_rref(F, rows, n)[0] == list(S.basis)
    for v in S.basis:
        assert_normal_form(F, v)


# The Q eliminator proves most dependent rows by a packed dot product
# against a null basis of its span, and back-substitutes only when its rows
# are read; what it returns and every row read must stay those of plain
# reduction (oracles.ReferenceEchelon) int for int.

def _row_stream(data, width):
    """Rows of one width: fresh rows of dense 15-60-bit entries, zero rows,
    and mostly combinations of earlier rows with big coefficients, some of
    them scaled past 2^200 so that they overflow the packed slots."""
    bits = data.draw(st.integers(15, 60), label="bits")
    entry = st.integers(-(1 << bits), 1 << bits)
    fresh = st.lists(entry, min_size=width, max_size=width)
    rows = []
    for _ in range(data.draw(st.integers(1, 48), label="length")):
        kind = data.draw(st.sampled_from(["fresh", "zero", "huge"] + ["combination"] * 5))
        if kind == "fresh" or not rows:
            rows.append(data.draw(fresh))
        elif kind == "zero":
            rows.append([0] * width)
        else:
            picks = data.draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=4))
            row = [0] * width
            for i in picks:
                c = data.draw(entry)
                row = [x + c * y for x, y in zip(row, rows[i])]
            if kind == "huge":
                scale = (1 << 200) + data.draw(st.integers(-(1 << 20), 1 << 20))
                row = [v * scale for v in row]
            rows.append(row)
    return rows


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_q_eliminator_matches_plain_reduction_row_by_row(data):
    width = data.draw(st.sampled_from([1, 1, 2, 3, 4, 5, 6, 8]), label="width")
    rows = _row_stream(data, width)
    acc, ref = linalg.echelon(QQ, width), ReferenceEchelon(width)
    for row in rows:
        copy = list(row)
        assert acc.add(row) == ref.add(row)
        assert acc.pivots == ref.pivots
        assert row == copy
    assert acc.rref_ints() == ref.rref_ints()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_q_eliminator_reduces_on_read_as_plain_reduction(data):
    """Between reads the Q eliminator's rows stay stepped: add's return
    values, and the RREF rows and pivot columns read at any point, are
    those of plain reduction."""
    width = data.draw(st.sampled_from([1, 1, 2, 3, 4, 5, 6, 8]), label="width")
    rows = _row_stream(data, width)
    reads = data.draw(st.sets(st.sampled_from(range(len(rows)))), label="reads")
    acc, ref = linalg.echelon(QQ, width), ReferenceEchelon(width)
    for k, row in enumerate(rows):
        assert acc.add(row) == ref.add(row)
        if k in reads:
            assert acc.rref_ints() == ref.rref_ints()
            assert acc.pivot_columns() == ref.pivot_columns()
    assert acc.rref_ints() == ref.rref_ints()
    assert acc.pivot_columns() == ref.pivot_columns()


def test_q_eliminator_keeps_rows_that_would_carry_between_slots():
    """After dependent rows c e_2 the packed slots are about as wide as c;
    a row a e_0 - b e_1 whose slot values would carry into one another
    (a = b 2^w) must still enlarge the span."""
    for c in range(1, 9):
        for b in (1, 2, 3):
            for a in range(1, 40):
                acc = linalg.echelon(QQ, 4)
                for row in [[0, 0, 1, 0], [0, 0, 0, 1]] + [[0, 0, c, 0]] * 20:
                    acc.add(row)
                assert acc.add([a, -b, 0, 0])
                assert not acc.add([a * c, -b * c, 5, -7])


def test_packed_check_spares_most_dependent_leibniz_rows(monkeypatch):
    """462 of the 512 Leibniz rows of a dense Zorn basis add no rank; the
    packed check must spare the reduction of most of them."""
    A = unimodular_rebase(catalog("zorn", QQ), 1)
    reduced = linalg._RationalEchelon._reduced
    calls = []

    def counted(self, row):
        calls.append(row)
        return reduced(self, row)

    monkeypatch.setattr(linalg._RationalEchelon, "_reduced", counted)
    acc = linalg.echelon(QQ, 64)
    rows = list(leibniz_rows(A))
    for row in rows:
        acc.add(row)
    assert len(rows) == 512 and acc.rank == 50
    assert len(calls) <= 120


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_zorn_spaces_equal_the_reference_eliminators(seed, monkeypatch):
    A = unimodular_rebase(catalog("zorn", QQ), seed)

    def spaces():
        return [derivation_space(A).space, lie_n_derivation_space(A, 2).space,
                lie_n_derivation_space(A, 3).space]

    fast = spaces()
    monkeypatch.setattr(linalg, "_RationalEchelon", ReferenceEchelon)
    assert spaces() == fast
    assert [S.dim for S in fast] == [14, 15, 15]


# Over GF(p) the same stepped eliminator runs with mod-p arithmetic and no
# packed check; what it returns and every row read must stay those of the
# eager elimination (oracles.ReferencePrimeEchelon) residue for residue.

def _prime_row_stream(data, p, width):
    """Rows of one width over GF(p), as ints that are not residues: fresh
    rows of entries in [-3p, 3p], zero rows, nonzero rows of multiples of p
    (zero mod p) and mostly combinations of earlier rows, some of them
    shifted by multiples of p."""
    entry = st.integers(-3 * p, 3 * p)
    fresh = st.lists(entry, min_size=width, max_size=width)
    rows = []
    for _ in range(data.draw(st.integers(1, 40), label="length")):
        kind = data.draw(st.sampled_from(["fresh", "zero", "multiple"] + ["combination"] * 4))
        if kind == "fresh" or not rows:
            rows.append(data.draw(fresh))
        elif kind == "zero":
            rows.append([0] * width)
        elif kind == "multiple":
            rows.append([p * v for v in data.draw(fresh)])
        else:
            picks = data.draw(st.lists(st.sampled_from(range(len(rows))), min_size=1, max_size=4))
            row = [0] * width
            for i in picks:
                c = data.draw(entry)
                row = [x + c * y for x, y in zip(row, rows[i])]
            if data.draw(st.booleans()):
                row = [v + p * w for v, w in zip(row, data.draw(fresh))]
            rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gfp_eliminator_reduces_on_read_as_eager_reduction(data):
    """Between reads the GF(p) eliminator's rows stay stepped: add's return
    values, and the RREF rows and pivot columns read at any point, are
    those of eager reduction, over GF(2), GF(3) and GF(65521)."""
    F = GF(data.draw(st.sampled_from([2, 3, 65521]), label="p"))
    width = data.draw(st.sampled_from([1, 1, 2, 3, 4, 5, 6, 8]), label="width")
    rows = _prime_row_stream(data, F.p, width)
    reads = data.draw(st.sets(st.sampled_from(range(len(rows)))), label="reads")
    acc, ref = linalg.echelon(F, width), ReferencePrimeEchelon(F, width)
    for k, row in enumerate(rows):
        copy = list(row)
        assert acc.add(row) == ref.add(row)
        assert row == copy
        if k in reads:
            assert acc.rref_ints() == ref.rref_ints()
            assert acc.pivot_columns() == ref.pivot_columns()
    assert acc.rref_ints() == ref.rref_ints()
    assert acc.pivot_columns() == ref.pivot_columns()


@pytest.mark.parametrize("dense", [False, True])
def test_gf3_zorn_spaces_equal_the_eager_eliminator(dense, monkeypatch):
    A = catalog("zorn", GF(3))
    if dense:
        A = dense_rebase(A, 3, 1)

    def spaces():
        return [derivation_space(A).space, lie_n_derivation_space(A, 2).space,
                lie_n_derivation_space(A, 3).space]

    fast = spaces()
    monkeypatch.setattr(linalg, "_PrimeEchelon", ReferencePrimeEchelon)
    assert spaces() == fast
    assert [S.dim for S in fast] == [14, 15, 15]
