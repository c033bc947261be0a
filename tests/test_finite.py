import itertools
import random
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from altrings.algebra import BudgetError, LinearMap
from altrings.catalog import catalog
from altrings.fields import GF, QQ, FieldError
from altrings.linalg import Matrix
from altrings.finite import (
    FiniteRing,
    MapTable,
    almost_additivity_defect,
    construct_converse_example,
    nested_value_set,
    pruned_exhaustive_search,
    verify_lie_n_identity,
)
from altrings.lietype import lie_leibniz_residual
from altrings.peirce import peirce_context
from altrings.verdict import Verdict
from oracles import ad


@pytest.fixture(scope="module")
def ring2():
    return FiniteRing(catalog("mat2", GF(2)))


@pytest.fixture(scope="module")
def ring3():
    return FiniteRing(catalog("mat2", GF(3)))


def test_ring_tables(ring2):
    A = ring2.algebra
    assert ring2.size == 16
    assert ring2.elements[0] == (0, 0, 0, 0)
    assert ring2.elements[1] == (1, 0, 0, 0)  # coordinate 0 varies fastest
    i = ring2.index[(1, 0, 0, 0)]
    j = ring2.index[(0, 1, 0, 0)]
    assert ring2.commutator(i, j) == j
    assert ring2.add(i, i) == 0  # char 2


def test_ring_requires_finite_field():
    with pytest.raises(FieldError):
        FiniteRing(catalog("mat2", QQ))
    with pytest.raises(BudgetError):
        FiniteRing(catalog("zorn", GF(5)), budget=1000)


def test_ring_central_indices(ring2):
    # center of M2(GF(2)) is {0, I}
    central = {ring2.elements[i] for i in ring2.central}
    assert central == {(0, 0, 0, 0), (1, 0, 0, 1)}


def test_map_table_validation(ring2):
    with pytest.raises(ValueError):
        MapTable(ring2, [0] * 15)
    with pytest.raises(ValueError):
        MapTable(ring2, [99] + [0] * 15)
    T = MapTable.identity(ring2)
    assert T.values[5] == 5
    x = ring2.element(3)
    assert T(x) == x


def test_identity_table_fails_char2_with_frozen_witness(ring2):
    """Doubling kills the slot terms in char 2, so the identity map fails."""
    A = ring2.algebra
    T = MapTable.identity(ring2)
    rep = verify_lie_n_identity(A, T, 2)
    assert rep.status is Verdict.FAILS and rep.mode == "exhaustive"
    assert rep.witness == ((1, 0, 0, 0), (0, 1, 0, 0))  # (E11, E12)
    assert rep.residual == (0, 1, 0, 0)  # E12
    assert not rep.ok


def test_linear_derivation_tables_pass(ring2, ring3):
    for ring in (ring2, ring3):
        A = ring.algebra
        T = MapTable.from_linear_map(ring, ad(A, 0))
        rep = verify_lie_n_identity(A, T, 2)
        assert rep.ok and rep.mode == "exhaustive"
        assert T.values[0] == 0  # D(0) = 0 for every verified table
        assert T.is_additive()


def test_table_agrees_with_elementwise_residual(ring2):
    A = ring2.algebra
    T = MapTable.from_linear_map(ring2, ad(A, 1))
    for i in (1, 2, 5, 7):
        for j in (0, 3, 4, 9):
            xs = [ring2.element(i), ring2.element(j)]
            assert lie_leibniz_residual(A, T, xs).is_zero()


def test_sampled_mode_is_three_valued(ring3):
    A = ring3.algebra
    T = MapTable.from_linear_map(ring3, ad(A, 0))
    rep = verify_lie_n_identity(A, T, 2, budget=100, samples=50, seed=4)
    assert rep.status is Verdict.UNDECIDED and rep.mode == "sampled"
    bad = MapTable.identity(FiniteRing(catalog("mat2", GF(2))))
    rep = verify_lie_n_identity(bad.ring.algebra, bad, 2, budget=10, samples=400)
    assert rep.status is Verdict.FAILS and rep.mode == "sampled"


def test_almost_additivity_linear_and_swapped(ring2):
    A = ring2.algebra
    T = MapTable.from_linear_map(ring2, ad(A, 2))
    assert almost_additivity_defect(A, T).all_central

    # swapping two non-central values of the identity table breaks it
    i = ring2.index[(1, 0, 0, 0)]
    j = ring2.index[(0, 1, 0, 0)]
    values = list(range(ring2.size))
    values[i], values[j] = values[j], values[i]
    rep = almost_additivity_defect(A, MapTable(ring2, values))
    assert not rep.all_central
    assert rep.witness is not None
    with pytest.raises(BudgetError):
        almost_additivity_defect(A, T, budget=10)



def _direct_defect(ring, values):
    """(all_central, checked) of a direct scan of the pairs a <= b; both
    rings below are associative, so their center is the set of elements
    commuting with every element."""
    A = ring.algebra
    S = ring.size
    central = {i for i, z in enumerate(ring.elements)
               if all(A.mul_coords(z, e) == A.mul_coords(e, z) for e in ring.elements)}
    checked = 0
    for a in range(S):
        for b in range(a, S):
            checked += 1
            defect = ring.sub(values[ring.add(a, b)], ring.add(values[a], values[b]))
            if defect not in central:
                return False, checked
    return True, checked


def test_almost_additivity_report_matches_direct_pair_scan(ring3):
    # product2/GF(3) is its own center, so every table is almost additive in
    # S(S + 1)/2 = 45 pairs; mat2/GF(3)'s center is its 3 scalars
    product2 = FiniteRing(catalog("product2", GF(3)))
    assert len(product2.central) == product2.size
    rng = random.Random(5)
    cases = [(product2, [rng.randrange(9) for _ in range(9)]) for _ in range(4)]
    ctx = peirce_context(ring3.algebra, ring3.algebra.idempotent)
    converse = construct_converse_example(ctx, ad(ring3.algebra, 0), 2, seed=1)
    cases += [(ring3, converse.values), (ring3, list(range(81))),
              (ring3, [rng.randrange(81) for _ in range(81)])]
    for ring, values in cases:
        rep = almost_additivity_defect(ring.algebra, MapTable(ring, values))
        assert (rep.all_central, rep.checked) == _direct_defect(ring, values)
    assert _direct_defect(product2, cases[0][1]) == (True, 45)
    assert not _direct_defect(ring3, cases[-1][1])[0]
    assert _direct_defect(ring3, converse.values) == (True, 81 * 82 // 2)


def test_nested_value_set_mat2_gf3(ring3):
    P = nested_value_set(ring3, 2)
    # the commutator values of M2 are exactly the trace-zero matrices
    assert len(P) == 27
    A = ring3.algebra
    F = A.field
    for idx in P:
        a, _, _, d = ring3.elements[idx]
        assert F.is_zero(F.add(a, d))


def test_converse_example_full_contract(ring3):
    A = ring3.algebra
    ctx = peirce_context(A, A.idempotent)
    delta = ad(A, 0)
    non_additive_seen = False
    for seed in range(10):
        T = construct_converse_example(ctx, delta, 2, seed=seed)
        assert verify_lie_n_identity(A, T, 2).ok
        assert almost_additivity_defect(A, T).all_central
        assert T.values[0] == 0
        if not T.is_additive():
            non_additive_seen = True
    assert non_additive_seen


def test_converse_example_seed_invariant_verdicts(ring3):
    A = ring3.algebra
    ctx = peirce_context(A, A.idempotent)
    delta = ad(A, 0)
    t0 = construct_converse_example(ctx, delta, 2, seed=0)
    t1 = construct_converse_example(ctx, delta, 2, seed=1)
    assert t0.values != t1.values  # tau differs off the value set
    P = nested_value_set(ring3, 2)
    for idx in P:  # but agrees on it
        assert t0.values[idx] == t1.values[idx]


def test_converse_example_rejects_non_derivation(ring3):
    A = ring3.algebra
    ctx = peirce_context(A, A.idempotent)
    with pytest.raises(ValueError):
        construct_converse_example(ctx, LinearMap.identity(A), 2)
    with pytest.raises(ValueError):
        construct_converse_example(ctx, ad(A, 0), 5)


def test_converse_example_on_scalar_ring():
    # GF(2) scalars: p_2 values are {0}, the center is everything, so tau
    # is free on the nonzero element
    from altrings.algebra import Algebra

    R = Algebra(GF(2), 1, {(0, 0, 0): 1}, unit=(1,))

    class Ctx:  # the scalar ring has no nontrivial idempotent
        algebra = R

    T = construct_converse_example(Ctx(), LinearMap.zero(R), 2, seed=3)
    assert verify_lie_n_identity(R, T, 2).ok


def test_converse_example_no_freedom_warns(ring3, monkeypatch):
    # force the no-freedom branch: pretend the value set covers the ring
    import altrings.finite as fin

    A = ring3.algebra
    ctx = peirce_context(A, A.idempotent)
    monkeypatch.setattr(
        fin, "nested_value_set", lambda ring, n, budget=10 ** 7: frozenset(range(ring.size))
    )
    with pytest.warns(UserWarning, match="forced to zero"):
        T = fin.construct_converse_example(ctx, ad(A, 0), 2, seed=0)
    assert T.is_additive()  # tau = 0 leaves the linear delta table


def test_pruned_search_scalar_gf2():
    from altrings.algebra import Algebra

    R = Algebra(GF(2), 1, {(0, 0, 0): 1}, unit=(1,))
    rep = pruned_exhaustive_search(R, 2)
    assert rep.total == 4
    assert rep.complete and rep.covered == 4
    assert rep.leaves == 2  # T(0) = 0 forced, T(1) free
    assert rep.tally == {(True, True): 2}


def test_pruned_search_product_ring():
    A = catalog("product2", GF(2))
    rep = pruned_exhaustive_search(A, 2)
    assert rep.total == 256
    assert rep.complete
    assert rep.leaves == 64
    assert rep.tally[(True, True)] == 64
    assert (True, False) not in rep.tally


def test_pruned_search_budget_paths():
    A = catalog("product2", GF(2))
    rep = pruned_exhaustive_search(A, 2, budget=0)
    assert rep.leaves == 0 and rep.covered == 0
    # 64 identity instances, then 36 of the 124 orbit nodes a full search takes
    tri2 = catalog("tri2", GF(2))
    partial = pruned_exhaustive_search(tri2, 2, budget=100)
    assert not partial.complete
    assert 0 < partial.covered < partial.total
    assert (partial.instances, partial.nodes) == (64, 36)
    assert not pruned_exhaustive_search(tri2, 2, budget=64 + 123).complete
    assert pruned_exhaustive_search(tri2, 2, budget=64 + 124).complete


def test_pruned_search_budget_bounds_the_constraint_table():
    """8^7 identity instances at n = 7; the budget stops the filing."""
    A = catalog("tri2", GF(2))
    start = time.perf_counter()
    rep = pruned_exhaustive_search(A, 7, budget=10)
    assert time.perf_counter() - start < 1.0
    assert not rep.complete
    assert (rep.instances, rep.nodes, rep.leaves, rep.covered) == (10, 0, 0, 0)


@pytest.mark.parametrize("n", [0, 1])
def test_pruned_search_validates_n_first(n):
    # zorn/GF(2) has 256 elements, past the ring budget: no ring is built
    for A in (catalog("product2", GF(2)), catalog("zorn", GF(2))):
        with pytest.raises(ValueError, match="n >= 2"):
            pruned_exhaustive_search(A, n)


def test_pruned_search_product2_gf3_completes_in_closed_form():
    """Every instance reads only T(0) on a commutative ring, and Z = R: P_2
    is {0}, every other position has the one class representative 0, and
    the one orbit counts 9^8 tables in closed form."""
    rep = pruned_exhaustive_search(catalog("product2", GF(3)), 2)
    assert rep.complete and rep.covered == rep.total == 9 ** 9
    assert (rep.instances, rep.nodes) == (81, 17)
    assert rep.leaves == 9 ** 8
    assert rep.tally == {(True, True): 9 ** 8}
    assert [tuple(s) for s in rep.summaries] == [((0,) * 9, True, True)]


def test_pruned_search_tri2_frozen():
    """Z != R: |Z| = 2 and P_2 holds 2 of the 8 elements, so each of the
    4 orbit leaves stands for 2^6 tables."""
    rep = pruned_exhaustive_search(catalog("tri2", GF(2)), 2)
    assert rep.complete
    assert (rep.instances, rep.nodes, rep.leaves) == (64, 124, 256)
    assert rep.tally == {(True, True): 256}


def test_search_rechecks_summaries_on_value_lists(monkeypatch):
    """The default search on product2 over GF(3) re-checks its one orbit
    leaf by one class walk on the value list it built, with no table or
    report object; verify_lie_n_identity runs the same walk."""
    import altrings.finite as fin

    A = catalog("product2", GF(3))
    T = MapTable(FiniteRing(A), [0] * 9)
    built, walks = Counter(), []
    monkeypatch.setattr(fin.MapTable, "__init__",
                        lambda self, *args, _init=fin.MapTable.__init__:
                        built.update(["MapTable"]) or _init(self, *args))
    for cls in (fin.LieIdentityReport, fin.AdditivityReport):
        monkeypatch.setattr(cls, "__new__",
                            lambda cls, *args, _new=cls.__new__, **kwargs:
                            built.update([cls.__name__]) or _new(cls, *args, **kwargs))
    walk = fin._first_violation
    monkeypatch.setattr(fin, "_first_violation",
                        lambda *args: walks.append(tuple(args[1])) or walk(*args))
    rep = pruned_exhaustive_search(A, 2)
    assert len(rep.summaries) == 1 and rep.complete
    assert not built
    assert walks == [s.values for s in rep.summaries]
    assert verify_lie_n_identity(A, T, 2).ok
    assert len(walks) == 2 and walks[-1] == T.values
    assert built == {"LieIdentityReport": 1}


def test_verified_tables_almost_additive_on_good_rings(ring2):
    """Desk-scale version of the almost-additivity theorem."""
    from altrings.peirce import check_offdiag_commutant

    A = ring2.algebra
    ctx = peirce_context(A, A.idempotent)
    assert check_offdiag_commutant(ctx, "12").contained_in_center
    assert check_offdiag_commutant(ctx, "21").contained_in_center
    candidates = [
        MapTable.from_linear_map(ring2, ad(A, i)) for i in range(4)
    ]
    candidates.append(construct_converse_example(ctx, ad(A, 0), 2, seed=2))
    for T in candidates:
        if verify_lie_n_identity(A, T, 2).ok:
            assert almost_additivity_defect(A, T).all_central


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_table_call_matches_index_application(a, b):
    ring = FiniteRing(catalog("mat2", GF(2)))
    A = ring.algebra
    T = MapTable.from_linear_map(ring, ad(A, 1))
    x = ring.element(a)
    y = ring.element(b)
    assert T(x + y).coords == ring.elements[T.values[ring.add(a, b)]]


# ---------------------------------------------------------------------------
# Differential tests against an independent oracle: per-coordinate
# arithmetic straight from arbitrary (not necessarily alternative) bilinear
# structure constants, element k <-> base-p digits of k, and the identity
# checked per tuple by rebuilding every slot term.

class Oracle:
    def __init__(self, p, d, consts):
        self.p, self.d = p, d
        self.c = {key: v % p for key, v in consts.items()}
        self.S = p ** d
        S = self.S
        self.add_t = [[self.idx(self.add_c(self.co(i), self.co(j))) for j in range(S)]
                      for i in range(S)]
        self.neg_t = [self.idx(tuple(-a % p for a in self.co(i))) for i in range(S)]
        self.mul_t = [[self.idx(self.mul_c(self.co(i), self.co(j))) for j in range(S)]
                      for i in range(S)]
        self.comm_t = [[self.add_t[self.mul_t[i][j]][self.neg_t[self.mul_t[j][i]]]
                        for j in range(S)] for i in range(S)]
        self.center = {z for z in range(S) if not any(self.comm_t[z])}

    def co(self, k):
        return tuple((k // self.p ** t) % self.p for t in range(self.d))

    def idx(self, coords):
        return sum(a * self.p ** t for t, a in enumerate(coords))

    def add_c(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def mul_c(self, x, y):
        out = [0] * self.d
        for (i, j, k), c in self.c.items():
            out[k] += x[i] * y[j] * c
        return tuple(v % self.p for v in out)

    def sub(self, i, j):
        return self.add_t[i][self.neg_t[j]]

    def nested(self, xs):
        acc = xs[0]
        for x in xs[1:]:
            acc = self.comm_t[acc][x]
        return acc

    def residual(self, T, xs):
        """T(p(xs)) - sum_t p(..., T(x_t), ...), each slot term rebuilt."""
        rhs = 0
        for t in range(len(xs)):
            slot = list(xs)
            slot[t] = T[xs[t]]
            rhs = self.add_t[rhs][self.nested(slot)]
        return self.sub(T[self.nested(xs)], rhs)

    def verify(self, T, n, budget=10 ** 7, samples=2000, seed=0):
        """(status, mode, checked, witness, residual) as coordinate tuples."""
        S = self.S
        if S ** n <= budget:
            mode, tuples = "exhaustive", itertools.product(range(S), repeat=n)
        else:
            rng = random.Random(seed)
            mode = "sampled"
            tuples = (tuple(rng.randrange(S) for _ in range(n)) for _ in range(samples))
        checked = 0
        for xs in tuples:
            checked += 1
            res = self.residual(T, xs)
            if res:
                return ("fails", mode, checked,
                        tuple(self.co(x) for x in xs), self.co(res))
        return ("holds" if mode == "exhaustive" else "undecided", mode, checked, None, None)

    def value_set(self, n):
        return {self.nested(xs) for xs in itertools.product(range(self.S), repeat=n)}

    def defect(self, T):
        checked = 0
        for a in range(self.S):
            for b in range(a, self.S):
                checked += 1
                dft = self.sub(T[self.add_t[a][b]], self.add_t[T[a]][T[b]])
                if dft not in self.center:
                    return False, checked, (self.co(a), self.co(b), self.co(dft))
        return True, checked, None

    def additive(self, T):
        S = self.S
        return all(T[self.add_t[a][b]] == self.add_t[T[a]][T[b]]
                   for a in range(S) for b in range(S))

    def linear_table(self, M):
        """Values of the linear map with matrix M (column j = image of e_j)."""
        return [self.idx(tuple(sum(M[r][j] * x[j] for j in range(self.d)) % self.p
                               for r in range(self.d)))
                for x in map(self.co, range(self.S))]


@st.composite
def small_rings(draw, shapes=((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                              (3, 3), (5, 1), (5, 2))):
    p, d = draw(st.sampled_from(shapes))
    index = st.tuples(*[st.integers(0, d - 1)] * 3)
    consts = draw(st.dictionaries(index, st.integers(-2 * p, 2 * p), max_size=2 * d * d))
    return p, d, consts


def build(case):
    from altrings.algebra import Algebra

    p, d, consts = case
    return Algebra(GF(p), d, consts), Oracle(p, d, consts)


def tables(A, orc, rng, n):
    """A random table with T(0) = 0, a delta + tau table (tau central, zero
    on p_n values) and that table with one entry changed."""
    from altrings.lietype import derivation_space

    S = orc.S
    out = [[0] + [rng.randrange(S) for _ in range(S - 1)]]
    ders = derivation_space(A).maps()
    M = [[0] * orc.d for _ in range(orc.d)]
    for D in ders:
        k = rng.randrange(orc.p)
        M = [[(a + k * b) % orc.p for a, b in zip(r, row)]
             for r, row in zip(M, D.matrix.rows)]
    delta = orc.linear_table(M)
    values = orc.value_set(n)
    central = sorted(orc.center)
    good = [orc.add_t[v][central[rng.randrange(len(central))] if i not in values else 0]
            for i, v in enumerate(delta)]
    out.append(good)
    bent = list(good)
    bent[rng.randrange(S)] = rng.randrange(S)
    out.append(bent)
    return out


def report_tuple(rep):
    return (rep.status.value, rep.mode, rep.checked, rep.witness, rep.residual)


@settings(max_examples=40, deadline=None)
@given(small_rings())
def test_ring_ops_and_rows_match_coordinate_arithmetic(case):
    A, orc = build(case)
    ring = FiniteRing(A)
    S = orc.S
    assert ring.elements == tuple(orc.co(k) for k in range(S))

    for i in range(S):
        assert ring.neg(i) == orc.neg_t[i]
        for j in range(S):
            assert ring.add(i, j) == orc.add_t[i][j]
            assert ring.sub(i, j) == orc.sub(i, j)
            assert ring.commutator(i, j) == orc.comm_t[i][j]
    assert not ring.add_rows and not ring.comm_rows  # point ops build no rows
    assert ring.negatives == orc.neg_t
    for i in range(S):
        assert ring.add_rows[i] == orc.add_t[i]
        assert ring.comm_rows[i] == orc.comm_t[i]


@settings(max_examples=30, deadline=None)
@given(small_rings(), st.integers(0, 2 ** 16), st.sampled_from([2, 3, 4, 5]))
def test_verify_matches_per_tuple_reference(case, seed, n):
    """Also checks the exhaustive walk's memo of passed (p_k, acc_k) states
    and its stack down to depth 5: on the bent tables the first violation
    can lie behind nodes that the memo skipped."""
    A, orc = build(case)
    while orc.S ** n > 20000:
        n -= 1
    ring = FiniteRing(A)
    rng = random.Random(seed)
    for k, values in enumerate(tables(A, orc, rng, n)):
        T = MapTable(ring, values)
        expected = orc.verify(values, n)
        assert report_tuple(verify_lie_n_identity(A, T, n)) == expected
        if k == 1:  # delta + tau
            assert expected == ("holds", "exhaustive", orc.S ** n, None, None)
        sampled = verify_lie_n_identity(A, T, n, budget=0, samples=60, seed=seed)
        assert report_tuple(sampled) == orc.verify(values, n, budget=0, samples=60, seed=seed)


class _CountingRows:
    """Stands in for a row table and counts the rows read through it."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.rows[i]


def test_passed_states_skip_subtrees():
    """On delta + tau, acc_k = delta(p_k): the n = 3 scan of M2(GF(3))
    meets 27 leaf states, where a per-tuple walk reads two commutator rows
    per step, 2 * 81^3 in all.  The report still counts every tuple."""
    A = catalog("mat2", GF(3))
    ctx = peirce_context(A, A.idempotent)
    T = construct_converse_example(ctx, ad(A, 1), 3, seed=5)
    counting = T.ring.comm_rows = _CountingRows(T.ring.comm_rows)
    rep = verify_lie_n_identity(A, T, 3)
    assert report_tuple(rep) == ("holds", "exhaustive", 81 ** 3, None, None)
    assert 0 < counting.reads < 2 * 81 ** 3 // 10


def test_class_keyed_walk_reads_one_row_per_class():
    """[x + z, y] = [x, y]: on delta + tau over M2(GF(3)) (centre: the 3
    scalars) the n = 2 scan meets the 27 classes of x0, one leaf row each,
    and on product2, its own centre, a single class.  Each leaf row reads
    two commutator rows; all rows are built before counting."""
    for name, classes in (("mat2", 27), ("product2", 1)):
        A = catalog(name, GF(3))
        T = construct_converse_example(peirce_context(A, A.idempotent), ad(A, 0), 2, seed=1)
        ring = T.ring
        rows = [ring.comm_rows[i] for i in range(ring.size)]
        assert len({id(row) for row in rows}) == classes
        counting = ring.comm_rows = _CountingRows(ring.comm_rows)
        rep = verify_lie_n_identity(A, T, 2)
        assert report_tuple(rep) == ("holds", "exhaustive", ring.size ** 2, None, None)
        assert counting.reads == 2 * classes


def test_passed_states_are_keyed_by_both_classes():
    """The class of p_k alone does not decide a subtree: on e0 e1 = e0 over
    GF(2) (centre 0) the first violation of this table at n = 4, tuple 103
    of 256, lies below a node whose p_k already passed with another acc_k."""
    A, orc = build((2, 2, {(0, 1, 0): 1}))
    values = [0, 3, 3, 0]
    rep = verify_lie_n_identity(A, MapTable(FiniteRing(A), values), 4)
    assert report_tuple(rep) == orc.verify(values, 4)
    assert rep.checked == 103


def test_passed_states_are_kept_per_depth():
    """A state that held with one slot left can fail with two, and the other
    way round.  The first violation here (tuple 9,239 of 16^4) lies below a
    node whose state already passed at another depth, so one memo shared by
    all depths would skip it."""
    consts = {(0, 0, 2): 1, (2, 1, 0): 1, (2, 1, 2): 1, (3, 2, 0): 1, (1, 1, 1): 1,
              (1, 3, 1): 1, (3, 3, 3): 1, (1, 3, 3): 1, (2, 0, 3): 1}
    A, orc = build((2, 4, consts))
    values = [0] * 16
    values[11] = 1
    rep = verify_lie_n_identity(A, MapTable(FiniteRing(A), values), 4)
    assert report_tuple(rep) == orc.verify(values, 4)
    assert rep.checked == 9239


@settings(max_examples=40, deadline=None)
@given(small_rings())
def test_class_table_matches_reference_centre(case):
    """reps[i] == reps[j] exactly when x_i - x_j is central; reps picks one
    member of each class, 0 for the centre, and the class shares its row."""
    A, orc = build(case)
    ring = FiniteRing(A)
    reps = ring.reps
    assert reps[0] == 0
    assert [reps[r] for r in reps] == reps
    for i in range(orc.S):
        assert ring.comm_rows[i] is ring.comm_rows[reps[i]]
        for j in range(orc.S):
            assert (reps[i] == reps[j]) is (orc.sub(i, j) in orc.center)
    assert set(ring.central) == orc.center


@settings(max_examples=30, deadline=None)
@given(small_rings(), st.integers(0, 2 ** 16))
def test_value_set_defect_and_additivity_match_reference(case, seed):
    A, orc = build(case)
    ring = FiniteRing(A)
    assert set(ring.central) == orc.center
    for n in (2, 3):
        if orc.S ** n <= 20000:
            assert nested_value_set(ring, n) == orc.value_set(n)
    rng = random.Random(seed)
    M = [[rng.randrange(orc.p) for _ in range(orc.d)] for _ in range(orc.d)]
    for values in tables(A, orc, rng, 2) + [orc.linear_table(M)]:
        T = MapTable(ring, values)
        rep = almost_additivity_defect(A, T)
        assert (rep.all_central, rep.checked, rep.witness) == orc.defect(values)
        assert T.is_additive() is orc.additive(values)


@settings(max_examples=20, deadline=None)
@given(small_rings(), st.integers(0, 2 ** 16))
def test_from_linear_map_matches_reference(case, seed):
    A, orc = build(case)
    rng = random.Random(seed)
    rows = [[rng.randrange(orc.p) for _ in range(orc.d)] for _ in range(orc.d)]
    D = LinearMap(A, Matrix(A.field, rows))
    assert list(MapTable.from_linear_map(FiniteRing(A), D).values) == orc.linear_table(rows)


def test_sampled_verify_builds_no_rows(monkeypatch):
    built = []
    for name in ("_add_row", "_comm_row", "_linear_row", "_digitwise"):
        original = getattr(FiniteRing, name)

        def spy(self, *args, _original=original, _name=name):
            built.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(FiniteRing, name, spy)
    A = catalog("zorn", GF(3))
    ring = FiniteRing(A)
    D = ad(A, 1)
    values = [ring.index[D.apply_coords(x)] for x in ring.elements]
    statuses = []
    for T in (MapTable(ring, [0] * ring.size), MapTable(ring, values),
              MapTable.identity(ring)):  # T(p) = p but the slots sum to 2p
        rep = verify_lie_n_identity(A, T, 2)
        assert rep.mode == "sampled"
        statuses.append(rep.status)
    assert statuses == [Verdict.UNDECIDED, Verdict.UNDECIDED, Verdict.FAILS]
    assert rep.residual != (0,) * 8
    assert built == []
    assert not ring.add_rows and not ring.comm_rows and ring._negatives is None


@pytest.mark.parametrize("n", [2, 3])
def test_tri2_summaries_match_reference(n):
    """Each re-checked orbit representative of tri2 over GF(2) (S = 8,
    centre of 2 elements) agrees with the per-tuple identity check and the
    pair-by-pair defect scan of the oracle."""
    A = catalog("tri2", GF(2))
    # basis E11, E12, E22: E11 E11 = E11, E11 E12 = E12, E12 E22 = E12, E22 E22 = E22
    orc = Oracle(2, 3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1})
    ring = FiniteRing(A)
    assert [ring.comm_rows[i] for i in range(8)] == orc.comm_t
    rep = pruned_exhaustive_search(A, n)
    assert len(rep.summaries) == {2: 4, 3: 8}[n]
    for s in rep.summaries:
        assert (s.lie_ok, s.additive_ok) == (
            orc.verify(s.values, n)[0] == "holds", orc.defect(s.values)[0])


@settings(max_examples=40, deadline=None)
@given(small_rings(shapes=((2, 1), (2, 2), (3, 1))), st.sampled_from([2, 3]),
       st.integers(0, 40))
def test_pruned_search_matches_full_enumeration(case, n, max_summaries):
    """All S^S tables (S <= 4) checked by the oracle: the search's tally
    and leaves agree, whatever it filed or counted, and its first summaries
    are the first leaves whose entries off P_n are class representatives
    (the class table is checked against the oracle's centre above)."""
    A, orc = build(case)
    S = orc.S
    leaves = [(values, True, orc.defect(values)[0])
              for values in itertools.product(range(S), repeat=S)
              if orc.verify(values, n)[0] == "holds"]
    rep = pruned_exhaustive_search(A, n, max_summaries=max_summaries)
    assert rep.complete and rep.covered == rep.total == S ** S
    assert rep.leaves == len(leaves)
    assert rep.tally == Counter((lie, additive) for _, lie, additive in leaves)
    P, reps = orc.value_set(n), set(FiniteRing(A).reps)
    orbit_reps = [leaf for leaf in leaves
                  if all(v in reps for i, v in enumerate(leaf[0]) if i not in P)]
    assert [(s.values, s.lie_ok, s.additive_ok)
            for s in rep.summaries] == orbit_reps[:max_summaries]


@settings(max_examples=30, deadline=None)
@given(small_rings(), st.integers(0, 2 ** 16), st.sampled_from([2, 3]))
def test_central_shift_off_value_set_keeps_verdicts(case, seed, n):
    """The lemma behind the search's orbits, on the oracle alone: for any
    tau into the centre with tau(P_n) = 0, T and T + tau get the same
    identity report and the same defect verdict, at the same pair."""
    A, orc = build(case)
    while orc.S ** n > 20000:
        n -= 1
    rng = random.Random(seed)
    P, central = orc.value_set(n), sorted(orc.center)
    for values in tables(A, orc, rng, n):
        shifted = [v if i in P else orc.add_t[v][rng.choice(central)]
                   for i, v in enumerate(values)]
        assert orc.verify(shifted, n) == orc.verify(values, n)
        ok, checked, witness = orc.defect(values)
        shifted_ok, shifted_checked, shifted_witness = orc.defect(shifted)
        assert (shifted_ok, shifted_checked) == (ok, checked)
        assert (shifted_witness and shifted_witness[:2]) == (witness and witness[:2])


E012 = (2, 3, {(0, 1, 2): 1})  # e0 e1 = e2: no unit and no idempotent
NIL4 = (2, 4, {(0, 1, 2): 1, (0, 2, 3): 1})  # e0 e1 = e2, e0 e2 = e3


@pytest.mark.parametrize("case, values, members", [
    (E012, {0, 4}, None),  # P_2 = {0, e2}
    (NIL4, {0, 4, 8, 12}, 16),  # P_2 = span(e2, e3)
], ids=["e0e1=e2", "nil4"])
def test_search_orbits_match_reference(case, values, members):
    """With P_n and Z from the oracle, the n = 2 search has exactly
    leaves / |Z|^(S - |P_n|) summaries, one per orbit, and every member of
    each orbit (on nil4 a seeded sample of 16 per orbit, of 4,096) satisfies
    the identity with its summary's defect verdict.  Some members are not
    additive."""
    A, orc = build(case)
    P, central = orc.value_set(2), sorted(orc.center)
    assert P == values and len(central) == 2
    free = [i for i in range(orc.S) if i not in P]
    rep = pruned_exhaustive_search(A, 2)
    assert rep.complete
    assert len(rep.summaries) * len(central) ** len(free) == rep.leaves
    rng = random.Random(0)
    non_additive = 0
    for s in rep.summaries:
        taus = (itertools.product(central, repeat=len(free)) if members is None else
                [[rng.choice(central) for _ in free] for _ in range(members)])
        for tau in taus:
            member = list(s.values)
            for i, z in zip(free, tau):
                member[i] = orc.add_t[member[i]][z]
            assert orc.verify(member, 2)[0] == "holds"
            assert orc.defect(member)[0] is s.additive_ok
            non_additive += not orc.additive(member)
    assert non_additive


def test_search_completes_off_the_papers_hypotheses():
    """e0 e1 = e2 over GF(2) has no unit and no idempotent.  At n = 3 the
    search completes, and 2,088,960 of the tables that satisfy the
    identity have a non-central additivity defect: without the paper's
    hypotheses a Lie-3 derivation need not be almost additive."""
    A, orc = build(E012)
    rep = pruned_exhaustive_search(A, 3, max_summaries=2 ** 16)
    assert rep.complete and rep.covered == rep.total == 8 ** 8
    assert (rep.instances, rep.nodes) == (512, 21852)
    assert rep.tally == {(True, True): 8192, (True, False): 2088960}
    assert orc.value_set(3) == {0}
    assert len(rep.summaries) * len(orc.center) ** 7 == rep.leaves
    s = next(s for s in rep.summaries if not s.additive_ok)
    assert s.lie_ok and orc.verify(s.values, 3)[0] == "holds"
    assert not orc.defect(s.values)[0]
