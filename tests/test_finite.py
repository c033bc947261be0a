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
    assert T.apply_index(5) == 5
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
    # non-additive tables do appear among the leaves
    ring = FiniteRing(A)
    assert any(
        not MapTable(ring, s.values).is_additive() for s in rep.summaries
    )


def test_pruned_search_budget_paths():
    A = catalog("product2", GF(2))
    rep = pruned_exhaustive_search(A, 2, budget=0)
    assert rep.leaves == 0 and rep.covered == 0
    # 64 identity instances, then 136 of the 2,064 nodes a full search takes
    partial = pruned_exhaustive_search(catalog("tri2", GF(2)), 2, budget=200)
    assert not partial.complete
    assert 0 < partial.covered < partial.total
    assert (partial.instances, partial.nodes) == (64, 136)


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
    """Every instance reads only T(0) on a commutative ring, and Z = R: the
    8 positions after it are counted in closed form."""
    rep = pruned_exhaustive_search(catalog("product2", GF(3)), 2)
    assert rep.complete and rep.covered == rep.total == 9 ** 9
    assert (rep.instances, rep.nodes) == (81, 9)
    assert rep.leaves == 9 ** 8
    assert rep.tally == {(True, True): 9 ** 8}
    assert len(rep.summaries) == 256
    assert [s.values for s in rep.summaries] == [
        (0, 0, 0, 0, 0, 0) + tail for tail in itertools.product(range(9), repeat=3)
    ][:256]
    assert all(s.lie_ok and s.additive_ok for s in rep.summaries)


def test_pruned_search_tri2_frozen():
    """Z != R: the unread tail is enumerated and every leaf re-verified."""
    rep = pruned_exhaustive_search(catalog("tri2", GF(2)), 2)
    assert rep.complete
    assert (rep.instances, rep.nodes, rep.leaves) == (64, 2064, 256)
    assert rep.tally == {(True, True): 256}


def test_closed_form_summary_failing_reverification_raises(monkeypatch):
    import altrings.finite as fin

    monkeypatch.setattr(
        fin, "almost_additivity_defect",
        lambda A, T, budget=10 ** 7: fin.AdditivityReport(all_central=False, checked=0),
    )
    with pytest.raises(AssertionError, match="closed form"):
        pruned_exhaustive_search(catalog("product2", GF(2)), 2)


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
@given(small_rings(), st.integers(0, 2 ** 16), st.sampled_from([2, 3, 4]))
def test_verify_matches_per_tuple_reference(case, seed, n):
    """Also checks the exhaustive scan's memo of passed (p_k, acc_k) states
    down to depth 4: on the bent tables the first violation can lie behind
    nodes that the memo skipped."""
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


@settings(max_examples=40, deadline=None)
@given(small_rings(shapes=((2, 1), (2, 2), (3, 1))), st.sampled_from([2, 3]),
       st.integers(0, 40))
def test_pruned_search_matches_full_enumeration(case, n, max_summaries):
    """All S^S tables (S <= 4) checked by the oracle: the search's tally,
    leaves and first summaries agree, whatever it filed or counted."""
    A, orc = build(case)
    S = orc.S
    leaves = [(values, True, orc.defect(values)[0])
              for values in itertools.product(range(S), repeat=S)
              if orc.verify(values, n)[0] == "holds"]
    rep = pruned_exhaustive_search(A, n, max_summaries=max_summaries)
    assert rep.complete and rep.covered == rep.total == S ** S
    assert rep.leaves == len(leaves)
    assert rep.tally == Counter((lie, additive) for _, lie, additive in leaves)
    assert [(s.values, s.lie_ok, s.additive_ok)
            for s in rep.summaries] == leaves[:max_summaries]
