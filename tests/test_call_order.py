"""Verdicts do not depend on call order or on an algebra's memo.

A hypothesis state machine builds one algebra and interleaves the calls
that read or fill its memo (``is_prime``, ``find_unit``, and
``classify_identities`` and ``nucleus``, which share its associator table)
with the ones that derive fresh data from it (centre, derivations, the
Peirce conditions, ``decompose``).  Each call's report is compared by
value with the same call on a freshly built copy of the algebra.  The
small algebras (dimension at most 4, over Q, GF(2) and GF(3), with their
unit declared or left to be solved) take every call; Zorn only the cheap
ones.
"""

import warnings
from functools import partial

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from altrings.algebra import (Algebra, BudgetError, LinearMap, center, classify_identities,
                              find_unit, nucleus)
from altrings.catalog import _triples, catalog
from altrings.fields import GF, QQ
from altrings.lietype import DecompositionError, decompose, derivation_space
from altrings.linalg import Matrix
from altrings.peirce import PeirceError, check_conditions_1_to_4, is_prime, peirce_context

SMALL = [(name, F, declared)
         for name in ("product2", "tri2", "mat2")
         for F in (QQ, GF(2), GF(3))
         for declared in (True, False)]
ZORN = [("zorn", QQ, True), ("zorn", GF(2), True)]


def build(case) -> Algebra:
    """The catalog algebra of case, or its copy without the declared unit."""
    name, F, declared = case
    A = catalog(name, F)
    if declared:
        return A
    return Algebra(F, A.dim, _triples(A), idempotent=A.idempotent)


def outcome(call):
    """call()'s value, or the type and message of the error it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return "value", call()
        except (BudgetError, PeirceError, DecompositionError) as exc:
            return "raised", type(exc), str(exc)


def unit(A):
    u = find_unit(A)
    return None if u is None else u.coords


def derivations(A):
    return derivation_space(A).space


def conditions(A):
    return check_conditions_1_to_4(peirce_context(A, A.idempotent))


CHEAP = [classify_identities, center, nucleus, unit]
COSTLY = [derivations, conditions]  # small algebras only


# the seed, samples and budget values of is_prime: two each, so that calls
# whose memo keys differ in one argument only meet on one algebra
PRIME_VALUES = ([1, 2], [20, 30], [20, 2 ** 17])
PRIME_ARGS = st.tuples(*map(st.sampled_from, PRIME_VALUES))


class CallOrder(RuleBasedStateMachine):
    @initialize(case=st.sampled_from(SMALL + ZORN), args=PRIME_ARGS, change=st.integers(0, 2))
    def build_algebra(self, case, args, change):
        """Build the algebra and fill its memo with two primality reports."""
        self.case = case
        self.A = build(case)
        self.prime(args, change)

    def same_as_fresh(self, call):
        assert outcome(lambda: call(self.A)) == outcome(lambda: call(build(self.case)))

    def small(self):
        return self.A.dim <= 4

    @rule(args=PRIME_ARGS, change=st.integers(0, 2))
    def prime(self, args, change):
        """is_prime at args, then at args with argument `change` swapped for
        its other value."""
        values = PRIME_VALUES[change]
        other = list(args)
        other[change] = values[1 - values.index(args[change])]
        for seed, samples, budget in (args, other):
            self.same_as_fresh(partial(is_prime, budget=budget, samples=samples, seed=seed))

    @rule(data=st.data())
    def structure(self, data):
        calls = CHEAP + COSTLY if self.small() else CHEAP
        self.same_as_fresh(data.draw(st.sampled_from(calls)))

    @precondition(small)
    @rule(coeffs=st.lists(st.integers(-2, 2), max_size=4), shift=st.integers(0, 1))
    def split(self, coeffs, shift):
        """decompose D = (a derivation) + shift * identity."""
        der = derivation_space(self.A).space.basis
        F, d = self.A.field, self.A.dim
        flat = [F.zero] * (d * d)
        for c, row in zip(coeffs, der):
            flat = [F.add(x, F.mul(F.coerce(c), y)) for x, y in zip(flat, row)]
        for i in range(d):
            flat[i * d + i] = F.add(flat[i * d + i], F.coerce(shift))
        rows = [flat[r * d:(r + 1) * d] for r in range(d)]

        def split_of(A):
            dec = decompose(peirce_context(A, A.idempotent),
                            LinearMap(A, Matrix(F, rows)), 2)
            return dec.delta.matrix, dec.tau.matrix, dec.normalizer.matrix

        self.same_as_fresh(split_of)


CallOrder.TestCase.settings = settings(max_examples=100, stateful_step_count=10,
                                       deadline=None)
TestCallOrder = CallOrder.TestCase
