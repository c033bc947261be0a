"""Brute-force checks for arbitrary (non-additive) maps on small finite rings.

Maps are held as total value tables indexed by element number.  Elements
of a finite algebra are numbered in enumeration order (coordinate 0
fastest), so element k carries the base-p digits of k; all table
arithmetic happens on indices.  The identity under test is the nested-
commutator rule

    T(p(x1..xn)) = sum_t p(x1, ..., T(x_t), ..., xn)          (1)

quantified over ALL element tuples, not just basis tuples, since tables
need not be linear.
"""

from __future__ import annotations

import random
import warnings
from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from .algebra import (
    Algebra,
    AlgebraElement,
    BudgetError,
    LinearMap,
    center,
)
from .fields import FieldError
from .verdict import Verdict


class FiniteRing:
    """Index tables over a finite algebra: lazy add/mul rows, p_n, center."""

    def __init__(self, A: Algebra, budget: int = 2 ** 16):
        if not A.field.is_finite:
            raise FieldError("finite search needs a finite coefficient field")
        size = A.size()
        if size > budget:
            raise BudgetError(f"ring size {size} exceeds budget {budget}")
        self.algebra = A
        self.size = size
        self.elements = tuple(x.coords for x in A.elements())
        self.index = {coords: i for i, coords in enumerate(self.elements)}
        self._add: dict[tuple[int, int], int] = {}
        self._mul: dict[tuple[int, int], int] = {}
        self._neg: dict[int, int] = {}
        self._central: frozenset[int] | None = None

    def element(self, i: int) -> AlgebraElement:
        return AlgebraElement(self.algebra, self.elements[i])

    def add(self, i: int, j: int) -> int:
        key = (i, j)
        out = self._add.get(key)
        if out is None:
            F = self.algebra.field
            coords = tuple(
                F.add(a, b) for a, b in zip(self.elements[i], self.elements[j])
            )
            out = self.index[coords]
            self._add[key] = out
        return out

    def neg(self, i: int) -> int:
        out = self._neg.get(i)
        if out is None:
            F = self.algebra.field
            coords = tuple(F.neg(a) for a in self.elements[i])
            out = self.index[coords]
            self._neg[i] = out
        return out

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        out = self._mul.get(key)
        if out is None:
            coords = self.algebra.mul_coords(self.elements[i], self.elements[j])
            out = self.index[coords]
            self._mul[key] = out
        return out

    def commutator(self, i: int, j: int) -> int:
        return self.sub(self.mul(i, j), self.mul(j, i))

    def nested(self, indices) -> int:
        """p_n on element indices (left-nested)."""
        it = iter(indices)
        acc = next(it)
        for j in it:
            acc = self.commutator(acc, j)
        return acc

    @property
    def central(self) -> frozenset[int]:
        if self._central is None:
            Z = center(self.algebra)
            self._central = frozenset(
                self.index[tuple(v)] for v in Z.vectors()
            )
        return self._central


class MapTable:
    """A total, not necessarily additive, self-map of a finite ring."""

    __slots__ = ("ring", "values")

    def __init__(self, ring: FiniteRing, values):
        values = tuple(values)
        if len(values) != ring.size:
            raise ValueError(
                f"table has {len(values)} entries, ring has {ring.size} elements"
            )
        if any(not (0 <= v < ring.size) for v in values):
            raise ValueError("table value out of range")
        self.ring = ring
        self.values = values

    @classmethod
    def identity(cls, ring: FiniteRing) -> "MapTable":
        return cls(ring, range(ring.size))

    @classmethod
    def from_linear_map(cls, ring: FiniteRing, D: LinearMap) -> "MapTable":
        values = [
            ring.index[D.apply_coords(coords)] for coords in ring.elements
        ]
        return cls(ring, values)

    def apply_index(self, i: int) -> int:
        return self.values[i]

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.ring.element(self.values[self.ring.index[x.coords]])

    def is_additive(self) -> bool:
        ring = self.ring
        T = self.values
        for a in range(ring.size):
            for b in range(a, ring.size):
                if T[ring.add(a, b)] != ring.add(T[a], T[b]):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, MapTable)
            and self.ring is other.ring
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"MapTable(size={self.ring.size})"


@dataclass(frozen=True)
class LieIdentityReport:
    """Outcome of testing identity (1) on a value table."""

    status: Verdict
    mode: str  # "exhaustive" or "sampled"
    checked: int
    witness: tuple | None = None  # element coordinate tuples
    residual: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status is Verdict.HOLDS


def _tuple_residual(ring: FiniteRing, T, xs: tuple, prefixes: tuple) -> int:
    """Index of T(p(xs)) - sum_t p(..., T(x_t), ...); prefixes[k] = p_{k+1}."""
    n = len(xs)
    lhs = T[prefixes[-1]]
    rhs = 0  # index of zero element
    for t in range(n):
        acc = T[xs[t]] if t == 0 else ring.commutator(prefixes[t - 1], T[xs[t]])
        for s in range(t + 1, n):
            acc = ring.commutator(acc, xs[s])
        rhs = ring.add(rhs, acc)
    return ring.sub(lhs, rhs)


def verify_lie_n_identity(A: Algebra, T: MapTable, n: int,
                          budget: int = 10 ** 7, samples: int = 2000,
                          seed: int = 0) -> LieIdentityReport:
    """Test identity (1) at all element tuples, or a sample when too many.

    Exhaustive mode scans tuples in lexicographic element order (slot 1
    slowest) and reports the first violation; the sampled fallback can
    only refute, never confirm, so a clean sample is `undecided`.
    """
    if n < 2:
        raise ValueError("the identity needs n >= 2")
    ring = T.ring
    if ring.algebra is not A:
        raise ValueError("table belongs to a different algebra")
    S = ring.size
    values = T.values

    if S ** n <= budget:
        count = 0
        # depth-first over tuples, sharing nested-commutator prefixes
        stack_xs: list[int] = []
        stack_pv: list[int] = []

        def walk():
            nonlocal count
            depth = len(stack_xs)
            if depth == n:
                count += 1
                res = _tuple_residual(ring, values, tuple(stack_xs), tuple(stack_pv))
                if res != 0:
                    return res
                return None
            for x in range(S):
                stack_xs.append(x)
                stack_pv.append(
                    x if depth == 0 else ring.commutator(stack_pv[-1], x)
                )
                bad = walk()
                if bad is not None:
                    return bad
                stack_xs.pop()
                stack_pv.pop()
            return None

        res = walk()
        if res is not None:
            return LieIdentityReport(
                status=Verdict.FAILS,
                mode="exhaustive",
                checked=count,
                witness=tuple(ring.elements[x] for x in stack_xs),
                residual=ring.elements[res],
            )
        return LieIdentityReport(status=Verdict.HOLDS, mode="exhaustive", checked=count)

    rng = random.Random(seed)
    for trial in range(samples):
        xs = tuple(rng.randrange(S) for _ in range(n))
        prefixes = []
        for x in xs:
            prefixes.append(x if not prefixes else ring.commutator(prefixes[-1], x))
        res = _tuple_residual(ring, values, xs, tuple(prefixes))
        if res != 0:
            return LieIdentityReport(
                status=Verdict.FAILS,
                mode="sampled",
                checked=trial + 1,
                witness=tuple(ring.elements[x] for x in xs),
                residual=ring.elements[res],
            )
    return LieIdentityReport(status=Verdict.UNDECIDED, mode="sampled", checked=samples)


@dataclass(frozen=True)
class AdditivityReport:
    """Whether every additivity defect T(a+b) - T(a) - T(b) is central."""

    all_central: bool
    checked: int
    witness: tuple | None = None  # (a, b, defect) coordinate tuples


def almost_additivity_defect(A: Algebra, T: MapTable,
                             budget: int = 10 ** 7) -> AdditivityReport:
    ring = T.ring
    if ring.algebra is not A:
        raise ValueError("table belongs to a different algebra")
    S = ring.size
    if S * S > budget:
        raise BudgetError(f"{S * S} pairs exceed budget {budget}")
    central = ring.central
    values = T.values
    count = 0
    for a in range(S):
        for b in range(a, S):
            count += 1
            defect = ring.sub(values[ring.add(a, b)], ring.add(values[a], values[b]))
            if defect not in central:
                return AdditivityReport(
                    all_central=False,
                    checked=count,
                    witness=(
                        ring.elements[a],
                        ring.elements[b],
                        ring.elements[defect],
                    ),
                )
    return AdditivityReport(all_central=True, checked=count)


def nested_value_set(ring: FiniteRing, n: int, budget: int = 10 ** 7) -> frozenset[int]:
    """Indices of all p_n values over full element tuples (prefix-shared)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    S = ring.size
    if S ** n > budget:
        raise BudgetError(f"{S ** n} tuples exceed budget {budget}")
    level = set(range(S))
    for _ in range(n - 1):
        level = {ring.commutator(v, x) for v in level for x in range(S)}
    return frozenset(level)


def construct_converse_example(ctx, delta: LinearMap, n: int, seed: int = 0,
                               budget: int = 10 ** 7) -> MapTable:
    """Table T = delta + tau with tau random central and zero on p_n values.

    Such a T satisfies identity (1): central tau values drop out of every
    commutator, and tau contributes nothing on the left since p_n values
    lie in its kernel.  The construction is the converse direction of the
    decomposition; the returned table is non-additive whenever the drawn
    tau is.  When the p_n values cover the whole ring there is no freedom
    and tau = 0 (a warning notes this).
    """
    A = ctx.algebra
    if n > 4:
        raise ValueError("n capped at 4 for table construction")
    ring = FiniteRing(A)
    if not _is_derivation(A, delta):
        raise ValueError("delta must satisfy the Leibniz rule")
    P = nested_value_set(ring, n, budget=budget)
    central = sorted(ring.central)
    rng = random.Random(seed)
    free = [i for i in range(ring.size) if i not in P]
    if not free:
        warnings.warn(
            "p_n values cover the whole ring; tau is forced to zero",
            stacklevel=2,
        )
    tau = [0] * ring.size
    for i in free:
        tau[i] = central[rng.randrange(len(central))]
    values = [
        ring.add(ring.index[delta.apply_coords(coords)], tau[i])
        for i, coords in enumerate(ring.elements)
    ]
    T = MapTable(ring, values)
    report = verify_lie_n_identity(A, T, n, budget=budget)
    if not report.ok:
        raise AssertionError(
            "constructed table fails the identity; construction is broken"
        )
    return T


def _is_derivation(A: Algebra, g: LinearMap) -> bool:
    for i in range(A.dim):
        ei = A.basis_element(i)
        gei = g(ei)
        for j in range(A.dim):
            ej = A.basis_element(j)
            if g(ei * ej) != gei * ej + ei * g(ej):
                return False
    return True


@dataclass(frozen=True)
class TableSummary:
    values: tuple
    lie_ok: bool
    additive_ok: bool


@dataclass
class SearchReport:
    """Tally of completed tables from the pruned exhaustive search."""

    tally: Counter = dataclass_field(default_factory=Counter)
    summaries: list = dataclass_field(default_factory=list)
    leaves: int = 0
    covered: int = 0  # tables accounted for (leaves + pruned subtrees)
    total: int = 0
    nodes: int = 0
    complete: bool = False

    @property
    def explored_fraction(self) -> float:
        return self.covered / self.total if self.total else 0.0


def pruned_exhaustive_search(A: Algebra, n: int, budget: int = 10 ** 6,
                             max_summaries: int = 256) -> SearchReport:
    """Enumerate all value tables, pruning on violated identity instances.

    Tables are built by assigning T(element_0), T(element_1), ... in
    order; an identity instance is checked as soon as every index it
    mentions is assigned, so each leaf satisfies identity (1) outright.
    Every leaf is independently re-verified and classified for almost
    additivity.  ``budget`` bounds the number of assignment nodes; an
    exhausted budget yields a partial report with the covered fraction.
    """
    ring = FiniteRing(A, budget=2 ** 6)  # tables are S^S; keep S tiny
    S = ring.size
    total = S ** S
    report = SearchReport(total=total)
    if budget <= 0:
        return report

    # constraints grouped by the highest element index they mention
    by_last: list[list[tuple]] = [[] for _ in range(S)]
    for xs in _tuples(S, n):
        prefixes = []
        for x in xs:
            prefixes.append(x if not prefixes else ring.commutator(prefixes[-1], x))
        needed = max(max(xs), prefixes[-1])
        by_last[needed].append((xs, tuple(prefixes)))

    table = [0] * S
    nodes = 0
    exhausted = False

    def leaf():
        T = MapTable(ring, table)
        lie = verify_lie_n_identity(A, T, n).ok
        additive = almost_additivity_defect(A, T).all_central
        report.tally[(lie, additive)] += 1
        report.leaves += 1
        report.covered += 1
        if len(report.summaries) < max_summaries:
            report.summaries.append(
                TableSummary(values=tuple(table), lie_ok=lie, additive_ok=additive)
            )

    def assign(pos: int):
        nonlocal nodes, exhausted
        if pos == S:
            leaf()
            return
        for v in range(S):
            if exhausted:
                return
            nodes += 1
            if nodes > budget:
                exhausted = True
                return
            table[pos] = v
            ok = True
            for xs, prefixes in by_last[pos]:
                if _tuple_residual(ring, table, xs, prefixes) != 0:
                    ok = False
                    break
            if ok:
                assign(pos + 1)
            else:
                report.covered += S ** (S - pos - 1)

    assign(0)
    report.nodes = nodes
    report.complete = not exhausted and report.covered == total
    return report


def _tuples(S: int, n: int):
    xs = [0] * n

    def rec(depth):
        if depth == n:
            yield tuple(xs)
            return
        for v in range(S):
            xs[depth] = v
            yield from rec(depth + 1)

    yield from rec(0)
