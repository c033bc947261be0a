"""Brute-force checks for arbitrary (non-additive) maps on small finite rings.

Maps are held as total value tables indexed by element number.  Elements
of a finite algebra are numbered in enumeration order (coordinate 0
fastest), so element k carries the base-p digits of k; all table
arithmetic happens on indices.  The identity under test is the nested-
commutator rule

    T(p(x1..xn)) = sum_t p(x1, ..., T(x_t), ..., xn)          (1)

quantified over ALL element tuples, not just basis tuples, since tables
need not be linear.

The scans read whole rows of index tables: ``add_rows[i][j]`` and
``comm_rows[i][j]`` are the indices of x_i + x_j and [x_i, x_j].  A row
is built on first use in O(S) (S the ring size): addition and negation
act digit by digit, and y -> [x_i, y] is additive, so its row follows
from the d basis images [x_i, e_t].  These are read off d tables of the
additive maps x -> [x, e_t], built once from the d^2 basis brackets.
The scan over tuples carries two values down its depth-first walk,
p_k = p_k(x1..xk) and the right-hand side
acc_k = sum_{t<=k} p_k(..., T(x_t), ...).  The commutator is biadditive
in any ring, so

    p_{k+1} = [p_k, x],    acc_{k+1} = [acc_k, x] + [p_k, T(x)]

exactly, and a tuple violates (1) iff T(p_n) != acc_n.  The states of
all children of a node form one row, built from two commutator rows and
S additions; at the last slot that row is compared with T(p_n) by one
list comparison.  Everything below a node depends only on its state
(p_k, acc_k), so the exhaustive scan skips a node whose state already
passed at the same depth.  On a table delta + tau (delta a derivation,
tau central and zero on p_n values) acc_k = delta(p_k), so a depth
holds at most as many states as there are p_k values.

The pruned search over all S^S tables assigns the entries for elements
0, 1, ... in order.  An instance of (1) need not read every entry it mentions: the
term of slot i is f_i(T(x_i)) for the additive map
f_i(y) = [[[p_{i-1}, y], x_{i+1}], ..., x_n], so the instance reads T(p_n)
and only those T(x_i) whose f_i is not zero on the basis.  Each instance
is checked once the last entry it reads is assigned, and every completion
past the last entry any instance reads satisfies (1).  When the center is
the whole ring those completions are all almost additive, and the search
counts them in closed form.
"""

from __future__ import annotations

import itertools
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
    is_derivation,
)
from .fields import FieldError
from .verdict import Verdict


class _RowTable(dict):
    """Rows keyed by element index; a missing row is built on first use."""

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, i: int) -> list[int]:
        row = self[i] = self._build(i)
        return row


class FiniteRing:
    """Index arithmetic on the elements of a finite algebra.

    Whole-ring scans read the lazily built row tables ``add_rows``,
    ``comm_rows`` and ``negatives``.  The point ops ``add``, ``neg``,
    ``sub`` and ``commutator`` compute from coordinates and never
    touch a row, so sparse use (sampled checks) builds nothing.  Rows have
    no size budget: a scan that reads them all is bounded by its own tuple
    budget.
    """

    def __init__(self, A: Algebra, budget: int = 2 ** 16):
        if not A.field.is_finite:
            raise FieldError("finite search needs a finite coefficient field")
        size = A.size()
        if size > budget:
            raise BudgetError(f"ring size {size} exceeds budget {budget}")
        self.algebra = A
        self.size = size
        self.p = A.field.p
        self.elements = tuple(x.coords for x in A.elements())
        self.index = {coords: i for i, coords in enumerate(self.elements)}
        self.add_rows = _RowTable(self._add_row)
        self.comm_rows = _RowTable(self._comm_row)
        self._comm_cols: list[list[int]] | None = None  # [t][i]: [x_i, e_t]
        self._negatives: list[int] | None = None
        self._central: frozenset[int] | None = None

    def element(self, i: int) -> AlgebraElement:
        return AlgebraElement(self.algebra, self.elements[i])

    # ---- row builders

    def _digitwise(self, digit_maps) -> list[int]:
        """Table of the map sending digit t of every index k through
        digit_maps[t]; built like a Kronecker product, in O(S)."""
        out, weight = [0], 1
        for m in digit_maps:
            out = [v + s for s in [a * weight for a in m] for v in out]
            weight *= self.p
        return out

    def _add_row(self, i: int) -> list[int]:
        p = self.p
        return self._digitwise(
            [[(c + a) % p for a in range(p)] for c in self.elements[i]]
        )

    def _linear_row(self, images) -> list[int]:
        """Table of the additive map sending basis vector e_t to element
        images[t]: one add_rows lookup per entry."""
        add = self.add_rows
        out = [0]
        for b in images:
            shifts, m = [], 0
            for _ in range(self.p):  # rows of the multiples 0, b, ..., (p-1)b
                shifts.append(add[m])
                m = add[b][m]
            out = [r[v] for r in shifts for v in out]
        return out

    def _comm_row(self, i: int) -> list[int]:
        if self._comm_cols is None:
            # x -> [x, e_t] is additive too: one table per t, from the
            # d^2 basis brackets
            basis = [b.coords for b in self.algebra.basis()]
            self._comm_cols = [
                self._linear_row([self._commutator_of(es, et) for es in basis])
                for et in basis
            ]
        return self._linear_row([col[i] for col in self._comm_cols])

    @property
    def negatives(self) -> list[int]:
        """negatives[i] is the index of -x_i."""
        if self._negatives is None:
            p = self.p
            self._negatives = self._digitwise(
                [[-a % p for a in range(p)]] * self.algebra.dim
            )
        return self._negatives

    # ---- point ops

    def _commutator_of(self, x, y) -> int:
        """Index of [x, y] for coordinate tuples x, y."""
        A, p = self.algebra, self.p
        return self.index[tuple(
            (a - b) % p for a, b in zip(A.mul_coords(x, y), A.mul_coords(y, x))
        )]

    def add(self, i: int, j: int) -> int:
        p = self.p
        return self.index[tuple(
            (a + b) % p for a, b in zip(self.elements[i], self.elements[j])
        )]

    def neg(self, i: int) -> int:
        p = self.p
        return self.index[tuple(-a % p for a in self.elements[i])]

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def commutator(self, i: int, j: int) -> int:
        return self._commutator_of(self.elements[i], self.elements[j])

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
        A = ring.algebra
        return cls(ring, ring._linear_row(
            [ring.index[D.apply_coords(A.basis_element(t).coords)]
             for t in range(A.dim)]
        ))

    def apply_index(self, i: int) -> int:
        # kept: perfbench/tracer.py counts calls to it
        return self.values[i]

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.ring.element(self.values[self.ring.index[x.coords]])

    def is_additive(self) -> bool:
        add = self.ring.add_rows
        T = self.values
        S = self.ring.size
        for a in range(S):
            ra, rta = add[a], add[T[a]]
            for b in range(a, S):
                if T[ra[b]] != rta[T[b]]:
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


def _lie_step(comm, add, T, pv, acc, x):
    """(p_{k+1}, acc_{k+1}) from (p_k, acc_k) and the next element x.

    acc_k = sum_{t<=k} p_k(..., T(x_t), ...); by biadditivity of the
    commutator acc_{k+1} = [acc_k, x] + [p_k, T(x)].  ``comm``/``add`` are
    row tables of the ring, T a value table."""
    cp = comm[pv]
    return cp[x], add[comm[acc][x]][cp[T[x]]]


def verify_lie_n_identity(A: Algebra, T: MapTable, n: int,
                          budget: int = 10 ** 7, samples: int = 2000,
                          seed: int = 0) -> LieIdentityReport:
    """Test identity (1) at all element tuples, or a sample when too many.

    Exhaustive mode scans tuples in lexicographic element order (slot 1
    slowest) on the ring's row tables and reports the first violation.  It
    keeps, per depth, the states (p_k, acc_k) whose whole subtree held and
    skips a node whose state is among them; skipped tuples hold, so the
    first violation is unchanged and ``checked`` counts every tuple decided,
    including the ones a passed state covers (S ** n when the identity
    holds).  The sampled fallback builds no rows; it can only refute, never
    confirm, so a clean sample is `undecided`.
    """
    if n < 2:
        raise ValueError("the identity needs n >= 2")
    ring = T.ring
    if ring.algebra is not A:
        raise ValueError("table belongs to a different algebra")
    S = ring.size
    values = T.values

    if S ** n <= budget:
        comm, add = ring.comm_rows, ring.add_rows
        xs = [0] * n
        passed = [set() for _ in range(n)]  # [k]: depth-k states whose subtree held

        def walk(depth, pv, acc):
            """First violating leaf below the node xs[:depth] with state
            (pv, acc), or None.  The children's states form one row:
            p_{k+1} = comm[pv][x], acc_{k+1} = [acc, x] + [pv, T(x)]."""
            cp = comm[pv]
            accs = [add[a][b] for a, b in zip(comm[acc], [cp[t] for t in values])]
            if depth == n - 1:
                if [values[q] for q in cp] == accs:
                    return None
                x = next(x for x in range(S) if values[cp[x]] != accs[x])
                xs[depth] = x
                return cp[x], accs[x]
            seen = passed[depth + 1]
            for x, state in enumerate(zip(cp, accs)):
                if state not in seen:
                    found = walk(depth + 1, *state)
                    if found is not None:
                        xs[depth] = x
                        return found
                    seen.add(state)
            return None

        for x0 in range(S):
            found = walk(1, x0, values[x0])
            if found is not None:
                xs[0] = x0
                break
        else:
            return LieIdentityReport(status=Verdict.HOLDS, mode="exhaustive", checked=S ** n)
        q, a = found
        return LieIdentityReport(
            status=Verdict.FAILS,
            mode="exhaustive",
            checked=1 + sum(x * S ** (n - 1 - t) for t, x in enumerate(xs)),
            witness=tuple(ring.elements[x] for x in xs),
            residual=ring.elements[ring.sub(values[q], a)],
        )

    comm, add = ring.commutator, ring.add
    rng = random.Random(seed)
    for trial in range(samples):
        xs = tuple(rng.randrange(S) for _ in range(n))
        pv, acc = xs[0], values[xs[0]]
        for x in xs[1:]:
            pv, acc = comm(pv, x), add(comm(acc, x), comm(pv, values[x]))
        if values[pv] != acc:
            return LieIdentityReport(
                status=Verdict.FAILS,
                mode="sampled",
                checked=trial + 1,
                witness=tuple(ring.elements[x] for x in xs),
                residual=ring.elements[ring.sub(values[pv], acc)],
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
    if len(central) == S:  # every defect is central: the loop's report
        return AdditivityReport(all_central=True, checked=S * (S + 1) // 2)
    values = T.values
    add, neg = ring.add_rows, ring.negatives
    count = 0
    for a in range(S):
        ra, rta = add[a], add[values[a]]
        for b in range(a, S):
            count += 1
            defect = add[values[ra[b]]][neg[rta[values[b]]]]
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
    comm = ring.comm_rows
    level = set(range(S))
    for _ in range(n - 1):
        level = {c for v in level for c in comm[v]}
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
    if not is_derivation(A, delta):
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
    add = ring.add_rows  # rows of the few central tau values only
    delta_values = MapTable.from_linear_map(ring, delta).values
    T = MapTable(ring, [add[t][v] for t, v in zip(tau, delta_values)])
    report = verify_lie_n_identity(A, T, n, budget=budget)
    if not report.ok:
        raise AssertionError(
            "constructed table fails the identity; construction is broken"
        )
    return T


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
    instances: int = 0  # identity instances filed
    nodes: int = 0
    complete: bool = False


def _last_read(comm, basis, xs) -> int:
    """Largest table position that the instance of (1) at xs reads.

    It reads T(p_n), and T(x_i) unless the additive map
    y -> [[[p_{i-1}, y], x_{i+1}], ..., x_n] (y -> [[y, x_2], ..., x_n]
    for i = 1) is identically zero, which its values on the basis decide.
    """
    prefix = [xs[0]]
    for x in xs[1:]:
        prefix.append(comm[prefix[-1]][x])
    last = prefix[-1]
    for i, x in enumerate(xs):
        if x <= last:
            continue
        images = basis if i == 0 else [comm[prefix[i - 1]][e] for e in basis]
        for y in xs[i + 1:]:
            images = [comm[z][y] for z in images]
        if any(images):
            last = x
    return last


def pruned_exhaustive_search(A: Algebra, n: int, budget: int = 10 ** 6,
                             max_summaries: int = 256) -> SearchReport:
    """Enumerate all value tables, pruning on violated identity instances.

    Tables are built by assigning T(element_0), T(element_1), ... in
    order.  The instance of (1) at xs reads T(p_n) and each T(x_i) whose
    slot map y -> [[[p_{i-1}, y], x_{i+1}], ..., x_n] is not identically
    zero; it is checked as soon as the largest position it reads is
    assigned, so every table counted in ``leaves`` satisfies (1).  Past
    the last position that any instance reads, all completions satisfy
    (1).  When the center is the whole ring every additivity defect is
    central, so those completions are counted in closed form as
    (True, True); otherwise they are enumerated, and each such leaf is
    re-verified with ``verify_lie_n_identity`` and
    ``almost_additivity_defect`` and tallied by the result.  ``summaries``
    are the first ``max_summaries`` leaves in lexicographic order, each
    re-verified; one inside a closed-form block that is not (True, True)
    raises ``AssertionError``.

    ``budget`` bounds the work: the identity instances filed (S^n) plus
    the assignment ``nodes``.  Running out of it, while filing or while
    searching, yields a partial report with the covered fraction.
    """
    if n < 2:
        raise ValueError("the identity needs n >= 2")
    ring = FiniteRing(A, budget=2 ** 6)  # tables are S^S; keep S tiny
    S = ring.size
    total = S ** S
    report = SearchReport(total=total)
    comm, add = ring.comm_rows, ring.add_rows

    # instances grouped by the largest position they read
    basis = [ring.p ** t for t in range(A.dim)]
    by_last: list[list[tuple]] = [[] for _ in range(S)]
    for xs in itertools.product(range(S), repeat=n):
        if report.instances >= budget:
            return report
        report.instances += 1
        by_last[_last_read(comm, basis, xs)].append(xs)
    last = max(pos for pos in range(S) if by_last[pos])
    closed = len(ring.central) == S

    table = [0] * S
    nodes, node_budget = 0, budget - report.instances

    def verified() -> TableSummary:
        T = MapTable(ring, table)
        return TableSummary(
            values=tuple(table),
            # exhaustive at any n: a leaf's lie_ok is decided, never sampled
            lie_ok=verify_lie_n_identity(A, T, n, budget=S ** n).ok,
            additive_ok=almost_additivity_defect(A, T).all_central,
        )

    def leaf():
        summary = verified()
        report.tally[(summary.lie_ok, summary.additive_ok)] += 1
        report.leaves += 1
        report.covered += 1
        if len(report.summaries) < max_summaries:
            report.summaries.append(summary)

    def unread_block(pos: int):
        """All S^(S - pos) completions of table[:pos], counted at once."""
        need = max_summaries - len(report.summaries)
        for tail in itertools.islice(itertools.product(range(S), repeat=S - pos), need):
            table[pos:] = tail
            summary = verified()
            if not (summary.lie_ok and summary.additive_ok):
                raise AssertionError(
                    "a table counted in closed form fails re-verification;"
                    " the search is broken"
                )
            report.summaries.append(summary)
        count = S ** (S - pos)
        report.tally[(True, True)] += count
        report.leaves += count
        report.covered += count

    def assign(pos: int):
        nonlocal nodes
        if closed and pos > last:
            unread_block(pos)
            return
        if pos == S:
            leaf()
            return
        for v in range(S):
            if nodes == node_budget:  # every later node is refused too
                return
            nodes += 1
            table[pos] = v
            ok = True
            for xs in by_last[pos]:
                pv, acc = xs[0], table[xs[0]]
                for x in xs[1:]:
                    pv, acc = _lie_step(comm, add, table, pv, acc, x)
                if table[pv] != acc:
                    ok = False
                    break
            if ok:
                assign(pos + 1)
            else:
                report.covered += S ** (S - pos - 1)

    assign(0)
    report.nodes = nodes
    report.complete = report.covered == total
    return report
