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
list comparison.

Central values drop out of every commutator: [x + z, y] = [x, y] for z in
the commutant Z, by biadditivity.  So the commutator row of x, and
everything below a node with state (p_k, acc_k), depend only on the
classes x + Z, p_k + Z and acc_k + Z.  The ring solves for Z once and
numbers each element's class by its canonical representative; elements of
one class share one commutator row, and the exhaustive scan skips a node
whose pair of classes already passed at the same depth.  On a table
delta + tau (delta a derivation, tau central and zero on p_n values)
acc_k = delta(p_k), and delta(Z) lies in Z, so a depth holds at most as
many states as there are classes of p_k values modulo Z.  That scan is
one class walk over plain value lists; it serves ``verify_lie_n_identity``,
the search's re-checks of its leaves, and the final check of
``construct_converse_example``.

The pruned search over all S^S tables assigns the entries for elements
0, 1, ... in order.  An instance of (1) need not read every entry it mentions: the
term of slot i is f_i(T(x_i)) for the additive map
f_i(y) = [[[p_{i-1}, y], x_{i+1}], ..., x_n], so the instance reads T(p_n)
and only those T(x_i) whose f_i is not zero on the basis.  Each instance
is checked once the last entry it reads is assigned.

The search walks orbits modulo the centre.  Let P_n be the set of p_n
values and tau any map R -> Z with tau(P_n) = 0.  Then T and T + tau get
the same verdicts: central values drop out of every commutator, so the
right side of every instance is unchanged; tau vanishes at p_n, the
argument of the left side; and each additivity defect moves by
tau(a + b) - tau(a) - tau(b), an element of Z.  So the search branches over
all S values at positions in P_n and over one representative per class
modulo Z elsewhere, and each table it reaches stands for the
|Z|^(S - |P_n|) tables of its orbit.
"""

from __future__ import annotations

import itertools
import random
import warnings
from collections import Counter
from typing import NamedTuple

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
    ``comm_rows`` and ``negatives``, and the class table ``reps``:
    ``reps[i]`` is the index of the canonical representative of
    x_i + Z, Z the commutant, solved once per ring.  Since
    [x + z, y] = [x, y] for z in Z, ``comm_rows[i]`` is the row of
    ``reps[i]``, one list object per class, and x_i is central iff
    ``reps[i] == 0``.  The point ops ``add``, ``neg``, ``sub`` and
    ``commutator`` compute from coordinates and never touch a row, so
    sparse use (sampled checks) builds nothing.  Rows have no size budget:
    a scan that reads them all is bounded by its own tuple budget.
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
        self._reps: list[int] | None = None
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
        r = self.reps[i]
        if r != i:  # [x + z, y] = [x, y]: the class shares one row
            return self.comm_rows[r]
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

    @property
    def reps(self) -> list[int]:
        """reps[i] is the index of Z.residual(x_i), the canonical
        representative of x_i + Z; the map is linear, so its table follows
        from the d basis images."""
        if self._reps is None:
            Z = center(self.algebra)
            self._reps = self._linear_row(
                [self.index[Z.residual(b.coords)] for b in self.algebra.basis()]
            )
        return self._reps

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
            self._central = frozenset(i for i, r in enumerate(self.reps) if not r)
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

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.ring.element(self.values[self.ring.index[x.coords]])

    def is_additive(self) -> bool:
        """Whether every additivity defect is zero (see ``_first_defect``)."""
        return _first_defect(self.ring, self.values, frozenset())[1] is None

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


class LieIdentityReport(NamedTuple):
    """Outcome of testing identity (1) on a value table."""

    status: Verdict
    mode: str  # "exhaustive" or "sampled"
    checked: int
    witness: tuple | None = None  # element coordinate tuples
    residual: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status is Verdict.HOLDS


def _first_violation(ring: FiniteRing, values, n: int) -> tuple | None:
    """The exhaustive class walk of ``verify_lie_n_identity`` on the table
    ``values`` (S indices): the first violating tuple as (xs, q, acc), with
    values[q] = T(p_n) != acc, or None.  A depth-k node xs[:k] has the state
    (p_k + Z, acc_k + Z); ``passed[k]`` holds the states whose subtree held,
    and ``frames[k - 1]`` the depth-k children still to visit on the path.
    """
    comm, add, reps = ring.comm_rows, ring.add_rows, ring.reps
    leaf = n - 1
    passed = [set() for _ in range(n)]
    frames = [enumerate(zip(reps, [reps[v] for v in values]))]
    path = []  # (x, state) of each node above the frame being walked
    while frames:
        depth = len(frames)
        seen = passed[depth]
        for x, state in frames[-1]:
            if state in seen:
                continue
            cp = comm[state[0]]
            accs = [add[a][b] for a, b in zip(comm[state[1]], [cp[t] for t in values])]
            if depth < leaf:
                path.append((x, state))
                frames.append(enumerate(zip([reps[q] for q in cp], [reps[a] for a in accs])))
                break
            if [values[q] for q in cp] != accs:
                y = next(y for y, q in enumerate(cp) if values[q] != accs[y])
                return [x for x, _ in path] + [x, y], cp[y], accs[y]
            seen.add(state)
        else:
            frames.pop()
            if path:
                passed[depth - 1].add(path.pop()[1])
    return None


def verify_lie_n_identity(A: Algebra, T: MapTable, n: int,
                          budget: int = 10 ** 7, samples: int = 2000,
                          seed: int = 0) -> LieIdentityReport:
    """Test identity (1) at all element tuples, or a sample when too many.

    Exhaustive mode runs ``_first_violation``, the one class walk over
    value lists that also re-checks the pruned search's leaves and,
    through this function, the table that
    ``construct_converse_example`` returns.  It scans tuples in
    lexicographic element order (slot 1 slowest) on the ring's row tables
    and reports the first violation.  It keeps, per depth, the classes
    (p_k + Z, acc_k + Z) of the states whose whole subtree held, and skips
    a node, the root's children included, whose classes are among them:
    [x + z, y] = [x, y] for z in the commutant Z, so every state below a
    node depends only on those classes.  Skipped tuples hold, so the first
    violation is unchanged and ``checked`` counts every tuple decided,
    including the ones a passed state covers (S ** n when the identity
    holds).  The sampled fallback builds no rows; it can only refute,
    never confirm, so a clean sample is `undecided`.
    """
    if n < 2:
        raise ValueError("the identity needs n >= 2")
    ring = T.ring
    if ring.algebra is not A:
        raise ValueError("table belongs to a different algebra")
    S = ring.size
    values = T.values

    if S ** n <= budget:
        found = _first_violation(ring, values, n)
        if found is None:
            return LieIdentityReport(status=Verdict.HOLDS, mode="exhaustive", checked=S ** n)
        xs, q, a = found
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


class AdditivityReport(NamedTuple):
    """Whether every additivity defect T(a+b) - T(a) - T(b) is central."""

    all_central: bool
    checked: int
    witness: tuple | None = None  # (a, b, defect) coordinate tuples


def _first_defect(ring: FiniteRing, values, allowed) -> tuple[int, tuple | None]:
    """Scan the pairs a <= b of element indices in order for the additivity
    defect T(a + b) - T(a) - T(b) of the table ``values``: (pairs checked,
    (a, b, defect) at the first defect outside allowed, or None).  A pair
    with T(a + b) = T(a) + T(b) has defect zero and passes without forming
    it, so allowed need only hold the nonzero defects that pass.
    """
    S = ring.size
    add = ring.add_rows
    for a in range(S):
        ra, rta = add[a], add[values[a]]
        for b in range(a, S):
            x, y = values[ra[b]], rta[values[b]]
            if x != y:
                defect = add[x][ring.negatives[y]]
                if defect not in allowed:
                    # the rows before a hold S - i pairs each, i < a
                    return a * S - a * (a - 1) // 2 + b - a + 1, (a, b, defect)
    return S * (S + 1) // 2, None


def _central_defect(ring: FiniteRing, values) -> tuple[int, tuple | None]:
    """``_first_defect`` outside the centre; when the centre is the whole
    ring every defect is central and the scan's report needs no scan."""
    S = ring.size
    if len(ring.central) == S:
        return S * (S + 1) // 2, None
    return _first_defect(ring, values, ring.central)


def almost_additivity_defect(A: Algebra, T: MapTable,
                             budget: int = 10 ** 7) -> AdditivityReport:
    ring = T.ring
    if ring.algebra is not A:
        raise ValueError("table belongs to a different algebra")
    S = ring.size
    if S * S > budget:
        raise BudgetError(f"{S * S} pairs exceed budget {budget}")
    checked, first = _central_defect(ring, T.values)
    witness = None if first is None else tuple(ring.elements[i] for i in first)
    return AdditivityReport(all_central=first is None, checked=checked, witness=witness)


def nested_value_set(ring: FiniteRing, n: int, budget: int = 10 ** 7) -> frozenset[int]:
    """Indices of all p_n values over full element tuples (prefix-shared).

    Each level steps one representative per class modulo the commutant Z:
    [x + z, y] = [x, y], so the other members of a class add no value."""
    if n < 2:
        raise ValueError("n must be at least 2")
    S = ring.size
    if S ** n > budget:
        raise BudgetError(f"{S ** n} tuples exceed budget {budget}")
    comm, reps = ring.comm_rows, ring.reps
    level = set(range(S))
    for _ in range(n - 1):
        level = {c for v in {reps[v] for v in level} for c in comm[v]}
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


class TableSummary(NamedTuple):
    values: tuple
    lie_ok: bool
    additive_ok: bool


class SearchReport:
    """Tally of completed tables from the pruned exhaustive search, filled in
    as it runs.  ``tally``, ``leaves`` and ``covered`` count tables:
    ``covered`` those accounted for (leaves and pruned subtrees).
    ``nodes`` counts the orbit nodes assigned, ``summaries`` holds orbit
    representatives and ``instances`` the identity instances filed."""

    def __init__(self, tally: Counter | None = None, summaries: list | None = None,
                 leaves: int = 0, covered: int = 0, total: int = 0,
                 instances: int = 0, nodes: int = 0, complete: bool = False):
        self.tally = Counter() if tally is None else tally
        self.summaries = [] if summaries is None else summaries
        self.leaves, self.covered, self.total = leaves, covered, total
        self.instances, self.nodes, self.complete = instances, nodes, complete

    def __repr__(self):
        return f"SearchReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is SearchReport else NotImplemented


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
    assigned, so every table counted in ``leaves`` satisfies (1).

    The walk is over orbits modulo the centre Z (see the module
    docstring): a position in the p_n value set P_n takes all S values,
    any other one representative per class modulo Z, with weight |Z|.  A
    leaf stands for its prefix weight, the product of the weights above
    it, and a pruned node for its prefix weight times S^(S - pos - 1).
    Each leaf is re-checked on its value list by the class walk of
    ``verify_lie_n_identity`` and the defect scan of
    ``almost_additivity_defect``, and its weight is tallied under the
    result.  ``summaries`` are the first ``max_summaries`` orbit
    representatives in lexicographic order.

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

    P = nested_value_set(ring, n, budget)  # S^n <= budget once filed
    reps = sorted(set(ring.reps))
    branches = [(range(S), 1) if pos in P else (reps, len(ring.central))
                for pos in range(S)]

    table = [0] * S
    nodes, node_budget = 0, budget - report.instances

    def leaf(weight: int):
        summary = TableSummary(
            values=tuple(table),
            lie_ok=_first_violation(ring, table, n) is None,
            additive_ok=_central_defect(ring, table)[1] is None,
        )
        report.tally[(summary.lie_ok, summary.additive_ok)] += weight
        report.leaves += weight
        report.covered += weight
        if len(report.summaries) < max_summaries:
            report.summaries.append(summary)

    def assign(pos: int, weight: int):
        nonlocal nodes
        if pos == S:
            leaf(weight)
            return
        choices, orbit = branches[pos]
        weight *= orbit
        for v in choices:
            if nodes == node_budget:  # every later node is refused too
                return
            nodes += 1
            table[pos] = v
            ok = True
            for xs in by_last[pos]:
                pv, acc = xs[0], table[xs[0]]
                for x in xs[1:]:
                    # p_{k+1} = [p_k, x], acc_{k+1} = [acc_k, x] + [p_k, T(x)]
                    cp = comm[pv]
                    pv, acc = cp[x], add[comm[acc][x]][cp[table[x]]]
                if table[pv] != acc:
                    ok = False
                    break
            if ok:
                assign(pos + 1, weight)
            else:
                report.covered += weight * S ** (S - pos - 1)

    assign(0, 1)
    report.nodes = nodes
    report.complete = report.covered == total
    return report
