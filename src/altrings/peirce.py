"""Peirce decomposition at a nontrivial idempotent and ring-side checkers.

The decomposition R = R11 + R12 + R21 + R22 is built from the operators
a -> e1*a and a -> a*e1 alone, so no unit is required.  The checkers
reduce universally quantified annihilator conditions to exact kernel
computations wherever the condition is linear in the quantified
variable; genuinely nonlinear conditions get three-valued verdicts.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field as dataclass_field
from itertools import product
from operator import mul
from typing import Callable, NamedTuple

from .algebra import (
    Algebra,
    AlgebraElement,
    BudgetError,
    LinearMap,
    basis_points,
    center,
    is_idempotent,
)
from .linalg import (
    Matrix,
    Subspace,
    _nonzero,
    echelon,
    kernel_vectors,
    null_space,
)
from .verdict import ConditionVerdict, Verdict


class PeirceError(ValueError):
    """Context construction failure; kind names the broken precondition."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


_SLOTS = ((1, 1), (1, 2), (2, 1), (2, 2))
_RAY_BUDGET = 2 ** 17  # rays of a primality or condition (4) enumeration
# sampled primality over Q accepts a sample whose ray test passes mod this
# prime: an int matrix has at least its rank mod p over Q, so any prime is
# sound, and a larger one leaves fewer samples to the exact test
_CERT_PRIME = 251


@dataclass(frozen=True)
class PeirceContext:
    """Validated Peirce data at one idempotent, derived once by
    ``peirce_context``: e1 as field elements and as (ints, den), the
    projections pi_ij as int-backed matrices, their images R_ij, the
    center Z, and per side 1, 2 the central action space Z e_side (z e2 =
    z - z e1) with its graph, the span of the rows [z e_side | z] over the
    Z basis.  Nothing is cached on the algebra or shared between contexts.
    """

    algebra: Algebra
    e1: tuple
    e1_ints: tuple
    projections: dict
    components: dict
    center: Subspace
    action_spaces: dict
    action_graphs: dict

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return tuple(self.components[s].dim for s in _SLOTS)

    def projection(self, i: int, j: int) -> LinearMap:
        return LinearMap(self.algebra, self.projections[(i, j)])

    def component(self, i: int, j: int) -> Subspace:
        return self.components[(i, j)]

    def component_part(self, x, i: int, j: int) -> tuple:
        """Coordinates of the R_ij part of x."""
        coords = x.coords if isinstance(x, AlgebraElement) else tuple(x)
        return self.projections[(i, j)].apply(coords)


def peirce_context(A: Algebra, e1) -> PeirceContext:
    """Build and validate the Peirce data at e1 (see ``PeirceContext``).

    L = L_{e1} and R = R_{e1} are int-backed ``Matrix`` objects built from
    e1's ints by ``Algebra.mult_matrix_ints``; the checks and the
    projections are their products and differences, and each component is
    the span of its projection's int columns.  The rows z e1 come from the
    ints of the Z basis and of e1.
    """
    coords = A._coerce_coords(e1)
    check = is_idempotent(A, coords)
    if not check.idempotent:
        raise PeirceError("not_idempotent", "e1 does not satisfy e1*e1 = e1 (or is zero)")
    if not check.nontrivial:
        raise PeirceError("trivial_idempotent", "e1 is the multiplicative identity")

    F = A.field
    d = A.dim
    e = F.to_ints(coords)
    L1, R1 = A.mult_matrix_ints(*e, "left"), A.mult_matrix_ints(*e, "right")

    # compatibility e1(a e1) = (e1 a)e1, needed for well-defined projections
    LR = L1 @ R1
    if LR != R1 @ L1:
        raise PeirceError(
            "decomposition_failure",
            "e1-(a)-e1 brackets disagree: e1(a e1) != (e1 a)e1 on some a",
        )
    # With L1 R1 = R1 L1, the four maps below are orthogonal idempotents
    # summing to the identity exactly when L1 and R1 are idempotent, since
    # L1 = pi11 + pi12 and R1 = pi11 + pi21.
    for side, m in (("left", L1), ("right", R1)):
        if m @ m != m:
            raise PeirceError(
                "decomposition_failure",
                f"{side} multiplication by e1 is not idempotent",
            )

    pi = {
        (1, 1): LR,
        (1, 2): L1 - LR,
        (2, 1): R1 - LR,
        (2, 2): Matrix.identity(F, d) - L1 - R1 + LR,
    }
    components = {slot: Subspace.from_ints(F, d, zip(*m.int_form()[0]))
                  for slot, m in pi.items()}
    Z = center(A)
    # z e1 is over Z._den * scale, and so are scale * z and z e2 = z - z e1
    scale = e[1] * A._den
    ze1 = [A._mul_ints(z, e[0]) for z in Z._num]
    actions = {
        1: ze1,
        2: [[scale * x - y for x, y in zip(z, w)] for z, w in zip(Z._num, ze1)],
    }
    return PeirceContext(
        algebra=A,
        e1=coords,
        e1_ints=e,
        projections=pi,
        components=components,
        center=Z,
        action_spaces={side: Subspace.from_ints(F, d, rows) for side, rows in actions.items()},
        action_graphs={
            side: Subspace.from_ints(F, 2 * d, [w + [scale * x for x in z]
                                                for w, z in zip(rows, Z._num)])
            for side, rows in actions.items()
        },
    )


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    source: tuple
    product: tuple
    detail: str


@dataclass(frozen=True)
class PeirceRelationsReport:
    """Outcome of the four component-product relations, each decided
    exactly (see verify_peirce_relations)."""

    composition: bool            # R_ij R_jl inside R_il
    same_component: bool         # R_ij R_ij inside R_ji
    orthogonality: bool          # R_ij R_kl = 0 for j != k, (i,j) != (k,l)
    square_free: bool            # x_ij^2 = 0 for i != j
    violations: tuple = dataclass_field(default_factory=tuple)

    @property
    def all_hold(self) -> bool:
        return (
            self.composition
            and self.same_component
            and self.orthogonality
            and self.square_free
        )


def verify_peirce_relations(ctx: PeirceContext) -> PeirceRelationsReport:
    """Check the four relations exactly; collect violations.

    The three product relations are bilinear, so component-basis pairs
    decide them: one table of (relation, source, left slot, right slot,
    target slot or None for zero), one loop over the components' int basis
    rows, and field elements only for violations.  The same-component
    entries R_ii R_ii inside R_ii repeat composition's.  x^2 = 0 is
    quadratic, so it is checked at the points b_a and b_a + b_c of each
    off-diagonal component basis, which decides it in every characteristic
    (see algebra.basis_points); the first failing point of a component is
    its violation.
    """
    A = ctx.algebra
    F = A.field
    p = F.characteristic
    comps = ctx.components
    table = (
        *(("composition", (i, j, l), (i, j), (j, l), (i, l))
          for i in (1, 2) for j in (1, 2) for l in (1, 2)),
        *(("same_component", s, s, s, s[::-1]) for s in _SLOTS),
        *(("orthogonality", s + t, s, t, None)
          for s in _SLOTS for t in _SLOTS if s[1] != t[0] and s != t),
    )
    violations = []
    for relation, source, s, t, target in table:
        X, Y = comps[s], comps[t]
        name = "R{}{}*R{}{}".format(*s, *t)
        detail = f"{name} escapes R{target[0]}{target[1]}" if target else f"{name} is nonzero"
        for x in X._num:
            for y in Y._num:
                prod = A._mul_ints(x, y)
                if (any(comps[target]._residual_ints(prod)) if target
                        else _nonzero(prod, p)):
                    violations.append(RelationViolation(
                        relation, source, F.from_ints(prod, X._den * Y._den * A._den), detail,
                    ))

    for s in ((1, 2), (2, 1)):
        X = comps[s]
        for x in basis_points(F, X._num):
            sq = A._mul_ints(x, x)
            if _nonzero(sq, p):
                point = ", ".join(map(F.format, F.from_ints(x, X._den)))
                violations.append(RelationViolation(
                    "square_free", s, F.from_ints(sq, X._den ** 2 * A._den),
                    f"square of ({point}) is nonzero",
                ))
                break

    failed = {v.relation for v in violations}
    return PeirceRelationsReport(
        composition="composition" not in failed,
        same_component="same_component" not in failed,
        orthogonality="orthogonality" not in failed,
        square_free="square_free" not in failed,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class CommutantReport:
    subspace: Subspace
    contained_in_center: bool


def check_offdiag_commutant(ctx: PeirceContext, side) -> CommutantReport:
    """S = {a in R11+R22 : [a, R_side] = 0}, and whether S lies in Z(R).

    side 12 instantiates the hypothesis that commuting with all of R12
    forces centrality; side 21 is the mirror.
    """
    side = str(side)
    if side not in ("12", "21"):
        raise ValueError("side must be 12 or 21")
    slot = (1, 2) if side == "12" else (2, 1)
    A = ctx.algebra
    brackets = (  # the rows of R_b - L_b : x -> [x, b]
        [x - y for x, y in zip(r, l)] for b in ctx.components[slot]._num
        for r, l in zip(A.mult_ints(b, "right"), A.mult_ints(b, "left"))
    )
    diagonal = ctx.components[(1, 1)].sum_with(ctx.components[(2, 2)])
    S = diagonal.killed_by(brackets)
    return CommutantReport(
        subspace=S, contained_in_center=ctx.center.contains_subspace(S)
    )


@dataclass(frozen=True)
class ConditionsReport:
    """Verdicts for the four ring conditions, keyed by sub-check."""

    entries: dict

    def __getitem__(self, key: str) -> ConditionVerdict:
        return self.entries[key]


def _kernel_condition(A: Algebra, domain: Subspace, others: Subspace,
                      side: str, label: str) -> ConditionVerdict:
    # x*b = 0 (side right) or b*x = 0 (left) for every b, solved on the
    # coordinates c of x = sum c_k x_k: coordinate m of sum c_k (x_k b) is a
    # row, read from the int products of the basis rows x_k and b
    def products(b):
        return [A._mul_ints(x, b) if side == "right" else A._mul_ints(b, x)
                for x in domain._num]

    ann = domain.combinations_killed_by(
        row for b in others._num for row in zip(*products(b)) if any(row)
    )
    if ann.is_zero():
        return ConditionVerdict(Verdict.HOLDS, f"{label}: annihilator is zero")
    return ConditionVerdict(
        Verdict.FAILS,
        f"{label}: annihilator has dim {ann.dim}",
        witness=ann.basis[0],
    )


def _left_rank(A: Algebra, z) -> int:
    """rank L_z for int coordinates z (a rank is blind to their den)."""
    acc = echelon(A.field, A.dim)
    for row in A.mult_ints(z, "left"):
        acc.add(row)
    return acc.rank


def check_conditions_1_to_4(ctx: PeirceContext) -> ConditionsReport:
    """Decide conditions (1)-(4); (4) may be undecided over an infinite field.

    Each of the six annihilators is solved on the coordinates of its
    domain's basis, from the int products of its basis rows with those of
    the other component; (4) ranks L_z from z's ints.  Field elements
    are built only for witnesses.
    """
    A = ctx.algebra
    F = A.field
    d = A.dim
    R11, R12, R21, R22 = (ctx.components[s] for s in _SLOTS)
    entries = {}

    entries["1(1,2)"] = _kernel_condition(
        A, R12, R21, "right", "x12 with x12*R21 = 0"
    )
    entries["1(2,1)"] = _kernel_condition(
        A, R21, R12, "right", "x21 with x21*R12 = 0"
    )
    entries["2a"] = _kernel_condition(A, R11, R12, "right", "x11 with x11*R12 = 0")
    entries["2b"] = _kernel_condition(A, R11, R21, "left", "x11 with R21*x11 = 0")
    entries["3a"] = _kernel_condition(A, R22, R12, "left", "x22 with R12*x22 = 0")
    entries["3b"] = _kernel_condition(A, R22, R21, "right", "x22 with x22*R21 = 0")

    Z = ctx.center
    if Z.is_zero():
        entries["4"] = ConditionVerdict(
            Verdict.HOLDS, "center is zero; nothing to check"
        )
    elif F.is_finite:
        rays = (F.p ** Z.dim - 1) // (F.p - 1)
        if rays > _RAY_BUDGET:
            entries["4"] = ConditionVerdict(
                Verdict.UNDECIDED,
                f"{rays} central rays exceed the enumeration budget {_RAY_BUDGET}",
            )
        else:
            # L_{cz} = c L_z, so a ray is decided by its vector whose first
            # nonzero coefficient over the RREF Z basis is 1, in the order
            # of Z.vectors(): the lead from the last position to the first
            k = Z.dim
            columns = list(zip(*Z._num))
            leading_one = ((0,) * lead + (1,) + rest for lead in reversed(range(k))
                           for rest in product(F.elements(), repeat=k - lead - 1))
            central = (F.from_ints([sum(map(mul, c, col)) for col in columns])
                       for c in leading_one)
            bad = next((z for z in central if _left_rank(A, z) != d), None)
            if bad is None:
                entries["4"] = ConditionVerdict(
                    Verdict.HOLDS, "all nonzero central z have zR = R (enumerated)"
                )
            else:
                entries["4"] = ConditionVerdict(
                    Verdict.FAILS, "central z with zR != R", witness=bad
                )
    elif Z.dim == 1:  # L_{c z0} = c L_{z0}: one rank decides every nonzero z
        if _left_rank(A, Z._num[0]) == d:
            # "invertible" here means L_{z0} is, i.e. z0 R = R; the README
            # example and the benchmark oracle pin this text byte for byte
            entries["4"] = ConditionVerdict(
                Verdict.HOLDS,
                "dim Z = 1 and the central generator is invertible",
            )
        else:
            entries["4"] = ConditionVerdict(
                Verdict.FAILS, "the central generator is a zero divisor",
                witness=Z.basis[0],
            )
    else:
        entries["4"] = ConditionVerdict(
            Verdict.UNDECIDED,
            "zR = R is nonlinear in z; undecidable over an infinite field here",
        )

    return ConditionsReport(entries=entries)


@dataclass(frozen=True)
class PrimeReport:
    status: Verdict
    mode: str                      # exhaustive | sampled
    checked: int
    witness: tuple | None = None   # (a coords, b coords) with a R b = 0
    detail: str = ""


def _repeat(x: int, stride: int, n: int) -> int:
    """x at bit offsets 0, stride, ..., (n - 1)*stride, for 0 <= x < 2**stride:
    blocks of 2**k copies, one per set bit k of n."""
    out = shift = 0
    block, size = x, stride
    while n:
        if n & 1:
            out |= block << shift
            shift += size
        block |= block << size
        size *= 2
        n >>= 1
    return out


class _RayKernel(NamedTuple):
    failing_rows: Callable   # (a, U=None, W=None) -> rows | None
    walk: Callable           # () -> (checked, a, rows) per failing ray


def _packed_ray_test(A: Algebra, p: int) -> _RayKernel:
    """The primality test of a ray on A's operators packed mod p.

    ``failing_rows(a)``, for int coordinates a with every entry in 0..p-1,
    is None when the ray of a passes, and otherwise rows spanning the
    constraints on b with aRb = 0.  ``walk()`` runs the same test on every
    ray of GF(p)^d in the scan order and yields (checked, a, rows) at each
    ray that fails: e_0, ..., e_{d-1}, then for each lead position the
    vectors 1 there, 0 before it, with the tails after it in ``product``
    order, the all-zero tail (a basis vector) left out.

    {b : (a r) b = 0 for all r} depends only on aR, the column space of
    L_a, so a ray costs one rank test of L_a and, when that falls short of
    d, one rank test of the stacked L_{a e_t} over the pivot columns t of
    L_a, whose columns a e_t span aR.  rank L_a = d passes at once: then
    aR = R, and Rb = 0 would put b in ker L_a = 0.  Both come from
    unreduced sums, U = sum a_i L_{e_i} and W = sum a_i L_{e_i e_t} (a
    table of d blocks per i, L_{e_i e_t} reduced mod p at block t), whose
    slots stay below V: block t of W is L_{a e_t}, since e_i e_t is
    linear in e_i.  The walk steps U and W like an odometer: moving the
    tail to the next one in ``product`` order raises digit k by one and
    clears the digits after it from p - 1 to 0, so each sum steps by one
    precomputed delta_k = X_k - (p - 1) sum_{j>k} X_j; a ray costs two adds
    and one reduce of U before its rank test.  ``failing_rows(a)`` builds
    the sums from a instead, and the table on first need.
    Operators are ints of w-bit slots, entry (k, j) of a d-column matrix
    at slot k*d + j, block t of a stack at slot t*d*d; no slot exceeds V
    before one SWAR Barrett step reduces them all mod p.  The structure
    constants enter as their ints over A._den reduced mod p, so over Q each
    rank is that of an int matrix mod p, a lower bound for its rank over Q.
    """
    d = A.dim
    # a slot holds at most a sum of d products c*c' (U, W, the table) or
    # v*x + (p - c)*y (pivot_shifts), with all of c, c', v, x, y below p
    V = max(d * (p - 1) ** 2, (2 * p - 1) * (p - 1))
    b = V.bit_length()
    s = b + p.bit_length()
    w = b + s
    rw = w * d  # one row
    bw = rw * d  # one block of d rows
    m = (1 << s) // p + 1
    digit = (1 << w) - 1
    block = (1 << bw) - 1
    qmask = _repeat((1 << b) - 1, w, d ** 3)
    column = _repeat(digit, rw, d * d)
    # p in the column slot of each row of a stack of r blocks of d rows
    p_column = [_repeat(p, rw, d * r) for r in range(d + 1)]
    packed = [
        sum(c % p << (w * (k * d + j)) for j in range(d) for k, c in A._pairs[i][j])
        for i in range(d)
    ]
    table = []

    def reduce(x):
        # per slot x - p*floor(x/p): exact below 2**b, where m's excess over
        # 2**s / p costs less than 1/p in the quotient
        return x - p * (((x * m) >> s) & qmask)

    def products():
        """The table: block t of entry i is L_{e_i e_t} mod p."""
        if not table:
            table.extend(
                reduce(sum(c % p * packed[k] << (bw * t)
                           for t in range(d) for k, c in A._pairs[i][t]))
                for i in range(d)
            )
        return table

    def pivot_shifts(M, blocks):
        """Bit offsets of the pivot columns of M (blocks*d rows), up to d.

        One step clears the pivot's column in every row at once:
        M * v + (p - M[k][col]) * (pivot row), v the pivot."""
        shifts = []
        while M:
            low = (M & -M).bit_length() - 1
            shift = low % rw - low % w
            shifts.append(shift)
            if len(shifts) == d:
                break
            prow = (M >> (low - low % rw)) & ((1 << rw) - 1)
            v = (prow >> shift) & digit
            M = reduce(M * v + (p_column[blocks] - ((M >> shift) & column)) * prow)
        return shifts

    def failing_rows(a, U=None, W=None):
        """Rows or None for the ray of a; the walk passes the unreduced
        sums U and W it keeps, and they are built from a when absent."""
        if U is None:
            U = sum(c * x for c, x in zip(a, packed) if c)
        shifts = pivot_shifts(reduce(U), 1)
        if len(shifts) == d:
            return None
        if W is None:
            W = sum(c * x for c, x in zip(a, products()) if c)
        stack = 0  # L_{a e_t} at the pivot columns t
        for i, shift in enumerate(shifts):
            stack |= (W >> (bw * (shift // w)) & block) << (bw * i)
        stack = reduce(stack)
        if len(pivot_shifts(stack, len(shifts))) == d:
            return None
        return [[(stack >> (rw * k + w * j)) & digit for j in range(d)]
                for k in range(d * len(shifts))]

    def rays():
        """(a, U, W) per ray in the scan order; a is reused between rays."""
        products()
        # delta_k: the step of a sum when digit k rises and those after it
        # wrap from p - 1 to 0
        delta, table_delta = (
            [x - (p - 1) * sum(xs[k + 1:]) for k, x in enumerate(xs)]
            for xs in (packed, table)
        )
        for i in range(d):
            yield (0,) * i + (1,) + (0,) * (d - i - 1), packed[i], table[i]
        for lead in range(d - 1):
            a = [0] * d
            a[lead] = 1
            U, W = packed[lead], table[lead]
            for _ in range(p ** (d - lead - 1) - 1):
                k = d - 1
                while a[k] == p - 1:
                    a[k] = 0
                    k -= 1
                a[k] += 1
                U += delta[k]
                W += table_delta[k]
                yield a, U, W

    def walk():
        """(checked, a, rows) at each failing ray, in the scan order."""
        for checked, (a, U, W) in enumerate(rays(), 1):
            rows = failing_rows(a, U, W)
            if rows is not None:
                yield checked, tuple(a), rows

    return _RayKernel(failing_rows, walk)


def is_prime(A: Algebra, budget: int = _RAY_BUDGET, samples: int = 50,
             seed: int = 0) -> PrimeReport:
    """Theorem-style primality: a R b = 0 forces a = 0 or b = 0.

    Exhaustive over GF(p), one representative a per scalar ray: the b with
    aRb = 0 are those with yb = 0 for all y in aR, the column space of L_a.
    A ray with rank L_a = d has aR = R and passes at once; otherwise the
    stacked L_{a e_t} over the pivot columns t of L_a must have rank d.
    The rays are walked in the order of ``_packed_ray_test``: basis vectors
    first, then per leading 1 the tails in ``product`` order, each ray's
    packed L_a and L_{a e_t} table stepped from the last by one carry
    delta.  Over Q the loop is sampled, so "no witness" is undecided.  Each
    sample a (int coordinates) first runs the same packed test mod the
    fixed prime _CERT_PRIME on the int operators over A._den: a pass there
    is exact, since an int matrix has at least its rank mod p over Q.
    Only a sample that fails mod p gets the exact stacked test on int rows
    over Q (``_sampled_kernel``), so the report is the one the exact test
    alone gives.
    Char-3 rings get a torsion warning: the equivalence with ideal-primality
    needs 3-torsion-freeness.
    """
    # warn before the cache lookup: a warm cache must not silence this
    if A.field.characteristic == 3:
        warnings.warn(
            "primality loop on a char-3 ring: the ideal-theoretic equivalence "
            "assumes 3-torsion-freeness",
            stacklevel=2,
        )
    key = ("is_prime", budget, samples, seed)
    if key in A._prime_cache:
        return A._prime_cache[key]
    report = _is_prime_uncached(A, budget, samples, seed)
    A._prime_cache[key] = report
    return report


def _first_kernel_witness(A: Algebra, a, rows) -> tuple:
    """b = a when a kills itself (rows . a = 0 mod p); else the null vector of
    rows that is 1 at the first free column of their RREF, 0 at the others."""
    F = A.field
    if not any(sum(r * x for r, x in zip(row, a)) % F.p for row in rows):
        return tuple(a)
    acc = echelon(F, A.dim)
    for row in rows:
        acc.add(row)
    return tuple(F.coerce(v) for v in kernel_vectors(F, A.dim, acc)[0])


def _sampled_kernel(A: Algebra, a) -> Subspace | None:
    """{b : (a r) b = 0 for all r} over Q for int coordinates a, or None when
    it is zero: the null space of the stacked L_y over the columns y of the
    int L_a, which span aR."""
    d = A.dim
    acc = echelon(A.field, d)
    for y in zip(*A.mult_ints(a, "left")):
        if any(y):
            for row in A.mult_ints(y, "left"):
                acc.add(row)
            if acc.rank == d:
                return None
    return null_space(A.field, d, acc)


def _is_prime_uncached(A: Algebra, budget: int, samples: int, seed: int) -> PrimeReport:
    F = A.field
    d = A.dim
    if F.is_finite:
        p = F.p
        rays = (p ** d - 1) // (p - 1)
        if rays > budget:
            raise BudgetError(f"{rays} rays exceed the primality budget {budget}")
        failing = next(_packed_ray_test(A, p).walk(), None)
        if failing is not None:
            checked, a, rows = failing
            return PrimeReport(
                status=Verdict.FAILS,
                mode="exhaustive",
                checked=checked,
                witness=(a, _first_kernel_witness(A, a, rows)),
                detail="a R b = 0 with both nonzero",
            )
        return PrimeReport(
            status=Verdict.HOLDS,
            mode="exhaustive",
            checked=rays,
            detail=f"all {rays} rays have trivial annihilator",
        )

    rng = random.Random(seed)
    failing_rows = _packed_ray_test(A, _CERT_PRIME).failing_rows
    checked = 0
    for _ in range(samples):
        a = [rng.randint(-9, 9) for _ in range(d)]
        if not any(a):
            continue
        checked += 1
        if failing_rows([x % _CERT_PRIME for x in a]) is None:
            continue
        ker = _sampled_kernel(A, a)
        if ker is not None:
            return PrimeReport(
                status=Verdict.FAILS,
                mode="sampled",
                checked=checked,
                witness=(F.from_ints(a), ker.basis[0]),
                detail="a R b = 0 with both nonzero",
            )
    return PrimeReport(
        status=Verdict.UNDECIDED,
        mode="sampled",
        checked=checked,
        detail=f"no witness among {checked} random samples; not exhaustive over Q",
    )
