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

from .algebra import (
    Algebra,
    AlgebraElement,
    BudgetError,
    LinearMap,
    basis_points,
    center,
    is_idempotent,
)
from .linalg import Matrix, Subspace, echelon, kernel_vectors, null_space, rank, row_space
from .verdict import ConditionVerdict, Verdict


class PeirceError(ValueError):
    """Context construction failure; kind names the broken precondition."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


_SLOTS = ((1, 1), (1, 2), (2, 1), (2, 2))
_RAY_BUDGET = 2 ** 17  # rays of a primality or condition (4) enumeration


@dataclass(frozen=True)
class PeirceContext:
    """Validated Peirce data at one idempotent."""

    algebra: Algebra
    e1: tuple
    projections: dict
    components: dict
    center: Subspace

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return tuple(self.components[s].dim for s in _SLOTS)

    def projection(self, i: int, j: int) -> LinearMap:
        return self.projections[(i, j)]

    def component(self, i: int, j: int) -> Subspace:
        return self.components[(i, j)]

    def component_part(self, x, i: int, j: int) -> tuple:
        """Coordinates of the R_ij part of x."""
        coords = x.coords if isinstance(x, AlgebraElement) else tuple(x)
        return self.projections[(i, j)].apply_coords(coords)


def _column_space(m: Matrix) -> Subspace:
    """The span of the columns of m, folded from its int form."""
    acc = echelon(m.field, m.nrows)
    for column in zip(*m.int_form()[0]):
        acc.add(column)
    return row_space(m.field, m.nrows, acc)


def peirce_context(A: Algebra, e1) -> PeirceContext:
    """Build and validate the four projections and components at e1."""
    coords = A._coerce_coords(e1)
    check = is_idempotent(A, coords)
    if not check.idempotent:
        raise PeirceError("not_idempotent", "e1 does not satisfy e1*e1 = e1 (or is zero)")
    if not check.nontrivial:
        raise PeirceError("trivial_idempotent", "e1 is the multiplicative identity")

    F = A.field
    d = A.dim
    L1 = A.left_mult_matrix(coords)
    R1 = A.right_mult_matrix(coords)
    ident = Matrix.identity(F, d)

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
        (1, 2): L1 - LR,  # L1 (1 - R1)
        (2, 1): R1 - LR,  # (1 - L1) R1
        (2, 2): ident - L1 - R1 + LR,  # (1 - L1)(1 - R1)
    }
    components = {s: _column_space(m) for s, m in pi.items()}

    projections = {s: LinearMap(A, m) for s, m in pi.items()}
    return PeirceContext(
        algebra=A,
        e1=coords,
        projections=projections,
        components=components,
        center=center(A),
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
    decide them.  x^2 = 0 is quadratic, so it is checked at the points
    b_a and b_a + b_c of each off-diagonal component basis, which decides
    it in every characteristic (see algebra.basis_points); the first
    failing point of a component is its violation.
    """
    A = ctx.algebra
    F = A.field
    violations = []

    def basis_of(s):
        return ctx.components[s].basis

    # (composition) R_ij R_jl inside R_il
    composition = True
    for i in (1, 2):
        for j in (1, 2):
            for l in (1, 2):
                target = ctx.components[(i, l)]
                for x in basis_of((i, j)):
                    for y in basis_of((j, l)):
                        prod = A.mul_coords(x, y)
                        if not target.contains(prod):
                            composition = False
                            violations.append(RelationViolation(
                                "composition", (i, j, l), prod,
                                f"R{i}{j}*R{j}{l} escapes R{i}{l}",
                            ))

    # (same component) R_ij R_ij inside R_ji
    same_component = True
    for i in (1, 2):
        for j in (1, 2):
            target = ctx.components[(j, i)]
            for x in basis_of((i, j)):
                for y in basis_of((i, j)):
                    prod = A.mul_coords(x, y)
                    if not target.contains(prod):
                        same_component = False
                        violations.append(RelationViolation(
                            "same_component", (i, j), prod,
                            f"R{i}{j}*R{i}{j} escapes R{j}{i}",
                        ))

    # (orthogonality) R_ij R_kl = 0 for j != k and (i,j) != (k,l)
    orthogonality = True
    for (i, j) in _SLOTS:
        for (k, l) in _SLOTS:
            if j == k or (i, j) == (k, l):
                continue
            for x in basis_of((i, j)):
                for y in basis_of((k, l)):
                    prod = A.mul_coords(x, y)
                    if any(not F.is_zero(v) for v in prod):
                        orthogonality = False
                        violations.append(RelationViolation(
                            "orthogonality", (i, j, k, l), prod,
                            f"R{i}{j}*R{k}{l} is nonzero",
                        ))

    # (square free) x^2 = 0 for x in an off-diagonal component
    square_free = True
    for (i, j) in ((1, 2), (2, 1)):
        for vec in basis_points(F, basis_of((i, j))):
            sq = A.mul_coords(vec, vec)
            if any(not F.is_zero(v) for v in sq):
                square_free = False
                violations.append(RelationViolation(
                    "square_free", (i, j), sq,
                    f"square of ({', '.join(map(F.format, vec))}) is nonzero",
                ))
                break

    return PeirceRelationsReport(
        composition=composition,
        same_component=same_component,
        orthogonality=orthogonality,
        square_free=square_free,
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
        [x - y for x, y in zip(r, l)] for b in ctx.components[slot].basis
        for r, l in zip(A.mult_ints(b, "right")[0], A.mult_ints(b, "left")[0])
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
    # x*b = 0 (side right: R_b x = 0) or b*x = 0 (left: L_b x = 0) for every b
    ann = domain.killed_by(row for b in others.basis for row in A.mult_ints(b, side)[0])
    if ann.is_zero():
        return ConditionVerdict(Verdict.HOLDS, f"{label}: annihilator is zero")
    return ConditionVerdict(
        Verdict.FAILS,
        f"{label}: annihilator has dim {ann.dim}",
        witness=ann.basis[0],
    )


def check_conditions_1_to_4(ctx: PeirceContext) -> ConditionsReport:
    """Decide conditions (1)-(4); (4) may be undecided over an infinite field."""
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
            # L_{cz} = c L_z, so each ray is decided by its first vector in
            # the enumeration, the one whose first nonzero coordinate is 1
            bad = next((z for z in Z.vectors() if next((v for v in z if v), 0) == 1
                        and rank(A.left_mult_matrix(z)) != d), None)
            if bad is None:
                entries["4"] = ConditionVerdict(
                    Verdict.HOLDS, "all nonzero central z have zR = R (enumerated)"
                )
            else:
                entries["4"] = ConditionVerdict(
                    Verdict.FAILS, "central z with zR != R", witness=bad
                )
    elif Z.dim == 1:  # L_{c z0} = c L_{z0}: one rank decides every nonzero z
        z0 = Z.basis[0]
        if rank(A.left_mult_matrix(z0)) == d:
            # "invertible" here means L_{z0} is, i.e. z0 R = R; the README
            # example and the benchmark oracle pin this text byte for byte
            entries["4"] = ConditionVerdict(
                Verdict.HOLDS,
                "dim Z = 1 and the central generator is invertible",
            )
        else:
            entries["4"] = ConditionVerdict(
                Verdict.FAILS, "the central generator is a zero divisor", witness=z0
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


def _ray_representatives(A: Algebra):
    """Nonzero vectors up to scale: basis vectors first, then by leading slot."""
    from itertools import product as iter_product

    F = A.field
    d = A.dim
    one, zero = F.one, F.zero
    basis = []
    for i in range(d):
        vec = [zero] * d
        vec[i] = one
        vec = tuple(vec)
        basis.append(vec)
        yield vec
    seen = set(basis)
    for lead in range(d):
        tail = d - lead - 1
        for rest in iter_product(F.elements(), repeat=tail):
            vec = (zero,) * lead + (one,) + rest
            if vec not in seen:
                yield vec


def _first_failing_ray(A: Algebra, p: int):
    """(rays checked, a, rows) at the first ray a with aRb = 0 for some b != 0.

    {b : (a r) b = 0 for all r} depends only on aR, the column space of
    L_a, so a ray costs one rank test of L_a and, when that falls short of
    d, one rank test of the stacked L_y for a basis y of aR.  rank L_a = d
    passes at once: then aR = R, and Rb = 0 would put b in ker L_a = 0.
    Operators are ints of w-bit slots, entry (k, j) of a d-column matrix
    at slot k*d + j; no slot exceeds V before one SWAR Barrett step
    reduces them all mod p.  The rows returned span the constraints on b;
    a is None when every ray passes.
    """
    d = A.dim
    # a slot holds at most a sum of d products c*c' (operator) or
    # v*x + (p - c)*y (pivot_shifts), with all of c, c', v, x, y below p
    V = max(d * (p - 1) ** 2, (2 * p - 1) * (p - 1))
    b = V.bit_length()
    s = b + p.bit_length()
    w = b + s
    rw = w * d  # one row
    m = (1 << s) // p + 1
    digit = (1 << w) - 1
    qmask = sum(((1 << b) - 1) << (w * k) for k in range(d ** 3))
    column = sum(digit << (rw * k) for k in range(d * d))
    p_column = [sum(p << (rw * k) for k in range(n)) for n in range(d * d + 1)]
    packed = [
        sum(c << (w * (k * d + j)) for j in range(d) for k, c in A._pairs[i][j])
        for i in range(d)
    ]

    def reduce(x):
        # per slot x - p*floor(x/p): exact below 2**b, where m's excess over
        # 2**s / p costs less than 1/p in the quotient
        return x - p * (((x * m) >> s) & qmask)

    def operator(y):
        """L_y with every entry in 0..p-1."""
        return reduce(sum(c * packed[i] for i, c in enumerate(y) if c))

    def pivot_shifts(M, nrows):
        """Bit offsets of the pivot columns of M, up to d of them.

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
            M = reduce(M * v + (p_column[nrows] - ((M >> shift) & column)) * prow)
        return shifts

    checked = 0
    for a in _ray_representatives(A):
        checked += 1
        left = operator(a)
        shifts = pivot_shifts(left, d)
        if len(shifts) == d:
            continue
        stack = 0  # L_y for y = a e_t at the pivot columns t
        for i, shift in enumerate(shifts):
            y = [(left >> (rw * k + shift)) & digit for k in range(d)]
            stack |= operator(y) << (rw * d * i)
        nrows = d * len(shifts)
        if len(pivot_shifts(stack, nrows)) < d:
            return checked, a, [[(stack >> (rw * k + w * j)) & digit for j in range(d)]
                                for k in range(nrows)]
    return checked, None, None


def is_prime(A: Algebra, budget: int = _RAY_BUDGET, samples: int = 50,
             seed: int = 0) -> PrimeReport:
    """Theorem-style primality: a R b = 0 forces a = 0 or b = 0.

    Exhaustive over GF(p), one representative a per scalar ray: the b with
    aRb = 0 are those with yb = 0 for all y in aR, the column space of L_a.
    A ray with rank L_a = d has aR = R and passes at once; otherwise the
    stacked L_y over a basis y of aR must have rank d.  Over Q the loop is
    sampled, so "no witness" is undecided.
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


def _is_prime_uncached(A: Algebra, budget: int, samples: int, seed: int) -> PrimeReport:
    F = A.field
    d = A.dim
    if F.is_finite:
        p = F.p
        rays = (p ** d - 1) // (p - 1)
        if rays > budget:
            raise BudgetError(f"{rays} rays exceed the primality budget {budget}")
        checked, a, rows = _first_failing_ray(A, p)
        if a is not None:
            return PrimeReport(
                status=Verdict.FAILS,
                mode="exhaustive",
                checked=checked,
                witness=(tuple(a), _first_kernel_witness(A, a, rows)),
                detail="a R b = 0 with both nonzero",
            )
        return PrimeReport(
            status=Verdict.HOLDS,
            mode="exhaustive",
            checked=checked,
            detail=f"all {checked} rays have trivial annihilator",
        )

    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        a = tuple(F.coerce(rng.randint(-9, 9)) for _ in range(d))
        if all(F.is_zero(v) for v in a):
            continue
        checked += 1
        acc = echelon(F, d)
        full = False
        for t in range(d):
            y = A.mul_coords(a, A.basis_element(t).coords)
            if all(F.is_zero(v) for v in y):
                continue
            for row in A.left_mult_matrix(y).int_form()[0]:
                acc.add(row)
            if acc.rank == d:
                full = True
                break
        if not full:
            ker = null_space(F, d, acc)
            if not ker.is_zero():
                return PrimeReport(
                    status=Verdict.FAILS,
                    mode="sampled",
                    checked=checked,
                    witness=(a, ker.basis[0]),
                    detail="a R b = 0 with both nonzero",
                )
    return PrimeReport(
        status=Verdict.UNDECIDED,
        mode="sampled",
        checked=checked,
        detail=f"no witness among {checked} random samples; not exhaustive over Q",
    )
