"""Nested-commutator identities, derivation spaces, and the delta + tau split.

The n-th nested commutator is p(x1, ..., xn) = [p(x1, ..., x_{n-1}), xn].
A linear map D is a Lie-n derivation when

    D(p(x1..xn)) = sum_t p(x1, ..., D(x_t), ..., xn)        (identity L)

for all arguments.  Both sides are multilinear for linear D, so basis
tuples give a complete system of linear constraints; the solution spaces
are computed by streaming the constraint rows through the incremental
eliminator.  The decomposition splits such a D into a derivation delta
plus a central-valued tau vanishing on all nested-commutator values,
following the constructive uniqueness argument at one idempotent.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from math import lcm

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraError,
    BudgetError,
    LinearMap,
    commutator,
    find_unit,
    is_derivation,
    mul_operator,
)
from .linalg import Matrix, Subspace, echelon, kernel, solve
from .peirce import PeirceContext, check_conditions_1_to_4
from .verdict import ConditionVerdict, Verdict


def nested_commutator(A: Algebra, xs) -> AlgebraElement:
    """Left-nested iterated commutator [..[[x1,x2],x3].., xn]; p_1(x) = x."""
    xs = list(xs)
    if not xs:
        raise ValueError("nested commutator needs at least one argument")
    acc = xs[0]
    if acc.algebra is not A:
        raise AlgebraError("arguments must belong to the given algebra")
    for x in xs[1:]:
        acc = commutator(acc, x)
    return acc


def lie_leibniz_residual(A: Algebra, D, xs) -> AlgebraElement:
    """D(p(xs)) minus the sum over slots of p(..., D(x_t), ...).

    Zero iff identity L holds at this tuple.  D may be any callable on
    elements (a LinearMap or a finite value table).
    """
    xs = list(xs)
    lhs = D(nested_commutator(A, xs))
    rhs = A.zero()
    for t in range(len(xs)):
        replaced = xs[:t] + [D(xs[t])] + xs[t + 1:]
        rhs = rhs + nested_commutator(A, replaced)
    return lhs - rhs


def nested_commutator_span(A: Algebra, n: int, budget: int = 10 ** 6) -> Subspace:
    """Span of p(e_{i1}, ..., e_{in}) over all basis tuples."""
    if n < 1:
        raise ValueError("n must be at least 1")
    d = A.dim
    if d ** n > budget:
        raise BudgetError(f"{d ** n} tuples exceed budget {budget}")
    F = A.field
    acc = echelon(F, d)
    basis = [A.basis_element(i).coords for i in range(d)]

    def bracket(v, j):
        return tuple(
            F.sub(a, b)
            for a, b in zip(A.mul_coords(v, basis[j]), A.mul_coords(basis[j], v))
        )

    def walk(value, depth):
        if depth == n:
            acc.add(value)
            return
        for j in range(d):
            walk(bracket(value, j), depth + 1)

    for i in range(d):
        walk(basis[i], 1)
    return Subspace(F, d, acc.rref_rows())


class OperatorSpace:
    """A linear space of maps on A, held as a subspace of d*d vectors."""

    def __init__(self, algebra: Algebra, space: Subspace, n: int | None = None):
        self.algebra = algebra
        self.space = space
        self.n = n

    @property
    def dim(self) -> int:
        return self.space.dim

    def maps(self) -> list[LinearMap]:
        return [
            LinearMap.from_vector(self.algebra, row) for row in self.space.basis
        ]

    def contains(self, D: LinearMap) -> bool:
        return self.space.contains(D.to_vector())

    def contains_space(self, other: "OperatorSpace") -> bool:
        return self.space.contains_subspace(other.space)

    def random_member(self, rng: random.Random) -> LinearMap:
        """A small random integer combination of the basis maps."""
        coeffs = [[rng.randint(-4, 4) for _ in self.space.basis]]
        flat = Matrix(self.algebra.field, coeffs) @ self.space.basis_matrix()
        return LinearMap.from_vector(self.algebra, flat.rows[0])

    def revalidate(self, samples: int = 50, seed: int = 0) -> bool:
        """Spot-check identity L for every basis map at random tuples."""
        if self.n is None:
            return True
        rng = random.Random(seed)
        A = self.algebra
        zero = A.zero()
        for D in self.maps():
            for _ in range(max(1, samples // max(1, self.dim))):
                xs = [
                    A.element([rng.randint(-3, 3) for _ in range(A.dim)])
                    for _ in range(self.n)
                ]
                if lie_leibniz_residual(A, D, xs) != zero:
                    return False
        return True

    def __repr__(self):
        label = "derivations" if self.n is None else f"Lie-{self.n} derivations"
        return f"OperatorSpace({label}, dim={self.dim})"


def derivation_space(A: Algebra) -> OperatorSpace:
    """All linear maps with delta(xy) = delta(x)y + x delta(y) (Leibniz)."""
    d = A.dim
    F = A.field
    acc = echelon(F, d * d)
    # every constant is an int over the same A._den: drop that common scale
    num = A._num
    for i in range(d):
        for j in range(d):
            prod = num[i][j]
            for m in range(d):
                row = [0] * (d * d)
                row[m * d:(m + 1) * d] = prod
                for a in range(d):
                    row[a * d + i] -= num[a][j][m]
                for b in range(d):
                    row[b * d + j] -= num[i][b][m]
                acc.add(row)
    space = kernel(Matrix(F, acc.rref_rows(), ncols=d * d))
    return OperatorSpace(A, space, n=None)


def lie_n_derivation_space(A: Algebra, n: int, n_max: int = 5,
                           budget: int = 10 ** 6) -> OperatorSpace:
    """Solution space of identity L over all basis tuples of length n.

    Constraint rows are generated tuple-by-tuple during a depth-first
    walk (prefix commutator values and bracket operators are shared along
    the walk; suffix operator products are memoised) and folded straight
    into the eliminator, keeping memory at O(d^4).
    """
    if n < 2:
        raise ValueError("Lie-type spaces start at n = 2")
    if n > n_max:
        raise ValueError(f"n = {n} exceeds n_max = {n_max}")
    d = A.dim
    if d ** n > budget:
        raise BudgetError(f"{d ** n} basis tuples exceed budget {budget}")
    F = A.field

    # bracket-by-basis operators K_j : v -> [v, e_j]
    K = [
        A.basis_right_matrix(j) - A.basis_left_matrix(j)
        for j in range(d)
    ]
    ident = Matrix.identity(F, d)

    # suffix[s] = composition applying K_{s[0]} first, then the rest
    suffix: dict[tuple, Matrix] = {(): ident}

    def suffix_op(s: tuple) -> Matrix:
        m = suffix.get(s)
        if m is None:
            m = suffix_op(s[1:]) @ K[s[0]]
            suffix[s] = m
        return m

    basis = [A.basis_element(i).coords for i in range(d)]
    acc = echelon(F, d * d)

    def bracket_matrix(v) -> Matrix | None:
        # L_v - R_v, or None when v = 0 (contributions vanish)
        if all(F.is_zero(x) for x in v):
            return None
        return A.left_mult_matrix(v) - A.right_mult_matrix(v)

    def emit(indices: tuple, prefixes: list, brackets: list):
        """Fold the d constraint rows of one basis tuple."""
        slot_ops = []
        for t in range(1, n + 1):
            if t == 1:
                op = suffix_op(indices[1:])
            else:
                B = brackets[t - 2]
                if B is None:
                    continue
                op = suffix_op(indices[t:]) @ B
            slot_ops.append((indices[t - 1], *op.int_form()))
        w, w_den = F.to_ints(prefixes[-1])
        if not any(w) and not slot_ops:
            return
        # the rows are built as ints over one common denominator
        den = lcm(w_den, *[op_den for _, _, op_den in slot_ops])
        w = [wk * (den // w_den) for wk in w]
        for m in range(d):
            row = [0] * (d * d)
            row[m * d:(m + 1) * d] = w
            for col, op_rows, op_den in slot_ops:
                scale = den // op_den
                for a, c in enumerate(op_rows[m]):
                    if c:
                        row[a * d + col] -= c * scale
            acc.add(row)

    def walk(indices: tuple, prefixes: list, brackets: list):
        if len(indices) == n:
            emit(indices, prefixes, brackets)
            return
        v = prefixes[-1]
        brackets = brackets + [bracket_matrix(v)]
        for j in range(d):
            nxt = K[j].apply(v)
            walk(indices + (j,), prefixes + [nxt], brackets)

    for i in range(d):
        walk((i,), [basis[i]], [])

    space = kernel(Matrix(F, acc.rref_rows(), ncols=d * d))
    return OperatorSpace(A, space, n=n)


def standard_inner_derivation(A: Algebra, y, z) -> LinearMap:
    """f_{y,z} = [L_y, L_z] + [L_y, R_z] + [R_y, R_z]."""
    Ly = A.left_mult_matrix(y)
    Lz = A.left_mult_matrix(z)
    Ry = A.right_mult_matrix(y)
    Rz = A.right_mult_matrix(z)

    def br(p, q):
        return p @ q - q @ p

    return LinearMap(A, br(Ly, Lz) + br(Ly, Rz) + br(Ry, Rz))


def _central_action_vectors(ctx: PeirceContext, side: int) -> list[tuple]:
    """z e1 (side 1) or z e2 = z - z e1 (side 2) for each z in the Z basis."""
    A = ctx.algebra
    F = A.field
    vectors = []
    for z in ctx.center.basis:
        ze1 = A.mul_coords(z, ctx.e1)
        if side == 1:
            vectors.append(ze1)
        else:
            vectors.append(tuple(F.sub(a, b) for a, b in zip(z, ze1)))
    return vectors


def _z_action_space(ctx: PeirceContext, side: int) -> Subspace:
    """span{z e1} (side 1) or span{z e2 = z - z e1} (side 2) over a Z basis."""
    A = ctx.algebra
    return Subspace.from_vectors(A.field, A.dim, _central_action_vectors(ctx, side))


@dataclass(frozen=True)
class AbcReport:
    """Verdicts for the three map-side hypotheses at one idempotent."""

    a: ConditionVerdict
    b: ConditionVerdict
    c: ConditionVerdict

    @property
    def all_hold(self) -> bool:
        return all(
            v.status is Verdict.HOLDS for v in (self.a, self.b, self.c)
        )


def check_conditions_abc(ctx: PeirceContext, D: LinearMap) -> AbcReport:
    """(a) pi22 D(R11) in Z e2; (b) pi11 D(R22) in Z e1; (c) D(R_ij) in R_ij."""
    A = ctx.algebra

    def diag_check(slot, pi_slot, action_side, label):
        target = _z_action_space(ctx, action_side)
        pi = ctx.projections[pi_slot]
        for a in ctx.components[slot].basis:
            img = pi.apply_coords(D.apply_coords(a))
            if not target.contains(img):
                return ConditionVerdict(
                    Verdict.FAILS,
                    f"{label}: projection escapes the central action space",
                    witness=(tuple(a), tuple(img)),
                )
        return ConditionVerdict(Verdict.HOLDS, label)

    a = diag_check((1, 1), (2, 2), 2, "e2 D(R11) e2 inside Z(R) e2")
    b = diag_check((2, 2), (1, 1), 1, "e1 D(R22) e1 inside Z(R) e1")

    c = ConditionVerdict(Verdict.HOLDS, "D(R12) inside R12 and D(R21) inside R21")
    for slot in ((1, 2), (2, 1)):
        comp = ctx.components[slot]
        for v in comp.basis:
            img = D.apply_coords(v)
            if not comp.contains(img):
                c = ConditionVerdict(
                    Verdict.FAILS,
                    f"D(R{slot[0]}{slot[1]}) escapes R{slot[0]}{slot[1]}",
                    witness=(tuple(v), tuple(img)),
                )
                break
        if c.status is Verdict.FAILS:
            break
    return AbcReport(a=a, b=b, c=c)


def conditions_abc_subspace(ctx: PeirceContext) -> Subspace:
    """All linear maps satisfying (a), (b), (c), as a subspace of d*d vectors."""
    A = ctx.algebra
    F = A.field
    d = A.dim
    acc = echelon(F, d * d)

    def add_membership_rows(source_vectors, post: Matrix | None, target: Subspace):
        # rows of: residual_target( post @ D @ a ) = 0, linear in D; each
        # row is the outer product lead[r] (x) a, built from the numerators
        res = target.residual_matrix()
        lead = res @ post if post is not None else res
        lead_rows = lead.int_form()[0]
        for a in source_vectors:
            a_ints = F.to_ints(a)[0]
            for lrow in lead_rows:
                row = [0] * (d * d)
                for m, cm in enumerate(lrow):
                    if cm:
                        row[m * d:(m + 1) * d] = [cm * ak for ak in a_ints]
                acc.add(row)

    add_membership_rows(
        ctx.components[(1, 1)].basis,
        ctx.projections[(2, 2)].matrix,
        _z_action_space(ctx, 2),
    )
    add_membership_rows(
        ctx.components[(2, 2)].basis,
        ctx.projections[(1, 1)].matrix,
        _z_action_space(ctx, 1),
    )
    add_membership_rows(ctx.components[(1, 2)].basis, None, ctx.components[(1, 2)])
    add_membership_rows(ctx.components[(2, 1)].basis, None, ctx.components[(2, 1)])

    return kernel(Matrix(F, acc.rref_rows(), ncols=d * d))


class NormalizationError(ValueError):
    """The subtracted inner map failed to make D(e1) central."""

    def __init__(self, certificate: str, message: str):
        super().__init__(message)
        self.certificate = certificate


def normalize_at_idempotent(ctx: PeirceContext, D: LinearMap):
    """Subtract f_{y,e1} with y the off-diagonal part of D(e1).

    Returns (D', f) with D' = D - f, certifying D'(e1) central and, when
    A has a unit (declared or solved), D'(unit - e1) central as well.
    """
    A = ctx.algebra
    F = A.field
    de1 = D.apply_coords(ctx.e1)
    y12 = ctx.projections[(1, 2)].apply_coords(de1)
    y21 = ctx.projections[(2, 1)].apply_coords(de1)
    y = tuple(F.add(a, b) for a, b in zip(y12, y21))
    f = standard_inner_derivation(A, y, ctx.e1)
    Dp = D - f
    if not ctx.center.contains(Dp.apply_coords(ctx.e1)):
        raise NormalizationError(
            "central_normalization",
            "D(e1) minus the inner correction is not central; "
            "the ring-side hypotheses fail upstream",
        )
    unit = find_unit(A)
    if unit is not None:
        e2 = tuple(F.sub(a, b) for a, b in zip(unit.coords, ctx.e1))
        if not ctx.center.contains(Dp.apply_coords(e2)):
            raise NormalizationError(
                "central_normalization_complement",
                "D(unit - e1) is not central after normalization",
            )
    return Dp, f


class DecompositionError(ValueError):
    """Decomposition pipeline failure; certificate names the broken step."""

    def __init__(self, certificate: str, message: str):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class Decomposition:
    """D = delta + tau with delta a derivation absorbing the normalizer."""

    delta: LinearMap
    tau: LinearMap
    normalizer: LinearMap
    leibniz_ok: bool
    tau_central_ok: bool
    tau_kills_pn_ok: bool
    conditions_abc_ok: bool


def _solve_central_action(ctx: PeirceContext, side: int, target) -> tuple:
    """The unique central z with z e_side-action equal to target."""
    A = ctx.algebra
    F = A.field
    Z = ctx.center
    if Z.dim == 0:
        if any(not F.is_zero(v) for v in target):
            raise DecompositionError(
                "no_central_solution",
                "diagonal image has a central part but the center is zero",
            )
        return (F.zero,) * A.dim
    m = Matrix.from_columns(F, _central_action_vectors(ctx, side))
    result = solve(m, target)
    if result is None:
        raise DecompositionError(
            "no_central_solution",
            "no central element reproduces the diagonal image "
            "(condition (a)/(b) violated)",
        )
    coeffs, ker = result
    if not ker.is_zero():
        raise DecompositionError(
            "non_unique_z",
            "central solution is not unique; the center is degenerate "
            "against conditions (2)/(3)",
        )
    return Matrix.from_columns(F, Z.basis).apply(coeffs)


def decompose(ctx: PeirceContext, D: LinearMap, n: int,
              check_ring_conditions: bool = True) -> Decomposition:
    """Split D into a derivation delta and a central tau killing p_n values.

    Pipeline: gate (a),(b),(c) on the input map; subtract the inner
    normalizer; re-certify (a),(b),(c); copy off-diagonal images into
    delta; split each diagonal image into an R_ii part plus a unique
    central z (tau value); certify the Leibniz rule, central values, and
    tau's vanishing on the span of nested-commutator values.

    Raises DecompositionError whose ``certificate`` names the first
    failing step: condition_a/b/c, ring_conditions, central_normalization,
    condition_*_normalized, no_central_solution, non_unique_z,
    leibniz_failure, tau_not_central, tau_pn_nonzero, sum_mismatch.
    """
    A = ctx.algebra
    F = A.field
    d = A.dim

    if check_ring_conditions:
        report = check_conditions_1_to_4(ctx)
        for key, verdict in report.entries.items():
            if verdict.status is Verdict.FAILS:
                raise DecompositionError(
                    "ring_conditions",
                    f"ring condition {key} fails: {verdict.detail}",
                )
            if verdict.status is Verdict.UNDECIDED:
                warnings.warn(
                    f"ring condition {key} undecided: {verdict.detail}",
                    stacklevel=2,
                )

    gate = check_conditions_abc(ctx, D)
    for name, verdict in (("a", gate.a), ("b", gate.b), ("c", gate.c)):
        if verdict.status is not Verdict.HOLDS:
            raise DecompositionError(
                f"condition_{name}", f"input map violates ({name}): {verdict.detail}"
            )

    try:
        Dp, f = normalize_at_idempotent(ctx, D)
    except NormalizationError as exc:
        raise DecompositionError(exc.certificate, str(exc)) from exc

    regate = check_conditions_abc(ctx, Dp)
    for name, verdict in (("a", regate.a), ("b", regate.b), ("c", regate.c)):
        if verdict.status is not Verdict.HOLDS:
            raise DecompositionError(
                f"condition_{name}_normalized",
                f"normalized map violates ({name}): {verdict.detail}",
            )

    # Build delta' and tau on a component-aligned basis, then convert.
    aligned: list[tuple] = []
    delta_images: list[tuple] = []
    tau_images: list[tuple] = []

    for slot, diag_side in (((1, 1), 2), ((2, 2), 1)):
        own_side = 1 if slot == (1, 1) else 2
        pi_own = ctx.projections[slot]
        pi_other = ctx.projections[(2, 2) if slot == (1, 1) else (1, 1)]
        off12 = ctx.projections[(1, 2)]
        off21 = ctx.projections[(2, 1)]
        for a in ctx.components[slot].basis:
            img = Dp.apply_coords(a)
            for off in (off12, off21):
                part = off.apply_coords(img)
                if any(not F.is_zero(v) for v in part):
                    raise DecompositionError(
                        "no_central_solution",
                        "diagonal image has an off-diagonal component; "
                        "the identity hypotheses fail upstream",
                    )
            z = _solve_central_action(ctx, diag_side, pi_other.apply_coords(img))
            z_own = A.mul_coords(z, ctx.e1)
            if own_side == 2:
                z_own = tuple(F.sub(p, q) for p, q in zip(z, z_own))
            own = pi_own.apply_coords(img)
            aligned.append(tuple(a))
            delta_images.append(tuple(F.sub(p, q) for p, q in zip(own, z_own)))
            tau_images.append(tuple(z))

    for slot in ((1, 2), (2, 1)):
        for a in ctx.components[slot].basis:
            aligned.append(tuple(a))
            delta_images.append(Dp.apply_coords(a))
            tau_images.append((F.zero,) * d)

    # convert from the aligned basis to the standard one
    P = Matrix.from_columns(F, aligned)
    P_inv = _invert(P)
    delta_p = LinearMap(A, Matrix.from_columns(F, delta_images) @ P_inv)
    tau = LinearMap(A, Matrix.from_columns(F, tau_images) @ P_inv)

    delta = delta_p + f

    if (delta + tau).matrix != D.matrix:
        raise DecompositionError(
            "sum_mismatch", "delta + tau does not reproduce D"
        )
    if not is_derivation(A, delta):
        raise DecompositionError(
            "leibniz_failure", "delta violates the Leibniz rule on a basis pair"
        )
    for j in range(d):
        if not ctx.center.contains(tau.matrix.column(j)):
            raise DecompositionError(
                "tau_not_central", "tau has a non-central value on a basis vector"
            )
    W = nested_commutator_span(A, n)
    for w in W.basis:
        if any(not F.is_zero(v) for v in tau.apply_coords(w)):
            raise DecompositionError(
                "tau_pn_nonzero",
                "tau does not vanish on the nested-commutator span",
            )

    return Decomposition(
        delta=delta,
        tau=tau,
        normalizer=f,
        leibniz_ok=True,
        tau_central_ok=True,
        tau_kills_pn_ok=True,
        conditions_abc_ok=True,
    )


def _invert(m: Matrix) -> Matrix:
    """The inverse of a square matrix, by one elimination of [m | I]."""
    F = m.field
    d = m.nrows
    acc = echelon(F, 2 * d)
    for i, row in enumerate(m.rows):
        acc.add(list(row) + [F.one if j == i else F.zero for j in range(d)])
    # [m | I] has rank d; m is invertible iff every pivot lies in the left half
    if acc.pivot_columns() != list(range(d)):
        raise ValueError("matrix is singular")
    return Matrix(F, [row[d:] for row in acc.rref_rows()], ncols=d)


def fosner_inclusion(A: Algebra, n: int, k: int, n_max: int = 12,
                     budget: int = 10 ** 6) -> bool:
    """Whether the Lie-n space sits inside the Lie-(n + k(n-1)) space."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return True
    m = n + k * (n - 1)
    small = lie_n_derivation_space(A, n, n_max=n_max, budget=budget)
    large = lie_n_derivation_space(A, m, n_max=n_max, budget=budget)
    return large.contains_space(small)
