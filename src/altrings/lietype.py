"""Nested-commutator identities, derivation spaces, and the delta + tau split.

The n-th nested commutator is p(x1, ..., xn) = [p(x1, ..., x_{n-1}), xn].
A linear map D is a Lie-n derivation when

    D(p(x1..xn)) = sum_t p(x1, ..., D(x_t), ..., xn)        (identity L)

for all arguments.  Both sides are multilinear for linear D, so basis
tuples give a complete system of linear constraints, built by the
recurrence of ``finite``: with acc_k = sum_{t<=k} p(..., D(x_t), ..., xk),

    p_{k+1} = [p_k, x],    acc_{k+1} = [acc_k, x] + [p_k, D(x)],

and identity L at a tuple reads D(p_n) = acc_n.  A step is linear in the
state (p_k, acc_k), and so is D(p_n) - acc_n, so a basis of the span of
the states of all (n-1)-tuples gives the constraints of all d^n tuples;
[x, y] = -[y, x] halves the first step.  Every constraint row is built
as ints from the structure constants (``Algebra.bracket_table``,
``leibniz_rows``), and the solution spaces are the null spaces of the
eliminator the rows are streamed through.  The decomposition splits such
a D into a derivation delta plus a central-valued tau vanishing on all
nested-commutator values, following the constructive uniqueness argument
at one idempotent: tau is read off the images of the diagonal Peirce
components, delta = D - tau, and the claims of the theorem are certified
on the result.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraError,
    LinearMap,
    commutator,
    find_unit,
    is_derivation,
    leibniz_rows,
)
from .linalg import Matrix, Subspace, echelon, null_space, row_space, solve
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


def nested_commutator_span(A: Algebra, n: int) -> Subspace:
    """Span W_n of p(e_{i1}, ..., e_{in}) over all basis tuples.

    By the recurrence above p_{k+1} = [p_k, x] is linear in p_k, so W_1 = A
    and W_{k+1} is spanned by the brackets K_j w = [w, e_j] for w in a basis
    of W_k: n - 1 levels of at most d^2 int rows, one eliminator per level.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = A.dim
    F = A.field
    K = A.bracket_table()
    acc = echelon(F, d)
    for i in range(d):
        acc.add([int(i == j) for j in range(d)])
    for _ in range(n - 1):
        level, acc = list(acc.pivots.values()), echelon(F, d)
        for w in level:
            for Kj in K:
                acc.add([sum(c * w[a] for a, c in terms) for terms in Kj])
    return row_space(F, d, acc)


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
        coeffs = [[rng.randint(-4, 4) for _ in range(self.dim)]]
        flat = Matrix(self.algebra.field, coeffs) @ self.space.basis_matrix()
        return LinearMap.from_vector(self.algebra, flat.rows[0])

    def __repr__(self):
        label = "derivations" if self.n is None else f"Lie-{self.n} derivations"
        return f"OperatorSpace({label}, dim={self.dim})"


def derivation_space(A: Algebra) -> OperatorSpace:
    """All linear maps with delta(xy) = delta(x)y + x delta(y) (Leibniz)."""
    dd = A.dim * A.dim
    acc = echelon(A.field, dd)
    for row in leibniz_rows(A):
        acc.add(row)
    return OperatorSpace(A, null_space(A.field, dd, acc), n=None)


def lie_n_derivation_space(A: Algebra, n: int) -> OperatorSpace:
    """Solution space of identity L over all basis tuples of length n.

    A state (p_k, Acc), acc_k = Acc vec(D) in the order of
    ``LinearMap.to_vector``, is one int row of width d + d^3.  A step by
    e_j maps p to K_j p and Acc to K_j Acc plus L_p - R_p in the columns of
    D(e_j), with K_j : v -> [v, e_j] from ``Algebra.bracket_table`` (so a
    step scales the state by A._den).  Since [x, y] = -[y, x], the state of
    (j, i) is minus that of (i, j) and the state of (i, i) is 0, so the
    first step takes only the pairs i < j.  Levels 2 .. n-1 keep the
    eliminated basis of the steps of the last level's basis, at most
    d + d^3 states; the states of length n give the rows D(p_n) - acc_n = 0
    straight into the d^2-wide eliminator, so the cost is linear in n.
    """
    if n < 2:
        raise ValueError("Lie-type spaces start at n = 2")
    d = A.dim
    dd = d * d
    F = A.field
    K = A.bracket_table()

    def steps(s, js):
        p = s[:d]
        acc_rows = [s[d + a * dd:d + (a + 1) * dd] for a in range(d)]
        # K_a p = [p, e_a] is both the next p and column a of L_p - R_p
        ps = [[sum(c * p[a] for a, c in terms) for terms in Kj] for Kj in K]
        for j in js:
            out = list(ps[j])
            for m, terms in enumerate(K[j]):
                row = [0] * dd
                for a, c in terms:
                    row = [x + c * y for x, y in zip(row, acc_rows[a])]
                row[j::d] = [x + q[m] for x, q in zip(row[j::d], ps)]
                out += row
            yield out

    level = [[0] * (d + d * dd) for _ in range(d)]  # p_1 = e_i, acc_1 = D(e_i)
    for i, s in enumerate(level):
        s[i] = 1
        for m in range(d):
            s[d + m * dd + m * d + i] = 1
    states = (t for i, s in enumerate(level) for t in steps(s, range(i + 1, d)))
    for _ in range(n - 2):
        span = echelon(F, d + d * dd)
        for t in states:
            span.add(t)
        # latest pivot first: the rows past column d have p_k = 0, so their
        # steps carry no L_p - R_p term, and the next eliminator started on
        # them keeps smaller integers
        level = [span.pivots[c] for c in sorted(span.pivots, reverse=True)]
        states = (t for s in level for t in steps(s, range(d)))
    acc = echelon(F, dd)
    for t in states:
        for m in range(d):
            row = t[d + m * dd:d + (m + 1) * dd]
            row[m * d:(m + 1) * d] = [x - y for x, y in zip(row[m * d:(m + 1) * d], t)]
            acc.add(row)
    return OperatorSpace(A, null_space(F, dd, acc), n=n)


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

    return null_space(F, d * d, acc)


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
    """D = delta + tau with delta a derivation absorbing the normalizer.

    Only a fully certified split is returned: each failed check in
    ``decompose`` raises DecompositionError instead.
    """

    delta: LinearMap
    tau: LinearMap
    normalizer: LinearMap


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
    normalizer f; re-certify (a),(b),(c) on D' = D - f; for each basis
    vector a of R11 and of R22, require D'(a) to have no off-diagonal part
    and solve for the unique central z whose action on the other diagonal
    component is that part of D'(a); read tau off these values through the
    pivot rows of pi11 and pi22; set delta = D - tau, so delta absorbs f
    and delta + tau = D by construction; certify the Leibniz rule for
    delta, central values of tau, and tau's vanishing on the span of
    nested-commutator values.

    Raises DecompositionError whose ``certificate`` names the first
    failing step: ring_conditions, condition_a/b/c, central_normalization,
    condition_*_normalized, no_central_solution, non_unique_z,
    leibniz_failure, tau_not_central, tau_pn_nonzero.
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

    # tau sends each basis vector a of R11 (of R22) to the unique central z_a
    # with z_a e2 = pi22 D'(a) (with z_a e1 = pi11 D'(a)) and kills R12 + R21.
    # A component basis is in RREF, so the coordinate of pi_ii x along a is
    # the entry of pi_ii x at a's pivot column: tau is the sum over a of the
    # column z_a times that row of pi_ii.
    values: list[tuple] = []
    coordinates: list[tuple] = []
    for slot, other, side in (((1, 1), (2, 2), 2), ((2, 2), (1, 1), 1)):
        pi_rows = ctx.projections[slot].matrix.rows
        for a in ctx.components[slot].basis:
            img = Dp.apply_coords(a)
            for off in ((1, 2), (2, 1)):
                part = ctx.projections[off].apply_coords(img)
                if any(not F.is_zero(v) for v in part):
                    raise DecompositionError(
                        "no_central_solution",
                        "diagonal image has an off-diagonal component; "
                        "the identity hypotheses fail upstream",
                    )
            other_part = ctx.projections[other].apply_coords(img)
            values.append(_solve_central_action(ctx, side, other_part))
            pivot = next(j for j, v in enumerate(a) if not F.is_zero(v))
            coordinates.append(pi_rows[pivot])
    tau = LinearMap(A, Matrix.from_columns(F, values) @ Matrix(F, coordinates))
    delta = D - tau

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

    return Decomposition(delta=delta, tau=tau, normalizer=f)


def fosner_inclusion(A: Algebra, n: int, k: int) -> bool:
    """Whether the Lie-n space sits inside the Lie-(n + k(n-1)) space."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return True
    m = n + k * (n - 1)
    small = lie_n_derivation_space(A, n)
    large = lie_n_derivation_space(A, m)
    return large.contains_space(small)
