"""Helpers shared by the test modules.

Maps, fixtures and algebras several modules use, basis changes that turn
a catalog algebra into a dense copy of itself, matrix inverses written
straight from Gauss-Jordan, the scalar strategies of the hypothesis
references, the eagerly reduced incremental eliminators over Q and over
GF(p) that ``linalg``'s one stepped, reduced-on-read eliminator must match
int for int in both fields (only its Q form packs a null basis), the
eager level walk that ``lietype._walk_levels`` must match state for state,
the Lie-n constraint rows built by the comprehension step, of which
``lietype.lie_n_derivation_space`` must read a prefix row for row, and the
eager structure-constant constructor, whose tensor of field elements,
ints and unit and idempotent checks ``Algebra`` must match.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from altrings.algebra import Algebra, AlgebraError, LinearMap
from altrings.catalog import catalog
from altrings.fields import QQ


def ad(A, u_index):
    """x -> [x, e_u] as a linear map."""
    e = A.basis_element(u_index)
    return LinearMap(A, A.right_mult_matrix(e) - A.left_mult_matrix(e))


@pytest.fixture(scope="module")
def zorn():
    return catalog("zorn", QQ)


def mat2_over_x4_plus_1():
    """2 x 2 matrices over Q[x]/(x^4 + 1), a 16-dim Q-algebra with basis
    E_ab x^k at 4 m + k, m indexing E11, E12, E21, E22, unit E11 + E22 and
    idempotent E11.  Conditions (1)-(3) hold, and Z is Q[x]/(x^4 + 1) times
    the unit, of dim 4, with every RREF row x^k (E11 + E22) invertible; as
    x^4 + 1 is reducible mod every prime, (4) stays undecided over Q."""
    units = ((1, 1), (1, 2), (2, 1), (2, 2))
    triples = {}
    for m, (a, b) in enumerate(units):
        for n, (c, e) in enumerate(units):
            if b == c:
                out = 4 * units.index((a, e))
                for k in range(4):
                    for l in range(4):  # x^(k + l) = -x^(k + l - 4) past x^3
                        sign = 1 if k + l < 4 else -1
                        triples[(4 * m + k, 4 * n + l, out + (k + l) % 4)] = sign
    unit = [0] * 16
    unit[0] = unit[12] = 1
    return Algebra(QQ, 16, triples, unit=unit, idempotent=[1] + [0] * 15)


def reference_algebra(field, dim, triples, unit=None, idempotent=None):
    """The constructor as it was when every constant was a field element:
    (tensor, _num, _den, _pairs, unit, idempotent), or the error it raised.
    All d^3 entries are field elements, repeated triples add in the field,
    _num and _den come from all d^3 entries, and the declared unit and
    idempotent are checked by products of field elements."""
    if dim < 1:
        raise AlgebraError("dimension must be at least 1")
    zero = field.zero
    tensor = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    if isinstance(triples, dict):
        items = triples.items()
    else:
        items = [((i, j, k), c) for (i, j, k, c) in triples]
    for (i, j, k), c in items:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise AlgebraError(f"structure index ({i},{j},{k}) out of range")
        tensor[i][j][k] = field.add(tensor[i][j][k], field.coerce(c))
    tensor = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    flat, den = field.to_ints([c for plane in tensor for row in plane for c in row])
    num = tuple(tuple(tuple(flat[(i * dim + j) * dim:(i * dim + j + 1) * dim])
                      for j in range(dim)) for i in range(dim))
    pairs = tuple(tuple(tuple((k, c) for k, c in enumerate(num[i][j]) if c)
                        for j in range(dim)) for i in range(dim))

    def coords(v):
        vec = tuple(field.coerce(x) for x in v)
        if len(vec) != dim:
            raise AlgebraError("coordinate length mismatch")
        return vec

    def mul(x, y):
        out = [zero] * dim
        for i in range(dim):
            for j in range(dim):
                xy = field.mul(x[i], y[j])
                for k in range(dim):
                    out[k] = field.add(out[k], field.mul(xy, tensor[i][j][k]))
        return tuple(out)

    if unit is not None:
        unit = coords(unit)
        for i in range(dim):
            e = tuple(field.one if k == i else zero for k in range(dim))
            if mul(unit, e) != e or mul(e, unit) != e:
                raise AlgebraError("declared unit is not a two-sided identity")
    if idempotent is not None:
        idempotent = coords(idempotent)
        if mul(idempotent, idempotent) != idempotent:
            raise AlgebraError("declared idempotent does not square to itself")
    return tensor, num, den, pairs, unit, idempotent


def unimodular_rebase(A, seed):
    """A over Q in a dense basis with det P = 1 (see ``rebase``), so the
    structure constants, unit and idempotent stay integral."""
    return rebase(A, seed)


def rebase(A, seed, det=1):
    """A over Q in the basis f_i = sum_r P[i][r] e_r, P = L U with unit
    triangular integer L, U and row 0 scaled by det (so det P = det, and
    P^-1 is integral when det = 1)."""
    d = A.dim
    rng = random.Random(seed)
    L = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(d)]
         for i in range(d)]
    U = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(d)]
         for i in range(d)]
    P = [[sum(L[i][k] * U[k][j] for k in range(d)) * (det if i == 0 else 1)
          for j in range(d)] for i in range(d)]
    # Q = P^-1 by Gauss-Jordan on [P | I]; every pivot is found since det P != 0
    rows = [[Fraction(v) for v in P[i]] + [Fraction(int(i == j)) for j in range(d)]
            for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    Q = [row[d:] for row in rows]
    c = A.tensor
    triples = {}
    for i in range(d):
        for j in range(d):
            e = [sum(P[i][r] * P[j][s] * c[r][s][k] for r in range(d) for s in range(d))
                 for k in range(d)]
            for l in range(d):
                v = sum(e[k] * Q[k][l] for k in range(d))
                if v:
                    triples[(i, j, l)] = v

    def coords(x):
        return [sum(x[k] * Q[k][l] for k in range(d)) for l in range(d)]

    return Algebra(QQ, d, triples, unit=coords(A.unit), idempotent=coords(A.idempotent))


def q_rebase(A, seed):
    """A over Q in the basis f_i = sum_r P[i][r] e_r for a seeded P = L U
    with unit triangular integer L and U: det P = 1, so P^-1 and the
    structure constants stay integral."""
    d = A.dim
    rng = random.Random(seed)
    L = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(d)]
         for i in range(d)]
    U = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(d)]
         for i in range(d)]
    P = [[sum(L[i][k] * U[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return change_basis(A, P, inverse(P))


def inverse(P):
    """Inverse of a square Fraction matrix by Gauss-Jordan, or None."""
    d = len(P)
    rows = [list(map(Fraction, row)) + [Fraction(int(r == s)) for s in range(d)]
            for r, row in enumerate(P)]
    for col in range(d):
        pivot = next((i for i in range(col, d) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(d):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return [row[d:] for row in rows]


def dense_rebase(A, p, seed, unit=False):
    """A over GF(p) in the seeded random basis f_i = sum_r P[i][r] e_r."""
    d = A.dim
    rng = random.Random(seed)
    while True:
        P = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        Q = inverse_mod(P, p)
        if Q is not None:
            break
    return change_basis(A, P, Q, unit)


def inverse_mod(P, p):
    """P^-1 mod p by Gauss-Jordan, or None when P is singular."""
    n = len(P)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(P)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % p), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def change_basis(A, P, Q, unit=False):
    """A in the basis f_i = sum_r P[i][r] e_r, Q = P^-1; the idempotent, and
    the unit if asked, carried over."""
    F, d = A.field, A.dim
    c = A.tensor
    triples = {}
    for i in range(d):
        for j in range(d):
            # f_i f_j = sum P[i][r] P[j][s] e_r e_s, and e_k = sum_l Q[k][l] f_l
            e = [sum(P[i][r] * P[j][s] * c[r][s][k] for r in range(d) for s in range(d))
                 for k in range(d)]
            for l in range(d):
                v = F.coerce(sum(e[k] * Q[k][l] for k in range(d)))
                if not F.is_zero(v):
                    triples[(i, j, l)] = v

    def coords(x):
        return tuple(F.coerce(sum(x[k] * Q[k][l] for k in range(d))) for l in range(d))

    return Algebra(F, d, triples, unit=coords(A.unit) if unit else None,
                   idempotent=None if A.idempotent is None else coords(A.idempotent))


def scalars(F):
    if F is QQ:
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    return st.integers(-5 * F.p, 5 * F.p)


def normal(F, v):
    """The reference's normal form: a Fraction over Q, an int in [0, p) over GF(p)."""
    return Fraction(v) if F is QQ else v % F.p


class ReferenceEchelon:
    """Incremental RREF over Q by reduction alone: every row is reduced
    against the pivot rows and, if it enlarges the span, back-substituted
    into them, each changed row cleared of its content with its first
    nonzero entry positive.  A frozen copy of ``linalg._RationalEchelon``
    from before it proved dependent rows by a packed dot product."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _normalise(row: list[int]) -> None:
        content = 0
        for v in row:
            content = gcd(content, v)
            if content == 1:
                break
        if content > 1:
            for i, v in enumerate(row):
                row[i] = v // content
        for v in row:
            if v:
                if v < 0:
                    for i, w in enumerate(row):
                        row[i] = -w
                break

    def _reduced(self, row: list[int]) -> list[int]:
        # Pivot rows are mutually reduced, so elimination order is irrelevant.
        for col, prow in self.pivots.items():
            v = row[col]
            if v:
                lead = prow[col]
                g = gcd(lead, v)
                mult, sub = lead // g, v // g
                if mult == 1:
                    for i in range(self.width):
                        row[i] -= prow[i] * sub
                else:
                    for i in range(self.width):
                        row[i] = row[i] * mult - prow[i] * sub
        if any(row):
            self._normalise(row)
        return row

    def add(self, row) -> bool:
        """Fold one int row into the accumulator; True if it enlarged the span."""
        work = self._reduced(list(row))
        lead_col = -1
        for i, v in enumerate(work):
            if v:
                lead_col = i
                break
        if lead_col < 0:
            return False
        for prow in self.pivots.values():
            v = prow[lead_col]
            if v:
                lead = work[lead_col]
                g = gcd(lead, v)
                mult, sub = lead // g, v // g
                if mult == 1:
                    for i in range(self.width):
                        prow[i] -= work[i] * sub
                else:
                    for i in range(self.width):
                        prow[i] = prow[i] * mult - work[i] * sub
                self._normalise(prow)
        self.pivots[lead_col] = work
        return True

    def rref_ints(self) -> tuple[list[tuple], int]:
        """(RREF rows in pivot order, den): ints over their least common
        denominator, so every pivot entry equals den."""
        leads = [(self.pivots[col], col) for col in sorted(self.pivots)]
        den = lcm(*[row[col] for row, col in leads])
        return [tuple(row) if row[col] == den else tuple(v * (den // row[col]) for v in row)
                for row, col in leads], den

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)


class ReferencePrimeEchelon:
    """Incremental RREF over GF(p) by eager reduction: every row is taken
    mod p, reduced against the pivot rows, scaled to lead with 1 and, if it
    enlarges the span, back-substituted into them at once.  A frozen copy
    of ``linalg._PrimeEchelon`` from before it became the stepped,
    reduced-on-read eliminator of ``linalg._RationalEchelon``."""

    def __init__(self, field, width: int):
        self.p = field.p
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduced(self, row) -> list[int]:
        p = self.p
        work = [v % p for v in row]
        for col, prow in self.pivots.items():
            v = work[col]
            if v:
                for i in range(self.width):
                    work[i] = (work[i] - v * prow[i]) % p
        return work

    def add(self, row) -> bool:
        """Fold one int row into the accumulator; True if it enlarged the span."""
        p = self.p
        work = self._reduced(row)
        lead_col = -1
        for i, v in enumerate(work):
            if v:
                lead_col = i
                break
        if lead_col < 0:
            return False
        inv = pow(work[lead_col], -1, p)
        if inv != 1:
            for i in range(self.width):
                work[i] = (work[i] * inv) % p
        for prow in self.pivots.values():
            v = prow[lead_col]
            if v:
                for i in range(self.width):
                    prow[i] = (prow[i] - v * work[i]) % p
        self.pivots[lead_col] = work
        return True

    def rref_ints(self) -> tuple[list[tuple], int]:
        """(RREF rows in pivot order, 1): residues, every pivot entry 1."""
        return [tuple(self.pivots[col]) for col in sorted(self.pivots)], 1

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)


def reference_walk_levels(F, width, states, step, levels):
    """The states of ``lietype._walk_levels``, as a list: a frozen copy of
    that walk from before it chained its levels as generators, which
    finishes each level's eliminator before it steps the kept states."""
    from altrings.linalg import echelon

    for _ in range(levels):
        acc = echelon(F, width)
        kept = [s for s in states if acc.add(s)]
        states = [t for s in kept for t in step(s)]
    return list(states)


def commutator_walk(A):
    """(width, first states, step) of the walk of W_n in
    ``lietype._commutator_ints``: the brackets [e_i, e_j], i < j, and the
    step w -> [w, e_j] over every j, as comprehensions."""
    d = A.dim
    num = A._num
    K = A.bracket_table()
    pairs = [[x - y for x, y in zip(num[i][j], num[j][i])]
             for i in range(d) for j in range(i + 1, d)]

    def step(w):
        return [[sum(c * w[a] for a, c in terms) for terms in Kj] for Kj in K]

    return d, pairs, step


def lie_n_walk(A):
    """(width, first states, step) of the walk of Lie-n states in
    ``lietype.lie_n_derivation_space``, with each state step built by one
    d^2-wide comprehension per bracket term: a frozen copy of that
    function's step from before it wrote the nonzero entries of each Acc
    row by index.  The first states are those of the pairs i < j."""
    d = A.dim
    dd = d * d
    K = A.bracket_table()

    def steps(s, js=range(d)):
        p = s[:d]
        acc_rows = [s[d + a * dd:d + (a + 1) * dd] for a in range(d)]
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

    level = [[0] * (d + d * dd) for _ in range(d)]
    for i, s in enumerate(level):
        s[i] = 1
        for m in range(d):
            s[d + m * dd + m * d + i] = 1
    pairs = [t for i, s in enumerate(level) for t in steps(s, range(i + 1, d))]
    return d + d * dd, pairs, steps


def reference_lie_n_rows(A, n):
    """The constraint rows of identity L at all basis n-tuples, in the order
    ``lietype.lie_n_derivation_space(A, n)`` builds them: the states of
    ``lie_n_walk`` walked by ``reference_walk_levels``, each giving the d
    rows D(p_n) - acc_n.  That function may stop reading them early; with
    no known part it reads all."""
    d = A.dim
    dd = d * d
    width, pairs, steps = lie_n_walk(A)
    rows = []
    for t in reference_walk_levels(A.field, width, pairs, steps, n - 2):
        for m in range(d):
            row = t[d + m * dd:d + (m + 1) * dd]
            row[m * d:(m + 1) * d] = [x - y for x, y in zip(row[m * d:(m + 1) * d], t)]
            rows.append(row)
    return rows
