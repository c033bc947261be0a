"""Independent oracles: facts known without running the package under test.

Everything here works on the generator's integer structs with its own
exact arithmetic (Fractions over Q, ints mod p), so a verdict is never
checked against the code that produced it.  The facts:

* dim Der(M2) = 3 (sl2) and dim Der(zorn) = 14 (G2), in every basis.
* A Lie-n derivation is a derivation plus a central map killing nested
  commutators; the centre is the scalars and [R, R] has codimension 1
  (M2: trace zero; zorn: trace zero), so dim Lie-n = dim Der + 1.
* Maps satisfying (a), (b), (c) inside Lie-2: the derivations fixing the
  Peirce grading (M2: ad of a diagonal element, dim 1; zorn: the sl3
  stabiliser of e1 in G2, dim 8) plus the trace map.
* Exhaustive primality scans (p^d - 1)/(p - 1) rays.
* Idempotents: q^2 + q + 2 in M2(F_q) and q^3 (q^3 + 1) + 2 in zorn/F_q.
* Witnesses: tri2 fails primality at (E12, E12); the identity table of
  M2(GF(2)) fails the Lie-2 identity at (E11, E12) with residual E12.
* On a commutative ring every nested commutator is 0, so the identity
  only says T(0) = 0 and every table is almost additive.
* The README examples print exactly the documented lines and exit codes.
"""

from __future__ import annotations

from fractions import Fraction

from gen import Struct, element_coords, element_index

DER_DIM = {"mat2": 3, "zorn": 14}
LIE_DIM = {"mat2": 4, "zorn": 15}
ADMISSIBLE_DIM = {"mat2": 2, "zorn": 9}
COMMUTATOR_SPAN_DIM = {"mat2": 3, "zorn": 7}

TRI2_PRIME_WITNESS = ((0, 1, 0), (0, 1, 0))
CHAR2_WITNESS = ((1, 0, 0, 0), (0, 1, 0, 0))
CHAR2_RESIDUAL = (0, 1, 0, 0)


def mat2_struct() -> Struct:
    """M2 on the matrix units E11, E12, E21, E22: E_ab E_cd = [b = c] E_ad."""
    units = ((1, 1), (1, 2), (2, 1), (2, 2))
    triples = {(i, j, units.index((a, dd))): 1
               for i, (a, b) in enumerate(units)
               for j, (c, dd) in enumerate(units) if b == c}
    return Struct("mat2", 4, triples, (1, 0, 0, 1), (1, 0, 0, 0))


def mat2_commutator(p: int):
    """Commutator values of M2(GF(p)) are exactly the trace-zero matrices."""
    return lambda x: (x[0] + x[3]) % p == 0


def rays(p: int, d: int) -> int:
    return (p ** d - 1) // (p - 1)


def idempotent_count(name: str, q: int) -> int:
    if name == "mat2":
        return q * q + q + 2
    if name == "zorn":
        return q ** 3 * (q ** 3 + 1) + 2
    raise KeyError(name)


class Arith:
    """Products in one struct over Q (p = 0) or GF(p)."""

    def __init__(self, S, p: int = 0):
        self.S = S
        self.p = p
        self.d = S.dim
        self.rows = [[[] for _ in range(S.dim)] for _ in range(S.dim)]
        for (i, j, k), c in S.triples.items():
            self.rows[i][j].append((k, c))

    def red(self, v):
        return v % self.p if self.p else v

    def mul(self, x, y) -> tuple:
        out = [0] * self.d
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in self.rows[i][j]:
                            out[k] += xi * yj * c
        return tuple(self.red(v) for v in out)

    def sub(self, x, y) -> tuple:
        return tuple(self.red(a - b) for a, b in zip(x, y))

    def add(self, x, y) -> tuple:
        return tuple(self.red(a + b) for a, b in zip(x, y))

    def bracket(self, x, y) -> tuple:
        return self.sub(self.mul(x, y), self.mul(y, x))

    def basis(self, i: int) -> tuple:
        return tuple(int(k == i) for k in range(self.d))

    def is_zero(self, x) -> bool:
        return not any(self.red(v) for v in x)

    def central(self, z) -> bool:
        return all(self.is_zero(self.bracket(z, self.basis(i))) for i in range(self.d))

    def apply(self, M, x) -> tuple:
        """M given by rows; column j is the image of e_j."""
        return tuple(self.red(sum(a * b for a, b in zip(row, x))) for row in M)

    def is_derivation(self, M) -> bool:
        for i in range(self.d):
            ei = self.basis(i)
            Mi = self.apply(M, ei)
            for j in range(self.d):
                ej = self.basis(j)
                lhs = self.apply(M, self.mul(ei, ej))
                rhs = self.add(self.mul(Mi, ej), self.mul(ei, self.apply(M, ej)))
                if lhs != rhs:
                    return False
        return True

    def kills_ideal_pair(self, a, b) -> bool:
        """(a e_t) b = 0 for every basis e_t, i.e. a R b = 0."""
        return all(self.is_zero(self.mul(self.mul(a, self.basis(t)), b))
                   for t in range(self.d))

    def left_singular(self, z) -> bool:
        """Whether x -> z x has a nonzero kernel."""
        cols = [self.mul(z, self.basis(j)) for j in range(self.d)]
        return _rank(cols, self.p) < self.d


def _rank(vectors, p: int) -> int:
    """Rank over GF(p), or over Q when p = 0."""
    def red(v):
        return v % p if p else v

    pivots: dict[int, list] = {}
    for v in vectors:
        w = [red(x if p else Fraction(x)) for x in v]
        for col, row in pivots.items():
            if w[col]:
                f = w[col]
                w = [red(a - f * b) for a, b in zip(w, row)]
        lead = next((i for i, x in enumerate(w) if x), None)
        if lead is None:
            continue
        inv = pow(w[lead], -1, p) if p else 1 / w[lead]
        pivots[lead] = [red(x * inv) for x in w]
        for col, row in pivots.items():
            if col != lead and row[lead]:
                f = row[lead]
                pivots[col] = [red(a - f * b) for a, b in zip(row, pivots[lead])]
    return len(pivots)


def check_decomposition(ar: Arith, D, delta, tau) -> str | None:
    """None when D = delta + tau with delta a derivation, tau central-valued
    and vanishing on every commutator [e_i, e_j]; else the broken fact."""
    d = ar.d
    if any(D[i][j] != delta[i][j] + tau[i][j] for i in range(d) for j in range(d)):
        return "delta + tau != D"
    if not ar.is_derivation(delta):
        return "delta is not a derivation"
    for j in range(d):
        if not ar.central(ar.apply(tau, ar.basis(j))):
            return "tau has a non-central value"
    for i in range(d):
        for j in range(d):
            if not ar.is_zero(ar.apply(tau, ar.bracket(ar.basis(i), ar.basis(j)))):
                return "tau does not kill [R, R]"
    return None


def check_converse_table(ar: Arith, delta, values, is_commutator=None) -> str | None:
    """Values of T = delta + tau: tau central-valued, tau(0) = 0, and tau = 0
    on every x with `is_commutator(x)` (a nested-commutator value)."""
    p, d = ar.p, ar.d
    size = p ** d
    if len(values) != size or any(not 0 <= v < size for v in values):
        return "table is not total on the ring"
    for i, v in enumerate(values):
        x = element_coords(i, d, p)
        tau = ar.sub(element_coords(v, d, p), ar.apply(delta, x))
        if not ar.central(tau):
            return f"T - delta is not central at element {i}"
        if is_commutator is not None and is_commutator(x) and not ar.is_zero(tau):
            return f"T - delta is nonzero on a commutator value (element {i})"
        if i == 0 and element_index(tau, p) != 0:
            return "T(0) != 0"
    return None


def lie2_residual(ar: Arith, values, x: tuple, y: tuple) -> tuple:
    """T([x, y]) - [T x, y] - [x, T y] for a value table T on GF(p)^d."""
    p, d = ar.p, ar.d

    def T(v):
        return element_coords(values[element_index(v, p)], d, p)

    return ar.sub(T(ar.bracket(x, y)),
                  ar.add(ar.bracket(T(x), y), ar.bracket(x, T(y))))


def additive(ar: Arith, values) -> bool:
    p, d = ar.p, ar.d
    size = p ** d
    for a in range(size):
        xa = element_coords(a, d, p)
        for b in range(a, size):
            s = element_index(ar.add(xa, element_coords(b, d, p)), p)
            total = ar.add(element_coords(values[a], d, p), element_coords(values[b], d, p))
            if values[s] != element_index(total, p):
                return False
    return True


# ------------------------------------------------------------- CLI examples

def stdout_lines(text: str) -> list[str]:
    """Output lines with trailing blanks dropped, as the README shows them."""
    return [line.rstrip() for line in text.strip("\n").splitlines()]


# Exact stdout (trailing blanks aside) and exit codes of the README examples.
README = {
    "check-identities": (1, stdout_lines("""
check:associative                  fails
check:alternative                  holds
check:flexible                     holds
""")),
    "peirce-tri2": (1, stdout_lines("""
peirce:dims                        holds      (1, 1, 0, 1)
peirce:cond-1(1,2)                 fails      x12 with x12*R21 = 0: annihilator has dim 1
peirce:cond-1(2,1)                 holds      x21 with x21*R12 = 0: annihilator is zero
peirce:cond-2a                     holds      x11 with x11*R12 = 0: annihilator is zero
peirce:cond-2b                     fails      x11 with R21*x11 = 0: annihilator has dim 1
peirce:cond-3a                     holds      x22 with R12*x22 = 0: annihilator is zero
peirce:cond-3b                     fails      x22 with x22*R21 = 0: annihilator has dim 1
peirce:cond-4                      holds      dim Z = 1 and the central generator is invertible
""")),
    "decompose-readme": (0, stdout_lines("""
decompose:condition-a              holds
decompose:condition-b              holds
decompose:condition-c              holds
decompose:leibniz                  holds
decompose:tau-central              holds
decompose:tau-kills-pn             holds
decompose:delta                    holds      0 0 0 0; 0 3 0 0; 0 0 -3 0; 0 0 0 0
decompose:tau                      holds      1 0 0 1; 0 0 0 0; 0 0 0 0; 1 0 0 1
decompose:normalizer               holds      0 0 0 0; 0 0 0 0; 0 0 0 0; 0 0 0 0
""")),
    "search-exhaust": (0, stdout_lines("""
search:exhaust-tally               holds      {'lie=True,almost-additive=True': 64}
search:exhaust-coverage            holds      64 leaves, 256/256 tables covered
search:exhaust-complete            holds
search:exhaust-no-contradiction    holds      0 tables satisfy the identity but are not almost additive
""")),
}

# The map of the README's decompose example: delta + tau from its output.
README_LMAP = "lmap 1\ndim 4\nrow 1 0 0 1\nrow 0 3 0 0\nrow 0 0 -3 0\nrow 1 0 0 1\n"
