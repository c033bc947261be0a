"""Seeded input generator for the benchmark.

Pure Python, no import of the package under test.  Algebras are carried
as integer structure constants ("structs"), which serve over Q and, read
mod p, over any GF(p).  A *dense rebase* rewrites a struct in a random
integer basis of determinant 1: every invariant (dimensions of derivation
spaces, primality, idempotent counts) is unchanged, while nearly all d^3
structure constants become nonzero with coefficients around 10^4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Struct:
    """Integer structure constants e_i e_j = sum_k c[(i,j,k)] e_k."""

    name: str
    dim: int
    triples: dict
    unit: tuple
    idem: tuple

    @property
    def nonzero(self) -> int:
        return len(self.triples)

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.triples.values())


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, label...), stable across Python runs."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def struct_from_tensor(name: str, tensor, unit, idem) -> Struct:
    """Integer struct from an algebra's tensor over Q (all entries integral)."""
    d = len(tensor)
    triples = {}
    for i in range(d):
        for j in range(d):
            for k, c in enumerate(tensor[i][j]):
                if c:
                    triples[(i, j, k)] = _as_int(c)
    return Struct(name, d, triples, tuple(map(_as_int, unit)), tuple(map(_as_int, idem)))


def _as_int(c) -> int:
    c = Fraction(c)
    if c.denominator != 1:
        raise ValueError(f"structure constant {c} is not integral")
    return c.numerator


def unimodular(d: int, rng: random.Random, spread: int) -> list[list[int]]:
    """P = L U with unit triangular L, U of entries in [-spread, spread]: det P = 1."""
    L = [[1 if i == j else rng.randint(-spread, spread) if i > j else 0
          for j in range(d)] for i in range(d)]
    U = [[1 if i == j else rng.randint(-spread, spread) if i < j else 0
          for j in range(d)] for i in range(d)]
    return [[sum(L[i][m] * U[m][j] for m in range(d)) for j in range(d)]
            for i in range(d)]


def inverse(P: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a determinant-1 integer matrix (integral again)."""
    d = len(P)
    M = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(P)]
    for c in range(d):
        r = next(r for r in range(c, d) if M[r][c])
        M[c], M[r] = M[r], M[c]
        lead = M[c][c]
        M[c] = [v / lead for v in M[c]]
        for r in range(d):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return [[_as_int(M[i][d + j]) for j in range(d)] for i in range(d)]


def rebase(S: Struct, P: list[list[int]], Q: list[list[int]]) -> Struct:
    """S in the basis f_i = sum_a P[a][i] e_a; Q = P^-1 maps e-coords to f-coords."""
    d = S.dim
    by_pair: dict = {}
    for (a, b, c), v in S.triples.items():
        by_pair.setdefault((a, b), []).append((c, v))
    triples = {}
    for i in range(d):
        for j in range(d):
            prod = [0] * d  # f_i f_j in e-coordinates
            for (a, b), terms in by_pair.items():
                w = P[a][i] * P[b][j]
                if w:
                    for c, v in terms:
                        prod[c] += w * v
            for k in range(d):
                s = sum(Q[k][c] * prod[c] for c in range(d))
                if s:
                    triples[(i, j, k)] = s

    def coords(vec):
        return tuple(sum(Q[k][a] * vec[a] for a in range(d)) for k in range(d))

    return Struct(S.name + "~dense", d, triples, coords(S.unit), coords(S.idem))


@dataclass(frozen=True)
class Rebase:
    struct: Struct
    P: list
    Q: list


# Accepted rebases must look alike across seeds so that timings depend on
# the seed only through noise: at least this share of the d^3 constants
# nonzero, and the largest coefficient inside the height band.
DENSE_SHARE = 0.95
HEIGHT_BAND = {4: (100, 400), 8: (10_000, 30_000)}


def dense_rebase(S: Struct, rng: random.Random) -> Rebase:
    """A random determinant-1 rebase of S with dense, high-coefficient constants."""
    low, high = HEIGHT_BAND[S.dim]
    need = DENSE_SHARE * S.dim ** 3
    for _ in range(1000):
        P = unimodular(S.dim, rng, 2)
        Q = inverse(P)
        R = rebase(S, P, Q)
        if R.nonzero >= need and low <= R.height <= high:
            return Rebase(R, P, Q)
    raise RuntimeError(f"no dense rebase of {S.name} in the height band")


def conjugate(M, P, Q) -> list[list[int]]:
    """Matrix of the same linear map in the rebased basis: Q M P."""
    d = len(M)
    MP = [[sum(M[i][m] * P[m][j] for m in range(d)) for j in range(d)]
          for i in range(d)]
    return [[sum(Q[i][m] * MP[m][j] for m in range(d)) for j in range(d)]
            for i in range(d)]


def combination(basis_rows, rng: random.Random, width: int) -> list:
    """Random integer combination (coefficients in [-4, 4]) of basis rows."""
    out = [Fraction(0)] * width
    for row in basis_rows:
        c = rng.randint(-4, 4)
        if c:
            for i, v in enumerate(row):
                out[i] += c * v
    return out


def random_element(d: int, p: int, rng: random.Random) -> tuple:
    return tuple(rng.randrange(p) for _ in range(d))


def element_coords(index: int, d: int, p: int) -> tuple:
    """Coordinates of element number `index`: base-p digits, coordinate 0 fastest."""
    out = []
    for _ in range(d):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


def element_index(coords, p: int) -> int:
    index = 0
    for c in reversed(coords):
        index = index * p + c % p
    return index
