"""Finite-dimensional algebras given by structure constants.

An algebra over a field F with basis e_1..e_d is described by the tensor
c[i][j][k] with e_i * e_j = sum_k c[i][j][k] e_k.  Elements are coordinate
vectors; all products, commutators, associators, centres and nuclei are
computed exactly from the tensor.

The tensor is also held once as integers over one common denominator
(the field's ``to_ints``), so products and operator matrices
multiply-accumulate plain ints and normalise each coordinate once, at
the field's ``from_ints``.
"""

from __future__ import annotations

from itertools import product as iter_product
from operator import add
from typing import NamedTuple

from .fields import FieldError
from .linalg import Matrix, Subspace, null_space, solve


class AlgebraError(ValueError):
    """Raised for inconsistent algebra data (bad unit, bad idempotent, ...)."""


class BudgetError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


class Algebra:
    """A structure-constant algebra over an exact field.  It cannot change
    once built, and what is derived from it is memoised in its ``_memo``."""

    __slots__ = ("field", "dim", "name", "tensor", "_den", "_num", "_pairs",
                 "unit", "idempotent", "_memo")

    def __init__(self, field, dim: int, triples, unit=None, idempotent=None,
                 name: str | None = None):
        if dim < 1:
            raise AlgebraError("dimension must be at least 1")
        self.field = field
        self.dim = dim
        self.name = name
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
        self.tensor = tuple(
            tuple(tuple(row) for row in plane) for plane in tensor
        )
        # c[i][j][k] = _num[i][j][k] / _den, with every _num an int
        flat, self._den = field.to_ints(
            [c for plane in tensor for row in plane for c in row]
        )
        self._num = tuple(
            tuple(tuple(flat[(i * dim + j) * dim:(i * dim + j + 1) * dim])
                  for j in range(dim))
            for i in range(dim)
        )
        # sparse view: _pairs[i][j] lists the nonzero (k, _num[i][j][k])
        self._pairs = tuple(
            tuple(
                tuple((k, c) for k, c in enumerate(self._num[i][j]) if c)
                for j in range(dim)
            )
            for i in range(dim)
        )
        if unit is not None:
            unit = self._coerce_coords(unit)
            if not self._is_unit(unit):
                raise AlgebraError("declared unit is not a two-sided identity")
        self.unit = unit
        if idempotent is not None:
            idempotent = self._coerce_coords(idempotent)
            if self.mul_coords(idempotent, idempotent) != idempotent:
                raise AlgebraError("declared idempotent does not square to itself")
        self.idempotent = idempotent
        self._memo = {}  # set last: from here on every assignment raises

    def __setattr__(self, attr, value):
        if hasattr(self, "_memo"):
            raise AttributeError(f"Algebra is immutable: cannot set {attr!r}")
        object.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        raise AttributeError(f"Algebra is immutable: cannot delete {attr!r}")

    def _memoised(self, key, compute):
        """The value derived under key, computed by compute() on first use."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def _coerce_coords(self, coords) -> tuple:
        if isinstance(coords, AlgebraElement):
            if coords.algebra is not self:
                raise AlgebraError("element belongs to a different algebra")
            return coords.coords
        vec = tuple(self.field.coerce(v) for v in coords)
        if len(vec) != self.dim:
            raise AlgebraError("coordinate length mismatch")
        return vec

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (self.field.zero,) * self.dim)

    def basis_element(self, i: int) -> "AlgebraElement":
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return AlgebraElement(self, tuple(coords))

    def basis(self) -> list["AlgebraElement"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, self._coerce_coords(coords))

    def mul_coords(self, x, y) -> tuple:
        F = self.field
        xs, x_den = F.to_ints(x)
        ys, y_den = F.to_ints(y)
        return F.from_ints(self._mul_ints(xs, ys), x_den * y_den * self._den)

    def _mul_ints(self, xs, ys) -> list[int]:
        """x * y for int coordinates: the product's ints over the two dens
        times _den (unreduced over GF(p))."""
        out = [0] * self.dim
        pairs = self._pairs
        for i, xi in enumerate(xs):
            if not xi:
                continue
            row = pairs[i]
            for j, yj in enumerate(ys):
                if not yj:
                    continue
                scale = xi * yj
                for k, c in row[j]:
                    out[k] += scale * c
        return out

    def basis_product(self, i: int, j: int) -> tuple:
        return self.tensor[i][j]

    def mult_ints(self, ys, side: str) -> list[list[int]]:
        """Int rows of x -> y * x (side "left") or x -> x * y ("right") for
        int coordinates ys of y, over their den times _den (unreduced over
        GF(p))."""
        d = self.dim
        pairs = self._pairs
        rows = [[0] * d for _ in range(d)]
        for i, yi in enumerate(ys):
            if not yi:
                continue
            for j in range(d):
                for k, c in pairs[i][j] if side == "left" else pairs[j][i]:
                    rows[k][j] += yi * c
        return rows

    def mult_matrix_ints(self, ys, y_den: int, side: str) -> Matrix:
        """Matrix of x -> y * x (side "left") or x -> x * y ("right") for
        y = ys / y_den."""
        return Matrix._from_fresh(self.field, self.mult_ints(ys, side),
                                  y_den * self._den, self.dim)

    def _mult_matrix(self, y, side: str) -> Matrix:
        return self.mult_matrix_ints(*self.field.to_ints(self._coerce_coords(y)), side)

    def left_mult_matrix(self, y) -> Matrix:
        """Matrix of x -> y * x."""
        return self._mult_matrix(y, "left")

    def right_mult_matrix(self, y) -> Matrix:
        """Matrix of x -> x * y."""
        return self._mult_matrix(y, "right")

    def bracket_table(self) -> list:
        """K with K[j][m] the nonzero (a, _den [e_a, e_j]_m): row m of the
        operator K_j : v -> [v, e_j], over the common denominator _den."""
        num, d = self._num, self.dim
        return [[[(a, c) for a in range(d) if (c := num[a][j][m] - num[j][a][m])]
                 for m in range(d)] for j in range(d)]

    def _is_unit(self, u) -> bool:
        for i in range(self.dim):
            e = self.basis_element(i).coords
            if self.mul_coords(u, e) != e or self.mul_coords(e, u) != e:
                return False
        return True

    def elements(self):
        """Enumerate all elements (finite fields only).

        Coordinate 0 varies fastest: the k-th element carries the base-p
        digits of k as its coordinates, so enumeration order and the
        digit-index of an element agree.
        """
        if not self.field.is_finite:
            raise FieldError("cannot enumerate an algebra over an infinite field")
        for coords in iter_product(self.field.elements(), repeat=self.dim):
            yield AlgebraElement(self, coords[::-1])

    def size(self) -> int | None:
        if not self.field.is_finite:
            return None
        return self.field.p ** self.dim

    def __repr__(self):
        label = self.name or "algebra"
        return f"Algebra({label}, dim={self.dim}, field={self.field})"


class AlgebraElement:
    """An element of an :class:`Algebra`, stored as a coordinate tuple."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _same(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra is not self.algebra:
            raise AlgebraError("elements belong to different algebras")
        return other

    def __add__(self, other):
        other = self._same(other)
        add = self.algebra.field.add
        return AlgebraElement(
            self.algebra, tuple(add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        other = self._same(other)
        sub = self.algebra.field.sub
        return AlgebraElement(
            self.algebra, tuple(sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        neg = self.algebra.field.neg
        return AlgebraElement(self.algebra, tuple(neg(a) for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same(other)
            return AlgebraElement(
                self.algebra, self.algebra.mul_coords(self.coords, other.coords)
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "AlgebraElement":
        F = self.algebra.field
        c = F.coerce(c)
        return AlgebraElement(self.algebra, tuple(F.mul(c, v) for v in self.coords))

    def is_zero(self) -> bool:
        F = self.algebra.field
        return all(F.is_zero(v) for v in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        fmt = self.algebra.field.format
        return "(" + ", ".join(fmt(v) for v in self.coords) + ")"


class LinearMap:
    """A linear endomorphism of an algebra's underlying vector space."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: Algebra, matrix: Matrix):
        if matrix.nrows != algebra.dim or matrix.ncols != algebra.dim:
            raise AlgebraError("map matrix has the wrong shape")
        self.algebra = algebra
        self.matrix = matrix

    @classmethod
    def from_images(cls, algebra: Algebra, images) -> "LinearMap":
        """Build a map from the images of the basis elements."""
        cols = []
        for img in images:
            cols.append(algebra._coerce_coords(img))
        if len(cols) != algebra.dim:
            raise AlgebraError("need one image per basis element")
        return cls(algebra, Matrix.from_columns(algebra.field, cols))

    @classmethod
    def from_vector(cls, algebra: Algebra, flat) -> "LinearMap":
        """Inverse of :meth:`to_vector` (row-major d*d coordinates)."""
        d = algebra.dim
        if len(flat) != d * d:
            raise AlgebraError("flat vector has the wrong length")
        rows = [flat[r * d:(r + 1) * d] for r in range(d)]
        return cls(algebra, Matrix(algebra.field, rows))

    @classmethod
    def zero(cls, algebra: Algebra) -> "LinearMap":
        return cls(algebra, Matrix.zeros(algebra.field, algebra.dim, algebra.dim))

    @classmethod
    def identity(cls, algebra: Algebra) -> "LinearMap":
        return cls(algebra, Matrix.identity(algebra.field, algebra.dim))

    def to_vector(self) -> tuple:
        """Row-major flattening; the coordinate order used by map spaces."""
        return tuple(v for row in self.matrix.rows for v in row)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra is not self.algebra:
            raise AlgebraError("element belongs to a different algebra")
        return AlgebraElement(self.algebra, self.matrix.apply(x.coords))

    def apply_coords(self, coords) -> tuple:
        return self.matrix.apply(coords)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, self.matrix - other.matrix)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.algebra, -self.matrix)

    def scale(self, c) -> "LinearMap":
        return LinearMap(self.algebra, self.matrix.scale(c))

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.algebra, self.matrix @ other.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and other.algebra is self.algebra
            and other.matrix == self.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __repr__(self):
        return f"LinearMap({self.matrix!r})"


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y - y * x


def jordan_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x * y + y * x


def associator(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    return (x * y) * z - x * (y * z)


def leibniz_rows(A: Algebra):
    """The d^3 rows of delta(e_i e_j) = delta(e_i) e_j + e_i delta(e_j) on
    vec(delta) (``LinearMap.to_vector`` order), as ints over A._den."""
    d, num = A.dim, A._num
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
                yield row


def is_derivation(A: Algebra, g: LinearMap) -> bool:
    """Whether g(e_i e_j) = g(e_i) e_j + e_i g(e_j) on every basis pair.

    Checked pair by pair on ints: with G the integer form of g's matrix
    (column i is g(e_i) over its den) and the structure constants over
    A._den, both sides times the two denominators are sums of products of
    ints, compared exactly (mod p over GF(p)).  The same equations are the
    rows of ``leibniz_rows``.
    """
    G = g.matrix.int_form()[0]
    d, pairs, p = A.dim, A._pairs, A.field.characteristic
    # images[i] lists the nonzero (m, G[m][i]): g(e_i), sparse
    images = [[(m, v) for m, v in enumerate(col) if v] for col in zip(*G)]
    for i, gi in enumerate(images):
        for j, gj in enumerate(images):
            out = [0] * d
            for k, c in pairs[i][j]:  # g(e_i e_j)
                for m, x in images[k]:
                    out[m] += c * x
            for a, x in gi:  # g(e_i) e_j
                for m, c in pairs[a][j]:
                    out[m] -= x * c
            for b, y in gj:  # e_i g(e_j)
                for m, c in pairs[i][b]:
                    out[m] -= y * c
            if any(v % p for v in out) if p else any(out):
                return False
    return True


class IdentityReport(NamedTuple):
    """Which standard identities the multiplication satisfies; every flag is
    decided exactly, in every characteristic (see classify_identities)."""

    associative: bool
    alternative: bool
    flexible: bool


def basis_points(F, basis) -> list:
    """The vectors b_i and b_i + b_j (i < j) of a basis.

    A quadratic map Q vanishes on the span exactly when it vanishes at
    these points, in every characteristic.  Writing x = sum a_i b_i,

        Q(x) = sum_i a_i^2 M_i + sum_{i<j} a_i a_j M_ij,

    with Q(b_i) = M_i and Q(b_i + b_j) = M_i + M_j + M_ij.  A polarised
    check (Q(x + y) - Q(x) - Q(y) on basis pairs) sees only the M_ij and,
    in characteristic 2, misses the M_i.
    """
    points = list(basis)
    for i, bi in enumerate(basis):
        for bj in basis[i + 1:]:
            points.append(tuple(map(F.add, bi, bj)))
    return points


def _associators(A: Algebra) -> list[tuple]:
    """T with T[(a*d + b)*d + c] the ints of the basis associator
    (e_a, e_b, e_c) over A._den^2 (residues mod p over GF(p)), built once
    from the structure constants and memoised."""
    def build():
        d, pairs, p = A.dim, A._pairs, A.field.characteristic
        T = []
        for a, b, c in iter_product(range(d), repeat=3):
            out = [0] * d
            for k, x in pairs[a][b]:  # (e_a e_b) e_c
                for m, y in pairs[k][c]:
                    out[m] += x * y
            for k, x in pairs[b][c]:  # e_a (e_b e_c)
                for m, y in pairs[a][k]:
                    out[m] -= x * y
            T.append(tuple(v % p for v in out) if p else tuple(out))
        return T

    return A._memoised("associators", build)


def classify_identities(A: Algebra) -> IdentityReport:
    """Decide associativity, alternativity and flexibility of the product.

    All three read the basis associators (``_associators``).  The product
    is associative iff every one vanishes.  Alternativity and flexibility
    ask the associator to vanish when two of its slots hold one x; that is
    quadratic in x, so it holds iff it holds at x = e_a and x = e_a + e_b
    (see basis_points).  On the trilinear table this reads: T with e_a in
    both slots vanishes, and so does the sum of T with (e_a, e_b) and with
    (e_b, e_a) in them, for a < b and every basis vector in the third
    slot.  Checked on ints (mod p over GF(p)), this is exact in every
    characteristic.
    """
    d, p, T = A.dim, A.field.characteristic, _associators(A)
    if not any(map(any, T)):
        return IdentityReport(True, True, True)

    def cancel(s, t):  # s + t = 0
        return not any(v % p for v in map(add, s, t)) if p else not any(map(add, s, t))

    strides = (d * d, d, 1)

    def repeated(i, j):
        # x in slots i and j, a basis vector e_c in the third
        u, v, w = strides[i], strides[j], strides[3 - i - j]
        cs = range(d)
        diagonal = (T[a * (u + v) + c * w] for a in cs for c in cs)
        crossed = ((T[a * u + b * v + c * w], T[b * u + a * v + c * w])
                   for a in cs for b in range(a + 1, d) for c in cs)
        return not any(map(any, diagonal)) and all(cancel(s, t) for s, t in crossed)

    alternative = repeated(0, 1) and repeated(1, 2)
    flexible = alternative or repeated(0, 2)
    return IdentityReport(False, alternative, flexible)


def nucleus(A: Algebra) -> Subspace:
    """{ n : (n,R,R) = (R,n,R) = (R,R,n) = 0 }, computed from basis constraints.

    The associator is trilinear, so n lies in the nucleus iff the three
    associators with n in one slot and basis vectors e_i, e_j in the other
    two vanish.  Coordinate m of such an associator is linear in n, and its
    row is coordinate m of the basis associators (e_t, e_i, e_j),
    (e_i, e_t, e_j) and (e_i, e_j, e_t) as t runs over the basis: up to
    3d^3 rows of width d, read from ``_associators``; zero rows are
    skipped.  A declared unit is nuclear, so ``null_space`` is given its
    span as the known part of the answer and stops folding at rank d - 1.
    """
    d, T = A.dim, _associators(A)
    dd = d * d

    def rows():
        for i in range(d):
            for j in range(d):
                yield from zip(*T[i * d + j::dd])  # (e_t, e_i, e_j)
                yield from zip(*T[i * dd + j:(i + 1) * dd:d])  # (e_i, e_t, e_j)
                yield from zip(*T[(i * d + j) * d:(i * d + j + 1) * d])  # (e_i, e_j, e_t)

    return null_space(A.field, d, rows(), _unit_span(A))


def center(A: Algebra) -> Subspace:
    """The commutative centre { z : [z, x] = 0 for all x }.

    Its constraints are the rows of K_j : z -> [z, e_j] (see
    ``bracket_table``), read as ints straight from the structure
    constants.  A declared unit is central, so ``null_space`` is given its
    span as the known part of the answer and stops folding at rank d - 1.
    Note this is the commutant only; use
    ``center(A).intersect(nucleus(A))`` for the stricter
    commuting-and-associating notion.
    """
    d, num = A.dim, A._num
    return null_space(A.field, d, ([num[a][j][m] - num[j][a][m] for a in range(d)]
                                   for j in range(d) for m in range(d)), _unit_span(A))


def _unit_span(A: Algebra) -> Subspace | None:
    """span(unit) if A declares a unit, else None.  The unit was checked
    when A was built, and A cannot change after that."""
    if A.unit is None:
        return None
    return Subspace.from_ints(A.field, A.dim, [A.field.to_ints(A.unit)[0]])


def find_unit(A: Algebra) -> AlgebraElement | None:
    """The declared unit, or else the solved two-sided identity, if any.

    The solution is memoised on the algebra but never recorded as its
    declared ``unit``, so serialisation and unit-guarded checks do not
    depend on whether this ran.
    """
    u = A.unit if A.unit is not None else A._memoised("unit", lambda: _solve_unit(A))
    return None if u is None else AlgebraElement(A, u)


def _solve_unit(A: Algebra) -> tuple | None:
    """The coordinates of the two-sided identity, or None if there is none."""
    d, F, c = A.dim, A.field, A.tensor
    # u e_j = e_j and e_j u = e_j: sum_i u_i c[i][j][m] = sum_i u_i c[j][i][m] = delta_jm
    rows = [[c[i][j][m] for i in range(d)] for j in range(d) for m in range(d)]
    rows += [[c[j][i][m] for i in range(d)] for j in range(d) for m in range(d)]
    rhs = [F.one if m == j else F.zero for j in range(d) for m in range(d)] * 2
    result = solve(Matrix(F, rows), rhs)
    return None if result is None else result[0]


class IdempotentCheck(NamedTuple):
    """Result of testing e² = e; nontrivial is None when not idempotent."""

    idempotent: bool
    nontrivial: bool | None


def is_idempotent(A: Algebra, e) -> IdempotentCheck:
    """Nonzero square-stable check; nontrivial additionally excludes the unit."""
    coords = A._coerce_coords(e)
    if all(A.field.is_zero(v) for v in coords):
        return IdempotentCheck(False, None)
    if A.mul_coords(coords, coords) != coords:
        return IdempotentCheck(False, None)
    unit = find_unit(A)
    nontrivial = unit is None or unit.coords != coords
    return IdempotentCheck(True, nontrivial)


def find_idempotents(A: Algebra, budget: int = 2 ** 16) -> list[tuple[AlgebraElement, bool]]:
    """Exhaustively enumerate idempotents of a finite algebra.

    Returns (element, nontrivial) pairs; zero and the unit are the
    trivial ones.  Squaring is quadratic, so enumeration cannot decide
    this over an infinite field; rationals are rejected (curated
    algebras carry a designated idempotent instead).  Raises BudgetError
    when the ring size p^d exceeds the budget.
    """
    if not A.field.is_finite:
        raise FieldError("idempotent search requires a finite field")
    size = A.size()
    if size > budget:
        raise BudgetError(
            f"idempotent search over {size} elements exceeds budget {budget}"
        )
    unit = find_unit(A)
    found = []
    for x in A.elements():
        if A.mul_coords(x.coords, x.coords) == x.coords:
            nontrivial = not x.is_zero() and (unit is None or x != unit)
            found.append((x, nontrivial))
    return found


def torsion_free(A: Algebra, k: int) -> bool:
    """Whether k x = 0 forces x = 0 in the additive group."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    p = A.field.characteristic
    if p == 0:
        return True
    return k % p != 0
