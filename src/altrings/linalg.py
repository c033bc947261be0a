"""Exact linear algebra: matrices, canonical echelon forms and subspaces.

Everything is computed over one of the fields in :mod:`altrings.fields`.
Row spaces are kept in *reduced* row echelon form with rows ordered by
pivot column, so two subspaces are equal iff their stored bases are
equal.  An incremental eliminator lets constraint rows be folded in as
they are generated instead of materialising huge matrices, and
``null_space`` reads the solution space straight off it: ``kernel``,
``solve`` and every constraint space of the package go through it.

Products and eliminations run on plain integers: operands cross over
once with the field's ``to_ints`` (a matrix caches its integer form),
and results come back once through ``from_ints``.  Eliminator rows may
be given as field elements or as ints; any nonzero common scale of a
row is irrelevant to the span.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .fields import QQ, FieldError


class _RationalEchelon:
    """Incremental RREF over Q.

    Rows are stored as integer lists cleared of common content; this keeps
    the elimination in (fast) integer arithmetic and avoids Fraction churn
    in inner loops.  The reduced form is maintained after every insertion.
    """

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
        self._normalise(row)
        return row

    def add(self, row) -> bool:
        """Fold one row into the accumulator; True if it enlarged the span."""
        work = self._reduced(QQ.to_ints(row)[0])
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

    def residual(self, row) -> tuple:
        """The unique vector in row + span with zeros in all pivot columns."""
        work, scale = QQ.to_ints(row)
        for col, prow in self.pivots.items():
            v = work[col]
            if v:
                lead = prow[col]
                for i in range(self.width):
                    work[i] = work[i] * lead - prow[i] * v
                scale *= lead
        return QQ.from_ints(work, scale)

    def contains(self, row) -> bool:
        work = self._reduced(QQ.to_ints(row)[0])
        return not any(work)

    def rref_rows(self) -> list[tuple]:
        pivots = self.pivots
        return [QQ.from_ints(pivots[col], pivots[col][col]) for col in sorted(pivots)]

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)


class _PrimeEchelon:
    """Incremental RREF over GF(p) with rows as int lists mod p."""

    def __init__(self, field, width: int):
        self.field = field
        self.p = field.p
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduced(self, row) -> list[int]:
        p = self.p
        work = [int(v) % p for v in row]
        for col, prow in self.pivots.items():
            v = work[col]
            if v:
                for i in range(self.width):
                    work[i] = (work[i] - v * prow[i]) % p
        return work

    def add(self, row) -> bool:
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

    def residual(self, row) -> tuple:
        """The unique vector in row + span with zeros in all pivot columns."""
        return tuple(self._reduced(row))

    def contains(self, row) -> bool:
        return not any(self._reduced(row))

    def rref_rows(self) -> list[tuple]:
        return [tuple(self.pivots[col]) for col in sorted(self.pivots)]

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)


def echelon(field, width: int):
    """A fresh incremental eliminator for rows of the given width."""
    if field.characteristic == 0:
        return _RationalEchelon(width)
    return _PrimeEchelon(field, width)


class Matrix:
    """An immutable matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_ints")

    def __init__(self, field, rows, ncols: int | None = None):
        self.field = field
        self.rows = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self._ints = None

    @classmethod
    def from_ints(cls, field, int_rows, den: int, ncols: int) -> "Matrix":
        """The matrix with entries n / den for the ints n of int_rows."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = tuple(field.from_ints(row, den) for row in int_rows)
        m.nrows = len(m.rows)
        m.ncols = ncols
        m._ints = None
        return m

    def int_form(self) -> tuple[list[list[int]], int]:
        """(int rows, den) with every entry equal to its int over den; cached."""
        if self._ints is None:
            n = self.ncols
            flat, den = self.field.to_ints([v for row in self.rows for v in row])
            self._ints = ([flat[i * n:(i + 1) * n] for i in range(self.nrows)], den)
        return self._ints

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        zero, one = field.zero, field.one
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        if not cols:
            return cls(field, [])
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.key(), self.rows))

    def __add__(self, other):
        self._check_shape(other)
        add = self.field.add
        return Matrix(
            self.field,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check_shape(other)
        sub = self.field.sub
        return Matrix(
            self.field,
            [
                [sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        neg = self.field.neg
        return Matrix(self.field, [[neg(a) for a in row] for row in self.rows])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, a) for a in row] for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        a_rows, a_den = self.int_form()
        b_rows, b_den = other.int_form()
        b_cols = list(zip(*b_rows)) or [()] * other.ncols
        out = [[sum(map(mul, row, col)) for col in b_cols] for row in a_rows]
        return Matrix.from_ints(self.field, out, a_den * b_den, other.ncols)

    def apply(self, vec) -> tuple:
        """Matrix-vector product (vectors are plain tuples of scalars)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        rows, den = self.int_form()
        ints, vec_den = self.field.to_ints(vec)
        return self.field.from_ints(
            [sum(map(mul, row, ints)) for row in rows], den * vec_den
        )

    def is_zero(self) -> bool:
        return all(self.field.is_zero(v) for row in self.rows for v in row)

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(v) for v in row) for row in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"


def _echelon_of(matrix: Matrix):
    acc = echelon(matrix.field, matrix.ncols)
    for row in matrix.rows:
        acc.add(row)
    return acc


def rref(matrix: Matrix) -> tuple[Matrix, int]:
    """Canonical reduced row echelon form and rank.

    The result keeps the shape of the input: non-pivot rows appear as
    trailing zero rows.  Row spaces are equal iff the nonzero parts agree.
    """
    acc = _echelon_of(matrix)
    rows = acc.rref_rows()
    zero_row = tuple(matrix.field.zero for _ in range(matrix.ncols))
    while len(rows) < matrix.nrows:
        rows.append(zero_row)
    return Matrix(matrix.field, rows), acc.rank


def rank(matrix: Matrix) -> int:
    return _echelon_of(matrix).rank


def kernel(matrix: Matrix) -> "Subspace":
    """The right null space {x : M x = 0} as a subspace of F^ncols."""
    return null_space(matrix.field, matrix.ncols, _echelon_of(matrix))


def null_space(field, width: int, acc) -> "Subspace":
    """The null space of the rows folded into acc, as a subspace of F^width.

    Columns past ``width`` are ignored, so an augmented eliminator [M | b]
    without a pivot in its last column gives the null space of M.
    """
    return Subspace.from_vectors(field, width, kernel_vectors(field, width, acc))


def kernel_vectors(field, width: int, acc) -> list[list]:
    """One null vector of acc's rows per free column of its RREF, in column
    order: 1 at that column, 0 at the other free columns."""
    pivot_cols = acc.pivot_columns()
    rows = acc.rref_rows()
    pivot_set = set(pivot_cols)
    free_cols = [j for j in range(width) if j not in pivot_set]
    zero = field.zero
    vectors = []
    for f in free_cols:
        vec = [zero] * width
        vec[f] = field.one
        for prow, pc in zip(rows, pivot_cols):
            vec[pc] = field.neg(prow[f])
        vectors.append(vec)
    return vectors


def solve(matrix: Matrix, rhs) -> tuple[tuple, "Subspace"] | None:
    """Solve M x = rhs; returns (particular solution, kernel) or None."""
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length mismatch")
    F = matrix.field
    width = matrix.ncols + 1
    acc = echelon(F, width)
    for row, b in zip(matrix.rows, rhs):
        acc.add(list(row) + [b])
    pivot_cols = acc.pivot_columns()
    if matrix.ncols in pivot_cols:
        return None
    rows = acc.rref_rows()
    zero = F.zero
    x = [zero] * matrix.ncols
    for prow, pc in zip(rows, pivot_cols):
        x[pc] = prow[-1]
    return tuple(x), null_space(F, matrix.ncols, acc)


class Subspace:
    """A subspace of F^n held as a canonical RREF basis.

    The basis rows are in reduced echelon form ordered by pivot column,
    so ``==`` on subspaces is exactly equality of the spaces.
    """

    __slots__ = ("field", "ambient", "basis")

    def __init__(self, field, ambient: int, basis):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(row) for row in basis)

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors) -> "Subspace":
        acc = echelon(field, ambient)
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length mismatch")
            acc.add([field.coerce(x) for x in v])
        return cls(field, ambient, acc.rref_rows())

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls.from_vectors(
            field, ambient, Matrix.identity(field, ambient).rows
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def _acc(self):
        acc = echelon(self.field, self.ambient)
        for row in self.basis:
            acc.add(row)
        return acc

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length mismatch")
        return self._acc().contains([self.field.coerce(v) for v in vec])

    def residual(self, vec) -> tuple:
        """The canonical representative of vec modulo this subspace."""
        return self._acc().residual([self.field.coerce(v) for v in vec])

    def contains_subspace(self, other: "Subspace") -> bool:
        acc = self._acc()
        return all(acc.contains(row) for row in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.key(), self.ambient, self.basis))

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(
            self.field, self.ambient, list(self.basis) + list(other.basis)
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonise [A|A; B|0]; zero-left rows span A cap B."""
        self._check_ambient(other)
        n = self.ambient
        F = self.field
        zero = F.zero
        acc = echelon(F, 2 * n)
        for row in self.basis:
            acc.add(list(row) + list(row))
        for row in other.basis:
            acc.add(list(row) + [zero] * n)
        vectors = []
        for row in acc.rref_rows():
            if all(F.is_zero(v) for v in row[:n]):
                vectors.append(row[n:])
        return Subspace.from_vectors(F, n, vectors)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis, ncols=self.ambient)

    def residual_matrix(self) -> Matrix:
        """Matrix whose kernel is exactly this subspace.

        Applying the matrix to a vector gives zero iff the vector lies in
        the subspace: its rows span the null space of the basis, whose
        orthogonal complement is the row space.  Used to turn membership
        conditions into linear constraints.
        """
        return null_space(self.field, self.ambient, self._acc()).basis_matrix()

    def vectors(self):
        """Enumerate all vectors (finite fields only)."""
        F = self.field
        if not F.is_finite:
            raise FieldError("cannot enumerate a subspace over an infinite field")
        from itertools import product

        columns = list(zip(*self.basis)) or [()] * self.ambient
        for coeffs in product(F.elements(), repeat=self.dim):
            yield F.from_ints([sum(map(mul, coeffs, col)) for col in columns])

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, field={self.field})"
