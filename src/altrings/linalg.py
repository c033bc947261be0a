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
        return cls(field, ambient, Matrix.identity(field, ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def _pivot_rows(self) -> tuple[list[tuple[int, list[int]]], int]:
        """([(pivot column, int row)] of the basis, den): every entry is its
        int over den, and the pivot is the row's first nonzero, where it
        has the entry 1 and every other row has 0."""
        n = self.ambient
        flat, den = self.field.to_ints([v for row in self.basis for v in row])
        rows = [flat[i:i + n] for i in range(0, len(flat), n)]
        return [(next(j for j, v in enumerate(r) if v), r) for r in rows], den

    def _residuals(self, vectors):
        """Each vector minus vec[pc] times the basis row of each pivot
        column pc: the unique vector of vec + span that is 0 at every pc."""
        F = self.field
        pivots, den = self._pivot_rows()
        for vec in vectors:
            if len(vec) != self.ambient:
                raise ValueError("vector length mismatch")
            work, vec_den = F.to_ints([F.coerce(v) for v in vec])
            out = [w * den for w in work]
            for pc, row in pivots:
                c = work[pc]
                if c:
                    out = [x - c * b for x, b in zip(out, row)]
            yield F.from_ints(out, vec_den * den)

    def contains(self, vec) -> bool:
        return not any(next(self._residuals([vec])))

    def residual(self, vec) -> tuple:
        """The canonical representative of vec modulo this subspace."""
        return next(self._residuals([vec]))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(any(r) for r in self._residuals(other.basis))

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
        """A cap B, solved on the coordinates of the smaller basis: its
        vectors killed by the rows of the other's residual matrix."""
        self._check_ambient(other)
        small, large = sorted((self, other), key=lambda s: s.dim)
        return small.killed_by(large._complement()[0])

    def killed_by(self, rows) -> "Subspace":
        """{x in self : r . x = 0 for every row r}, rows of ints or scalars.

        Solved on the coordinates c of x = sum c_k b_k: a row costs one dot
        product per basis row b_k and folds into a dim-wide eliminator.  The
        null space of c and the basis are both RREF, so their product is too.
        """
        F = self.field
        k = self.dim
        basis = [row for _, row in self._pivot_rows()[0]]
        acc = echelon(F, k)
        for r in rows:
            if acc.rank == k:
                break
            acc.add([sum(map(mul, r, b)) for b in basis])
        coeffs = null_space(F, k, acc).basis_matrix()
        return Subspace(F, self.ambient, (coeffs @ self.basis_matrix()).rows)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis, ncols=self.ambient)

    def _complement(self) -> tuple[list[list[int]], int]:
        """(int rows, den) of one null vector of the basis per free column f,
        read off the RREF: 1 at f, -b[f] at the pivot column of each row b."""
        n = self.ambient
        pivots, den = self._pivot_rows()
        out = []
        for f in sorted(set(range(n)) - {pc for pc, _ in pivots}):
            vec = [0] * n
            vec[f] = den
            for pc, row in pivots:
                vec[pc] = -row[f]
            out.append(vec)
        return out, den

    def residual_matrix(self) -> Matrix:
        """Matrix whose kernel is exactly this subspace.

        Applying the matrix to a vector gives zero iff the vector lies in
        the subspace: its rows span the null space of the basis, whose
        orthogonal complement is the row space.  Used to turn membership
        conditions into linear constraints.
        """
        return Matrix.from_ints(self.field, *self._complement(), self.ambient)

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
