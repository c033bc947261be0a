"""Exact linear algebra: matrices, canonical echelon forms and subspaces.

Everything is computed over one of the fields in :mod:`altrings.fields`.
Row spaces are kept in *reduced* row echelon form with rows ordered by
pivot column, so two subspaces are equal iff their stored bases are
equal.  An incremental eliminator lets constraint rows be folded in as
they are generated instead of materialising huge matrices, and
``null_space`` reads the solution space straight off it: ``kernel``,
``solve`` and every constraint space of the package go through it.

Matrices and subspaces hold their entries as int rows over one
denominator, in lowest terms (over GF(p): residues over 1), so equal
values have equal int forms.  Sums, products, comparisons, membership
tests and eliminations all run on these ints; the field elements of
``Matrix.rows`` and ``Subspace.basis`` are built from them on first
read.  Eliminators take int rows; any nonzero common scale of a row is
irrelevant to the span.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .fields import FieldError


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
        work = [v % p for v in row]
        for col, prow in self.pivots.items():
            v = work[col]
            if v:
                for i in range(self.width):
                    work[i] = (work[i] - v * prow[i]) % p
        return work

    def add(self, row) -> bool:
        """Fold one int row (reduced mod p here) into the accumulator; True
        if it enlarged the span."""
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


def echelon(field, width: int):
    """A fresh incremental eliminator for int rows of the given width."""
    if field.characteristic == 0:
        return _RationalEchelon(width)
    return _PrimeEchelon(field, width)


def _lowest_terms(field, rows, den: int) -> tuple[list[list[int]], int]:
    """Int rows over den rewritten in the canonical int form: over Q a
    positive den sharing no factor with every entry, over GF(p) residues
    over 1.  The rows are always copied."""
    p = field.characteristic
    if p:
        if den != 1:
            inv = field.inv(den)
            return [[v * inv % p for v in row] for row in rows], 1
        return [[v % p for v in row] for row in rows], 1
    if den < 0:
        den = -den
        rows = [[-v for v in row] for row in rows]
    g = den
    for row in rows:
        if g == 1:
            break
        for v in row:
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
    if g > 1:
        return [[v // g for v in row] for row in rows], den // g
    return [list(row) for row in rows], den


class Matrix:
    """An immutable matrix over a fixed field.

    The entries are held as int rows over one denominator (``int_form``);
    ``rows``, the tuple of field-element rows, is built on first read.
    """

    __slots__ = ("field", "nrows", "ncols", "_num", "_den", "_rows")

    def __init__(self, field, rows, ncols: int | None = None):
        self.field = field
        self._rows = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        self.nrows = len(self._rows)
        if self._rows:
            self.ncols = len(self._rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if any(len(r) != self.ncols for r in self._rows):
            raise ValueError("ragged rows")
        n = self.ncols
        flat, self._den = field.to_ints([v for row in self._rows for v in row])
        self._num = [flat[i * n:(i + 1) * n] for i in range(self.nrows)]

    @classmethod
    def from_ints(cls, field, int_rows, den: int, ncols: int) -> "Matrix":
        """The matrix with entries n / den for the ints n of int_rows."""
        return cls._of(field, *_lowest_terms(field, int_rows, den), ncols)

    @classmethod
    def _of(cls, field, int_rows: list, den: int, ncols: int) -> "Matrix":
        # int_rows over den must already be in the form _lowest_terms gives
        m = cls.__new__(cls)
        m.field = field
        m.nrows = len(int_rows)
        m.ncols = ncols
        m._num = int_rows
        m._den = den
        m._rows = None
        return m

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            from_ints, den = self.field.from_ints, self._den
            self._rows = tuple(from_ints(row, den) for row in self._num)
        return self._rows

    def int_form(self) -> tuple[list[list[int]], int]:
        """(int rows, den) with every entry equal to its int over den: the
        matrix's own rows, to be read and not changed."""
        return self._num, self._den

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._of(field, [[0] * ncols for _ in range(nrows)], 1, ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls._of(field, [[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @classmethod
    def from_columns(cls, field, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        if not cols:
            return cls(field, [])
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int) -> tuple:
        return self.field.from_ints([row[j] for row in self._num], self._den)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.field.key(), tuple(map(tuple, self._num)), self._den))

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._check_shape(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        rows = [[x * a + y * b for x, y in zip(ra, rb)]
                for ra, rb in zip(self._num, other._num)]
        return Matrix.from_ints(self.field, rows, den, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Matrix.from_ints(
            self.field, [[-v for v in row] for row in self._num], self._den, self.ncols
        )

    def scale(self, c) -> "Matrix":
        (n,), c_den = self.field.to_ints([self.field.coerce(c)])
        return Matrix.from_ints(
            self.field, [[n * v for v in row] for row in self._num],
            c_den * self._den, self.ncols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        b_cols = list(zip(*other._num)) or [()] * other.ncols
        out = [[sum(map(mul, row, col)) for col in b_cols] for row in self._num]
        return Matrix.from_ints(self.field, out, self._den * other._den, other.ncols)

    def apply(self, vec) -> tuple:
        """Matrix-vector product (vectors are plain tuples of scalars)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        ints, vec_den = self.field.to_ints(vec)
        return self.field.from_ints(
            [sum(map(mul, row, ints)) for row in self._num], self._den * vec_den
        )

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(v) for v in row) for row in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"


def _echelon_of(matrix: Matrix):
    acc = echelon(matrix.field, matrix.ncols)
    for row in matrix.int_form()[0]:
        acc.add(row)
    return acc


def rref(matrix: Matrix) -> tuple[Matrix, int]:
    """Canonical reduced row echelon form and rank.

    The result keeps the shape of the input: non-pivot rows appear as
    trailing zero rows.  Row spaces are equal iff the nonzero parts agree.
    """
    acc = _echelon_of(matrix)
    rows, den = acc.rref_ints()
    rows += [(0,) * matrix.ncols] * (matrix.nrows - len(rows))
    return Matrix.from_ints(matrix.field, rows, den, matrix.ncols), acc.rank


def rank(matrix: Matrix) -> int:
    return _echelon_of(matrix).rank


def kernel(matrix: Matrix) -> "Subspace":
    """The right null space {x : M x = 0} as a subspace of F^ncols."""
    return null_space(matrix.field, matrix.ncols, _echelon_of(matrix))


def row_space(field, width: int, acc) -> "Subspace":
    """The span of the rows folded into acc, as a subspace of F^width."""
    return Subspace._of(field, width, *acc.rref_ints(), acc.pivot_columns())


def null_space(field, width: int, acc) -> "Subspace":
    """The null space of the rows folded into acc, as a subspace of F^width.

    Columns past ``width`` are ignored, so an augmented eliminator [M | b]
    without a pivot in its last column gives the null space of M.
    """
    out = echelon(field, width)
    for vec in kernel_vectors(field, width, acc):
        out.add(vec)
    return row_space(field, width, out)


def kernel_vectors(field, width: int, acc) -> list[list[int]]:
    """One null vector of acc's rows per free column of its RREF, in column
    order, as ints (see _null_vectors); over GF(p) they are left unreduced."""
    return _null_vectors(width, *acc.rref_ints(), acc.pivot_columns())


def _null_vectors(width: int, rows, den: int, pivots) -> list[list[int]]:
    """For RREF rows over den with the given pivot columns, one null vector
    per free column f: den at f, 0 at the other free columns and -b[f] at
    the pivot column of each row b."""
    pivot_set = set(pivots)
    vectors = []
    for f in range(width):
        if f in pivot_set:
            continue
        vec = [0] * width
        vec[f] = den
        for prow, pc in zip(rows, pivots):
            vec[pc] = -prow[f]
        vectors.append(vec)
    return vectors


def solve(matrix: Matrix, rhs) -> tuple[tuple, "Subspace"] | None:
    """Solve M x = rhs; returns (particular solution, kernel) or None."""
    if len(rhs) != matrix.nrows:
        raise ValueError("right-hand side length mismatch")
    F = matrix.field
    width = matrix.ncols + 1
    rows, den = matrix.int_form()
    b, b_den = F.to_ints([F.coerce(v) for v in rhs])
    # row . x = b_i is (b_den row) . x = den b_i on the int forms
    acc = echelon(F, width)
    for row, bi in zip(rows, b):
        acc.add([v * b_den for v in row] + [bi * den])
    pivot_cols = acc.pivot_columns()
    if matrix.ncols in pivot_cols:
        return None
    reduced, x_den = acc.rref_ints()
    x = [0] * matrix.ncols
    for prow, pc in zip(reduced, pivot_cols):
        x[pc] = prow[-1]
    return F.from_ints(x, x_den), null_space(F, matrix.ncols, acc)


class Subspace:
    """A subspace of F^n held as a canonical RREF basis.

    The basis rows are in reduced echelon form ordered by pivot column,
    held as int rows over one denominator in lowest terms (every pivot
    entry equals it), so ``==`` on subspaces is exactly equality of the
    spaces.  ``basis``, the tuple of field-element rows, is built on first
    read.
    """

    __slots__ = ("field", "ambient", "_num", "_den", "_pivots", "_basis")

    def __init__(self, field, ambient: int, basis):
        """The span of the vectors in basis, which may be field elements or
        anything the field coerces; stored as its canonical RREF basis."""
        acc = echelon(field, ambient)
        for v in basis:
            if len(v) != ambient:
                raise ValueError("vector length mismatch")
            acc.add(field.to_ints([field.coerce(x) for x in v])[0])
        self._set(field, ambient, *acc.rref_ints(), acc.pivot_columns())

    def _set(self, field, ambient: int, rows, den: int, pivots) -> None:
        # rows: the RREF basis as ints over den in lowest terms, with the
        # pivot columns given
        self.field = field
        self.ambient = ambient
        self._num = tuple(map(tuple, rows))
        self._den = den
        self._pivots = tuple(pivots)
        self._basis = None

    @classmethod
    def _of(cls, field, ambient: int, rows, den: int, pivots) -> "Subspace":
        s = cls.__new__(cls)
        s._set(field, ambient, rows, den, pivots)
        return s

    @classmethod
    def from_vectors(cls, field, ambient: int, vectors) -> "Subspace":
        return cls(field, ambient, vectors)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls._of(field, ambient, (), 1, ())

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls._of(field, ambient, Matrix.identity(field, ambient).int_form()[0], 1,
                       range(ambient))

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            from_ints, den = self.field.from_ints, self._den
            self._basis = tuple(from_ints(row, den) for row in self._num)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def _residual_ints(self, work) -> list[int]:
        """den times the int vector work minus work[pc] times the basis row
        of each pivot column pc: 0 at every pc, and 0 everywhere iff work
        lies in the span (residues over GF(p))."""
        den = self._den
        out = [w * den for w in work] if den != 1 else list(work)
        for pc, row in zip(self._pivots, self._num):
            c = work[pc]
            if c:
                out = [x - c * b for x, b in zip(out, row)]
        if self.field.characteristic:
            p = self.field.p
            out = [x % p for x in out]
        return out

    def _vector_ints(self, vec) -> tuple[list[int], int]:
        if len(vec) != self.ambient:
            raise ValueError("vector length mismatch")
        F = self.field
        return F.to_ints([F.coerce(v) for v in vec])

    def contains(self, vec) -> bool:
        return not any(self._residual_ints(self._vector_ints(vec)[0]))

    def residual(self, vec) -> tuple:
        """The canonical representative of vec modulo this subspace: the
        unique vector of vec + span that is 0 at every pivot column."""
        work, den = self._vector_ints(vec)
        return self.field.from_ints(self._residual_ints(work), den * self._den)

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return not any(any(self._residual_ints(row)) for row in other._num)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.field.key(), self.ambient, self._num, self._den))

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        acc = echelon(self.field, self.ambient)
        for row in self._num + other._num:
            acc.add(row)
        return row_space(self.field, self.ambient, acc)

    def intersect(self, other: "Subspace") -> "Subspace":
        """A cap B, solved on the coordinates of the smaller basis: its
        vectors killed by the rows of the other's residual matrix."""
        self._check_ambient(other)
        small, large = sorted((self, other), key=lambda s: s.dim)
        return small.killed_by(large._complement()[0])

    def killed_by(self, rows) -> "Subspace":
        """{x in self : r . x = 0 for every row r}, rows of ints.

        Solved on the coordinates c of x = sum c_k b_k: a row costs one dot
        product per basis row b_k and folds into a dim-wide eliminator.  The
        null space of c and the basis are both RREF, so their product is too.
        """
        F = self.field
        k = self.dim
        basis = self._num
        acc = echelon(F, k)
        for r in rows:
            if acc.rank == k:
                break
            acc.add([sum(map(mul, r, b)) for b in basis])
        coeffs = null_space(F, k, acc)
        cols = list(zip(*basis)) or [()] * self.ambient
        out, den = _lowest_terms(
            F, [[sum(map(mul, c, col)) for col in cols] for c in coeffs._num],
            coeffs._den * self._den,
        )
        # the pivot of row i is the pivot of the basis row at c_i's pivot
        pivots = [self._pivots[q] for q in coeffs._pivots]
        return Subspace._of(F, self.ambient, out, den, pivots)

    def basis_matrix(self) -> Matrix:
        return Matrix.from_ints(self.field, self._num, self._den, self.ambient)

    def _complement(self) -> tuple[list[list[int]], int]:
        """(int rows, den) of one null vector of the basis per free column f,
        read off the RREF: 1 at f, -b[f] at the pivot column of each row b."""
        return _null_vectors(self.ambient, self._num, self._den, self._pivots), self._den

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

        columns = list(zip(*self._num)) or [()] * self.ambient
        for coeffs in product(F.elements(), repeat=self.dim):
            yield F.from_ints([sum(map(mul, coeffs, col)) for col in columns])

    def _check_ambient(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, field={self.field})"
