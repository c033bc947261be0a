"""Exact linear algebra: matrices, canonical echelon forms and subspaces.

Everything is computed over one of the fields in :mod:`altrings.fields`.
Subspaces are kept in *reduced* row echelon form with rows ordered by
pivot column, so two subspaces are equal iff their stored bases are
equal.  An incremental eliminator lets constraint rows be folded in as
they are generated instead of materialising huge matrices.  There is one
eliminator, ``_RationalEchelon``; ``_PrimeEchelon`` gives it the
arithmetic of GF(p).  Over both fields it keeps its rows stepped between
reads and reduces them when they are read; only over Q does it pack a
null basis (below).  Every elimination here is one fold (``_fold``),
which skips zero rows and reads no row once the rank is final.
``null_space`` takes a stream of int rows and the part of its answer
already known, which it returns once the rank reaches width - dim known,
and else reads the kernel's RREF off the same fold (columns reversed):
``kernel``, ``Subspace.killed_by`` and every constraint space go through
it, and no other module reads an eliminator's pivot rows.

Matrices and subspaces hold their entries as int rows over one
denominator, in lowest terms (over GF(p): residues over 1), so equal
values have equal int forms.  Sums, products, comparisons, membership
tests and eliminations all run on these ints; the field elements of
``Matrix.rows`` and ``Subspace.basis`` are built from them on first
read.  Eliminators take int rows; any nonzero common scale of a row is
irrelevant to the span.

Over Q most constraint rows add no rank, and the eliminator proves such a
row dependent by one dot product instead of reducing it: once its span
fills half the width it keeps the null basis of the span packed by columns
into signed w-bit slots, and a row r with sum |r_i| times the largest null
entry below 2^w, whose packed product is 0, is orthogonal to the null
space and so lies in the span.  (Over GF(p) a zero packed product proves
nothing, so there every row is reduced.)  Every other row is reduced
against the pivot rows, the only path that changes them, and a new pivot
row is not back-substituted into the others.  A reader back-substitutes
the rows added since the last read, so the rows it sees hold the same
ints as a plain elimination that back-substitutes after every row (see
``_RationalEchelon``).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import compress
from math import gcd, lcm
from operator import lshift, mul

from .fields import FieldError

# Dependent rows the reduce path finds before the packed null basis is
# rebuilt.  Replaying the eliminators' row streams against the plain
# elimination (one CPU, pinned, paired runs), 1, 2, 4, 8 and 16 ran the
# q-spaces derivation and Lie-2/3 streams of zorn at 0.64, 0.63, 0.65,
# 0.65 and 0.68 of its time, and those of lie_n_derivation_space(zorn, n)
# for n = 4 and 7 and of lie3 on a dense zorn, where a rebuild 520 wide
# costs ~13 ms, at 1.09, 0.90, 0.89, 0.77 and 0.76.
_REBUILD_AFTER = 8


class _RationalEchelon:
    """Incremental RREF over Q, reduced on read.

    Rows are stored as integer lists cleared of common content; this keeps
    the elimination in (fast) integer arithmetic and avoids Fraction churn
    in inner loops.  ``add`` keeps its rows *stepped*: a new row is reduced
    against the pivot rows in ascending pivot-column order, which clears
    every pivot column of it, then normalised (``_normalise``: over Q
    cleared of its content and given a positive lead); it is not
    back-substituted into the earlier rows.  The readers (``pivots``,
    ``rref_ints``, ``_pack_null_basis``) first back-substitute, once, the
    rows added since the last read.  A row cleared at every pivot column but
    its own lies in a line fixed by the span, so every stored row is then
    the normalised multiple of its unique RREF row: a reader sees the same
    ints as a plain elimination that back-substitutes after every row.
    ``_PrimeEchelon`` is this eliminator over GF(p): it changes only the
    arithmetic of ``_own``, ``_clear`` and ``_normalise``, and it keeps no
    packed null basis.

    Over Q most dependent rows are told apart by one packed dot product
    instead of a reduction.  The eliminator keeps a null basis of its span,
    one int vector n_f per free column f of the RREF (``_pack_null_basis``),
    packed by columns into signed w-bit slots: ``_null[i]`` is the sum of
    n_f[i] << (w k) over the k-th free column f.  So sum_i r_i _null[i]
    holds r . n_f in slot k.  When sum |r_i| * max |n| < 2^w no slot value
    reaches 2^w in size, and then the sum is 0 only if every r . n_f is:
    r is orthogonal to the null space, so it lies in (span^perp)^perp, the
    span, and ``add`` returns False without touching anything.  Every other
    row (a nonzero sum, or entries too large for the slots) takes the
    reduce path, the only one that changes the rows, so what ``add``
    returns and what a reader sees are exactly those of the elimination
    without the packed check.  The basis is built once the rank reaches
    half the width, and built again whenever the reduce path has found
    _REBUILD_AFTER more dependent rows; in between, a basis of an earlier
    span still proves membership, since the span only grows.
    """

    # whether to keep the packed null basis: a zero packed product proves
    # a row dependent over Q only, so _PrimeEchelon never builds one
    _packs = True
    # the packed state, kept per instance once it is first written
    _null = None   # the packed null basis, once built
    _limit = -1    # rows with sum |r_i| <= _limit fit its slots
    _misses = 0    # dependent rows reduced since it was built
    _size = 0      # the largest sum |r_i| its slots must take

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, list[int]] = {}  # pivot column -> its row
        self._order: list[int] = []  # the pivot columns, ascending
        self._fresh: list[int] = []  # pivot columns added since the last read

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> dict[int, list[int]]:
        """Pivot column -> its RREF row, normalised (see ``_normalise``)."""
        if self._fresh:
            self._back_substitute()
        return self._rows

    # an incoming row as a list of its own
    _own = list

    @staticmethod
    def _normalise(row: list[int], col: int) -> None:
        # the row, led at col, over its content with a positive lead
        content = gcd(*row)
        if row[col] < 0:
            content = -content
        if content != 1:
            row[:] = [v // content for v in row]

    def _clear(self, row: list[int], prow: list[int], col: int, start: int) -> None:
        # row minus a multiple of the pivot row prow of column col, scaled
        # to stay integral, so that row[col] becomes 0; prow is 0 before col
        # and row before start
        v, lead = row[col], prow[col]
        g = gcd(lead, v)
        mult, sub = lead // g, v // g
        if mult == 1:
            for i in range(col, self.width):
                row[i] -= prow[i] * sub
        else:
            for i in range(start, self.width):
                row[i] = row[i] * mult - prow[i] * sub

    def _reduced(self, row: list[int]) -> list[int]:
        # A pivot row is 0 before its column, so clearing the columns in
        # ascending order never refills one already cleared.
        rows = self._rows
        for col in self._order:
            if row[col]:
                self._clear(row, rows[col], col, 0)
        return row

    def add(self, row) -> bool:
        """Fold one int row (a list or tuple of width ints) into the
        accumulator; True if it enlarged the span."""
        null = self._null
        if null is not None and not sum(map(mul, compress(row, row), compress(null, row))):
            size = sum(map(abs, row))
            if size <= self._limit:
                return False
            self._size = max(self._size, size)
        work = self._reduced(self._own(row))
        lead = next(filter(None, work), 0)
        if not lead:
            if self._packs:
                self._misses += 1
                # below half rank the packed ints hold more slots than a
                # reduction meets pivots: the eliminators of
                # lie_n_derivation_space(zorn, 7), 520 wide at rank <= 294,
                # ran at 0.72 of the plain time packing from rank width / 2
                # on, 0.82 from width / 3 on and 1.15 from rank 0 (the
                # q-spaces streams ran alike under all three)
                if self._misses >= _REBUILD_AFTER and 2 * len(self._rows) >= self.width:
                    self._size = max(self._size, sum(map(abs, row)))
                    self._pack_null_basis()
            return False
        lead_col = work.index(lead)  # every entry before the lead is 0
        if lead != 1:  # a row led by 1 is normalised over either field
            self._normalise(work, lead_col)
        self._rows[lead_col] = work
        order = self._order
        insort(order, lead_col)
        # only a row of a smaller pivot can be nonzero at lead_col, and one
        # added later is cleared there by _reduced
        if order[0] != lead_col:
            self._fresh.append(lead_col)
        return True

    def _back_substitute(self) -> None:
        """Clear the columns added since the last read (but for a column
        that was the smallest pivot when added) from every other row.
        Taken in descending pivot order, a row meets only rows of
        larger pivots, which are already reduced: each is 0 at every pivot
        column but its own, so clearing one column of a row refills none."""
        fresh = self._fresh
        fresh.sort()
        rows = self._rows
        top = fresh[-1]
        for col in reversed(self._order):
            if col >= top:
                continue
            row = rows[col]
            changed = False
            for c in fresh[bisect_right(fresh, col):]:
                if row[c]:
                    self._clear(row, rows[c], c, col)
                    changed = True
            if changed and row[col] != 1:
                self._normalise(row, col)
        fresh.clear()

    def _pack_null_basis(self) -> None:
        """Pack the null basis of the current span: for each free column f,
        den at f and -b[f] den / b[p] at the pivot column p of each RREF
        row b, den the lcm of the leads b[p].  The slots are just wide
        enough for rows with sum |r_i| up to the largest one met so far.
        Packing the free entries of the pivot rows costs rank x nullity
        steps; packing the columns of ``_null_vectors`` instead ran the
        lie_n_derivation_space(zorn, 7) streams at 1.13 of the plain
        elimination's time against 0.71."""
        pivots = self.pivots
        free = [f for f in range(self.width) if f not in pivots]
        den = lcm(*[prow[col] for col, prow in pivots.items()])
        scaled = []
        big = den  # the largest |entry| of a null vector
        for col, prow in pivots.items():
            vals = [prow[f] for f in free]
            scale = den // prow[col]
            if vals:
                big = max(big, scale * max(max(vals), -min(vals)))
            scaled.append((col, -scale, vals))
        w = (big * self._size).bit_length()
        shifts = [w * k for k in range(len(free))]
        null = [0] * self.width
        for f, shift in zip(free, shifts):
            null[f] = den << shift
        for col, scale, vals in scaled:
            null[col] = scale * sum(map(lshift, compress(vals, vals), compress(shifts, vals)))
        self._null = null
        self._limit = ((1 << w) - 1) // big
        self._misses = 0

    def rref_ints(self) -> tuple[list[tuple], int]:
        """(RREF rows in pivot order, den): ints over their least common
        denominator, so every pivot entry equals den."""
        pivots = self.pivots
        den = lcm(*[row[col] for col, row in pivots.items()])
        if den == 1:  # every lead is 1, as always over GF(p)
            return [tuple(pivots[col]) for col in self._order], 1
        leads = [(pivots[col], col) for col in self._order]
        return [tuple(row) if row[col] == den else tuple(v * (den // row[col]) for v in row)
                for row, col in leads], den

    def pivot_columns(self) -> list[int]:
        return list(self._order)


class _PrimeEchelon(_RationalEchelon):
    """Incremental RREF over GF(p), reduced on read: ``_RationalEchelon``
    with each incoming row taken mod p, a column cleared by subtracting
    row[col] times its pivot row, every stored row scaled to lead with 1
    (so ``rref_ints`` returns residues over den 1) and no packed null
    basis."""

    _packs = False

    def __init__(self, field, width: int):
        super().__init__(width)
        self.p = field.p

    def _own(self, row) -> list[int]:
        p = self.p
        return [v % p for v in row]

    def _normalise(self, row: list[int], col: int) -> None:
        # the row, led at col, scaled to lead with 1
        p = self.p
        inv = pow(row[col], -1, p)
        for i in range(col, self.width):
            row[i] = row[i] * inv % p

    def _clear(self, row: list[int], prow: list[int], col: int, start: int) -> None:
        # prow leads with 1 at col and is 0 before it; skipping its zeros
        # replayed the GF(3) Lie-3 rows of zorn in 0.75 of a full pass's time
        p, v = self.p, row[col]
        for i in range(col, self.width):
            b = prow[i]
            if b:
                row[i] = (row[i] - v * b) % p


def echelon(field, width: int):
    """A fresh incremental eliminator for int rows of the given width."""
    if field.characteristic == 0:
        return _RationalEchelon(width)
    return _PrimeEchelon(field, width)


def _apply_ints(rows, vec) -> list[int]:
    """The int matrix-vector product rows . vec (no reduction mod p)."""
    return [sum(map(mul, row, vec)) for row in rows]


def _nonzero(vec, p: int) -> bool:
    """Whether an int vector is nonzero as field elements (mod p if p)."""
    return any(v % p for v in vec) if p else any(vec)


def _product_ints(a, b) -> list[list[int]]:
    """The int matrix product a b of row lists (no reduction mod p); a zero
    row of a, as in a projection or a column of central values, costs no
    dot products."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] if any(row) else [0] * len(cols)
            for row in a]


def _lowest_terms(field, rows, den: int,
                  fresh: bool = False) -> tuple[list[list[int]], int]:
    """Int rows over den rewritten in the canonical int form: over Q a
    positive den sharing no factor with every entry, over GF(p) residues
    over 1.  The rows are always copied, unless fresh says that they are
    lists no one else holds: fresh rows already in that form are kept."""
    p = field.characteristic
    if p:
        if den != 1:
            inv = field.inv(den)
            return [[v * inv % p for v in row] for row in rows], 1
        return [[v % p for v in row] for row in rows], 1
    if den < 0:
        den = -den
        rows = [[-v for v in row] for row in rows]
        fresh = True
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
    return (rows if fresh else [list(row) for row in rows]), den


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
    def _from_fresh(cls, field, int_rows: list, den: int, ncols: int) -> "Matrix":
        """from_ints for int rows that are lists no one else holds; they
        become the matrix's own when already in lowest terms."""
        return cls._of(field, *_lowest_terms(field, int_rows, den, fresh=True), ncols)

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
        return Matrix._from_fresh(self.field, rows, den, self.ncols)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Matrix._from_fresh(
            self.field, [[-v for v in row] for row in self._num], self._den, self.ncols
        )

    def scale(self, c) -> "Matrix":
        (n,), c_den = self.field.to_ints([self.field.coerce(c)])
        return Matrix._from_fresh(
            self.field, [[n * v for v in row] for row in self._num],
            c_den * self._den, self.ncols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        if other.nrows:
            out = _product_ints(self._num, other._num)
        else:
            out = [[0] * other.ncols for _ in self._num]
        return Matrix._from_fresh(self.field, out, self._den * other._den, other.ncols)

    def apply(self, vec) -> tuple:
        """Matrix-vector product (vectors are plain tuples of scalars)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        ints, vec_den = self.field.to_ints(vec)
        return self.field.from_ints(_apply_ints(self._num, ints), self._den * vec_den)

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(v) for v in row) for row in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"


def _image(matrix: Matrix, vec) -> tuple[list[int], int]:
    """The image under matrix of the vector given as (ints, den), in the
    same form (unreduced over GF(p))."""
    ints, den = vec
    return _apply_ints(matrix._num, ints), matrix._den * den


def _fold(field, width: int, rows, final: int | None = None):
    """An eliminator of the given width with the nonzero int rows of rows
    folded in.  No row is read once its rank reaches final (width when
    None), so rows may be a lazy stream."""
    acc = echelon(field, width)
    final = width if final is None else final
    for row in rows if final else ():
        if any(row) and acc.add(row) and acc.rank == final:
            break
    return acc


def rref(matrix: Matrix) -> tuple[Matrix, int]:
    """Canonical reduced row echelon form and rank.

    The result keeps the shape of the input: non-pivot rows appear as
    trailing zero rows.  Row spaces are equal iff the nonzero parts agree.
    """
    acc = _fold(matrix.field, matrix.ncols, matrix.int_form()[0])
    rows, den = acc.rref_ints()
    rows += [(0,) * matrix.ncols] * (matrix.nrows - len(rows))
    return Matrix.from_ints(matrix.field, rows, den, matrix.ncols), acc.rank


def rank(matrix: Matrix) -> int:
    return _fold(matrix.field, matrix.ncols, matrix.int_form()[0]).rank


def kernel(matrix: Matrix) -> "Subspace":
    """The right null space {x : M x = 0} as a subspace of F^ncols."""
    return null_space(matrix.field, matrix.ncols, matrix.int_form()[0])


def null_space(field, width: int, rows, known: "Subspace | None" = None) -> "Subspace":
    """{x in F^width : r . x = 0 for every int row r of rows}, in RREF.

    known is a subspace of the answer that the caller already has (the
    zero space when None).  Once the rank of the rows read reaches
    width - dim known, the answer is known itself, which is returned
    without reading a further row; so rows may be a lazy stream.

    Else the answer is read off that one fold, which takes the nonzero rows
    with their columns reversed.  There the null vector of a free column f
    (see _null_vectors) is nonzero only at f and at pivot columns before f,
    so turned back to front it leads at the mirror of f, with 0 at the
    mirror of every other free column: last first, these are the kernel's
    RREF rows, and no second elimination is needed.
    """
    if known is None:
        known = Subspace.zero(field, width)
    final = width - known.dim
    acc = _fold(field, width, (row[::-1] for row in rows if any(row)), final)
    if acc.rank == final:
        return known
    (reduced, den), pivots = acc.rref_ints(), acc.pivot_columns()
    vectors = [vec[::-1] for vec in reversed(_null_vectors(width, reduced, den, pivots))]
    leads = sorted(set(range(width)).difference(width - 1 - pc for pc in pivots))
    return Subspace._of(field, width, *_lowest_terms(field, vectors, den, fresh=True), leads)


def kernel_vectors(field, width: int, rows) -> list[list[int]]:
    """One null vector of the int rows of width ``width`` per free column
    of their RREF, in column order, as ints (see _null_vectors); over
    GF(p) they are left unreduced."""
    acc = _fold(field, width, rows)
    return _null_vectors(width, *acc.rref_ints(), acc.pivot_columns())


def _null_vectors(width: int, rows, den: int, pivots) -> list[list[int]]:
    """For RREF rows over den with the given pivot columns, one null vector
    per free column f < width: den at f, 0 at the other free columns and
    -b[f] at the pivot column of each row b.  So an augmented [M | b]
    without a pivot in its last column gives the null vectors of M."""
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
    n = matrix.ncols
    rows, den = matrix.int_form()
    b, b_den = F.to_ints([F.coerce(v) for v in rhs])
    # row . x = b_i is (b_den row) . x = den b_i on the int forms
    acc = _fold(F, n + 1, ([v * b_den for v in row] + [bi * den] for row, bi in zip(rows, b)))
    pivot_cols = acc.pivot_columns()
    if n in pivot_cols:
        return None
    reduced, x_den = acc.rref_ints()
    x = [0] * n
    for prow, pc in zip(reduced, pivot_cols):
        x[pc] = prow[-1]
    return F.from_ints(x, x_den), Subspace.from_ints(
        F, n, _null_vectors(n, reduced, x_den, pivot_cols))


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
        rows = []
        for v in basis:
            if len(v) != ambient:
                raise ValueError("vector length mismatch")
            rows.append(field.to_ints([field.coerce(x) for x in v])[0])
        acc = _fold(field, ambient, rows)
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
    def from_ints(cls, field, ambient: int, rows) -> "Subspace":
        """The span of int rows of width ambient (any nonzero scale of a row
        spans the same line)."""
        acc = _fold(field, ambient, rows)
        return cls._of(field, ambient, *acc.rref_ints(), acc.pivot_columns())

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls._of(field, ambient, (), 1, ())

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        return cls._of(field, ambient, ((0,) * i + (1,) + (0,) * (ambient - i - 1)
                                        for i in range(ambient)), 1, range(ambient))

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
        return Subspace.from_ints(self.field, self.ambient, self._num + other._num)

    def intersect(self, other: "Subspace") -> "Subspace":
        """A cap B, solved on the coordinates of the smaller basis: its
        vectors killed by the rows of the other's residual matrix."""
        self._check_ambient(other)
        small, large = sorted((self, other), key=lambda s: s.dim)
        return small.killed_by(large._complement()[0])

    def killed_by(self, rows) -> "Subspace":
        """{x in self : r . x = 0 for every int row r of width ambient}.

        Solved on the coordinates c of x = sum c_k b_k over the basis rows
        b_k: ``null_space`` of the rows (r . b_k) over k, read lazily, so
        rows may be a lazy stream that is not read past the row that fills
        the span.  That null space and the basis are both RREF, so their
        product is too.  The zero subspace returns itself, reading no row.
        """
        if self.is_zero():
            return self
        F = self.field
        basis = self._num
        coeffs = null_space(F, self.dim, ([sum(map(mul, r, b)) for b in basis]
                                          for r in rows if any(r)))
        if coeffs.is_zero():
            return Subspace.zero(F, self.ambient)
        cols = list(zip(*basis))
        out, den = _lowest_terms(
            F, [[sum(map(mul, c, col)) for col in cols] for c in coeffs._num],
            coeffs._den * self._den, fresh=True,
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
        return Matrix._from_fresh(self.field, *self._complement(), self.ambient)

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
