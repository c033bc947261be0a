"""Built-in example algebras, combinators, and the three file formats.

The catalog carries four families over any supported field: the full and
upper-triangular 2x2 matrix algebras, the split-octonion Zorn
vector-matrix algebra, and the direct product of the field with itself.
Each instance records its unit and a designated nontrivial idempotent.

The ``.saf`` format is a line-oriented UTF-8 description of a
structure-constant algebra; serialization is canonical (sorted triples,
reduced scalars) so round-trips are byte-identical.  ``.lmap`` holds
a linear map as matrix rows and ``.tmap`` a value table on a finite ring.
All three share one line reader: blank lines and ``#`` comments are
skipped, and every error is a ``SafError`` naming the line at fault.
"""

from __future__ import annotations

from .algebra import Algebra, AlgebraError, LinearMap
from .fields import FieldError, parse_field
from .linalg import Matrix

CATALOG_NAMES = ("mat2", "tri2", "zorn", "product2")


def _mat2(field) -> Algebra:
    # basis E11, E12, E21, E22; E_ab * E_cd = [b == c] E_ad
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    triples = {}
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                triples[(i, j, idx[(a, d)])] = 1
    return Algebra(
        field, 4, triples, unit=(1, 0, 0, 1), idempotent=(1, 0, 0, 0), name="mat2"
    )


def _tri2(field) -> Algebra:
    # basis E11, E12, E22 of the upper-triangular 2x2 algebra
    triples = {
        (0, 0, 0): 1,  # E11 E11 = E11
        (0, 1, 1): 1,  # E11 E12 = E12
        (1, 2, 1): 1,  # E12 E22 = E12
        (2, 2, 2): 1,  # E22 E22 = E22
    }
    return Algebra(
        field, 3, triples, unit=(1, 0, 1), idempotent=(1, 0, 0), name="tri2"
    )


def _zorn(field) -> Algebra:
    """Zorn vector matrices [[a, v], [w, b]] with the block product

    [[a,v],[w,b]] * [[a',v'],[w',b']] =
        [[a a' + v.w',  a v' + b' v - w x w'],
         [a' w + b w' + v x v',  b b' + w.v']]

    Basis order: e1, u1, u2, u3, v1, v2, v3, e2, where u_j sits in the
    top-right vector slot and v_j in the bottom-left.  The literature
    varies on cross-product sign conventions; the tests re-derive that the
    result is alternative and not associative, over Q and small primes.
    The constants are integers, so identities that hold over Q hold mod
    every p.
    """
    E1, U, V, E2 = 0, 1, 4, 7
    triples: dict = {}

    def put(i, j, k, c):
        triples[(i, j, k)] = triples.get((i, j, k), 0) + c

    put(E1, E1, E1, 1)
    put(E2, E2, E2, 1)
    for j in range(3):
        put(E1, U + j, U + j, 1)   # e1 u = u
        put(U + j, E2, U + j, 1)   # u e2 = u
        put(V + j, E1, V + j, 1)   # v e1 = v
        put(E2, V + j, V + j, 1)   # e2 v = v
        put(U + j, V + j, E1, 1)   # u_i . v_i = e1
        put(V + j, U + j, E2, 1)   # v_i . u_i = e2
    # cross products: u_i u_j = eps_ijk v_k, v_i v_j = -eps_ijk u_k
    for (i, j, k, sign) in (
        (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
        (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1),
    ):
        put(U + i, U + j, V + k, sign)
        put(V + i, V + j, U + k, -sign)
    return Algebra(
        field, 8, triples,
        unit=(1, 0, 0, 0, 0, 0, 0, 1),
        idempotent=(1, 0, 0, 0, 0, 0, 0, 0),
        name="zorn",
    )


def _product2(field) -> Algebra:
    triples = {(0, 0, 0): 1, (1, 1, 1): 1}
    return Algebra(
        field, 2, triples, unit=(1, 1), idempotent=(1, 0), name="product2"
    )


_BUILDERS = {
    "mat2": _mat2,
    "tri2": _tri2,
    "zorn": _zorn,
    "product2": _product2,
}


def catalog(name: str, field) -> Algebra:
    """A catalog algebra by name over the given field, freshly built on each
    call, so no caller sees another's memo."""
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown catalog algebra {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        )
    return _BUILDERS[name](field)


def _triples(A: Algebra) -> dict:
    """The nonzero structure constants of A as {(i, j, k): c}, in index order."""
    F = A.field
    return {(i, j, k): c for i, plane in enumerate(A.tensor) for j, row in enumerate(plane)
            for k, c in enumerate(row) if not F.is_zero(c)}


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    """Component-wise product on the direct sum of the underlying spaces."""
    if A.field != B.field:
        raise AlgebraError("direct sum requires a common field")
    F = A.field
    da = A.dim
    triples = _triples(A)
    triples.update(((da + i, da + j, da + k), c) for (i, j, k), c in _triples(B).items())
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = tuple(A.unit) + tuple(B.unit)
    idem = None
    if A.idempotent is not None:
        idem = tuple(A.idempotent) + (F.zero,) * B.dim
    name = None
    if A.name and B.name:
        name = f"{A.name}+{B.name}"
    return Algebra(F, da + B.dim, triples, unit=unit, idempotent=idem, name=name)


def opposite(A: Algebra) -> Algebra:
    """The same space with reversed multiplication x *' y = y x."""
    triples = {(j, i, k): c for (i, j, k), c in _triples(A).items()}
    name = f"op({A.name})" if A.name else None
    return Algebra(
        A.field, A.dim, triples, unit=A.unit, idempotent=A.idempotent, name=name
    )


class SafError(ValueError):
    """A .saf/.lmap/.tmap parse or validation failure, carrying the offending
    line number; ``detail`` is the message without the line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.detail = message


def _content_lines(data) -> list:
    """(number, text) of each line that is not blank once its ``#`` comment
    is cut, numbered from 1.  Bytes must be UTF-8; a bad byte names its line."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise SafError(line, f"not valid UTF-8: {exc}") from exc
    lines = []
    for number, raw in enumerate(data.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((number, line))
    return lines


def _missing(lines: list, what: str) -> SafError:
    """The error for a line the file lacks: it names the line after the last."""
    return SafError(lines[-1][0] + 1 if lines else 1, f"missing {what}")


def _take(lines: list, pos: int, expected: str) -> tuple:
    if pos >= len(lines):
        raise _missing(lines, f"{expected} line")
    return lines[pos]


def _magic(lines: list, magic: str) -> None:
    """Check the magic line that opens every file."""
    number, line = _take(lines, 0, "magic")
    if line != magic:
        raise SafError(number, f"expected {magic!r} magic, got {line!r}")


def _count(lines: list, pos: int, key: str) -> tuple:
    """The positive integer n of the ``key <n>`` header line at pos,
    as (line number, n)."""
    number, line = _take(lines, pos, key)
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise SafError(number, f"expected '{key} <n>', got {line!r}")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise SafError(number, f"bad {key} {parts[1]!r}") from exc
    if n < 1:
        raise SafError(number, f"{key} must be positive, got {n}")
    return number, n


def parse(data) -> Algebra:
    """Parse .saf bytes (or text) into an Algebra.

    A ``name`` line sets ``Algebra.name``; ``serialize`` does not write it.
    """
    lines = _content_lines(data)
    _magic(lines, "saf 1")

    number, line = _take(lines, 1, "field")
    keyword, *spec = line.split(None, 1)
    if keyword != "field":
        raise SafError(number, f"expected 'field ...', got {line!r}")
    try:
        field = parse_field(spec[0] if spec else "")
    except FieldError as exc:
        raise SafError(number, f"bad field line {line!r}: {exc}") from exc

    _, dim = _count(lines, 2, "dim")

    name = None
    unit = None
    unit_line = None
    idem = None
    idem_line = None
    triples: dict = {}

    def parse_coords(number, parts, label):
        if len(parts) != dim:
            raise SafError(
                number, f"{label} needs {dim} coordinates, got {len(parts)}"
            )
        try:
            return tuple(field.parse(tok) for tok in parts)
        except FieldError as exc:
            raise SafError(number, f"bad {label} coordinate: {exc}") from exc

    for number, line in lines[3:]:
        parts = line.split()
        head = parts[0]
        if head == "name":
            if name is not None:
                raise SafError(number, "duplicate name line")
            if len(parts) < 2:
                raise SafError(number, f"expected 'name <str>', got {line!r}")
            name = line.split(None, 1)[1]
        elif head == "unit":
            if unit is not None:
                raise SafError(number, "duplicate unit line")
            unit = parse_coords(number, parts[1:], "unit")
            unit_line = number
        elif head == "idem":
            if idem is not None:
                raise SafError(number, "duplicate idem line")
            idem = parse_coords(number, parts[1:], "idem")
            idem_line = number
        elif head == "mul":
            if len(parts) != 5:
                raise SafError(number, f"expected 'mul i j k c', got {line!r}")
            try:
                i, j, k = (int(tok) for tok in parts[1:4])
            except ValueError as exc:
                raise SafError(number, f"bad index in {line!r}") from exc
            for index in (i, j, k):
                if not 1 <= index <= dim:
                    raise SafError(
                        number, f"index {index} out of range 1..{dim}"
                    )
            key = (i - 1, j - 1, k - 1)
            if key in triples:
                raise SafError(number, f"duplicate triple ({i},{j},{k})")
            try:
                triples[key] = field.parse(parts[4])
            except FieldError as exc:
                raise SafError(number, f"bad scalar {parts[4]!r}: {exc}") from exc
        else:
            raise SafError(number, f"unknown directive {head!r}")

    try:
        return Algebra(field, dim, triples, unit=unit, idempotent=idem, name=name)
    except AlgebraError as exc:
        bad_line = unit_line if "unit" in str(exc) else idem_line
        raise SafError(bad_line or 1, str(exc)) from exc


def serialize(A: Algebra) -> bytes:
    """Canonical .saf bytes: header, then mul lines sorted by (i, j, k)."""
    F = A.field
    out = ["saf 1"]
    if F.characteristic == 0:
        out.append("field Q")
    else:
        out.append(f"field GF {F.p}")
    out.append(f"dim {A.dim}")
    if A.unit is not None:
        out.append("unit " + " ".join(F.format(v) for v in A.unit))
    if A.idempotent is not None:
        out.append("idem " + " ".join(F.format(v) for v in A.idempotent))
    for (i, j, k), c in _triples(A).items():
        out.append(f"mul {i + 1} {j + 1} {k + 1} {F.format(c)}")
    return ("\n".join(out) + "\n").encode("utf-8")


def parse_linear_map(data, A: Algebra) -> LinearMap:
    """Parse .lmap bytes (or text): ``lmap 1``, ``dim <d>``, then d
    ``row <d scalars>`` lines giving the matrix rows of a map on A."""
    lines = _content_lines(data)
    _magic(lines, "lmap 1")
    number, d = _count(lines, 1, "dim")
    if d != A.dim:
        raise SafError(number, f"map dim {d} does not match algebra dim {A.dim}")
    rows = []
    for number, line in lines[2:]:
        parts = line.split()
        if parts[0] != "row" or len(parts) != d + 1:
            raise SafError(number, f"expected 'row' and {d} scalars, got {line!r}")
        if len(rows) == d:
            raise SafError(number, f"extra row line; the map has {d} rows")
        try:
            rows.append([A.field.parse(tok) for tok in parts[1:]])
        except FieldError as exc:
            raise SafError(number, f"bad scalar: {exc}") from exc
    if len(rows) < d:
        raise _missing(lines, f"row line: expected {d}, got {len(rows)}")
    return LinearMap(A, Matrix(A.field, rows, ncols=d))


def parse_map_table(data, ring: FiniteRing) -> MapTable:
    """Parse .tmap bytes (or text): ``tmap 1``, ``size <S>``, then S
    ``map <i> <j>`` lines, each sending element i of the ring to element j."""
    from .finite import MapTable  # only .tmap readers need the finite module

    lines = _content_lines(data)
    _magic(lines, "tmap 1")
    number, size = _count(lines, 1, "size")
    if size != ring.size:
        raise SafError(
            number, f"table size {size} does not match ring size {ring.size}"
        )
    values = [None] * size
    for number, line in lines[2:]:
        parts = line.split()
        if parts[0] != "map" or len(parts) != 3:
            raise SafError(number, f"expected 'map <i> <j>', got {line!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise SafError(number, "indices must be integers") from exc
        if not (0 <= i < size and 0 <= j < size):
            raise SafError(number, f"index out of range 0..{size - 1}")
        if values[i] is not None:
            raise SafError(number, f"duplicate entry for element {i}")
        values[i] = j
    if None in values:
        raise _missing(lines, f"map line for element {values.index(None)}")
    return MapTable(ring, values)


def dump_map_table(T: MapTable) -> str:
    """Canonical .tmap text: the header, then one map line per element."""
    lines = ["tmap 1", f"size {T.ring.size}"]
    lines += [f"map {i} {v}" for i, v in enumerate(T.values)]
    return "\n".join(lines) + "\n"
