"""Built-in example algebras, combinators, and the .saf file format.

The catalog carries four families over any supported field: the full and
upper-triangular 2x2 matrix algebras, the split-octonion Zorn
vector-matrix algebra, and the direct product of the field with itself.
Each instance records its unit and a designated nontrivial idempotent.

The ``.saf`` format is a line-oriented UTF-8 description of a
structure-constant algebra; serialization is canonical (sorted triples,
reduced scalars) so round-trips are byte-identical.
"""

from __future__ import annotations

from .algebra import Algebra, AlgebraError, classify_identities
from .fields import GF, QQ, FieldError

CATALOG_NAMES = ("mat2", "tri2", "zorn", "product2")

_cache: dict = {}


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
    top-right vector slot and v_j in the bottom-left.
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
    A = Algebra(
        field, 8, triples,
        unit=(1, 0, 0, 0, 0, 0, 0, 1),
        idempotent=(1, 0, 0, 0, 0, 0, 0, 0),
        name="zorn",
    )
    # The literature varies on cross-product sign conventions; guard the
    # transcription by re-deriving the defining identities.
    report = classify_identities(A)
    if report.alternative is not True or report.associative:
        raise AlgebraError("Zorn construction failed its alternativity self-check")
    return A


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
    """A catalog algebra by name over the given field (instances cached)."""
    if name not in _BUILDERS:
        raise KeyError(
            f"unknown catalog algebra {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        )
    key = (name, field.key())
    if key not in _cache:
        _cache[key] = _BUILDERS[name](field)
    return _cache[key]


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    """Component-wise product on the direct sum of the underlying spaces."""
    if A.field != B.field:
        raise AlgebraError("direct sum requires a common field")
    F = A.field
    da = A.dim
    triples = {}
    for i in range(da):
        for j in range(da):
            for k, c in enumerate(A.tensor[i][j]):
                if not F.is_zero(c):
                    triples[(i, j, k)] = c
    for i in range(B.dim):
        for j in range(B.dim):
            for k, c in enumerate(B.tensor[i][j]):
                if not F.is_zero(c):
                    triples[(da + i, da + j, da + k)] = c
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
    F = A.field
    triples = {}
    for i in range(A.dim):
        for j in range(A.dim):
            for k, c in enumerate(A.tensor[j][i]):
                if not F.is_zero(c):
                    triples[(i, j, k)] = c
    name = f"op({A.name})" if A.name else None
    return Algebra(
        F, A.dim, triples, unit=A.unit, idempotent=A.idempotent, name=name
    )


class SafError(ValueError):
    """A .saf parse/validation failure, carrying the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def parse(data) -> Algebra:
    """Parse .saf bytes (or text) into an Algebra.

    A ``name`` line sets ``Algebra.name``; ``serialize`` does not write it.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SafError(0, f"not valid UTF-8: {exc}") from exc
    else:
        text = data

    lines = list(_content_lines(text))
    pos = 0

    def take(expected: str):
        nonlocal pos
        if pos >= len(lines):
            raise SafError(
                lines[-1][0] + 1 if lines else 1, f"missing {expected} line"
            )
        number, line = lines[pos]
        pos += 1
        return number, line

    number, line = take("magic")
    if line != "saf 1":
        raise SafError(number, f"expected 'saf 1' magic, got {line!r}")

    number, line = take("field")
    parts = line.split()
    if parts[0] != "field":
        raise SafError(number, f"expected 'field ...', got {line!r}")
    if parts[1:] == ["Q"]:
        field = QQ
    elif len(parts) == 3 and parts[1] == "GF":
        try:
            field = GF(int(parts[2]))
        except (ValueError, FieldError) as exc:
            raise SafError(number, f"bad field modulus {parts[2]!r}: {exc}") from exc
    else:
        raise SafError(number, f"unknown field specification {line!r}")

    number, line = take("dim")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise SafError(number, f"expected 'dim <d>', got {line!r}")
    try:
        dim = int(parts[1])
    except ValueError as exc:
        raise SafError(number, f"bad dimension {parts[1]!r}") from exc
    if dim < 1:
        raise SafError(number, f"dimension must be positive, got {dim}")

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

    while pos < len(lines):
        number, line = lines[pos]
        pos += 1
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
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                c = A.tensor[i][j][k]
                if not F.is_zero(c):
                    out.append(f"mul {i + 1} {j + 1} {k + 1} {F.format(c)}")
    return ("\n".join(out) + "\n").encode("utf-8")
