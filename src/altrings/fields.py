"""Exact scalar arithmetic over the supported coefficient fields.

Two kinds of field are provided: the rationals (backed by
``fractions.Fraction``) and prime fields GF(p) (backed by ints reduced
mod p).  All higher layers talk to scalars only through a field object,
so the same elimination and algebra code runs over either.

Hot loops do not call the per-scalar operations.  They cross into plain
integers once with ``to_ints(vec) -> (ints, den)`` (numerators over one
common denominator; the identity with ``den = 1`` over GF(p)),
multiply-accumulate ints, and come back once with ``from_ints(ints,
den)``, which normalises each coordinate (one ``Fraction`` each over Q,
one ``% p`` each over GF(p)).  Callers never need to know whether an
element is a Fraction or a residue.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


class FieldError(ValueError):
    """Raised for malformed scalars or invalid field parameters."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """The field of rational numbers with exact arithmetic."""

    characteristic = 0
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise FieldError(f"cannot interpret {value!r} as a rational")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def to_ints(self, vec) -> tuple[list[int], int]:
        """Integer numerators of vec over their least common denominator."""
        den = lcm(*[v.denominator for v in vec])
        if den == 1:
            return [v.numerator for v in vec], 1
        return [v.numerator * (den // v.denominator) for v in vec], den

    def from_ints(self, ints, den: int = 1) -> tuple:
        """The coordinates n / den, normalised; zero entries share ``zero``."""
        zero = self.zero
        return tuple(Fraction(n, den) if n else zero for n in ints)

    def parse(self, token: str) -> Fraction:
        try:
            return Fraction(token.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {token!r}") from exc

    def format(self, a) -> str:
        return str(Fraction(a))

    @property
    def is_finite(self) -> bool:
        return False

    def elements(self):
        raise FieldError("the rational field is not enumerable")

    def key(self):
        return ("Q",)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Q"


class PrimeField:
    """The finite field GF(p) for a prime p, elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise FieldError(f"denominator of {value} vanishes mod {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        raise FieldError(f"cannot interpret {value!r} as an element of {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_ints(self, vec) -> tuple[list[int], int]:
        """The residues themselves over denominator 1 (reduction is deferred)."""
        return list(vec), 1

    def from_ints(self, ints, den: int = 1) -> tuple:
        """The coordinates n / den reduced into [0, p)."""
        p = self.p
        if den != 1:
            inv = self.inv(den)
            return tuple(n * inv % p for n in ints)
        return tuple(n % p for n in ints)

    def parse(self, token: str) -> int:
        token = token.strip()
        try:
            value = int(token)
        except ValueError as exc:
            raise FieldError(f"bad residue literal {token!r} for {self.name}") from exc
        return value % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self):
        return range(self.p)

    def key(self):
        return ("GF", self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.name


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(name: str):
    """Parse a field name: ``Q``, or GF(p) as ``GF(7)``, ``GF 7`` or ``GFp:7``.

    The ``.saf`` ``field`` line and the CLI's ``--field`` both read this
    grammar.
    """
    text = name.strip()
    if text == "Q":
        return QQ
    compact = text.replace(" ", "")
    parts = text.split()
    if compact.startswith("GF(") and compact.endswith(")"):
        body = compact[3:-1]
    elif text.startswith("GFp:"):
        body = text[4:]
    elif len(parts) == 2 and parts[0] == "GF":
        body = parts[1]
    else:
        raise FieldError(f"unknown field {name!r}")
    try:
        p = int(body)
    except ValueError as exc:
        raise FieldError(f"unknown field {name!r}") from exc
    return GF(p)
