"""Exact ground-field arithmetic: GF(p) for prime p, and the rationals.

Field elements are plain Python values (int residues in [0, p) for GF(p),
`fractions.Fraction` or int for the rationals). Formulas are written in
Python's operators and reduced once by the field's `of`; the field object
supplies `of`, `inv`, `canonical` (GF(p)), `zero`/`one` and `elements`.
Everything is exact; no floating point is used anywhere.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

Element = Union[int, Fraction]


class FieldError(Exception):
    pass


class MalformedSpec(FieldError):
    """Field spec string does not match ``gf:<p>`` or ``q``."""


class NonPrimeModulus(FieldError):
    """Requested GF(p) with composite or too-small p."""


class InfiniteField(FieldError):
    """Operation requires a finite field."""


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (desk-scale moduli)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def icbrt(n: int) -> int:
    """Floor of the real cube root of a nonnegative integer, exactly."""
    if n < 0:
        raise ValueError("icbrt expects n >= 0")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)  # upper bound for the cube root
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


class PrimeField:
    """GF(p), p prime. Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self._cube_table: Optional[dict] = None

    # --- structure ---
    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p

    is_finite = True

    def spec_string(self) -> str:
        return f"gf:{self.p}"

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    # --- arithmetic ---
    def of(self, n) -> int:
        """Coerce an integer (or Fraction with invertible denominator) into GF(p)."""
        if type(n) is int:  # the common case, ahead of the slower ABC isinstance
            return n % self.p
        if isinstance(n, Fraction):
            return n.numerator * self.inv(n.denominator) % self.p
        return n % self.p

    zero = 0
    one = 1

    def mul(self, a: int, b: int) -> int:
        """a*b reduced; no formula calls it, `perfbench/microbench.py` times it."""
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def canonical(self, vec: Sequence) -> Optional[Tuple[int, ...]]:
        """The multiple of a tuple with first nonzero entry 1 (None for zero):
        ints reduced by % p, others through `of`, one int inverse to scale."""
        p = self.p
        vec = [v % p if type(v) is int else self.of(v) for v in vec]
        for lead in vec:
            if lead:
                if lead != 1:
                    inv = pow(lead, -1, p)
                    vec = [v * inv % p for v in vec]
                return tuple(vec)
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class Rationals:
    """The field of rational numbers. Elements are `fractions.Fraction` or int.

    The operators are Python's, so they take either and stay in ints on
    ints: canonical projective tuples over Q are primitive integer vectors
    (see `projspace.canonicalize`), and arithmetic on them pays no Fraction
    normalisation.
    """

    @property
    def characteristic(self) -> int:
        return 0

    @property
    def order(self) -> None:
        return None

    is_finite = False

    def spec_string(self) -> str:
        return "q"

    def elements(self) -> Iterator[Fraction]:
        raise InfiniteField("cannot enumerate the rationals")

    def of(self, n) -> Fraction:
        return n if type(n) is Fraction else Fraction(n)

    zero = Fraction(0)
    one = Fraction(1)

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        """a*b; no formula calls it, `perfbench/microbench.py` times it."""
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / a  # Fraction even for plain-int input

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Rationals")

    def __repr__(self) -> str:
        return "Rationals()"


Field = Union[PrimeField, Rationals]

QQ = Rationals()


def parse_field_spec(text: str) -> Field:
    """Parse ``gf:<p>`` into GF(p) or ``q`` into the rationals."""
    text = text.strip().lower()
    if text == "q":
        return Rationals()
    if text.startswith("gf:"):
        body = text[3:]
        if not (body.isascii() and body.isdigit()):
            raise MalformedSpec(f"bad field spec {text!r}")
        return PrimeField(int(body))
    raise MalformedSpec(f"bad field spec {text!r}")


def _cube_table(F: PrimeField) -> dict:
    if F._cube_table is None:
        table: dict = {a: [] for a in range(F.p)}
        for s in range(F.p):
            table[pow(s, 3, F.p)].append(s)
        F._cube_table = table
    return F._cube_table


def cube_roots(a: Element, F: Field) -> set:
    """All s in the field with s**3 == a.

    Over GF(p) by one exhaustive pass (cached per field). Over the rationals
    a reduced fraction is a cube exactly when numerator and denominator are
    integer cubes, and then the root is unique (cubing is injective on Q).
    """
    if isinstance(F, PrimeField):
        return set(_cube_table(F)[a % F.p])
    a = Fraction(a)
    num, den = a.numerator, a.denominator
    rn = icbrt(abs(num))
    rd = icbrt(den)
    if rn**3 == abs(num) and rd**3 == den:
        root = Fraction(-rn if num < 0 else rn, rd)
        return {root}
    return set()


def nontrivial_cube_root_of_unity(F: Field) -> Optional[Element]:
    """The least w != 1 with w**3 == 1, if the field has one.

    Over GF(p) it is read off the cube table's row for 1, the kernel of
    cubing on GF(p)*. Over GF(2) and GF(3) that row is just 1, and -3, the
    discriminant of X^2 + X + 1, is no rational square, so the result is
    None in those cases and over the rationals.
    """
    if isinstance(F, PrimeField):
        return next((w for w in _cube_table(F)[1] if w != 1), None)
    return None


class SpreadRegime(Enum):
    """Which of the classification's four cases the ground field falls in."""

    CHAR3 = "Char3"
    SPREAD_AND_COVERING = "SpreadAndCovering"
    MAXIMAL_PARTIAL_NOT_COVERING = "MaximalPartialNotCovering"
    NOT_PARTIAL_SPREAD = "NotPartialSpread"


def classify_field(F: Field) -> SpreadRegime:
    """Spread regime of the osculating-tangent line set over F.

    Outside characteristic 3 the regime turns on how cubing acts on F.
    Over GF(p) cubing maps the finite group GF(p)* to itself, so it is onto
    exactly when its kernel, the cube roots of 1, is trivial. Over Q it is
    one-to-one (no rational w != 1 cubes to 1) but not onto (2 is no cube).
    """
    if F.characteristic == 3:
        return SpreadRegime.CHAR3
    if not F.is_finite:
        return SpreadRegime.MAXIMAL_PARTIAL_NOT_COVERING
    if nontrivial_cube_root_of_unity(F) is not None:
        return SpreadRegime.NOT_PARTIAL_SPREAD
    return SpreadRegime.SPREAD_AND_COVERING
