"""Weight-enumerator polynomials with exact rational coefficients.

A ``WeightEnumerator`` records, for a length-n code or code ensemble, the
number A_j of weight-j words for j = 0..n (an ensemble average in general,
hence rational).  Values are immutable and safe to share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import PolyParseError

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\d+(?:\s*/\s*\d+)?)\s*)?(?P<x>x(?:\s*\^\s*(?P<exp>\d+))?)?\s*$"
)


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON ``true``/``false`` load as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(
        f"coefficients must be exact (int, Fraction or 'p/q' string), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class WeightEnumerator:
    """Coefficients A_0..A_n of a length-n weight enumerator."""

    length: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        if len(coeffs) != self.length + 1:
            raise ValueError(
                f"length {self.length} needs {self.length + 1} coefficients,"
                f" got {len(coeffs)}"
            )
        for w, c in enumerate(coeffs):
            if c < 0:
                raise ValueError(f"coefficient of x^{w} is negative: {c}")
        object.__setattr__(self, "coeffs", coeffs)

    def coefficient(self, w: int) -> Fraction:
        if not 0 <= w <= self.length:
            raise ValueError(f"weight {w} outside 0..{self.length}")
        return self.coeffs[w]

    def total_mass(self) -> Fraction:
        """Sum of all coefficients: the (expected) number of codewords."""
        return sum(self.coeffs, Fraction(0))

    def min_positive_weight(self) -> int | None:
        """Smallest w > 0 with a nonzero coefficient, or None if there is none."""
        for w in range(1, self.length + 1):
            if self.coeffs[w]:
                return w
        return None

    def common_denominator_form(self) -> tuple[int, list[int]]:
        """Return (den, nums) with coeffs[j] == nums[j] / den exactly."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        return den, nums

    def to_json_dict(self) -> dict:
        """Canonical JSON form; zero coefficients omitted, values as strings."""
        return {
            "n": self.length,
            "coeffs": {str(w): str(c) for w, c in enumerate(self.coeffs) if c},
        }

    @classmethod
    def from_json_dict(cls, obj) -> "WeightEnumerator":
        if not isinstance(obj, dict) or "n" not in obj or "coeffs" not in obj:
            raise ValueError("enumerator JSON must have 'n' and 'coeffs' keys")
        n = obj["n"]
        if not is_int(n) or n < 0:
            raise ValueError(f"'n' must be a nonnegative integer, got {n!r}")
        raw = obj["coeffs"]
        if not isinstance(raw, dict):
            raise ValueError("'coeffs' must be an object mapping weight to value")
        coeffs = [Fraction(0)] * (n + 1)
        for key, value in raw.items():
            try:
                w = int(key)
            except (TypeError, ValueError):
                raise ValueError(f"bad weight key {key!r}") from None
            if not 0 <= w <= n:
                raise ValueError(f"weight {w} outside 0..{n}")
            if isinstance(value, float):
                raise ValueError(f"coefficient of x^{w} is a float; exact values only")
            coeffs[w] = _as_fraction(value)
        return cls(n, tuple(coeffs))

    def __str__(self) -> str:
        return format_poly(self)


def parse_poly(text: str, length: int) -> WeightEnumerator:
    """Parse "1 + 14x^4 + x^8"-style text into a length-``length`` enumerator.

    Terms are "c", "c x^j", "x^j" or "x" joined by "+"; coefficients are
    integers or "p/q".  Coefficients of repeated exponents accumulate.  Raises
    PolyParseError (with character position) on malformed input, ValueError if
    an exponent exceeds ``length``.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if not text.strip():
        raise PolyParseError("empty polynomial", 0)
    coeffs = [Fraction(0)] * (length + 1)
    offset = 0
    for chunk in text.split("+"):
        start = offset + (len(chunk) - len(chunk.lstrip()))
        offset += len(chunk) + 1
        match = _TERM_RE.match(chunk)
        if match is None or (match.group("coeff") is None and match.group("x") is None):
            raise PolyParseError(f"malformed term {chunk.strip()!r}", start)
        if match.group("coeff") is not None:
            try:
                coeff = Fraction(match.group("coeff").replace(" ", ""))
            except ZeroDivisionError:
                raise PolyParseError("zero denominator", start) from None
        else:
            coeff = Fraction(1)
        if match.group("x") is not None:
            exp = int(match.group("exp")) if match.group("exp") is not None else 1
        else:
            exp = 0
        if exp > length:
            raise ValueError(f"exponent {exp} exceeds length {length}")
        coeffs[exp] += coeff
    return WeightEnumerator(length, tuple(coeffs))


def format_poly(enum: WeightEnumerator) -> str:
    """Canonical text form: ascending exponents, zero terms omitted."""
    terms = []
    for w, c in enumerate(enum.coeffs):
        if not c:
            continue
        if w == 0:
            terms.append(str(c))
            continue
        xpart = "x" if w == 1 else f"x^{w}"
        terms.append(xpart if c == 1 else f"{c}{xpart}")
    return " + ".join(terms) if terms else "0"
