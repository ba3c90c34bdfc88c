"""Weight-enumerator polynomials with exact rational coefficients.

A ``WeightEnumerator`` records, for a length-n code or code ensemble, the
number A_j of weight-j words for j = 0..n (an ensemble average in general,
hence rational).  Values are immutable and safe to share.

Spectrum JSON and the integer form ``(den, nums)`` (coefficient w is
nums[w] / den) convert both ways without a Fraction per coefficient:
``spectrum_from_json`` reads it, with the canonical JSON echo, and
``spectrum_to_json`` is the one writer of that canonical JSON.
``WeightEnumerator.from_json_dict`` and ``to_json_dict`` wrap the two.
``render_poly`` writes the polynomial text of the canonical coefficient
texts; ``format_poly`` is that text of an enumerator.
"""

from __future__ import annotations

import math
import re
import sys
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
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(
        f"coefficients must be exact (int, Fraction or 'p/q' string), got {type(value).__name__}"
    )


def common_denominator(coeffs) -> tuple[int, list[int]]:
    """Return (den, nums) with coeffs[j] == nums[j] / den exactly, den minimal."""
    den = math.lcm(*[c.denominator for c in coeffs])
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return den, nums


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
        den, nums = common_denominator(self.coeffs)
        return Fraction(sum(nums), den)

    def min_positive_weight(self) -> int | None:
        """Smallest w > 0 with a nonzero coefficient, or None if there is none."""
        for w in range(1, self.length + 1):
            if self.coeffs[w]:
                return w
        return None

    def to_json_dict(self) -> dict:
        """Canonical JSON form; zero coefficients omitted, values as strings."""
        return spectrum_to_json(self.length, *common_denominator(self.coeffs))

    @classmethod
    def from_json_dict(cls, obj) -> "WeightEnumerator":
        den, nums, _ = spectrum_from_json(obj)
        return cls(len(nums) - 1, tuple(Fraction(num, den) for num in nums))

    def __str__(self) -> str:
        return format_poly(self)


def _parse_coefficient(value) -> tuple[int, int, str]:
    """(p, q, text): a coefficient as p / q in lowest terms, q > 0, and its
    canonical text str(Fraction(p, q)).

    "p" and "p/q" in ASCII digits are read with int() and one gcd, and the
    input text is kept when it is already canonical; every other spelling
    goes through ``_as_fraction``, with its acceptance and its errors.
    """
    if type(value) is str and value.isascii():
        # bytes.isdigit accepts exactly 0-9, and is several times faster
        # than str.isdigit.
        num, slash, den = value.encode().partition(b"/")
        if num.isdigit() and (not slash or den.isdigit()):
            p = int(num)
            if not slash:
                return p, 1, str(p) if num.startswith(b"0") else value
            q = int(den)
            if q:
                g = math.gcd(p, q)
                if g != 1:
                    p, q = p // g, q // g
                if q == 1:
                    return p, 1, str(p)
                if g == 1 and not num.startswith(b"0") and not den.startswith(b"0"):
                    return p, q, value
                return p, q, f"{p}/{q}"
    c = _as_fraction(value)
    return c.numerator, c.denominator, str(c)


def spectrum_from_json(obj) -> tuple[int, list[int], dict]:
    """Parse spectrum JSON, ``{"n": n, "coeffs": {"w": value, ...}}``, into
    integer form in one pass: ``(den, nums, echo)``.

    Coefficient w is nums[w] / den for w = 0..n; ``den`` is the lcm of the
    reduced coefficient denominators, which is what ``common_denominator``
    gives.  ``echo`` is the canonical JSON form that ``spectrum_to_json``
    writes: weights in increasing order, zeros omitted, values in lowest terms.
    Values are integers or strings that ``Fraction`` reads ("p", "p/q",
    "1.5", ...); floats, negatives and zero denominators raise ValueError,
    other types TypeError.  A later key for the same weight overrides an
    earlier one.
    """
    if not isinstance(obj, dict) or "n" not in obj or "coeffs" not in obj:
        raise ValueError("enumerator JSON must have 'n' and 'coeffs' keys")
    n = obj["n"]
    if not is_int(n) or not 0 <= n < sys.maxsize:
        raise ValueError(f"'n' must be an integer in 0..{sys.maxsize - 1}, got {n!r}")
    raw = obj["coeffs"]
    if not isinstance(raw, dict):
        raise ValueError("'coeffs' must be an object mapping weight to value")
    # Allocated before any value is read, so that a length no list can hold
    # fails first, whatever the values.
    nums = [0] * (n + 1)
    terms = {}
    # A palindromic spectrum spells A_w and A_{n-w} alike: its values are
    # parsed once per distinct string, and other spectra pay no lookups.
    values = [*raw.values()]
    parsed = {} if values == values[::-1] else None
    for key, value in raw.items():
        try:
            w = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad weight key {key!r}") from None
        if not 0 <= w <= n:
            raise ValueError(f"weight {w} outside 0..{n}")
        if isinstance(value, float):
            raise ValueError(f"coefficient of x^{w} is a float; exact values only")
        if parsed is not None and type(value) is str:
            term = parsed.get(value)
            if term is None:
                term = parsed[value] = _parse_coefficient(value)
            terms[w] = term
        else:
            terms[w] = _parse_coefficient(value)
    weights = sorted(w for w, (p, _, _) in terms.items() if p)
    den = math.lcm(*(terms[w][1] for w in weights))
    for w in weights:
        p, q, text = terms[w]
        if p < 0:
            raise ValueError(f"coefficient of x^{w} is negative: {text}")
        nums[w] = p if q == den else p * (den // q)
    echo = {"n": n, "coeffs": {str(w): terms[w][2] for w in weights}}
    return den, nums, echo


def spectrum_to_json(length: int, den: int, nums) -> dict:
    """Spectrum JSON of the coefficients nums[w] / den, the inverse of
    ``spectrum_from_json``: weights in increasing order, zeros omitted,
    values in lowest terms.  Each distinct nonzero numerator is reduced with
    one gcd; a palindromic spectrum repeats nearly every numerator."""
    coeffs = {}
    texts = {}
    for w, num in enumerate(nums):
        if num:
            text = texts.get(num)
            if text is None:
                g = math.gcd(num, den)
                text = texts[num] = str(num // g) if g == den else f"{num // g}/{den // g}"
            coeffs[str(w)] = text
    return {"n": length, "coeffs": coeffs}


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


def render_poly(coeffs) -> str:
    """Polynomial text of canonical coefficient texts, ``{"w": "p/q"}`` in
    increasing weight with zeros omitted (the "coeffs" of spectrum JSON):
    ascending exponents, "0" when there is no term."""
    terms = []
    for w, text in coeffs.items():
        if w == "0":
            terms.append(text)
        else:
            xpart = "x" if w == "1" else f"x^{w}"
            terms.append(xpart if text == "1" else text + xpart)
    return " + ".join(terms) or "0"


def format_poly(enum: WeightEnumerator) -> str:
    """Canonical text form: ascending exponents, zero terms omitted."""
    return render_poly(enum.to_json_dict()["coeffs"])
