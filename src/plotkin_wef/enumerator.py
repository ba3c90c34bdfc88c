"""Weight-enumerator polynomials with exact rational coefficients.

A ``WeightEnumerator`` records, for a length-n code or code ensemble, the
number A_j of weight-j words for j = 0..n (an ensemble average in general,
hence rational); ``WeightEnumerator(n, (A_0, ..., A_n))`` builds one from
its coefficients.  Values are immutable and safe to share; ``Value`` is the
base of the package's immutable value classes.

Spectrum JSON and the integer form ``(den, nums)`` (coefficient w is
nums[w] / den) convert both ways without a Fraction per coefficient:
``spectrum_from_json`` reads it, with the canonical JSON echo, and
``spectrum_to_json`` is the one writer of that canonical JSON.  The reader
takes every "p" or "p/q" text in ASCII digits by one path: it files the
text under its denominator digits, a plain integer as the q = 1 group, and
reduces each group together (``_reduce_groups``); every other value is read
as ``_as_fraction`` reads it.
``WeightEnumerator.from_json_dict`` and ``to_json_dict`` wrap the two.
Fractions are built here alone: ``fractions_over`` views the integer form
as Fractions, ``common_denominator`` is its inverse, and ``_fraction_class``
is the package's one import of ``fractions``.
The "coeffs" block both make is a ``CanonicalCoeffs``, whose keys and texts
need no JSON escaping, and ``dump_json`` writes the text of
``json.dump(obj, fp, indent=2)`` with those blocks spliced in unescaped.
``render_poly`` writes the polynomial text of the canonical coefficient
texts; ``format_poly`` is that text of an enumerator.  Polynomial text is an
output format only: spectra come in as coefficients or as spectrum JSON.
"""

from __future__ import annotations

import functools
import json
import math
import sys

from .errors import BudgetError


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON ``true``/``false`` load as bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


@functools.cache
def _fraction_class():
    """fractions.Fraction, imported on the first call: reading and writing
    spectra in integer form builds no Fraction, and leaves fractions (with
    the decimal and numbers modules it loads) out of the process."""
    from fractions import Fraction

    return Fraction


# The largest decimal exponent that _as_fraction reads: Python's default
# limit on the digits of an int/str conversion.
_MAX_EXPONENT = sys.int_info.default_max_str_digits


def _as_fraction(value) -> Fraction:
    Fraction = _fraction_class()
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction would expand "1e20000000" into 20 million digits; the
        # digits after the last "e" are counted before any are converted.
        _, e, exponent = value.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (
            len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT
        ):
            raise BudgetError(
                f"{value[:50]!r}: decimal exponent above {_MAX_EXPONENT} in magnitude"
            )
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(
        f"coefficients must be exact (int, Fraction or 'p/q' string), got {type(value).__name__}"
    )


def fractions_over(den: int, nums) -> tuple[Fraction, ...]:
    """The Fractions nums[j] / den: the integer form as coefficients."""
    Fraction = _fraction_class()
    return tuple(Fraction(num, den) for num in nums)


def common_denominator(coeffs) -> tuple[int, list[int]]:
    """Return (den, nums) with coeffs[j] == nums[j] / den exactly, den minimal;
    the inverse of ``fractions_over``."""
    den = math.lcm(*[c.denominator for c in coeffs])
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    return den, nums


class Value:
    """Base of the package's immutable value classes, which behave as frozen
    dataclasses would: equal only to a value of the same class with equal
    fields, hashed over the fields, shown as ``Name(field=value, ...)``.

    A subclass names its constructor arguments in ``_fields``, holds them
    in slots of those names and writes them in ``__init__`` with
    ``object.__setattr__``; assignment and deletion raise AttributeError.
    Pickle and ``copy`` rebuild a value through its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeightEnumerator(Value):
    """Coefficients A_0..A_n of a length-n weight enumerator."""

    __slots__ = _fields = ("length", "coeffs")

    def __init__(self, length: int, coeffs) -> None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != length + 1:
            raise ValueError(
                f"length {length} needs {length + 1} coefficients,"
                f" got {len(coeffs)}"
            )
        for w, c in enumerate(coeffs):
            if c < 0:
                raise ValueError(f"coefficient of x^{w} is negative: {c}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "coeffs", coeffs)

    def to_json_dict(self) -> dict:
        """Canonical JSON form; zero coefficients omitted, values as strings."""
        return spectrum_to_json(self.length, *common_denominator(self.coeffs))

    @classmethod
    def from_json_dict(cls, obj) -> "WeightEnumerator":
        den, nums, _ = spectrum_from_json(obj)
        return cls(len(nums) - 1, fractions_over(den, nums))

    def __str__(self) -> str:
        return format_poly(self)


class CanonicalCoeffs(dict):
    """The "coeffs" of canonical spectrum JSON, ``{str(w): text}``, as
    ``spectrum_to_json`` and the echo of ``spectrum_from_json`` make it.

    Every key is the decimal text of a weight and every value the decimal
    text of an integer or of a fraction p/q, by construction, so JSON
    escapes neither; ``dump_json`` relies on that.  Otherwise a plain dict.
    """

    __slots__ = ()


def _exact_term(value) -> tuple[int, int, str]:
    """(p, q, text): an exact coefficient, as ``_as_fraction`` reads it and
    with its errors, as p / q in lowest terms with q > 0 and its canonical
    text str(Fraction(p, q))."""
    c = _as_fraction(value)
    return c.numerator, c.denominator, str(c)


def _text(p: int, q: int) -> str:
    """The canonical text of p / q in lowest terms: "p", or "p/q" for q > 1."""
    return str(p) if q == 1 else f"{p}/{q}"


def _reduce_groups(groups: dict) -> dict:
    """The term (p, q, text) of every digit text in ``groups``, by text:
    p / q in lowest terms and its canonical text str(Fraction(p, q)).
    ``groups[den]`` maps each text over the nonzero denominator digits
    ``den`` to its numerator digits; a plain integer "p" is filed under
    ``b""``, q = 1.  The input text is kept when it is already canonical
    (in lowest terms, no leading zeros, no denominator "1"), and written
    by ``_text`` otherwise.

    The texts over one q > 1 need one gcd with q in all: with r = p mod q
    for each numerator p, G = gcd(q, prod r mod q) equals gcd(q, prod p),
    and every gcd(p, q) divides G, which divides q, so gcd(p, q) =
    gcd(r, G).  G = 1, the usual case, leaves every text in lowest terms;
    otherwise each gcd is taken with G, not q.  A numerator r = 0 makes
    G = q, and a group of one text gets G = gcd(q, p mod q) = gcd(p, q).
    Over q = 1 every text is in lowest terms, and the batch is skipped.
    """
    reduced = {}
    for den, texts in groups.items():
        q = int(den) if den else 1
        rs = ps = [*map(int, texts.values())]
        g = 1
        if q != 1:
            rs = [p % q for p in ps]
            prod = 1
            for r in rs:
                prod = prod * r % q
            g = math.gcd(q, prod)
        canonical = den != b"1" and not den.startswith(b"0")
        for (text, num), p, r in zip(texts.items(), ps, rs):
            gcd = 1 if g == 1 else math.gcd(r, g)
            if gcd == 1 and canonical and not num.startswith(b"0"):
                reduced[text] = p, q, text
            else:
                p, lowest = p // gcd, q // gcd
                reduced[text] = p, lowest, _text(p, lowest)
    return reduced


def spectrum_from_json(obj, max_weight: int | None = None) -> tuple[int, list[int], dict]:
    """Parse spectrum JSON, ``{"n": n, "coeffs": {"w": value, ...}}``, into
    integer form: ``(den, nums, echo)``.

    Coefficient w is nums[w] / den for w = 0..n; ``den`` is the lcm of the
    reduced coefficient denominators, which is what ``common_denominator``
    gives.  ``echo`` is the canonical JSON form that ``spectrum_to_json``
    writes: weights in increasing order, zeros omitted, values in lowest terms.
    Values are integers or strings that ``Fraction`` reads ("p", "p/q",
    "1.5", ...); floats, negatives and zero denominators raise ValueError,
    other types TypeError.  A later key for the same weight overrides an
    earlier one.

    One pass over the keys validates every value, so that the errors come
    in key order, but converts no digit text: every "p" or "p/q" in ASCII
    digits, with a nonzero denominator and within Python's limit on the
    digits int() reads, takes one path.  Each distinct one is filed under
    its denominator text, a plain integer under ``b""`` (q = 1), and the
    texts of each denominator are reduced together after the pass
    (``_reduce_groups``).  So a digit text costs one int() however often it
    repeats, as the values of a palindromic spectrum do, and each
    denominator q > 1 one int(), a batch of products mod q and one gcd with
    q, whether it holds one text or many; a text needs a gcd of its own
    only when that batch's gcd is not 1.  Every other value is converted
    where it stands, once per key (``_exact_term``).  Each ASCII text is
    encoded to bytes once per key.

    With ``max_weight`` W, only the coefficients 0..W are read: nums[w] is 0
    for w > W and ``den`` is the lcm over the weights up to W.  Every value
    is still validated and echoed, with the same errors in the same order,
    but a plain digit string above W is echoed from its text, never
    converted to an integer; a "p/q" text above W is still reduced, for its
    echo.
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
    top = n if max_weight is None else max_weight
    # Python's limit on the digits int() reads, 0 when lifted.
    limit = sys.get_int_max_str_digits()
    terms = {}
    # The digit texts, by denominator text, as _reduce_groups takes them.
    groups = {}
    for key, value in raw.items():
        try:
            w = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad weight key {key!r}") from None
        if not 0 <= w <= n:
            raise ValueError(f"weight {w} outside 0..{n}")
        if type(value) is not str:
            if isinstance(value, float):
                raise ValueError(f"coefficient of x^{w} is a float; exact values only")
            terms[w] = _exact_term(value)
            continue
        # The bytes of an ASCII text, encoded once.  bytes.isdigit accepts
        # exactly 0-9, and is several times faster than str.isdigit.
        data = value.encode() if value.isascii() else None
        if w > top and data is not None and data.isdigit():
            # Echoed only: 1 stands for any positive numerator.  A text
            # longer than the limit raises here as it does below W.
            if limit and len(value) > limit:
                int(value)
            text = value.lstrip("0")
            terms[w] = (1, 1, text) if text else (0, 1, "0")
            continue
        if data is not None and (not limit or len(value) <= limit):
            # Within the limit int() raises on neither part, so a filed
            # text holds back no error.  A zero denominator is left to
            # _exact_term, which raises in key order.
            num, slash, den = data.partition(b"/")
            if num.isdigit() and (not slash or den.isdigit() and den.strip(b"0")):
                groups.setdefault(den, {})[value] = num
                terms[w] = value
                continue
        terms[w] = _exact_term(value)
    # Filed texts stand for their terms until now.  One pass in weight
    # order checks the signs, so the lowest negative weight raises, writes
    # the echo and keeps the nonzero terms up to W.
    reduced = _reduce_groups(groups)
    coeffs, kept = CanonicalCoeffs(), []
    for w, term in sorted(terms.items()):
        p, q, text = reduced[term] if type(term) is str else term
        if p:
            if p < 0:
                raise ValueError(f"coefficient of x^{w} is negative: {text}")
            coeffs[str(w)] = text
            if w <= top:
                kept.append((w, p, q))
    # Each denominator once: a palindromic spectrum repeats every one.
    den = math.lcm(*{q for _, _, q in kept})
    for w, p, q in kept:
        nums[w] = p if q == den else p * (den // q)
    return den, nums, {"n": n, "coeffs": coeffs}


def spectrum_to_json(length: int, den: int, nums) -> dict:
    """Spectrum JSON of the coefficients nums[w] / den, the inverse of
    ``spectrum_from_json``: weights in increasing order, zeros omitted,
    values in lowest terms.  Each distinct nonzero numerator is reduced with
    one gcd; a palindromic spectrum repeats nearly every numerator."""
    coeffs = CanonicalCoeffs()
    texts = {}
    for w, num in enumerate(nums):
        if num:
            text = texts.get(num)
            if text is None:
                g = math.gcd(num, den)
                text = texts[num] = _text(num // g, den // g)
            coeffs[str(w)] = text
    return {"n": length, "coeffs": coeffs}


def dump_json(obj, fp) -> None:
    """Write to the text stream ``fp`` what ``json.dump(obj, fp, indent=2)``
    writes, byte for byte.

    A ``CanonicalCoeffs`` block is joined from its texts without escaping
    them, and a plain dict with string keys is written key by key, so that
    the blocks inside it are found; everything else goes through
    ``json.dumps``.  Escaping megabytes of digits is most of what
    ``json.dumps`` spends on a record.  The pieces go to ``fp`` as they
    are, never joined into one copy of the whole text.
    """
    parts = []
    _dump(obj, "\n", parts)
    fp.writelines(parts)


def _dump(obj, newline: str, parts: list) -> None:
    # ``newline`` starts the line that closes ``obj``: "\n" and the
    # indentation json.dumps(..., indent=2) gives that line.
    inner = newline + "  "
    if type(obj) is CanonicalCoeffs and obj:
        pairs = ('",' + inner + '"').join(map('": "'.join, obj.items()))
        parts += "{", inner, '"', pairs, '"', newline, "}"
    elif type(obj) is dict and obj and all(type(key) is str for key in obj):
        sep = "{" + inner
        for key, value in obj.items():
            parts += sep, json.dumps(key), ": "
            _dump(value, inner, parts)
            sep = "," + inner
        parts += newline, "}"
    else:
        # json.dumps escapes every newline inside a string, so each "\n"
        # of its text starts a line.
        parts.append(json.dumps(obj, indent=2).replace("\n", newline))


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
