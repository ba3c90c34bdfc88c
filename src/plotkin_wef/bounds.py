"""Truncated union bound over the binary-input AWGN channel.

The one floating-point corner of the package: spectra arrive exact and are
converted to floats term by term, through logarithms for a coefficient beyond
float range or a Gaussian tail below the normal floats.  BPSK signalling is
assumed, so a weight-w pairwise error event has argument
sqrt(2 * w * rate * 10^(ebn0_db/10)).
"""

from __future__ import annotations

import math
import sys

from .enumerator import Value, WeightEnumerator


class ChannelPoint(Value):
    """Operating point: code rate (info bits per channel bit) and Eb/N0 in dB."""

    __slots__ = _fields = ("rate", "ebn0_db")

    def __init__(self, rate: float, ebn0_db: float) -> None:
        if not 0 < rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        if not math.isfinite(ebn0_db):
            raise ValueError(f"ebn0_db must be finite, got {ebn0_db}")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "ebn0_db", ebn0_db)


def q_function(x: float) -> float:
    """Standard Gaussian tail probability via the complementary error function."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _log_q_function(x: float) -> float:
    """log Q(x), finite also where Q(x) itself underflows.

    Uses erfc while its value is a normal float; beyond that (x > ~37.5) the
    asymptotic tail Q(x) ~ exp(-x^2/2) / (x sqrt(2 pi)) * (1 - 1/x^2 + 3/x^4),
    whose first omitted term is below 6e-9 relative there.
    """
    tail = math.erfc(x / math.sqrt(2.0))
    if tail >= sys.float_info.min:
        return math.log(tail) - math.log(2.0)
    inv_sq = 1.0 / (x * x)
    return (
        -x * x / 2.0
        - math.log(x * math.sqrt(2.0 * math.pi))
        + math.log1p(-inv_sq + 3.0 * inv_sq * inv_sq)
    )


def _argument_beyond_float_range(w: int, channel: ChannelPoint) -> float:
    """sqrt(2 * w * rate * gamma) through logarithms, for a gamma above float
    range; inf once the argument itself leaves float range."""
    log_square = math.log(2.0 * w * channel.rate) + channel.ebn0_db * math.log(10.0) / 10.0
    if log_square >= 2.0 * math.log(sys.float_info.max):
        return math.inf
    return math.exp(log_square / 2.0)


def _term(coeff: Fraction, x: float) -> float:
    """A_w * Q(x); in the log domain when A_w exceeds float range or Q(x)
    is below the normal floats, where the float product would lose a
    large A_w."""
    if x == math.inf:
        # Q(inf) = 0 exactly, whatever the size of A_w.
        return 0.0
    q = q_function(x)
    if q >= sys.float_info.min:
        try:
            return float(coeff) * q
        except OverflowError:
            pass
    try:
        return math.exp(
            math.log(coeff.numerator) - math.log(coeff.denominator) + _log_q_function(x)
        )
    except OverflowError:
        return math.inf


def truncated_union_bound(
    spectrum: WeightEnumerator, truncate: int, channel: ChannelPoint
) -> float:
    """Union bound on block error probability using weights 1..truncate.

    Returns sum over w of A_w * Q(sqrt(2 * w * rate * gamma)) with
    gamma = 10^(ebn0_db / 10), taken through logarithms when gamma is above
    float range; nondecreasing in ``truncate``.  Raises ValueError when the
    sum exceeds float range.
    """
    if not 1 <= truncate <= spectrum.length:
        raise ValueError(f"truncate {truncate} outside 1..{spectrum.length}")
    try:
        gamma = 10.0 ** (channel.ebn0_db / 10.0)
    except OverflowError:
        gamma = None
    total = 0.0
    for w in range(1, truncate + 1):
        coeff = spectrum.coeffs[w]
        if coeff:
            if gamma is None:
                x = _argument_beyond_float_range(w, channel)
            else:
                x = math.sqrt(2.0 * w * channel.rate * gamma)
            total += _term(coeff, x)
    if not math.isfinite(total):
        raise ValueError("union bound exceeds float range at this channel point")
    return total
