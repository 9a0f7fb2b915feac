"""Exact coefficient scalars: rationals and Gaussian rationals.

Plain rationals are stdlib ``fractions.Fraction`` values, which already
keep the canonical form relied on everywhere else (reduced fraction,
positive denominator, arbitrary precision integers).  ``GaussianRational``
adds the degree-two extension by the imaginary unit.  The textual scalar
encoding of the CLI and the JSON formats lives here too, as does ``power``,
the repeated squaring behind every exact power in the package.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from enum import Enum
from fractions import Fraction
from numbers import Rational as _RationalABC

from .errors import DigitLimitError, DomainMismatchError, DomainRequiredError, OutOfRangeError


def power(base, exponent, one, mul=operator.mul):
    """``base ** exponent`` under an associative ``mul``, by repeated squaring.

    Exponent 0 returns ``one``, which is never multiplied in.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one if result is None else result


class GaussianRational:
    """A value re + im*i with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RationalABC):
            return GaussianRational(value, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise OutOfRangeError("Gaussian rational powers need a non-negative integer exponent")
        return power(self, exponent, GaussianRational(1, 0))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


class Domain(Enum):
    """Tag selecting the coefficient field of a computation."""

    RATIONAL = "rational"
    GAUSSIAN = "gaussian"

    def zero(self):
        return Fraction(0) if self is Domain.RATIONAL else GaussianRational(0)

    def one(self):
        return Fraction(1) if self is Domain.RATIONAL else GaussianRational(1)

    def coerce(self, value):
        """Convert ``value`` into this domain, or raise DomainMismatchError."""
        if self is Domain.RATIONAL:
            if isinstance(value, GaussianRational):
                raise DomainMismatchError("Gaussian scalar used in a rational computation")
            return Fraction(value)
        g = GaussianRational._coerce(value)
        if g is None:
            raise DomainMismatchError(f"cannot coerce {value!r} into {self.value}")
        return g

    @staticmethod
    def of(value):
        if isinstance(value, GaussianRational):
            return Domain.GAUSSIAN
        if isinstance(value, _RationalABC):
            return Domain.RATIONAL
        raise DomainMismatchError(f"{value!r} is not an exact scalar")


_RAT = r"-?\d+(?:/\d+)?"
_PURE_REAL_RE = re.compile(rf"^({_RAT})$")
_PURE_IMAG_RE = re.compile(r"^(-?)(\d+(?:/\d+)?)?i$")
_COMBO_RE = re.compile(rf"^({_RAT})([+-])(\d+(?:/\d+)?)?i$")


def _ratio_text(m, den):
    """Text of the int ratio m / den, den > 0: "p" or "p/q" in lowest terms."""
    g = math.gcd(m, den)
    return str(m // den) if g == den else f"{m // g}/{den // g}"


def format_scalar(re, den=1, im=0):
    """Canonical text for (re + im*i) / den: "p/q", "p/q+r/si", "i", "-i", ...

    ``re`` and ``im`` are ints over the int ``den`` > 0, reduced here with
    one gcd per part, or ``re`` alone is a scalar: an int, a ``Fraction``
    or a ``GaussianRational``.  parse_scalar round-trips this output bit
    exactly.  A numerator or denominator longer than Python converts to
    text raises DigitLimitError.
    """
    if not isinstance(re, int):
        re, im = (re.re, re.im) if isinstance(re, GaussianRational) else (Fraction(re), 0)
        den = math.lcm(re.denominator, im.denominator)
        re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
    try:
        if not im:
            return _ratio_text(re, den)
        mag = abs(im)
        imag = "i" if mag == den else f"{_ratio_text(mag, den)}i"
        if not re:
            return "-" + imag if im < 0 else imag
        sign = "+" if im > 0 else "-"
        return f"{_ratio_text(re, den)}{sign}{imag}"
    except ValueError:  # raised by int-to-text conversion beyond the interpreter's limit
        raise DigitLimitError(
            f"a scalar to print has more than {sys.get_int_max_str_digits()} digits, "
            "the most Python converts to text"
        ) from None


def _fraction(literal):
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal {literal!r}") from None
    except ValueError:  # raised by text-to-int conversion beyond the interpreter's limit
        raise ValueError(
            f"scalar literal has more than {sys.get_int_max_str_digits()} digits "
            "in its numerator or denominator"
        ) from None


def parse_scalar(text, domain=None):
    """Parse a scalar string; with a domain, coerce (or reject) accordingly."""
    compact = "".join(text.split())
    value = None
    m = _PURE_IMAG_RE.match(compact)
    if m:
        mag = _fraction(m.group(2)) if m.group(2) else Fraction(1)
        value = GaussianRational(0, -mag if m.group(1) else mag)
    else:
        m = _COMBO_RE.match(compact)
        if m:
            mag = _fraction(m.group(3)) if m.group(3) else Fraction(1)
            im = -mag if m.group(2) == "-" else mag
            value = GaussianRational(_fraction(m.group(1)), im)
        else:
            m = _PURE_REAL_RE.match(compact)
            if m:
                value = _fraction(compact)
    if value is None:
        raise ValueError(f"not a scalar literal: {text!r}")
    if domain is None:
        return value
    if domain is Domain.RATIONAL and isinstance(value, GaussianRational):
        raise DomainRequiredError(f"{text!r} needs the gaussian domain")
    return domain.coerce(value)
