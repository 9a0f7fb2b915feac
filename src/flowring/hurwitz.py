"""Truncated Hurwitz series: coefficient vectors of sum a_n x^n / n!.

A series here is a vector (a_0 .. a_N) of exact scalars.  The vector is
simultaneously the sequence view and the series view: index n holds the
n-th derivative at 0.  Coefficients beyond the truncation order N are
unknown rather than zero, so binary operations insist on equal orders,
differentiation shortens the result by one index, and nothing ever pads
with fabricated zeros.  Use ``truncate`` to trim deliberately and the
``*_truncating`` helpers to combine series of different honest lengths.

The coefficients are stored as ``Fraction`` (or ``GaussianRational``)
values, but ``*`` and ``inverse`` do their arithmetic on integers, the
layout of FLINT's ``fmpq_poly``: each operand is scaled once to integer
numerators over the lcm of its denominators (a Gaussian series scales its
real and imaginary numerators over one shared denominator), the binomial
convolution runs on plain ints with binomials read from a module-level
table of Pascal rows, and each output coefficient becomes exactly one
normalised ``Fraction``.  One helper, ``_convolve_parts``, holds the
product rule on integer part vectors ([m], or [re, im] with three real
convolutions); ``*`` and the flow composition kernel in ``flow`` both call
it, together with ``_integer_parts`` and ``_from_parts`` for the way in and
out.  A Gaussian ``inverse`` goes through the rational one by conjugation.
Results are the same canonical values the scalar arithmetic would give.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import add, mul, sub

from .errors import (
    DomainMismatchError,
    NotAUnitError,
    OrderExhaustedError,
    OrderMismatchError,
    OutOfRangeError,
)
from .scalars import Domain, GaussianRational, format_scalar, power


_ROWS = [(1,)]
_ROWS_LOCK = threading.Lock()


def binomial_rows(order):
    """Pascal's triangle through row ``order``: ``binomial_rows(n)[n][k] == C(n, k)``.

    One table, keyed by the row n and grown once, serves products of every
    order; it holds O(N^2) integers for the largest order N seen so far.
    """
    if len(_ROWS) <= order:
        with _ROWS_LOCK:
            while len(_ROWS) <= order:
                prev = _ROWS[-1]
                _ROWS.append((1, *map(add, prev, prev[1:]), 1))
    return _ROWS


def _common_denominator(values):
    """Integers m_k and the lcm D of the denominators, with values[k] == m_k / D."""
    dens = [v.denominator for v in values]
    d = math.lcm(*dens)
    return [v.numerator * (d // q) for v, q in zip(values, dens)], d


def _integer_parts(coeffs, domain):
    """Integer part vectors over one denominator: ([m], D) or ([re, im], D)."""
    if domain is Domain.RATIONAL:
        nums, d = _common_denominator(coeffs)
        return [nums], d
    re = [c.re if isinstance(c, GaussianRational) else c for c in coeffs]
    im = [c.im if isinstance(c, GaussianRational) else 0 for c in coeffs]
    nums, d = _common_denominator(re + im)
    return [nums[: len(coeffs)], nums[len(coeffs) :]], d


def _dot(row, x, y_reversed):
    """sum_k row[k] x[k] y_reversed[k], stopping at the shortest argument."""
    return sum(map(mul, map(mul, row, x), y_reversed))


def _convolve(x, y):
    """Integer binomial convolution S_n = sum_k C(n, k) x_k y_{n-k}."""
    rows = binomial_rows(len(x) - 1)
    y_rev = y[::-1]
    top = len(y) - 1
    return [_dot(rows[n], x, y_rev[top - n :]) for n in range(len(x))]


def _convolve_parts(x, y):
    """Binomial convolution of integer part vectors, [m] or Gaussian [re, im].

    Gaussian parts use three real convolutions: re = rr - ii and
    im = (r + i)(r' + i') - rr - ii.
    """
    if len(x) == 1:
        return [_convolve(x[0], y[0])]
    rr = _convolve(x[0], y[0])
    ii = _convolve(x[1], y[1])
    mixed = _convolve(list(map(add, *x)), list(map(add, *y)))
    return [list(map(sub, rr, ii)), [m - r - i for r, i, m in zip(rr, ii, mixed)]]


def _from_parts(parts, d):
    """Scalars part / d: ``Fraction``s from [m], ``GaussianRational``s from [re, im]."""
    if len(parts) == 1:
        return [Fraction(m, d) for m in parts[0]]
    return [GaussianRational(Fraction(r, d), Fraction(i, d)) for r, i in zip(*parts)]


def _saturating_float(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class HurwitzSeries:
    """Truncated exponential generating function over an exact domain.

    Addition is componentwise.  ``*`` is the binomial convolution

        (a * b)_n = sum_{k=0..n} C(n, k) a_k b_{n-k},

    the sequence image of multiplying the series views.  ``hadamard`` is
    the componentwise product, with unit (1, 1, 1, ...).  The unit of
    ``*`` is the constant series e = (1, 0, 0, ...).

    Values are immutable after construction; every operation returns a
    new series, so instances are safe to share across threads.
    """

    __slots__ = ("coeffs", "domain")

    def __init__(self, coeffs, domain):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise OutOfRangeError("a series needs at least one coefficient")
        self.coeffs = coeffs
        self.domain = domain

    # -- constructors -------------------------------------------------

    @classmethod
    def make(cls, values, domain=Domain.RATIONAL):
        """Build a series, coercing each entry into ``domain``."""
        return cls([domain.coerce(v) for v in values], domain)

    @classmethod
    def zeros(cls, order, domain=Domain.RATIONAL):
        zero = domain.zero()
        return cls([zero] * (order + 1), domain)

    @classmethod
    def constant(cls, value, order, domain=Domain.RATIONAL):
        coeffs = [domain.coerce(value)] + [domain.zero()] * order
        return cls(coeffs, domain)

    @classmethod
    def x(cls, order, domain=Domain.RATIONAL):
        """The identity series x, coefficients (0, 1, 0, ...)."""
        if order < 1:
            raise OutOfRangeError("the series x needs order >= 1")
        coeffs = [domain.zero()] * (order + 1)
        coeffs[1] = domain.one()
        return cls(coeffs, domain)

    @classmethod
    def exp(cls, base, order, domain=None):
        """Geometric sequence (1, a, a^2, ...): the series of e**(a x)."""
        if domain is None:
            domain = Domain.of(base)
        base = domain.coerce(base)
        coeffs = [domain.one()]
        for _ in range(order):
            coeffs.append(coeffs[-1] * base)
        return cls(coeffs, domain)

    @classmethod
    def from_polynomial(cls, ordinary, order, domain=Domain.RATIONAL):
        """Series of a polynomial given by ordinary coefficients c_k x^k."""
        coeffs = [domain.zero()] * (order + 1)
        fact = 1
        for k, c in enumerate(ordinary):
            if k > 0:
                fact *= k
            if k > order:
                break
            coeffs[k] = domain.coerce(c) * fact
        return cls(coeffs, domain)

    # -- basic views ---------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    def to_polynomial(self):
        """Ordinary coefficients a_k / k! of the truncated series."""
        out = []
        fact = 1
        for k, c in enumerate(self.coeffs):
            if k > 0:
                fact *= k
            out.append(c / fact)
        return out

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __repr__(self):
        shown = " ".join(format_scalar(c) for c in self.coeffs[:8])
        if len(self.coeffs) > 8:
            shown += " ..."
        return f"HurwitzSeries[{self.domain.value}, N={self.order}]({shown})"

    def __eq__(self, other):
        if not isinstance(other, HurwitzSeries):
            return NotImplemented
        return self.domain is other.domain and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.domain))

    def _check(self, other):
        if not isinstance(other, HurwitzSeries):
            raise TypeError(f"expected a HurwitzSeries, got {other!r}")
        if self.domain is not other.domain:
            raise DomainMismatchError(
                f"domains differ: {self.domain.value} vs {other.domain.value}"
            )
        if len(self.coeffs) != len(other.coeffs):
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        self._check(other)
        return HurwitzSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.domain
        )

    def __sub__(self, other):
        self._check(other)
        return HurwitzSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.domain
        )

    def __neg__(self):
        return HurwitzSeries([-a for a in self.coeffs], self.domain)

    def __mul__(self, other):
        """Binomial convolution, computed on integers over one denominator.

        With a_k = x_k / D_a and b_k = y_k / D_b, the n-th coefficient is
        S_n / (D_a D_b) where S_n = sum_k C(n, k) x_k y_{n-k} is an exact
        int sum; it becomes one ``Fraction`` (a ``GaussianRational`` of two
        in the Gaussian domain), so entries are always of the domain's type.
        """
        self._check(other)
        x, dx = _integer_parts(self.coeffs, self.domain)
        y, dy = _integer_parts(other.coeffs, other.domain)
        return HurwitzSeries(_from_parts(_convolve_parts(x, y), dx * dy), self.domain)

    def hadamard(self, other):
        self._check(other)
        return HurwitzSeries(
            [a * b for a, b in zip(self.coeffs, other.coeffs)], self.domain
        )

    def scale(self, value):
        value = self.domain.coerce(value)
        return HurwitzSeries([value * a for a in self.coeffs], self.domain)

    def inverse(self):
        """Inverse under ``*``, by a fraction-free recurrence on integers.

        With a_k = A_k / D and c = A_0, the inverse is b_n = D P_n / c^(n+1)
        where P_0 = 1 and P_n = -sum_{h=1..n} C(n, h) A_h P_{n-h} c^(h-1),
        the recurrence b_n = -(1/a_0) sum C(n, h) a_h b_{n-h} cleared of
        denominators.  Every P_n is an integer, so each coefficient costs a
        single division.  A Gaussian a is inverted as conj(a) (a conj(a))^-1:
        coefficientwise conjugation is a ring automorphism of ``*``, so
        a conj(a) is rational with leading coefficient |a_0|^2 != 0.
        """
        if not self.coeffs[0]:
            raise NotAUnitError("leading coefficient is zero; no inverse under *")
        if self.domain is Domain.GAUSSIAN:
            conj = HurwitzSeries([c.conjugate() for c in self.coeffs], self.domain)
            real = (self * conj).to_domain(Domain.RATIONAL)
            return conj * real.inverse().to_domain(self.domain)
        rows = binomial_rows(self.order)
        (a,), d = _integer_parts(self.coeffs, self.domain)
        c = a[0]
        ac = [a[h] * c ** (h - 1) for h in range(1, len(a))]  # A_h c^(h-1)
        p = [1]
        for n in range(1, len(a)):
            p.append(-_dot(rows[n][1:], ac, p[::-1]))
        return HurwitzSeries(
            [Fraction(d * pn, c ** (n + 1)) for n, pn in enumerate(p)], self.domain
        )

    def derivative(self):
        """Left shift (a_{n+1}); the order shrinks by one."""
        if self.order == 0:
            raise OrderExhaustedError("cannot differentiate an order-0 series")
        return HurwitzSeries(self.coeffs[1:], self.domain)

    def truncate(self, order):
        """Drop coefficients above ``order``; never extends."""
        if order > self.order:
            raise OrderExhaustedError(
                f"cannot extend a series of order {self.order} to {order}"
            )
        if order == self.order:
            return self
        if order < 0:
            raise OutOfRangeError("truncation order must be >= 0")
        return HurwitzSeries(self.coeffs[: order + 1], self.domain)

    def agrees_with(self, other):
        """Equality over the indices both sides honestly know."""
        if self.domain is not other.domain:
            return False
        m = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:m] == other.coeffs[:m]

    def to_domain(self, domain):
        """Move between domains; dropping to rational requires real entries."""
        if domain is self.domain:
            return self
        if domain is Domain.GAUSSIAN:
            return HurwitzSeries([GaussianRational(c, 0) for c in self.coeffs], domain)
        out = []
        for c in self.coeffs:
            if isinstance(c, GaussianRational):
                if c.im != 0:
                    raise DomainMismatchError(f"coefficient {format_scalar(c)} is not real")
                c = c.re
            out.append(c)
        return HurwitzSeries(out, domain)

    # -- evaluation ----------------------------------------------------

    def eval_at(self, point):
        """Floating-point value of the truncated series at ``point``.

        Sums the ordinary coefficients a_n / n! of ``to_polynomial``, each
        as a double, Horner style; rational series at a real point yield a
        float, anything else a complex.  Values beyond double range become
        IEEE infinities rather than raising.
        """
        terms = []
        for exact in self.to_polynomial():
            if isinstance(exact, GaussianRational):
                terms.append(complex(_saturating_float(exact.re), _saturating_float(exact.im)))
            else:
                terms.append(_saturating_float(exact))
        acc = terms[-1]
        for b in reversed(terms[:-1]):
            acc = acc * point + b
        return acc

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "domain": self.domain.value,
            "orderX": self.order,
            "coeffs": [format_scalar(c) for c in self.coeffs],
        }


def mul_truncating(a, b):
    """Product after trimming both factors to the shorter honest order."""
    m = min(a.order, b.order)
    return a.truncate(m) * b.truncate(m)


def add_truncating(a, b):
    m = min(a.order, b.order)
    return a.truncate(m) + b.truncate(m)


def power_truncating(series, exponent):
    """exponent-fold product by repeated squaring; exponent 0 gives the unit e."""
    if exponent < 0:
        raise OutOfRangeError("series powers need a non-negative exponent")
    one = HurwitzSeries.constant(1, series.order, series.domain)
    return power(series, exponent, one, mul_truncating)
