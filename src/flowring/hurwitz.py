"""Truncated Hurwitz series: coefficient vectors of sum a_n x^n / n!.

A series here is a vector (a_0 .. a_N) of exact scalars.  The vector is
simultaneously the sequence view and the series view: index n holds the
n-th derivative at 0.  Coefficients beyond the truncation order N are
unknown rather than zero, so binary operations insist on equal orders,
differentiation shortens the result by one index, and nothing ever pads
with fabricated zeros.  Use ``truncate`` to trim deliberately and the
``*_truncating`` helpers to combine series of different honest lengths.

A series is stored the way FLINT's ``fmpq_poly`` stores a polynomial:
integer numerators over one positive denominator D, a_n = m_n / D, in
canonical form, gcd(D, m_0, .., m_N) = 1.  ``parts`` holds the numerator
vectors as int lists that nothing changes after construction, (m,) in the
rational domain and (re, im) over the one shared D in the Gaussian
domain.  Lists, not tuples: CPython keeps up to 2000 freed tuples of each
length below 20 for reuse, and short-lived series would pin megabytes
there; for the same reason tuples here are built from lists, never from
generators (such a tuple is resized after it is allocated and is freed
to another length's cache).  Every operation works on these ints and
reduces its result with one gcd, not one per coefficient.  The binomial
convolution ``*`` runs on plain ints with binomials read from a
module-level table of Pascal rows, and sums only over the support (one
past the last nonzero entry, FLINT's normalised ``fmpz_poly`` length) of
the operand whose support is shorter; ``_convolve_parts`` holds that product
rule (three real convolutions for a Gaussian product), and the flow
composition kernel in ``flow`` calls it too.  A Gaussian ``inverse`` goes
through the rational one by conjugation.  Printing reads the parts and
the denominator through ``format_scalar``.  ``coeffs`` is a read-only view
of the entries as ``Fraction`` (or ``GaussianRational``) values, built on
first use and cached; since the stored form is canonical, ``==``
compares the parts directly and keeps the meaning of entrywise equality.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate
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


def _reduce(parts, den):
    """Canonical (parts, den) for the values parts / den: den > 0, gcd 1.

    ``parts`` holds lists of ints, which are kept when already reduced.
    """
    g = math.gcd(den, *parts[0], *parts[-1])  # parts[-1] is parts[0] when rational
    if den < 0:
        g = -g
    if g != 1:
        parts = [[m // g for m in part] for part in parts]
        den //= g
    return tuple(parts), den


def _entries(parts, den):
    """Scalars part / den: ``Fraction``s from (m,), ``GaussianRational``s from (re, im)."""
    if len(parts) == 1:
        return tuple([Fraction(m, den) for m in parts[0]])
    return tuple([GaussianRational(Fraction(r, den), Fraction(i, den)) for r, i in zip(*parts)])


def _dot(row, x, y_reversed):
    """sum_k row[k] x[k] y_reversed[k], stopping at the shortest argument."""
    return sum(map(mul, map(mul, row, x), y_reversed))


def _support(v):
    """One past the last nonzero entry of ``v``: 0 when every entry is zero."""
    n = len(v)
    while n and not v[n - 1]:
        n -= 1
    return n


def _convolve(x, y):
    """Integer binomial convolution S_n = sum_k C(n, k) x_k y_{n-k} of equal-length vectors.

    The sum runs only over the support of the operand with the shorter
    support, which goes first (C(n, k) = C(n, n - k) makes the product
    symmetric); the terms past it are known zeros.
    """
    sx, sy = _support(x), _support(y)
    if sy < sx:
        x, y, sx = y, x, sy
    top = len(y) - 1
    rows = binomial_rows(top)
    y_rev = y[::-1]
    x = x[:sx]
    return [_dot(rows[n], x, y_rev[top - n :]) for n in range(top + 1)]


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


def _pointwise(x, y):
    """Entrywise product of integer part vectors, [m] or Gaussian [re, im]."""
    if len(x) == 1:
        return [list(map(mul, x[0], y[0]))]
    (a, b), (c, d) = x, y
    return [
        [p * r - q * s for p, q, r, s in zip(a, b, c, d)],
        [p * s + q * r for p, q, r, s in zip(a, b, c, d)],
    ]


def _saturating_div(m, q):
    """The double nearest m / q (q > 0), or a signed infinity beyond the double range."""
    try:
        return m / q
    except OverflowError:
        return math.inf if m > 0 else -math.inf


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

    __slots__ = ("parts", "den", "domain", "_coeffs")

    def __init__(self, coeffs, domain):
        """A series from scalars, each coerced into ``domain``."""
        values = [domain.coerce(c) for c in coeffs]
        if not values:
            raise OutOfRangeError("a series needs at least one coefficient")
        if domain is Domain.GAUSSIAN:
            values = [[v.re for v in values], [v.im for v in values]]
        else:
            values = [values]
        # the lcm of reduced denominators leaves every prime factor uncancelled
        den = math.lcm(*[q.denominator for part in values for q in part])
        self.parts = tuple([[q.numerator * (den // q.denominator) for q in part] for part in values])
        self.den = den
        self.domain = domain
        self._coeffs = None

    # -- constructors -------------------------------------------------

    @classmethod
    def make(cls, values, domain=Domain.RATIONAL):
        """Build a series, coercing each entry into ``domain``."""
        return cls(values, domain)

    @classmethod
    def from_integers(cls, parts, den, domain):
        """The series parts / den, for int lists (m,) or (re, im) and an int den != 0."""
        series = object.__new__(cls)
        (series.parts, series.den), series.domain, series._coeffs = _reduce(parts, den), domain, None
        return series

    @classmethod
    def zeros(cls, order, domain=Domain.RATIONAL):
        return cls([0] * (order + 1), domain)

    @classmethod
    def constant(cls, value, order, domain=Domain.RATIONAL):
        return cls([value] + [0] * order, domain)

    @classmethod
    def x(cls, order, domain=Domain.RATIONAL):
        """The identity series x, coefficients (0, 1, 0, ...)."""
        if order < 1:
            raise OutOfRangeError("the series x needs order >= 1")
        nums = [0, 1] + [0] * (order - 1)
        parts = [nums] if domain is Domain.RATIONAL else [nums, [0] * (order + 1)]
        return cls.from_integers(parts, 1, domain)

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
    def coeffs(self):
        """The entries a_0 .. a_N as scalars of the domain (read-only, cached)."""
        if self._coeffs is None:
            self._coeffs = _entries(self.parts, self.den)
        return self._coeffs

    @property
    def order(self):
        return len(self.parts[0]) - 1

    def ordinary_parts(self):
        """Canonical (parts, den) of the ordinary coefficients a_k / k!."""
        n = self.order
        ratios = list(accumulate(range(n, 0, -1), mul, initial=1))[::-1]  # n! / k!
        return _reduce([list(map(mul, part, ratios)) for part in self.parts], self.den * ratios[0])

    def to_polynomial(self):
        """Ordinary coefficients a_k / k! of the truncated series."""
        return list(_entries(*self.ordinary_parts()))

    def is_zero(self):
        return not any(map(any, self.parts))

    def __repr__(self):
        im = self.parts[1] if self.domain is Domain.GAUSSIAN else [0] * 8
        shown = " ".join([format_scalar(r, self.den, i) for r, i in zip(self.parts[0][:8], im)])
        if self.order >= 8:
            shown += " ..."
        return f"HurwitzSeries[{self.domain.value}, N={self.order}]({shown})"

    def __eq__(self, other):
        if not isinstance(other, HurwitzSeries):
            return NotImplemented
        return self.domain is other.domain and self.den == other.den and self.parts == other.parts

    def _check(self, other):
        if not isinstance(other, HurwitzSeries):
            raise TypeError(f"expected a HurwitzSeries, got {other!r}")
        if self.domain is not other.domain:
            raise DomainMismatchError(
                f"domains differ: {self.domain.value} vs {other.domain.value}"
            )
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations -----------------------------------------------

    def _combine(self, other, op):
        """Entrywise ``op`` over the common denominator of the two series."""
        self._check(other)
        da, db = self.den, other.den
        pairs = zip(self.parts, other.parts)
        if da == db:
            return self.from_integers([list(map(op, x, y)) for x, y in pairs], da, self.domain)
        g = math.gcd(da, db)
        ua, ub = db // g, da // g
        parts = [[op(a * ua, b * ub) for a, b in zip(x, y)] for x, y in pairs]
        return self.from_integers(parts, da * ua, self.domain)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self.from_integers([[-m for m in part] for part in self.parts], self.den, self.domain)

    def __mul__(self, other):
        """Binomial convolution, on the integer numerators.

        With a_k = x_k / D_a and b_k = y_k / D_b, the n-th coefficient is
        S_n / (D_a D_b) where S_n = sum_k C(n, k) x_k y_{n-k} is an exact
        int sum; one gcd brings the result to canonical form.
        """
        self._check(other)
        parts = _convolve_parts(self.parts, other.parts)
        return self.from_integers(parts, self.den * other.den, self.domain)

    def hadamard(self, other):
        self._check(other)
        parts = _pointwise(self.parts, other.parts)
        return self.from_integers(parts, self.den * other.den, self.domain)

    def scale(self, value):
        value = self.domain.coerce(value)
        if self.domain is Domain.RATIONAL:
            factor, q = [value.numerator], value.denominator
        else:
            re, im = value.re, value.im
            q = math.lcm(re.denominator, im.denominator)
            factor = [re.numerator * (q // re.denominator), im.numerator * (q // im.denominator)]
        size = len(self.parts[0])
        parts = _pointwise(self.parts, [[u] * size for u in factor])
        return self.from_integers(parts, self.den * q, self.domain)

    def inverse(self):
        """Inverse under ``*``, by a fraction-free recurrence on integers.

        With a_k = A_k / D and c = A_0, the inverse is b_n = D P_n / c^(n+1)
        where P_0 = 1 and P_n = -sum_{h=1..n} C(n, h) A_h P_{n-h} c^(h-1),
        the recurrence b_n = -(1/a_0) sum C(n, h) a_h b_{n-h} cleared of
        denominators.  Every P_n is an integer, so the whole inverse is
        D P_n c^(N-n) over c^(N+1), reduced by one gcd.  A Gaussian a is
        inverted as conj(a) (a conj(a))^-1: coefficientwise conjugation is a
        ring automorphism of ``*``, so a conj(a) is rational with leading
        coefficient |a_0|^2 != 0.
        """
        if not any(part[0] for part in self.parts):
            raise NotAUnitError("leading coefficient is zero; no inverse under *")
        if self.domain is Domain.GAUSSIAN:
            re, im = self.parts
            conj = self.from_integers((re, [-m for m in im]), self.den, self.domain)
            real = (self * conj).to_domain(Domain.RATIONAL)
            return conj * real.inverse().to_domain(self.domain)
        rows = binomial_rows(self.order)
        (a,), d = self.parts, self.den
        c = a[0]
        ac = [a[h] * c ** (h - 1) for h in range(1, len(a))]  # A_h c^(h-1)
        p = [1]
        for n in range(1, len(a)):
            p.append(-_dot(rows[n][1:], ac, p[::-1]))
        cpow = list(accumulate([c] * self.order, mul, initial=1))  # c^0 .. c^N
        nums = [d * pn * cn for pn, cn in zip(p, reversed(cpow))]
        return self.from_integers([nums], cpow[-1] * c, self.domain)

    def derivative(self):
        """Left shift (a_{n+1}); the order shrinks by one."""
        if self.order == 0:
            raise OrderExhaustedError("cannot differentiate an order-0 series")
        return self.from_integers([part[1:] for part in self.parts], self.den, self.domain)

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
        parts = [part[: order + 1] for part in self.parts]
        return self.from_integers(parts, self.den, self.domain)

    def agrees_with(self, other):
        """Equality over the indices both sides honestly know."""
        if self.domain is not other.domain:
            return False
        da, db = self.den, other.den
        return all(
            a * db == b * da for x, y in zip(self.parts, other.parts) for a, b in zip(x, y)
        )

    def to_domain(self, domain):
        """Move between domains; dropping to rational requires real entries."""
        if domain is self.domain:
            return self
        if domain is Domain.GAUSSIAN:
            re = self.parts[0]
            return self.from_integers((re, [0] * len(re)), self.den, domain)
        re, im = self.parts
        for r, m in zip(re, im):
            if m:
                raise DomainMismatchError(f"coefficient {format_scalar(r, self.den, m)} is not real")
        return self.from_integers((re,), self.den, domain)

    # -- evaluation ----------------------------------------------------

    def eval_at(self, point):
        """Floating-point value of the truncated series at ``point``.

        Sums the ordinary coefficients a_n / n!, each the double nearest
        its exact value (one int division), Horner style; rational series
        at a real point yield a float, anything else a complex.  Values
        beyond double range become IEEE infinities rather than raising.
        """
        parts, den = self.ordinary_parts()
        terms = [_saturating_div(m, den) for m in parts[0]]
        if len(parts) == 2:
            terms = [complex(r, _saturating_div(i, den)) for r, i in zip(terms, parts[1])]
        acc = terms[-1]
        for b in reversed(terms[:-1]):
            acc = acc * point + b
        return acc


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
