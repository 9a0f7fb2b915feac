import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flowring.errors import (
    DigitLimitError,
    DomainMismatchError,
    DomainRequiredError,
    OutOfRangeError,
)
from flowring.expr import _poly_mul
from flowring.hurwitz import HurwitzSeries, binomial_rows
from flowring.scalars import (
    Domain,
    GaussianRational,
    format_scalar,
    parse_scalar,
    power,
)
from flowring.verify import random_series

fractions = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
gaussians = st.builds(GaussianRational, fractions, fractions)


def test_rational_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 3) * Fraction(3, 2) == 1
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_gaussian_arithmetic_examples():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1, 0)


def test_gaussian_mixes_with_rationals():
    g = GaussianRational(1, 2)
    assert g + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 2)
    assert 2 * g == GaussianRational(2, 4)
    assert Fraction(1, 2) - g == GaussianRational(Fraction(-1, 2), -2)
    assert g == GaussianRational(1, 2)
    assert GaussianRational(Fraction(5, 3), 0) == Fraction(5, 3)


def test_gaussian_powers():
    i = GaussianRational(0, 1)
    assert i ** 0 == 1
    assert i ** 2 == -1
    assert i ** 3 == GaussianRational(0, -1)
    with pytest.raises(OutOfRangeError):
        i ** -1


def _repeated(base, exponent, one, mul):
    acc = one
    for _ in range(exponent):
        acc = mul(acc, base)
    return acc


def test_power_matches_repeated_multiplication():
    rng = random.Random(7)
    g = Domain.GAUSSIAN
    poly = {1: Fraction(2, 3), 3: GaussianRational(0, 1)}
    cases = [
        (Fraction(-3, 2), Fraction(1), operator.mul),
        (GaussianRational(Fraction(1, 2), -1), GaussianRational(1), operator.mul),
        (random_series(rng, 6), HurwitzSeries.constant(1, 6), operator.mul),
        (random_series(rng, 6, g), HurwitzSeries.constant(1, 6, g), operator.mul),
        (poly, {0: Fraction(1)}, _poly_mul),
    ]
    for base, one, mul in cases:
        for exponent in range(41):
            assert power(base, exponent, one, mul) == _repeated(base, exponent, one, mul)


def test_power_squares_and_never_multiplies_by_one():
    one = object()
    for exponent in range(1, 300):
        calls = []

        def add(a, b):
            assert a is not one and b is not one
            calls.append((a, b))
            return a + b

        assert power(1, exponent, one, add) == exponent
        assert len(calls) <= 2 * math.ceil(math.log2(exponent))
    assert power(5, 0, one) is one


@given(fractions, fractions, fractions)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_binomial_examples():
    rows = binomial_rows(64)
    assert rows[4][2] == 6
    assert rows[10][5] == 252
    for n in range(65):
        # row n holds exactly C(n, 0) .. C(n, n)
        assert len(rows[n]) == n + 1
        assert rows[n][0] == rows[n][n] == 1
        assert list(rows[n]) == [math.comb(n, k) for k in range(n + 1)]
    # one table keyed by row: asking for fewer rows neither copies nor shrinks it
    assert binomial_rows(3) is rows and len(rows) >= 65


def test_pascal_identity():
    # with the edge convention C(n-1, n) = 0 at k = n
    rows = binomial_rows(64)
    for n in range(1, 65):
        for k in range(1, n):
            assert rows[n][k] == rows[n - 1][k - 1] + rows[n - 1][k]
        assert rows[n][n] == rows[n - 1][n - 1]


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-1", "5/6", "-7/3", "i", "-i", "2/3i", "-5/2i", "3/2-i", "3/2+i",
     "1/2+2/3i", "-4+7/9i", "12", "-12/7"],
)
def test_scalar_round_trip(text):
    value = parse_scalar(text)
    assert format_scalar(value) == text


@given(gaussians)
def test_gaussian_format_parse_round_trip(g):
    assert parse_scalar(format_scalar(g)) == g


def _fraction_text(re, im):
    """The text of re + im*i by the rules on Fractions: str of each part, "i" for |im| = 1."""
    if im == 0:
        return str(re)
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i"
    if re == 0:
        return ("-" if im < 0 else "") + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


@st.composite
def _integer_scalars(draw):
    """(m, den, im) with den > 0, including zero parts and im = +-den."""
    ints = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-(10**40), 10**40))
    den = draw(st.one_of(st.just(1), st.integers(1, 60), st.integers(1, 10**30)))
    m = draw(ints)
    im = draw(st.one_of(ints, st.sampled_from([den, -den])))
    return m, den, im


@given(_integer_scalars())
def test_format_scalar_from_integer_parts(parts):
    m, den, im = parts
    re, imag = Fraction(m, den), Fraction(im, den)
    text = format_scalar(m, den, im)
    assert text == _fraction_text(re, imag)
    value = GaussianRational(re, imag) if im else re
    assert format_scalar(value) == text
    assert parse_scalar(text) == value
    if not im:
        assert format_scalar(m, den) == text
        assert format_scalar(GaussianRational(re, 0)) == text


def test_format_scalar_keeps_the_digit_limit():
    digits = sys.get_int_max_str_digits()
    longest, beyond = 10**digits - 1, 10**digits
    assert len(format_scalar(longest)) == digits
    assert format_scalar(-longest, 1, longest).endswith("i")
    assert format_scalar(1, longest) == f"1/{longest}"
    for args in [(beyond,), (-beyond, 1), (1, beyond), (0, 1, beyond), (beyond, 1, 1),
                 (Fraction(1, beyond),), (GaussianRational(0, beyond),)]:
        with pytest.raises(DigitLimitError):
            format_scalar(*args)


def test_parse_scalar_accepts_spaces():
    assert parse_scalar("3/2 - i") == GaussianRational(Fraction(3, 2), -1)
    assert parse_scalar(" 5 / 6 ") == Fraction(5, 6)


def test_parse_scalar_domain_handling():
    assert parse_scalar("3/2", Domain.GAUSSIAN) == GaussianRational(Fraction(3, 2), 0)
    assert isinstance(parse_scalar("3/2", Domain.GAUSSIAN), GaussianRational)
    with pytest.raises(DomainRequiredError):
        parse_scalar("i", Domain.RATIONAL)
    with pytest.raises(ValueError):
        parse_scalar("spam")


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/0i", "2+5/0i", "7/00"])
def test_parse_scalar_names_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


def test_domain_coercion():
    assert Domain.RATIONAL.coerce(3) == Fraction(3)
    assert Domain.GAUSSIAN.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2), 0)
    with pytest.raises(DomainMismatchError):
        Domain.RATIONAL.coerce(GaussianRational(1, 1))
    assert Domain.of(Fraction(1)) is Domain.RATIONAL
    assert Domain.of(GaussianRational(1)) is Domain.GAUSSIAN
