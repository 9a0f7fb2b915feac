import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowring import hurwitz
from flowring.errors import (
    DomainMismatchError,
    NotAUnitError,
    OrderExhaustedError,
    OrderMismatchError,
    OutOfRangeError,
)
from flowring.expr import series_from_text
from flowring.hurwitz import (
    HurwitzSeries,
    add_truncating,
    binomial_rows,
    mul_truncating,
    power_truncating,
)
from flowring.scalars import Domain, GaussianRational, parse_scalar
from flowring.verify import random_series, random_unit_series


def S(*values):
    return HurwitzSeries.make(values)


def test_addition_examples():
    assert S(1, 1, 1) + S(0, 0, 0) == S(1, 1, 1)
    assert S(1, 2, 4) + S(1, -2, -4) == S(2, 0, 0)
    cosh2 = HurwitzSeries.exp(1, 3) + HurwitzSeries.exp(-1, 3)
    assert cosh2 == S(2, 0, 2, 0)


def test_product_examples():
    e1 = HurwitzSeries.exp(1, 6)
    assert e1 * e1 == HurwitzSeries.exp(2, 6)
    e = HurwitzSeries.constant(1, 4)
    a = S(3, -1, 2, 0, 7)
    assert e * a == a
    x = S(0, 1, 0, 0)
    assert x * x == S(0, 0, 2, 0)
    assert HurwitzSeries.exp(0, 3) == S(1, 0, 0, 0)


def test_hadamard_examples():
    a = S(5, -2, 7)
    assert a.hadamard(S(1, 1, 1)) == a
    assert HurwitzSeries.exp(2, 5).hadamard(HurwitzSeries.exp(3, 5)) == HurwitzSeries.exp(6, 5)
    assert S(1, 2, 3).hadamard(S(0, 0, 0)) == S(0, 0, 0)


def test_inverse_examples():
    assert HurwitzSeries.exp(1, 6).inverse() == HurwitzSeries.exp(-1, 6)
    e = HurwitzSeries.constant(1, 5)
    assert e.inverse() == e
    a = S(1, 1, 0, 0)
    inv = a.inverse()
    assert inv == S(1, -1, 2, -6)
    assert [inv.coeffs[n] for n in range(4)] == [(-1) ** n * math.factorial(n) for n in range(4)]
    assert a * inv == HurwitzSeries.constant(1, 3)
    with pytest.raises(NotAUnitError):
        S(0, 1, 2).inverse()


def test_inverse_cancels_for_random_units():
    rng = random.Random(5)
    for _ in range(20):
        a = random_unit_series(rng, 12)
        assert a * a.inverse() == HurwitzSeries.constant(1, 12)


def _schoolbook_mul(a, b):
    """(a * b)_n = sum_k C(n, k) a_k b_{n-k}, one scalar operation at a time."""
    zero = a.domain.zero()
    x = [a.domain.coerce(c) for c in a.coeffs]
    y = [b.domain.coerce(c) for c in b.coeffs]
    return tuple(
        sum((math.comb(n, k) * x[k] * y[n - k] for k in range(n + 1)), zero)
        for n in range(len(x))
    )


def _gaussian_reciprocal(z):
    """1/(re + im*i) = (re - im*i) / (re^2 + im^2)."""
    norm = z.re * z.re + z.im * z.im
    return GaussianRational(z.re / norm, -z.im / norm)


def _schoolbook_inverse(a):
    """b_0 = 1/a_0, b_n = -(1/a_0) sum_{h=1..n} C(n, h) a_h b_{n-h}."""
    zero = a.domain.zero()
    x = [a.domain.coerce(c) for c in a.coeffs]
    inv0 = _gaussian_reciprocal(x[0]) if a.domain is Domain.GAUSSIAN else 1 / x[0]
    b = [inv0]
    for n in range(1, len(x)):
        b.append(-inv0 * sum((math.comb(n, h) * x[h] * b[n - h] for h in range(1, n + 1)), zero))
    return tuple(b)


_small = st.integers(-(10**6), 10**6)
_rationals = st.one_of(
    _small,
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**12),
    st.builds(Fraction, _small, st.integers(1, 10**15)),
)
_entries = {
    Domain.RATIONAL: _rationals,
    Domain.GAUSSIAN: st.one_of(
        _rationals,  # Fraction and int entries stay as given in a Gaussian series
        st.builds(GaussianRational, _rationals, _rationals),
        st.builds(lambda im: GaussianRational(0, im), _rationals),
    ),
}


@st.composite
def _operands(draw):
    domain = draw(st.sampled_from(Domain))
    size = draw(st.integers(0, 24)) + 1

    def series():
        zero = st.just([domain.zero()] * size)
        dense = st.lists(_entries[domain], min_size=size, max_size=size)
        return HurwitzSeries(draw(st.one_of(zero, dense)), domain)

    return series(), series()


def _types(values):
    return [type(v) for v in values]


@settings(max_examples=150, deadline=None)
@given(_operands())
def test_integer_kernel_matches_schoolbook(operands):
    a, b = operands
    product = a * b
    expected = _schoolbook_mul(a, b)
    assert product.coeffs == expected
    assert _types(product.coeffs) == _types(expected)
    if not a.coeffs[0]:
        with pytest.raises(NotAUnitError):
            a.inverse()
        return
    inverse = a.inverse()
    expected = _schoolbook_inverse(a)
    assert inverse.coeffs == expected
    assert _types(inverse.coeffs) == _types(expected)


@st.composite
def _tailed_operands(draw):
    """Two series whose parts end in zero tails of drawn lengths.

    Each part has its own support (one past its last nonzero entry, or
    less when a drawn entry is zero), so a Gaussian series has re and im
    supports apart, and either operand may be all zeros; the two operands
    may also share their supports.
    """
    domain = draw(st.sampled_from(Domain))
    size = draw(st.integers(0, 24)) + 1
    supports = draw(st.lists(st.integers(0, size), min_size=4, max_size=4))
    if draw(st.booleans()):
        supports[2:] = supports[:2]

    def part(support):
        head = draw(st.lists(_entries[Domain.RATIONAL], min_size=support, max_size=support))
        return head + [0] * (size - support)

    def series(re_support, im_support):
        if domain is Domain.RATIONAL:
            return HurwitzSeries(part(re_support), domain)
        pairs = zip(part(re_support), part(im_support))
        return HurwitzSeries([GaussianRational(r, i) for r, i in pairs], domain)

    return series(*supports[:2]), series(*supports[2:])


@settings(max_examples=100, deadline=None)
@given(_tailed_operands())
def test_support_cut_matches_schoolbook(operands):
    a, b = operands
    for x, y in ((a, b), (b, a)):
        product = x * y
        expected = _schoolbook_mul(x, y)
        assert product.coeffs == expected
        assert _types(product.coeffs) == _types(expected)
    for x in (a, b):
        if x.coeffs[0]:
            assert x.inverse().coeffs == _schoolbook_inverse(x)


def test_binomial_rows_grow_safely_across_threads(monkeypatch):
    expected = [[math.comb(n, k) for k in range(n + 1)] for n in range(101)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(hurwitz, "_ROWS", [(1,)])
            start = threading.Barrier(4)

            def grow():
                start.wait(timeout=30)
                binomial_rows(100)

            threads = [threading.Thread(target=grow) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert [list(row) for row in hurwitz._ROWS] == expected
    finally:
        sys.setswitchinterval(interval)


def test_derivative_examples():
    e3 = HurwitzSeries.exp(3, 6)
    assert e3.derivative() == e3.scale(3).truncate(5)
    assert HurwitzSeries.constant(9, 4).derivative() == HurwitzSeries.zeros(3)
    assert S(0, 1, 0, -1, 0).derivative() == S(1, 0, -1, 0)
    with pytest.raises(OrderExhaustedError):
        S(1).derivative()


def test_derivative_shrinks_order():
    a = S(1, 2, 3, 4)
    assert a.derivative().order == a.order - 1


def test_leibniz_rule():
    rng = random.Random(11)
    for _ in range(10):
        a = random_series(rng, 10)
        b = random_series(rng, 10)
        lhs = (a * b).derivative()
        rhs = mul_truncating(a.derivative(), b) + mul_truncating(a, b.derivative())
        assert lhs == rhs


def test_eval_examples():
    e1 = HurwitzSeries.exp(1, 20)
    assert abs(e1.eval_at(1.0) - math.e) < 1e-12
    sin = S(0, 1, 0, -1, 0, 1)
    assert sin.eval_at(0.0) == 0.0
    assert HurwitzSeries.constant(1, 6).eval_at(123.0) == 1.0


def test_eval_gaussian_is_complex():
    series = HurwitzSeries.exp(GaussianRational(0, 1), 24)
    value = series.eval_at(1.0)
    assert isinstance(value, complex)
    assert abs(value - complex(math.cos(1.0), math.sin(1.0))) < 1e-12


def test_eval_overflow_saturates_to_infinity():
    huge = S(Fraction(10) ** 400, 0)
    assert huge.eval_at(1.0) == math.inf
    assert S(-(Fraction(10) ** 400), 0).eval_at(1.0) == -math.inf


def test_mismatch_errors():
    with pytest.raises(OrderMismatchError):
        S(1, 2) + S(1, 2, 3)
    with pytest.raises(OrderMismatchError):
        S(1, 2) * S(1, 2, 3)
    g = HurwitzSeries.make([1, 2], Domain.GAUSSIAN)
    with pytest.raises(DomainMismatchError):
        S(1, 2) + g


def test_truncate_never_extends():
    a = S(1, 2, 3)
    assert a.truncate(1).coeffs == (1, 2)
    assert a.truncate(2) is a
    with pytest.raises(OrderExhaustedError):
        a.truncate(5)


def test_truncating_helpers():
    a = S(1, 2, 3, 4)
    b = S(5, 6)
    assert mul_truncating(a, b).order == 1
    assert add_truncating(a, b) == S(6, 8)
    assert power_truncating(b, 0) == HurwitzSeries.constant(1, 1)
    assert power_truncating(a, 2) == a * a
    with pytest.raises(OutOfRangeError):
        power_truncating(a, -1)


def test_to_domain_round_trip():
    a = S(1, -2, Fraction(7, 3))
    lifted = a.to_domain(Domain.GAUSSIAN)
    assert lifted.domain is Domain.GAUSSIAN
    assert lifted.to_domain(Domain.RATIONAL) == a
    bad = HurwitzSeries.make([GaussianRational(0, 1)], Domain.GAUSSIAN)
    with pytest.raises(DomainMismatchError):
        bad.to_domain(Domain.RATIONAL)


def test_json_round_trip(cli_json):
    # a bare series is printed as the field of the series and flow commands
    text = "1/3-2/5*x+x^2-7*x^5"
    field = cli_json("series", "--field", text, "--order-x", "9", "--order-t", "1",
                     "--format", "json")["field"]
    assert list(field) == ["domain", "orderX", "coeffs"]
    assert field["domain"] == "rational" and field["orderX"] == 9
    expected = series_from_text(text, 9).coeffs
    assert [parse_scalar(c, Domain.RATIONAL) for c in field["coeffs"]] == list(expected)
    field = cli_json("flow", "--field", "exp(i*x)", "--domain", "gaussian", "--order-x", "7",
                     "--order-t", "1", "--format", "json")["field"]
    assert field["domain"] == "gaussian" and field["orderX"] == 7
    expected = series_from_text("exp(i*x)", 7, Domain.GAUSSIAN).coeffs
    assert [parse_scalar(c, Domain.GAUSSIAN) for c in field["coeffs"]] == list(expected)


def _assert_canonical(series):
    """Positive denominator, gcd 1 with every numerator, and the view agrees."""
    assert series.den > 0
    assert math.gcd(series.den, *(m for part in series.parts for m in part)) == 1
    assert len(series.parts) == (2 if series.domain is Domain.GAUSSIAN else 1)
    assert series.coeffs == tuple(
        series.domain.coerce(Fraction(m, series.den)) if len(series.parts) == 1
        else GaussianRational(Fraction(m, series.den), Fraction(i, series.den))
        for m, i in zip(series.parts[0], series.parts[-1])
    )
    assert HurwitzSeries(series.coeffs, series.domain) == series


@settings(max_examples=100, deadline=None)
@given(_operands(), _entries[Domain.RATIONAL])
def test_every_operation_keeps_the_canonical_form(operands, factor):
    a, b = operands
    domain = a.domain
    results = [a, b, a + b, a - b, -a, a * b, a.hadamard(b), a.scale(factor),
               a.scale(a.coeffs[-1]), a.truncate(0), a.to_domain(Domain.GAUSSIAN),
               HurwitzSeries.from_integers([[m * 6 for m in part] for part in a.parts],
                                           -6 * a.den, domain)]
    if a.order:
        results.append(a.derivative())
    if domain is Domain.GAUSSIAN:
        results.append(a.hadamard(b.scale(GaussianRational(0, 1))))
    else:
        results.append(a.to_domain(Domain.GAUSSIAN).to_domain(domain))
    if a.coeffs[0]:
        results.append(a.inverse())
    results += [HurwitzSeries.exp(factor, a.order, domain), HurwitzSeries.x(a.order + 1, domain),
                HurwitzSeries.zeros(a.order, domain), HurwitzSeries.constant(factor, a.order, domain),
                HurwitzSeries.from_polynomial(a.coeffs, a.order, domain)]
    for series in results:
        _assert_canonical(series)
    assert results[-1].to_polynomial()[: a.order + 1] == list(a.coeffs)
    assert HurwitzSeries.from_integers(a.parts, a.den, domain) == a
