import math
import random
from fractions import Fraction

import pytest

from flowring.autonomous import (
    autonomous_sequence,
    autonomous_sequence_bell,
    box_dot,
    box_plus,
    scalar_action,
    sum_interaction_terms,
)
from flowring.errors import (
    DomainMismatchError,
    OrderExhaustedError,
    OrderMismatchError,
    OutOfRangeError,
)
from flowring.expr import series_from_text
from flowring.hurwitz import HurwitzSeries, add_truncating, mul_truncating
from flowring.scalars import Domain, GaussianRational, parse_scalar
from flowring.verify import random_polynomial_series, random_series


def test_identity_field_gives_constant_sequence():
    f = HurwitzSeries.x(8)
    seq = autonomous_sequence(f, 5)
    for n, term in enumerate(seq.terms):
        assert term == HurwitzSeries.x(8).truncate(term.order)
        if n >= 1:
            assert term.order == 8 - (n - 1)


def test_square_field_terms_are_factorial_monomials():
    f = series_from_text("x^2", 12)
    seq = autonomous_sequence(f, 6)
    for n in range(1, 7):
        term = seq.terms[n]
        expected = [Fraction(0)] * (term.order + 1)
        expected[n + 1] = Fraction(math.factorial(n) * math.factorial(n + 1))
        assert term == HurwitzSeries(expected, Domain.RATIONAL)


def test_tangent_field_terms():
    seq = autonomous_sequence(series_from_text("1+x^2", 10), 3)
    assert seq.terms[2] == series_from_text("2x+2x^3", 9)
    assert seq.terms[3] == series_from_text("2+8x^2+6x^4", 8)


def test_bell_path_matches_product_path():
    rng = random.Random(2)
    for _ in range(10):
        f = random_polynomial_series(rng, 12, 4)
        assert autonomous_sequence(f, 6) == autonomous_sequence_bell(f, 6)


@pytest.mark.parametrize("domain", list(Domain))
def test_bell_path_matches_product_path_through_order_12(domain):
    rng = random.Random(11)
    for order_t in range(1, 13):
        f = random_series(rng, 14, domain)
        assert autonomous_sequence_bell(f, order_t) == autonomous_sequence(f, order_t)


def test_bell_path_display_forms():
    f = series_from_text("1/2x^3-x+2", 10)
    seq = autonomous_sequence_bell(f, 4)
    d1 = f.derivative()
    d2 = d1.derivative()
    assert seq.terms[2] == mul_truncating(f, d1)
    lhs3 = add_truncating(
        mul_truncating(seq.terms[2], d1), mul_truncating(f * f, d2)
    )
    assert seq.terms[3] == lhs3


def test_box_plus_examples():
    f = random_polynomial_series(random.Random(7), 10, 3)
    seq = autonomous_sequence(f, 5)
    zero = autonomous_sequence(HurwitzSeries.zeros(10), 5)
    assert box_plus(seq, zero) == seq
    assert box_plus(seq, scalar_action(Fraction(-1), seq)) == zero
    assert zero.terms[0] == HurwitzSeries.x(10)
    assert all(t.is_zero() for t in zero.terms[1:])


def test_box_plus_cross_term():
    x = series_from_text("x", 8)
    x2 = series_from_text("x^2", 8)
    combined = box_plus(autonomous_sequence(x, 4), autonomous_sequence(x2, 4))
    assert combined.terms[2] == series_from_text("(x+x^2)*(1+2x)", 7)


def test_interaction_terms():
    f = series_from_text("x^2", 10)
    g = series_from_text("1-x", 10)
    seq_sum = autonomous_sequence(f + g, 5)
    seq_f = autonomous_sequence(f, 5)
    seq_g = autonomous_sequence(g, 5)
    witnesses = sum_interaction_terms(seq_f, seq_g)
    assert len(witnesses) == 5
    assert witnesses[0].is_zero()
    h2 = mul_truncating(f, g.derivative()) + mul_truncating(g, f.derivative())
    assert witnesses[1] == h2
    for n, h in enumerate(witnesses, start=1):
        assert h == seq_sum.terms[n] - seq_f.terms[n] - seq_g.terms[n]


def test_interaction_with_zero_field_vanishes():
    f = series_from_text("x^3-2", 10)
    zero = HurwitzSeries.zeros(10)
    witnesses = sum_interaction_terms(autonomous_sequence(f, 4), autonomous_sequence(zero, 4))
    assert len(witnesses) == 4
    assert all(h.is_zero() for h in witnesses)


def test_interaction_doubling_identity():
    f = series_from_text("1+x^2", 12)
    seq = autonomous_sequence(f, 6)
    witnesses = sum_interaction_terms(seq, seq)
    assert len(witnesses) == 6
    for n, h in enumerate(witnesses, start=1):
        assert h == seq.terms[n].scale(2**n - 2)


def test_box_dot_examples():
    f = random_polynomial_series(random.Random(9), 10, 3)
    seq = autonomous_sequence(f, 5)
    one = autonomous_sequence(HurwitzSeries.constant(1, 10), 5)
    assert box_dot(one, seq) == seq
    assert one.terms[1] == HurwitzSeries.constant(1, 10)
    assert all(t.is_zero() for t in one.terms[2:])


def test_scalar_action_examples():
    f = series_from_text("1-x+x^2", 12)
    seq = autonomous_sequence(f, 4)
    zeroed = scalar_action(0, seq)
    assert all(t.is_zero() for t in zeroed.terms[1:])
    assert scalar_action(1, seq) == seq
    doubled = scalar_action(2, seq)
    assert doubled.terms[3] == seq.terms[3].scale(8)
    assert doubled == autonomous_sequence(f.scale(2), 4)


def test_scalar_action_with_i():
    f = series_from_text("x^2", 10, Domain.GAUSSIAN)
    seq = autonomous_sequence(f, 4)
    unit_i = GaussianRational(0, 1)
    acted = scalar_action(unit_i, seq)
    assert acted == autonomous_sequence(f.scale(unit_i), 4)
    assert acted.terms[2] == seq.terms[2].scale(-1)


def test_order_exhausted():
    f = series_from_text("x^2", 4)
    with pytest.raises(OrderExhaustedError):
        autonomous_sequence(f, 5)
    with pytest.raises(OrderExhaustedError):
        autonomous_sequence_bell(f, 5)


def test_mismatch_errors():
    a = autonomous_sequence(series_from_text("x", 8), 4)
    b = autonomous_sequence(series_from_text("x", 8), 3)
    with pytest.raises(OrderMismatchError):
        box_plus(a, b)
    c = autonomous_sequence(series_from_text("x", 8, Domain.GAUSSIAN), 4)
    with pytest.raises(DomainMismatchError):
        box_dot(a, c)
    with pytest.raises(OrderMismatchError):
        sum_interaction_terms(autonomous_sequence(series_from_text("x", 8), 3),
                              autonomous_sequence(series_from_text("x", 9), 3))
    with pytest.raises(OrderMismatchError):
        sum_interaction_terms(a, b)
    with pytest.raises(DomainMismatchError):
        sum_interaction_terms(a, c)
    short = autonomous_sequence(series_from_text("x", 8), 1)
    with pytest.raises(OutOfRangeError):
        sum_interaction_terms(short, short)


def test_honest_orders_shrink():
    f = series_from_text("x^3-x", 9)
    seq = autonomous_sequence(f, 5)
    assert [t.order for t in seq.terms] == [9, 9, 8, 7, 6, 5]


def test_json_round_trip(cli_json):
    seq = autonomous_sequence(series_from_text("1+x^2", 8), 4)
    payload = cli_json("series", "--field", "1+x^2", "--order-x", "8", "--order-t", "4",
                       "--format", "json")
    assert payload["orderT"] == 4
    for printed, series in zip([payload["field"], *payload["terms"]], [seq.field, *seq.terms],
                               strict=True):
        assert printed["domain"] == "rational" and printed["orderX"] == series.order
        assert [parse_scalar(c, Domain.RATIONAL) for c in printed["coeffs"]] == list(series.coeffs)


# eval-oracle inputs on which |series - rk4| exceeds 1e-5 at N = 16, M = 12: the gap is
# the truncation error of the series, and the double sum of the truncated series is right
@pytest.mark.parametrize("text, x, t", [
    ("x^5+2*x^4+x^3+2*x^2+x+2", 0.1691, 0.1464),
    ("x^5+2*x^4+1/2*x^3+2*x^2+1/2*x+2", 0.1999, 0.14),
    ("x^5+2*x^4+1/2*x^3+2*x^2+1/2*x+2", 0.1927, 0.145),
])
def test_eval_at_is_within_four_ulp_of_the_exact_truncated_sum(text, x, t):
    seq = autonomous_sequence(series_from_text(text, 16), 12)
    exact = Fraction(0)
    for n, term in enumerate(seq.terms):
        parts, den = term.ordinary_parts()
        value_at_x = sum(Fraction(m, den) * Fraction(x) ** k for k, m in enumerate(parts[0]))
        exact += value_at_x * Fraction(t) ** n / math.factorial(n)
    assert abs(Fraction(seq.eval_at(t, x)) - exact) <= 4 * Fraction(math.ulp(float(exact)))
