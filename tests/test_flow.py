import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowring import flow as flow_module
from flowring.autonomous import AutonomousSequence, autonomous_sequence
from flowring.errors import ClosedFormDomainError, OrderExhaustedError, OutOfRangeError
from flowring.expr import parse, series_from_text
from flowring.flow import (
    ClosedFormFlow,
    FlowKind,
    PointKind,
    classify_point,
    closed_form_eval,
    decompose_flow,
    derivation_identity_check,
    flow_boxdot,
    flow_boxplus,
    flow_combination_check,
    flow_series,
    match_closed_form,
    semigroup_check,
    time_scale,
)
from flowring.hurwitz import HurwitzSeries, add_truncating, mul_truncating
from flowring.scalars import Domain, GaussianRational, parse_scalar
from flowring.verify import random_polynomial_series


def test_flow_of_constant_is_x_plus_t():
    flow = flow_series(HurwitzSeries.constant(1, 8), 4)
    assert flow.terms[0] == HurwitzSeries.x(8)
    assert flow.terms[1] == HurwitzSeries.constant(1, 8)
    assert all(t.is_zero() for t in flow.terms[2:])


def test_flow_of_identity_field():
    flow = flow_series(series_from_text("x", 8), 5)
    for term in flow.terms:
        assert term == HurwitzSeries.x(8).truncate(term.order)


def test_flow_of_square_field_matches_geometric_expansion():
    flow = flow_series(series_from_text("x^2", 10), 5)
    for n in range(1, 6):
        term = flow.terms[n]
        expected = [Fraction(0)] * (term.order + 1)
        expected[n + 1] = Fraction(math.factorial(n) * math.factorial(n + 1))
        assert term.coeffs == tuple(expected)


def test_flow_starts_at_x():
    rng = random.Random(31)
    for _ in range(5):
        f = random_polynomial_series(rng, 10, 3)
        assert flow_series(f, 4).terms[0] == HurwitzSeries.x(10)


def test_semigroup_check_examples():
    assert semigroup_check(HurwitzSeries.constant(1, 12), 5).passed
    assert semigroup_check(series_from_text("x", 12), 5).passed
    assert semigroup_check(series_from_text("x^2", 12), 5).passed
    assert semigroup_check(series_from_text("1+x^2", 12), 4).passed


def test_semigroup_check_needs_depth():
    with pytest.raises(OrderExhaustedError):
        semigroup_check(series_from_text("x^2", 8), 5)


def test_derivation_identity_examples():
    assert derivation_identity_check(HurwitzSeries.constant(1, 8), 4).passed
    assert derivation_identity_check(series_from_text("x", 8), 6).passed
    assert derivation_identity_check(series_from_text("1+x^2", 8), 4).passed
    with pytest.raises(OrderExhaustedError):
        derivation_identity_check(series_from_text("x", 6), 6)


def test_time_scale_examples():
    f = series_from_text("x", 8)
    flow = flow_series(f, 5)
    frozen = time_scale(flow, 0)
    assert all(t.is_zero() for t in frozen.terms[1:])
    reversed_flow = time_scale(flow, -1)
    for n, term in enumerate(reversed_flow.terms):
        assert term == flow.terms[n].scale((-1) ** n)
    assert time_scale(flow, 2) == flow_series(f.scale(2), 5)


def test_time_scale_square_field_matches_power_closed_form():
    # scaling the flow of x^2 by 2 is the flow of 2x^2, which is x/(1-2xt)
    flow = time_scale(flow_series(series_from_text("x^2", 41), 16), 2)
    assert flow == flow_series(series_from_text("2x^2", 41), 16)
    cf = ClosedFormFlow(FlowKind.POWER, (2, 2))
    value = flow.eval_at(0.3, 0.1)
    assert abs(value - closed_form_eval(cf, 0.3, 0.1)) < 1e-12


def test_flow_units():
    f = series_from_text("1-x+x^2", 10)
    flow = flow_series(f, 4)
    zero_flow = flow_series(HurwitzSeries.zeros(10), 4)
    one_flow = flow_series(HurwitzSeries.constant(1, 10), 4)
    assert flow_boxplus(flow, zero_flow) == flow
    assert flow_boxdot(flow, one_flow) == flow


def test_flow_boxdot_cubic_example():
    left = flow_series(series_from_text("1-x", 8), 4)
    right = flow_series(series_from_text("x^2+1", 8), 4)
    assert flow_boxdot(left, right) == flow_series(series_from_text("1-x+x^2-x^3", 8), 4)


def test_flow_combination_check():
    f = series_from_text("x^2", 12)
    g = series_from_text("1-x", 12)
    assert flow_combination_check(f, g, 3, "sum").passed
    assert flow_combination_check(f, g, 3, "product").passed
    with pytest.raises(OutOfRangeError):
        flow_combination_check(f, g, 3, "quotient")


def test_semigroup_machinery_detects_corruption():
    # guard against the check comparing nothing: a corrupted time-series
    # coefficient must break the composition identity
    from flowring.flow import _compose

    f = series_from_text("x^2", 12)
    seq = autonomous_sequence(f, 4)
    inner = list(seq.terms)
    bad = list(inner[1].coeffs)
    bad[2] += 1
    inner[1] = HurwitzSeries(bad, inner[1].domain)
    comp = _compose(seq.terms[1], inner, 3)
    mismatched = False
    for p in range(1, 4):
        if not comp[p].agrees_with(seq.terms[p + 1]):
            mismatched = True
    assert mismatched


def _perturb_term(monkeypatch, n=2, index=1):
    """Make the checks see the true sequence with coefficient ``index`` of A_n off by one."""
    true_sequence = flow_module.autonomous_sequence

    def perturbed(field, order_t):
        seq = true_sequence(field, order_t)
        coeffs = list(seq.terms[n].coeffs)
        coeffs[index] += 1
        terms = list(seq.terms)
        terms[n] = HurwitzSeries(coeffs, seq.domain)
        return AutonomousSequence(seq.field, terms)

    monkeypatch.setattr(flow_module, "autonomous_sequence", perturbed)


def test_semigroup_check_fails_on_a_perturbed_term(monkeypatch):
    f = series_from_text("1+x^2", 12)
    assert semigroup_check(f, 4).passed
    _perturb_term(monkeypatch)
    report = semigroup_check(f, 4)
    assert not report.passed
    assert report.first_failure == (1, 1)


def test_derivation_check_fails_on_a_perturbed_term(monkeypatch):
    f = series_from_text("1+x^2", 8)
    assert derivation_identity_check(f, 4).passed
    _perturb_term(monkeypatch)
    report = derivation_identity_check(f, 4)
    assert not report.passed
    assert report.first_failure == (1, "composition")


# (n, index) -> first failures of semigroup_check and derivation_identity_check
# for 1+x^2 at N = 12, M = 4: a wrong A_n shows up in the composition f(Phi)
# at t-degree n - 1, where it is compared with the t-shift A_n
FIRST_FAILURES = {
    (2, 0): ((1, 1), (1, "composition")),
    (2, 1): ((1, 1), (1, "composition")),
    (2, 10): ((1, 1), (1, "composition")),
    (3, 0): ((2, 1), (2, "composition")),
    (3, 1): ((2, 1), (2, "composition")),
    (3, 9): ((2, 1), (2, "composition")),
    (4, 0): ((3, 1), (3, "composition")),
    (4, 1): ((3, 1), (3, "composition")),
    (4, 8): ((3, 1), (3, "composition")),
}


@pytest.mark.parametrize("n, index", sorted(FIRST_FAILURES))
def test_checks_report_the_same_first_failure(monkeypatch, n, index):
    f = series_from_text("1+x^2", 12)
    _perturb_term(monkeypatch, n, index)
    semigroup, derivation = semigroup_check(f, 4), derivation_identity_check(f, 4)
    assert not semigroup.passed and not derivation.passed
    assert (semigroup.first_failure, derivation.first_failure) == FIRST_FAILURES[n, index]


def test_gaussian_field_composes_and_fails_on_a_perturbed_term(monkeypatch):
    f = series_from_text("exp(i*x)+1/2*i*x^2", 12, Domain.GAUSSIAN)
    assert semigroup_check(f, 6).passed
    assert derivation_identity_check(f, 8).passed
    _perturb_term(monkeypatch)
    semigroup, derivation = semigroup_check(f, 4), derivation_identity_check(f, 4)
    assert (semigroup.passed, semigroup.first_failure) == (False, (1, 1))
    assert (derivation.passed, derivation.first_failure) == (False, (1, "composition"))


def test_semigroup_check_multiplies_series_only_in_the_product_recursion(monkeypatch):
    f = series_from_text("1-1/2*x+2/3*x^3", 16)
    calls = []
    true_mul = HurwitzSeries.__mul__

    def counting(a, b):
        calls.append(a.order)
        return true_mul(a, b)

    monkeypatch.setattr(HurwitzSeries, "__mul__", counting)
    assert semigroup_check(f, 5).passed
    assert len(calls) <= 5


def _reference_mul_bivar(u, v, cap, mul=mul_truncating):
    comb = math.comb
    out = []
    top = min(len(u) + len(v) - 2, cap)
    for p in range(top + 1):
        acc = None
        for p1 in range(max(0, p - len(v) + 1), min(p, len(u) - 1) + 1):
            term = mul(u[p1], v[p - p1])
            c = comb(p, p1)
            if c != 1:
                term = term.scale(c)
            acc = term if acc is None else add_truncating(acc, term)
        out.append(acc)
    return out


def _reference_compose(outer, inner, cap, mul=mul_truncating):
    """The Horner composition over HurwitzSeries that the integer kernel replaced."""
    domain = outer.domain
    budget = inner[0].order
    k_top = outer.order
    ordinary = outer.to_polynomial()
    result = [HurwitzSeries.constant(ordinary[k_top], budget, domain)]
    for j in range(k_top - 1, -1, -1):
        result = _reference_mul_bivar(result, inner, cap, mul)
        result[0] = add_truncating(
            result[0], HurwitzSeries.constant(ordinary[j], budget, domain)
        )
        result = [
            s.truncate(min(s.order, k_top - p)) for p, s in enumerate(result)
        ]
    return result


_small_fractions = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.data())
def test_compose_matches_the_horner_reference(gaussian, data):
    domain = Domain.GAUSSIAN if gaussian else Domain.RATIONAL
    order = data.draw(st.integers(min_value=4, max_value=16))
    order_t = data.draw(st.integers(min_value=1, max_value=order // 2))
    degree = data.draw(st.integers(min_value=1, max_value=4))
    scalar = st.builds(GaussianRational, _small_fractions, _small_fractions) if gaussian \
        else _small_fractions
    ordinary = data.draw(st.lists(scalar, min_size=degree + 1, max_size=degree + 1))
    field = HurwitzSeries.from_polynomial(ordinary, order, domain)
    seq = autonomous_sequence(field, order_t)
    inner = list(seq.terms)
    p = data.draw(st.integers(min_value=0, max_value=order_t))
    index = data.draw(st.integers(min_value=0, max_value=inner[p].order))
    coeffs = list(inner[p].coeffs)
    coeffs[index] += 1
    inner[p] = HurwitzSeries(coeffs, domain)
    shared = flow_module._FlowPowers(inner, order_t, order)  # as semigroup_check uses it
    cases = [(seq.terms[q], cap) for q in range(order_t + 1) for cap in range(order_t - q + 1)]
    cases.append((field, order_t - 1))
    for outer, cap in cases:
        want = _reference_compose(outer, inner, cap)
        for got in (flow_module._compose(outer, inner, cap), shared.compose(outer, cap)):
            assert [s.coeffs for s in got] == [s.coeffs for s in want]
            assert [s.order for s in got] == [s.order for s in want]
            assert [type(c) for s in got for c in s.coeffs] == \
                [type(c) for s in want for c in s.coeffs]


def _schoolbook_mul_truncating(a, b):
    """The product of a and b cut to the shorter order, one scalar operation at a time."""
    n = min(a.order, b.order) + 1
    x, y, zero = a.coeffs[:n], b.coeffs[:n], a.domain.zero()
    return HurwitzSeries(
        [sum((math.comb(m, k) * x[k] * y[m - k] for k in range(m + 1)), zero) for m in range(n)],
        a.domain,
    )


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.data())
def test_compose_on_zero_tails_matches_the_schoolbook_horner_reference(gaussian, data):
    # rows and outer series end in zero tails of drawn lengths, re and im apart
    domain = Domain.GAUSSIAN if gaussian else Domain.RATIONAL
    order = data.draw(st.integers(min_value=2, max_value=10))
    order_t = data.draw(st.integers(min_value=1, max_value=order // 2))

    def part(size):
        support = data.draw(st.integers(min_value=0, max_value=size))
        head = data.draw(st.lists(_small_fractions, min_size=support, max_size=support))
        return head + [0] * (size - support)

    def series(size):
        values = part(size)
        if gaussian:
            values = [GaussianRational(r, i) for r, i in zip(values, part(size))]
        return HurwitzSeries(values, domain)

    inner = [series(order - p + 1) for p in range(order_t + 1)]
    q = data.draw(st.integers(min_value=0, max_value=order_t))
    cap = data.draw(st.integers(min_value=0, max_value=order_t - q))
    outer = series(order - q + 1)
    want = _reference_compose(outer, inner, cap, _schoolbook_mul_truncating)
    got = flow_module._compose(outer, inner, cap)
    assert [s.coeffs for s in got] == [s.coeffs for s in want]
    assert [s.order for s in got] == [s.order for s in want]


def test_composition_coefficients_have_honest_orders():
    from flowring.flow import _compose

    f = series_from_text("1+x^2", 12)
    seq = autonomous_sequence(f, 4)
    comp = _compose(seq.terms[2], list(seq.terms), 2)
    top = seq.terms[2].order
    assert [s.order for s in comp] == [top, top - 1, top - 2]
    shared = flow_module._FlowPowers(seq.terms, 4, f.order).compose(seq.terms[2], 2)
    assert [s.order for s in shared] == [top, top - 1, top - 2]


def test_closed_form_anchor_values():
    power = ClosedFormFlow(FlowKind.POWER, (1, 2))
    assert abs(closed_form_eval(power, 0.5, 0.1) - 0.1 / 0.95) < 1e-15
    expfield = ClosedFormFlow(FlowKind.EXPFIELD, (1,))
    assert abs(closed_form_eval(expfield, 0.5, 0.0) - math.log(2.0)) < 1e-15
    quad = ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    assert abs(closed_form_eval(quad, 0.3, 0.0) - math.tan(0.3)) < 1e-15
    affine = ClosedFormFlow(FlowKind.AFFINE, (Fraction(1, 2),))
    assert closed_form_eval(affine, 0.4, 1.0) == 1.2
    exponential = ClosedFormFlow(FlowKind.EXPONENTIAL, (-1, 1))
    assert abs(closed_form_eval(exponential, 0.7, 0.2) - ((0.2 - 1) * math.exp(-0.7) + 1)) < 1e-15


def test_closed_form_tan_matches_mobius_form():
    # the flow of x^2+1 through x0 is (x0 + tan t) / (1 - x0 tan t)
    quad = ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    for t0, x0 in ((0.2, 0.1), (-0.25, 0.15), (0.3, -0.2)):
        expected = (x0 + math.tan(t0)) / (1.0 - x0 * math.tan(t0))
        assert abs(closed_form_eval(quad, t0, x0) - expected) < 1e-14


def test_closed_form_domain_errors():
    power = ClosedFormFlow(FlowKind.POWER, (1, 2))
    with pytest.raises(ClosedFormDomainError):
        closed_form_eval(power, 3.0, 1.0)
    expfield = ClosedFormFlow(FlowKind.EXPFIELD, (1,))
    with pytest.raises(ClosedFormDomainError):
        closed_form_eval(expfield, 2.0, 0.0)
    quad = ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    with pytest.raises(ClosedFormDomainError):
        closed_form_eval(quad, 2.0, 0.0)


def test_closed_form_validation():
    with pytest.raises(OutOfRangeError):
        ClosedFormFlow(FlowKind.POWER, (1, 1))
    with pytest.raises(OutOfRangeError):
        ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (2, 1))  # 4c - b^2 = 0
    with pytest.raises(OutOfRangeError):
        ClosedFormFlow(FlowKind.EXPFIELD, (0,))
    with pytest.raises(OutOfRangeError):
        ClosedFormFlow(FlowKind.AFFINE, (1, 2))


def test_match_closed_form():
    assert match_closed_form(parse("2")).kind is FlowKind.AFFINE
    m = match_closed_form(parse("3x"))
    assert m == ClosedFormFlow(FlowKind.EXPONENTIAL, (3, 0))
    m = match_closed_form(parse("1-x"))
    assert m == ClosedFormFlow(FlowKind.EXPONENTIAL, (-1, 1))
    m = match_closed_form(parse("x^2"))
    assert m == ClosedFormFlow(FlowKind.POWER, (1, 2))
    m = match_closed_form(parse("-2x^3"))
    assert m == ClosedFormFlow(FlowKind.POWER, (-2, 3))
    m = match_closed_form(parse("x^2+1"))
    assert m == ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    m = match_closed_form(parse("x^2-x+1"))
    assert m == ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (1, 1))
    assert match_closed_form(parse("exp(2x)")) == ClosedFormFlow(FlowKind.EXPFIELD, (2,))
    assert match_closed_form(parse("sin(x)")) is None
    assert match_closed_form(parse("2x^2+1")) is None
    assert match_closed_form(parse("x^2-3x+1")) is None  # real roots
    assert match_closed_form(parse("exp(i*x)")) is None
    assert match_closed_form(parse("0")) == ClosedFormFlow(FlowKind.AFFINE, (0,))
    assert match_closed_form(parse("x-x")) == ClosedFormFlow(FlowKind.AFFINE, (0,))
    m = match_closed_form(parse("x^3-x^3+2x-1"))
    assert m == ClosedFormFlow(FlowKind.EXPONENTIAL, (2, Fraction(1, 2)))
    m = match_closed_form(parse("(x+1)^2-2x"))
    assert m == ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    m = match_closed_form(parse("x^2+1+i*x^5-i*x^5"))
    assert m == ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    m = match_closed_form(parse("3/2*x^3000000"))
    assert m == ClosedFormFlow(FlowKind.POWER, (Fraction(3, 2), 3000000))
    assert match_closed_form(parse("x^3000000+x")) is None
    assert match_closed_form(parse("x^2+i*x+1")) is None


def test_series_agrees_with_closed_form_at_a_point():
    flow = flow_series(series_from_text("x^2", 41), 16)
    value = flow.eval_at(0.5, 0.1)
    assert abs(value - 0.1 / 0.95) < 1e-12


def test_classify_point_examples():
    square = series_from_text("x^2", 8)
    point = classify_point(square, 0)
    assert point.kind is PointKind.EQUILIBRIUM and point.exact
    affine = series_from_text("1-x", 8)
    assert classify_point(affine, 1).kind is PointKind.EQUILIBRIUM
    assert classify_point(affine, Fraction(1, 2)).kind is PointKind.REGULAR
    assert classify_point(series_from_text("x^2-1", 8), -1).kind is PointKind.EQUILIBRIUM
    assert classify_point(series_from_text("x^2-1", 8), 2).kind is PointKind.REGULAR
    quad = parse("1+x^2")
    for x0 in (Fraction(-3), Fraction(0), Fraction(7, 2)):
        assert classify_point(quad, x0).kind is PointKind.REGULAR
    numeric = classify_point(parse("exp(x)"), 0.0)
    assert numeric.kind is PointKind.REGULAR and not numeric.exact
    numeric_zero = classify_point(parse("sin(x)"), 0.0)
    assert numeric_zero.kind is PointKind.EQUILIBRIUM and not numeric_zero.exact
    monomial = classify_point(parse("x^300000-x^299999"), 1)
    assert monomial == flow_module.OrbitPoint(1, PointKind.EQUILIBRIUM, True)
    assert classify_point(parse("x^300000-x^299999"), Fraction(1, 2)).kind is PointKind.REGULAR


def test_classify_point_gaussian_coefficient_and_point():
    i = GaussianRational(0, 1)
    assert classify_point(parse("x^2-2*i*x-1"), i).kind is PointKind.EQUILIBRIUM
    assert classify_point(parse("1+i*x"), i).kind is PointKind.EQUILIBRIUM
    point = classify_point(parse("1+i*x"), GaussianRational(1, 1))
    assert point == flow_module.OrbitPoint(GaussianRational(1, 1), PointKind.REGULAR, True)
    assert classify_point(parse("x^2+1"), -i).kind is PointKind.EQUILIBRIUM


def test_equilibrium_orbit_is_constant():
    f = series_from_text("1-x", 8)
    flow = flow_series(f, 5)
    for term in flow.terms[1:]:
        assert classify_point(term, 1) == flow_module.OrbitPoint(1, PointKind.EQUILIBRIUM, True)


def test_decompose_flow_examples():
    parts = [series_from_text(t, 10) for t in ("1", "-x", "x^2", "-x^3")]
    result = decompose_flow(parts, "sum", 5)
    assert result.matches_direct
    assert result.combined == flow_series(series_from_text("1-x+x^2-x^3", 10), 5)
    assert len(result.components) == 4

    prod = decompose_flow(
        [series_from_text("1-x", 10), series_from_text("x^2+1", 10)], "product", 5
    )
    assert prod.matches_direct
    assert prod.combined == result.combined

    single = decompose_flow([parts[2]], "sum", 5)
    assert single.combined == flow_series(parts[2], 5)

    with pytest.raises(OutOfRangeError):
        decompose_flow([], "sum", 5)
    with pytest.raises(OutOfRangeError):
        decompose_flow(parts, "divide", 5)


def test_flow_json_round_trip(cli_json):
    f = series_from_text("exp(i*x)", 8, Domain.GAUSSIAN)
    flow = flow_series(f, 4)
    assert flow == autonomous_sequence(f, 4)
    payload = cli_json("flow", "--field", "exp(i*x)", "--domain", "gaussian",
                       "--order-x", "8", "--order-t", "4", "--format", "json")
    assert payload["orderT"] == 4
    for printed, series in zip([payload["field"], *payload["tcoeffs"]], [f, *flow.terms],
                               strict=True):
        assert printed["domain"] == "gaussian" and printed["orderX"] == series.order
        assert [parse_scalar(c, Domain.GAUSSIAN) for c in printed["coeffs"]] == list(series.coeffs)
    assert payload["tcoeffs"][0]["coeffs"][1] == "1"


def test_closed_form_json_round_trip(cli_json):
    cf = ClosedFormFlow(FlowKind.POWER, (Fraction(-3, 2), 4))
    payload = cli_json("eval", "--field=-3/2*x^4", "--x=0.1", "--t=0.5", "--format=json")
    assert payload["closed_form_kind"]["kind"] == "power"
    assert tuple(parse_scalar(p) for p in payload["closed_form_kind"]["params"]) == cf.params
