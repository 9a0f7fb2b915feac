import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from flowring import expr
from flowring.errors import DomainRequiredError, ParseError, UnsupportedArgumentError
from flowring.expr import (
    MAX_DEPTH,
    BinOp,
    Const,
    Func,
    Neg,
    Pow,
    Var,
    elaborate,
    format_expr,
    parse,
    polynomial_coefficients,
    series_from_text,
)
from flowring.hurwitz import HurwitzSeries
from flowring.oracle import eval_field, rk4_solve
from flowring.scalars import Domain, GaussianRational
from flowring.verify import PARSER_CORPUS, random_series


def test_parse_examples():
    assert parse("x^2 + 1") == BinOp("+", Pow(Var(), 2), Const(Fraction(1)))
    assert parse("(1-x)*(x^2+1)") == BinOp(
        "*", BinOp("-", Const(Fraction(1)), Var()), BinOp("+", Pow(Var(), 2), Const(Fraction(1)))
    )
    assert parse("exp(x) + sin(x)") == BinOp(
        "+", Func("exp", Fraction(1)), Func("sin", Fraction(1))
    )


def test_parse_precedence_and_adjacency():
    assert parse("2x") == BinOp("*", Const(Fraction(2)), Var())
    assert parse("2*x^3") == BinOp("*", Const(Fraction(2)), Pow(Var(), 3))
    assert parse("-x^2") == Neg(Pow(Var(), 2))
    assert parse("1-x*x") == BinOp("-", Const(Fraction(1)), BinOp("*", Var(), Var()))
    assert parse("ix") == BinOp("*", Const(GaussianRational(0, 1)), Var())
    assert parse("(x)(x)") == BinOp("*", Var(), Var())


def test_parse_function_scales():
    assert parse("exp(2x)") == Func("exp", Fraction(2))
    assert parse("exp(-x)") == Func("exp", Fraction(-1))
    assert parse("exp(i*x)") == Func("exp", GaussianRational(0, 1))
    assert parse("sin(2x)") == Func("sin", Fraction(2))
    assert parse("cos(-1/2x)") == Func("cos", Fraction(-1, 2))
    assert parse("exp(0x)") == Func("exp", Fraction(0))
    for text in ("exp(i*x*0+x)", "exp((i-i)*x+x)", "sin(i*x-i*x+x)"):
        scale = parse(text).scale  # a cancelled i leaves a rational scale
        assert scale == 1 and isinstance(scale, Fraction)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("x^^2", 2),
        ("x +", 3),
        ("(x", 2),
        ("x)", 1),
        ("x^-1", 2),
        ("1/0", 0),
        ("x $ 1", 2),
        ("spam", 0),
        ("exp x", 4),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text, hint", [
    ("x^2/3", "write 1/3*x^2 to divide"),
    ("(x+1)^3/2", "write 1/2*(x+1)^3 to divide"),
    ("x^6/4", "write 1/4*x^6 to divide"),
    ("x^4/2", "write 1/2*x^4 to divide"),
    ("x^0/3", "write 1/3*x^0 to divide"),
])
def test_fractional_exponent_error_says_how_to_divide(text, hint):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert f"exponent must be a non-negative integer ({hint})" in str(exc.value)


@pytest.mark.parametrize("text, token", [("exp 2", "2"), ("x 3/4 )", "')'"), ("sin 7/2", "7/2")])
def test_parse_errors_name_a_number_by_its_lexeme(text, token):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value).startswith(f"unexpected token {token} at offset")


def test_parse_error_expected_sets():
    with pytest.raises(ParseError) as exc:
        parse("x + *")
    assert "number" in exc.value.expected


@pytest.mark.parametrize("text", ["exp(x^2)", "sin(x+1)", "exp(exp(x))", "cos(x*x)"])
def test_nonlinear_function_arguments_rejected(text):
    with pytest.raises(UnsupportedArgumentError):
        parse(text)


def test_round_trip_corpus():
    assert len(PARSER_CORPUS) >= 50
    for text in PARSER_CORPUS:
        tree = parse(text)
        assert parse(format_expr(tree)) == tree


_scales = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)
_leaves = st.one_of(
    st.builds(
        Const,
        st.fractions(min_value=Fraction(0), max_value=Fraction(9), max_denominator=9),
    ),
    st.just(Var()),
    st.just(Const(GaussianRational(0, 1))),
    st.builds(Func, st.just("exp"), _scales),
    st.builds(Func, st.just("sin"), _scales),
    st.builds(Func, st.just("cos"), _scales),
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(BinOp, st.just("+"), inner, inner),
        st.builds(BinOp, st.just("-"), inner, inner),
        st.builds(BinOp, st.just("*"), inner, inner),
        st.builds(Neg, inner),
        st.builds(Pow, inner, st.integers(min_value=0, max_value=3)),
    ),
    max_leaves=12,
)


@given(_trees)
def test_round_trip_generated_trees(tree):
    # parser-producible shapes: printing then parsing is structurally lossless
    assert parse(format_expr(tree)) == tree


def _nested(depth):
    """One input of the given depth for each way of nesting."""
    return {
        "parentheses": "(" * (depth - 1) + "x" + ")" * (depth - 1),
        "product": "*".join(["x"] * depth),
        "sum": "+".join(["x"] * depth),
        "minus-signs": "-" * (depth - 1) + "x",
        "function": "(" * (depth - 2) + "exp(x)" + ")" * (depth - 2),
        "power": "(" * (depth - 2) + "x^2" + ")" * (depth - 2),
    }


@pytest.mark.parametrize("name", sorted(_nested(MAX_DEPTH)))
def test_input_at_the_depth_bound_passes_every_walk(name):
    node = parse(_nested(MAX_DEPTH)[name])
    assert parse(format_expr(node)) == node
    assert (polynomial_coefficients(node) is None) == (name == "function")
    for domain in Domain:
        elaborate(node, 4, domain)
    assert math.isfinite(eval_field(node)(0.1))
    assert math.isfinite(rk4_solve(node, 0.1, 0.1, 16)[-1])


_PAST_THE_BOUND = {
    **_nested(MAX_DEPTH + 1),
    "parentheses-198": "(" * 198 + "x" + ")" * 198,
    "product-991": "*".join(["x"] * 991),
    "parentheses-10000": "(" * 10**4 + "x" + ")" * 10**4,
    "minus-signs-10000": "-" * 10**4 + "x",
    "functions-10000": "exp(" * 10**4 + "x" + ")" * 10**4,
    "product-10000": "*".join(["x"] * 10**4),
}


@pytest.mark.parametrize("name", sorted(_PAST_THE_BOUND))
def test_input_past_the_depth_bound_is_a_parse_error(name):
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
        parse(_PAST_THE_BOUND[name])


def test_elaborate_anchors():
    assert series_from_text("x^2+1", 4) == HurwitzSeries.make([1, 0, 2, 0, 0])
    assert series_from_text("exp(2x)", 4) == HurwitzSeries.make([1, 2, 4, 8, 16])
    assert series_from_text("sin(x)", 5) == HurwitzSeries.make([0, 1, 0, -1, 0, 1])
    assert series_from_text("cos(x)", 4) == HurwitzSeries.make([1, 0, -1, 0, 1])


_SIGN_PATTERNS = {"exp": (1, 1, 1, 1), "sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0)}
_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(_SIGN_PATTERNS)),
    _rationals | st.builds(GaussianRational, _rationals, _rationals),
    st.booleans(),
    st.integers(1, 64),
)
def test_function_series_is_the_signed_power_sequence(name, a, gaussian, order):
    # coefficient k of exp, sin or cos(a x) is signs[k % 4] * a**k, computed here from scalars
    domain = Domain.GAUSSIAN if gaussian or isinstance(a, GaussianRational) else Domain.RATIONAL
    signs = _SIGN_PATTERNS[name]
    series = elaborate(Func(name, a), order, domain)
    assert series.domain is domain
    assert series.coeffs == tuple(signs[k % 4] * a**k for k in range(order + 1))


def test_elaborate_euler_identity():
    euler = series_from_text("-1/2*i*exp(i*x) + 1/2*i*exp(-i*x)", 9, Domain.GAUSSIAN)
    assert euler == series_from_text("sin(x)", 9, Domain.GAUSSIAN)


def test_elaborate_requires_gaussian_for_i():
    with pytest.raises(DomainRequiredError):
        series_from_text("i*x", 4)
    with pytest.raises(DomainRequiredError):
        series_from_text("exp(i*x)", 4)
    for text in ("exp((1+i-i)*x)", "sin(i*i*x)"):
        with pytest.raises(DomainRequiredError):
            series_from_text(text, 4)
    assert series_from_text("i*x", 4, Domain.GAUSSIAN).coeffs[1] == GaussianRational(0, 1)


def test_elaborate_is_a_homomorphism():
    rng = random.Random(23)
    for _ in range(10):
        a = random_series(rng, 8)
        b = random_series(rng, 8)
        expr_a = _series_to_expr(a)
        expr_b = _series_to_expr(b)
        assert elaborate(BinOp("+", expr_a, expr_b), 8) == a + b
        assert elaborate(BinOp("-", expr_a, expr_b), 8) == a - b
        assert elaborate(BinOp("*", expr_a, expr_b), 8) == a * b
        assert elaborate(Neg(expr_a), 8) == -a


def _series_to_expr(series):
    # polynomial expression with the same elaboration, built from the
    # ordinary coefficients
    node = None
    for k, c in enumerate(series.to_polynomial()):
        term = BinOp("*", Const(c), Pow(Var(), k))
        node = term if node is None else BinOp("+", node, term)
    return node


def test_polynomial_coefficients():
    alternating = {0: Fraction(1), 1: Fraction(-1), 2: Fraction(1), 3: Fraction(-1)}
    assert polynomial_coefficients(parse("1-x+x^2-x^3")) == alternating
    assert polynomial_coefficients(parse("(1-x)*(x^2+1)")) == alternating
    assert polynomial_coefficients(parse("sin(x)")) is None
    assert polynomial_coefficients(parse("0")) == {}
    assert polynomial_coefficients(parse("(x+1)*(x-1)")) == {0: Fraction(-1), 2: Fraction(1)}
    assert polynomial_coefficients(parse("(1+i*x)*(1-i*x)")) == {0: 1, 2: 1}


_poly_trees = st.recursive(
    st.just(Var()) | st.builds(
        Const,
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        | st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)),
    ),
    lambda children: st.builds(BinOp, st.just("+"), children, children)
    | st.builds(BinOp, st.just("-"), children, children)
    | st.builds(BinOp, st.just("*"), children, children)
    | st.builds(Neg, children)
    | st.builds(Pow, children, st.integers(0, 3)),
    max_leaves=8,
)


def _degree_bound(node):
    if isinstance(node, Var):
        return 1
    if isinstance(node, Const):
        return 0
    if isinstance(node, Neg):
        return _degree_bound(node.child)
    if isinstance(node, Pow):
        return _degree_bound(node.base) * node.exponent
    left, right = _degree_bound(node.left), _degree_bound(node.right)
    return left + right if node.op == "*" else max(left, right)


@settings(max_examples=150, deadline=None)
@given(_poly_trees)
def test_polynomial_coefficients_match_the_elaborated_series(node):
    order = _degree_bound(node) + 1
    assume(order <= 40)
    coeffs = polynomial_coefficients(node)
    assert all(coeffs.values())
    series = elaborate(node, order, Domain.GAUSSIAN)
    assert coeffs == {k: c for k, c in enumerate(series.to_polynomial()) if c}


def test_pow_zero_is_one():
    assert series_from_text("x^0", 3) == HurwitzSeries.make([1, 0, 0, 0])


def _counting(fn, bound):
    """``fn`` wrapped to fail as soon as it is called more than ``bound`` times."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        assert len(calls) <= bound, f"more than {bound} calls"
        return fn(*args)

    return wrapper


def test_elaborate_powers_by_repeated_squaring(monkeypatch):
    bound = 2 * math.ceil(math.log2(300000))
    monkeypatch.setattr(HurwitzSeries, "__mul__", _counting(HurwitzSeries.__mul__, bound))
    assert elaborate(parse("x^300000"), 8) == HurwitzSeries.zeros(8)


def test_polynomial_powers_by_repeated_squaring(monkeypatch):
    poly_mul = expr._poly_mul
    bound = 2 * math.ceil(math.log2(3000))
    monkeypatch.setattr(expr, "_poly_mul", _counting(poly_mul, bound))
    assert polynomial_coefficients(parse("x^3000")) == {3000: Fraction(1)}
    bound = 2 * math.ceil(math.log2(300000))
    monkeypatch.setattr(expr, "_poly_mul", _counting(poly_mul, bound))
    assert polynomial_coefficients(parse("x^300000")) == {300000: Fraction(1)}
