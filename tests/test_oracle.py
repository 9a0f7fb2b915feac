import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowring import expr
from flowring.errors import DomainMismatchError, NumericBlowupError, OutOfRangeError
from flowring.expr import parse
from flowring.flow import ClosedFormFlow, FlowKind
from flowring.oracle import eval_field, fd_flow_derivative_check, rk4_solve
from flowring.scalars import GaussianRational


def test_eval_field_pointwise():
    assert eval_field(parse("x^2+1"))(2.0) == 5.0
    assert eval_field(parse("exp(2x)"))(0.5) == pytest.approx(math.e)
    assert eval_field(parse("sin(x)+cos(x)"))(0.0) == 1.0
    assert eval_field(parse("-x"))(3.0) == -3.0
    with pytest.raises(DomainMismatchError):
        eval_field(parse("i*x"))(1.0)


def test_rk4_exponential():
    ys = rk4_solve(parse("x"), 1.0, 0.5, 256)
    assert abs(ys[-1] - math.exp(0.5)) < 1e-9
    assert len(ys) == 257 and ys[0] == 1.0


def test_rk4_constant_field_is_exact():
    assert abs(rk4_solve(parse("1"), 0.3, 0.7, 256)[-1] - 1.0) < 1e-13


def test_rk4_square_field():
    assert abs(rk4_solve(parse("x^2"), 0.1, 0.5, 512)[-1] - 0.1 / 0.95) < 1e-10


def test_rk4_convergence_ratio():
    exact = math.exp(0.5)
    err32 = abs(rk4_solve(parse("x"), 1.0, 0.5, 32)[-1] - exact)
    err64 = abs(rk4_solve(parse("x"), 1.0, 0.5, 64)[-1] - exact)
    assert 12.0 <= err32 / err64 <= 20.0


def test_rk4_blowup_detection():
    with pytest.raises(NumericBlowupError):
        rk4_solve(parse("x^2"), 3.0, 2.0, 64)


def test_rk4_step_floor():
    with pytest.raises(OutOfRangeError):
        rk4_solve(parse("x"), 1.0, 0.5, 8)


def test_fd_residual_for_closed_forms():
    quad = ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1))
    assert fd_flow_derivative_check(quad, parse("1+x^2"), 0.2, 0.1, 1e-4) < 1e-7
    expfield = ClosedFormFlow(FlowKind.EXPFIELD, (1,))
    assert fd_flow_derivative_check(expfield, parse("exp(x)"), 0.1, 0.05, 1e-4) < 1e-8
    linear = ClosedFormFlow(FlowKind.EXPONENTIAL, (1, 0))
    assert fd_flow_derivative_check(linear, parse("x"), 0.2, 0.1, 1e-4) < 1e-8
    constant = ClosedFormFlow(FlowKind.AFFINE, (1,))
    assert fd_flow_derivative_check(constant, parse("1"), 0.3, 0.4, 1e-4) < 1e-11


def test_fd_step_bounds():
    linear = ClosedFormFlow(FlowKind.EXPONENTIAL, (1, 0))
    with pytest.raises(OutOfRangeError):
        fd_flow_derivative_check(linear, parse("x"), 0.1, 0.1, 1e-2)
    with pytest.raises(OutOfRangeError):
        fd_flow_derivative_check(linear, parse("x"), 0.1, 0.1, 1e-7)


# -- the float function against a tree walk --------------------------------


def _reference_eval_field(node, y):
    """Tree-walking evaluation: the whole dispatch runs at every point."""
    if isinstance(node, expr.Const):
        v = node.value
        if isinstance(v, GaussianRational):
            if v.im != 0:
                raise DomainMismatchError("numeric evaluation needs a real field")
            v = v.re
        return float(v)
    if isinstance(node, expr.Var):
        return float(y)
    if isinstance(node, expr.BinOp):
        op = {"+": operator.add, "-": operator.sub, "*": operator.mul}[node.op]
        return op(_reference_eval_field(node.left, y), _reference_eval_field(node.right, y))
    if isinstance(node, expr.Neg):
        return -_reference_eval_field(node.child, y)
    if isinstance(node, expr.Pow):
        try:
            return _reference_eval_field(node.base, y) ** node.exponent
        except OverflowError:
            return math.inf
    scale = node.scale
    if isinstance(scale, GaussianRational):
        if scale.im != 0:
            raise DomainMismatchError("numeric evaluation needs a real field")
        scale = scale.re
    arg = float(scale) * y
    fn = {"exp": math.exp, "sin": math.sin, "cos": math.cos}[node.name]
    try:
        return fn(arg)
    except OverflowError:
        return math.inf
    except ValueError:
        raise NumericBlowupError(f"{fn.__name__}({arg!r}) has no value") from None


def _reference_rk4(node, x0, t1, steps):
    """The RK4 stages of rk4_solve over the tree walk, as a list of states."""
    h = t1 / steps
    y = float(x0)
    ys = [y]
    for _ in range(steps):
        k1 = _reference_eval_field(node, y)
        k2 = _reference_eval_field(node, y + 0.5 * h * k1)
        k3 = _reference_eval_field(node, y + 0.5 * h * k2)
        k4 = _reference_eval_field(node, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return ys


def _outcome(compute):
    """Bit pattern of a float result (so -0.0, inf and nan compare exactly), or the error type."""
    try:
        return float.hex(compute())
    except (DomainMismatchError, NumericBlowupError, ValueError) as exc:
        return type(exc)


_fractions = st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**6))
_scales = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 100))


def _gaussian(parts):
    """Gaussian rationals with a zero imaginary part, and with any."""
    return st.builds(GaussianRational, parts, st.just(Fraction(0)) | parts)


_elementary = [st.builds(expr.Func, st.just(name), _scales | _gaussian(_scales))
               for name in ("exp", "sin", "cos")]
_fields = st.recursive(
    st.one_of([st.just(expr.Var()), st.builds(expr.Const, _fractions | _gaussian(_fractions))]
              + _elementary),
    lambda children: st.one_of([st.builds(expr.BinOp, st.just(op), children, children)
                                for op in ("+", "-", "*")])
    | st.builds(expr.Neg, children)
    | st.builds(expr.Pow, children, st.integers(0, 60)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_fields, st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))
def test_eval_field_matches_the_tree_walk_bit_for_bit(node, points):
    for y in points:
        expected = _outcome(lambda: _reference_eval_field(node, y))
        assert _outcome(lambda: eval_field(node)(y)) == expected


@pytest.mark.parametrize("text, x0, t1", [
    ("3/2*x^5-1/2*x^2+x-1/3", 0.15, 0.12),
    ("exp(-1/2*x)+sin(3/2*x)", -0.2, 0.1),
    ("-5/4*x^47", 0.18, 0.05),
    ("x^2+3/2*x+9/4", 0.1, 0.08),
    ("-7/2", 0.05, 0.1),
])
def test_rk4_solve_matches_the_tree_walk_bit_for_bit(text, x0, t1):
    ys = rk4_solve(parse(text), x0, t1, 512)
    assert [y.hex() for y in ys] == [y.hex() for y in _reference_rk4(parse(text), x0, t1, 512)]


def test_a_complex_constant_is_rejected_when_the_function_is_built():
    with pytest.raises(DomainMismatchError):
        eval_field(parse("sin(x)+1/2*i"))
    with pytest.raises(DomainMismatchError):
        rk4_solve(parse("x+1/2*i"), 0.1, 0.1, 64)


@pytest.mark.parametrize("text", ["sin(10^308*x)", "x+cos(10^308*x)", "x-sin(-10^308*x)"])
def test_sin_and_cos_of_an_infinite_argument_are_a_blowup(text):
    node = parse(text)
    assert _outcome(lambda: _reference_eval_field(node, 10.0)) is NumericBlowupError
    with pytest.raises(NumericBlowupError):
        eval_field(node)(10.0)
    with pytest.raises(NumericBlowupError):
        rk4_solve(node, 10.0, 0.01, 64)
