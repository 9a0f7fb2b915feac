"""Independent numeric ground truth for the exact series machinery.

Everything here evaluates expression trees pointwise in doubles and
integrates with classical fixed-step RK4.  No series arithmetic is used,
so agreement with the exact core is evidence, not circularity.

``eval_field`` builds the field once as a float function, one closure per
node (Feeley and Lapalme, "Using closures for code generation", Computer
Languages 12(1), 1987): the type dispatch, the conversion of every
constant and exp/sin/cos scale to a double, and the check that Gaussian
constants are real happen when the function is built, and each call only
does the IEEE operations of the tree, in the tree's order.  ``rk4_solve``
builds the function once per solve and calls it at every stage.
"""

from __future__ import annotations

import math

from . import expr as _expr
from .errors import DomainMismatchError, NumericBlowupError, OutOfRangeError
from .scalars import GaussianRational

_BINARY = {
    "+": lambda left, right: lambda y: left(y) + right(y),
    "-": lambda left, right: lambda y: left(y) - right(y),
    "*": lambda left, right: lambda y: left(y) * right(y),
}
_ELEMENTARY = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def _double(value):
    """A constant or scale of a real field as a double."""
    if isinstance(value, GaussianRational):
        if value.im != 0:
            raise DomainMismatchError("numeric evaluation needs a real field")
        value = value.re
    try:
        return float(value)
    except OverflowError:
        raise NumericBlowupError("a constant of the field does not fit a double") from None


def eval_field(node):
    """The field as a double-precision function y -> field(y).

    Raises DomainMismatchError for a Gaussian constant with a nonzero
    imaginary part and NumericBlowupError for a constant or scale beyond
    the double range, both while the function is built.  A power or
    exponential that overflows a double evaluates to inf; sin or cos of
    an infinite argument raises NumericBlowupError when it is called.
    """
    kind = type(node)
    if kind is _expr.Var:
        return float  # y -> float(y)
    if kind is _expr.Const:
        value = _double(node.value)
        return lambda y: value
    if kind is _expr.BinOp:
        return _BINARY[node.op](eval_field(node.left), eval_field(node.right))
    if kind is _expr.Neg:
        child = eval_field(node.child)
        return lambda y: -child(y)
    if kind is _expr.Pow:
        base, exponent = eval_field(node.base), node.exponent

        def power(y):
            try:
                return base(y) ** exponent
            except OverflowError:
                return math.inf

        return power
    if kind is _expr.Func:
        fn, scale = _ELEMENTARY[node.name], _double(node.scale)

        def elementary(y):
            arg = scale * y
            try:
                return fn(arg)
            except OverflowError:
                return math.inf
            except ValueError:  # sin or cos of an infinite argument
                raise NumericBlowupError(f"{fn.__name__}({arg!r}) has no value") from None

        return elementary
    raise TypeError(f"not a field expression: {node!r}")


def rk4_solve(field, x0, t1, steps=256):
    """Classical 4th order Runge-Kutta for y' = field(y), y(0) = x0.

    Returns the tuple of states y_0 .. y_steps at the times k * t1 / steps,
    so the value at t1 is the last.  Rejects runs that leave the finite
    floats; callers should shorten t1 instead of expecting adaptive rescue.
    """
    if steps < 16:
        raise OutOfRangeError("rk4 needs at least 16 steps")
    f = eval_field(field)
    h = t1 / steps
    y = float(x0)
    ys = [y]
    for n in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise NumericBlowupError(f"trajectory left the finite range at step {n + 1}")
        ys.append(y)
    return tuple(ys)


def fd_flow_derivative_check(closed_form, field, t0, x0, h=1e-4):
    """Central-difference residual |dPhi/dt - field(Phi)| at (t0, x0).

    Phi is a ClosedFormFlow; the field is an expression tree evaluated
    pointwise.
    """
    if not 1e-6 <= h <= 1e-3:
        raise OutOfRangeError("finite-difference step must lie in [1e-6, 1e-3]")
    from .flow import closed_form_eval

    def phi(t):
        return closed_form_eval(closed_form, t, x0)

    slope = (phi(t0 + h) - phi(t0 - h)) / (2.0 * h)
    return abs(slope - eval_field(field)(phi(t0)))
