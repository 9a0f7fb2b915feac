"""Independent numeric ground truth for the exact series machinery.

Everything here evaluates expression trees pointwise in doubles and
integrates with classical fixed-step RK4.  No series arithmetic is used,
so agreement with the exact core is evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr as _expr
from .errors import DomainMismatchError, NumericBlowupError, OutOfRangeError
from .scalars import GaussianRational


def eval_field(node, y):
    """Double-precision value of an expression at the point y."""
    if isinstance(node, _expr.Const):
        v = node.value
        if isinstance(v, GaussianRational):
            if v.im != 0:
                raise DomainMismatchError("numeric evaluation needs a real field")
            v = v.re
        return float(v)
    if isinstance(node, _expr.Var):
        return float(y)
    if isinstance(node, _expr.Add):
        return eval_field(node.left, y) + eval_field(node.right, y)
    if isinstance(node, _expr.Sub):
        return eval_field(node.left, y) - eval_field(node.right, y)
    if isinstance(node, _expr.Mul):
        return eval_field(node.left, y) * eval_field(node.right, y)
    if isinstance(node, _expr.Neg):
        return -eval_field(node.child, y)
    if isinstance(node, _expr.Pow):
        try:
            return eval_field(node.base, y) ** node.exponent
        except OverflowError:
            return math.inf
    if isinstance(node, (_expr.Exp, _expr.Sin, _expr.Cos)):
        scale = node.scale
        if isinstance(scale, GaussianRational):
            if scale.im != 0:
                raise DomainMismatchError("numeric evaluation needs a real field")
            scale = scale.re
        arg = float(scale) * y
        fn = {_expr.Exp: math.exp, _expr.Sin: math.sin, _expr.Cos: math.cos}[type(node)]
        try:
            return fn(arg)
        except OverflowError:
            return math.inf
    raise TypeError(f"not a field expression: {node!r}")


@dataclass(frozen=True)
class NumericTrajectory:
    ts: tuple
    ys: tuple
    step: float

    @property
    def final(self):
        return self.ys[-1]


def rk4_solve(field, x0, t1, steps=256):
    """Classical 4th order Runge-Kutta for y' = field(y), y(0) = x0.

    Rejects runs that leave the finite floats; callers should shorten t1
    instead of expecting adaptive rescue.
    """
    if steps < 16:
        raise OutOfRangeError("rk4 needs at least 16 steps")
    h = t1 / steps
    ts = [0.0]
    ys = [float(x0)]
    y = float(x0)
    for n in range(steps):
        k1 = eval_field(field, y)
        k2 = eval_field(field, y + 0.5 * h * k1)
        k3 = eval_field(field, y + 0.5 * h * k2)
        k4 = eval_field(field, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise NumericBlowupError(f"trajectory left the finite range at step {n + 1}")
        ts.append((n + 1) * h)
        ys.append(y)
    return NumericTrajectory(tuple(ts), tuple(ys), h)


def fd_flow_derivative_check(flow_like, field, t0, x0, h=1e-4):
    """Central-difference residual |dPhi/dt - field(Phi)| at (t0, x0).

    flow_like is either an AutonomousSequence (a flow) or a
    ClosedFormFlow; the field is an expression tree evaluated pointwise.
    """
    if not 1e-6 <= h <= 1e-3:
        raise OutOfRangeError("finite-difference step must lie in [1e-6, 1e-3]")

    def phi(t):
        if hasattr(flow_like, "eval_at"):
            value = flow_like.eval_at(t, x0)
            return value.real if isinstance(value, complex) else value
        from .flow import closed_form_eval

        return closed_form_eval(flow_like, t, x0)

    slope = (phi(t0 + h) - phi(t0 - h)) / (2.0 * h)
    return abs(slope - eval_field(field, phi(t0)))
