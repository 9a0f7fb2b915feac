"""Truncated flow series of y' = f(y), their ring, and closed forms.

A flow is the coefficient sequence of a field read as an exponential
generating series in t: the value at time t is sum A_n(x) t^n/n! with
A_0 = x, so every flow fixes x at t = 0.  Flows are therefore
AutonomousSequence values (FlowSeries is another name for that type).
Flows add and multiply through their generating fields, with units x
(field 0) and x + t (field 1).

The semigroup and derivation checks expand both sides of the respective
identities as truncated bivariate series whose coefficients are x-series.
Substituting a flow-like series Phi into an x-series is one integer-matrix
kernel, ``_FlowPowers``.  Phi's integer numerators are brought once to
the lcm D of its rows' denominators, and its powers Phi^k are formed once
each, over D^k, by a 2-D binomial convolution on ints (the t-binomials
from ``hurwitz.binomial_rows``, the x-convolution by
``hurwitz._convolve_parts``).  A composition outer(Phi) is then the linear
combination of those powers with the ordinary coefficients of outer
(Brent and Kung, JACM 1978), and each row handed back is one series over
one denominator; the semigroup check forms the powers once and reuses
them for every A_q.  A composition coefficient at t-degree p is honest
only to x-order K - p when the outer series is truncated at K (each
degree in t consumes one x-order of the outer series), and the kernel
cuts every row to that bound.  Comparisons go through
HurwitzSeries.agrees_with, over the indices both sides honestly know,
never over fabricated tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate

from .autonomous import (
    AutonomousSequence,
    autonomous_sequence,
    box_dot,
    box_plus,
    scalar_action,
)
from .errors import (
    ClosedFormDomainError,
    OrderExhaustedError,
    OutOfRangeError,
)
from .expr import Func, polynomial_coefficients
from .hurwitz import (
    HurwitzSeries,
    _convolve_parts,
    binomial_rows,
    mul_truncating,  # unused here; perfbench's tracer test wraps flow.mul_truncating
)
from .scalars import GaussianRational, format_scalar


FlowSeries = AutonomousSequence


def flow_series(field, order_t):
    """The flow of a field, to t-order M (needs field order >= M)."""
    return autonomous_sequence(field, order_t)


def flow_boxplus(a, b):
    """Flow of the sum field; unit is the flow of 0, which is x."""
    return box_plus(a, b)


def flow_boxdot(a, b):
    """Flow of the product field; unit is the flow of 1, which is x + t."""
    return box_dot(a, b)


def time_scale(flow, value):
    """Flow of the scaled field: t-coefficient n picks up value**n."""
    return scalar_action(value, flow)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an identity check: a verdict plus the first failing index."""

    passed: bool
    first_failure: object = None
    detail: str = ""

    def __bool__(self):
        return self.passed


class _FlowPowers:
    """Powers Phi^0, Phi^1, ... of a flow-like series, as integer matrices.

    ``inner`` lists the x-series coefficients of t^p/p!.  Their numerators
    are scaled once to the lcm D of their denominators, so Phi^k is an
    integer matrix over D^k: row p is the part vector ([m], or [re, im] in
    the Gaussian domain) of the coefficient of t^p/p!, cut to x-order
    top - p, and rows stop at t-degree cap.  Powers are formed on demand,
    Phi^k = Phi^(k-1) * Phi by the 2-D binomial convolution, and kept for
    every later composition.
    """

    def __init__(self, inner, cap, top):
        self.domain = inner[0].domain
        self.degree = len(inner) - 1
        self.cap = min(cap, top)
        self.top = top
        # an x-coefficient at t-degree p is known to the smallest order of inner[0..p]
        self.bounds = list(accumulate((s.order for s in inner), min))
        rows = inner[: self.cap + 1]
        self.d = math.lcm(*[s.den for s in rows])
        phi = [
            [[m * (self.d // s.den) for m in part[: top - p + 1]] for part in s.parts]
            for p, s in enumerate(rows)
        ]
        width = len(phi[0][0])
        unit = [[1] + [0] * (width - 1)] + [[0] * width] * (len(phi[0]) - 1)
        self.powers = [[unit], phi]

    def _times_phi(self, u):
        """One more power: the binomial convolution u * Phi in t, then in x."""
        v = self.powers[1]
        pascal = binomial_rows(self.cap)
        out = []
        for p in range(min(len(u) + len(v) - 2, self.cap) + 1):
            pairs = range(max(0, p - len(v) + 1), min(p, len(u) - 1) + 1)
            n = min(self.top - p + 1, *(min(len(u[j][0]), len(v[p - j][0])) for j in pairs))
            acc = None
            for j in pairs:
                c = pascal[p][j]
                term = _convolve_parts([x[:n] for x in u[j]], [y[:n] for y in v[p - j]])
                if acc is None:
                    acc = [[c * t for t in part] for part in term] if c != 1 else term
                else:
                    acc = [[a + c * t for a, t in zip(ap, tp)] for ap, tp in zip(acc, term)]
            out.append(acc)
        return out

    def compose(self, outer, cap):
        """outer(Phi) as x-series coefficients of t^p/p!, p = 0..cap at most.

        The sum over k of outer's ordinary coefficients times Phi^k.  Row p
        is honest only to x-order outer.order - p (each degree in t
        consumes one x-order of the outer series), and is cut there.
        """
        k_top = outer.order
        rows = 1 + min(k_top * self.degree, cap)
        if rows - 1 > min(self.cap, k_top):
            raise OrderExhaustedError(
                f"composing to t-degree {rows - 1} needs an outer order and a cap >= it"
            )
        weights, e = outer.ordinary_parts()
        used = [k for k in range(k_top + 1) if any(w[k] for w in weights)]
        last = used[-1] if used else 0
        while len(self.powers) <= last:
            self.powers.append(self._times_phi(self.powers[-1]))
        scaled = [[w[k] * self.d ** (last - k) for w in weights] for k in used]
        den = e * self.d**last
        out = []
        for p in range(rows):
            n = min(k_top - p, self.bounds[min(p, self.degree)]) + 1
            acc = [[0] * n for _ in weights]
            for k, w in zip(used, scaled):
                power = self.powers[k]
                if p >= len(power):
                    continue
                if len(w) == 1:
                    acc = [[a + w[0] * m for a, m in zip(acc[0], power[p][0])]]
                else:
                    u, v = w
                    re, im = power[p]
                    acc = [
                        [a + u * r - v * i for a, r, i in zip(acc[0], re, im)],
                        [b + u * i + v * r for b, r, i in zip(acc[1], re, im)],
                    ]
            out.append(HurwitzSeries.from_integers(acc, den, self.domain))
        return out


def _compose(outer, inner, cap):
    """Substitute the flow-like series ``inner`` into the x-series ``outer``.

    ``inner`` lists the x-series coefficients of t^p/p!, and so does the
    result, through t-degree min(cap, outer.order * (len(inner) - 1)).
    """
    return _FlowPowers(inner, cap, outer.order).compose(outer, cap)


def semigroup_check(field, order_t):
    """Exact truncated check that flowing for s then t equals flowing for s + t.

    Both sides expand as series in (s, t) with x-series coefficients.
    The right side has A_{p+q} at s^p t^q/(p! q!); the left substitutes
    the time-s flow into each A_q.  Returns the first failing (p, q), if
    any, over all honestly known coefficients with p + q <= order_t and
    q >= 1.  At q = 0 the left side composes A_0 = x with the flow, which
    hands back the flow's own rows A_p, so it would compare each A_p with
    itself and could never fail; those comparisons are skipped.
    """
    if field.order < 2 * order_t:
        raise OrderExhaustedError(
            f"semigroup check at order {order_t} needs field order >= {2 * order_t}"
        )
    seq = autonomous_sequence(field, order_t)
    powers = _FlowPowers(seq.terms, order_t, field.order)
    for q in range(1, order_t + 1):
        comp = powers.compose(seq.terms[q], order_t - q)
        for p in range(order_t - q + 1):
            if not comp[p].agrees_with(seq.terms[p + q]):
                return CheckReport(False, (p, q), f"mismatch at s^{p} t^{q}")
    return CheckReport(True)


def derivation_identity_check(field, order_t):
    """Check dPhi/dt = f(Phi), exactly on the truncations.

    The t-shift of the flow, A_1 .. A_M, is compared with the composition
    of the field with the flow, computed by the ``_FlowPowers`` kernel and
    not by the product recursion that built the terms.  Returns the first
    failing (n, "composition"), where A_{n+1} differs.
    """
    if field.order < order_t + 1:
        raise OrderExhaustedError(
            f"derivation check at order {order_t} needs field order >= {order_t + 1}"
        )
    seq = autonomous_sequence(field, order_t)
    comp = _compose(field, seq.terms, order_t - 1)
    for n in range(order_t):
        if not comp[n].agrees_with(seq.terms[n + 1]):
            return CheckReport(False, (n, "composition"), f"(f o Phi)_{n} != A_{n + 1}")
    return CheckReport(True)


def flow_combination_check(f, g, order_t, mode):
    """Composing the combined flow in time equals combining at the shifted time.

    With h the sum (or product) of the fields, the time composition
    Phi_t o Phi_s of the flow of h must equal the flow of h at time
    s + t, and the combined flow must be the box sum (or box product)
    of the component flows.  Both facts are checked exactly.
    """
    if mode not in ("sum", "product"):
        raise OutOfRangeError(f"unknown combination mode {mode!r}")
    F = flow_series(f, order_t)
    G = flow_series(g, order_t)
    combined = flow_boxplus(F, G) if mode == "sum" else flow_boxdot(F, G)
    h = f + g if mode == "sum" else f * g
    if combined != flow_series(h, order_t):
        return CheckReport(False, mode, "combined flow differs from the direct flow")
    return semigroup_check(h, order_t)


class FlowKind(Enum):
    AFFINE = "affine"
    EXPONENTIAL = "exponential"
    POWER = "power"
    EXPFIELD = "expfield"
    IRREDUCIBLE_QUADRATIC = "irreducible_quadratic"


@dataclass(frozen=True)
class ClosedFormFlow:
    """A catalog entry with an explicit formula for the flow.

    kind and params:
      AFFINE (a,):                 field a,            flow x + a t
      EXPONENTIAL (a, r):          field a (x - r),    flow (x - r) e^(a t) + r
      POWER (a, k), k >= 2:        field a x^k,        flow x / (1 - a (k-1) x^(k-1) t)^(1/(k-1))
      EXPFIELD (a,), a != 0:       field e^(a x),      flow x + (1/a) ln(1 / (1 - a t e^(a x)))
      IRREDUCIBLE_QUADRATIC (b, c) with 4c - b^2 > 0:  field x^2 - b x + c,
          flow sqrt(d) (x - b/2 + sqrt(d) tan(sqrt(d) t)) / (sqrt(d) - (x - b/2) tan(sqrt(d) t)) + b/2,
          d = (4c - b^2) / 4
    """

    kind: FlowKind
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(Fraction(p) for p in self.params))
        kind, params = self.kind, self.params
        sizes = {
            FlowKind.AFFINE: 1,
            FlowKind.EXPONENTIAL: 2,
            FlowKind.POWER: 2,
            FlowKind.EXPFIELD: 1,
            FlowKind.IRREDUCIBLE_QUADRATIC: 2,
        }
        if len(params) != sizes[kind]:
            raise OutOfRangeError(f"{kind.value} takes {sizes[kind]} parameter(s)")
        if kind is FlowKind.POWER:
            if params[1].denominator != 1 or params[1] < 2:
                raise OutOfRangeError("power flows need an integer exponent k >= 2")
        if kind is FlowKind.EXPFIELD and params[0] == 0:
            raise OutOfRangeError("exponential fields need a nonzero scale")
        if kind is FlowKind.IRREDUCIBLE_QUADRATIC:
            b, c = params
            if 4 * c - b * b <= 0:
                raise OutOfRangeError(
                    "quadratic catalog entries need 4c - b^2 > 0; factor reducible ones first"
                )

    def field_text(self):
        a = self.params[0]
        if self.kind is FlowKind.AFFINE:
            return format_scalar(a)
        if self.kind is FlowKind.EXPONENTIAL:
            r = self.params[1]
            return f"{format_scalar(a)}*(x-{format_scalar(r)})" if r else f"{format_scalar(a)}*x"
        if self.kind is FlowKind.POWER:
            return f"{format_scalar(a)}*x^{self.params[1]}"
        if self.kind is FlowKind.EXPFIELD:
            return f"exp({format_scalar(a)}*x)"
        b, c = self.params
        if b == 0:
            return f"x^2+{format_scalar(c)}"
        return f"x^2-{format_scalar(b)}*x+{format_scalar(c)}"


def closed_form_eval(cf, t, x):
    """IEEE double value of the closed form at (t, x), inside its domain.

    Raises ClosedFormDomainError outside the domain, and also when a
    parameter or an intermediate value does not fit a double.
    """
    try:
        return _closed_form_value(cf, t, x)
    except OverflowError:
        raise ClosedFormDomainError(
            f"the {cf.kind.value} closed form at t = {t}, x = {x} does not fit a double"
        ) from None


def _closed_form_value(cf, t, x):
    kind = cf.kind
    if kind is FlowKind.AFFINE:
        return x + float(cf.params[0]) * t
    if kind is FlowKind.EXPONENTIAL:
        a, r = (float(p) for p in cf.params)
        return (x - r) * math.exp(a * t) + r
    if kind is FlowKind.POWER:
        a = float(cf.params[0])
        k = int(cf.params[1])
        radicand = 1.0 - a * (k - 1) * x ** (k - 1) * t
        if radicand <= 0.0:
            raise ClosedFormDomainError(
                f"1 - a(k-1)x^(k-1)t = {radicand:g} is not positive"
            )
        return x / radicand ** (1.0 / (k - 1))
    if kind is FlowKind.EXPFIELD:
        a = float(cf.params[0])
        u = 1.0 - a * t * math.exp(a * x)
        if u <= 0.0:
            raise ClosedFormDomainError(f"1 - a t e^(a x) = {u:g} is not positive")
        return x + math.log(1.0 / u) / a
    b, c = (float(p) for p in cf.params)
    d = (4.0 * c - b * b) / 4.0
    root = math.sqrt(d)
    if abs(root * t) >= math.pi / 2:
        raise ClosedFormDomainError(f"|sqrt(d) t| = {abs(root * t):g} leaves the tangent branch")
    tan = math.tan(root * t)
    denom = root - (x - b / 2.0) * tan
    if denom == 0.0:
        raise ClosedFormDomainError("sqrt(d) - (x - b/2) tan(sqrt(d) t) vanishes")
    return root * (x - b / 2.0 + root * tan) / denom + b / 2.0


def match_closed_form(node):
    """Catalog entry for an expression, or None.

    Matches constants, affine fields, single monomials a x^k, exp(a x)
    with rational a, and monic quadratics with no real roots.
    """
    coeffs = polynomial_coefficients(node)
    if coeffs is None:
        if isinstance(node, Func) and node.name == "exp" \
                and not isinstance(node.scale, GaussianRational) and node.scale != 0:
            return ClosedFormFlow(FlowKind.EXPFIELD, (node.scale,))
        return None
    if any(isinstance(c, GaussianRational) and c.im != 0 for c in coeffs.values()):
        return None
    coeffs = {k: c.re if isinstance(c, GaussianRational) else c for k, c in coeffs.items()}
    degree = max(coeffs, default=0)
    c0, c1, c2 = (coeffs.get(k, Fraction(0)) for k in range(3))
    if degree == 0:
        return ClosedFormFlow(FlowKind.AFFINE, (c0,))
    if degree == 1:
        return ClosedFormFlow(FlowKind.EXPONENTIAL, (c1, -c0 / c1))
    if len(coeffs) == 1:
        return ClosedFormFlow(FlowKind.POWER, (coeffs[degree], degree))
    if degree == 2 and c2 == 1:
        b, c = -c1, c0
        if 4 * c - b * b > 0:
            return ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (b, c))
    return None


EQUILIBRIUM_TOLERANCE = 1e-12


class PointKind(Enum):
    EQUILIBRIUM = "equilibrium"
    REGULAR = "regular"


@dataclass(frozen=True)
class OrbitPoint:
    """Classification of a basepoint: the orbit through an equilibrium is constant."""

    basepoint: object
    kind: PointKind
    exact: bool


def classify_point(field, x0):
    """Equilibrium iff the field vanishes at x0.

    Series and polynomial expressions are evaluated exactly, as the sum
    of c_k x0^k over their nonzero ordinary coefficients; expressions
    with exp/sin/cos fall back to a numeric test at tolerance 1e-12 and
    are flagged as such.
    """
    from .oracle import eval_field  # local import keeps the oracle independent

    if isinstance(field, HurwitzSeries):
        coeffs = dict(enumerate(field.to_polynomial()))
    else:
        coeffs = polynomial_coefficients(field)
    if coeffs is not None:
        point = x0 if isinstance(x0, GaussianRational) else Fraction(x0)
        value = sum(c * point**k for k, c in coeffs.items())
        kind = PointKind.EQUILIBRIUM if not value else PointKind.REGULAR
        return OrbitPoint(x0, kind, True)
    value = eval_field(field)(float(x0))
    kind = PointKind.EQUILIBRIUM if abs(value) <= EQUILIBRIUM_TOLERANCE else PointKind.REGULAR
    return OrbitPoint(x0, kind, False)


@dataclass(frozen=True)
class DecompositionResult:
    combined: AutonomousSequence
    components: tuple
    matches_direct: bool


def decompose_flow(parts, mode, order_t):
    """Flow of a sum or product of fields, assembled from component flows.

    Returns the combined flow, the component flows, and whether the
    combination equals the directly computed flow of the folded field
    (it must; the flag makes the CLI verdict explicit).
    """
    if mode not in ("sum", "product"):
        raise OutOfRangeError(f"unknown decomposition mode {mode!r}")
    if not parts:
        raise OutOfRangeError("decompose needs at least one part")
    components = tuple(flow_series(p, order_t) for p in parts)
    combined = components[0]
    folded = parts[0]
    for part, component in zip(parts[1:], components[1:]):
        if mode == "sum":
            combined = flow_boxplus(combined, component)
            folded = folded + part
        else:
            combined = flow_boxdot(combined, component)
            folded = folded * part
    direct = flow_series(folded, order_t)
    return DecompositionResult(combined, components, combined == direct)
