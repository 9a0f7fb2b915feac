"""Seeded invariant suite behind the CLI verify command.

Each check returns a CheckOutcome; run_suite executes all of them in a
fixed order from one seeded generator, so a seed pins the whole run.
The acceptance tests call the same functions with their stated counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .autonomous import (
    autonomous_sequence,
    autonomous_sequence_bell,
    box_dot,
    box_plus,
    scalar_action,
    sum_interaction_terms,
)
from .bell import bell_polynomial, partial_bell, partitions
from .expr import format_expr, parse, series_from_text
from .flow import (
    ClosedFormFlow,
    FlowKind,
    _compose,
    closed_form_eval,
    decompose_flow,
    derivation_identity_check,
    flow_combination_check,
    flow_series,
    semigroup_check,
    time_scale,
)
from .hurwitz import HurwitzSeries, add_truncating, mul_truncating, power_truncating
from .oracle import fd_flow_derivative_check, rk4_solve
from .scalars import Domain, GaussianRational


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""

    def __bool__(self):
        return self.passed


def _ok(name, detail=""):
    return CheckOutcome(name, True, detail)


def _fail(name, detail):
    return CheckOutcome(name, False, detail)


# -- random generators ------------------------------------------------


def random_fraction(rng, max_num=6, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_series(rng, order, domain=Domain.RATIONAL):
    coeffs = [random_fraction(rng) for _ in range(order + 1)]
    if domain is Domain.GAUSSIAN:
        coeffs = [GaussianRational(c, random_fraction(rng)) for c in coeffs]
    return HurwitzSeries.make(coeffs, domain)


def random_unit_series(rng, order):
    series = random_series(rng, order)
    if series.coeffs[0] == 0:
        coeffs = (Fraction(rng.randint(1, 6)),) + series.coeffs[1:]
        series = HurwitzSeries(coeffs, series.domain)
    return series


def random_polynomial_series(rng, order, max_degree=4, nonzero=False):
    degree = rng.randint(0, max_degree)
    coeffs = [random_fraction(rng, 4, 3) for _ in range(degree + 1)]
    if nonzero and all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(coeffs))] = Fraction(rng.randint(1, 4))
    return HurwitzSeries.from_polynomial(coeffs, order, Domain.RATIONAL)


# -- hurwitz ring ------------------------------------------------------


def hurwitz_ring_axioms(rng, triples=200, order=16):
    name = "hurwitz-ring-axioms"
    zero = HurwitzSeries.zeros(order)
    e = HurwitzSeries.constant(1, order)
    for i in range(triples):
        a = random_series(rng, order)
        b = random_series(rng, order)
        c = random_series(rng, order)
        if (a + b) + c != a + (b + c) or a + b != b + a or a + zero != a:
            return _fail(name, f"additive axiom broke on triple {i}")
        if (a * b) * c != a * (b * c) or a * b != b * a or a * e != a:
            return _fail(name, f"multiplicative axiom broke on triple {i}")
        if a * (b + c) != a * b + a * c:
            return _fail(name, f"distributivity broke on triple {i}")
    return _ok(name, f"{triples} triples at N={order}, exact")


def hurwitz_inverse(rng, count=100, order=16):
    name = "hurwitz-inverse"
    e = HurwitzSeries.constant(1, order)
    for i in range(count):
        a = random_unit_series(rng, order)
        if a * a.inverse() != e:
            return _fail(name, f"a * a^-1 != e on sample {i}")
    return _ok(name, f"{count} unit-leading series at N={order}")


def exp_ring(rng, pairs=50, order=16):
    name = "exp-ring"
    for i in range(pairs):
        a = random_fraction(rng)
        b = random_fraction(rng)
        ea = HurwitzSeries.exp(a, order)
        eb = HurwitzSeries.exp(b, order)
        if ea * eb != HurwitzSeries.exp(a + b, order):
            return _fail(name, f"exp({a})*exp({b}) != exp({a + b})")
        if ea.hadamard(eb) != HurwitzSeries.exp(a * b, order):
            return _fail(name, f"exp({a}) hadamard exp({b}) != exp({a * b})")
    return _ok(name, f"{pairs} pairs at N={order}")


def hadamard_exp_distributivity(rng, count=25, order=16):
    name = "hadamard-distributes-on-exp"
    for i in range(count):
        a, b, c = (random_fraction(rng) for _ in range(3))
        ea = HurwitzSeries.exp(a, order)
        eb = HurwitzSeries.exp(b, order)
        ec = HurwitzSeries.exp(c, order)
        if ea.hadamard(eb * ec) != ea.hadamard(eb) * ea.hadamard(ec):
            return _fail(name, f"failed for a={a}, b={b}, c={c}")
    return _ok(name, f"{count} scalar triples")


def leibniz_rule(rng, count=25, order=16):
    name = "leibniz-rule"
    for i in range(count):
        a = random_series(rng, order)
        b = random_series(rng, order)
        lhs = (a * b).derivative()
        rhs = mul_truncating(a.derivative(), b) + mul_truncating(a, b.derivative())
        if lhs != rhs:
            return _fail(name, f"product rule broke on sample {i}")
    return _ok(name, f"{count} pairs through index {order - 1}")


# -- bell path ---------------------------------------------------------


def bell_path_equivalence(rng, fields=50, order_t=8, order=16, max_degree=4):
    name = "bell-path-equivalence"
    for i in range(fields):
        f = random_polynomial_series(rng, order, max_degree)
        m = order_t - (i % 3)
        if autonomous_sequence(f, m) != autonomous_sequence_bell(f, m):
            return _fail(name, f"paths diverged on field {i} at M={m}")
    return _ok(name, f"{fields} polynomial fields, M<={order_t}, N={order}")


def displayed_term_formulas(rng, fields=20, order=16):
    name = "displayed-term-formulas"
    for i in range(fields):
        f = random_polynomial_series(rng, order, 4)
        seq = autonomous_sequence(f, 4)
        d1 = f.derivative()
        d2 = d1.derivative()
        d3 = d2.derivative()
        a2 = mul_truncating(f, d1)
        a3 = add_truncating(
            mul_truncating(f, power_truncating(d1, 2)),
            mul_truncating(power_truncating(f, 2), d2),
        )
        a4 = add_truncating(
            add_truncating(
                mul_truncating(f, power_truncating(d1, 3)),
                mul_truncating(power_truncating(f, 2), mul_truncating(d1, d2)).scale(4),
            ),
            mul_truncating(power_truncating(f, 3), d3),
        )
        for n, formula in ((2, a2), (3, a3), (4, a4)):
            if not formula.agrees_with(seq.terms[n]):
                return _fail(name, f"closed formula for term {n} broke on field {i}")
    return _ok(name, f"terms 2..4 on {fields} fields")


def interaction_recurrence(rng, pairs=30, order_t=6, order=16):
    name = "interaction-recurrence"
    for i in range(pairs):
        f = random_polynomial_series(rng, order, 3)
        g = random_polynomial_series(rng, order, 3)
        seq_sum = autonomous_sequence(f + g, order_t)
        seq_f = autonomous_sequence(f, order_t)
        seq_g = autonomous_sequence(g, order_t)
        witnesses = sum_interaction_terms(seq_f, seq_g)
        for n, h in enumerate(witnesses, start=1):
            direct = seq_sum.terms[n] - seq_f.terms[n] - seq_g.terms[n]
            if direct != h:
                return _fail(name, f"witness {n} broke on pair {i}")
        h2 = mul_truncating(f, g.derivative()) + mul_truncating(g, f.derivative())
        if witnesses[1] != h2:
            return _fail(name, f"H_2 closed form broke on pair {i}")
    zero = HurwitzSeries.zeros(order)
    f = random_polynomial_series(rng, order, 3)
    seq_f = autonomous_sequence(f, order_t)
    for h in sum_interaction_terms(seq_f, autonomous_sequence(zero, order_t)):
        if not h.is_zero():
            return _fail(name, "interaction with the zero field is not zero")
    for n, h in enumerate(sum_interaction_terms(seq_f, seq_f), start=1):
        if h != seq_f.terms[n].scale(2**n - 2):
            return _fail(name, f"H_n(f, f) != (2^n - 2) A_n at n={n}")
    return _ok(name, f"{pairs} pairs, witnesses to n={order_t}")


def scalar_action_powers(rng, fields=5, order_t=8, order=16):
    name = "scalar-action"
    scalars = (Fraction(-1), Fraction(2), Fraction(1, 3))
    for i in range(fields):
        f = random_polynomial_series(rng, order, 4)
        seq = autonomous_sequence(f, order_t)
        for a in scalars:
            acted = scalar_action(a, seq)
            if acted != autonomous_sequence(f.scale(a), order_t):
                return _fail(name, f"action by {a} != sequence of scaled field")
            for n in range(order_t + 1):
                if acted.terms[n] != seq.terms[n].scale(a ** n):
                    return _fail(name, f"term {n} not scaled by {a}^{n}")
        fg = f.to_domain(Domain.GAUSSIAN)
        seq_g = autonomous_sequence(fg, order_t)
        unit_i = GaussianRational(0, 1)
        acted = scalar_action(unit_i, seq_g)
        if acted != autonomous_sequence(fg.scale(unit_i), order_t):
            return _fail(name, "action by i != sequence of i-scaled field")
        for n in range(order_t + 1):
            if acted.terms[n] != seq_g.terms[n].scale(unit_i ** n):
                return _fail(name, f"gaussian term {n} not scaled by i^{n}")
    return _ok(name, f"scalars -1, 2, 1/3, i on {fields} fields, n<={order_t}")


def sequence_ring_laws(rng, triples=15, order_t=5, order=16):
    name = "sequence-ring-laws"
    zero_seq = autonomous_sequence(HurwitzSeries.zeros(order), order_t)
    one_seq = autonomous_sequence(HurwitzSeries.constant(1, order), order_t)
    for i in range(triples):
        A = autonomous_sequence(random_polynomial_series(rng, order, 3), order_t)
        B = autonomous_sequence(random_polynomial_series(rng, order, 3), order_t)
        C = autonomous_sequence(random_polynomial_series(rng, order, 3), order_t)
        if box_plus(A, B) != box_plus(B, A) or box_dot(A, B) != box_dot(B, A):
            return _fail(name, f"commutativity broke on triple {i}")
        if box_plus(box_plus(A, B), C) != box_plus(A, box_plus(B, C)):
            return _fail(name, f"box_plus associativity broke on triple {i}")
        if box_dot(box_dot(A, B), C) != box_dot(A, box_dot(B, C)):
            return _fail(name, f"box_dot associativity broke on triple {i}")
        if box_dot(A, box_plus(B, C)) != box_plus(box_dot(A, B), box_dot(A, C)):
            return _fail(name, f"distributivity broke on triple {i}")
        if box_plus(A, zero_seq) != A or box_dot(A, one_seq) != A:
            return _fail(name, f"units broke on triple {i}")
        if box_plus(A, scalar_action(Fraction(-1), A)) != zero_seq:
            return _fail(name, f"additive inverse broke on triple {i}")
    return _ok(name, f"{triples} sequence triples at M={order_t}")


def integral_domain(rng, pairs=20, order_t=5, order=16):
    name = "integral-domain"
    for i in range(pairs):
        f = random_polynomial_series(rng, order, 4, nonzero=True)
        g = random_polynomial_series(rng, order, 4, nonzero=True)
        prod = box_dot(
            autonomous_sequence(f, order_t), autonomous_sequence(g, order_t)
        )
        if prod.is_zero():
            return _fail(name, f"nonzero fields gave the zero sequence on pair {i}")
        if prod.field != f * g:
            return _fail(name, f"product field wrong on pair {i}")
    return _ok(name, f"{pairs} nonzero pairs")


def product_expansion_low_orders(rng, pairs=15, order=16):
    name = "product-expansion-low-orders"
    for i in range(pairs):
        f = random_polynomial_series(rng, order, 3)
        g = random_polynomial_series(rng, order, 3)
        sf = autonomous_sequence(f, 3)
        sg = autonomous_sequence(g, 3)
        sp = box_dot(sf, sg)
        if sp.terms[1] != f * g:
            return _fail(name, f"first term of a product broke on pair {i}")
        rhs2 = add_truncating(
            mul_truncating(sf.terms[2], power_truncating(sg.terms[1], 2)),
            mul_truncating(power_truncating(sf.terms[1], 2), sg.terms[2]),
        )
        if not rhs2.agrees_with(sp.terms[2]):
            return _fail(name, f"second term expansion broke on pair {i}")
        cross = mul_truncating(
            mul_truncating(sf.terms[1], sf.terms[2]),
            mul_truncating(sg.terms[1], sg.terms[2]),
        ).scale(4)
        rhs3 = add_truncating(
            add_truncating(
                mul_truncating(power_truncating(sf.terms[1], 3), sg.terms[3]), cross
            ),
            mul_truncating(sf.terms[3], power_truncating(sg.terms[1], 3)),
        )
        if not rhs3.agrees_with(sp.terms[3]):
            return _fail(name, f"third term expansion broke on pair {i}")
    return _ok(name, f"terms 1..3 on {pairs} pairs")


def polynomial_factorization(order_t=6, order=16):
    name = "polynomial-factorization"
    roots = (1, -2, 3)
    factors = [
        HurwitzSeries.from_polynomial([-r, 1], order) for r in roots
    ]
    seq = autonomous_sequence(factors[0], order_t)
    for f in factors[1:]:
        seq = box_dot(seq, autonomous_sequence(f, order_t))
    expanded = series_from_text("x^3-2x^2-5x+6", order)
    if seq != autonomous_sequence(expanded, order_t):
        return _fail(name, "factored and expanded sequences differ")
    return _ok(name, f"roots {roots}, M={order_t}")


# -- flow laws ---------------------------------------------------------


def flow_semigroup(rng, fields=20, max_order_t=5, order=16):
    name = "flow-semigroup"
    for i in range(fields):
        f = random_polynomial_series(rng, order, 3)
        m = 3 + (i % (max_order_t - 2))
        report = semigroup_check(f, m)
        if not report:
            return _fail(name, f"field {i} failed at {report.first_failure} (M={m})")
    return _ok(name, f"{fields} fields, M<={max_order_t}, N={order}")


def flow_derivation(rng, fields=20, max_order_t=8, order=16):
    name = "flow-derivation-identity"
    for i in range(fields):
        f = random_polynomial_series(rng, order, 3)
        m = 6 + (i % (max_order_t - 5))
        report = derivation_identity_check(f, m)
        if not report:
            return _fail(name, f"field {i} failed at {report.first_failure} (M={m})")
    return _ok(name, f"{fields} fields, M<={max_order_t}, N={order}")


def time_scale_identity(rng, fields=20, order_t=8, order=16):
    name = "time-scale-identity"
    scalars = (Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(0))
    for i in range(fields):
        f = random_polynomial_series(rng, order, 3)
        flow = flow_series(f, order_t)
        for a in scalars:
            scaled = time_scale(flow, a)
            if scaled != flow_series(f.scale(a), order_t):
                return _fail(name, f"time scale by {a} broke on field {i}")
            for n in range(order_t + 1):
                if scaled.terms[n] != flow.terms[n].scale(a ** n):
                    return _fail(name, f"tcoeff {n} not scaled by {a}^{n}")
    return _ok(name, f"{fields} fields, scalars {tuple(str(s) for s in scalars)}")


def flow_composition_identity(rng, pairs=10, order_t=4, order=16):
    name = "flow-composition-identity"
    for i in range(pairs):
        f = random_polynomial_series(rng, order, 3)
        g = random_polynomial_series(rng, order, 3)
        m = 2 + (i % (order_t - 1))
        for mode in ("sum", "product"):
            report = flow_combination_check(f, g, m, mode)
            if not report:
                return _fail(name, f"{mode} combination failed on pair {i} (M={m})")
    return _ok(name, f"{pairs} pairs, M<={order_t}, both modes")


# -- closed forms and numerics ----------------------------------------

_CATALOG = (
    (ClosedFormFlow(FlowKind.AFFINE, (Fraction(1, 2),)), "1/2", 1e-9, 0.5),
    (ClosedFormFlow(FlowKind.EXPONENTIAL, (Fraction(-1), Fraction(0))), "-x", 1e-9, 0.5),
    (ClosedFormFlow(FlowKind.EXPONENTIAL, (Fraction(-1), Fraction(1))), "1-x", 1e-9, 0.5),
    (ClosedFormFlow(FlowKind.POWER, (Fraction(1), Fraction(2))), "x^2", 1e-9, 0.5),
    (ClosedFormFlow(FlowKind.POWER, (Fraction(1), Fraction(3))), "x^3", 1e-9, 0.3),
    (ClosedFormFlow(FlowKind.EXPFIELD, (Fraction(1),)), "exp(x)", 1e-7, 0.3),
    (
        ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (Fraction(0), Fraction(1))),
        "x^2+1",
        1e-7,
        0.3,
    ),
)

_SERIES_ORDER_T = 20
_SERIES_ORDER_X = 61


def _catalog_flow(text):
    return flow_series(series_from_text(text, _SERIES_ORDER_X), _SERIES_ORDER_T)


def closed_form_grid():
    name = "closed-form-grid"
    xs = [-0.2, -0.1, 0.0, 0.1, 0.2]
    for cf, text, tol, tmax in _CATALOG:
        flow = _catalog_flow(text)
        ts = [tmax * (k - 2) / 2.0 for k in range(5)]
        for x0 in xs:
            for t0 in ts:
                reference = closed_form_eval(cf, t0, x0)
                got = flow.eval_at(t0, x0)
                if abs(got - reference) > tol * max(1.0, abs(reference)):
                    return _fail(
                        name,
                        f"{cf.kind.value} at (t={t0}, x={x0}): series {got!r} vs {reference!r}",
                    )
    anchors = (
        ("x^2", ClosedFormFlow(FlowKind.POWER, (1, 2)), 0.5, 0.1, Fraction(2, 19), 1e-9),
        ("exp(x)", ClosedFormFlow(FlowKind.EXPFIELD, (1,)), 0.5, 0.0, math.log(2.0), 1e-7),
        (
            "x^2+1",
            ClosedFormFlow(FlowKind.IRREDUCIBLE_QUADRATIC, (0, 1)),
            0.3,
            0.0,
            math.tan(0.3),
            1e-7,
        ),
    )
    for text, cf, t0, x0, expected, tol in anchors:
        closed = closed_form_eval(cf, t0, x0)
        if abs(closed - float(expected)) > 1e-12:
            return _fail(name, f"closed form for {text} missed its anchor value")
        got = _catalog_flow(text).eval_at(t0, x0)
        if abs(got - closed) > tol * max(1.0, abs(closed)):
            return _fail(name, f"series for {text} missed {closed!r} (got {got!r})")
    return _ok(name, f"{len(_CATALOG)} kinds, 5x5 grids plus anchors, M={_SERIES_ORDER_T}")


def inverse_pair_flows(rng, count=10, order_t=8, order=16):
    name = "inverse-pair-flows"
    x_plus_t = flow_series(HurwitzSeries.constant(1, order), order_t)
    for i in range(count):
        u = random_unit_series(rng, order)
        if flow_series(u * u.inverse(), order_t) != x_plus_t:
            return _fail(name, f"flow of u * u^-1 is not x + t on sample {i}")
    if x_plus_t.terms[1] != HurwitzSeries.constant(1, order):
        return _fail(name, "the unit flow does not read x + t")
    return _ok(name, f"{count} unit series, M={order_t}")


def closed_form_ode_residual():
    name = "closed-form-ode-residual"
    for cf, text, _tol, _tmax in _CATALOG:
        residual = fd_flow_derivative_check(cf, parse(text), 0.1, 0.05, 1e-4)
        if residual > 1e-8:
            return _fail(name, f"{cf.kind.value} residual {residual:g} > 1e-8")
    return _ok(name, "all catalog kinds within 1e-8 at h=1e-4")


def rk4_convergence():
    name = "rk4-convergence-order"
    field = parse("x")
    exact = math.exp(0.5)
    err_coarse = abs(rk4_solve(field, 1.0, 0.5, 32)[-1] - exact)
    err_fine = abs(rk4_solve(field, 1.0, 0.5, 64)[-1] - exact)
    ratio = err_coarse / err_fine
    if not 12.0 <= ratio <= 20.0:
        return _fail(name, f"halving steps changed the error by {ratio:.2f}x")
    return _ok(name, f"error ratio {ratio:.2f} in [12, 20]")


def rk4_series_agreement():
    name = "rk4-series-agreement"
    for cf, text, _tol, _tmax in _CATALOG:
        flow = _catalog_flow(text)
        field = parse(text)
        for x0 in (-0.2, 0.0, 0.2):
            for t1 in (0.1, 0.3):
                series_value = flow.eval_at(t1, x0)
                rk4_value = rk4_solve(field, x0, t1, 512)[-1]
                if abs(series_value - rk4_value) > 1e-8:
                    return _fail(
                        name,
                        f"{text} at (t={t1}, x={x0}): series {series_value!r} vs rk4 {rk4_value!r}",
                    )
    return _ok(name, "catalog fields, |x0|<=0.2, t1<=0.3, within 1e-8")


# -- worked examples ---------------------------------------------------


def example_exp_sin(order_t=8, order=16):
    name = "example-exp-plus-sin"
    parts = [
        series_from_text("exp(x)", order, Domain.GAUSSIAN),
        series_from_text("-1/2*i*exp(i*x)", order, Domain.GAUSSIAN),
        series_from_text("1/2*i*exp(-i*x)", order, Domain.GAUSSIAN),
    ]
    result = decompose_flow(parts, "sum", order_t)
    if not result.matches_direct:
        return _fail(name, "combined flow differs from the direct flow")
    target = series_from_text("exp(x)+sin(x)", order, Domain.GAUSSIAN)
    if result.combined.field != target:
        return _fail(name, "the three component fields do not sum to exp(x)+sin(x)")
    rational = flow_series(series_from_text("exp(x)+sin(x)", order), order_t)
    for n, term in enumerate(result.combined.terms):
        for k, c in enumerate(term.coeffs):
            if c.im != 0:
                return _fail(name, f"imaginary residue at term {n}, index {k}")
            if c.re != rational.terms[n].coeffs[k]:
                return _fail(name, f"real part differs at term {n}, index {k}")
    return _ok(name, f"three-part gaussian sum matches the rational flow, M={order_t}")


def example_cubic(order_t=8, order=16):
    name = "example-cubic-decompositions"
    direct = flow_series(series_from_text("1-x+x^2-x^3", order), order_t)
    sum_parts = [series_from_text(t, order) for t in ("1", "-x", "x^2", "-x^3")]
    sum_result = decompose_flow(sum_parts, "sum", order_t)
    if not sum_result.matches_direct or sum_result.combined != direct:
        return _fail(name, "sum decomposition differs from the direct flow")
    prod_parts = [series_from_text(t, order) for t in ("1-x", "x^2+1")]
    prod_result = decompose_flow(prod_parts, "product", order_t)
    if not prod_result.matches_direct or prod_result.combined != direct:
        return _fail(name, "product decomposition differs from the direct flow")
    big = flow_series(series_from_text("1-x+x^2-x^3", _SERIES_ORDER_X), _SERIES_ORDER_T)
    rk4_value = rk4_solve(parse("1-x+x^2-x^3"), 0.1, 0.25, 1024)[-1]
    series_value = big.eval_at(0.25, 0.1)
    if abs(series_value - rk4_value) > 1e-8:
        return _fail(name, f"series {series_value!r} vs rk4 {rk4_value!r}")
    return _ok(name, f"sum and product decompositions exact at M={order_t}; rk4 within 1e-8")


# -- bell oracles -------------------------------------------------------


def _count_set_partitions(n, k=0, used=0):
    """Restricted growth strings of length n, extended from position k with ``used`` blocks."""
    if k == n:
        return 1
    return sum(_count_set_partitions(n, k + 1, used + (b == used)) for b in range(used + 1))


def bell_numbers():
    name = "bell-numbers"
    ones = [Fraction(1)] * 6
    for n in range(1, 6):
        total = sum(partial_bell(n, k, ones) for k in range(1, n + 1))
        expected = _count_set_partitions(n)
        if total != expected:
            return _fail(name, f"sum of B({n}, k) gave {total}, oracle says {expected}")
    if len(partitions(4)) != 5 or len(partitions(1)) != 1:
        return _fail(name, "partition counts are off")
    return _ok(name, "matches brute-force set partition counts for n<=5")


def bell_composition(rng, pairs=10, order=10):
    name = "bell-composition"
    for i in range(pairs):
        fa = random_series(rng, order)
        gb = HurwitzSeries((Fraction(0),) + random_series(rng, order).coeffs[1:], Domain.RATIONAL)
        via_bell = [fa.coeffs[0]]
        for n in range(1, order + 1):
            via_bell.append(
                bell_polynomial(n, gb.coeffs[1 : n + 1], fa.coeffs[1 : n + 1])
            )
        # fa(gb) as a series in t with constant x-coefficients, by the flow kernel
        inner = [HurwitzSeries((c,), Domain.RATIONAL) for c in gb.coeffs]
        oracle = HurwitzSeries([s.coeffs[0] for s in _compose(fa, inner, order)], Domain.RATIONAL)
        if HurwitzSeries(via_bell, Domain.RATIONAL) != oracle:
            return _fail(name, f"composition differs from direct substitution on pair {i}")
    return _ok(name, f"{pairs} pairs through N={order}")


def bell_scaling(rng, count=15):
    name = "bell-scaling"
    for i in range(count):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        b = [random_fraction(rng) for _ in range(n)]
        c = random_fraction(rng, 5, 3)
        if c == 0:
            c = Fraction(2)
        scaled = [c * v for v in b]
        if partial_bell(n, k, scaled) != c ** k * partial_bell(n, k, b):
            return _fail(name, f"B({n},{k}) did not scale by c^k")
    return _ok(name, f"{count} samples")


# -- parser and elaboration --------------------------------------------

PARSER_CORPUS = (
    "x", "i", "0", "1", "42", "7/3", "x^2", "x^3", "x^0",
    "x^2 + 1", "x^2+1", "1 - x", "-x", "- x + 1", "2x", "2 x", "3/2x",
    "x x", "x*x", "(x)", "((x))", "(1-x)*(x^2+1)", "(1-x)(x^2+1)",
    "1-x+x^2-x^3", "x^2 - x - 1", "2*x^3 - 1/2", "-(x+1)", "-(x*x)",
    "exp(x)", "exp(2x)", "exp(-x)", "exp(1/2x)", "exp(2*x)", "exp(0x)",
    "sin(x)", "cos(x)", "sin(-x)", "cos(2x)", "exp(x) + sin(x)",
    "exp(x)+sin(x)", "exp(i x)", "exp(ix)", "exp(-i*x)", "1/2*i*exp(i*x)",
    "-1/2*i*exp(i*x)", "i*x", "ix", "x i", "2^3", "(x+1)^4",
    "x^2*x^3", "x^2 (x+1)", "1/3 + 2/3", "cos(x)*sin(x) + exp(2x)",
)


def parser_roundtrip():
    name = "parser-roundtrip"
    for text in PARSER_CORPUS:
        first = parse(text)
        printed = format_expr(first)
        second = parse(printed)
        if first != second:
            return _fail(name, f"{text!r} printed as {printed!r} which reparses differently")
    return _ok(name, f"{len(PARSER_CORPUS)} expressions")


def elaboration_anchors():
    name = "elaboration-anchors"
    got = series_from_text("x^2+1", 4)
    if got != HurwitzSeries.make([1, 0, 2, 0, 0]):
        return _fail(name, f"x^2+1 elaborated to {got!r}")
    got = series_from_text("exp(2x)", 4)
    if got != HurwitzSeries.make([1, 2, 4, 8, 16]):
        return _fail(name, f"exp(2x) elaborated to {got!r}")
    got = series_from_text("sin(x)", 5)
    if got != HurwitzSeries.make([0, 1, 0, -1, 0, 1]):
        return _fail(name, f"sin(x) elaborated to {got!r}")
    euler = series_from_text("-1/2*i*exp(i*x) + 1/2*i*exp(-i*x)", 8, Domain.GAUSSIAN)
    table = series_from_text("sin(x)", 8, Domain.GAUSSIAN)
    if euler != table:
        return _fail(name, "the exponential combination does not reproduce sin")
    factored = series_from_text("(1-x)*(x^2+1)", 8)
    expanded = series_from_text("1-x+x^2-x^3", 8)
    if factored != expanded:
        return _fail(name, "factored and expanded cubic elaborate differently")
    return _ok(name, "coefficient tables and the Euler combination")


# -- suite --------------------------------------------------------------


def run_suite(seed=0):
    """Run every invariant check with one seeded generator."""
    rng = random.Random(seed)
    return [
        hurwitz_ring_axioms(rng),
        hurwitz_inverse(rng),
        exp_ring(rng),
        hadamard_exp_distributivity(rng),
        leibniz_rule(rng),
        bell_numbers(),
        bell_scaling(rng),
        bell_composition(rng),
        bell_path_equivalence(rng),
        displayed_term_formulas(rng),
        interaction_recurrence(rng),
        scalar_action_powers(rng),
        sequence_ring_laws(rng),
        integral_domain(rng),
        product_expansion_low_orders(rng),
        polynomial_factorization(),
        flow_semigroup(rng),
        flow_derivation(rng),
        time_scale_identity(rng),
        flow_composition_identity(rng),
        inverse_pair_flows(rng),
        closed_form_grid(),
        closed_form_ode_residual(),
        rk4_convergence(),
        rk4_series_agreement(),
        example_exp_sin(),
        example_cubic(),
        parser_roundtrip(),
        elaboration_anchors(),
    ]
