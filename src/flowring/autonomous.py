"""Flow coefficient sequences of y' = f(y) and their ring operations.

For a field f the sequence (A_0, A_1, A_2, ...) holds the coefficients of
t^n/n! in the truncated series solution: A_0 = x, A_1 = f, and

    A_{n+1} = f * d(A_n)

with d the series derivative.  Each derivative costs one honest x-order,
so term n is known to order N - (n - 1) and the bookkeeping below never
claims more.  Read as an exponential generating series in t, the
sequence is the flow of f: Phi(t, x) = sum A_n(x) t^n/n!.  The same
sequence has a second, independent computation path through Bell
polynomials: A_{n+1} = Y_n(A_1..A_n; f', .., f^(n)).

Sums and products of sequences pull back to the generating fields:
box_plus(f, g) is the sequence of f + g and box_dot(f, g) the sequence
of f * g.  The interaction terms H_n measure how far term n of a sum is
from being additive: A_n(f+g) = A_n(f) + A_n(g) + H_n(f, g), with H_1 = 0
(the first term of a sum field carries no interaction) and

    H_{n+1} = f d(A_n(g)) + g d(A_n(f)) + (f + g) d(H_n).
"""

from __future__ import annotations

from .bell import iter_partitions, partition_weight
from .errors import (
    DomainMismatchError,
    OrderExhaustedError,
    OrderMismatchError,
    OutOfRangeError,
)
from .hurwitz import HurwitzSeries, add_truncating, mul_truncating


class AutonomousSequence:
    """The truncated sequence (A_0 .. A_M) generated by a field."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        terms = tuple(terms)
        if len(terms) < 2:
            raise OutOfRangeError("a sequence needs at least terms A_0 and A_1")
        self.field = field
        self.terms = terms

    @property
    def order_t(self):
        return len(self.terms) - 1

    @property
    def domain(self):
        return self.field.domain

    def __eq__(self, other):
        if not isinstance(other, AutonomousSequence):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __repr__(self):
        return f"AutonomousSequence[M={self.order_t}, field order {self.field.order}]"

    def is_zero(self):
        """True when every term past A_0 vanishes (the sequence of f = 0)."""
        return all(t.is_zero() for t in self.terms[1:])

    def eval_at(self, t, x):
        """Numeric sum of A_n(x) t^n/n! over the known t-orders."""
        acc = 0.0
        tpow = 1.0
        fact = 1
        for n, term in enumerate(self.terms):
            if n > 0:
                tpow *= t
                fact *= n
            acc = acc + term.eval_at(x) * (tpow / fact)
        return acc


def autonomous_sequence(f, order_t):
    """Terms A_0 .. A_M via the product recursion A_{n+1} = f * d(A_n)."""
    _check_depth(f, order_t)
    terms = [HurwitzSeries.x(f.order, f.domain), f]
    for _ in range(order_t - 1):
        terms.append(mul_truncating(f, terms[-1].derivative()))
    return AutonomousSequence(f, terms)


def autonomous_sequence_bell(f, order_t):
    """The same terms through partitions and Bell polynomial evaluation.

    Term n+1 is Faa di Bruno's sum over the partitions j of n: the integer
    partition weight times the product P_j of earlier terms A_m (one factor
    per part of size m) times the k-th derivative of f, k the partition
    length.  Every factor is first truncated to A_{n+1}'s honest order
    N - n; nothing is lost, since coefficient i of a product reads only
    coefficients <= i of its factors.  Each P_j is formed once, as A_L times
    P_j' truncated, where L is the largest part of j and j' the partition
    of n - L left without it; the weighted products of each length k are
    summed before their one multiplication by f^(k).
    """
    _check_depth(f, order_t)
    derivs = [f]
    for _ in range(order_t - 1):
        derivs.append(derivs[-1].derivative())
    terms = [HurwitzSeries.x(f.order, f.domain), f]
    products = {}  # P_j by multiplicity vector j
    for n in range(1, order_t):
        order = f.order - n
        low = [t.truncate(order) for t in terms]
        by_length = {}
        for j in iter_partitions(n):
            largest = n - next(i for i, jm in enumerate(reversed(j)) if jm)
            rest = (*j[: largest - 1], j[largest - 1] - 1, *j[largest:])[: n - largest]
            prod = low[largest] * products[rest].truncate(order) if rest else low[largest]
            products[j] = prod
            weighted = prod.scale(partition_weight(j))
            k = sum(j)
            by_length[k] = weighted + by_length[k] if k in by_length else weighted
        acc = None
        for k, weighted in by_length.items():
            term = derivs[k].truncate(order) * weighted
            acc = term if acc is None else acc + term
        terms.append(acc)
    return AutonomousSequence(f, terms)


def box_plus(a, b):
    """Sum in the sequence ring: the sequence of the field a.field + b.field."""
    _check_match(a, b)
    return autonomous_sequence(a.field + b.field, a.order_t)


def box_dot(a, b):
    """Product in the sequence ring: the sequence of a.field * b.field."""
    _check_match(a, b)
    return autonomous_sequence(a.field * b.field, a.order_t)


def scalar_action(value, seq):
    """Scale term n by value**n; equals the sequence of the scaled field."""
    terms = [term.scale(value**n) for n, term in enumerate(seq.terms[1:], 1)]
    return AutonomousSequence(seq.field.scale(value), [seq.terms[0], *terms])


def sum_interaction_terms(seq_f, seq_g):
    """[H_1, .., H_M] from the recurrence, given the sequences of f and g.

    H_n sits at position n - 1 and equals A_n(f+g) - A_n(f) - A_n(g).
    The fields need equal orders and one domain, the sequences equal
    t-orders M >= 2.
    """
    f, g = seq_f.field, seq_g.field
    if f.domain is not g.domain:
        raise DomainMismatchError("interaction terms need one domain")
    if f.order != g.order:
        raise OrderMismatchError("interaction terms need equal field orders")
    if seq_f.order_t != seq_g.order_t:
        raise OrderMismatchError("interaction terms need equal t-orders")
    order_t = seq_f.order_t
    if order_t < 2:
        raise OutOfRangeError("interaction terms are defined for order_t >= 2")
    total = f + g
    h = [HurwitzSeries.zeros(f.order, f.domain)]
    for n in range(1, order_t):
        t1 = mul_truncating(f, seq_g.terms[n].derivative())
        t2 = mul_truncating(g, seq_f.terms[n].derivative())
        t3 = mul_truncating(total, h[-1].derivative())
        h.append(add_truncating(add_truncating(t1, t2), t3))
    return h


def _check_depth(f, order_t):
    if order_t < 1:
        raise OutOfRangeError("order_t must be at least 1")
    if f.order < order_t:
        raise OrderExhaustedError(
            f"field order {f.order} cannot support {order_t} sequence terms"
        )


def _check_match(a, b):
    if a.domain is not b.domain:
        raise DomainMismatchError("sequence operands come from different domains")
    if a.order_t != b.order_t or a.field.order != b.field.order:
        raise OrderMismatchError("sequence operands have different truncation orders")
