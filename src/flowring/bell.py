"""Integer partitions and exact Bell polynomial evaluation.

Partitions of n are represented as multiplicity vectors (j_1, ..., j_n)
with sum h * j_h = n, where j_h counts the parts of size h.  The partial
Bell polynomial is

    B_{n,k}(b_1..b_n) = sum over partitions with j_1+...+j_n = k of
        n! / (j_1! ... j_n!) * prod_m (b_m / m!)^(j_m)

and the combined integer weight n! / prod_m (j_m! * (m!)^(j_m)) is used
directly, so evaluation stays exact over any commutative coefficient
ring.  The full polynomial Y_n(b; a) = sum_k B_{n,k}(b) a_k takes one walk
over the partitions of n, a partition of length k = sum j_m weighting a_k.
"""

from __future__ import annotations

from math import factorial

from .errors import OutOfRangeError

MAX_PARTITION_SIZE = 64


def iter_partitions(n):
    """Yield the multiplicity vectors of the partitions of n, lexicographically."""
    if n < 1 or n > MAX_PARTITION_SIZE:
        raise OutOfRangeError(f"partitions({n}) is out of range 1..{MAX_PARTITION_SIZE}")

    def rec(prefix, part, remaining):
        if part > n:
            if remaining == 0:
                yield tuple(prefix)
            return
        if remaining == 0:
            yield tuple(prefix) + (0,) * (n - part + 1)
            return
        if part > remaining:
            # no part of this size or larger fits
            return
        for count in range(remaining // part + 1):
            prefix.append(count)
            yield from rec(prefix, part + 1, remaining - count * part)
            prefix.pop()

    yield from rec([], 1, n)


def partitions(n):
    """All multiplicity vectors of the partitions of n, as a list."""
    return list(iter_partitions(n))


def partition_weight(j):
    """Integer n! / prod_m (j_m! * (m!)^(j_m)) for a multiplicity vector."""
    n = sum(m * jm for m, jm in enumerate(j, start=1))
    denom = 1
    for m, jm in enumerate(j, start=1):
        if jm:
            denom *= factorial(jm) * factorial(m) ** jm
    return factorial(n) // denom


def partial_bell(n, k, b):
    """Exact B_{n,k} evaluated at b = (b_1, b_2, ...)."""
    if n < 1 or k < 1 or k > n:
        raise OutOfRangeError(f"partial_bell({n}, {k}) needs 1 <= k <= n")
    if len(b) < n:
        raise OutOfRangeError(f"partial_bell({n}, {k}) needs at least {n} b-arguments")
    acc = None
    for j in iter_partitions(n):
        if sum(j) != k:
            continue
        term = partition_weight(j)
        for m, jm in enumerate(j, start=1):
            if jm:
                term = term * b[m - 1] ** jm
        acc = term if acc is None else acc + term
    return acc


def bell_polynomial(n, b, a):
    """Exact Y_n(b_1..b_n; a_1..a_n) = sum_k B_{n,k}(b) a_k, in one partition walk."""
    if n < 1:
        raise OutOfRangeError("bell_polynomial needs n >= 1")
    if len(a) < n or len(b) < n:
        raise OutOfRangeError(f"bell_polynomial({n}) needs {n} a- and b-arguments")
    acc = None
    for j in iter_partitions(n):
        term = partition_weight(j) * a[sum(j) - 1]
        for m, jm in enumerate(j, start=1):
            if jm:
                term = term * b[m - 1] ** jm
        acc = term if acc is None else acc + term
    return acc
