"""Integer partitions and exact Bell polynomial evaluation.

Partitions of n are represented as multiplicity vectors (j_1, ..., j_n)
with sum h * j_h = n, where j_h counts the parts of size h.  The partial
Bell polynomial is

    B_{n,k}(b_1..b_n) = sum over partitions with j_1+...+j_n = k of
        n! / (j_1! ... j_n!) * prod_m (b_m / m!)^(j_m)

and the combined integer weight n! / prod_m (j_m! * (m!)^(j_m)) is used
directly, so evaluation stays exact over any commutative coefficient
ring.  The full polynomial Y_n(b; a) = sum_k B_{n,k}(b) a_k comes from
Comtet's recurrence on the B_{m,k} instead, in O(n^3) scalar products, so
``bell_polynomial`` and ``partial_bell`` are two independent computations.
"""

from __future__ import annotations

from math import comb, factorial

from .errors import OutOfRangeError

MAX_PARTITION_SIZE = 64


def iter_partitions(n):
    """Yield the multiplicity vectors of the partitions of n, lexicographically.

    The first is (0, .., 0, 1).  The successor raises the last j_p that
    can grow, with tail = sum_{h>p} h j_h the amount above it: by one when
    the tail left after one more p, tail - p, still exceeds p (it becomes
    the single part j_{tail-p} = 1), else all the way to j_p + tail / p
    when p divides the tail, which leaves nothing above p.
    """
    if n < 1 or n > MAX_PARTITION_SIZE:
        raise OutOfRangeError(f"partitions({n}) is out of range 1..{MAX_PARTITION_SIZE}")
    j = [0] * (n + 1)  # j[p] counts the parts of size p; j[0] is unused
    j[n] = 1
    while True:
        yield tuple(j[1:])
        tail = 0
        for p in range(n, 0, -1):
            if tail - p > p or (tail and tail % p == 0):
                break
            tail += p * j[p]
        else:
            return
        j[p + 1 :] = [0] * (n - p)
        if tail - p > p:
            j[p] += 1
            j[tail - p] = 1
        else:
            j[p] += tail // p


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
    """Exact Y_n(b_1..b_n; a_1..a_n) = sum_k B_{n,k}(b) a_k, by Comtet's recurrence.

    B_{m,1} = b_m and B_{m,k} = sum_{i=1..m-k+1} C(m-1, i-1) b_i B_{m-i,k-1}
    (Comtet, Advanced Combinatorics, 1974, 3.3): O(n^3) scalar products and
    no partition, where ``partial_bell`` walks the partitions of n.
    """
    if n < 1:
        raise OutOfRangeError("bell_polynomial needs n >= 1")
    if len(a) < n or len(b) < n:
        raise OutOfRangeError(f"bell_polynomial({n}) needs {n} a- and b-arguments")
    if n > MAX_PARTITION_SIZE:
        raise OutOfRangeError(f"bell_polynomial({n}) is out of range 1..{MAX_PARTITION_SIZE}")
    # table[m][k - 1] = B_{m,k} for 1 <= k <= m <= n
    table = [()]
    for m in range(1, n + 1):
        row = [b[m - 1]]
        for k in range(2, m + 1):
            row.append(
                sum(
                    comb(m - 1, i - 1) * b[i - 1] * table[m - i][k - 2]
                    for i in range(1, m - k + 2)
                )
            )
        table.append(row)
    return sum(bk * ak for bk, ak in zip(table[n], a))
