import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flowring import bell
from flowring.bell import (
    bell_polynomial,
    iter_partitions,
    partial_bell,
    partition_weight,
    partitions,
)
from flowring.errors import OutOfRangeError
from flowring.scalars import GaussianRational
from flowring.verify import _count_set_partitions, bell_composition, random_fraction

B = [Fraction(2), Fraction(-3), Fraction(5, 2), Fraction(7), Fraction(1, 3)]
A = [Fraction(1, 2), Fraction(4), Fraction(-1), Fraction(3, 5), Fraction(2)]


def test_partition_counts():
    assert len(partitions(1)) == 1
    assert len(partitions(4)) == 5
    assert len(partitions(6)) == 11


def test_partitions_of_three_lexicographic():
    assert partitions(3) == [(0, 0, 1), (1, 1, 0), (3, 0, 0)]


def test_partitions_are_valid_multiplicity_vectors():
    for n in (2, 5, 8):
        seen = set()
        for j in partitions(n):
            assert len(j) == n
            assert sum(h * jh for h, jh in enumerate(j, start=1)) == n
            seen.add(j)
        assert len(seen) == len(partitions(n))


PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


def test_partitions_are_every_partition_in_increasing_lexicographic_order():
    for n, count in enumerate(PARTITION_COUNTS, start=1):
        listed = partitions(n)
        assert all(sum(h * jh for h, jh in enumerate(j, start=1)) == n for j in listed)
        assert len(set(listed)) == len(listed) == count
        assert all(a < b for a, b in zip(listed, listed[1:]))


def test_partitions_out_of_range():
    with pytest.raises(OutOfRangeError):
        partitions(0)
    with pytest.raises(OutOfRangeError):
        partitions(65)


def test_partition_weight_counts_set_partitions():
    for n in range(1, 8):
        assert sum(partition_weight(j) for j in partitions(n)) == _count_set_partitions(n)


def test_partial_bell_displays():
    b1, b2, b3 = B[0], B[1], B[2]
    assert partial_bell(3, 2, B) == 3 * b1 * b2
    assert partial_bell(4, 4, B) == b1 ** 4
    assert partial_bell(5, 5, B) == b1 ** 5
    assert partial_bell(4, 2, B) == 4 * b1 * b3 + 3 * b2 ** 2


def test_partial_bell_out_of_range():
    with pytest.raises(OutOfRangeError):
        partial_bell(3, 4, B)
    with pytest.raises(OutOfRangeError):
        partial_bell(3, 0, B)
    with pytest.raises(OutOfRangeError):
        partial_bell(6, 2, B)


def test_bell_polynomial_displays():
    b1, b2, b3 = B[0], B[1], B[2]
    a1, a2, a3 = A[0], A[1], A[2]
    assert bell_polynomial(1, B, A) == a1 * b1
    assert bell_polynomial(2, B, A) == a1 * b2 + a2 * b1 ** 2
    assert bell_polynomial(3, B, A) == a1 * b3 + a2 * (3 * b1 * b2) + a3 * b1 ** 3


def test_bell_numbers_from_all_ones():
    ones = [Fraction(1)] * 6
    values = [sum(partial_bell(n, k, ones) for k in range(1, n + 1)) for n in range(1, 6)]
    assert values == [1, 2, 5, 15, 52]


@given(st.integers(min_value=2, max_value=7), st.data())
def test_partial_bell_scales_by_ck(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    b = [random_fraction(rng) for _ in range(n)]
    c = Fraction(data.draw(st.integers(min_value=1, max_value=9)), data.draw(st.integers(min_value=1, max_value=9)))
    assert partial_bell(n, k, [c * v for v in b]) == c ** k * partial_bell(n, k, b)


def test_composition_against_polynomial_substitution():
    outcome = bell_composition(random.Random(17), pairs=6, order=10)
    assert outcome.passed, outcome.detail


def test_bell_polynomial_draws_no_partition(monkeypatch):
    b = [Fraction(m, 7) for m in range(1, 13)]
    expected = sum(partial_bell(12, k, b) * b[12 - k] for k in range(1, 13))
    drawn = []

    def counting(n):
        for j in iter_partitions(n):
            drawn.append(j)
            yield j

    monkeypatch.setattr(bell, "iter_partitions", counting)
    assert bell_polynomial(12, b, b[::-1]) == expected
    bell_polynomial(64, list(range(1, 65)), [Fraction(1, 2)] * 64)
    assert drawn == []


def test_bell_polynomial_rejects_n_beyond_the_partition_bound():
    with pytest.raises(OutOfRangeError):
        bell_polynomial(0, B, A)
    with pytest.raises(OutOfRangeError):
        bell_polynomial(65, [1] * 65, [1] * 65)


@pytest.mark.parametrize("gaussian", [False, True])
def test_bell_polynomial_equals_the_sum_of_partial_bells(gaussian):
    rng = random.Random(23 + gaussian)

    def draw():
        value = random_fraction(rng)
        return GaussianRational(value, random_fraction(rng)) if gaussian else value

    for n in range(1, 11):
        b = [draw() for _ in range(n)]
        a = [draw() for _ in range(n)]
        expected = sum(partial_bell(n, k, b) * a[k - 1] for k in range(1, n + 1))
        assert bell_polynomial(n, b, a) == expected
