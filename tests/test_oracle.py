"""The reference ring's arrays against its lists."""

import random

import numpy as np
import pytest

import oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 10, 12, 30])
def test_arrays_match_the_lists(n):
    # magnitudes whose products fall below 2^53, between 2^53 and 2^63,
    # and past 2^63: float64, int64 and Python-int arithmetic
    rng = random.Random(n)
    d = oracle.degree(n)
    for mag in (3, 2**20, 2**29, 2**62):
        a, b = ([[tuple(rng.randint(-mag, mag) for _ in range(d))
                  for _ in range(cols)] for _ in range(rows)]
                for rows, cols in ((4, 3), (3, 2)))
        x, y = np.array(a, dtype=object), np.array(b, dtype=object)
        assert oracle.entries(oracle.matmul_array(n, x, y)) == oracle.matmul(
            n, a, b)
        assert oracle.entries(oracle.mul_array(n, x[:3, :2], y)) == [
            [oracle.mul(n, u, v) for u, v in zip(r, s)] for r, s in zip(a, b)]
        assert oracle.entries(oracle.adjoint_array(n, x)) == [
            [oracle.conj(n, r[c]) for r in a] for c in range(3)]
        assert oracle.entries(oracle.abs2_array(n, x)) == [
            [oracle.abs2(n, u) for u in r] for r in a]

