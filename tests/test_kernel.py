"""The exact product kernel at the edges of its bounds.

Coefficients sit exactly at each a-priori bound, with worst-case signs:
products and basis changes run in float64 just below 2^53 and on Python
ints from 2^53 on, and coefficient arrays are stored as int64 just below
2^62 and as Python ints from 2^62 on.  Every result is compared with the
reference (object) path and with the pure-Python CycScalar ring.
"""

from math import isqrt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from etfkit import cyclo
from etfkit.cyclo import CycMatrix, CycScalar

F64 = 2**53
STORE = 2**62
ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 15, 16, 30, 32, 42]
EDGE = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)


def signed(data, order: int, rows: int, cols: int, mag: int) -> CycMatrix:
    """A matrix whose coefficients are +-mag or +-(mag - 1), the first one
    +-mag; all of one sign or signed one by one; handed over as int64 or as
    Python ints.  Mixing mag and mag - 1 leaves odd low bits in the sums, so
    one that overflowed float64's 53 bits would round."""
    size = rows * cols * cyclo._ring(order).degree
    if data.draw(st.booleans(), label="one sign"):
        signs = [data.draw(st.sampled_from([-1, 1]))] * size
    else:
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=size,
                                   max_size=size))
    cuts = [0] + data.draw(st.lists(st.integers(0, 1), min_size=size - 1,
                                    max_size=size - 1))
    arr = np.array([s * (mag - cut) for s, cut in zip(signs, cuts)],
                   dtype=object)
    if data.draw(st.booleans(), label="int64 input"):
        arr = arr.astype(np.int64)
    return CycMatrix(order, arr.reshape(rows, cols, -1))


def edge(data, const: int) -> tuple[int, int, bool]:
    """(ma, mb, over): ma * mb * const is the largest such product below
    2^53, or, when `over`, mb is one larger and the product is >= 2^53."""
    ma = data.draw(st.integers(1, (F64 - 1) // const), label="ma")
    over = data.draw(st.booleans(), label="over")
    return ma, (F64 - 1) // (ma * const) + over, over


def entries(m: CycMatrix) -> list[list[CycScalar]]:
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def scalar_matmul(a: CycMatrix, b: CycMatrix) -> list[list[CycScalar]]:
    zero = CycScalar.zero(a.order)
    return [[sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)), zero)
             for j in range(b.cols)] for i in range(a.rows)]


def assert_stored(m: CycMatrix) -> None:
    """int64 exactly when every coefficient is below 2^62 in magnitude."""
    big = max(abs(int(c)) for c in m.array.flat)
    assert m.array.dtype == (np.int64 if big < STORE else object)


@EDGE
@given(data=st.data())
def test_matmul_at_the_float64_bound(kernel_paths, data):
    n = data.draw(st.sampled_from(ORDERS))
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    ring = cyclo._ring(n)
    d = ring.degree
    ma, mb, over = edge(data, k * d * ring.fold_l1)
    a = signed(data, n, r, k, ma)
    b = signed(data, n, k, c, mb)
    with kernel_paths() as seen:
        prod = a @ b
    assert seen == [object if over else np.float64]
    with kernel_paths(force=object):
        assert prod == a @ b
    assert entries(prod) == scalar_matmul(a, b)
    assert_stored(prod)


@EDGE
@given(data=st.data())
def test_entrywise_and_kron_at_the_float64_bound(kernel_paths, data):
    n = data.draw(st.sampled_from(ORDERS))
    r, c = (data.draw(st.integers(1, 2)) for _ in range(2))
    ring = cyclo._ring(n)
    d = ring.degree
    ma, mb, over = edge(data, d * ring.fold_l1)
    a = signed(data, n, r, c, ma)
    b = signed(data, n, r, c, mb)
    with kernel_paths() as seen:
        had = a.entrywise_mul(b)
        kr = a.kron(b)
    assert seen == [object if over else np.float64] * 2
    with kernel_paths(force=object):
        assert had == a.entrywise_mul(b) and kr == a.kron(b)
    assert entries(had) == [[a.entry(i, j) * b.entry(i, j)
                             for j in range(c)] for i in range(r)]
    assert entries(kr) == [[a.entry(i // r, j // c) * b.entry(i % r, j % c)
                            for j in range(c * c)] for i in range(r * r)]
    assert_stored(had)
    assert_stored(kr)


@EDGE
@given(data=st.data())
def test_scalar_mul_at_the_float64_bound(kernel_paths, data):
    n = data.draw(st.sampled_from(ORDERS))
    r, c = (data.draw(st.integers(1, 3)) for _ in range(2))
    ring = cyclo._ring(n)
    ma, mb, over = edge(data, ring.degree * ring.fold_l1)
    a = signed(data, n, r, c, ma)
    s = signed(data, n, 1, 1, mb).entry(0, 0)
    with kernel_paths() as seen:
        got = a.scalar_mul(s)
    assert seen == [object if over else np.float64]
    with kernel_paths(force=object):
        assert got == a.scalar_mul(s)
    assert entries(got) == [[a.entry(i, j) * s for j in range(c)]
                            for i in range(r)]
    assert_stored(got)


@EDGE
@given(data=st.data())
def test_adjoint_and_lift_at_the_float64_bound(kernel_paths, data):
    n = data.draw(st.sampled_from(ORDERS))
    target = n * data.draw(st.sampled_from([2, 3]))
    r, c = (data.draw(st.integers(1, 3)) for _ in range(2))
    ring = cyclo._ring(n)
    over = data.draw(st.booleans())
    cases = [
        (CycMatrix.adjoint, ring.conj_l1,
         lambda a, i, j: a.entry(j, i).conjugate()),
        (lambda a: a.lift_to_order(target), cyclo._lift_map(n, target)[1],
         lambda a, i, j: a.entry(i, j).lift_to_order(target)),
    ]
    for op, l1, oracle in cases:
        a = signed(data, n, r, c, (F64 - 1) // (ring.degree * l1) + over)
        with kernel_paths() as seen:
            got = op(a)
        assert seen == [object if over else np.float64]
        with kernel_paths(force=object):
            assert got == op(a)
        assert entries(got) == [[oracle(a, i, j) for j in range(got.cols)]
                                for i in range(got.rows)]
        assert_stored(got)


@EDGE
@given(data=st.data())
def test_storage_at_the_int64_bound(data):
    n = data.draw(st.sampled_from(ORDERS))
    r, c = (data.draw(st.integers(1, 2)) for _ in range(2))
    a = signed(data, n, r, c, STORE - 1 + data.draw(st.integers(0, 1)))
    b = signed(data, n, r, c, STORE - 1)
    s = data.draw(st.integers(-3, 3))
    assert_stored(a)
    assert_stored(b)
    cases = [
        (a + b, lambda i, j: a.entry(i, j) + b.entry(i, j)),
        (a - b, lambda i, j: a.entry(i, j) - b.entry(i, j)),
        (-a, lambda i, j: -a.entry(i, j)),
        (a.scalar_mul(s), lambda i, j: a.entry(i, j) * s),
    ]
    for got, oracle in cases:
        assert entries(got) == [[oracle(i, j) for j in range(c)]
                                for i in range(r)]
        assert_stored(got)
    # a product whose sums straddle the storage bound
    k = data.draw(st.integers(1, 3))
    mag = isqrt(STORE // k) + data.draw(st.integers(-1, 1))
    x = signed(data, n, r, k, mag)
    y = signed(data, n, k, c, mag)
    prod = x @ y
    assert entries(prod) == scalar_matmul(x, y)
    assert_stored(prod)


def test_zero_operand_is_exact_in_float64(kernel_paths):
    # bound 0: the other operand's coefficients, far past 2^53, are rounded
    # in float64, but every product with 0.0 is an exact 0.0
    big = CycMatrix(15, np.full((2, 2, 8), 2**200 + 1, dtype=object))
    zero = CycMatrix.zeros(2, 2, 15)
    with kernel_paths() as seen:
        results = [zero @ big, big @ zero, zero.entrywise_mul(big),
                   big.kron(zero), zero.scalar_mul(big.entry(0, 0))]
    assert seen == [np.float64] * 5
    for got in results:
        assert got.is_zero and got.array.dtype == np.int64
