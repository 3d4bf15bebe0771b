"""Exact cyclotomic arithmetic: canonical forms, scalars, matrix ops.

The matrices are checked against the reference ring of oracle.py, whose
own ring axioms and canonical forms are checked here against complex
values; the library uses float64 only for integer products that an
a-priori bound keeps exact (see test_kernel.py).
"""

import cmath
import random
import time

import numpy as np
import pytest
import sympy

import oracle
from etfkit import cyclo
from etfkit.cyclo import (
    CycMatrix,
    CycScalar,
    DimensionMismatchError,
    OrderMismatchError,
    cyclotomic_polynomial,
)


# ---------------------------------------------------------------------------
# oracles


def poly_div_oracle(num: list[int], den: list[int]) -> list[int]:
    """Brute-force long division of integer polynomials, little-endian."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        assert num[i + len(den) - 1] % den[-1] == 0
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num), "nonzero remainder"
    return q


def poly_mul_oracle(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_scalar(rng: random.Random, order: int,
                  terms: int = 8) -> tuple[int, ...]:
    """A sum of up to `terms` random roots of unity, in the oracle ring."""
    s = oracle.const(order, 0)
    for _ in range(rng.randint(0, terms)):
        s = oracle.add(s, oracle.root(order, rng.randrange(order)))
    return s


def matrix_of(order: int, rows) -> CycMatrix:
    """The CycMatrix of nested coefficient tuples."""
    return CycMatrix(order, np.array(rows, dtype=np.int64))


def random_matrix(rng, rows, cols, order):
    return matrix_of(order, [[random_scalar(rng, order, 3)
                              for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)           # x - 1
    assert cyclotomic_polynomial(3) == (1, 1, 1)         # x^2 + x + 1


def test_cyclotomic_6_against_division_oracle():
    # Phi_6 = (x^6 - 1) / (Phi_1 * Phi_2 * Phi_3), all factors forced
    x6 = [-1, 0, 0, 0, 0, 0, 1]
    den = poly_mul_oracle(poly_mul_oracle([-1, 1], [1, 1]), [1, 1, 1])
    assert poly_div_oracle(x6, den) == [1, -1, 1]
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclotomic_matches_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


def _division_cyclotomic(n: int, cache: dict) -> list[int]:
    """Phi_n by exact division of x^n - 1 by Phi_d for every proper divisor
    d: the algorithm before the sparse product, kept as an oracle."""
    if n not in cache:
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                num = poly_div_oracle(num, _division_cyclotomic(d, cache))
        cache[n] = num
    return cache[n]


def test_cyclotomic_sparse_product_matches_division_up_to_500():
    cache = {}
    for n in range(1, 501):
        assert list(cyclotomic_polynomial(n)) == _division_cyclotomic(n, cache)


def test_cyclotomic_30030_is_fast():
    cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    phi = cyclotomic_polynomial(30030)
    assert time.perf_counter() - start < 1
    assert len(phi) == 5761 and phi[0] == phi[-1] == 1
    # Phi_30030(x) = Phi_15015(-x), the odd part of 30030 being 15015
    assert phi == tuple((-1) ** i * c
                        for i, c in enumerate(cyclotomic_polynomial(15015)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 30, 42,
                               105, 210, 331, 1155, 2003])
def test_points_invert_the_vandermonde_matrix(n):
    # V^-1 V = I mod p on the first two primes of the ladder of width d:
    # row j of V^-1 is the dual basis element of point j, found by
    # synthetic division.  The conjugate r_j^-1 of point j is point
    # d - 1 - j, so conjugation reads the values backwards
    ring = cyclo._ring(n)
    d = ring.degree
    primes = ring.primes(d, 2**80)[:2]
    assert len(primes) == 2
    for p in primes:
        pts = cyclo._points(n, p)
        got = cyclo._reduce(pts.vinv.T @ pts.v.T, p)
        assert np.array_equal(got, np.eye(d))
        if d > 1:                   # row 1 of V holds the points
            r = pts.v[1]
            assert np.array_equal(cyclo._reduce(r * r[::-1], p), np.ones(d))


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


# ---------------------------------------------------------------------------
# the reference ring: roots of unity, canonical forms and ring operations


@pytest.mark.parametrize("n", list(range(1, 61)) + [105, 210, 2003])
def test_oracle_cyclotomic_matches_the_library(n):
    # two algorithms: the Moebius product, divided once, and the sparse
    # product over the radical
    assert oracle.cyclotomic(n) == cyclotomic_polynomial(n)


def test_root_of_unity_examples():
    assert oracle.root(4, 0) == oracle.const(4, 1)
    assert oracle.root(3, 2) == (-1, -1)    # zeta3^2 = -1 - zeta3
    assert oracle.root(2, 1) == (-1,)


def test_root_exponent_wraps():
    assert oracle.root(5, 7) == oracle.root(5, 2)
    assert oracle.root(5, -3) == oracle.root(5, 2)


def test_canonical_form_sound_numerically():
    rng = random.Random(20260810)
    for _ in range(300):
        n = rng.randint(1, 24)
        exps = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
        s = oracle.const(n, 0)
        for k in exps:
            s = oracle.add(s, oracle.root(n, k))
        direct = sum(cmath.exp(2j * cmath.pi * k / n) for k in exps)
        assert abs(oracle.value(n, s) - direct) < 1e-9


def test_ring_op_examples():
    z3, z3sq = oracle.root(3, 1), oracle.root(3, 2)
    assert oracle.mul(3, z3, z3sq) == oracle.const(3, 1)
    assert oracle.add(oracle.add(oracle.const(3, 1), z3), z3sq) == (0, 0)
    z4, one = oracle.root(4, 1), oracle.const(4, 1)
    assert oracle.mul(4, oracle.add(one, z4), oracle.add(
        one, oracle.scale(-1, z4))) == oracle.const(4, 2)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 20)
        a, b, c = (random_scalar(rng, n, 5) for _ in range(3))
        add, mul = oracle.add, lambda x, y: oracle.mul(n, x, y)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert abs(oracle.value(n, mul(a, b))
                   - oracle.value(n, a) * oracle.value(n, b)) < 1e-6


def test_order_mismatch_raises():
    # a lift goes only to a multiple of the order
    with pytest.raises(OrderMismatchError):
        CycScalar(3, oracle.root(3, 1)).lift_to_order(4)
    with pytest.raises(OrderMismatchError):
        CycMatrix.identity(2, 3).lift_to_order(4)


def test_conjugate_is_multiplicative():
    # the oracle's conjugate, on products
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 18)
        a, b = random_scalar(rng, n), random_scalar(rng, n)
        ab = oracle.mul(n, a, b)
        assert oracle.mul(n, oracle.conj(n, a), oracle.conj(n, b)) == (
            oracle.conj(n, ab))
        assert oracle.abs2(n, ab) == oracle.mul(
            n, oracle.abs2(n, a), oracle.abs2(n, b))
        assert abs(oracle.value(n, oracle.conj(n, a))
                   - oracle.value(n, a).conjugate()) < 1e-9


def test_abs_squared_examples():
    assert oracle.abs2(5, oracle.root(5, 3)) == oracle.const(5, 1)
    v = oracle.add(oracle.const(3, 1), oracle.root(3, 1))  # -zeta3^2
    a2 = CycScalar(3, oracle.abs2(3, v))
    assert a2.is_rational_integer and a2.as_integer() == 1
    assert abs(abs(oracle.value(3, v)) ** 2 - 1) < 1e-12
    assert oracle.abs2(7, oracle.const(7, 0)) == oracle.const(7, 0)
    mixed = oracle.add(oracle.const(5, 1), oracle.root(5, 1))
    m2 = CycScalar(5, oracle.abs2(5, mixed))
    assert not m2.is_rational_integer and m2.as_integer() is None


def test_lift_examples():
    m1 = CycScalar.from_int(-1, 2)
    lifted = m1.lift_to_order(6)
    assert lifted.coeffs == oracle.root(6, 3) == (-1, 0)
    a = CycScalar(5, random_scalar(random.Random(3), 5))
    assert a.lift_to_order(5) is a
    assert CycScalar.from_int(1, 1).lift_to_order(12) == \
        CycScalar.from_int(1, 12)
    with pytest.raises(OrderMismatchError):
        CycScalar(4, oracle.root(4, 1)).lift_to_order(6)


def test_lift_preserves_value():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([1, 2, 3, 4, 6, 8, 12])
        a = random_scalar(rng, n)
        b = CycScalar(n, a).lift_to_order(24)
        assert b.coeffs == oracle.lift(a, n, 24)
        assert abs(oracle.value(n, a) - oracle.value(24, b.coeffs)) < 1e-9
        assert CycScalar(n, a) == b   # cross-order equality lifts to the lcm


def test_scalar_immutable():
    a = CycScalar(3, oracle.root(3, 1))
    with pytest.raises(AttributeError):
        a.coeffs = (0, 0)


# ---------------------------------------------------------------------------
# matrices


def fourier_cyc(n: int) -> CycMatrix:
    return matrix_of(n, [[oracle.root(n, j * k) for k in range(n)]
                         for j in range(n)])


def test_adjoint_involution():
    rng = random.Random(5)
    a = random_matrix(rng, 3, 4, 12)
    assert a.adjoint().adjoint() == a


def test_kron_block_structure():
    i2 = CycMatrix.identity(2)
    j3 = CycMatrix.ones(3, 3)
    k = i2.kron(j3)
    assert k.shape == (6, 6)
    assert k.submatrix(slice(0, 3), slice(0, 3)) == j3
    assert k.submatrix(slice(0, 3), slice(3, 6)) == CycMatrix.zeros(3, 3)
    assert k.submatrix(slice(3, 6), slice(3, 6)) == j3


def test_fourier_tail_is_regular_simplex():
    f = fourier_cyc(3).submatrix(slice(1, 3), slice(0, 3))
    lhs = f @ f.adjoint()
    assert lhs == CycMatrix.identity(2, 3).scalar_mul(3)
    rhs = f.adjoint() @ f
    expected = CycMatrix.identity(3, 3).scalar_mul(3) - CycMatrix.ones(3, 3)
    assert rhs == expected


def test_matmul_adjoint_reversal():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([2, 3, 4, 6, 10])
        a = random_matrix(rng, 2, 3, n)
        b = random_matrix(rng, 3, 2, n)
        assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        CycMatrix.identity(2) @ CycMatrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        CycMatrix.identity(2) + CycMatrix.identity(3)


def test_mixed_order_ops_lift_to_lcm():
    a = CycMatrix.from_scalars([[CycScalar(2, oracle.root(2, 1))]])
    b = CycMatrix.from_scalars([[CycScalar(3, oracle.root(3, 1))]])
    prod = a @ b
    assert prod.order == 6
    assert prod.entry(0, 0).coeffs == oracle.root(6, 5)  # -zeta3 = zeta6^5


def scalar_path_matmul(a: CycMatrix,
                       b: CycMatrix) -> list[list[tuple[int, ...]]]:
    """Independent oracle: the reference ring, entry by entry."""
    return oracle.matmul(a.order, oracle.entries(a.array),
                         oracle.entries(b.array))


@pytest.mark.parametrize("order", [5, 7, 12, 15, 23, 24])
def test_matmul_matches_scalar_oracle(order):
    rng = random.Random(order)
    a = random_matrix(rng, 3, 4, order)
    b = random_matrix(rng, 4, 2, order)
    prod = a @ b
    assert oracle.entries(prod.array) == scalar_path_matmul(a, b)


def test_matmul_object_path_matches_scalar_oracle():
    # coefficients far beyond int64: the product runs modulo several primes
    rng = random.Random(99)
    big = CycScalar.from_int(3**40, order=12)
    a = random_matrix(rng, 3, 3, 12).scalar_mul(big)
    b = random_matrix(rng, 3, 3, 12).scalar_mul(big)
    prod = a @ b
    assert oracle.entries(prod.array) == scalar_path_matmul(a, b)


def test_big_coefficients_stay_exact():
    # a result past the int64 bound is stored as Python ints
    c = CycScalar.from_int(3**50, order=4)
    a = CycMatrix.identity(2, 4).scalar_mul(c)
    sq = a @ a
    assert sq.entry(0, 0) == CycScalar.from_int(3**100, order=4)
    assert sq.entry(0, 1) == 0


def test_entry_roundtrip_and_stacks():
    rng = random.Random(23)
    a = random_matrix(rng, 2, 2, 5)
    b = random_matrix(rng, 2, 2, 5)
    v = CycMatrix.vstack([a, b])
    h = CycMatrix.hstack([a, b])
    d = CycMatrix.block_diag([a, b])
    assert v.shape == (4, 2) and h.shape == (2, 4) and d.shape == (4, 4)
    assert v.entry(2, 1) == b.entry(0, 1)
    assert h.entry(1, 3) == b.entry(1, 1)
    assert d.entry(3, 3) == b.entry(1, 1)
    assert d.entry(0, 3) == 0


def test_abs_squared_entries_matches_scalar_path():
    rng = random.Random(29)
    m = random_matrix(rng, 3, 3, 8)
    sq = m.abs_squared_entries()
    assert oracle.entries(sq.array) == [
        [oracle.abs2(8, x) for x in row] for row in oracle.entries(m.array)]


def test_from_int_matrix_and_scalar_mul():
    m = CycMatrix.from_int_matrix(np.array([[1, -1], [0, 2]]))
    assert m.entry(0, 1) == -1
    doubled = m.scalar_mul(2)
    assert doubled.entry(1, 1) == 4
    assert (-m).entry(0, 0) == -1


@pytest.mark.parametrize("order", [1, 3, 12])
def test_products_with_a_zero_operand(kernel_paths, order):
    # a pass bounded by 0 runs at no prime and evaluates no operand, though
    # the other operand's coefficients are far past 2^53; each result is
    # the oracle's
    ring = cyclo._ring(order)
    d = ring.degree
    rng = np.random.default_rng(order)
    a = rng.integers(-9, 10, size=(2, 3, d)).astype(object) * 2**200
    b = rng.integers(-9, 10, size=(3, 4, d)).astype(object) * 2**200
    za, zb = np.zeros((2, 3, d), np.int64), np.zeros((3, 4, d), np.int64)
    cases = [(cyclo._matmul, za, b, oracle.matmul_array),
             (cyclo._matmul, a, zb, oracle.matmul_array),
             (cyclo._entrywise, za, a, oracle.mul_array),
             (cyclo._entrywise, a, za, oracle.mul_array),
             (cyclo._entrywise, za[:1], a, oracle.mul_array),   # broadcast
             (cyclo._entrywise, za, None, oracle.abs2_array)]   # |0|^2
    for product, x, y, reference in cases:
        want = reference(order, x) if y is None else reference(order, x, y)
        with kernel_paths() as seen:
            got = product(x, y, ring)
        assert seen == [0]
        assert got.dtype == np.int64 and np.array_equal(got, want)

