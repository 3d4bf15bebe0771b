"""The exact product kernel at the edges of its bounds.

A product runs as one float64 product when d = 1 and its a-priori bound B
is below 2^53, and otherwise modulo the fewest primes of the ring's ladder
whose product P exceeds 2B; a basis change is a product over Z (d = 1).  So the
prime count steps up at B = 2^53 and at each B = (P + 1)/2, the least bound
that P no longer covers.  Coefficients sit one below and exactly at each
step, with worst-case signs; results past 2^62 are stored as Python ints.
Every result is compared with the reference ring of oracle.py.  Naimark's
identity den G G = num G is checked the same way, at the steps of its own
bound, with no product interpolated.
"""

from fractions import Fraction
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from etfkit import cyclo
from etfkit.cyclo import CycMatrix, CycScalar
from etfkit.frames import naimark_gram

F64 = 2**53
STORE = 2**62
TOP = 2**130        # thresholds up to here: four or five primes
ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 15, 16, 30, 32, 42]
EDGE = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)


def draw_signs(data, size: int):
    """Signs for up to `size` coefficients, all one sign or signed one by
    one, each with a cut of 0 or 1 (the first 0), and whether the matrix is
    handed over as int64 (when it fits)."""
    if data.draw(st.booleans(), label="one sign"):
        signs = [data.draw(st.sampled_from([-1, 1]))] * size
    else:
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=size,
                                   max_size=size))
    cuts = [0] + data.draw(st.lists(st.integers(0, 1), min_size=size - 1,
                                    max_size=size - 1))
    return list(zip(signs, cuts)), data.draw(st.booleans(), label="int64")


def worst_signs(sign: int, size: int = 3 * 3 * 16):
    return [(sign, 0)] * size, False


def matrix(signs, order: int, rows: int, cols: int, mag: int) -> CycMatrix:
    """A matrix whose coefficients are sign * (mag - cut).  Mixing mag and
    mag - 1 leaves odd low bits in the sums, so one that overflowed
    float64's 53 bits would round."""
    size = rows * cols * cyclo._ring(order).degree
    marks, as_int64 = signs
    arr = np.array([s * (mag - cut) for s, cut in marks[:size]],
                   dtype=object)
    if as_int64 and mag < 2**63:
        arr = arr.astype(np.int64)
    return CycMatrix(order, arr.reshape(rows, cols, -1))


def signed(data, order: int, rows: int, cols: int, mag: int) -> CycMatrix:
    size = rows * cols * cyclo._ring(order).degree
    return matrix(draw_signs(data, size), order, rows, cols, mag)


def steps(ring, width: int) -> list[int]:
    """The bounds below TOP at which the prime count steps up."""
    out, whole = [F64 if ring.degree == 1 else 1], 1
    for p in ring.primes(width, TOP):
        whole *= p
        if out[0] < (whole + 1) // 2 <= TOP:
            out.append((whole + 1) // 2)
    return out


def expected_primes(ring, width: int, bound: int) -> int:
    """The length of the least ladder prefix whose product exceeds 2B; 0
    for a zero result or a float64 product."""
    if bound == 0 or (ring.degree == 1 and bound < F64):
        return 0
    count, whole = 0, 1
    for p in ring.primes(width, max(bound, TOP)):
        if whole > 2 * bound:
            break
        whole *= p
        count += 1
    return count


def edges(ring, width: int, const: int, pick):
    """(ma, mb, B) one below and at every step: B = ma mb const is the
    largest such product below the step, then mb is one larger and B is at
    or past it.  `pick` chooses ma in [1, (step - 1) // const]; below the
    smallest steps no product of positive magnitudes fits."""
    for step in steps(ring, width):
        room = (step - 1) // const
        ma = pick(room) if room else 1
        mb = room // ma
        for m in (mb, mb + 1) if mb else (1,):
            bound = ma * m * const
            assert (bound >= step) == (m > mb)
            yield ma, m, bound


def entries(m: CycMatrix) -> list[list[tuple[int, ...]]]:
    return oracle.entries(m.array)


def scalar_matmul(a: CycMatrix, b: CycMatrix) -> list[list[tuple[int, ...]]]:
    return oracle.matmul(a.order, entries(a), entries(b))


def assert_stored(m: CycMatrix) -> None:
    """int64 exactly when every coefficient is below 2^62 in magnitude."""
    big = max(abs(int(c)) for c in m.array.flat)
    assert m.array.dtype == (np.int64 if big < STORE else object)


# Each check runs one operation one below and at every step of its bound,
# and compares the prime count, the result and its storage.


def check_matmul(kernel_paths, n, dims, sa, sb, pick):
    r, k, c = dims
    ring = cyclo._ring(n)
    d = ring.degree
    width = max(k, d)
    for ma, mb, bound in edges(ring, width, k * d * ring.fold_l1,
                               pick):
        a, b = matrix(sa, n, r, k, ma), matrix(sb, n, k, c, mb)
        with kernel_paths() as seen:
            got = a @ b
        assert seen == [expected_primes(ring, width, bound)]
        assert entries(got) == scalar_matmul(a, b)
        assert_stored(got)


def check_entrywise_and_kron(kernel_paths, n, dims, sa, sb, pick):
    r, c = dims
    ring = cyclo._ring(n)
    d = ring.degree
    for ma, mb, bound in edges(ring, d, d * ring.fold_l1, pick):
        a, b = matrix(sa, n, r, c, ma), matrix(sb, n, r, c, mb)
        with kernel_paths() as seen:
            had = a.entrywise_mul(b)
            kr = a.kron(b)
        assert seen == [expected_primes(ring, d, bound)] * 2
        ea, eb = entries(a), entries(b)
        assert entries(had) == [[oracle.mul(n, ea[i][j], eb[i][j])
                                 for j in range(c)] for i in range(r)]
        assert entries(kr) == [[oracle.mul(n, ea[i // r][j // c],
                                           eb[i % r][j % c])
                                for j in range(c * c)] for i in range(r * r)]
        assert_stored(had)
        assert_stored(kr)


def check_scalar_mul(kernel_paths, n, dims, sa, sb, pick):
    r, c = dims
    ring = cyclo._ring(n)
    d = ring.degree
    for ma, mb, bound in edges(ring, d, d * ring.fold_l1, pick):
        a, s = matrix(sa, n, r, c, ma), matrix(sb, n, 1, 1, mb).entry(0, 0)
        with kernel_paths() as seen:
            got = a.scalar_mul(s)
        assert seen == [expected_primes(ring, d, bound)]
        assert entries(got) == [[oracle.mul(n, x, s.coeffs) for x in row]
                                for row in entries(a)]
        assert_stored(got)


def check_abs_squared(kernel_paths, n, dims, sa):
    # B = m (m conj_l1) d fold_l1: the largest m below each step, and the
    # next one
    r, c = dims
    ring = cyclo._ring(n)
    d = ring.degree
    const = ring.conj_l1 * d * ring.fold_l1
    for step in steps(ring, d):
        below = isqrt((step - 1) // const)
        for mag in (below, below + 1) if below else (1,):
            bound = mag * mag * const
            assert (bound >= step) == (mag > below)
            a = matrix(sa, n, r, c, mag)
            with kernel_paths() as seen:
                got = a.abs_squared_entries()
            assert seen == [expected_primes(ring, d, bound)]
            assert entries(got) == [[oracle.abs2(n, x) for x in row]
                                    for row in entries(a)]
            assert_stored(got)


def trial_division_primes(n: int, width: int, count: int) -> list[int]:
    """The `count` largest primes p = 1 (mod n) with width ((p - 1)/2)^2
    below 2^52, by trial division."""
    p = isqrt(2**54 // width) + 1
    p -= (p - 1) % n
    out = []
    while len(out) < count:
        if width * (p - 1) ** 2 < 2**54 and p % 2 and \
                all(p % f for f in range(3, isqrt(p) + 1, 2)):
            out.append(p)
        p -= n
    return out


def test_ladder_primes_match_trial_division():
    for n in ORDERS:
        for width in (1 << e for e in range(13)):
            assert list(islice(cyclo._ladder(n, width), 6)) == \
                trial_division_primes(n, width, 6), (n, width)


def test_conj_l1_is_the_largest_conjugate_coefficient():
    # coefficient j of conj(b) is b times column j of the conjugation map,
    # largest when b_i is the sign of entry (i, j): conj_l1 is the largest
    # column l1 norm.  At orders 5, 7, 10, 21, 35 and 42 the largest row
    # l1 norm is larger, so only the column norm is tight.
    for n in ORDERS + [21, 35]:
        ring = cyclo._ring(n)
        d = ring.degree
        conj = [CycScalar(n, [int(i == t) for i in range(d)]).conjugate()
                .coeffs for t in range(d)]
        tops = []
        for j in range(d):
            b = CycScalar(n, [1 if conj[i][j] >= 0 else -1 for i in range(d)])
            got = b.conjugate().coeffs
            assert max(abs(x) for x in got) <= ring.conj_l1
            tops.append(abs(got[j]))
        assert max(tops) == ring.conj_l1


def check_adjoint_and_lift(kernel_paths, n, dims, sa, target):
    # a basis change is a product over Z: B = mag d max|map|; at d = 1 the
    # conjugation map is the identity, and the adjoint runs no product
    r, c = dims
    d = cyclo._ring(n).degree
    cases = [
        (CycMatrix.adjoint, cyclo._ring(n).powers(-np.arange(d)),
         lambda a, i, j: oracle.conj(n, a[j][i]), d > 1),
        (lambda a: a.lift_to_order(target), cyclo._lift_map(n, target),
         lambda a, i, j: oracle.lift(a[i][j], n, target), True),
    ]
    z = cyclo._ring(1)
    for op, mat, expect, product in cases:
        const = d * int(np.abs(mat).max())
        for step in steps(z, d):
            below = (step - 1) // const
            for mag in (below, below + 1) if below else (1,):
                a = matrix(sa, n, r, c, mag)
                with kernel_paths() as seen:
                    got = op(a)
                assert seen == ([expected_primes(z, d, mag * const)]
                                if product else [])
                ea = entries(a)
                assert entries(got) == [[expect(ea, i, j)
                                         for j in range(got.cols)]
                                        for i in range(got.rows)]
                assert_stored(got)


def test_every_order_at_each_prime_step(kernel_paths):
    # all coefficients of one sign at full magnitude: the worst case
    for n in ORDERS:
        for sign in (1, -1):
            sa, sb = worst_signs(sign), worst_signs(-sign)
            check_matmul(kernel_paths, n, (2, 3, 2), sa, sb, lambda room: 1)
            check_entrywise_and_kron(kernel_paths, n, (1, 2), sa, sb,
                                     lambda room: 1)
            check_scalar_mul(kernel_paths, n, (2, 1), sa, sb, lambda room: 1)
            check_abs_squared(kernel_paths, n, (1, 2), sa)
            check_adjoint_and_lift(kernel_paths, n, (1, 2), sa, 2 * n)


def pick_from(data):
    return lambda room: data.draw(st.sampled_from([1, isqrt(room), room]),
                                  label="ma")


def draw_operands(data, sizes):
    n = data.draw(st.sampled_from(ORDERS))
    d = cyclo._ring(n).degree
    return n, [draw_signs(data, size * d) for size in sizes]


@EDGE
@given(data=st.data())
def test_matmul_at_the_float64_bound(kernel_paths, data):
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    n, (sa, sb) = draw_operands(data, (r * k, k * c))
    check_matmul(kernel_paths, n, (r, k, c), sa, sb, pick_from(data))


@EDGE
@given(data=st.data())
def test_entrywise_and_kron_at_the_float64_bound(kernel_paths, data):
    r, c = (data.draw(st.integers(1, 2)) for _ in range(2))
    n, (sa, sb) = draw_operands(data, (r * c, r * c))
    check_entrywise_and_kron(kernel_paths, n, (r, c), sa, sb,
                             pick_from(data))


@EDGE
@given(data=st.data())
def test_scalar_mul_at_the_float64_bound(kernel_paths, data):
    r, c = (data.draw(st.integers(1, 3)) for _ in range(2))
    n, (sa, sb) = draw_operands(data, (r * c, 1))
    check_scalar_mul(kernel_paths, n, (r, c), sa, sb, pick_from(data))


@EDGE
@given(data=st.data())
def test_abs_squared_at_each_prime_step(kernel_paths, data):
    r, c = (data.draw(st.integers(1, 3)) for _ in range(2))
    n, (sa,) = draw_operands(data, (r * c,))
    check_abs_squared(kernel_paths, n, (r, c), sa)


@EDGE
@given(data=st.data())
def test_adjoint_and_lift_at_the_float64_bound(kernel_paths, data):
    r, c = (data.draw(st.integers(1, 3)) for _ in range(2))
    n, (sa,) = draw_operands(data, (r * c,))
    check_adjoint_and_lift(kernel_paths, n, (r, c), sa,
                           n * data.draw(st.sampled_from([2, 3])))


@pytest.mark.parametrize("sign", [1, -1])
def test_symmetric_lift_at_each_prime_step(kernel_paths, sign):
    # over Z with k = 1 the bound is the product itself: (P - 1)/2, the
    # edge of the symmetric range mod P, comes back exactly, and (P + 1)/2
    # takes one more prime
    ring = cyclo._ring(1)
    one = CycMatrix.from_int_matrix(np.array([[sign]], dtype=object))
    for step in steps(ring, 1):
        for value in (step - 1, step):
            b = CycMatrix.from_int_matrix(np.array([[value]], dtype=object))
            with kernel_paths() as seen:
                got = one @ b
            assert seen == [expected_primes(ring, 1, value)]
            assert got.entry(0, 0) == sign * value
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
    ea, eb = entries(a), entries(b)
    cases = [
        (a + b, lambda x, y: oracle.add(x, y)),
        (a - b, lambda x, y: oracle.add(x, oracle.scale(-1, y))),
        (-a, lambda x, y: oracle.scale(-1, x)),
        (a.scalar_mul(s), lambda x, y: oracle.scale(s, x)),
    ]
    for got, expect in cases:
        assert entries(got) == [[expect(ea[i][j], eb[i][j]) for j in range(c)]
                                for i in range(r)]
        assert_stored(got)
    # a product whose sums straddle the storage bound
    k = data.draw(st.integers(1, 3))
    mag = isqrt(STORE // k) + data.draw(st.integers(-1, 1))
    x = signed(data, n, r, k, mag)
    y = signed(data, n, k, c, mag)
    prod_ = x @ y
    assert entries(prod_) == scalar_matmul(x, y)
    assert_stored(prod_)


def test_zero_operand_is_exact_in_float64(kernel_paths):
    # bound 0: the result is 0 without a prime or a float64 product, though
    # the other operand's coefficients are far past 2^53
    big = CycMatrix(15, np.full((2, 2, 8), 2**200 + 1, dtype=object))
    zero = CycMatrix.zeros(2, 2, 15)
    with kernel_paths() as seen:
        results = [zero @ big, big @ zero, zero.entrywise_mul(big),
                   big.kron(zero), zero.scalar_mul(big.entry(0, 0))]
    assert seen == [0] * 5
    for got in results:
        assert not got.array.any() and got.array.dtype == np.int64
    # a nonzero product of the same operand runs modulo primes
    with kernel_paths() as seen:
        sq = big @ CycMatrix.identity(2, 15)
    assert sq == big and seen[0] >= 2


def test_a_zero_space_covers_only_zeros():
    # bound 0: every value of the space is 0, so values that agree there
    # are equal only for coefficients bounded by 0
    space = cyclo._Space(cyclo._ring(3), 2, 0)
    assert space.covers(1) is False
    assert space.covers(0) is True


def naimark_tight(g: CycMatrix, a: Fraction) -> bool:
    """den G G = num G, on the reference ring."""
    return all(oracle.scale(a.denominator, x) == oracle.scale(a.numerator, y)
               for gg, gr in zip(scalar_matmul(g, g), entries(g))
               for x, y in zip(gg, gr))


def complement(g: CycMatrix, a: Fraction) -> list[list[tuple[int, ...]]]:
    """num I - den G, on the reference ring."""
    return [[oracle.add(oracle.const(g.order, a.numerator * int(i == j)),
                        oracle.scale(-a.denominator, x))
             for j, x in enumerate(row)] for i, row in enumerate(entries(g))]


def largest_below(step: int, bound_of) -> int:
    """The largest m >= 0 with bound_of(m) < step, for an increasing
    bound_of with bound_of(0) = 0 and bound_of(step) >= step."""
    lo, hi = 0, step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound_of(mid) < step else (lo, mid)
    return lo


@pytest.mark.parametrize("n", ORDERS)
def test_naimark_identity_at_each_prime_step(kernel_paths, n):
    # G = mag J_2 in slot 0 has G G = 2 mag G, so A = 2 mag is tight, and
    # den G G = num G is checked under the bound den mag^2 2 d fold_l1 +
    # |num| mag.  With one coefficient flipped, max|G| and the bound stay
    # and the identity fails.  Each G is also tried at A = (6 mag + 1)/3,
    # whose denominator is 3
    ring = cyclo._ring(n)
    d = ring.degree
    width = max(2, d)
    for den in (1, 3):
        def a_of(mag):
            return Fraction(6 * mag + 1, 3) if den == 3 else Fraction(2 * mag)

        def bound_of(mag):
            return (den * mag * mag * 2 * d * ring.fold_l1
                    + a_of(mag).numerator * mag)

        for step in steps(ring, width):
            below = largest_below(step, bound_of)
            for mag in (below, below + 1) if below else (1,):
                a, bound = a_of(mag), bound_of(mag)
                assert (bound >= step) == (mag > below)
                arr = np.zeros((2, 2, d), dtype=object)
                arr[:, :, 0] = mag
                flipped = arr.copy()
                flipped[0, 1, d - 1] = -mag
                for g, tight in ((CycMatrix(n, arr), den == 1),
                                 (CycMatrix(n, flipped), False)):
                    with kernel_paths() as seen:
                        res = naimark_gram(g, a)
                    assert seen == [expected_primes(ring, width, bound)]
                    assert res.input_tight == tight == naimark_tight(g, a)
                    if tight:   # G G = 2 mag G, so A / 3 is not tight
                        assert not naimark_gram(g, a / 3).input_tight
                    assert res.transfer_ok == res.input_tight
                    assert res.denominator == den
                    assert entries(res.complement) == complement(g, a)
                    assert_stored(res.complement)


@pytest.mark.parametrize("n", ORDERS)
def test_naimark_identity_on_a_gram_that_is_not_hermitian(monkeypatch, n):
    # G = [[1, zeta_n], [0, 0]] is idempotent, so tight at A = 1, but not
    # Hermitian: its values at the conjugate points are not the transposes
    # of its values at the points, so den G G = num G is checked at every
    # point.  With G_00 negated G G != G, and at A = 2 G G = G != 2 G.
    # H = v v* for v = (1, conj(zeta_n)) is Hermitian, and H H = 2 H: it is
    # checked at the first ceil(d/2) points
    d = cyclo._ring(n).degree
    points = []
    real = cyclo._Space.reduce
    monkeypatch.setattr(cyclo._Space, "reduce", lambda self, vals, i: (
        points.append(vals.shape[0]) or real(self, vals, i)))
    zeta = CycScalar(n, oracle.root(n, 1))
    arr = np.zeros((2, 2, d), dtype=np.int64)
    arr[0, 0, 0] = 1
    arr[0, 1] = zeta.coeffs
    flipped = arr.copy()
    flipped[0, 0, 0] = -1
    one = CycScalar.from_int(1, n)
    h = CycMatrix.from_scalars([[one, zeta], [zeta.conjugate(), one]])
    for g, a, tight, hermitian in (
            (CycMatrix(n, arr), Fraction(1), True, False),
            (CycMatrix(n, flipped), Fraction(1), False, False),
            (CycMatrix(n, arr), Fraction(2), False, False),
            (h, Fraction(2), True, True), (h, Fraction(3), False, True)):
        assert (g.adjoint() == g) == hermitian
        points.clear()
        res = naimark_gram(g, a)
        assert points and set(points) == {(d + 1) // 2 if hermitian else d}
        assert res.input_tight == tight == naimark_tight(g, a)
        assert res.transfer_ok == res.input_tight
        assert res.denominator == 1
        assert entries(res.complement) == complement(g, a)
        assert_stored(res.complement)


@pytest.mark.parametrize("n", [1, 5])
def test_empty_operands(kernel_paths, n):
    # an empty operand bounds its pass by 0: the result is its zeros, of
    # the product's shape, with no prime
    d = cyclo._ring(n).degree

    def ones(rows, cols):
        return CycMatrix.ones(rows, cols, n)

    empty = [ones(2, 0), ones(0, 3)]
    cases = [
        (lambda: ones(2, 0) @ ones(0, 3), (2, 3)),
        (lambda: ones(2, 3) @ ones(3, 0), (2, 0)),
        (lambda: ones(0, 3) @ ones(3, 2), (0, 2)),
    ] + [(lambda e=e: e.kron(ones(2, 2)), (2 * e.rows, 2 * e.cols))
         for e in empty] + [
        (lambda e=e: ones(2, 2).kron(e), (2 * e.rows, 2 * e.cols))
        for e in empty] + [
        (lambda e=e: e.abs_squared_entries(), e.shape) for e in empty] + [
        (lambda e=e: e.entrywise_mul(e), e.shape) for e in empty]
    for op, shape in cases:
        with kernel_paths() as seen:
            got = op()
        assert seen == [0]
        assert got.array.shape == shape + (d,) and not got.array.any()
        assert got.array.dtype == np.int64
    res = naimark_gram(CycMatrix.zeros(0, 0, n), 5)
    assert res.input_tight and res.complement.shape == (0, 0)
    # G = 0 is tight at any A, one past float64's range too
    big = 2**1100
    res = naimark_gram(CycMatrix.zeros(2, 2, n), big)
    assert res.input_tight and res.complement == CycMatrix.identity(
        2, n).scalar_mul(big)
