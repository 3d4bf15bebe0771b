"""A reference ring Z[zeta_n] for the tests, in pure Python and numpy.

It imports nothing from etfkit, so what it computes does not go through the
library's evaluation-space engine.  An element of Z[zeta_n] is the tuple
of its phi(n) integer coefficients in the basis 1, zeta, ..., zeta^(d-1),
d = phi(n): its canonical residue mod Phi_n.  Phi_n is the Moebius product
of the x^e - 1 over the divisors e of n; a product is a convolution folded
back by long division by Phi_n; conjugation sends x^i to x^(n - i).
Matrices are nested lists of such tuples, or, for frames too large for
lists, numpy coefficient arrays of shape (..., d) (see "arrays" below).
Beside the ring: a design's incidence matrix, and the (D, N) of Chen's
difference-set family.
"""

import cmath
from functools import lru_cache

import numpy as np


def _mobius(m: int) -> int:
    out, q = 1, 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            out = -out
        q += 1
    return -out if m > 1 else out


def _convolve(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, little-endian: the product of (x^e - 1)^mu(n/e) over the
    divisors e of n, the factors of mu = 1 multiplied, then divided
    exactly by those of mu = -1."""
    num, den = [1], [1]
    for e in range(1, n + 1):
        if n % e == 0 and (mu := _mobius(n // e)):
            factor = [-1] + [0] * (e - 1) + [1]
            if mu == 1:
                num = _convolve(num, factor)
            else:
                den = _convolve(den, factor)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):   # den is monic
        quot[i] = c = num[i + len(den) - 1]
        for j, x in enumerate(den):
            num[i + j] -= c * x
    if any(num):
        raise ArithmeticError(f"inexact division computing Phi_{n}")
    return tuple(quot)


def degree(n: int) -> int:
    return len(cyclotomic(n)) - 1


def fold(n: int, poly) -> tuple[int, ...]:
    """The canonical residue of an integer polynomial mod Phi_n, by long
    division by the monic Phi_n."""
    phi, d = cyclotomic(n), degree(n)
    rem = list(poly) + [0] * max(0, d - len(poly))
    for i in range(len(rem) - 1, d - 1, -1):
        if c := rem[i]:
            for j, x in enumerate(phi):
                rem[i - d + j] -= c * x
    return tuple(rem[:d])


def const(n: int, c: int) -> tuple[int, ...]:
    return (c,) + (0,) * (degree(n) - 1)


def root(n: int, k: int) -> tuple[int, ...]:
    """zeta_n^k."""
    return fold(n, [0] * (k % n) + [1])


def add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def scale(c: int, a) -> tuple[int, ...]:
    """The integer c times a."""
    return tuple(c * x for x in a)


def mul(n: int, a, b) -> tuple[int, ...]:
    return fold(n, _convolve(a, b))


def conj(n: int, a) -> tuple[int, ...]:
    """The complex conjugate: x^i goes to x^(n - i)."""
    poly = [0] * n
    for i, x in enumerate(a):
        poly[-i % n] += x
    return fold(n, poly)


def abs2(n: int, a) -> tuple[int, ...]:
    """a conj(a)."""
    return mul(n, a, conj(n, a))


def lift(a, n: int, m: int) -> tuple[int, ...]:
    """The element a of Z[zeta_n] in Z[zeta_m], n | m: zeta_n = zeta_m^(m/n)."""
    if m % n:
        raise ValueError(f"order {n} does not divide {m}")
    poly = [0] * (len(a) - 1) * (m // n) + [0]
    for i, x in enumerate(a):
        poly[i * m // n] += x
    return fold(m, poly)


def dot(n: int, xs, ys) -> tuple[int, ...]:
    """The sum of the products x y over the pairs of xs and ys."""
    out = const(n, 0)
    for x, y in zip(xs, ys, strict=True):
        out = add(out, mul(n, x, y))
    return out


def matmul(n: int, a, b) -> list[list[tuple[int, ...]]]:
    cols = list(zip(*b))
    return [[dot(n, row, col) for col in cols] for row in a]


def value(n: int, a) -> complex:
    """a at zeta_n = exp(2 pi i / n), in floating point."""
    z = cmath.exp(2j * cmath.pi / n)
    return sum(x * z**k for k, x in enumerate(a))


def entries(arr) -> list[list[tuple[int, ...]]]:
    """The elements of a (rows, cols, d) coefficient array, as Python
    ints."""
    return [[tuple(int(x) for x in cell) for cell in row] for row in arr]


# ---------------------------------------------------------------------------
# arrays
#
# The same ring on numpy coefficient arrays of shape (..., d).  A product is
# formed in Z[x]/(x^n - 1): slot s of one factor times slot t of the other
# lands in slot (s + t) mod n, one integer product (or integer matrix
# product) per pair of slots.  The result is folded mod Phi_n by the table
# whose row k is x^k mod Phi_n; x^n = 1 in Z[zeta_n], so this is exact.
# Each step runs in a dtype whose sums stay exact under a bound on the sum
# of the absolute values of its terms: float64 below 2^53 (the products
# then run in BLAS), int64 below 2^63, Python ints past that.


@lru_cache(maxsize=None)
def _powers(n: int) -> np.ndarray:
    return np.array([root(n, k) for k in range(n)], dtype=object)


def _max(arr) -> int:
    return int(np.abs(arr).max()) if arr.size else 0


def _typed(bound: int, *arrs) -> list[np.ndarray]:
    dtype = (np.float64 if bound < 2**53 else
             np.int64 if bound < 2**63 else object)
    out = []
    for a in map(np.asarray, arrs):
        if a.dtype == np.float64:       # integers below 2^53: exact
            a = a.astype(np.int64)
        out.append(a.astype(dtype))
    return out


def _fold_array(n: int, poly) -> np.ndarray:
    """An (..., n) array of polynomials mod x^n - 1, folded mod Phi_n."""
    table = _powers(n)
    poly, table = _typed(_max(poly) * n * _max(table), poly, table)
    out = poly @ table
    return out.astype(np.int64) if out.dtype == np.float64 else out


def conj_array(n: int, a) -> np.ndarray:
    """Each element conjugated: x^i goes to x^(n - i)."""
    a = np.asarray(a)
    poly = np.zeros(a.shape[:-1] + (n,), dtype=a.dtype)
    for i in range(a.shape[-1]):
        poly[..., -i % n] = a[..., i]
    return _fold_array(n, poly)


def _products(n: int, a, b, product, terms: int) -> np.ndarray:
    """The sum over slot pairs s, t of product(a_s, b_t), at slot
    (s + t) mod n, folded; `terms` bounds the number of products that one
    entry of `product` sums."""
    d = degree(n)
    a, b = _typed(_max(a) * _max(b) * terms * d, a, b)
    poly = None
    for s in range(d):
        for t in range(d):
            x = product(a[..., s], b[..., t])
            if poly is None:
                poly = np.zeros(x.shape + (n,), dtype=x.dtype)
            poly[..., (s + t) % n] += x
    return _fold_array(n, poly)


def mul_array(n: int, a, b) -> np.ndarray:
    """The entrywise products of two arrays, broadcast against each
    other."""
    return _products(n, a, b, np.multiply, 1)


def matmul_array(n: int, a, b) -> np.ndarray:
    """The matrix product of a (rows, k, d) and a (k, cols, d) array."""
    return _products(n, a, b, np.matmul, np.shape(a)[-2])


def adjoint_array(n: int, a) -> np.ndarray:
    """The conjugate transpose of a (rows, cols, d) array."""
    return conj_array(n, np.asarray(a).transpose(1, 0, 2))


def abs2_array(n: int, a) -> np.ndarray:
    """Each element times its conjugate."""
    return mul_array(n, a, conj_array(n, a))


def full(n: int, shape: tuple[int, ...], c: int = 1) -> np.ndarray:
    """The array of the given shape whose every element is c."""
    arr = np.zeros(shape + (degree(n),), dtype=np.int64)
    arr[..., 0] = c
    return arr


def eye(n: int, size: int, c: int = 1) -> np.ndarray:
    """c times the size x size identity."""
    arr = np.zeros((size, size, degree(n)), dtype=np.int64)
    arr[np.arange(size), np.arange(size), 0] = c
    return arr


def incidence(design) -> np.ndarray:
    """The {0,1} incidence matrix of a design's blocks, rows indexed by
    blocks and columns by the M U vertices."""
    x = np.zeros((len(design.blocks), design.M * design.U), dtype=np.int64)
    for i, blk in enumerate(design.blocks):
        x[i, list(blk)] = 1
    return x


def chen(q: int, j: int) -> tuple[int, int]:
    """(D, N) of Chen's two-parameter difference-set family at base Q and
    exponent J: D = Q^(2J-1)(2Q^(2J) + Q - 1)/(Q + 1) and
    N = 4Q^(2J)(Q^(2J) - 1)/(Q^2 - 1), both exact divisions."""
    q2j = q ** (2 * j)
    d, d_rem = divmod(q ** (2 * j - 1) * (2 * q2j + q - 1), q + 1)
    n, n_rem = divmod(4 * q2j * (q2j - 1), q * q - 1)
    if d_rem or n_rem:
        raise ArithmeticError(f"D or N of Q={q}, J={j} is not an integer")
    return d, n
