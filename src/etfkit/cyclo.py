"""Exact arithmetic in cyclotomic integer rings Z[zeta_n].

A scalar is the canonical residue of an integer polynomial in zeta_n modulo
the n-th cyclotomic polynomial Phi_n, stored as a coefficient vector of
length deg(Phi_n) = phi(n).  Canonical forms are unique, so equality of
complex values reduces to equality of integer vectors.

Matrices over the ring are stored as (rows, cols, deg) coefficient arrays:
int64 while every coefficient is below 2^62 in magnitude, Python integers
(object dtype) otherwise.  The headroom below 2^63 makes the sum or
difference of two int64 arrays exact, so an addition only has to re-check
where its result is stored.

One engine, `_Space`, runs every product and every identity that `frames`
checks, exactly and in evaluation space: evaluate, multiply per prime, then
interpolate only what is reported.  Modulo a prime p = 1 (mod n), F_p holds
the d = phi(n) primitive n-th roots of unity w^j, j prime to n, and Phi_n
splits into the distinct factors x - w^j; so Z[zeta_n] / p is F_p^d, an
element going to its values at those d points.  There a matrix product is d
products over F_p, one per point, in place of the d^2 slot products of the
coefficient form, and an entrywise product is d pointwise products.
Conjugation sends w^j to w^-j, which reverses the points taken in
ascending order of j: the values of a conjugate are the values read
backwards, a view.  So a Hermitian product such as Phi Phi* has, at point
d - 1 - j, the transpose of its values at point j, and `frames` computes
such identities at the first ceil(d/2) points only (at d = 1, the one
point).  Evaluating is one product with the Vandermonde matrix V
of the points, interpolating one with V^-1 mod p, whose rows are the dual
basis (Phi_n / (x - w^j)) / Phi_n'(w^j), found by synthetic division.

Every step is a float64 product of residues centred in (-p/2, p/2), reduced
by x - p rint(x / p).  The prime is small enough that every sum of products
of a step, k of them at an inner dimension k, stays below 2^52.  Integers of
that size are exact in float64, and so is every sum of products that stays
below it, in whatever order the BLAS accumulates (the argument of
FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  The one bit
of headroom makes the rounded quotient x / p land on the nearest integer, so
each reduction leaves an exactly centred residue.

A pass is given an a-priori bound B on every coefficient it computes or
compares: max|a| max|b| k d fold_l1 for the product of an (r, k) and a
(k, c) matrix, where fold_l1 is the growth of folding x^d, ..., x^(2d-2)
back mod Phi_n.  It runs modulo the fewest primes of the ladder of its
widest sum, largest first, whose product P exceeds 2B; then two elements
whose values agree at every point mod every prime are equal.  Garner's
mixed-radix form of the Chinese remainder theorem with centred digits gives
the residue of least magnitude mod P, which is the exact result (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5); it runs in int64 while
P < 2^63 and on Python ints beyond.  The primes and each prime's points are
found on first use.

At d = 1 (orders 1 and 2) evaluation is the identity, so a pass whose bound
is below 2^53 takes no prime: its values are the float64 coefficients, and
a product is one float64 product.  A pass bounded by 0 takes none either.
A change of basis (conjugation, lifting to a larger order) is a product
over Z, of the coefficients and an integer matrix.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import isqrt, lcm, prod

import numpy as np

from .designs import is_prime

__all__ = [
    "OrderMismatchError",
    "DimensionMismatchError",
    "cyclotomic_polynomial",
    "CycScalar",
    "CycMatrix",
]

_F64_EXACT = 2**53   # every integer below this is exact in float64
_F64_MOD = 2**52     # every sum of products modulo a kernel prime is below
_INT64_SAFE = 2**62  # int64 storage bound: two such values add below 2**63
_BLOCK = 2**14       # values per block of an elementwise pass
_CHUNK = 2**17       # values per chunk of rows of a large array: 1 MiB of
                     # int64, so that passes over a chunk read it from cache


class OrderMismatchError(ValueError):
    """Operands live in cyclotomic rings of incompatible orders."""


class DimensionMismatchError(ValueError):
    """Matrix operands have non-conforming shapes."""


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division: 2,
    then odd divisors up to sqrt(n), so about sqrt(n)/2 divisions."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Return Phi_n as a little-endian integer coefficient tuple (monic).

    Phi_n(x) = Phi_m(x^(n/m)) for the radical m of n, and for a squarefree
    m > 1 Phi_m is the product of (1 - x^e)^mu(m/e) over the divisors e of
    m (Arnold and Monagan, Math. Comp. 80, 2011).  Each factor acts on a
    power series cut off past degree phi(m): multiplying by 1 - x^e is one
    shifted difference, dividing by it a running sum with stride e.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    m = prod(primes)
    size = prod(q - 1 for q in primes) + 1
    series = np.zeros(size, dtype=object)
    series[0] = 1
    for mask in range(1 << len(primes)):
        picked = [q for i, q in enumerate(primes) if mask >> i & 1]
        e = m // prod(picked)                    # mu(m / e) = (-1)^len(picked)
        if e >= size:
            continue                             # 1 - x^e is 1 in the series
        if len(picked) % 2 == 0:
            series[e:] = series[e:] - series[:-e]
        else:
            runs = np.zeros(-(-size // e) * e, dtype=object)
            runs[:size] = series
            series = runs.reshape(-1, e).cumsum(axis=0).reshape(-1)[:size]
    out = [0] * ((size - 1) * (n // m) + 1)
    out[::n // m] = series.tolist()
    return tuple(out)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _ladder(n: int, width: int):
    """Primes p = 1 (mod n), largest first, with width ((p - 1)/2)^2 below
    2^52: a sum of `width` products of centred residues mod p stays below
    2^52."""
    top = 2 * isqrt((_F64_MOD - 1) // width) + 1
    for p in range(top - (top - 1) % n, n, -n):
        if is_prime(p):
            yield p


class _Ring:
    """Reduction data for Z[zeta_n], each piece built on first use.

    Row t of `tail` is x^t mod Phi_n for d <= t < n: lower powers are unit
    vectors and x^n = 1.  The a-priori growth factors are computed from
    rows of powers in chunks, so no phi(n)^2 table is kept.
    """

    def __init__(self, n: int):
        phi = cyclotomic_polynomial(n)
        self.order = n
        self.degree = len(phi) - 1
        self._head = phi[:-1]
        self._ladders = {}

    @cached_property
    def tail(self) -> np.ndarray:
        """(n - d, d): row t - d is x^t mod Phi_n, for d <= t < n."""
        d = self.degree
        row = [0] * (d - 1) + [1]           # x^(d-1)
        rows = []
        for _ in range(d, self.order):
            # x^t = x * x^(t-1), then fold x^d = -(phi head) back in
            c = row[-1]
            row = [0] + row[:-1]
            if c:
                row = [r - c * p for r, p in zip(row, self._head)]
            rows.append(row)
        return _frozen(np.array(rows, dtype=np.int64).reshape(-1, d))

    def powers(self, exps) -> np.ndarray:
        """(len(exps), d): row k is x^exps[k] mod Phi_n."""
        t = np.asarray(exps, dtype=np.int64) % self.order
        out = np.zeros((t.size, self.degree), dtype=np.int64)
        low = t < self.degree
        out[np.flatnonzero(low), t[low]] = 1
        out[~low] = self.tail[t[~low] - self.degree]
        return out

    def _abs_powers(self, exps):
        """|x^t mod Phi_n| for t in exps, in chunks of about 2^20 values."""
        step = max(1, 2**20 // self.degree)
        for i in range(0, len(exps), step):
            yield np.abs(self.powers(exps[i:i + step]))

    @cached_property
    def fold_l1(self) -> int:
        # zeta^i * b = sum over j of b_j * x^(i + j) mod Phi_n for i < d, so
        # each of its coefficients is at most max|b| * fold_l1
        exps = np.arange(2 * self.degree - 1)
        return int(sum(rows.sum(axis=0)
                       for rows in self._abs_powers(exps)).max())

    @cached_property
    def conj_l1(self) -> int:
        """Largest column l1 norm of the conjugation map, whose row i is
        conj(x^i) = x^(n - i) mod Phi_n, i < d: coefficient j of conj(b)
        is the sum over i of b_i times entry (i, j), so it is at most
        max|b| * conj_l1."""
        exps = -np.arange(self.degree)
        return int(sum(rows.sum(axis=0)
                       for rows in self._abs_powers(exps)).max())

    def primes(self, width: int, bound: int) -> tuple[int, ...]:
        """The fewest primes of the ladder for `width`, largest first, whose
        product exceeds 2 * bound.  Widths share the ladder of the next
        power of two."""
        width = 1 << (width - 1).bit_length()
        if width not in self._ladders:
            self._ladders[width] = ([], _ladder(self.order, width))
        found, more = self._ladders[width]
        out, whole = [], 1
        while whole <= 2 * bound:
            if len(out) == len(found):
                p = next(more, None)
                if p is None:
                    raise OverflowError(
                        f"too few primes = 1 (mod {self.order}) for an exact "
                        f"product of width {width}")
                found.append(p)
            out.append(found[len(out)])
            whole *= out[-1]
        return tuple(out)


@lru_cache(maxsize=None)
def _ring(n: int) -> _Ring:
    return _Ring(n)


class _Points:
    """Evaluation data of Z[zeta_n] mod p, as centred float64 residues.

    v[i, j] = r_j^i at the points r_j = w^e_j, e_j running up the
    exponents prime to n; vinv is V^-1 mod p, row j the dual basis element
    of r_j (a transposed view).  As e -> n - e maps the exponents prime to
    n onto themselves in reverse, conj(r_j) = r_j^-1 is point d - 1 - j.
    """

    __slots__ = ("v", "vinv")

    def __init__(self, v: np.ndarray, vinv: np.ndarray):
        self.v, self.vinv = v, vinv


@lru_cache(maxsize=None)
def _points(n: int, p: int) -> _Points:
    """Built in place: nothing but V and V^-1 is of size d^2.  Every int64
    product here is below p^2 < 2^54, and every float64 sum is of at most d
    products of centred residues, below 2^52 because every prime comes from
    a ladder of width at least d."""
    d = _ring(n).degree
    factors = _prime_factors(n)
    x = 2
    while True:                      # a primitive n-th root of unity mod p
        w = pow(x, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in factors):
            break
        x += 1
    table = np.ones(n, dtype=np.int64)          # table[t] = w^t mod p
    step = 1
    while step < n:
        table[step:2 * step] = (table[:min(step, n - step)]
                                * pow(w, step, p) % p)
        step *= 2
    exps = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
    roots = _reduce(table.astype(np.float64), p)[exps]
    # row i of V is r^i: rows [s, 2s) are rows [0, s) times r^s, in place
    v = np.empty((d, d))
    v[0] = 1
    s = 1
    while s < d:
        top = min(2 * s, d)
        np.multiply(v[:top - s], _reduce(v[s - 1] * roots, p),
                    out=v[s:top])
        _reduce(v[s:top], p)
        s = top
    # Phi_n / (x - r) for every root r at once by synthetic division, row i
    # of dual its coefficient q_i = phi_(i+1) + r q_(i+1), q_(d-1) = 1; then
    # Phi_n'(r) = (Phi_n / (x - r))(r) is a column sum of dual times V
    phi = [c % p for c in cyclotomic_polynomial(n)]
    dual = np.empty((d, d))
    dual[d - 1] = 1
    for i in range(d - 2, -1, -1):
        np.multiply(dual[i + 1], roots, out=dual[i])
        dual[i] += phi[i + 1]
        _reduce(dual[i], p)
    deriv = np.einsum("ij,ij->j", dual, v)
    inverse = [pow(int(r), -1, p) for r in _reduce(deriv, p).astype(np.int64)]
    dual *= _reduce(np.array(inverse, dtype=np.float64), p)
    return _Points(_frozen(v), _frozen(_reduce(dual, p)).T)


@lru_cache(maxsize=None)
def _lift_map(n_from: int, n_to: int) -> np.ndarray:
    """Basis-change matrix sending Z[zeta_{n_from}] into Z[zeta_{n_to}]."""
    if n_to % n_from != 0:
        raise OrderMismatchError(
            f"order {n_from} does not divide target order {n_to}")
    step = n_to // n_from
    return _frozen(_ring(n_to).powers(np.arange(_ring(n_from).degree)
                                      * step))


# ---------------------------------------------------------------------------
# scalars


class CycScalar:
    """An exact cyclotomic integer: canonical residue mod Phi_n.

    A plain value, as a matrix entry or a certificate's Gram value is read
    out; the arithmetic runs on `CycMatrix` arrays.  Immutable; `coeffs`
    has length phi(n), and two scalars of equal order represent the same
    complex number iff their coefficient vectors match.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        ring = _ring(order)
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != ring.degree:
            raise ValueError(
                f"expected {ring.degree} coefficients for order {order}, "
                f"got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @classmethod
    def from_int(cls, value: int, order: int = 1) -> "CycScalar":
        ring = _ring(order)
        return cls(order, (int(value),) + (0,) * (ring.degree - 1))

    def lift_to_order(self, order: int) -> "CycScalar":
        """Re-express the same complex number in Z[zeta_order]."""
        if order == self.order:
            return self
        return CycScalar(order, np.array(self.coeffs, dtype=object)
                         @ _lift_map(self.order, order))

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational_integer(self) -> bool:
        """Whether the value lies in Z (canonical form is a constant)."""
        return not any(self.coeffs[1:])

    def as_integer(self) -> int | None:
        """The value as a Python int when rational, else None."""
        return self.coeffs[0] if self.is_rational_integer else None

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycScalar.from_int(other, self.order)
        if not isinstance(other, CycScalar):
            return NotImplemented
        if other.order == self.order:
            return self.coeffs == other.coeffs
        n = lcm(self.order, other.order)
        return self.lift_to_order(n).coeffs == other.lift_to_order(n).coeffs

    def __repr__(self):
        return f"CycScalar(order={self.order}, coeffs={self.coeffs})"


# ---------------------------------------------------------------------------
# matrices


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(np.abs(arr).max())
    return max(int(arr.max()), -int(arr.min()))


def _stored(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """The storage form of a coefficient array, int64 when every
    coefficient is below 2^62 in magnitude (else Python ints), and its max."""
    small = arr
    if arr.dtype != np.int64:
        if arr.dtype.kind not in "biuO":
            raise TypeError(f"coefficients must be integers, not {arr.dtype}")
        arr = arr.astype(object, copy=False)     # exact for any integer dtype
        try:
            small = arr.astype(np.int64)
        except OverflowError:
            return arr, _max_abs(arr)
    mag = _max_abs(small)
    big = mag >= _INT64_SAFE
    return (arr.astype(object, copy=False) if big else small), mag


def _scaled(arr: np.ndarray, s: int) -> np.ndarray:
    """arr * s for a Python int s, on Python ints where int64 could pass
    2^62."""
    if max(_max_abs(arr), 1) * abs(s) >= _INT64_SAFE:
        arr = arr.astype(object, copy=False)
    return arr * s


def _float_exact(ring: _Ring, bound: int) -> bool:
    """Whether a result bounded by `bound` needs no prime: it is 0, or d = 1
    and the bound is below 2^53, so that one float64 product is exact."""
    return bound == 0 or (ring.degree == 1 and bound < _F64_EXACT)


def _kernel_primes(ring: _Ring, width: int, bound: int) -> tuple[int, ...]:
    """The primes a pass of width `width` runs under, for results bounded by
    `bound`: none where the float64 product is exact."""
    return () if _float_exact(ring, bound) else ring.primes(width, bound)


def _ladder_first(ring: _Ring, width: int, mag: int) -> None:
    """Refuse an order whose ladder for `width` holds no prime before the
    growth factors, which cost O(n d), are read: at d > 1 a pass over
    operands whose product of magnitudes `mag` is nonzero needs a prime."""
    if ring.degree > 1 and mag:
        ring.primes(width, 1)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x - p rint(x / p) in place: the centred residue of every |x| < 2^52.
    x is C-contiguous; it is taken in blocks, so the temporary stays
    small."""
    flat = x.reshape(-1)
    for i in range(0, flat.size, _BLOCK):
        part = flat[i:i + _BLOCK]
        q = part / p
        np.rint(q, out=q)
        q *= p
        part -= q
    return x


def _row_blocks(rows: int, per_row: int, least: int = 1):
    """Slices of about _BLOCK result values each, and at least `least` rows:
    the temporaries of a block stay small, so memory is reused from block to
    block."""
    step = max(least, _BLOCK // max(per_row, 1))
    for i in range(0, rows, step):
        yield slice(i, min(i + step, rows))


class _Space:
    """Z[zeta_n] modulo the primes of one exact pass, element by element
    as values at the d points of each prime: a list of (d, ...) arrays,
    one per prime.  The primes come from the ladder of `width`, the number
    of nonzero terms in the widest sum of the pass (at least d, for the
    evaluation and interpolation sums): a zero element is 0 at every point,
    so however many zero products a sum also holds, it stays below 2^52.
    Their product P exceeds 2 `bound`.  With no prime the values are the
    float64 coefficients themselves (d = 1 and `bound` below 2^53), or 0
    (`bound` 0: every result is 0, so no operand is read)."""

    def __init__(self, ring: _Ring, width: int, bound: int):
        self.degree = ring.degree
        self.zero = bound == 0
        self.primes = _kernel_primes(ring, width, bound)
        self.points = [_points(ring.order, p) for p in self.primes]
        # the CRT runs in int64 while P < 2^63, so that |results| < 2^62
        self.dtype = np.int64 if prod(self.primes) < 2**63 else object

    def covers(self, bound: int) -> bool:
        """Whether values that agree at every point mod every prime are
        equal, for coefficients of magnitude at most `bound`.  A space
        bounded by 0 holds only zeros, so it covers bound 0 alone."""
        if self.zero:
            return not bound
        if not self.primes:
            return bound < _F64_EXACT
        return 2 * bound < prod(self.primes)

    def values(self, arr: np.ndarray, mag: int,
               entries: slice | np.ndarray = slice(None)) -> list[np.ndarray]:
        """The values of a (..., d) array, (d, ...) per prime; `mag` is
        max|arr|.  One loop runs over the flat entries, _CHUNK // d of them
        at a time, so the residues and the values of the whole array are
        never held at once.  `entries` picks what it runs over: a plain
        slice, every entry, written into an empty array, or the flat
        indices of the nonzero entries, written into zeroed arrays, as a
        zero entry is 0 at every point."""
        shape = arr.shape[:-1]
        if not self.primes:
            return [np.zeros((self.degree,) + shape) if self.zero
                    else arr[..., 0].astype(np.float64)[None]]
        d, every = self.degree, isinstance(entries, slice)
        flat, step = arr.reshape(-1, d), max(1, _CHUNK // d)
        out = [(np.empty if every else np.zeros)((d,) + shape)
               for _ in self.primes]
        for i in range(0, len(flat) if every else entries.size, step):
            at = slice(i, i + step) if every else entries[i:i + step]
            part = flat[at]
            for p, pts, vals in zip(self.primes, self.points, out):
                # centred residues mod p, as float64
                res = (part.astype(np.float64) if mag <= p // 2
                       else _reduce((part % p).astype(np.float64), p))
                vals.reshape(d, -1)[:, at] = _reduce(pts.v.T @ res.T, p)
        return out

    @staticmethod
    def conj(vals: np.ndarray) -> np.ndarray:
        """The values of the conjugate: the points read backwards, a
        view."""
        return vals[::-1]

    def residue(self, c: int, i: int) -> int:
        """The integer c mod prime i, centred; with no prime c itself, also
        in a pass bounded by 0, whose values are the true zeros, so that c
        compares with them truthfully."""
        if not self.primes:
            return c
        p = self.primes[i]
        return (c + p // 2) % p - p // 2

    def reduce(self, vals: np.ndarray, i: int) -> np.ndarray:
        """Sums of products of values mod prime i, reduced in place."""
        return _reduce(vals, self.primes[i]) if self.primes else vals

    def exact(self, vals: list[np.ndarray]) -> np.ndarray:
        """(entries, d): the exact coefficients of reduced values, entries
        in the row-major order of the values' trailing axes, by one
        interpolation per prime and Garner's mixed-radix CRT, x = c_0 +
        c_1 p_0 + c_2 p_0 p_1 + ..., with each digit c_i centred mod p_i.
        Every digit product mod a prime stays below 2^54."""
        d, primes = self.degree, self.primes
        if not primes:      # float64 holding integers converts exactly
            return vals[0].reshape(d, -1).T.astype(np.int64, order="C")
        digits = []
        for i, (p, pts, v) in enumerate(zip(primes, self.points, vals)):
            c = _reduce(v.reshape(d, -1).T @ pts.vinv, p).astype(np.int64)
            if digits:
                known = digits[-1] % p        # the digits so far, mod p
                for j in range(i - 2, -1, -1):
                    known = (known * primes[j] + digits[j]) % p
                c = (c - known) % p * pow(prod(primes[:i]), -1, p) % p
                c[c > p // 2] -= p
            digits.append(c)
        x = digits[-1].astype(self.dtype, copy=False)
        for j in range(len(primes) - 2, -1, -1):
            x = x * primes[j] + digits[j]
        return x

    def results(self, shape: tuple[int, ...], block) -> np.ndarray:
        """The exact (rows, ..., d) array of `shape` that a pass computes,
        C-contiguous, with or without a prime: `block(rows)` gives the
        reduced values of its rows `rows`, per prime, and each block of
        `_row_blocks` is made exact into the output as it comes."""
        out = np.empty(shape, dtype=self.dtype)
        for rows in _row_blocks(shape[0], prod(shape[1:])):
            part = out[rows]
            part[...] = self.exact(block(rows)).reshape(part.shape)
        return out


def _matmul(a: np.ndarray, b: np.ndarray, ring: _Ring) -> np.ndarray:
    """The exact product of (r, k, d) and (k, c, d) coefficient arrays.

    Every coefficient of the result is a sum of k d products of a
    coefficient of a and one of zeta^i * b, at most max|b| * fold_l1, so at
    most B = max|a| max|b| k d fold_l1.  b is evaluated once; then, a block
    of rows of a at a time, the block is evaluated, one batched product over
    the point axis, (d, rows, k) times (d, k, c), runs per prime, and its
    result is made exact.
    """
    (r, k, d), c = a.shape, b.shape[1]
    ma, mb = _max_abs(a), _max_abs(b)
    _ladder_first(ring, max(k, d), ma * mb)
    space = _Space(ring, max(k, d), ma * mb * k * d * ring.fold_l1)
    right = space.values(b, mb)

    def block(rows):
        return [space.reduce(x @ y, i) for i, (x, y)
                in enumerate(zip(space.values(a[rows], ma), right))]

    return space.results((r, c, d), block)


def _entrywise(a: np.ndarray, b: np.ndarray | None,
               ring: _Ring) -> np.ndarray:
    """Entrywise products of two (..., d) arrays, broadcast against each
    other: d pointwise products per prime.  With b None, the products of a
    and its conjugate, |a|^2: the conjugate's values are a's read
    backwards, so a is evaluated once.  A coefficient of a * b is a sum of d
    products of a coefficient of a and one of zeta^i * b, so at most
    B = max|a| max|b| d fold_l1, with max|conj a| <= max|a| conj_l1."""
    d = ring.degree
    ma = _max_abs(a)
    mb = ma if b is None else _max_abs(b)
    _ladder_first(ring, d, ma * mb)
    if b is None:
        mb *= ring.conj_l1
    shape = a.shape if b is None else np.broadcast_shapes(a.shape, b.shape)
    space = _Space(ring, d, ma * mb * d * ring.fold_l1)
    operands = [(a, ma)] if b is None else [(a, ma), (b, mb)]
    # an operand of one row is broadcast to every block: evaluated once
    once = [space.values(x, m) if x.shape[0] == 1 else None
            for x, m in operands]

    def block(rows):
        vals = [space.values(x[rows], m) if v is None else v
                for v, (x, m) in zip(once, operands)]
        if b is None:
            vals.append([space.conj(v) for v in vals[0]])
        return [space.reduce(x * y, i) for i, (x, y) in enumerate(zip(*vals))]

    return space.results(shape, block)


def _linear_map(arr: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a coefficient-basis change (d_in, d_out) along the trailing
    axis: a product of integer matrices, so one over Z (d = 1)."""
    d_in = arr.shape[-1]
    out = _matmul(arr.reshape(-1, d_in, 1), mat[:, :, None], _ring(1))
    return out.reshape(arr.shape[:-1] + mat.shape[1:])


class CycMatrix:
    """A dense rectangular matrix over Z[zeta_n], all entries one order.

    Immutable.  The backing array has shape (rows, cols, phi(n)) and is
    int64 while every coefficient is below 2^62 in magnitude, Python ints
    otherwise; `mag`, max|coefficient|, is found as it is stored.

    No program path calls these 16 members; they are kept only because
    perfbench/tracing.py wraps them by name: `__add__`, `__sub__`,
    `__neg__`, `__matmul__`, `scalar_mul`, `entrywise_mul`, `adjoint`,
    `transpose`, `abs_squared_entries`, `vstack`, `hstack`, `block_diag`,
    `identity`, `diagonal`, `from_scalars` and `entry`.  Tests outside
    their own (test_cyclo.py, test_kernel.py) may not call them.
    """

    __slots__ = ("order", "mag", "_arr")

    def __init__(self, order: int, arr: np.ndarray, _copy: bool = True):
        ring = _ring(order)
        if arr.ndim != 3 or arr.shape[2] != ring.degree:
            raise ValueError(
                f"backing array must be (rows, cols, {ring.degree})")
        a, mag = _stored(arr)
        if _copy and a is arr:
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mag", mag)
        object.__setattr__(self, "_arr", a)

    def __setattr__(self, name, value):
        raise AttributeError("CycMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int = 1) -> "CycMatrix":
        d = _ring(order).degree
        arr = np.zeros((rows, cols, d), dtype=np.int64)
        return cls(order, arr, _copy=False)

    @classmethod
    def identity(cls, n: int, order: int = 1) -> "CycMatrix":
        d = _ring(order).degree
        arr = np.zeros((n, n, d), dtype=np.int64)
        arr[np.arange(n), np.arange(n), 0] = 1
        return cls(order, arr, _copy=False)

    @classmethod
    def ones(cls, rows: int, cols: int, order: int = 1) -> "CycMatrix":
        d = _ring(order).degree
        arr = np.zeros((rows, cols, d), dtype=np.int64)
        arr[:, :, 0] = 1
        return cls(order, arr, _copy=False)

    @classmethod
    def from_int_matrix(cls, ints, order: int = 1) -> "CycMatrix":
        m = np.asarray(ints)
        if m.ndim != 2:
            raise ValueError("expected a 2-D integer array")
        d = _ring(order).degree
        arr = np.zeros(m.shape + (d,), dtype=m.dtype)
        arr[:, :, 0] = m
        return cls(order, arr, _copy=False)

    @classmethod
    def diagonal(cls, scalars) -> "CycMatrix":
        """Square matrix with the given CycScalars on the diagonal."""
        scalars = list(scalars)
        order = 1
        for s in scalars:
            order = lcm(order, s.order)
        n = len(scalars)
        d = _ring(order).degree
        arr = np.zeros((n, n, d), dtype=object)
        for i, s in enumerate(scalars):
            arr[i, i, :] = s.lift_to_order(order).coeffs
        return cls(order, arr, _copy=False)

    @classmethod
    def from_scalars(cls, rows) -> "CycMatrix":
        """Build from a nested sequence of CycScalars (lifted to one order)."""
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        order = 1
        for r in rows:
            for s in r:
                order = lcm(order, s.order)
        d = _ring(order).degree
        arr = np.zeros((len(rows), len(rows[0]), d), dtype=object)
        for i, r in enumerate(rows):
            if len(r) != len(rows[0]):
                raise DimensionMismatchError("ragged rows")
            for j, s in enumerate(r):
                arr[i, j, :] = s.lift_to_order(order).coeffs
        return cls(order, arr, _copy=False)

    # -- shape and access ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._arr.shape[0]

    @property
    def cols(self) -> int:
        return self._arr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._arr.shape[:2]

    @property
    def array(self) -> np.ndarray:
        """Read-only (rows, cols, deg) coefficient array."""
        return self._arr

    def entry(self, r: int, c: int) -> CycScalar:
        return CycScalar(self.order, tuple(self._arr[r, c]))

    def submatrix(self, row_slice, col_slice) -> "CycMatrix":
        return CycMatrix(self.order, self._arr[row_slice, col_slice])

    # -- order handling ------------------------------------------------------

    def lift_to_order(self, order: int) -> "CycMatrix":
        if order == self.order:
            return self
        out = _linear_map(self._arr, _lift_map(self.order, order))
        return CycMatrix(order, out, _copy=False)

    @staticmethod
    def common_order(*mats: "CycMatrix") -> int:
        n = 1
        for m in mats:
            n = lcm(n, m.order)
        return n

    def _aligned(self, other: "CycMatrix"):
        n = lcm(self.order, other.order)
        return self.lift_to_order(n), other.lift_to_order(n)

    # -- arithmetic ----------------------------------------------------------

    # int64 sums, differences and negations are exact: every int64 operand
    # is below 2^62 in magnitude, and the result's storage is re-checked

    def __add__(self, other: "CycMatrix") -> "CycMatrix":
        a, b = self._aligned(other)
        if a.shape != b.shape:
            raise DimensionMismatchError(f"{a.shape} + {b.shape}")
        return CycMatrix(a.order, a._arr + b._arr, _copy=False)

    def __sub__(self, other: "CycMatrix") -> "CycMatrix":
        a, b = self._aligned(other)
        if a.shape != b.shape:
            raise DimensionMismatchError(f"{a.shape} - {b.shape}")
        return CycMatrix(a.order, a._arr - b._arr, _copy=False)

    def __neg__(self) -> "CycMatrix":
        return CycMatrix(self.order, -self._arr, _copy=False)

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        a, b = self._aligned(other)
        if a.cols != b.rows:
            raise DimensionMismatchError(
                f"cannot multiply {a.shape} by {b.shape}")
        out = _matmul(a._arr, b._arr, _ring(a.order))
        return CycMatrix(a.order, out, _copy=False)

    def scalar_mul(self, s) -> "CycMatrix":
        """Multiply every entry by a CycScalar or Python int."""
        if isinstance(s, int):
            if s == 1:
                return self         # immutable: the product is self
            return CycMatrix(self.order, _scaled(self._arr, s), _copy=False)
        n = lcm(self.order, s.order)
        a = self.lift_to_order(n)
        sv = np.array(s.lift_to_order(n).coeffs, dtype=object)
        out = _entrywise(a._arr, sv.reshape(1, 1, -1), _ring(n))
        return CycMatrix(n, out, _copy=False)

    def entrywise_mul(self, other: "CycMatrix") -> "CycMatrix":
        a, b = self._aligned(other)
        if a.shape != b.shape:
            raise DimensionMismatchError(f"{a.shape} vs {b.shape}")
        out = _entrywise(a._arr, b._arr, _ring(a.order))
        return CycMatrix(a.order, out, _copy=False)

    def _conjugated(self, arr: np.ndarray) -> "CycMatrix":
        if arr.shape[-1] == 1:          # over Z the map is the identity
            return CycMatrix(self.order, arr)
        # row i of the map is conj(x^i) = x^(n - i) mod Phi_n
        conj = _ring(self.order).powers(-np.arange(arr.shape[-1]))
        return CycMatrix(self.order, _linear_map(arr, conj), _copy=False)

    def conjugate_entries(self) -> "CycMatrix":
        return self._conjugated(self._arr)

    def adjoint(self) -> "CycMatrix":
        """Conjugate transpose."""
        return self._conjugated(self._arr.transpose(1, 0, 2))

    def transpose(self) -> "CycMatrix":
        return CycMatrix(self.order, self._arr.transpose(1, 0, 2))

    def kron(self, other: "CycMatrix") -> "CycMatrix":
        """Kronecker product: every entry of self times every entry of
        other, as the entrywise product of a column of the one and a row of
        the other, broadcast against each other."""
        a, b = self._aligned(other)
        (r1, c1, d), (r2, c2, _) = a._arr.shape, b._arr.shape
        out = _entrywise(a._arr.reshape(r1 * c1, 1, d),
                         b._arr.reshape(1, r2 * c2, d), _ring(a.order))
        out = out.reshape(r1, c1, r2, c2, d).transpose(0, 2, 1, 3, 4)
        return CycMatrix(a.order, out.reshape(r1 * r2, c1 * c2, d),
                         _copy=False)

    def abs_squared_entries(self) -> "CycMatrix":
        """Entrywise a * conj(a); exact squared moduli for unimodular sums."""
        return CycMatrix(self.order,
                         _entrywise(self._arr, None, _ring(self.order)),
                         _copy=False)

    @staticmethod
    def vstack(mats) -> "CycMatrix":
        mats = list(mats)
        n = CycMatrix.common_order(*mats)
        lifted = [m.lift_to_order(n) for m in mats]
        if len({m.cols for m in lifted}) != 1:
            raise DimensionMismatchError("vstack needs equal column counts")
        return CycMatrix(n, np.concatenate([m._arr for m in lifted], axis=0),
                         _copy=False)

    @staticmethod
    def hstack(mats) -> "CycMatrix":
        mats = list(mats)
        n = CycMatrix.common_order(*mats)
        lifted = [m.lift_to_order(n) for m in mats]
        if len({m.rows for m in lifted}) != 1:
            raise DimensionMismatchError("hstack needs equal row counts")
        return CycMatrix(n, np.concatenate([m._arr for m in lifted], axis=1),
                         _copy=False)

    @staticmethod
    def block_diag(mats) -> "CycMatrix":
        """Direct-sum stack: block-diagonal concatenation."""
        mats = list(mats)
        n = CycMatrix.common_order(*mats)
        lifted = [m.lift_to_order(n) for m in mats]
        d = _ring(n).degree
        rows = sum(m.rows for m in lifted)
        cols = sum(m.cols for m in lifted)
        arr = np.zeros((rows, cols, d), dtype=object)
        r = c = 0
        for m in lifted:
            arr[r:r + m.rows, c:c + m.cols] = m._arr
            r += m.rows
            c += m.cols
        return CycMatrix(n, arr, _copy=False)

    # -- predicates ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        a, b = self._aligned(other)
        return a.shape == b.shape and bool(np.array_equal(a._arr, b._arr))

    __hash__ = None

    def __repr__(self):
        return (f"CycMatrix(order={self.order}, rows={self.rows}, "
                f"cols={self.cols})")
