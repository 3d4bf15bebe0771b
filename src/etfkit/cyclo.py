"""Exact arithmetic in cyclotomic integer rings Z[zeta_n].

A scalar is the canonical residue of an integer polynomial in zeta_n modulo
the n-th cyclotomic polynomial Phi_n, stored as a coefficient vector of
length deg(Phi_n) = phi(n).  Canonical forms are unique, so equality of
complex values reduces to equality of integer vectors; every downstream
certification in this package bottoms out in such comparisons.

Matrices over the ring are stored as (rows, cols, deg) coefficient arrays:
int64 while every coefficient is below 2^62 in magnitude, Python integers
(object dtype) otherwise.  The headroom below 2^63 makes the sum or
difference of two int64 arrays exact, so an addition only has to re-check
where its result is stored.

Multiplying by an element b of the ring is a d x d integer matrix, d =
phi(n), whose row i is zeta^i * b.  So a matrix product is one integer
matrix product, the left factor as an (r, k d) matrix times the
multiplication matrices of the right factor's entries as a (k d, d c)
matrix, taken one power of zeta at a time; an entrywise product sums slot
i of one factor times zeta^i times the other.  Each runs in one dtype
chosen by an a-priori bound on every intermediate value.  Below 2^53 it
runs in float64, so in BLAS: integers of that size are exact in float64,
and so is every sum and product of them whose result stays below 2^53, in
whatever order the BLAS accumulates its sums of products.  The float64
result is therefore the exact integer result (the argument of FFLAS-FFPACK:
Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  At or above 2^53 the
product runs on object arrays of Python ints.  Both paths are exact and
bit-identical.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd

import numpy as np

__all__ = [
    "OrderMismatchError",
    "DimensionMismatchError",
    "cyclotomic_polynomial",
    "root_of_unity",
    "CycScalar",
    "CycMatrix",
]

_F64_EXACT = 2**53   # every integer below this is exact in float64
_INT64_SAFE = 2**62  # int64 storage bound: two such values add below 2**63


class OrderMismatchError(ValueError):
    """Operands live in cyclotomic rings of incompatible orders."""


class DimensionMismatchError(ValueError):
    """Matrix operands have non-conforming shapes."""


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials (little-endian), requiring a zero remainder.

    The divisor must be monic, so the division stays in Z[x].
    """
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    if any(rem):
        raise ValueError("division is not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Return Phi_n as a little-endian integer coefficient tuple (monic).

    Computed by exact division of x^n - 1 by the product of Phi_d over the
    proper divisors d of n.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _l1(table: np.ndarray, axis: int) -> int:
    """Largest absolute sum along `axis`: the growth factor of the map."""
    return int(np.abs(table).sum(axis=axis).max())


class _Ring:
    """Reduction data for Z[zeta_n] as int64 tables, each built on first use.

    Row t of every table is x^t mod Phi_n.  Only d <= t < n needs storing
    (`tail`): lower powers are unit vectors and x^n = 1.  So a ring of a
    large order costs nothing of size order x phi(order) until a product
    asks for its phi(order)^2 tables.
    """

    def __init__(self, n: int):
        phi = cyclotomic_polynomial(n)
        self.order = n
        self.degree = len(phi) - 1
        self._head = phi[:-1]

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

    @cached_property
    def reduction(self) -> np.ndarray:
        """(2d - 1, d): folds the slots of a product back to canonical form."""
        return _frozen(self.powers(np.arange(2 * self.degree - 1)))

    @cached_property
    def fold_l1(self) -> int:
        # zeta^i * b = sum over j of b_j * reduction[i + j] for i < d, so
        # each of its coefficients is at most max|b| * fold_l1
        return _l1(self.reduction, axis=0)

    @cached_property
    def conj(self) -> np.ndarray:
        """(d, d): row i is conj(x^i) = x^(n - i) mod Phi_n."""
        return _frozen(self.powers(-np.arange(self.degree)))

    @cached_property
    def conj_l1(self) -> int:
        return _l1(self.conj, axis=1)


@lru_cache(maxsize=None)
def _ring(n: int) -> _Ring:
    return _Ring(n)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


@lru_cache(maxsize=None)
def _lift_map(n_from: int, n_to: int) -> tuple[np.ndarray, int]:
    """Basis-change matrix sending Z[zeta_{n_from}] into Z[zeta_{n_to}]."""
    if n_to % n_from != 0:
        raise OrderMismatchError(
            f"order {n_from} does not divide target order {n_to}")
    step = n_to // n_from
    mat = _ring(n_to).powers(np.arange(_ring(n_from).degree) * step)
    return _frozen(mat), _l1(mat, axis=1)


# ---------------------------------------------------------------------------
# scalars


class CycScalar:
    """An exact cyclotomic integer: canonical residue mod Phi_n.

    Immutable; `coeffs` has length phi(n), and two scalars of equal order
    represent the same complex number iff their coefficient vectors match.
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

    @classmethod
    def zero(cls, order: int = 1) -> "CycScalar":
        return cls.from_int(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycScalar":
        return cls.from_int(1, order)

    # -- ring operations (operands must share an order; lift first) --------

    def _coerce(self, other) -> "CycScalar":
        if isinstance(other, CycScalar):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"orders differ: {self.order} vs {other.order}")
            return other
        if isinstance(other, int):
            return CycScalar.from_int(other, self.order)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycScalar(self.order,
                         tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycScalar(self.order,
                         tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycScalar(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ring = _ring(self.order)
        d = ring.degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        out = conv[:d]
        for t in range(d, 2 * d - 1):
            c = conv[t]
            if c:
                for j, r in enumerate(ring.reduction[t].tolist()):
                    out[j] += c * r
        return CycScalar(self.order, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CycScalar":
        """Complex conjugate: zeta^k maps to zeta^(n-k), then reduce."""
        ring = _ring(self.order)
        d = ring.degree
        out = [0] * d
        for i, a in enumerate(self.coeffs):
            if a:
                for j, r in enumerate(ring.conj[i].tolist()):
                    out[j] += a * r
        return CycScalar(self.order, out)

    def abs_squared(self) -> "CycScalar":
        """Exact a * conj(a)."""
        return self * self.conjugate()

    def lift_to_order(self, order: int) -> "CycScalar":
        """Re-express the same complex number in Z[zeta_order]."""
        if order == self.order:
            return self
        mat, _ = _lift_map(self.order, order)
        d2 = _ring(order).degree
        out = [0] * d2
        for i, a in enumerate(self.coeffs):
            if a:
                for j, r in enumerate(mat[i].tolist()):
                    out[j] += a * r
        return CycScalar(order, out)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        n = _lcm(self.order, other.order)
        return self.lift_to_order(n).coeffs == other.lift_to_order(n).coeffs

    __hash__ = None  # canonical keys are (order, coeffs); see key()

    def key(self) -> tuple:
        return (self.order, self.coeffs)

    def __repr__(self):
        return f"CycScalar(order={self.order}, coeffs={self.coeffs})"


def root_of_unity(n: int, k: int) -> CycScalar:
    """zeta_n^k in canonical form (exponent mod n, residue mod Phi_n)."""
    return CycScalar(n, _ring(n).powers([k])[0])


# ---------------------------------------------------------------------------
# matrices


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return int(np.abs(arr).max())
    return max(int(arr.max()), -int(arr.min()))


def _stored(arr: np.ndarray) -> np.ndarray:
    """The storage form of a coefficient array: int64 when every
    coefficient is below 2^62 in magnitude, else Python ints."""
    small = arr
    if arr.dtype != np.int64:
        if arr.dtype.kind not in "biuO":
            raise TypeError(f"coefficients must be integers, not {arr.dtype}")
        arr = arr.astype(object, copy=False)     # exact for any integer dtype
        try:
            small = arr.astype(np.int64)
        except OverflowError:
            return arr
    if _max_abs(small) < _INT64_SAFE:
        return small
    return arr.astype(object, copy=False)


def _exact_dtype(bound: int):
    """float64 when `bound` caps every intermediate value below 2^53, which
    makes float64 arithmetic exact; otherwise Python ints."""
    return np.float64 if bound < _F64_EXACT else object


def _by_slot(arr: np.ndarray, dtype) -> np.ndarray:
    """A (rows, cols, d) array as a contiguous (rows, d, cols) array of
    `dtype`: the slot axis moves in front of the columns, so that every
    slot of a row is one contiguous run."""
    return np.swapaxes(arr, 1, 2).astype(dtype, order="C")


def _from_slots(out: np.ndarray, dtype) -> np.ndarray:
    """Undo `_by_slot`; float64 results go back to int64."""
    return np.ascontiguousarray(np.swapaxes(out, 1, 2),
                                np.int64 if dtype is np.float64 else object)


def _shifts(b: np.ndarray, ring: _Ring):
    """zeta^i * b for i = 0, ..., d - 1, where b and each result hold the
    coefficient slots on their middle axis, as `_by_slot` lays them out.

    These are the rows of the multiplication matrix of each entry of b:
    zeta^i * b is b times rows i..i+d-1 of `ring.reduction`, computed as x
    times the previous row with x^d folded back, so no (d, d, d) table is
    built.  Every coefficient of zeta^i * b is at most max|b| * fold_l1, and
    a folded term is the difference of two such coefficients, so at most
    twice that: within the bound of every product below once d >= 2.
    """
    row = b
    yield row
    if ring.degree > 1:
        x_d = ring.tail[0].astype(b.dtype)[:, None]     # x^d mod Phi_n
        for _ in range(ring.degree - 1):
            top = row[:, -1:] * x_d
            top[:, 1:] += row[:, :-1]
            row = top
            yield row


def _matmul(a: np.ndarray, b: np.ndarray, ring: _Ring) -> np.ndarray:
    """The exact product of (r, k, d) and (k, c, d) coefficient arrays.

    a as an (r, k d) matrix times the multiplication matrices of b's entries
    as a (k d, d c) matrix, in d blocks no larger than b: block i holds row
    i of every entry's matrix, zeta^i * b, and meets slot i of a.  Every
    partial sum is a sum of at most k d terms, each at most
    max|a| * max|b| * fold_l1.  When an operand is zero the bound is 0, and
    every product is an exact 0.0 even if the other operand's coefficients
    do not fit in float64.
    """
    (r, k, d), c = a.shape, b.shape[1]
    dtype = _exact_dtype(_max_abs(a) * _max_abs(b) * k * d * ring.fold_l1)
    a = _by_slot(a, dtype)
    out = 0
    for i, row in enumerate(_shifts(_by_slot(b, dtype), ring)):
        out += a[:, i] @ row.reshape(k, d * c)
    return _from_slots(out.reshape(r, d, c), dtype)


def _entrywise(a: np.ndarray, b: np.ndarray, ring: _Ring) -> np.ndarray:
    """Entrywise products: the sum over i of slot i of a times zeta^i * b,
    with b broadcast against a.  Each of the d terms of a sum is at most
    max|a| * max|b| * fold_l1."""
    d = ring.degree
    dtype = _exact_dtype(_max_abs(a) * _max_abs(b) * d * ring.fold_l1)
    a = _by_slot(a, dtype)
    out = 0
    for i, row in enumerate(_shifts(_by_slot(b, dtype), ring)):
        out += a[:, i:i + 1] * row
    return _from_slots(out, dtype)


def _linear_map(arr: np.ndarray, mat: np.ndarray, mat_l1: int) -> np.ndarray:
    """Apply a coefficient-basis change along the trailing axis."""
    dtype = _exact_dtype(_max_abs(arr) * arr.shape[-1] * mat_l1)
    flat = arr.astype(dtype, order="C").reshape(-1, arr.shape[-1])
    out = (flat @ mat.astype(dtype)).reshape(arr.shape[:-1] + mat.shape[1:])
    return out.astype(np.int64) if dtype is np.float64 else out


class CycMatrix:
    """A dense rectangular matrix over Z[zeta_n], all entries one order.

    Immutable.  The backing array has shape (rows, cols, phi(n)) and is
    int64 while every coefficient is below 2^62 in magnitude, Python ints
    otherwise.
    """

    __slots__ = ("order", "_arr")

    def __init__(self, order: int, arr: np.ndarray, _copy: bool = True):
        ring = _ring(order)
        if arr.ndim != 3 or arr.shape[2] != ring.degree:
            raise ValueError(
                f"backing array must be (rows, cols, {ring.degree})")
        a = _stored(arr)
        if _copy and a is arr:
            a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "order", order)
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
            order = _lcm(order, s.order)
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
                order = _lcm(order, s.order)
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
        mat, l1 = _lift_map(self.order, order)
        return CycMatrix(order, _linear_map(self._arr, mat, l1), _copy=False)

    @staticmethod
    def common_order(*mats: "CycMatrix") -> int:
        n = 1
        for m in mats:
            n = _lcm(n, m.order)
        return n

    def _aligned(self, other: "CycMatrix"):
        n = _lcm(self.order, other.order)
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
            arr = self._arr
            if max(_max_abs(arr), 1) * abs(s) >= _INT64_SAFE:
                arr = arr.astype(object, copy=False)
            return CycMatrix(self.order, arr * s, _copy=False)
        n = _lcm(self.order, s.order)
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

    def conjugate_entries(self) -> "CycMatrix":
        ring = _ring(self.order)
        return CycMatrix(self.order,
                         _linear_map(self._arr, ring.conj, ring.conj_l1),
                         _copy=False)

    def adjoint(self) -> "CycMatrix":
        """Conjugate transpose."""
        ring = _ring(self.order)
        arr = self._arr.transpose(1, 0, 2)
        return CycMatrix(self.order, _linear_map(arr, ring.conj, ring.conj_l1),
                         _copy=False)

    def transpose(self) -> "CycMatrix":
        return CycMatrix(self.order, self._arr.transpose(1, 0, 2))

    def kron(self, other: "CycMatrix") -> "CycMatrix":
        """Kronecker product: every entry of self times every entry of
        other, as a column of the one times a row of the other."""
        a, b = self._aligned(other)
        (r1, c1, d), (r2, c2, _) = a._arr.shape, b._arr.shape
        out = _matmul(a._arr.reshape(r1 * c1, 1, d),
                      b._arr.reshape(1, r2 * c2, d), _ring(a.order))
        out = out.reshape(r1, c1, r2, c2, d).transpose(0, 2, 1, 3, 4)
        return CycMatrix(a.order, out.reshape(r1 * r2, c1 * c2, d),
                         _copy=False)

    def abs_squared_entries(self) -> "CycMatrix":
        """Entrywise a * conj(a); exact squared moduli for unimodular sums."""
        return self.entrywise_mul(self.conjugate_entries())

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

    @property
    def is_zero(self) -> bool:
        return not self._arr.any()

    def __repr__(self):
        return (f"CycMatrix(order={self.order}, rows={self.rows}, "
                f"cols={self.cols})")
