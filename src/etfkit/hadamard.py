"""Possibly-complex Hadamard matrices and the flat regular simplices they carry.

A Hadamard matrix of size n has unimodular entries and satisfies H*H = nI
exactly; `HadamardMatrix` certifies both where a matrix enters the library.
Dephasing scales columns so the first row is all ones; dropping that row
then leaves a flat regular simplex: n equal-norm vectors in n-1 dimensions
summing to zero, the seed ingredient of every frame construction in this
package.  The simplex runs no certifying pass: its identities follow from
H's, as `simplex_from_hadamard` shows, and so does its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclo import CycMatrix, _entrywise, _ring
from .designs import FiniteField
from .frames import _tight, _unimodular

__all__ = [
    "HadamardError",
    "HadamardMatrix",
    "HadamardReport",
    "sylvester",
    "paley_i",
    "paley_ii",
    "fourier",
    "dephase",
    "verify_hadamard",
    "simplex_from_hadamard",
]


class HadamardError(ValueError):
    """Construction preconditions violated or certification failed."""


@dataclass(frozen=True)
class HadamardReport:
    ok: bool
    size: int
    failure: str | None = None

    def __str__(self):
        return (f"Hadamard pass: size {self.size}" if self.ok
                else f"Hadamard fail: {self.failure}")


class HadamardMatrix:
    """A certified possibly-complex Hadamard matrix."""

    def __init__(self, mat: CycMatrix, _check: bool = True):
        if _check:
            report = verify_hadamard(mat)
            if not report.ok:
                raise HadamardError(report.failure)
        self.mat = mat
        self.size = mat.rows
        first = mat.array[0]                 # dephased: row 0 is all ones
        self.dephased = bool((first[:, 0] == 1).all()
                             and not first[:, 1:].any())

    def __repr__(self):
        return f"HadamardMatrix(size={self.size}, order={self.mat.order})"


def verify_hadamard(mat) -> HadamardReport:
    """Check unimodularity of every entry and H*H = nI exactly, at the
    values of one evaluation of H (`frames._unimodular`)."""
    if isinstance(mat, HadamardMatrix):
        mat = mat.mat
    n = mat.rows
    if mat.cols != n:
        return HadamardReport(False, n, f"matrix is {mat.rows}x{mat.cols}")
    space, values, bad, mod = _unimodular(mat)
    if bad is not None:
        return HadamardReport(False, n, f"entry {divmod(bad, n)} is not "
                                        f"unimodular: |.|^2 = {mod.coeffs}")
    # for square H, H*H = nI makes H/sqrt(n) unitary, so HH* = nI is the
    # same identity: the certifier's frame-operator check, at half the points
    if not _tight(space, values, n):
        return HadamardReport(False, n, "H*H differs from nI")
    return HadamardReport(True, n)


# ---------------------------------------------------------------------------
# generators


def sylvester(k: int) -> HadamardMatrix:
    """Real Hadamard of size 2^k by repeated doubling; entries at order 2."""
    if k < 0:
        raise HadamardError("exponent must be nonnegative")
    h = np.array([[1]], dtype=np.int64)
    core = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for _ in range(k):
        h = np.kron(core, h)
    return HadamardMatrix(CycMatrix.from_int_matrix(h, order=2))


def fourier(n: int) -> HadamardMatrix:
    """The n x n character table (zeta_n^(jk)); entries at order n."""
    if n < 1:
        raise HadamardError("size must be positive")
    powers = _ring(n).powers(np.outer(np.arange(n), np.arange(n)).ravel())
    return HadamardMatrix(CycMatrix(n, powers.reshape(n, n, -1), _copy=False))


def _quadratic_character(field: FiniteField) -> np.ndarray:
    """chi(x) = x^((q-1)/2) for every x at once, read off the squares by
    Euler's criterion (q odd): 1 at each nonzero square, the diagonal of
    the multiplication table past 0, -1 at every other nonzero x and 0 at
    0."""
    chi = np.full(field.q, -1, dtype=np.int64)
    chi[field._mul.diagonal()[1:]] = 1
    chi[0] = 0
    return chi


def _jacobsthal(field: FiniteField) -> np.ndarray:
    return _quadratic_character(field)[field._sub]


def paley_i(field: FiniteField) -> HadamardMatrix:
    """Real Hadamard of size q+1 from quadratic residues, q = 3 (mod 4)."""
    q = field.q
    if q % 4 != 3:
        raise HadamardError(f"Paley type I needs q = 3 (mod 4), got {q}")
    jac = _jacobsthal(field)
    h = np.zeros((q + 1, q + 1), dtype=np.int64)
    h[0, 1:] = 1
    h[1:, 0] = -1
    h[1:, 1:] = jac
    h += np.eye(q + 1, dtype=np.int64)
    return HadamardMatrix(CycMatrix.from_int_matrix(h, order=2))


def paley_ii(field: FiniteField) -> HadamardMatrix:
    """Real Hadamard of size 2(q+1) from a conference matrix, q = 1 (mod 4)."""
    q = field.q
    if q % 4 != 1:
        raise HadamardError(f"Paley type II needs q = 1 (mod 4), got {q}")
    conf = np.zeros((q + 1, q + 1), dtype=np.int64)
    conf[0, 1:] = 1
    conf[1:, 0] = 1
    conf[1:, 1:] = _jacobsthal(field)
    a = np.array([[1, 1], [1, -1]], dtype=np.int64)
    b = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    h = np.kron(conf, a) + np.kron(np.eye(q + 1, dtype=np.int64), b)
    return HadamardMatrix(CycMatrix.from_int_matrix(h, order=2))


def dephase(h: HadamardMatrix) -> HadamardMatrix:
    """Scale each column by the conjugate of its first entry: one entrywise
    product of H with its conjugated first row, broadcast over the rows."""
    if h.dephased:
        return h
    mat = h.mat
    first = mat.submatrix(slice(0, 1), slice(None)).conjugate_entries()
    # a certified H times unimodular column scales stays Hadamard
    out = HadamardMatrix(CycMatrix(mat.order, _entrywise(
        mat.array, first.array, _ring(mat.order)), _copy=False), _check=False)
    if not out.dephased:
        raise AssertionError("dephasing failed to normalize the first row")
    return out


# ---------------------------------------------------------------------------
# regular simplices


def simplex_from_hadamard(h: HadamardMatrix) -> CycMatrix:
    """The (N-1) x N tail rows F of a dephased Hadamard matrix of size N.

    F needs no certificate of its own.  H is certified and its row 0 is all
    ones, so NI = H*H = J + F*F, hence F*F = NI - J; and F's entries are
    entries of H, so they are unimodular.  HH* = NI as well (H/sqrt(N) is
    unitary): its lower-right block gives FF* = NI and its first column,
    below the corner, gives F1 = 0.
    """
    if not h.dephased:
        raise HadamardError("Hadamard matrix must be dephased first")
    if h.size < 2:
        raise HadamardError("need size >= 2")
    return h.mat.submatrix(slice(1, h.size), slice(None))
