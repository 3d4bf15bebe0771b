"""Frames over Z[zeta_n]: exact Gram computation, ETF certification,
positive/negative type classification, and Naimark complements.

Certification uses the integer scaling throughout: a certificate carries the
common squared norm s and squared coherence numerator t (coherence^2 = t/s^2)
as exact integers, and tightness is checked as D(Phi Phi*) = N s I, so no
rational matrices ever appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from .cyclo import CycMatrix, CycScalar

__all__ = [
    "FrameError",
    "EtfType",
    "Frame",
    "EtfCertificate",
    "gram",
    "frame_operator",
    "verify_etf",
    "classify_type",
    "NaimarkResult",
    "naimark_gram",
    "TdtfReport",
    "verify_tdtf",
]


class FrameError(ValueError):
    """Invalid frame data or parameter domain."""


class EtfType(NamedTuple):
    """The (K, L, S) parameterization of ETF sizes, L in {+1, -1}."""

    K: int
    L: int
    S: int

    @property
    def dimension(self) -> int:
        """D = (S/K)(S(K-1) + L)."""
        return self.S * (self.S * (self.K - 1) + self.L) // self.K

    @property
    def count(self) -> int:
        """N = (S+L)(S(K-1) + L)."""
        return (self.S + self.L) * (self.S * (self.K - 1) + self.L)

    @property
    def seed_group_size(self) -> int:
        """M = S(K-1) + L, the group size of a matching K-GDD."""
        return self.S * (self.K - 1) + self.L

    @property
    def complement_norm(self) -> int:
        """Squared norm S(K-1) + KL of a Naimark complement, at coherence 1."""
        return self.S * (self.K - 1) + self.K * self.L

    def divisibility_ok(self) -> bool:
        return self.K >= 1 and (self.S * (self.S - self.L)) % self.K == 0

    def __str__(self):
        return f"({self.K},{self.L:+d},{self.S})"


class Frame:
    """A D x N synthesis operator with optional column grouping."""

    def __init__(self, synthesis: CycMatrix, groups: int | None = None):
        arr = synthesis.array
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise FrameError("frame must be nonempty")
        nonzero_cols = arr.any(axis=(0, 2))
        if not nonzero_cols.all():
            c = int(np.argmin(nonzero_cols))
            raise FrameError(f"column {c} is zero")
        if groups is not None and synthesis.cols % groups != 0:
            raise FrameError(
                f"{groups} groups do not divide {synthesis.cols} columns")
        self.synthesis = synthesis
        self.groups = groups
        self._adjoint = None      # Phi*, kept while a certification runs

    @property
    def d(self) -> int:
        return self.synthesis.rows

    @property
    def n(self) -> int:
        return self.synthesis.cols

    @property
    def order(self) -> int:
        return self.synthesis.order

    def __repr__(self):
        return f"Frame(D={self.d}, N={self.n}, order={self.order})"


def _adjoint(frame: Frame) -> CycMatrix:
    """Phi*: the one a running certification keeps, else a new one, so a
    certification of the same frame in another thread changes no result."""
    if frame._adjoint is None:
        return frame.synthesis.adjoint()
    return frame._adjoint


def gram(frame: Frame) -> CycMatrix:
    """The exact N x N Gram matrix Phi*Phi."""
    return _adjoint(frame) @ frame.synthesis


def frame_operator(frame: Frame) -> CycMatrix:
    """The exact D x D frame operator Phi Phi*."""
    return frame.synthesis @ _adjoint(frame)


@dataclass(frozen=True)
class EtfCertificate:
    d: int
    n: int
    s: int | None                 # common squared norm
    t: int | None                 # common squared coherence numerator
    a: Fraction | None            # tight frame constant N s / D
    equal_norm: bool
    equiangular: bool
    tight: bool
    welch_equality: bool
    # on failure only: the first Gram entry that breaks an identity, and the
    # distinct off-diagonal Gram values in order of first appearance (None
    # when there are more than two)
    witness: str | None
    tdtf_values: tuple[CycScalar, ...] | None
    _synthesis: CycMatrix = field(repr=False, compare=False)

    @cached_property
    def flat(self) -> bool:
        """Every entry of the synthesis operator has |Phi_ij|^2 = 1."""
        syn = self._synthesis
        return syn.abs_squared_entries() == CycMatrix.ones(self.d, self.n,
                                                           syn.order)

    @cached_property
    def centered(self) -> bool:
        """The frame vectors sum to zero: Phi times the all-ones vector."""
        syn = self._synthesis
        return (syn @ CycMatrix.ones(self.n, 1, syn.order)).is_zero

    @property
    def tdtf(self) -> TdtfReport | None:
        """The two-distance tight frame report of a failed certificate;
        None for an ETF, whose pass reads no off-diagonal values."""
        if self.welch_equality:
            return None
        return _tdtf_report(self.tight, self.tdtf_values)

    def __str__(self):
        if self.welch_equality:
            a = self.a
            a_str = str(a) if a.denominator != 1 else str(a.numerator)
            return (f"ETF D={self.d} N={self.n} s={self.s} t={self.t} "
                    f"A={a_str}")
        flags = [name for name, val in (
            ("equal_norm", self.equal_norm), ("equiangular", self.equiangular),
            ("tight", self.tight)) if not val]
        return f"not an ETF (fails: {', '.join(flags)})"


def _offdiagonal(arr: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of an (n, n, deg) array in row-major order,
    as an (n - 1, n, deg) view: after entry (0, 0) the entries split into
    runs of n + 1, each ending on a diagonal entry."""
    n, deg = arr.shape[0], arr.shape[2]
    return arr.reshape(n * n, deg)[1:].reshape(n - 1, n + 1, deg)[:, :n]


def _at(entries: np.ndarray, index: int) -> np.ndarray:
    """Entry `index`, in row-major order, of a (..., deg) array."""
    return entries[np.unravel_index(index, entries.shape[:-1])]


def _first_mismatch(entries: np.ndarray) -> int | None:
    """Row-major index of the first entry of a (..., deg) array that
    differs from the first one."""
    differs = (entries != _at(entries, 0)).any(axis=-1)
    return int(differs.argmax()) if differs.any() else None


def _tight_constant(op: CycMatrix) -> int | None:
    """c such that op = c I exactly with c a rational integer, else None."""
    arr = op.array
    if _offdiagonal(arr).any():
        return None
    diag = arr[np.arange(op.rows), np.arange(op.rows)]
    if _first_mismatch(diag) is not None:
        return None
    return CycScalar(op.order, diag[0]).as_integer()


def _offdiag_values(g: CycMatrix) -> tuple[CycScalar, ...] | None:
    """The distinct off-diagonal entries of g in order of first appearance,
    or None when there are more than two."""
    off = _offdiagonal(g.array)
    if not off.size:
        return ()
    values = [_at(off, 0)]
    differs = (off != values[0]).any(axis=-1)
    if differs.any():
        values.append(_at(off, int(differs.argmax())))
        if (differs & (off != values[1]).any(axis=-1)).any():
            return None
    return tuple(CycScalar(g.order, v) for v in values)


def _witness(order: int, diag: np.ndarray, bad_norm: int | None,
             mods: np.ndarray | None, bad_angle: int | None) -> str:
    """The first Gram entry, in row-major order, that breaks equal norms,
    then rational norms, then equiangularity; else the missing tightness.
    `bad_norm` indexes the diagonal `diag`, `bad_angle` the off-diagonal
    |G_ij|^2 `mods` (an `_offdiagonal` view) in row-major order."""
    ref = CycScalar(order, diag[0])
    if bad_norm is not None:
        bad = CycScalar(order, diag[bad_norm]).coeffs
        return (f"Gram entry ({bad_norm}, {bad_norm}) = {bad} breaks equal "
                f"norms (entry (0, 0) = {ref.coeffs})")
    if not ref.is_rational_integer:
        return f"Gram diagonal {ref.coeffs} is not a rational integer"
    if bad_angle is not None:
        # row r of the off-diagonal part skips column r
        r, c = divmod(bad_angle, diag.shape[0] - 1)
        c += c >= r
        bad = CycScalar(order, _at(mods, bad_angle)).coeffs
        return (f"Gram entry ({r}, {c}) has |.|^2 = {bad}, entry (0, 1) has "
                f"{CycScalar(order, _at(mods, 0)).coeffs}: equiangularity "
                f"fails")
    return "frame is equal-norm and equiangular but not tight"


def _certify(frame: Frame) -> tuple[EtfCertificate, CycMatrix]:
    """The one certifying pass: the certificate and the Gram it read."""
    # one adjoint for both products, dropped before |G|^2 is formed
    frame._adjoint = frame.synthesis.adjoint()
    try:
        g = gram(frame)
        fo = frame_operator(frame)
    finally:
        frame._adjoint = None
    d, n, order = frame.d, frame.n, frame.order
    diag = g.array[np.arange(n), np.arange(n)]

    bad_norm = _first_mismatch(diag)
    s = (CycScalar(order, diag[0]).as_integer()
         if bad_norm is None else None)
    equal_norm = s is not None

    if n == 1:
        mods, bad_angle, equiangular, t = None, None, True, None
    else:
        mods = _offdiagonal(g.abs_squared_entries().array)
        bad_angle = _first_mismatch(mods)
        t = (CycScalar(order, _at(mods, 0)).as_integer()
             if bad_angle is None else None)
        equiangular = t is not None

    c = _tight_constant(fo)
    tight = c is not None and s is not None and d * c == n * s

    welch = equal_norm and equiangular and tight
    # Welch equality forces this integer identity; a failure is a bug
    if welch and n > d and s * s * (n - d) != t * d * (n - 1):
        raise AssertionError(
            "certified ETF violates the Welch equality identity")

    witness = None if welch else _witness(order, diag, bad_norm, mods,
                                          bad_angle)
    values = None if welch else _offdiag_values(g)
    a = Fraction(n * s, d) if s is not None else None
    cert = EtfCertificate(d, n, s, t, a, equal_norm, equiangular, tight,
                          welch, witness, values, frame.synthesis)
    return cert, g


def verify_etf(frame: Frame) -> EtfCertificate:
    """Certify equal norms, equiangularity, tightness and Welch equality,
    all as exact integer identities.  A failed certificate carries its
    witness and TDTF values too; flatness and centering are computed when
    first read."""
    return _certify(frame)[0]


def classify_type(d: int, n: int) -> list[EtfType]:
    """All (K, L, S) types of the pair (D, N), positive type first.

    S must satisfy S^2 = D(N-1)/(N-D) exactly; each sign L contributes a
    type when K = NS/(D(S+L)) is a positive integer.
    """
    if d <= 1 or n <= d:
        raise FrameError(f"classification needs 1 < D < N, got ({d}, {n})")
    num = d * (n - 1)
    den = n - d
    if num % den != 0:
        return []
    s2 = num // den
    s = isqrt(s2)
    if s * s != s2 or s < 2:
        return []
    out = []
    for ell in (1, -1):
        kden = d * (s + ell)
        knum = n * s
        if kden > 0 and knum % kden == 0:
            k = knum // kden
            if k >= 1:
                t = EtfType(k, ell, s)
                if t.dimension != d or t.count != n:
                    raise AssertionError(
                        f"type {t} does not reproduce ({d}, {n})")
                out.append(t)
    return out


@dataclass(frozen=True)
class NaimarkResult:
    """G' = den*(A I - G) with A = num/den, plus tightness-transfer flags.

    `transfer_ok` (G' G' = num G') always equals `input_tight`; see
    `naimark_gram`.
    """

    complement: CycMatrix
    denominator: int
    input_tight: bool
    transfer_ok: bool


def naimark_gram(g: CycMatrix, a) -> NaimarkResult:
    """Complement Gram G' = num I - den G of G at A = num/den.

    Certifies den G G = num G (a tight Gram).  The transfer identity
    G' G' = num G' follows without a second product: expanding gives
    G' G' - num G' = den (den G G - num G), and den >= 1.
    """
    if g.rows != g.cols:
        raise FrameError("Gram matrix must be square")
    frac = Fraction(a)
    num, den = frac.numerator, frac.denominator
    comp = (CycMatrix.identity(g.rows, g.order).scalar_mul(num)
            - g.scalar_mul(den))
    input_tight = (g @ g).scalar_mul(den) == g.scalar_mul(num)
    return NaimarkResult(comp, den, input_tight, input_tight)


@dataclass(frozen=True)
class TdtfReport:
    tight: bool
    two_distance: bool
    values: tuple[CycScalar, ...]
    ok: bool

    def __str__(self):
        if self.ok:
            vals = ", ".join(str(v.coeffs) for v in self.values)
            return f"TDTF pass: off-diagonal values {{{vals}}}"
        return (f"TDTF fail: tight={self.tight}, "
                f"two_distance={self.two_distance}")


def _tdtf_report(tight: bool,
                 values: tuple[CycScalar, ...] | None) -> TdtfReport:
    two = values is not None
    return TdtfReport(tight, two, values if two else (), tight and two)


def verify_tdtf(frame: Frame) -> TdtfReport:
    """Equal norms, tightness and at most two distinct off-diagonal Gram
    values, from the one certifying pass.

    `tight` is the certificate's: Phi Phi* = (N s / D) I for the common
    squared norm s, so a frame with unequal norms is not a TDTF.
    """
    cert, g = _certify(frame)
    return cert.tdtf or _tdtf_report(cert.tight, _offdiag_values(g))
