"""Frames over Z[zeta_n]: exact Gram computation, ETF certification,
positive/negative type classification, and Naimark complements.

Certification uses the integer scaling throughout: a certificate carries the
common squared norm s and squared coherence numerator t (coherence^2 = t/s^2)
as exact integers, and tightness is checked as D(Phi Phi*) = N s I, so no
rational matrices ever appear.

The one certifying pass runs in evaluation space (see `cyclo`): Phi is
evaluated once per prime, and Phi* is the same values, transposed, at the
conjugate points.  Conjugation reverses the order of the points, so Phi* is
a view of Phi's values: the pass makes no conjugate copy.  It runs in three
steps:

1. The N column norms, which fix s.
2. The upper block triangle of G = Phi* Phi, a tile of rows at a time,
   which fixes t.  Tile I is G[I, I.start:]: a tile multiplies only the
   rows of Phi that its columns touch, gathered (a dense frame's tiles
   take every row, as a plain slice), and only the columns of Phi from
   its first row on.  Each tile is interpolated once, and its |G|^2 is
   compared with |G_01|^2 at the points; past the primes, in its own space.
3. Tightness.  For an equal-norm, equiangular frame it is Welch equality:
   sum |G_ij|^2 = N s^2 + N(N - 1) t, so
   ||Phi Phi* - (N s / D) I||_F^2 = (N / D)(t D (N - 1) - s^2 (N - D)),
   and Phi is tight exactly when s^2 (N - D) = t D (N - 1) (t = 0 at
   N = 1), an identity of integers.  Any other frame is tight when
   Phi Phi* = (N s / D) I at the points, one product per prime.

The pass follows the zero pattern of Phi, which `Frame` keeps.  A
coefficient of G sums over the rows where both of its columns are
nonzero, and one of Phi Phi* over the columns where both of its rows are.
So the a-priori bound counts the most nonzeros of a column or of a row,
not max(D, N).  A zero entry is 0 at every point, so the same count is the
width of the prime ladder.  The pass stops once every field of the
certificate is fixed, and forms no N x N array.  `gram` runs the same row
tiles, each over all N columns, to the end, each interpolated into its
N x N output.

Hermitian symmetry halves the work twice.  G is Hermitian, G_rc =
conj(G_cr), so the pass never forms its lower block triangle: |G_rc|^2
was compared where G_cr was, which comes first in row-major order, so the
first entry that breaks an identity lies in a tile; and a value first seen
below the diagonal is the conjugate of one a tile holds (see `_distinct`).
This halves the products at every d.  A product M of an operator and its
adjoint is Hermitian, so its values at point d - 1 - j are also the
transpose of its values at point j; a real element such as a norm or a
|G|^2 has the same value at both.  So Phi Phi* = (N s / D) I, the column
norms and each tile's |G|^2 are computed at the first ceil(d/2) points
only, and a real element's values are mirrored where it is interpolated.
At d = 1 that is the one point.  `naimark_gram` is handed any G, so it
checks, per prime, that G's values at the conjugate points are the
transposes of its values at the points; only then is den G G = num G
checked at half of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import NamedTuple

import numpy as np

from .cyclo import (_CHUNK, _INT64_SAFE, CycMatrix, CycScalar, _float_exact,
                    _max_abs, _ring, _row_blocks, _scaled, _Space)

__all__ = [
    "FrameError",
    "EtfType",
    "Frame",
    "EtfCertificate",
    "gram",
    "verify_etf",
    "classify_type",
    "NaimarkResult",
    "naimark_gram",
    "TdtfReport",
]


_TILE_ROWS = 32   # Gram rows per tile at least: enough for BLAS speed


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

    def divisibility_ok(self) -> bool:
        return self.K >= 1 and (self.S * (self.S - self.L)) % self.K == 0

    def __str__(self):
        return f"({self.K},{self.L:+d},{self.S})"


class Frame:
    """A D x N synthesis operator.

    `support` is its zero pattern, a (D, N) boolean array that is True at
    the nonzero entries: the certifier's bound and tiles follow it.
    """

    def __init__(self, synthesis: CycMatrix):
        arr = synthesis.array
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise FrameError("frame must be nonempty")
        # a slot at a time, as a reduction along the short slot axis would
        # cost a call per entry; in chunks of rows past _CHUNK values, so
        # that the slots of a chunk are read from cache
        step = max(1, _CHUNK // arr[0].size)
        parts = []
        for i in range(0, arr.shape[0], step):
            part = arr[i:i + step, :, 0] != 0
            for j in range(1, arr.shape[2]):
                part |= arr[i:i + step, :, j] != 0
            parts.append(part)
        support = parts[0] if len(parts) == 1 else np.concatenate(parts)
        support.setflags(write=False)
        nonzero_cols = support.any(axis=0)
        if not nonzero_cols.all():
            c = int(np.argmin(nonzero_cols))
            raise FrameError(f"column {c} is zero")
        self.synthesis = synthesis
        self.support = support

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


def gram(frame: Frame) -> CycMatrix:
    """The exact N x N Gram matrix Phi*Phi, by the certifier's row tiles
    over every column (start 0), lower block triangle included: Phi is
    evaluated once, and each tile is interpolated into the output."""
    space, mag, _ = _frame_space(frame.synthesis, frame.support)
    n, deg = frame.n, space.degree
    # the output first: allocated after Phi's values, it left them, once
    # freed, as a hole beneath it in the heap (1.5 MiB more peak RSS in
    # perfbench's gdd-multislot)
    out = np.empty((n, n, deg), dtype=space.dtype)
    phi = space.values(frame.synthesis.array, mag)
    for rows, hit in _tiles(frame.support, deg):
        part = out[rows]
        part[...] = space.exact(_gram_tile(space, phi, rows, hit,
                                           0)).T.reshape(part.shape)
    return CycMatrix(frame.order, out, _copy=False)


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
        return _unimodular(self._synthesis)[2] is None

    @cached_property
    def centered(self) -> bool:
        """The frame vectors sum to zero: Phi times the all-ones vector,
        the row sums of the coefficient array.  They are exact in int64
        while max|Phi_ij| N < 2^63, and in Python ints past that."""
        arr = self._synthesis.array
        if arr.dtype != object and _max_abs(arr) * self.n >= 2**63:
            arr = arr.astype(object)
        return not arr.sum(axis=1).any()

    @property
    def tdtf(self) -> TdtfReport | None:
        """The two-distance tight frame report of a failed certificate;
        None for an ETF, whose pass reads no off-diagonal values."""
        if self.welch_equality:
            return None
        two = self.tdtf_values is not None
        return TdtfReport(self.tight, two, self.tdtf_values if two else (),
                          self.tight and two)

    def __str__(self):
        if self.welch_equality:
            return (f"ETF D={self.d} N={self.n} s={self.s} t={self.t} "
                    f"A={self.a}")
        flags = [name for name, val in (
            ("equal_norm", self.equal_norm), ("equiangular", self.equiangular),
            ("tight", self.tight)) if not val]
        return f"not an ETF (fails: {', '.join(flags)})"


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True of a boolean array, flattened."""
    return int(mask.argmax()) if mask.any() else None


def _distinct(values: list[np.ndarray] | None, coef: np.ndarray,
              off: np.ndarray, conj) -> list[np.ndarray] | None:
    """The distinct off-diagonal values of a Hermitian Gram so far, in order
    of first appearance, after a row tile of its upper block triangle:
    `coef` holds the tile's exact coefficients (d, entries) in row-major
    order, `off` marks its off-diagonal entries.  None once there are more
    than two.

    A value left out, below the diagonal, is the conjugate of one a tile
    holds.  So `conj`, which maps a value's coefficients to its
    conjugate's, adds the conjugate of each value found, on every tile:
    the values kept are closed under conjugation, as the whole Gram's are.
    The order needs no positions: with at most two values, the first is
    G_01, the first off-diagonal entry, found first."""
    if values is None:
        return None
    for v in values:
        off = off & (coef != v[:, None]).any(axis=0)
    while len(values) < 2 and (new := _first(off)) is not None:
        found = [coef[:, new].copy()]       # not a view that holds the tile
        c = conj(found[0])
        if not any((c == v).all() for v in found + values):
            found.append(c)                 # a real value is its own
        for v in found:
            if len(values) == 2:
                return None
            values.append(v)
            off = off & (coef != v[:, None]).any(axis=0)
    return None if off.any() else values


def _witness(order: int, norms: np.ndarray, bad_norm: int | None,
             ref: np.ndarray, angle, sides: tuple[int, int] | None) -> str:
    """The first Gram entry, in row-major order, that breaks equal norms,
    then rational norms, then equiangularity, then a rational |G_01|^2;
    else the missing tightness.  `norms` is the Gram diagonal (d, N), `ref`
    the coefficients of |G_01|^2 (none at N = 1), `angle` the first
    off-diagonal entry (r, c, |G_rc|^2) whose |.|^2 differs from it, or
    None, and `sides` the two sides s^2 (N - D) and t D (N - 1) of the
    Welch identity of an equal-norm, equiangular frame."""
    ref0 = CycScalar(order, norms[:, 0])
    if bad_norm is not None:
        bad = CycScalar(order, norms[:, bad_norm]).coeffs
        return (f"Gram entry ({bad_norm}, {bad_norm}) = {bad} breaks equal "
                f"norms (entry (0, 0) = {ref0.coeffs})")
    if not ref0.is_rational_integer:
        return f"Gram diagonal {ref0.coeffs} is not a rational integer"
    ref = CycScalar(order, ref) if ref.size else None
    if angle is not None:
        r, c, bad = angle
        return (f"Gram entry ({r}, {c}) has |.|^2 = "
                f"{CycScalar(order, bad).coeffs}, entry (0, 1) has "
                f"{ref.coeffs}: equiangularity fails")
    if ref is not None and not ref.is_rational_integer:
        return (f"Gram entry (0, 1) has |.|^2 = {ref.coeffs}, not a "
                f"rational integer")
    return (f"frame is equal-norm and equiangular but not tight: "
            f"s^2 (N - D) = {sides[0]}, t D (N - 1) = {sides[1]}")


def _half(deg: int) -> int:
    """ceil(d/2): the points j below it and their conjugates d - 1 - j are
    every point."""
    return (deg + 1) // 2


def _mirrored(half: np.ndarray, deg: int) -> np.ndarray:
    """The values at all d points of real elements, from those at the
    first ceil(d/2): a real element is its own conjugate, so its value at
    point d - 1 - j is its value at j."""
    return np.concatenate([half, half[:deg - len(half)][::-1]])


def _tiles(support: np.ndarray,
           deg: int) -> list[tuple[slice, slice | np.ndarray]]:
    """The column tiles of a synthesis operator with zero pattern `support`,
    (D, N), in order: (cols, hit), hit picking the rows of the operator
    that the tile's columns touch.  When they touch every row, or there is
    one tile, hit is a plain slice, so no rows are gathered."""
    d, n = support.shape
    tiles = list(_row_blocks(n, n * deg, _TILE_ROWS))
    if len(tiles) == 1:
        return [(tiles[0], slice(None))]
    # as 0/1 bytes, which numpy reduces faster than booleans
    touched = np.maximum.reduceat(support.view(np.uint8),
                                  [t.start for t in tiles], axis=1)
    out = []
    for cols, rows in zip(tiles, touched.T):
        hit = np.flatnonzero(rows)
        out.append((cols, hit if hit.size < d else slice(None)))
    return out


def _frame_space(mat: CycMatrix,
                 support: np.ndarray | None) -> tuple[_Space, int, int]:
    """The space of a pass over the products of Phi and Phi*, max|Phi| and
    the growth of such a product.  `support` is Phi's zero pattern, None
    when Phi is dense."""
    arr, (d, n) = mat.array, mat.shape
    ring = _ring(mat.order)
    mag = _max_abs(arr)
    # a coefficient of Phi* Phi (of Phi Phi*) sums over the rows (columns)
    # where both entries are nonzero, so over at most `terms` entries, the
    # most nonzeros of a column (of a row).  Each term is deg products of
    # one coefficient of Phi*, at most mag conj_l1, and one of zeta^i Phi,
    # at most mag fold_l1.  N s / D is the mean of the diagonal of Phi Phi*.
    # A zero entry is 0 at every point, so a sum at a point holds at most
    # `terms` nonzero products too: that is the width of the ladder.  The
    # counts are taken only where they can pay: a sparse frame whose
    # max(D, N) bound needs a prime
    growth = ring.conj_l1 * ring.degree * ring.fold_l1
    terms = max(d, n)
    if not (support is None or support.all()
            or _float_exact(ring, mag * mag * growth * terms)):
        counted = support.view(np.uint8)     # summed faster than booleans
        terms = max(int(counted.sum(axis=0, dtype=np.int32).max()),
                    int(counted.sum(axis=1, dtype=np.int32).max()))
    space = _Space(ring, max(terms, ring.degree), mag * mag * growth * terms)
    return space, mag, growth


def _gram_tile(space: _Space, phi: list[np.ndarray], rows: slice,
               hit: slice | np.ndarray, start: int) -> list[np.ndarray]:
    """The reduced values of G[rows, start:], (d, rows, N - start) per
    prime.  Entry (r, c) sums conj(Phi_kr) Phi_kc over the rows k where
    column r is nonzero, so the tile multiplies only the rows `hit` that it
    touches, and only the columns of Phi from `start` on; Phi* is Phi at
    the conjugate points, a view."""
    tile = []
    for i, v in enumerate(phi):
        w = v[:, hit, start:]
        left = space.conj(w[:, :, rows.start - start:rows.stop - start])
        tile.append(space.reduce(left.transpose(0, 2, 1) @ w, i))
    return tile


def _unimodular(mat: CycMatrix) -> tuple:
    """A dense pass over `mat`: its space and values, the row-major index
    of the first entry whose |.|^2, real, is not 1 at the first ceil(d/2)
    points, and that |.|^2; else None, None."""
    space, mag, _ = _frame_space(mat, None)
    phi, deg = space.values(mat.array, mag), space.degree
    half = _half(deg)
    mods = [space.reduce(v[:half] * space.conj(v)[:half], i).reshape(half, -1)
            for i, v in enumerate(phi)]
    bad = _first(np.any([(m != 1).any(axis=0) for m in mods], axis=0))
    mod = None if bad is None else CycScalar(mat.order, space.exact(
        [_mirrored(m[:, bad], deg) for m in mods])[:, 0])
    return space, phi, bad, mod


def _tight(space: _Space, phi: list[np.ndarray], c: int) -> bool:
    """Whether Phi Phi* = c I, from Phi's values per prime, (d, D, N): one
    batched product per prime.  A sum at a point holds at most `terms`
    nonzero products, so it is exact in float64, and is reduced once.  Both
    sides are Hermitian, so at point d - 1 - j each is its transpose at
    point j: the identity is checked at the first ceil(d/2) points."""
    for i, v in enumerate(phi):
        half, d = _half(v.shape[0]), v.shape[1]
        fo = space.reduce(v[:half] @ space.conj(v)[:half].transpose(0, 2, 1),
                          i).reshape(half, -1)
        fo[:, ::d + 1] -= space.residue(c, i)
        if fo.any():
            return False
    return True


def verify_etf(frame: Frame) -> EtfCertificate:
    """Certify equal norms, equiangularity, tightness and Welch equality,
    all as exact integer identities, in one pass: norms, then Gram tiles,
    then tightness.  Tightness of an equal-norm, equiangular frame is its
    Welch identity (see the module docstring); only another frame whose
    N s / D is an integer forms Phi Phi*.  A failed certificate carries its
    witness and the distinct off-diagonal Gram values (None past two);
    flatness and centering are computed when first read."""
    support = frame.support
    d, n, order = frame.d, frame.n, frame.order
    ring = _ring(order)
    deg, half = ring.degree, _half(ring.degree)
    space, mag, growth = _frame_space(frame.synthesis, support)
    phi = space.values(frame.synthesis.array, mag)        # (deg, D, N)

    # a column norm is real: its values at the first ceil(d/2) points give
    # the rest
    norms = space.exact([
        _mirrored(space.reduce(np.einsum("jki,jki->ji", space.conj(v)[:half],
                                         v[:half]), i), deg)
        for i, v in enumerate(phi)])
    bad_norm = _first((norms != norms[:, :1]).any(axis=0))
    s = (int(norms[0, 0]) if bad_norm is None and not norms[1:, 0].any()
         else None)

    def conj(v):        # exact, as only a few values are conjugated
        return v if deg == 1 else np.array(
            CycScalar(order, v.tolist()).conjugate().coeffs, dtype=v.dtype)

    # row tiles of G's upper block triangle, G[rows, rows.start:], in
    # row-major order until every field is fixed; entry (0, 1), whose |.|^2
    # is ref, is entry 1 of the first.  An entry left out, (r, c) with
    # c < rows.start, is conj(G_cr), and |G_cr|^2 was compared in an
    # earlier tile: so the first entry of G that breaks an identity is the
    # first in the tiles
    values, ref, at, angle = [], np.zeros(0, np.int64), None, None
    for rows, hit in _tiles(support, deg) if n > 1 else ():
        tile = _gram_tile(space, phi, rows, hit, rows.start)
        coef = space.exact(tile)                          # (deg, entries)
        w = n - rows.start                                # the tile's width
        off = np.ones(coef.shape[1], dtype=bool)
        off[::w + 1] = False
        values = _distinct(values, coef, off, conj)
        if angle is None:
            # |G|^2 and ref, both real, are compared at the first ceil(d/2)
            # points of the pass's space if it covers both, else of one in
            # which the tile is evaluated; ref is bounded apart, as no
            # G_r0 = conj(G_0r) in a later tile bounds it
            bound = max(_max_abs(coef) ** 2 * growth, _max_abs(ref))
            own = space if space.covers(bound) else _Space(ring, deg, bound)
            vals = tile if own is space else own.values(coef.T, _max_abs(coef))
            mods = [own.reduce(g[:half] * own.conj(g)[:half], i).reshape(
                half, -1) for i, g in enumerate(vals)]    # |G|^2 values
            if not ref.size:
                ref = own.exact([_mirrored(m[:, 1], deg) for m in mods])[:, 0]
            if at is None or at[0] is not own:   # ref's values in this space
                at = own, own.values(ref[None], _max_abs(ref))
            bad = _first(off & np.any([(m != r[:half]).any(axis=0)
                                       for m, r in zip(mods, at[1])], axis=0))
            if bad is not None:
                angle = (rows.start + bad // w, rows.start + bad % w,
                         own.exact([_mirrored(m[:, bad], deg)
                                    for m in mods])[:, 0])
        if angle is not None and values is None:
            break
    t = (int(ref[0]) if ref.size and angle is None and not ref[1:].any()
         else None)
    equiangular = n == 1 or t is not None
    if s is not None and equiangular:
        sides = s * s * (n - d), (t or 0) * d * (n - 1)
        tight = sides[0] == sides[1]
    else:
        sides = None
        tight = (s is not None and n * s % d == 0
                 and _tight(space, phi, n * s // d))
    welch = s is not None and equiangular and tight

    if welch:
        witness = values = None
    else:
        witness = _witness(order, norms, bad_norm, ref, angle, sides)
        values = (None if values is None
                  else tuple(CycScalar(order, v) for v in values))
    a = Fraction(n * s, d) if s is not None else None
    return EtfCertificate(d, n, s, t, a, s is not None, equiangular, tight,
                          welch, witness, values, frame.synthesis)


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

    Certifies den G G = num G (a tight Gram) at the points of one pass,
    bounded by den mag^2 N d fold_l1 + |num| mag for mag = max|G| (as a
    product bounds each side), and interpolates nothing.  Where G's values
    at the conjugate points are the transposes of its values at the points,
    as a Hermitian G's are, each side at point d - 1 - j is the transpose of
    its value at point j, so the identity is checked at the first ceil(d/2)
    points; elsewhere at every point.  The transfer identity G' G' = num G'
    follows without a second product: expanding gives G' G' - num G' =
    den (den G G - num G), and den >= 1.
    """
    if g.rows != g.cols:
        raise FrameError("Gram matrix must be square")
    frac = Fraction(a)
    num, den = frac.numerator, frac.denominator
    n, arr = g.rows, g.array
    ring = _ring(g.order)
    deg, mag = ring.degree, _max_abs(arr)
    half = _half(deg)
    space = _Space(ring, max(n, deg),
                   den * mag * mag * n * deg * ring.fold_l1 + abs(num) * mag)

    def holds(i: int, v: np.ndarray) -> bool:
        # den G G = num G a block of rows at a time, at the points it needs
        if half < deg and np.array_equal(
                space.conj(v)[:half].transpose(0, 2, 1), v[:half]):
            v = v[:half]
        for rows in space.blocks(n, n * len(v), _TILE_ROWS):
            left = space.reduce(v[:, rows] @ v, i)
            if den != 1:
                left = space.reduce(left * space.residue(den, i), i)
            if not np.array_equal(left, space.reduce(
                    v[:, rows] * space.residue(num, i), i)):
                return False
        return True

    # G evaluated once; then, its values freed, -den G with num on its
    # diagonal
    input_tight = all(holds(i, v)
                      for i, v in enumerate(space.values(arr, mag)))
    comp = -arr if den == 1 else _scaled(arr, -den)
    if comp.dtype != object and abs(num) >= _INT64_SAFE:
        comp = comp.astype(object)
    comp[np.arange(n), np.arange(n), 0] += num
    return NaimarkResult(CycMatrix(g.order, comp, _copy=False), den,
                         input_tight, input_tight)


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
