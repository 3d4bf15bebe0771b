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
   its first row on.  Past its product a tile is read at the pass's
   points; only what a certificate prints is interpolated, one entry each
   (ref = |G_01|^2, the witness's |G|^2 and each distinct value reported;
   see `_abs_squared`).  Two rules read it:
   (a) Until a witness is found, its |G|^2 is compared with ref at the
       pass's points, which is exact by the norm rule below once the
       primes cover m^2, m the largest l1 norm of a column norm's
       coefficients (s for equal rational norms); else Phi is evaluated
       once more, in a pass that also covers m^2.
   (b) While there are at most two, its distinct off-diagonal values,
       which a failed certificate reports, are found by their values: the
       pass covers every coefficient of G, so two entries are equal
       exactly when they agree at every point modulo every prime.  At
       d = 1 a tile with no witness holds only +-G_01 off its diagonal,
       so once both are held it is not read for them.
3. Tightness.  For an equal-norm, equiangular frame it is Welch equality:
   sum |G_ij|^2 = N s^2 + N(N - 1) t, so
   ||Phi Phi* - (N s / D) I||_F^2 = (N / D)(t D (N - 1) - s^2 (N - D)),
   and Phi is tight exactly when s^2 (N - D) = t D (N - 1) (t = 0 at
   N = 1), an identity of integers.  Any other frame is tight when
   Phi Phi* = (N s / D) I at the points, one product per prime.

The pass follows the zero pattern of Phi, which `Frame` keeps.  A zero
entry is 0 at every point, so where Phi's zeros hold a block of values
(`_BLOCK`) or more, only its nonzero entries are evaluated, listed by
their flat indices; else every entry is, as a plain slice.  Both run the
same loop of `_Space.values`: a dense frame is the case where every entry
is listed.  A coefficient
of G sums over the rows where both of its columns are nonzero, and one of
Phi Phi* over the columns where both of its rows are, so the a-priori
bound and the width of the prime ladder count the most nonzeros of a
column or of a row, not max(D, N).  The pass stops once every field of
the certificate is fixed, and forms no N x N array.  `gram` runs the same
row tiles, each over all N columns, to the end, each interpolated
straight into its row-major N x N output.

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
At d = 1 that is the one point.  `naimark_gram` checks a Gram that `gram`
returned through its frame, as Phi Phi* = A I.  Any other G it is handed
need not be Hermitian, so there den G G = num G is checked at every point.

The norm rule bounds the values of a comparison, not its coefficients, as
FFLAS-FFPACK's argument bounds the sums of a product (see `cyclo`).  Let
sigma be a complex embedding of Q(zeta_n).  The field is abelian, so
sigma commutes with complex conjugation, and sigma(G_ij) is the inner
product of columns i and j of sigma(Phi).  So 0 <= sigma(G_ii) <= m, the
l1 norm of G_ii's coefficients bounding it as each sigma(zeta^k) has
modulus 1, and Cauchy-Schwarz gives |sigma(G_ij)|^2 <= m^2, so
sigma(|G_ij|^2) and sigma(ref) lie in [0, m^2], and x = |G_ij|^2 - ref has
|sigma(x)| <= m^2 for every sigma.  If their values agree at every point
modulo primes whose product is P, then x = P y for some y in Z[zeta_n].
A nonzero y has a norm, the product of its sigma(y), that is a nonzero
integer, so |sigma(y)| >= 1 for some sigma, and |sigma(x)| >= P.  So
P > 2 m^2 forces x = 0 (L. Washington, Introduction to Cyclotomic Fields,
GTM 83, ch. 1-2).  Likewise, where the values of a |G_ij|^2 interpolate
to an integer c, |c| < P/2, it is c, as |sigma(|G_ij|^2) - c| < P.  With
no prime (d = 1) all of these are integers below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

from .cyclo import (_BLOCK, _CHUNK, _INT64_SAFE, CycMatrix, CycScalar,
                    _entrywise, _float_exact, _ladder_first, _ring,
                    _row_blocks, _scaled, _Space)

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
        d, n, deg = arr.shape
        if deg <= 12 and 256 * deg <= d * n:
            # a slot at a time, a call per slot, while that beats one
            # reduction along the slot axis, which pays a step per entry:
            # up to 12 slots, with 256 entries a slot or more.  In chunks
            # of rows past _CHUNK values, so that the slots of a chunk are
            # read from cache
            step = max(1, _CHUNK // arr[0].size)
            parts = []
            for i in range(0, d, step):
                part = arr[i:i + step, :, 0] != 0
                for j in range(1, deg):
                    part |= arr[i:i + step, :, j] != 0
                parts.append(part)
            support = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            support = arr.any(axis=2)
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


class _FramedGram(CycMatrix):
    """The Gram Phi* Phi that `gram` returns, with the frame Phi it was
    computed from: a matrix made from it (a submatrix, a lift, a copy) is
    a plain CycMatrix."""

    __slots__ = ("frame",)

    def __init__(self, frame: Frame, arr: np.ndarray):
        super().__init__(frame.order, arr, _copy=False)
        object.__setattr__(self, "frame", frame)


def gram(frame: Frame) -> CycMatrix:
    """The exact N x N Gram matrix Phi*Phi, by the certifier's row tiles
    over every column (start 0), lower block triangle included: Phi is
    evaluated once, and each tile is interpolated into the output.  The
    Gram keeps the frame alive, so that `naimark_gram` can certify its
    tightness through Phi."""
    space, mag, nonzero = _frame_space(frame.synthesis, frame.support)
    n, deg = frame.n, space.degree
    # the output first: allocated after Phi's values, it left them, once
    # freed, as a hole beneath it in the heap (1.5 MiB more peak RSS in
    # perfbench's gdd-multislot)
    out = np.empty((n, n, deg), dtype=space.dtype)
    phi = space.values(frame.synthesis.array, mag, nonzero)
    for rows, hit in _tiles(frame.support, deg):
        part = out[rows]
        part[...] = space.exact(_gram_tile(space, phi, rows, hit,
                                           0)).reshape(part.shape)
    return _FramedGram(frame, out)


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


def _distinct(values: list[np.ndarray], tile: list[np.ndarray],
              off: np.ndarray) -> list[np.ndarray] | None:
    """The distinct off-diagonal values of a Hermitian Gram so far, in order
    of first appearance, after a row tile of its upper block triangle:
    `tile` holds the tile's values, (d, entries) per prime, in row-major
    order, and `off` marks its off-diagonal entries.  A value is held as
    its values, (primes, d).  The pass's primes cover every coefficient of
    G, so two entries are equal exactly when their values agree at every
    point modulo every prime.  None once there are more than two, after
    which no tile is read.

    A value left out, below the diagonal, is the conjugate of one a tile
    holds: its values read backwards, a view.  So the conjugate of each
    value found is added, on every tile: the values kept are closed under
    conjugation, as the whole Gram's are.  The order needs no positions:
    with at most two values, the first is G_01, the first off-diagonal
    entry, found first."""
    def other(off, v):      # off, less the entries whose values are v's
        differs = (tile[0] != v[0][:, None]).any(axis=0)
        for t, x in zip(tile[1:], v[1:]):
            differs |= (t != x[:, None]).any(axis=0)
        return off & differs

    for v in values:
        off = other(off, v)
    while len(values) < 2 and (new := _first(off)) is not None:
        found = [np.array([t[:, new] for t in tile])]   # not a tile view
        c = found[0][:, ::-1]
        if not any((c == v).all() for v in found + values):
            found.append(c)                 # a real value is its own
        for v in found:
            if len(values) == 2:
                return None
            values.append(v)
            off = other(off, v)
    return None if off.any() else values


def _witness(order: int, norms: np.ndarray, bad_norm: int | None,
             ref: np.ndarray | None, angle,
             sides: tuple[int, int] | None) -> str:
    """The first Gram entry, in row-major order, that breaks equal norms,
    then rational norms, then equiangularity, then a rational |G_01|^2;
    else the missing tightness.  `norms` is the Gram diagonal (N, d), `ref`
    the coefficients of |G_01|^2 (None at N = 1), `angle` the first
    off-diagonal entry (r, c, |G_rc|^2) whose |.|^2 differs from it, or
    None, and `sides` the two sides s^2 (N - D) and t D (N - 1) of the
    Welch identity of an equal-norm, equiangular frame."""
    ref0 = CycScalar(order, norms[0])
    if bad_norm is not None:
        bad = CycScalar(order, norms[bad_norm]).coeffs
        return (f"Gram entry ({bad_norm}, {bad_norm}) = {bad} breaks equal "
                f"norms (entry (0, 0) = {ref0.coeffs})")
    if not ref0.is_rational_integer:
        return f"Gram diagonal {ref0.coeffs} is not a rational integer"
    ref = None if ref is None else CycScalar(order, ref)
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


def _frame_space(mat: CycMatrix, support: np.ndarray | None,
                 least: int = 0) -> tuple[_Space, int, slice | np.ndarray]:
    """The space of a pass over the products of Phi and Phi*, max|Phi|, and
    the entries of Phi that `_Space.values` evaluates: a plain slice, or
    the flat indices of its nonzeros.  `support` is Phi's zero pattern,
    None when Phi is dense; the pass's bound is at least `least`."""
    (d, n), ring, mag = mat.shape, _ring(mat.order), mat.mag
    # a coefficient of Phi* Phi (of Phi Phi*) sums over the rows (columns)
    # where both entries are nonzero, so over at most `terms` entries, the
    # most nonzeros of a column (of a row).  Each term is deg products of
    # one coefficient of Phi*, at most mag conj_l1, and one of zeta^i Phi,
    # at most mag fold_l1.  N s / D is the mean of the diagonal of Phi Phi*.
    # A zero entry is 0 at every point, so a sum at a point holds at most
    # `terms` nonzero products too: that is the width of the ladder.  The
    # counts are taken only where they can pay: a sparse frame whose
    # max(D, N) bound needs a prime.  The growth factors are 1 at d = 1,
    # and past it only a zero bound needs no prime, so that is read
    # without them.  Only the nonzeros are evaluated where the zeros
    # skipped hold a block of values, at which the indices pay for
    # themselves
    terms, entries = max(d, n), slice(None)
    if not (support is None or support.all()
            or _float_exact(ring, mag * mag * terms)):
        counted = support.view(np.uint8)     # summed faster than booleans
        per_col = counted.sum(axis=0, dtype=np.int32)
        terms = max(int(per_col.max()),
                    int(counted.sum(axis=1, dtype=np.int32).max()))
        if (d * n - int(per_col.sum())) * ring.degree >= _BLOCK:
            entries = np.flatnonzero(support)
    width = max(terms, ring.degree)
    _ladder_first(ring, width, mag)
    bound = max(mag * mag * ring.conj_l1 * ring.degree * ring.fold_l1
                * terms, least)
    return _Space(ring, width, bound), mag, entries


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


def _moduli(space: _Space, vals: list[np.ndarray]) -> list[np.ndarray]:
    """|.|^2 of entries from their values, (d, ...) per prime: a real
    element, so at the first ceil(d/2) points only, (ceil(d/2), entries)."""
    half = _half(space.degree)
    return [space.reduce(g[:half] * space.conj(g)[:half], i).reshape(half, -1)
            for i, g in enumerate(vals)]


def _differs(mods: list[np.ndarray], ref: list[np.ndarray],
             w: int) -> np.ndarray:
    """Where a tile of width w has |G|^2, `mods`, other than ref's values in
    the same space, (ceil(d/2), 1) per prime, its diagonal left out."""
    diff = np.zeros(mods[0].shape[1], dtype=bool)
    for m, r in zip(mods, ref):                   # one point needs no any
        diff |= m[0] != r[0] if len(m) == 1 else (m != r).any(0)
    diff[::w + 1] = False                         # the tile's diagonal
    return diff


def _abs_squared(space: _Space, ring, tile: list[np.ndarray],
                 mods: list[np.ndarray], k: int) -> np.ndarray:
    """The exact |G|^2 of entry k of a tile, (d,): read off the tile's
    |G|^2 values `mods` where they interpolate to an integer (the norm
    rule), else squared by `_entrywise` from the interpolated entry."""
    x = space.exact([_mirrored(m[:, k], space.degree) for m in mods])[0]
    if not x[1:].any():
        return x
    g = space.exact([v[:, k:k + 1] for v in tile])            # (1, d)
    return _entrywise(g, None, ring)[0]


def _unimodular(mat: CycMatrix) -> tuple:
    """A dense pass over `mat`: its space and values, the row-major index
    of the first entry whose |.|^2, real, is not 1 at the first ceil(d/2)
    points, and that |.|^2; else None, None."""
    space, mag, _ = _frame_space(mat, None)
    phi, deg = space.values(mat.array, mag), space.degree
    mods = _moduli(space, phi)
    bad = _first(np.any([(m != 1).any(axis=0) for m in mods], axis=0))
    mod = None if bad is None else CycScalar(mat.order, space.exact(
        [_mirrored(m[:, bad], deg) for m in mods])[0])
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
    then tightness (see the module docstring).  A failed certificate
    carries its witness and the distinct off-diagonal Gram values (None
    past two).  It is a plain value: it keeps no reference to the frame."""
    d, n, order = frame.d, frame.n, frame.order
    ring = _ring(order)
    deg, half = ring.degree, _half(ring.degree)
    space, mag, nonzero = _frame_space(frame.synthesis, frame.support)
    phi = space.values(frame.synthesis.array, mag, nonzero)  # (deg, D, N)

    # a column norm is real: its first ceil(d/2) values give the rest
    norms = space.exact([                                      # (N, deg)
        _mirrored(space.reduce(np.einsum("jki,jki->ji", space.conj(v)[:half],
                                         v[:half]), i), deg)
        for i, v in enumerate(phi)])
    bad_norm = _first((norms != norms[:1]).any(axis=1))
    s = (int(norms[0, 0]) if bad_norm is None and not norms[0, 1:].any()
         else None)

    # the norm rule (see the module docstring) compares every |G|^2 with
    # ref at the points of a pass that covers m^2; the l1 sums are of
    # Python ints, as int64 ones could pass 2^63
    m = int(np.abs(norms).sum(axis=1, dtype=object).max()) if n > 1 else 0
    if not space.covers(m * m):
        phi = None                      # freed before Phi is evaluated again
        space, mag, nonzero = _frame_space(frame.synthesis, frame.support,
                                           m * m)
        phi = space.values(frame.synthesis.array, mag, nonzero)

    # row tiles of G's upper block triangle until every field is fixed;
    # entry (0, 1), whose |.|^2 is ref, is entry 1 of the first
    values, ref, angle, held = [], None, None, False
    for rows, hit in _tiles(frame.support, deg) if n > 1 else ():
        tile = [g.reshape(deg, -1) for g in          # (deg, entries)
                _gram_tile(space, phi, rows, hit, rows.start)]
        w = n - rows.start                                # the tile's width
        if angle is None:
            mods = _moduli(space, tile)
            if ref is None:
                ref_at = [x[:, 1:2].copy() for x in mods]   # ref's values
                ref = _abs_squared(space, ring, tile, mods, 1)
            if (bad := _first(_differs(mods, ref_at, w))) is not None:
                angle = (rows.start + bad // w, rows.start + bad % w,
                         _abs_squared(space, ring, tile, mods, bad))
        if values is not None and not (held and angle is None):
            off = np.ones(tile[0].shape[1], dtype=bool)
            off[::w + 1] = False
            values = _distinct(values, tile, off)
            # at d = 1 a tile with no witness has g^2 = t = G_01^2 off its
            # diagonal, so g = +-G_01: once both are held (one at t = 0),
            # no later tile has a new value.  At d > 1, |g|^2 = t has
            # others, such as zeta G_01
            held = (deg == 1 and bool(values)
                    and (values[-1] == -values[0]).all())
        if angle is not None and values is None:
            break
        tile = mods = None                  # freed before the next tile
    t = (int(ref[0]) if ref is not None and angle is None
         and not ref[1:].any() else None)
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
        # one interpolation per value reported
        values = (None if values is None else tuple(
            CycScalar(order, space.exact([x[:, None] for x in v])[0])
            for v in values))
    a = Fraction(n * s, d) if s is not None else None
    return EtfCertificate(d, n, s, t, a, s is not None, equiangular, tight,
                          welch, witness, values)


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


def _gram_tight(g: CycMatrix, num: int, den: int) -> bool:
    """Whether den G G = num G, at the points of one pass bounded by
    den mag^2 N d fold_l1 + |num| mag for mag = max|G| (as a product bounds
    each side), interpolating nothing, at every point: a G handed in need
    not be Hermitian.  With a prime, G G is formed a row block at a time;
    with none, as one whole float64 product, which is exact and fastest:
    0.30 s on a bare ETF(651,2016) Gram on one BLAS thread, against 0.50 s
    in row blocks."""
    n, arr, mag, ring = g.rows, g.array, g.mag, _ring(g.order)
    deg = ring.degree
    _ladder_first(ring, max(n, deg), mag)
    space = _Space(ring, max(n, deg),
                   den * mag * mag * n * deg * ring.fold_l1 + abs(num) * mag)

    def holds(i: int, v: np.ndarray) -> bool:
        for rows in (_row_blocks(n, n * len(v), _TILE_ROWS)
                     if space.primes else (slice(None),)):
            left = space.reduce(v[:, rows] @ v, i)
            # compared a block of rows at a time: with no prime the product
            # is one whole float64 array beside G's values, and no third
            # is made
            for part in _row_blocks(left.shape[1], n * len(v), _TILE_ROWS):
                lhs = left[:, part]
                if den != 1:
                    lhs = space.reduce(lhs * space.residue(den, i), i)
                if not np.array_equal(lhs, space.reduce(
                        v[:, rows][:, part] * space.residue(num, i), i)):
                    return False
        return True

    # G = 0 holds at every A, whose num and den need not fit a float64
    # beside its values
    return not mag or all(holds(i, v) for i, v
                          in enumerate(space.values(arr, mag)))


def naimark_gram(g: CycMatrix, a) -> NaimarkResult:
    """Complement Gram G' = num I - den G of G at A = num/den, with
    whether den G G = num G (a tight Gram).

    For a G that `gram` returned, G = Phi* Phi, and Phi Phi* = num I gives
    G G = Phi* (Phi Phi*) Phi = num G.  That D x D identity is checked
    first, by the certifier's tightness check in a pass whose bound also
    covers |num|, and G's values are not formed.  It needs den = 1: Phi
    Phi* has entries in Z[zeta_n], so it is no non-integer multiple of I.
    Where it fails (a frame with a zero row can have G G = num G without
    it), for any other G, or at den > 1, the N x N identity is checked
    (see `_gram_tight`).  The transfer identity G' G' = num G' follows
    without a second product: expanding gives G' G' - num G' =
    den (den G G - num G), and den >= 1.
    """
    if g.rows != g.cols:
        raise FrameError("Gram matrix must be square")
    frac = Fraction(a)
    num, den = frac.numerator, frac.denominator
    n, arr = g.rows, g.array
    input_tight = False
    # at D > N, Phi Phi* has rank below D, and Phi != 0: it is not num I
    if isinstance(g, _FramedGram) and den == 1 and g.frame.d <= n:
        frame = g.frame
        space, mag, nonzero = _frame_space(frame.synthesis, frame.support,
                                           abs(num))
        input_tight = _tight(space, space.values(frame.synthesis.array, mag,
                                                 nonzero), num)
    input_tight = input_tight or _gram_tight(g, num, den)
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
