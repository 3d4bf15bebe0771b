"""Combinatorial designs: finite fields, MOLS, transversal designs, BIBDs,
uniform group divisible designs, and their combinators.

A K-GDD of type M^U is stored as one read-only (B, K) int64 array of
blocks, each row a sorted K-subset of {0, ..., UM-1} under group-major
vertex labeling (group u occupies [u*M, (u+1)*M)).  Fields, squares and
blocks are built as whole arrays, never a block or an element at a time.
`verify_gdd` certifies the defining incidence identities exactly over the
integers; the construction routines here are trusted only insofar as their
outputs pass that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


__all__ = [
    "DesignError",
    "FiniteField",
    "gf_build",
    "is_prime",
    "prime_power_decomposition",
    "LatinSquareSet",
    "mols_from_field",
    "GroupDivisibleDesign",
    "td_from_mols",
    "steiner_triple_system",
    "affine_plane",
    "projective_plane",
    "GddReport",
    "verify_gdd",
    "wilson_product",
    "fill_holes",
    "embedding_operators",
]


class DesignError(ValueError):
    """Invalid parameters or a structurally invalid design."""


# Miller-Rabin with the first 13 prime bases decides every n below
# _PRIME_EXACT (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_EXACT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin.  A witness proves p composite at any
    size; past _PRIME_EXACT, where the bases no longer prove p prime, a p
    with no witness raises DesignError."""
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _PRIME_EXACT:
        raise DesignError(f"cannot decide whether {p} is prime: past "
                          f"{_PRIME_EXACT}, where the test is exact")
    return True


def _iroot(q: int, k: int) -> int:
    """The largest r with r^k <= q, by Newton's method on integers from
    above."""
    r = 1 << -(-q.bit_length() // k)
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None.

    A prime factor of q below 43 settles it by division.  Else every prime
    factor is at least 43, so q = p^k has k <= log_43 q; and if q = r^k
    for the largest such k, q is a prime power exactly when r is prime.
    """
    if q < 2:
        return None
    for p in _PRIME_BASES:
        if q % p == 0:
            k = 0
            while q % p == 0:
                q, k = q // p, k + 1
            return (p, k) if q == 1 else None
    for k in range(q.bit_length() // 5, 1, -1):
        r = _iroot(q, k)
        if r ** k == q:
            return (r, k) if is_prime(r) else None
    return (q, 1) if is_prime(q) else None


# ---------------------------------------------------------------------------
# finite fields


def _digits(v: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of v, least significant first."""
    return tuple(v // p**i % p for i in range(k))


def _poly_mod(num, den, p: int) -> list[int]:
    """num mod the monic den over GF(p), little-endian."""
    rem = [c % p for c in num]
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    return rem[:dd]


class FiniteField:
    """GF(p^k) with elements indexed 0..q-1.

    Element v has coefficient vector (v mod p, (v div p) mod p, ...), i.e.
    enumeration is 0 first then ascending polynomial-coefficient order.  The
    defining irreducible is the first monic degree-k polynomial, scanning
    non-leading coefficient vectors in that same ascending order.
    """

    _TABLE_LIMIT = 4096

    def __init__(self, p: int, k: int):
        # the size comes before primality, which costs more for a large p;
        # past 2^12 the size is never formed, as a large k would be slow
        if k < 1:
            raise DesignError("extension degree must be >= 1")
        limit = self._TABLE_LIMIT
        if p >= 2 and (k >= limit.bit_length() or p**k > limit):
            size = p**k if k < limit.bit_length() else f"{p}^{k}"
            raise DesignError(f"field size {size} exceeds table limit")
        if not is_prime(p):
            raise DesignError(f"{p} is not prime")
        self.p = p
        self.k = k
        self.q = p**k
        self.irreducible = self._find_irreducible()
        self._build_tables()
        self._spot_check()

    # -- construction ---------------------------------------------------------

    def _find_irreducible(self) -> tuple[int, ...]:
        """The first monic degree-k polynomial, by its low coefficients in
        ascending order, with no monic factor of degree 1..k//2."""
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)   # the polynomial x; arithmetic is plain mod p
        factors = [_digits(v, p, deg) + (1,) for deg in range(1, k // 2 + 1)
                   for v in range(p**deg)]
        for low in range(p**k):
            cand = _digits(low, p, k) + (1,)
            if all(any(_poly_mod(cand, f, p)) for f in factors):
                return cand
        raise AssertionError("no irreducible polynomial found")

    def _build_tables(self):
        """Tables over the (q, k) digits, one q x q temporary at a time:
        digit i of a*b sums a_j times digit i of x^j b, and x^(j+1) b is
        x^j b shifted up, x^k folded back by the irreducible."""
        q, p, k = self.q, self.p, self.k
        place = p ** np.arange(k, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // place % p
        head = np.array(self.irreducible[:-1], dtype=np.int64)
        shifted = [digits]                          # x^j b for every b
        for _ in range(1, k):
            prev = shifted[-1]
            up = np.roll(prev, 1, axis=1)
            up[:, 0] = 0
            shifted.append((up - prev[:, -1:] * head) % p)
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for i in range(k):
            add += (digits[:, i, None] + digits[:, i]) % p * place[i]
            cols = np.stack([s[:, i] for s in shifted])      # (k, q)
            mul += digits @ cols % p * place[i]
        neg = (-digits) % p @ place
        self._add, self._mul, self._neg = add, mul, neg
        self._sub = add[:, neg]
        for table in (add, mul, neg, self._sub):
            table.setflags(write=False)

    def _spot_check(self):
        for v in {1, 2 % self.q, self.q - 1} - {0}:
            if self.pow(v, self.q - 1) != 1:
                raise AssertionError(
                    f"element {v} violates x^(q-1) = 1 in GF({self.q})")

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def sub(self, a: int, b: int) -> int:
        return int(self._sub[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k})"


def gf_build(p: int, k: int) -> FiniteField:
    """GF(p^k) with the first monic irreducible found in ascending order."""
    return FiniteField(p, k)


def _field_for(q: int) -> FiniteField:
    """GF(q) for a prime power q."""
    _refuse(0, 0, q)                # the field alone, before q is factored
    pk = prime_power_decomposition(q)
    if pk is None:
        raise DesignError(f"{q} is not a prime power")
    return gf_build(*pk)


# ---------------------------------------------------------------------------
# Latin squares and MOLS


class LatinSquareSet:
    """Mutually orthogonal Latin squares of a common size, kept as one
    read-only (count, size, size) int64 array."""

    def __init__(self, size: int, squares):
        if size < 1:
            raise DesignError(f"square size must be at least 1, got {size}")
        self.size = size
        try:
            sqs = np.array(squares, dtype=np.int64)
        except ValueError as exc:
            raise DesignError("squares have different shapes") from exc
        if sqs.shape == (0,):
            sqs = sqs.reshape(0, size, size)
        if sqs.shape[1:] != (size, size) or sqs.min(initial=0) < 0 or \
                sqs.max(initial=0) >= size:
            raise DesignError("square has wrong shape or symbol range")
        sqs.setflags(write=False)
        self.squares, self.count = sqs, len(sqs)

    def first(self, count: int) -> np.ndarray:
        """The first `count` squares, (count, size, size)."""
        return self.squares[:count]


class _FieldSquares(LatinSquareSet):
    """The squares L_a(x, y) = a*x + y over GF(q), a = 1, ..., q - 1, each
    formed only when read: a design that reads K - 2 allocates for those."""

    def __init__(self, field: FiniteField):
        self.size, self.count, self._field = field.q, field.q - 1, field

    def first(self, count: int) -> np.ndarray:
        f = self._field
        sqs = f._add[f._mul[1:count + 1, :, None], np.arange(f.q)]
        sqs.setflags(write=False)
        return sqs

    squares = cached_property(lambda self: self.first(self.count))


def mols_from_field(field: FiniteField) -> LatinSquareSet:
    """The q-1 mutually orthogonal squares L_a(x, y) = a*x + y over GF(q)."""
    return _FieldSquares(field)


# ---------------------------------------------------------------------------
# group divisible designs


class GroupDivisibleDesign:
    """A uniform K-GDD of type M^U: a read-only (B, K) int64 array of
    blocks, each row sorted, over group-major labels.

    Immutable.  Its `verify_gdd` report is computed on first use and kept,
    so a design is certified once however many consumers ask.
    """

    __slots__ = ("K", "M", "U", "blocks", "_report")

    def __init__(self, k: int, m: int, u: int, blocks):
        try:
            rows = np.array(blocks, dtype=np.int64)
            if rows.shape == (0,):
                rows = rows.reshape(0, max(k, 0))
        except (ValueError, OverflowError) as exc:
            raise DesignError("blocks must be int64 rows of one size") \
                from exc
        if rows.ndim != 2:
            raise DesignError("blocks must be int64 rows of one size")
        rows.sort(axis=1)
        rows.setflags(write=False)
        for name, value in (("K", k), ("M", m), ("U", u), ("blocks", rows),
                            ("_report", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GroupDivisibleDesign is immutable")

    @property
    def B(self) -> int:
        return len(self.blocks)

    @property
    def R(self) -> int:
        """Replication number M(U-1)/(K-1)."""
        return self.M * (self.U - 1) // (self.K - 1)

    def __repr__(self):
        return (f"GroupDivisibleDesign(K={self.K}, type {self.M}^{self.U}, "
                f"B={self.B})")


# pair keys certified at once: past 2^25 pairs, the (MU)^2 > 2^26 int64
# entries of X*X took four arrays of more than 2 GiB between them
_PAIR_LIMIT = 2**25


def _refuse(m: int, u: int, q: int = 0) -> None:
    """Refuse a design of type M^U, built over GF(q) when q > 0: a field
    past the table limit, or more than _PAIR_LIMIT vertex pairs
    M^2 U(U-1)/2 to certify.  The builders call it before they allocate,
    and `existence_status` reads the same limits through it."""
    if q > FiniteField._TABLE_LIMIT:
        raise DesignError(f"field size {q} exceeds table limit")
    pairs = m * m * u * (u - 1) // 2
    if pairs > _PAIR_LIMIT:
        raise DesignError(f"design has {pairs} vertex pairs to certify, "
                          f"more than {_PAIR_LIMIT}")


def _lex_sorted(rows: np.ndarray) -> np.ndarray:
    """Each row sorted, then the rows in lexicographic order."""
    rows = np.sort(rows, axis=1)
    return rows[np.lexsort(rows.T[::-1])]


def td_from_mols(squares: LatinSquareSet, k: int) -> GroupDivisibleDesign:
    """TD(K, M) from K-2 of the given MOLS; blocks ordered lex by (x, y)."""
    m = squares.size
    if k < 2:
        raise DesignError(f"block size must be at least 2, got {k}")
    if k > squares.count + 2:
        raise DesignError(
            f"need {k - 2} squares for block size {k}, have {squares.count}")
    blocks = np.empty((m * m, k), dtype=np.int64)
    blocks[:, 0], blocks[:, 1] = np.divmod(np.arange(m * m), m)
    blocks[:, 1] += m
    blocks[:, 2:] = (squares.first(k - 2).reshape(k - 2, m * m).T
                     + m * np.arange(2, k))
    return GroupDivisibleDesign(k, m, k, blocks)


def _triples(xs, ys, zs) -> np.ndarray:
    """(3x + i, 3y + i, 3z + (i + 1) mod 3) for i < 3 and each (x, y, z)."""
    i = np.arange(3)
    return np.stack([3 * xs[:, None] + i, 3 * ys[:, None] + i,
                     3 * zs[:, None] + (i + 1) % 3], axis=-1).reshape(-1, 3)


def steiner_triple_system(u: int) -> GroupDivisibleDesign:
    """A Steiner triple system on u points as a 3-GDD of type 1^u.

    Bose construction for u = 3 (mod 6), Skolem for u = 1 (mod 6); in both,
    point (x, i) is labeled 3x+i and the Skolem extra point comes last.
    """
    if u < 7 or u % 6 not in (1, 3):
        raise DesignError(f"no Steiner triple system on {u} points")
    _refuse(1, u)
    if u % 6 == 3:
        t = (u - 3) // 6
        qn = 2 * t + 1
        xs, ys = np.triu_indices(qn, 1)
        zs = (xs + ys) * (t + 1) % qn      # t + 1 is the inverse of 2 mod qn
        parts = [np.arange(3 * qn).reshape(qn, 3), _triples(xs, ys, zs)]
    else:
        t = (u - 1) // 6
        x = np.arange(t)
        xs, ys = np.triu_indices(2 * t, 1)
        s = (xs + ys) % (2 * t)
        zs = np.where(s % 2 == 0, s // 2, t + (s - 1) // 2)
        # (u - 1, 3(t + x) + i, 3x + (i + 1) mod 3) for i < 3
        star = np.stack([3 * (t + x)[:, None] + np.arange(3),
                         3 * x[:, None] + [1, 2, 0]], axis=-1)
        parts = [np.arange(3 * t).reshape(t, 3), np.insert(star.reshape(-1, 2), 0, u - 1, axis=1),
                 _triples(xs, ys, zs)]
    return GroupDivisibleDesign(3, 1, u, _lex_sorted(np.concatenate(parts)))


def affine_plane(field: FiniteField) -> GroupDivisibleDesign:
    """Lines of AG(2, q): a BIBD(q^2, q, 1) with point (x, y) at index xq+y."""
    q = field.q
    _refuse(1, q * q)
    x = np.arange(q)
    slopes = x * q + field._add[field._mul[:, None, :], x[:, None]]
    blocks = np.concatenate([slopes.reshape(q * q, q),
                             np.arange(q * q).reshape(q, q)])
    return GroupDivisibleDesign(q, 1, q * q, _lex_sorted(blocks))


def projective_plane(field: FiniteField) -> GroupDivisibleDesign:
    """Lines of PG(2, q): a BIBD(q^2+q+1, q+1, 1)."""
    q = field.q
    n = q * q + q + 1
    _refuse(1, n)
    # normalized point representatives, in enumeration order: (1, a, b),
    # then (0, 1, c), then (0, 0, 1); lines are the same triples
    pts = np.zeros((n, 3), dtype=np.int64)
    pts[:q * q, 0] = 1
    pts[:q * q, 1], pts[:q * q, 2] = np.divmod(np.arange(q * q), q)
    pts[q * q:n - 1, 1] = 1
    pts[q * q:, 2] = np.append(np.arange(q), 1)
    # a line's points zero its dot products; lines a block at a time
    add, mul = field._add, field._mul
    step, on = max(1, 2**16 // n), []
    for i in range(0, n, step):
        line = pts[i:i + step, None]            # (lines, 1, 3)
        dot = add[add[mul[line[..., 0], pts[:, 0]],
                      mul[line[..., 1], pts[:, 1]]],
                  mul[line[..., 2], pts[:, 2]]]
        on.append(np.nonzero(dot == 0)[1])
    blocks = np.concatenate(on).reshape(n, q + 1)
    return GroupDivisibleDesign(q + 1, 1, n, _lex_sorted(blocks))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class GddReport:
    ok: bool
    k: int
    m: int
    u: int
    r: int | None
    b: int | None
    failure: str | None = None

    def __str__(self):
        if self.ok:
            return (f"GDD pass: K={self.k} type {self.m}^{self.u} "
                    f"R={self.r} B={self.b}")
        return f"GDD fail: {self.failure}"


def verify_gdd(design: GroupDivisibleDesign) -> GddReport:
    """Certify the defining incidence identities of a uniform GDD exactly.

    The report is kept on the design, so a later call returns it at once.
    A design of more than _PAIR_LIMIT vertex pairs raises DesignError
    before anything of its size is allocated.
    """
    if design._report is None:
        object.__setattr__(design, "_report", _gdd_report(design))
    return design._report


def _gdd_report(design: GroupDivisibleDesign) -> GddReport:
    """Block checks as masks, then X*X = R I + (J_U - I_U) x J_M by the
    replication counts and the sorted pair keys v MU + w (v < w): blocks
    meeting each group once cover B K(K-1)/2 = M^2 U(U-1)/2 cross-group
    pairs, all of them once when no key repeats.  A failure forms only
    the first bad vertex's row of X*X, where its first bad entry is.
    Only a failure searches for a duplicate block: among the blocks before
    the first failed block check, or all of them when a pair key
    repeats."""
    k, m, u = design.K, design.M, design.U

    def fail(msg):
        return GddReport(False, k, m, u, None, None, msg)

    if k < 2 or m < 1 or u < 2:
        return fail(f"parameters out of range: K={k}, M={m}, U={u}")
    if (m * (u - 1)) % (k - 1) != 0:
        return fail(f"replication number M(U-1)/(K-1) not integral "
                    f"for (K,M,U)=({k},{m},{u})")
    r = m * (u - 1) // (k - 1)
    if (m * u * r) % k != 0:
        return fail("block count MUR/K not integral")
    b = m * u * r // k
    if design.B != b:
        return fail(f"block count is {design.B}, expected {b}")
    _refuse(m, u)
    blocks, mu = design.blocks, m * u
    if blocks.shape[1] != k:
        return fail(f"block 0 does not have {k} distinct vertices")
    faults = np.array([
        (np.diff(blocks, axis=1) <= 0).any(axis=1),
        (blocks[:, 0] < 0) | (blocks[:, -1] >= mu),
        (np.diff(blocks // m, axis=1) <= 0).any(axis=1)])
    hit = faults.any(axis=0)
    first = int(hit.argmax()) if hit.any() else b
    if first == b:
        rep = np.bincount(blocks.ravel(), minlength=mu)
        keys = np.empty((b, k * (k - 1) // 2), dtype=np.int64)
        at = 0
        for i in range(k - 1):  # pairs (v_i, v_j), j > i, of every block,
            step = k - 1 - i    # with no temporary of every pair
            keys[:, at:at + step] = blocks[:, i, None] * mu + blocks[:, i + 1:]
            at += step
        keys = keys.reshape(-1)
        keys.sort()
        twice = keys[1:] == keys[:-1]
        bad = rep != r
        if not (twice.any() or bad.any()):
            return GddReport(True, k, m, u, r, b)
    # a repeat among the blocks before the first fault, all of them valid;
    # a repeated block repeats its pairs, so none when no pair key repeats
    if first < b or twice.any():
        head = blocks[:first]
        order = np.lexsort(head.T[::-1])              # stable: ties ascend
        again = order[1:][(head[order[1:]] == head[order[:-1]]).all(axis=1)]
        if again.size:
            i = int(again.min())
            return fail(f"block {i} duplicates an earlier block; pair "
                        f"({blocks[i, 0]}, {blocks[i, 1]}) is covered more "
                        f"than once")
    if first < b:
        return fail(f"block {first} " + (
            f"does not have {k} distinct vertices",
            f"has a vertex outside 0..{mu - 1}",
            "meets a group more than once")[int(faults[:, first].argmax())])
    # a row of X*X is bad at a wrong replication count; at R it holds
    # R(K-1) = M(U-1) pairs, which miss a partner only if one repeats.  A
    # repeated pair's row v < w comes first
    bad[keys[1:][twice] // mu] = True
    v = int(bad.argmax())
    row = np.bincount(blocks[(blocks == v).any(axis=1)].ravel(),
                      minlength=mu)
    want = np.ones(mu, dtype=np.int64)
    want[v - v % m:v - v % m + m] = 0
    want[v] = r
    w = int((row != want).argmax())
    return fail(f"incidence identity X*X = R I + (J_U - I_U) x J_M "
                f"fails at vertex pair ({v}, {w}): got {row[w]}, "
                f"expected {want[w]}")


# ---------------------------------------------------------------------------
# combinators


def wilson_product(outer: GroupDivisibleDesign,
                   inner: GroupDivisibleDesign) -> GroupDivisibleDesign:
    """Combine a K-GDD of type M^U with a U-GDD of type N^V into a K-GDD of
    type (MN)^V.

    Each inner block, taken as a row of slots in ascending group order,
    receives the outer design's per-group incidence columns; absent groups
    contribute nothing.  Blocks run inner-major, outer-minor.
    """
    if inner.K != outer.U:
        raise DesignError(
            f"inner block size {inner.K} must equal outer group count "
            f"{outer.U}")
    mo, xb = outer.M, outer.blocks
    blocks = inner.blocks[:, xb // mo] * mo + xb % mo
    return GroupDivisibleDesign(outer.K, mo * inner.M, inner.U,
                                blocks.reshape(-1, xb.shape[1]))


def fill_holes(inner: GroupDivisibleDesign,
               outer: GroupDivisibleDesign) -> GroupDivisibleDesign:
    """Stack vertex-disjoint copies of a type-M^U design over a type-(MU)^V
    design, giving type M^(UV)."""
    if inner.K != outer.K:
        raise DesignError("block sizes differ")
    if inner.M * inner.U != outer.M:
        raise DesignError(
            f"outer group size {outer.M} must equal inner vertex count "
            f"{inner.M * inner.U}")
    if outer.U < inner.K:
        raise DesignError(
            f"outer group count {outer.U} must be at least K={inner.K}")
    shift = outer.M * np.arange(outer.U)[:, None, None]
    copies = (inner.blocks + shift).reshape(-1, inner.blocks.shape[1])
    return GroupDivisibleDesign(inner.K, inner.M, inner.U * outer.U,
                                np.concatenate([copies, outer.blocks]))


# ---------------------------------------------------------------------------
# embedding operators


def embedding_operators(design: GroupDivisibleDesign) -> np.ndarray:
    """The embedding operators of a verified GDD, as one read-only (U, M, R)
    array: entry [u, m] lists the R blocks through vertex (u, m), ascending,
    and E_{u,m} is the B x R selection matrix whose r-th column is the
    standard basis vector at [u, m, r].  One stable sort of all block
    vertices lists them."""
    report = verify_gdd(design)
    if not report.ok:
        raise DesignError(f"design invalid: {report.failure}")
    supports = (np.argsort(design.blocks.ravel(), kind="stable") // design.K
                ).reshape(design.U, design.M, design.R)
    supports.setflags(write=False)
    return supports
