"""Combinatorial designs: finite fields, MOLS, transversal designs, BIBDs,
uniform group divisible designs, and their combinators.

A K-GDD of type M^U is stored as an ordered list of sorted K-subsets of
{0, ..., UM-1} under group-major vertex labeling (group u occupies
[u*M, (u+1)*M)).  `verify_gdd` certifies the defining incidence identities
exactly over the integers; the construction routines here are trusted only
insofar as their outputs pass that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    "EmbeddingOperatorSet",
    "embedding_operators",
]


class DesignError(ValueError):
    """Invalid parameters or a structurally invalid design."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def prime_power_decomposition(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


# ---------------------------------------------------------------------------
# finite fields


class FiniteField:
    """GF(p^k) with elements indexed 0..q-1.

    Element v has coefficient vector (v mod p, (v div p) mod p, ...), i.e.
    enumeration is 0 first then ascending polynomial-coefficient order.  The
    defining irreducible is the first monic degree-k polynomial, scanning
    non-leading coefficient vectors in that same ascending order.
    """

    _TABLE_LIMIT = 4096

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise DesignError(f"{p} is not prime")
        if k < 1:
            raise DesignError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if self.q > self._TABLE_LIMIT:
            raise DesignError(f"field size {self.q} exceeds table limit")
        self.irreducible = self._find_irreducible()
        self._build_tables()
        self._spot_check()

    # -- element encoding ---------------------------------------------------

    def coeffs(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def _index(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    # -- construction ---------------------------------------------------------

    def _find_irreducible(self) -> tuple[int, ...]:
        p, k = self.p, self.k
        if k == 1:
            return (0, 1)   # the polynomial x; arithmetic is plain mod p
        for low in range(p**k):
            cand = self.coeffs(low) + (1,)
            if self._is_irreducible(cand):
                return cand
        raise AssertionError("no irreducible polynomial found")

    def _is_irreducible(self, poly) -> bool:
        p = self.p
        k = len(poly) - 1
        for x in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
        # trial division by every monic polynomial of degree 2..k//2
        for deg in range(2, k // 2 + 1):
            for low in range(p**deg):
                div = []
                v = low
                for _ in range(deg):
                    div.append(v % p)
                    v //= p
                div.append(1)
                if not any(self._poly_mod(poly, div)):
                    return False
        return True

    def _poly_mod(self, num, den) -> list[int]:
        p = self.p
        rem = [c % p for c in num]
        dd = len(den) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                for j in range(dd + 1):
                    rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
        return rem[:dd]

    def _raw_mul(self, a: int, b: int) -> int:
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._index(self._poly_mod(prod, self.irreducible))

    def _build_tables(self):
        q, p = self.q, self.p
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            ca = self.coeffs(a)
            for b in range(a, q):
                cb = self.coeffs(b)
                s = self._index(tuple((x + y) % p for x, y in zip(ca, cb)))
                add[a, b] = add[b, a] = s
                m = self._raw_mul(a, b)
                mul[a, b] = mul[b, a] = m
        add.setflags(write=False)
        mul.setflags(write=False)
        self._add = add
        self._mul = mul

    def _spot_check(self):
        for v in {1, 2 % self.q, self.q - 1} - {0}:
            if self.pow(v, self.q - 1) != 1:
                raise AssertionError(
                    f"element {v} violates x^(q-1) = 1 in GF({self.q})")

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def neg(self, a: int) -> int:
        return self._index(tuple((-c) % self.p for c in self.coeffs(a)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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


# ---------------------------------------------------------------------------
# Latin squares and MOLS


class LatinSquareSet:
    """A set of mutually orthogonal Latin squares of a common size."""

    def __init__(self, size: int, squares):
        self.size = size
        sqs = []
        for s in squares:
            a = np.asarray(s, dtype=np.int64)
            if a.shape != (size, size) or a.min(initial=0) < 0 or \
                    a.max(initial=0) >= size:
                raise DesignError("square has wrong shape or symbol range")
            a.setflags(write=False)
            sqs.append(a)
        self.squares = tuple(sqs)

    @property
    def count(self) -> int:
        return len(self.squares)

    def validate(self) -> None:
        """Raise unless every square is Latin and every pair orthogonal."""
        m = self.size
        full = set(range(m))
        for idx, s in enumerate(self.squares):
            for i in range(m):
                if set(s[i, :].tolist()) != full or \
                        set(s[:, i].tolist()) != full:
                    raise DesignError(f"square {idx} is not Latin")
        for i in range(self.count):
            for j in range(i + 1, self.count):
                pairs = {(int(a), int(b))
                         for a, b in zip(self.squares[i].flat,
                                         self.squares[j].flat)}
                if len(pairs) != m * m:
                    raise DesignError(f"squares {i} and {j} not orthogonal")


def mols_from_field(field: FiniteField) -> LatinSquareSet:
    """The q-1 mutually orthogonal squares L_a(x, y) = a*x + y over GF(q)."""
    q = field.q
    squares = []
    for a in range(1, q):
        sq = np.empty((q, q), dtype=np.int64)
        for x in range(q):
            ax = field.mul(a, x)
            for y in range(q):
                sq[x, y] = field.add(ax, y)
        squares.append(sq)
    return LatinSquareSet(q, squares)


# ---------------------------------------------------------------------------
# group divisible designs


class GroupDivisibleDesign:
    """A uniform K-GDD of type M^U: ordered blocks over group-major labels.

    Immutable.  Its incidence matrix and its `verify_gdd` report are
    computed on first use and kept, so a design is certified once however
    many consumers ask.
    """

    __slots__ = ("K", "M", "U", "blocks", "_incidence", "_report")

    def __init__(self, k: int, m: int, u: int, blocks):
        blocks = tuple(tuple(sorted(int(v) for v in b)) for b in blocks)
        for name, value in (("K", k), ("M", m), ("U", u), ("blocks", blocks),
                            ("_incidence", None), ("_report", None)):
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

    @property
    def vertices(self) -> int:
        return self.M * self.U

    def group_of(self, v: int) -> int:
        return v // self.M

    def incidence(self) -> np.ndarray:
        """Read-only {0,1} incidence matrix, rows indexed by blocks."""
        if self._incidence is None:
            x = np.zeros((self.B, self.vertices), dtype=np.int64)
            rows = np.repeat(np.arange(self.B), [len(b) for b in self.blocks])
            x[rows, np.fromiter(chain.from_iterable(self.blocks), np.intp,
                                len(rows))] = 1
            x.setflags(write=False)
            object.__setattr__(self, "_incidence", x)
        return self._incidence

    def __repr__(self):
        return (f"GroupDivisibleDesign(K={self.K}, type {self.M}^{self.U}, "
                f"B={self.B})")


def td_from_mols(squares: LatinSquareSet, k: int) -> GroupDivisibleDesign:
    """TD(K, M) from K-2 of the given MOLS; blocks ordered lex by (x, y)."""
    m = squares.size
    if k < 2 or k > squares.count + 2:
        raise DesignError(
            f"need {k - 2} squares for block size {k}, have {squares.count}")
    blocks = []
    for x in range(m):
        for y in range(m):
            b = [x, m + y]
            for j in range(k - 2):
                b.append((j + 2) * m + int(squares.squares[j][x, y]))
            blocks.append(b)
    return GroupDivisibleDesign(k, m, k, blocks)


def steiner_triple_system(u: int) -> GroupDivisibleDesign:
    """A Steiner triple system on u points as a 3-GDD of type 1^u.

    Bose construction for u = 3 (mod 6), Skolem for u = 1 (mod 6); in both,
    point (x, i) is labeled 3x+i and the Skolem extra point comes last.
    """
    if u < 7 or u % 6 not in (1, 3):
        raise DesignError(f"no Steiner triple system on {u} points")
    blocks = []
    if u % 6 == 3:
        t = (u - 3) // 6
        qn = 2 * t + 1
        half = t + 1          # multiplicative inverse of 2 mod qn
        for x in range(qn):
            blocks.append((3 * x, 3 * x + 1, 3 * x + 2))
        for x in range(qn):
            for y in range(x + 1, qn):
                z = ((x + y) * half) % qn
                for i in range(3):
                    blocks.append((3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3))
    else:
        t = (u - 1) // 6
        n2 = 2 * t
        inf = u - 1

        def star(x, y):
            s = (x + y) % n2
            return s // 2 if s % 2 == 0 else t + (s - 1) // 2

        for x in range(t):
            blocks.append((3 * x, 3 * x + 1, 3 * x + 2))
        for x in range(t):
            blocks.append((inf, 3 * (t + x), 3 * x + 1))
            blocks.append((inf, 3 * (t + x) + 1, 3 * x + 2))
            blocks.append((inf, 3 * (t + x) + 2, 3 * x))
        for x in range(n2):
            for y in range(x + 1, n2):
                z = star(x, y)
                for i in range(3):
                    blocks.append((3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3))
    blocks = sorted(tuple(sorted(b)) for b in blocks)
    return GroupDivisibleDesign(3, 1, u, blocks)


def affine_plane(field: FiniteField) -> GroupDivisibleDesign:
    """Lines of AG(2, q): a BIBD(q^2, q, 1) with point (x, y) at index xq+y."""
    q = field.q
    blocks = []
    for a in range(q):
        for b in range(q):
            blocks.append(tuple(sorted(
                x * q + field.add(field.mul(a, x), b) for x in range(q))))
    for c in range(q):
        blocks.append(tuple(c * q + y for y in range(q)))
    return GroupDivisibleDesign(q, 1, q * q, sorted(blocks))


def projective_plane(field: FiniteField) -> GroupDivisibleDesign:
    """Lines of PG(2, q): a BIBD(q^2+q+1, q+1, 1)."""
    q = field.q
    # normalized point representatives, in enumeration order
    points = [(1, a, b) for a in range(q) for b in range(q)]
    points += [(0, 1, c) for c in range(q)]
    points += [(0, 0, 1)]
    index = {pt: i for i, pt in enumerate(points)}

    def dot(l, pt):
        s = 0
        for li, pi in zip(l, pt):
            s = field.add(s, field.mul(li, pi))
        return s

    blocks = []
    for line in points:        # lines are the same normalized triples
        blk = tuple(sorted(index[pt] for pt in points if dot(line, pt) == 0))
        blocks.append(blk)
    return GroupDivisibleDesign(q + 1, 1, q * q + q + 1, sorted(blocks))


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
    """
    if design._report is None:
        object.__setattr__(design, "_report", _gdd_report(design))
    return design._report


def _gdd_report(design: GroupDivisibleDesign) -> GddReport:
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
    seen = set()
    for i, blk in enumerate(design.blocks):
        if len(blk) != k or len(set(blk)) != k:
            return fail(f"block {i} does not have {k} distinct vertices")
        if blk[0] < 0 or blk[-1] >= m * u:
            return fail(f"block {i} has a vertex outside 0..{m * u - 1}")
        groups = [v // m for v in blk]
        if len(set(groups)) != k:
            return fail(f"block {i} meets a group more than once")
        if blk in seen:
            return fail(f"block {i} duplicates an earlier block; pair "
                        f"({blk[0]}, {blk[1]}) is covered more than once")
        seen.add(blk)
    # numpy has no BLAS for int64; in float64 the product is exact, since
    # every entry of X*X is at most B < 2^53
    x = design.incidence().astype(np.float64)
    gram = (x.T @ x).astype(np.int64)
    expected = r * np.eye(u * m, dtype=np.int64) + np.kron(
        np.ones((u, u), dtype=np.int64) - np.eye(u, dtype=np.int64),
        np.ones((m, m), dtype=np.int64))
    if not np.array_equal(gram, expected):
        dv, dw = np.argwhere(gram != expected)[0]
        return fail(f"incidence identity X*X = R I + (J_U - I_U) x J_M "
                    f"fails at vertex pair ({dv}, {dw}): got "
                    f"{gram[dv, dw]}, expected {expected[dv, dw]}")
    return GddReport(True, k, m, u, r, b)


# ---------------------------------------------------------------------------
# combinators


def wilson_product(outer: GroupDivisibleDesign,
                   inner: GroupDivisibleDesign) -> GroupDivisibleDesign:
    """Combine a K-GDD of type M^U with a U-GDD of type N^V into a K-GDD of
    type (MN)^V.

    Each inner block, taken as a row of slots in ascending group order,
    receives the outer design's per-group incidence columns; absent groups
    contribute nothing.
    """
    if inner.K != outer.U:
        raise DesignError(
            f"inner block size {inner.K} must equal outer group count "
            f"{outer.U}")
    mo = outer.M
    blocks = []
    for yb in inner.blocks:
        for xb in outer.blocks:
            blocks.append(tuple(sorted(
                yb[v // mo] * mo + (v % mo) for v in xb)))
    return GroupDivisibleDesign(outer.K, mo * inner.M, inner.U, blocks)


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
    span = inner.M * inner.U
    blocks = []
    for v in range(outer.U):
        off = v * span
        for b in inner.blocks:
            blocks.append(tuple(x + off for x in b))
    blocks.extend(outer.blocks)
    return GroupDivisibleDesign(inner.K, inner.M, inner.U * outer.U, blocks)


# ---------------------------------------------------------------------------
# embedding operators


class EmbeddingOperatorSet:
    """For each vertex (u, m), the ascending list of the R blocks through it.

    The operator E_{u,m} is the B x R selection matrix whose r-th column is
    the standard basis vector at supports[u][m][r].
    """

    def __init__(self, supports: tuple[tuple[tuple[int, ...], ...], ...]):
        self.supports = supports

    def support(self, u: int, m: int) -> tuple[int, ...]:
        return self.supports[u][m]


def embedding_operators(design: GroupDivisibleDesign) -> EmbeddingOperatorSet:
    """Build the embedding operators of a verified GDD."""
    report = verify_gdd(design)
    if not report.ok:
        raise DesignError(f"design invalid: {report.failure}")
    per_vertex: list[list[int]] = [[] for _ in range(design.vertices)]
    for i, blk in enumerate(design.blocks):
        for v in blk:
            per_vertex[v].append(i)
    r = design.R
    for v, lst in enumerate(per_vertex):
        if len(lst) != r:
            raise DesignError(
                f"vertex {v} lies in {len(lst)} blocks, expected {r}")
    m = design.M
    supports = tuple(
        tuple(tuple(per_vertex[u * m + j]) for j in range(m))
        for u in range(design.U))
    return EmbeddingOperatorSet(supports)
