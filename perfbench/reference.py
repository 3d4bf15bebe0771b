"""Checks computed apart from etfkit.

Nothing here imports etfkit.  Frame files are read with a parser of our own,
canonical forms in Z[zeta_n] use a cyclotomic polynomial built by the Moebius
product formula (etfkit divides by the Phi_d of the proper divisors
instead), and every identity is re-evaluated in complex128 or plain Python.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

TOL = 1e-9


class CheckError(AssertionError):
    """An output of etfkit disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class FrameExpect:
    """D, N, s, t, A of a frame, derived from its construction parameters."""

    d: int
    n: int
    s: int
    t: int | None          # None for a tight two-distance frame
    etf_type: str | None   # the (K,L,S) the construction guarantees
    hadamard: bool = False  # the tail rows of a dephased Hadamard matrix

    @property
    def a(self) -> Fraction:
        return Fraction(self.n * self.s, self.d)

    @property
    def is_etf(self) -> bool:
        return self.t is not None

    def cert_line(self) -> str:
        """The start of the certificate line, up to the types field."""
        a = self.a
        a_str = str(a.numerator) if a.denominator == 1 else str(a)
        if self.is_etf:
            return f"ETF D={self.d} N={self.n} s={self.s} t={self.t} A={a_str}"
        return f"TDTF D={self.d} N={self.n} s={self.s}"


def _etf(d: int, n: int, s: int, etf_type: str | None) -> FrameExpect:
    num, den = s * s * (n - d), d * (n - 1)
    require(num % den == 0, f"Welch equality gives no integer t for {d}x{n}")
    return FrameExpect(d, n, s, num // den, etf_type)


def _type_str(k: int, ell: int, s: int) -> str:
    return f"({k},{ell:+d},{s})"


def simplex_expect(n: int) -> FrameExpect:
    """Flat regular simplex ETF(n-1, n): norm n-1, coherence numerator 1."""
    e = _etf(n - 1, n, n - 1, _type_str(1, 1, n - 1) if n > 2 else None)
    require(e.t == 1, "simplex coherence")
    return FrameExpect(e.d, e.n, e.s, e.t, e.etf_type, hadamard=True)


def steiner_expect(v: int, k: int) -> FrameExpect:
    """Steiner ETF from a BIBD(V, K, 1): D = B, N = V(R+1), s = R, t = 1."""
    r = (v - 1) // (k - 1)
    b = v * r // k
    e = _etf(b, v * (r + 1), r, _type_str(k, 1, r))
    require(e.t == 1, "Steiner coherence")
    return e


def gdd_expect(k: int, ell: int, s: int, m: int, u: int) -> FrameExpect:
    """GDD extension of a type-(K,L,S) ETF by a K-GDD of type M^U:
    R = M(U-1)/(K-1), S' = S + R, D = S'(S'(K-1)+L)/K,
    N = (S'+L)(S'(K-1)+L), s = S', t = 1."""
    require(m == s * (k - 1) + ell, "GDD group size must be S(K-1)+L")
    r = m * (u - 1) // (k - 1)
    s2 = s + r
    d = s2 * (s2 * (k - 1) + ell) // k
    n = (s2 + ell) * (s2 * (k - 1) + ell)
    e = _etf(d, n, s2, _type_str(k, ell, s2))
    require(e.t == 1, "GDD extension coherence")
    return e


def mols_expect(k: int, m: int, variant: str) -> FrameExpect:
    """Flat frame (I_K x F) X* from a TD(K, M): every entry is unimodular,
    so s = D; an ETF exactly at M = 2K (centered) or M = 2(K-1)
    (augmented with a row of ones)."""
    d = k * (m - 1) + (variant == "augmented")
    n = m * m
    etf = m == 2 * k if variant == "centered" else m == 2 * (k - 1)
    if etf:
        return _etf(d, n, d, None)
    return FrameExpect(d, n, d, None, None)


@dataclass(frozen=True)
class DesignExpect:
    k: int
    m: int
    u: int

    @property
    def r(self) -> int:
        return self.m * (self.u - 1) // (self.k - 1)

    @property
    def b(self) -> int:
        return self.m * self.u * self.r // self.k

    def header(self) -> str:
        return f"GDD {self.k} {self.u} {self.m} {self.b}"

    def verify_line(self) -> str:
        return (f"GDD pass: K={self.k} type {self.m}^{self.u} "
                f"R={self.r} B={self.b}")


# ---------------------------------------------------------------------------
# certificate lines

_CERT = re.compile(r"^(ETF D=\d+ N=\d+ s=\d+ t=\d+ A=\S+) types=(\S+)$")
_TDTF = re.compile(r"^(TDTF D=\d+ N=\d+ s=\d+)( values=\S+)?$")
_TYPE = re.compile(r"\(\d+,[+-]\d+,\d+\)")


def check_cert_line(line: str, expect: FrameExpect, where: str) -> None:
    if expect.is_etf:
        match = _CERT.match(line)
        require(match is not None, f"{where}: no ETF certificate in {line!r}")
        require(match.group(1) == expect.cert_line(),
                f"{where}: {match.group(1)!r} != closed form "
                f"{expect.cert_line()!r}")
        if expect.etf_type is not None:
            require(expect.etf_type in _TYPE.findall(match.group(2)),
                    f"{where}: type {expect.etf_type} missing from {line!r}")
    else:
        match = _TDTF.match(line)
        require(match is not None and match.group(1) == expect.cert_line(),
                f"{where}: {line!r} != closed form {expect.cert_line()!r}")


# ---------------------------------------------------------------------------
# frame files


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Division by a monic polynomial (little-endian coefficients)."""
    rem = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    for i in range(len(num) - len(den), -1, -1):
        c = rem[i + len(den) - 1]
        q[i] = c
        for j, dj in enumerate(den):
            rem[i + j] -= c * dj
    return q, rem[:len(den) - 1]


def _moebius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n = prod over d | n of (x^d - 1)^mu(n/d), little-endian."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d:
            continue
        mu = _moebius(n // d)
        factor = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    q, rem = _poly_divmod(num, den)
    require(not any(rem), f"Phi_{n} division is not exact")
    return tuple(q)


def rotate(coeffs, order: int, k: int) -> list[int]:
    """Canonical form of zeta^k times the given canonical vector."""
    phi = list(cyclotomic(order))
    shifted = [0] * k + [int(c) for c in coeffs]
    if len(shifted) < len(phi):
        shifted += [0] * (len(phi) - len(shifted))
    return _poly_divmod(shifted, phi)[1]


@dataclass
class FrameFile:
    """A frame file read by our own parser: (D, N, phi(n)) int64 array."""

    order: int
    coeffs: np.ndarray

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def complex(self) -> np.ndarray:
        deg = self.coeffs.shape[2]
        zeta = np.exp(2j * np.pi * np.arange(deg) / self.order)
        return self.coeffs.astype(np.float64) @ zeta


def read_frame(text: str) -> FrameFile:
    lines = text.splitlines()
    head = lines[0].split()
    require(len(head) == 4 and head[0] == "FRAME", f"bad header {lines[0]!r}")
    order, d, n = (int(x) for x in head[1:])
    deg = len(cyclotomic(order)) - 1
    rows = [ln for ln in lines[1:] if ln.strip()]
    require(len(rows) == d, f"header promises {d} rows, file has {len(rows)}")
    arr = np.empty((d, n, deg), dtype=np.int64)
    for r, ln in enumerate(rows):
        vals = ln.replace(" | ", ",").split(",")
        require(len(vals) == n * deg, f"row {r} has {len(vals)} coefficients")
        arr[r] = np.array(vals, dtype=np.int64).reshape(n, deg)
    return FrameFile(order, arr)


def _close(x, y, scale: float) -> bool:
    return bool(np.all(np.abs(np.asarray(x) - y) <= TOL * max(1.0, scale)))


def check_frame(f: FrameFile, expect: FrameExpect, where: str) -> None:
    """diag(Phi* Phi) = s, |off-diagonal|^2 = t (or two values for a TDTF)
    and Phi Phi* = A I, in complex128."""
    require((f.d, f.n) == (expect.d, expect.n),
            f"{where}: shape {(f.d, f.n)} != {(expect.d, expect.n)}")
    phi = f.complex()
    g = phi.conj().T @ phi
    require(_close(np.diag(g).real, expect.s, expect.s)
            and _close(np.diag(g).imag, 0.0, expect.s),
            f"{where}: column norms are not all s={expect.s}")
    off = np.abs(g[~np.eye(f.n, dtype=bool)]) ** 2
    if expect.is_etf:
        require(_close(off, expect.t, expect.t),
                f"{where}: |off-diagonal|^2 is not t={expect.t} everywhere")
    else:
        values = np.unique(np.round(g[~np.eye(f.n, dtype=bool)], 6))
        require(len(values) <= 2, f"{where}: {len(values)} off-diagonal "
                                  f"values in a two-distance frame")
    a = float(expect.a)
    require(_close(phi @ phi.conj().T, a * np.eye(f.d), a),
            f"{where}: Phi Phi* != A I with A={expect.a}")
    if expect.hadamard:
        h = np.vstack([np.ones((1, f.n)), phi])
        require(_close(h.conj().T @ h, f.n * np.eye(f.n), f.n),
                f"{where}: the Hadamard matrix [1; F] fails H*H = nI")


# ---------------------------------------------------------------------------
# corruptions


@dataclass(frozen=True)
class Corruption:
    """One nonzero entry (row, col) negated or doubled."""

    kind: str       # "negate" | "double"
    corner: str     # "top-left" | "bottom-right": where its witness lies
    row: int
    col: int

    def apply(self, f: FrameFile) -> FrameFile:
        arr = f.coeffs.copy()
        arr[self.row, self.col] *= -1 if self.kind == "negate" else 2
        return FrameFile(f.order, arr)


_BAND = 8   # columns per corner, and witnesses kept per bottom-right pick
_GAP = 1e-6  # distinct |.|^2 values here differ by far more than float error


def _witness_pos(g_col: np.ndarray, j: int, n: int, t: int) -> int | None:
    """Row-major index of the first Gram entry whose |.|^2 is not t, given
    that only row and column j of the Gram changed; None if none breaks."""
    bad = np.flatnonzero(np.abs(np.abs(g_col) ** 2 - t) > _GAP)
    bad = bad[bad != j]
    if bad.size == 0:
        return None
    i = int(bad[0])
    return i * n + j if i < j else j * n + i


def pick_corruptions(f: FrameFile, expect: FrameExpect, rng) -> list[Corruption]:
    """Four corruptions: each kind once with its witness near the top-left
    and once near the bottom-right.

    Every candidate is checked in complex128 to break the ETF identities and
    tightness, so that `etfkit verify` must reject it.  A negation keeps the
    norms, so its witness is an off-diagonal entry; it avoids columns 0 and
    1, whose Gram entry (0, 1) is the reference value.  A doubling breaks
    the norm of its column, so its witness is that diagonal entry.
    """
    phi = f.complex()
    n = f.n
    out = []
    for kind in ("negate", "double"):
        first = 2 if kind == "negate" else 1
        for corner, cols in (
                ("top-left", range(first, min(first + _BAND, n))),
                ("bottom-right", range(max(first, n - _BAND), n))):
            scored = []
            for j in cols:
                for r in np.flatnonzero(np.abs(phi[:, j]) > 0.5):
                    col = phi[:, j].copy()
                    col[r] *= -1 if kind == "negate" else 2
                    # the frame operator changes by col col* - phi_j phi_j*
                    delta = (np.outer(col, col.conj())
                             - np.outer(phi[:, j], phi[:, j].conj()))
                    if _close(delta, 0.0, float(expect.a)):
                        continue            # still tight: not a reject
                    if kind == "double":
                        scored.append((j * n + j, int(r), j))
                        continue
                    pos = _witness_pos(phi.conj().T @ col, j, n, expect.t)
                    if pos is not None:
                        scored.append((pos, int(r), j))
            require(bool(scored), f"no {kind} corruption near the {corner}")
            if corner == "bottom-right":
                scored.sort(reverse=True)
                scored = scored[:_BAND]
            _, r, j = scored[rng.randrange(len(scored))]
            out.append(Corruption(kind, corner, r, j))
    return out


_WITNESS = re.compile(r"^fail: Gram entry \((\d+), (\d+)\)")


def check_reject(f: FrameFile, c: Corruption, line: str,
                 expect: FrameExpect, where: str) -> None:
    """The named Gram entry lies in the corrupted column and really breaks
    the identity it is named for."""
    match = _WITNESS.match(line)
    require(match is not None, f"{where}: no Gram witness in {line!r}")
    r, col = int(match.group(1)), int(match.group(2))
    require(c.col in (r, col),
            f"{where}: witness ({r}, {col}) is not in column {c.col}")
    phi = c.apply(f).complex()
    value = phi[:, r].conj() @ phi[:, col]
    if r == col:
        require(abs(value - expect.s) > _GAP,
                f"{where}: diagonal witness {r} has the right norm")
    else:
        require(abs(abs(value) ** 2 - expect.t) > _GAP,
                f"{where}: witness ({r}, {col}) has |.|^2 = t")


# ---------------------------------------------------------------------------
# Naimark complements


def check_naimark(result, expect: FrameExpect, where: str) -> None:
    """Complement A I - G: exact diagonal A - s, and G'G' = A G' in floats."""
    a = expect.a
    require(a.denominator == 1 and result.denominator == 1,
            f"{where}: tight constant {a} is not an integer")
    require(result.input_tight and result.transfer_ok,
            f"{where}: tightness flags {result.input_tight}, "
            f"{result.transfer_ok}")
    comp = result.complement
    arr = np.asarray(comp.array, dtype=np.int64)
    n = arr.shape[0]
    diag = arr[np.arange(n), np.arange(n)]
    want = np.zeros(arr.shape[2], dtype=np.int64)
    want[0] = int(a) - expect.s
    require(bool((diag == want).all()),
            f"{where}: complement diagonal is not A - s = {want[0]}")
    zeta = np.exp(2j * np.pi * np.arange(arr.shape[2]) / comp.order)
    g = arr.astype(np.float64) @ zeta
    scale = float(a) * float(np.abs(g).max()) * n
    require(_close(g @ g, float(a) * g, scale),
            f"{where}: G'G' != A G' in floats")


# ---------------------------------------------------------------------------
# designs


def check_design(text: str, expect: DesignExpect, where: str) -> None:
    """Header, block sizes and pair coverage, in plain Python: every pair of
    points in different groups lies in exactly one block, and no pair inside
    a group lies in any."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    require(lines[0] == expect.header(),
            f"{where}: header {lines[0]!r} != {expect.header()!r}")
    k, m, u = expect.k, expect.m, expect.u
    seen = set()
    for ln in lines[1:]:
        blk = [int(x) for x in ln.split()]
        require(len(blk) == k, f"{where}: block {ln!r} has {len(blk)} points")
        for i, x in enumerate(blk):
            for y in blk[i + 1:]:
                require(0 <= x < m * u and 0 <= y < m * u,
                        f"{where}: point outside 0..{m * u - 1}")
                require(x // m != y // m,
                        f"{where}: pair ({x}, {y}) lies in one group")
                pair = (min(x, y), max(x, y))
                require(pair not in seen, f"{where}: pair {pair} covered twice")
                seen.add(pair)
    points = m * u
    require(len(seen) == points * (points - 1) // 2 - u * m * (m - 1) // 2,
            f"{where}: {len(seen)} pairs covered, some cross-group pair "
            f"is missing")
