"""Frame factories: regular simplices, Steiner ETFs, flat MOLS frames, and
the group-divisible-design extension that grows a type-(K,L,S) ETF into a
type-(K,L,S') ETF, plus existence predicates for the known (K,L,S) families.

A Steiner ETF is the GDD extension of the one-vector seed, so the two share
one assembly; a MOLS frame is one gather of simplex tails.  No factory
returns an uncertified frame, and each input is certified once, where it
enters:

- A regular simplex takes the certificate its certified Hadamard matrix
  implies: F*F = NI - J and FF* = NI give s = N - 1, t = 1 and A = N.
- The GDD extension takes the certificate of the extension theorem of
  Fickus, Jasper, Mixon, Peterson and Watson ("Equiangular tight frames
  from group divisible designs", arXiv:1803.07468).  An ETF of type
  (K,L,S) scaled to s = S and t = 1, a K-GDD of type M^U with
  M = S(K-1)+L, and dephased Hadamard matrices of sizes S+L and W+1,
  where R = M(U-1)/(K-1) and W = R/(S+L), yield an ETF of type
  (K,L,S+R) with s = S+R, t = 1 and A = N's/D'.  `gdd_etf` certifies the
  seed by `verify_etf`, the design by `verify_gdd` (through
  `embedding_operators`), and each Hadamard matrix by `HadamardMatrix`,
  which certifies H*H = nI where it is made.
- A Steiner ETF is the extension of the one-vector seed of type (K,1,0)
  by a BIBD(V,K,1), a K-GDD of type 1^V, with a dephased Hadamard of size
  R+1 (Fickus, Mixon and Tremain, "Steiner equiangular tight frames",
  Linear Algebra Appl. 436 (2012)): D = B, N = V(R+1), s = R, t = 1 and
  A = NR/B.  Its design and Hadamard matrix are certified as above.
- A MOLS frame, which outside the ETF cases reports its two distances,
  is certified by `verify_etf`.

`verify_etf` stays the only certifier: `etfkit verify` runs it on any
written frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclo import CycMatrix
from .designs import (
    DesignError,
    GroupDivisibleDesign,
    _refuse,
    embedding_operators,
    prime_power_decomposition,
    verify_gdd,
)
from .frames import (
    EtfCertificate,
    EtfType,
    Frame,
    classify_type,
    verify_etf,
)
from .hadamard import HadamardMatrix, simplex_from_hadamard

__all__ = [
    "ConstructionError",
    "AdmissibilityError",
    "regular_simplex",
    "steiner_etf",
    "mols_tdtf",
    "GddEtfPlan",
    "plan_gdd_etf",
    "gdd_etf",
    "ExistenceStatus",
    "existence_status",
    "CONSTRUCTIBLE",
    "KNOWN",
    "ASYMPTOTIC",
    "UNKNOWN",
]


class ConstructionError(ValueError):
    """Precondition violated or output failed its own certification."""


class AdmissibilityError(ConstructionError):
    """A named divisibility/size condition rejected the requested plan."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _require_dephased(h: HadamardMatrix, size: int, label: str) -> None:
    if h.size != size:
        raise ConstructionError(
            f"{label} must have size {size}, got {h.size}")
    if not h.dephased:
        raise ConstructionError(f"{label} must be dephased")


# ---------------------------------------------------------------------------
# regular simplices and Steiner ETFs


def _implied(d: int, n: int, s: int) -> EtfCertificate:
    """The certificate of a D x N ETF of norm-square s and coherence-square
    1 that a theorem implies (see the module docstring): the one
    `verify_etf` gives such a frame, with no pass of its own."""
    return EtfCertificate(d, n, s, 1, Fraction(n * s, d), True, True, True,
                          True, None, None)


def regular_simplex(n: int, h: HadamardMatrix) -> tuple[Frame, EtfCertificate]:
    """The flat (N-1) x N simplex cut from a dephased Hadamard of size N.

    Its certificate is the one H's implies, with no pass of its own: F*F =
    NI - J gives s = N - 1 and t = 1, and FF* = NI gives A = N (see
    `simplex_from_hadamard`)."""
    _require_dephased(h, n, "Hadamard matrix")
    return Frame(simplex_from_hadamard(h)), _implied(n - 1, n, n - 1)


def steiner_etf(bibd: GroupDivisibleDesign,
                h: HadamardMatrix) -> tuple[Frame, EtfCertificate]:
    """ETF from a BIBD(V,K,1) and a dephased Hadamard of size R+1: the GDD
    extension of the type-(K,1,0) seed, one vector in dimension 0, by the
    BIBD read as a K-GDD of type 1^V.  Vertex v contributes the R+1 columns
    that place Hadamard column tails on the blocks through v, v-major, so
    D = B, N = V(R+1), the norm-square is R and the coherence-square 1.
    Its certificate is the one the Steiner theorem gives from the certified
    design and Hadamard matrix (see the module docstring).
    """
    if bibd.M != 1:
        raise ConstructionError(
            f"need a BIBD (group size 1), got group size {bibd.M}")
    r = bibd.R
    _require_dephased(h, r + 1, "Hadamard matrix")
    frame = _extension(CycMatrix.zeros(0, 1), bibd, CycMatrix.ones(1, 1), h)
    return frame, _implied(bibd.B, bibd.U * (r + 1), r)


# ---------------------------------------------------------------------------
# flat frames from transversal designs


def mols_tdtf(td: GroupDivisibleDesign, h: HadamardMatrix,
              variant: str) -> tuple[Frame, EtfCertificate]:
    """Flat two-distance tight frame (I_K x F) X* from a TD(K,M), optionally
    augmented with an all-ones row.

    The centered variant is an ETF exactly when M = 2K; the augmented one
    exactly when M = 2(K-1).  In all other cases the output certifies as a
    tight two-distance frame.
    """
    if variant not in ("centered", "augmented"):
        raise ConstructionError(f"unknown variant {variant!r}")
    if td.U != td.K:
        raise ConstructionError(
            f"need a transversal design (type M^K), got type "
            f"{td.M}^{td.U} with K={td.K}")
    report = verify_gdd(td)
    if not report.ok:
        raise ConstructionError(f"invalid design: {report.failure}")
    m, k = td.M, td.K
    _require_dephased(h, m, "Hadamard matrix")
    tails = simplex_from_hadamard(h)
    # row (k, i) of column b is F[i, blocks[b, k] - kM], as block b meets
    # group k in one vertex; each entry is one of F's or of the ones row,
    # so the frame is flat
    rows = tails.array[:, (td.blocks - m * np.arange(k)).T]   # (M-1, K, B)
    top = int(variant == "augmented")          # the all-ones row
    arr = np.zeros((top + k * (m - 1), td.B, rows.shape[3]), dtype=rows.dtype)
    arr[:top, :, 0] = 1
    arr[top:] = rows.swapaxes(0, 1).reshape(arr[top:].shape)
    frame = Frame(CycMatrix(tails.order, arr, _copy=False))
    cert = verify_etf(frame)
    is_etf_case = (m == 2 * k) if variant == "centered" else (m == 2 * (k - 1))
    if is_etf_case:
        if not cert.welch_equality:
            raise ConstructionError(
                f"expected a flat ETF at M={m}, K={k}: {cert}")
    else:
        if cert.welch_equality:
            raise ConstructionError(
                f"unexpected ETF outside the equiangular regime: {cert}")
        if not cert.tdtf.ok:
            raise ConstructionError(f"TDTF certification failed: {cert.tdtf}")
    return frame, cert


# ---------------------------------------------------------------------------
# the GDD extension


@dataclass(frozen=True)
class GddEtfPlan:
    """Derived quantities for extending a type-(K,L,S) ETF by a K-GDD of
    type M^U.  The output is of type (K,L,S'), whose dimension and count
    are its D' and N'."""

    seed: EtfType
    u: int
    m: int                 # GDD group size S(K-1)+L
    s_out: int             # S' = S + R, R = M(U-1)/(K-1)
    hadamard_e_size: int   # S + L
    hadamard_f_size: int   # W + 1, W = R/(S+L)


def plan_gdd_etf(seed_type: EtfType, u: int) -> GddEtfPlan:
    """Check the admissibility conditions and derive all output parameters.

    Raises AdmissibilityError naming the first violated condition.
    """
    k, ell, s = seed_type

    def reject(cond):
        raise AdmissibilityError(cond, f"seed {seed_type} with U={u} "
                                       f"rejected: {cond} fails")

    if k < 2:
        reject("K >= 2")
    if s < 2:
        reject("S >= 2")
    if not seed_type.divisibility_ok():
        reject("K divides S(S-L)")
    if u < k:
        reject("U >= K")
    if (u - 1) % (k - 1) != 0:
        reject("(K-1) divides (U-1)")
    if ((s - ell) * u * (u - 1)) % (k * (k - 1)) != 0:
        reject("K(K-1) divides (S-L)U(U-1)")
    if ((k - 2) * (u - 1)) % ((s + ell) * (k - 1)) != 0:
        reject("(S+L)(K-1) divides (K-2)(U-1)")

    m = seed_type.seed_group_size
    r = m * (u - 1) // (k - 1)
    w, w_rem = divmod(r, s + ell)
    s_out = s + r
    b = m * m * u * (u - 1) // (k * (k - 1))
    d_out = u * seed_type.dimension + b
    out_type = EtfType(k, ell, s_out)
    # the conditions above imply these identities; a failure is a bug
    if (w_rem or (k - 1) * s_out != m * u - ell
            or d_out != out_type.dimension):
        raise AssertionError(f"inconsistent plan for {seed_type}, U={u}")
    return GddEtfPlan(seed_type, u, m, s_out, s + ell, w + 1)


def _extension(seed: CycMatrix, gdd: GroupDivisibleDesign, e: CycMatrix,
               h_f: HadamardMatrix) -> Frame:
    """The seed synthesis extended by a GDD of type M^U, with e of size E
    and F the tails of h_f: column ((u M + m) E + i)(W+1) + j holds seed
    column (m, i) in dimension block u and column (i, j) of e (x) F on the
    blocks through vertex (u, m).  Each size is read from the arguments,
    so a seed may have no rows."""
    sup = embedding_operators(gdd)              # (U, M, R)
    (u, m, _), (d, _) = sup.shape, seed.shape
    order = CycMatrix.common_order(seed, e, h_f.mat)
    seed_arr = seed.lift_to_order(order).array
    payload = e.lift_to_order(order).kron(
        simplex_from_hadamard(h_f).lift_to_order(order)).array
    per, deg = payload.shape[1:]                # E (W+1) columns per vertex
    arr = np.zeros((u * d + gdd.B, u * m * per, deg),
                   dtype=np.result_type(seed_arr, payload))
    diag = arr[:u * d].reshape(u, d, u, m * per, deg)
    diag[np.arange(u), :, np.arange(u)] = np.repeat(seed_arr, h_f.size,
                                                    axis=1)
    cols = np.arange(u * m * per).reshape(u, m, 1, per)
    arr[u * d + sup[..., None], cols] = payload
    return Frame(CycMatrix(order, arr, _copy=False))


def gdd_etf(seed: Frame, seed_type: EtfType, gdd: GroupDivisibleDesign,
            h_e: HadamardMatrix,
            h_f: HadamardMatrix) -> tuple[Frame, EtfCertificate]:
    """Extend a type-(K,L,S) ETF by a K-GDD of type M^U into a certified
    type-(K,L,S') ETF, S' = S + R.

    Column (u, m, i, j) places seed column (m, i) in the u-th dimension
    block and e_i (x) f_j on the blocks through GDD vertex (u, m), as
    `_extension` assembles it.  The seed is certified here, by
    `verify_etf`; the output's certificate is the one the extension theorem
    gives from the certified inputs (see the module docstring), with no
    pass over the output.

    Re-extending the output gains nothing: extending by U and then by U'
    reaches the same type as one extension by a design of type M^(U U'),
    which `designs.fill_holes` supplies directly.  Grow the design, not
    the frame.
    """
    k, ell, s = seed_type
    plan = plan_gdd_etf(seed_type, gdd.U)
    if gdd.K != k:
        raise ConstructionError(
            f"GDD block size {gdd.K} does not match seed type K={k}")
    if gdd.M != plan.m:
        raise ConstructionError(
            f"GDD group size {gdd.M} must be S(K-1)+L = {plan.m}")
    d, n = seed_type.dimension, seed_type.count
    if (seed.d, seed.n) != (d, n):
        raise ConstructionError(
            f"seed is {seed.d} x {seed.n}, type {seed_type} needs {d} x {n}")
    if seed_type not in classify_type(seed.d, seed.n):
        raise ConstructionError(
            f"({seed.d}, {seed.n}) is not of type {seed_type}")
    seed_cert = verify_etf(seed)
    if not seed_cert.welch_equality:
        raise ConstructionError("seed frame is not a certified ETF")
    if seed_cert.s != s or seed_cert.t != 1:
        raise ConstructionError(
            f"seed must be scaled to norm-square S={s} and coherence-square "
            f"1, found s={seed_cert.s}, t={seed_cert.t}")
    _require_dephased(h_e, plan.hadamard_e_size, "inner Hadamard matrix")
    _require_dephased(h_f, plan.hadamard_f_size, "outer Hadamard matrix")

    out = EtfType(k, ell, plan.s_out)
    frame = _extension(seed.synthesis, gdd, h_e.mat, h_f)
    return frame, _implied(out.dimension, out.count, plan.s_out)


# ---------------------------------------------------------------------------
# existence predicates


CONSTRUCTIBLE = "constructible-here"
KNOWN = "known-per-paper"
ASYMPTOTIC = "asymptotic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ExistenceStatus:
    etf_type: EtfType
    status: str
    witness: str | None = None

    def __str__(self):
        if self.witness:
            return f"{self.status} ({self.witness})"
        return self.status


def _is_power_of(x: int, base: int) -> bool:
    if x < 1:
        return False
    while x % base == 0:
        x //= base
    return x == 1


def _is_prime_power(x: int) -> bool:
    return prime_power_decomposition(x) is not None


def _geometric_s(base: int, s: int) -> bool:
    """s = 1 + base + ... + base^(j-1) for some j >= 3 (geometry of dim >= 2)."""
    v = 1 + base + base * base
    while v <= s:
        if v == s:
            return True
        v = v * base + 1
    return False


def _steiner(t: EtfType, v: int, q: int, witness: str) -> ExistenceStatus:
    """Constructible from a BIBD on v points, over GF(q) when q > 0, if the
    design builders make it; else known, by the same witness."""
    try:
        _refuse(1, v, q)
    except DesignError:
        return ExistenceStatus(t, KNOWN, witness)
    return ExistenceStatus(t, CONSTRUCTIBLE, witness)


def _positive_status(t: EtfType) -> ExistenceStatus:
    k, s = t.K, t.S
    # families this library constructs outright, within the design limits
    if k == 1:
        return ExistenceStatus(t, CONSTRUCTIBLE,
                               "regular simplex from a Hadamard of size S+1")
    if k == 3 and s >= 3 and s % 3 in (0, 1):
        return _steiner(t, 2 * s + 1, 0, f"Steiner ETF from a Steiner triple "
                                         f"system on {2 * s + 1} points")
    if s == k + 1 and _is_prime_power(k):
        return _steiner(t, k * k, k,
                        f"Steiner ETF from the affine plane of order {k}")
    if s == k and _is_prime_power(k - 1):
        return _steiner(t, k * k - k + 1, k - 1, f"Steiner ETF from the "
                        f"projective plane of order {k - 1}")
    # known families
    if 2 <= k <= 5 and s >= k:
        return ExistenceStatus(t, KNOWN,
                               f"Steiner family, block size {k} <= 5")
    if _is_prime_power(k) and _geometric_s(k, s):
        return ExistenceStatus(t, KNOWN, "Steiner ETF from an affine geometry")
    if k >= 3 and _is_prime_power(k - 1) and _geometric_s(k - 1, s):
        return ExistenceStatus(t, KNOWN,
                               "Steiner ETF from a projective geometry")
    if k >= 3 and _is_prime_power(k - 1) and s == (k - 1) ** 2:
        return ExistenceStatus(t, KNOWN, "Steiner ETF from a unital")
    if (k >= 4 and _is_power_of(k, 2) and s > k
            and _is_power_of(s - 1, 2) and s - 1 > k):
        return ExistenceStatus(t, KNOWN, "Steiner ETF from a Denniston design")
    if k == s and _is_prime_power(k):
        return ExistenceStatus(t, KNOWN, "K = S prime-power family")
    if k == s * (s - 1) and s in (2, 3, 4, 5, 6, 7, 18):
        return ExistenceStatus(t, KNOWN, f"SIC-POVM in dimension {s * s - 1}")
    if 2 * k == s * (s - 1) and s in (3, 5):
        return ExistenceStatus(t, KNOWN,
                               f"real-maximal ETF in dimension {s * s - 2}")
    return ExistenceStatus(
        t, ASYMPTOTIC,
        f"Steiner family, block size {k}, at sufficiently large S")


_NEGATIVE_SPORADIC = {(4, 7), (6, 11), (7, 13), (8, 15), (10, 5)}

# (K, group size M, quotient divisor, power base) for the explicit
# TD-extension families with K > 5: S = (M * base^J + 1)/(K - 1), J >= 0
_TD_EXTENSION_FAMILIES = (
    (6, 9, 5, 6),
    (6, 24, 5, 6),
    (7, 35, 6, 7),
    (10, 80, 9, 10),
    (12, 32, 11, 12),
)


def _negative_status(t: EtfType) -> ExistenceStatus:
    k, s = t.K, t.S
    if k == 2 and s >= 3:
        return ExistenceStatus(
            t, KNOWN, "Naimark complement of a 2-positive Steiner family")
    if k == 3 and s % 3 in (0, 2):
        return ExistenceStatus(t, KNOWN, "K=3 family, S = 0,2 (mod 3)")
    if k == 4 and (s % 8 == 3 or s % 60 == 7):
        res = "S = 3 (mod 8)" if s % 8 == 3 else "S = 7 (mod 60)"
        return ExistenceStatus(t, KNOWN, f"K=4 residue family {res}")
    if k == 5 and (s % 15 == 4 or s % 380 in (5, 309) or s % 280 == 9):
        if s % 15 == 4:
            res = "S = 4 (mod 15)"
        elif s % 280 == 9:
            res = "S = 9 (mod 280)"
        else:
            res = "S = 5,309 (mod 380)"
        return ExistenceStatus(t, KNOWN, f"K=5 residue family {res}")
    if s == k - 1 and _is_prime_power(k - 2):
        return ExistenceStatus(
            t, KNOWN, f"Steiner ETF from the affine plane of order {k - 2}")
    if k >= 3 and _is_power_of(k - 1, 2) and s == 2 * k - 1:
        return ExistenceStatus(t, KNOWN, "Steiner ETF from a Denniston design")
    if k >= 3 and _is_power_of(k - 1, 2) and s == k:
        return ExistenceStatus(t, KNOWN, "hyperoval family")
    if k == s * (s + 1) and s in (2, 3, 4, 5, 6, 7, 18):
        return ExistenceStatus(t, KNOWN, f"SIC-POVM in dimension {s * s - 1}")
    if 2 * k == (s + 1) * (s + 2) and s in (3, 5):
        return ExistenceStatus(t, KNOWN,
                               f"real-maximal ETF in dimension {s * s - 2}")
    if (k, s) in _NEGATIVE_SPORADIC:
        return ExistenceStatus(t, KNOWN,
                               "sporadic example from the ETF literature")
    for fk, fm, fdiv, fbase in _TD_EXTENSION_FAMILIES:
        if k != fk:
            continue
        num = fdiv * s - 1
        if num % fm == 0 and _is_power_of(num // fm, fbase):
            return ExistenceStatus(
                t, KNOWN,
                f"K={fk} TD-extension family, U a power of {fbase}")
    return ExistenceStatus(t, UNKNOWN)


def existence_status(t: EtfType) -> ExistenceStatus:
    """Deterministic status of (K, L, S) against the known explicit families.

    Clauses with a 'sufficiently large' proviso report asymptotic; types
    matched by no clause report unknown.
    """
    if t.K < 1 or t.S < 2 or t.L not in (1, -1):
        raise ConstructionError(f"invalid type parameters {t}")
    if not t.divisibility_ok():
        raise ConstructionError(
            f"K={t.K} does not divide S(S-L) = {t.S * (t.S - t.L)}")
    if t.L == 1:
        return _positive_status(t)
    if t.K == 1:
        raise ConstructionError("negative types require K >= 2")
    return _negative_status(t)

