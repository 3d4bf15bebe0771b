"""Gram computation, ETF certification, type classification, Naimark."""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest

import oracle
from etfkit import cyclo, frames
from etfkit.cyclo import CycMatrix, CycScalar
from etfkit.frames import (
    EtfType,
    Frame,
    FrameError,
    classify_type,
    gram,
    naimark_gram,
    verify_etf,
    _distinct,
)
from etfkit.hadamard import fourier, simplex_from_hadamard, sylvester


def simplex_frame(n: int) -> Frame:
    return Frame(simplex_from_hadamard(fourier(n)))


def matrix(order: int, rows) -> CycMatrix:
    """The matrix of a nested list of coefficient tuples."""
    return CycMatrix(order, np.array(rows, dtype=object))


# ---------------------------------------------------------------------------
# gram


def test_gram_simplex3():
    g = oracle.entries(gram(simplex_frame(3)).array)
    assert g[0][0] == g[1][1] == oracle.const(3, 2)
    for r, c in ((0, 1), (0, 2), (1, 2)):
        assert oracle.abs2(3, g[r][c]) == oracle.const(3, 1)


def test_gram_single_column():
    col = matrix(3, [[oracle.root(3, 0)], [oracle.root(3, 1)]])
    g = gram(Frame(col))
    assert oracle.entries(g.array) == [[oracle.const(3, 2)]]


def test_gram_orthonormal_basis():
    f = Frame(CycMatrix(1, oracle.eye(1, 4)))
    assert np.array_equal(gram(f).array, oracle.eye(1, 4))
    cert = verify_etf(f)
    assert cert.welch_equality and cert.s == 1 and cert.t == 0


# ---------------------------------------------------------------------------
# verify_etf


def test_verify_etf_simplex():
    frame = simplex_frame(3)
    cert = verify_etf(frame)
    assert cert.welch_equality
    assert (cert.s, cert.t) == (2, 1)
    assert cert.a == Fraction(3)
    arr = frame.synthesis.array
    assert oracle.flat(3, arr) and oracle.centered(3, arr)


@pytest.mark.parametrize("order", [2, 3, 10])
def test_max_abs_of_a_matrix_is_read_where_it_is_stored(order, monkeypatch):
    # CycMatrix finds max|coefficient| as it stores its array, so the pass,
    # gram and naimark_gram reduce no whole synthesis or Gram again:
    # an ETF's pass reads its rational |G_01|^2 off its values and reduces
    # nothing, and gram and naimark_gram only their output, as it is
    # stored
    frame = simplex_over(order)
    seen, real = [], cyclo._max_abs
    monkeypatch.setattr(cyclo, "_max_abs",
                        lambda arr: seen.append(arr.shape) or real(arr))
    cert = verify_etf(frame)
    assert cert.welch_equality
    assert seen == []
    seen.clear()
    g = gram(frame)
    assert seen == [g.array.shape]
    seen.clear()
    assert naimark_gram(g, cert.a).input_tight
    assert seen == [g.array.shape]
    assert frame.synthesis.mag == real(frame.synthesis.array)
    assert g.mag == real(g.array)


B = 2**62 - 1                           # the largest int64 coefficient
Z3 = [oracle.root(3, k) for k in range(3)]
CENTERED = [
    # order 3: 1 + zeta + zeta^2 = 0 is the only cancellation
    (3, [Z3], np.int64, True),
    (3, [[Z3[0], Z3[1], Z3[0]]], np.int64, False),
    # int64 coefficients whose row sums pass 2^63: row 0 sums to 2^64,
    # which int64 would wrap to 0
    (1, [[(B,), (B,), (B,), (B,), (4,)], [(1,), (-1,), (1,), (-1,), (0,)]],
     np.int64, False),
    (1, [[(B,), (B,), (-B,), (-B,)]], np.int64, True),
    # coefficients past 2^62, stored as Python ints
    (1, [[(2**70,), (-2**70,)], [(1,), (-1,)]], object, True),
    (5, [[(2**70, 0, 0, 1), (-2**70, 0, 0, 0)]], object, False),
]


@pytest.mark.parametrize("order, rows, dtype, want", CENTERED)
def test_centered_is_the_exact_row_sum(order, rows, dtype, want):
    # the reference that the construction tests read centering from sums a
    # frame's stored coefficients, int64 or Python ints, exactly
    arr = Frame(matrix(order, rows)).synthesis.array
    assert arr.dtype == dtype
    assert oracle.centered(order, arr) == want


@pytest.mark.parametrize("h", [fourier(3), sylvester(2)])   # d = 2 and 1
def test_certification_forms_no_adjoint(h):
    # Phi*'s values are Phi's, transposed, at the conjugate points: neither
    # the certifier nor gram forms Phi* (conftest's guard makes
    # CycMatrix.adjoint raise)
    frame = Frame(simplex_from_hadamard(h))
    assert verify_etf(frame).welch_equality
    gram(frame)


def test_verify_etf_two_equal_columns():
    m = CycMatrix.from_int_matrix([[1, 1], [1, 1]], order=2)
    cert = verify_etf(Frame(m))
    assert cert.equal_norm and cert.s == 2
    assert cert.equiangular and cert.t == 4       # t = s^2
    assert not cert.tight and not cert.welch_equality
    assert str(cert) == "not an ETF (fails: tight)"
    unequal = Frame(CycMatrix.from_int_matrix([[1, 1], [1, 0]]))
    assert str(verify_etf(unequal)) == ("not an ETF (fails: equal_norm, "
                                        "tight)")


def test_verify_etf_welch_identity_on_simplices():
    for n in (3, 4, 5, 7, 10):
        cert = verify_etf(simplex_frame(n))
        assert cert.welch_equality
        d = n - 1
        assert cert.s**2 * (n - d) == cert.t * d * (n - 1)


def test_frame_rejects_zero_column():
    m = CycMatrix.from_int_matrix([[1, 0], [1, 0]])
    with pytest.raises(FrameError):
        Frame(m)


@pytest.mark.parametrize("chunk", [1, 40, 2**17])
def test_frame_support_is_the_nonzero_pattern(monkeypatch, chunk):
    # built a coefficient slot at a time when the slots are few against
    # the entries (40 x 30), in chunks of rows past _CHUNK values: of one
    # row, of a few rows, and whole; else (9 x 7) by one reduction
    monkeypatch.setattr(frames, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for order, (d, n) in itertools.product((1, 5, 12), ((9, 7), (40, 30))):
        deg = cyclo._ring(order).degree
        arr = (rng.integers(-1, 2, size=(d, n, deg))
               * (rng.random((d, n, 1)) < 0.4))
        arr[0, :, 0] = 1
        frame = Frame(CycMatrix(order, arr))
        assert np.array_equal(frame.support, arr.any(axis=2))
        assert not frame.support.flags.writeable
        arr[:, 4] = 0
        with pytest.raises(FrameError, match="column 4 is zero"):
            Frame(CycMatrix(order, arr))


def test_frame_support_of_many_slots_is_one_reduction():
    # a 1 x 1 frame of order 262147 (d = 262146): a slot at a time, its
    # support took 0.46 s; one reduction along the slot axis takes well
    # under a millisecond.  Python-int storage is read the same way
    arr = np.zeros((1, 1, 262146), dtype=np.int64)
    arr[0, 0, -1] = 1
    syn = CycMatrix(262147, arr)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        frame = Frame(syn)
        times.append(time.perf_counter() - start)
    assert frame.support.tolist() == [[True]]
    assert min(times) < 0.1
    arr = np.zeros((2, 3, 30), dtype=object)       # order 31: d = 30
    arr[0, :, 7] = [1, -(2**62), 0]
    arr[1, 2, 29] = 2**70
    frame = Frame(CycMatrix(31, arr))
    assert frame.support.dtype == bool
    assert frame.support.tolist() == [[True, True, False],
                                      [False, False, True]]


# ---------------------------------------------------------------------------
# classify_type


def test_classify_pinned_pairs():
    assert classify_type(6, 16) == [EtfType(2, 1, 3), EtfType(4, -1, 3)]
    assert classify_type(3, 6) == []
    assert classify_type(2, 3) == [EtfType(1, 1, 2), EtfType(3, -1, 2)]
    assert classify_type(11, 33) == [EtfType(4, -1, 4)]
    assert classify_type(266, 1008) == [EtfType(4, -1, 19)]


def test_classify_domain_errors():
    for d, n in ((1, 5), (0, 3), (4, 4), (5, 3)):
        with pytest.raises(FrameError):
            classify_type(d, n)


def test_classify_round_trip_sample():
    rng = random.Random(41)
    for _ in range(300):
        s = rng.randint(2, 50)
        k = rng.randint(1, 60)
        ell = rng.choice([1, -1])
        if (s * (s - ell)) % k != 0:
            continue
        t = EtfType(k, ell, s)
        d, n = t.dimension, t.count
        if d <= 1 or n <= d:
            continue
        types = classify_type(d, n)
        assert t in types
        # recovered S is forced by the parameters
        assert all(x.S == s for x in types)


def test_type_formatting_and_derived():
    t = EtfType(3, -1, 5)
    assert str(t) == "(3,-1,5)"
    assert (t.dimension, t.count) == (15, 36)
    assert t.seed_group_size == 9
    assert str(EtfType(2, 1, 3)) == "(2,+1,3)"


# ---------------------------------------------------------------------------
# naimark_gram


def test_naimark_simplex23():
    f = simplex_frame(3)
    res = naimark_gram(gram(f), 3)
    assert res.denominator == 1
    assert res.input_tight and res.transfer_ok
    comp = oracle.entries(res.complement.array)
    for i in range(3):
        assert comp[i][i] == oracle.const(3, 1)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert oracle.abs2(3, comp[i][j]) == oracle.const(3, 1)


def test_naimark_orthogonal_case():
    g = CycMatrix(1, oracle.eye(1, 3, 5))
    res = naimark_gram(g, 5)
    assert not res.complement.array.any()
    assert res.input_tight and res.transfer_ok


def test_naimark_fractional_constant():
    # a 1x2 frame [1, zeta4]: Gram has A = N s / D = 2
    m = matrix(4, [[oracle.root(4, 0), oracle.root(4, 1)]])
    res = naimark_gram(gram(Frame(m)), Fraction(2))
    assert res.input_tight and res.transfer_ok
    assert oracle.entries(res.complement.array)[0][0] == oracle.const(4, 1)


def test_naimark_fractional_constant_scales_the_gram():
    # A = 3/2: G' = 3 I - 2 G, and 2 G G = 3 G fails for this G
    m = matrix(3, [[oracle.root(3, 0), oracle.root(3, 1)],
                   [oracle.root(3, 2), oracle.root(3, 0)]])
    g = gram(Frame(m))
    res = naimark_gram(g, Fraction(3, 2))
    assert res.denominator == 2 and not res.input_tight
    want = CycMatrix(3, oracle.eye(3, 2, 3) - 2 * oracle.matmul_array(
        3, oracle.adjoint_array(3, m.array), m.array))
    assert res.complement == want
    assert res.complement.array.dtype == want.array.dtype


def test_naimark_not_tight_input():
    # columns (1,0), (0,1), (1,1): not a tight frame, G^2 != A G for any A
    m = CycMatrix.from_int_matrix([[1, 0, 1], [0, 1, 1]])
    res = naimark_gram(gram(Frame(m)), 2)
    assert not res.input_tight
    # the transfer identity G' G' = num G', computed directly, fails too
    comp = res.complement.array
    assert not res.transfer_ok
    assert not np.array_equal(oracle.matmul_array(1, comp, comp), 2 * comp)


def test_naimark_gram_of_a_zero_gram(kernel_paths):
    # a pass bounded by 0 runs at no prime; den G G = num G holds for
    # G = 0, and G' = num I - den G = num I
    order, n = 5, 3
    g = np.zeros((n, n, cyclo._ring(order).degree), dtype=np.int64)
    for a in (Fraction(2), Fraction(3, 2), Fraction(-7, 4)):
        with kernel_paths() as seen:
            res = naimark_gram(CycMatrix(order, g), a)
        assert seen == [0]
        gg = oracle.matmul_array(order, g, g)
        tight = np.array_equal(a.denominator * gg, a.numerator * g)
        assert res.input_tight == res.transfer_ok == tight
        assert res.denominator == a.denominator
        assert np.array_equal(res.complement.array,
                              oracle.eye(order, n, a.numerator)
                              - a.denominator * g)


# ---------------------------------------------------------------------------
# the two-distance report of a failed certificate


def test_tdtf_random_frame_fails():
    rng = random.Random(43)
    m = matrix(7, [[oracle.add(
        oracle.add(oracle.root(7, rng.randrange(7)),
                   oracle.root(7, rng.randrange(7))),
        oracle.const(7, rng.randint(0, 2)))
        for _ in range(6)] for _ in range(3)])
    rep = verify_etf(Frame(m)).tdtf
    assert rep is not None and not rep.ok


def test_tdtf_needs_equal_norms():
    # frame operator 5I and off-diagonal values 0, 2, but norms 1, 1, 4, 4
    m = CycMatrix.from_int_matrix([[1, 0, 2, 0], [0, 1, 0, 2]])
    rep = verify_etf(Frame(m)).tdtf
    assert not rep.ok and not rep.tight and rep.two_distance


def test_failed_certificate_carries_witness_and_tdtf_values():
    ok = verify_etf(simplex_frame(4))
    assert ok.witness is None and ok.tdtf_values is None and ok.tdtf is None
    # columns (1,1,0), (1,0,1), (0,1,1), (1,1,0): norms 2, Gram values 1, 2
    m = CycMatrix.from_int_matrix([[1, 1, 0, 1], [1, 0, 1, 1],
                                   [0, 1, 1, 0]])
    cert = verify_etf(Frame(m))
    assert cert.equal_norm and not cert.equiangular
    assert cert.witness == ("Gram entry (0, 3) has |.|^2 = (4,), "
                            "entry (0, 1) has (1,): equiangularity fails")
    assert [v.as_integer() for v in cert.tdtf_values] == [1, 2]
    assert not cert.tdtf.ok


def offdiag_values(g: CycMatrix, rows: int):
    """The distinct off-diagonal values of a Hermitian Gram matrix, read in
    row tiles of `rows` rows over its upper block triangle, G[I, I.start:],
    as the certifying pass reads them: as values in a space whose primes
    cover G's coefficients."""
    arr, n = g.array, g.rows
    space = cyclo._Space(cyclo._ring(g.order), max(n, arr.shape[2]), g.mag)
    vals = space.values(arr, g.mag)                    # (d, n, n) per prime
    values = []
    for r0 in range(0, n, rows):
        if values is None:          # more than two: no tile is read
            break
        tile = [v[:, r0:r0 + rows, r0:].reshape(len(v), -1) for v in vals]
        height = min(rows, n - r0)
        off = np.ones((height, n - r0), dtype=bool)
        off[np.arange(height), np.arange(height)] = False
        values = _distinct(values, tile, off.reshape(-1))
    return (None if values is None else tuple(
        CycScalar(g.order, space.exact([x[:, None] for x in v])[0])
        for v in values))


def first_appearances(g: CycMatrix):
    """The same, read off every off-diagonal entry in row-major order."""
    values = []
    for i, row in enumerate(oracle.entries(g.array)):
        for j, v in enumerate(row):
            if i != j and v not in values:
                values.append(v)
    return (None if len(values) > 2
            else tuple(CycScalar(g.order, v) for v in values))


def hermitian_gram(n: int, order: int, upper, cells=()):
    """An n x n Hermitian Gram: 7 on the diagonal, `upper` above it unless
    `cells` names another value for an entry (i, j), i < j, and below it
    their conjugates."""
    g = [[oracle.const(order, 7) if i == j else
          tuple(dict(cells).get((min(i, j), max(i, j)), upper))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            g[i][j] = oracle.conj(order, g[j][i])
    return matrix(order, g)


def test_offdiag_values_reads_the_distinct_values_in_order():
    # 4x4 Hermitian Grams over Z[zeta_3]: u and x are real, v = zeta and
    # w = zeta^2 = conj(v).  Every off-diagonal entry is u, or v above the
    # diagonal, unless a cell says otherwise.  Tiles of every height give
    # the values of the whole matrix, in row-major order of first
    # appearance, though a tile reads an entry below the diagonal only
    # inside its own block of rows
    u, x, y, v, w = (1, 0), (-1, 0), (2, 0), (0, 1), (-1, -1)

    def scalars(*cs):
        return tuple(CycScalar(3, c) for c in cs)

    cases = [
        (u, {}, scalars(u)),
        (u, {(1, 2): x, (2, 3): x}, scalars(u, x)),
        (u, {(1, 2): x, (2, 3): y}, None),
        # the first value comes from entry (0, 1), the second from the
        # first entry that differs from it
        (u, {(0, 1): x, (2, 3): x}, scalars(x, u)),
        # two new values in one row
        (u, {(0, 2): x, (0, 3): y}, None),
        # v only at (2, 3): its conjugate w is a third value, and appears
        # only at (3, 2), below the diagonal
        (u, {(2, 3): v}, None),
        # v in every entry above the diagonal: w first appears below it,
        # at (1, 0), which only a tile of two rows or more reads
        (v, {}, scalars(v, w)),
        (w, {}, scalars(w, v)),
        (v, {(1, 2): w, (1, 3): w, (2, 3): w}, scalars(v, w)),
        # w in row 0 as well: both values appear there
        (v, {(0, 3): w, (2, 3): w}, scalars(v, w)),
    ]
    for rows in range(1, 5):
        for upper, cells, want in cases:
            g = hermitian_gram(4, 3, upper, cells)
            assert first_appearances(g) == want
            assert offdiag_values(g, rows) == want
        assert offdiag_values(CycMatrix(3, oracle.eye(3, 1)), rows) == ()


@pytest.mark.parametrize("order", [3, 4, 5])
def test_offdiag_values_match_the_whole_matrix_on_random_hermitian_grams(
        order):
    # the values of a random Hermitian Gram above its diagonal are drawn
    # from one to three of a small pool, real and not, so that the whole
    # matrix has one to six distinct values off the diagonal
    rng = np.random.default_rng(order)
    ring = cyclo._ring(order)
    pool = [ring.powers([k])[0] for k in range(order)]
    pool += [-p for p in pool]
    for _ in range(60):
        n = int(rng.integers(2, 8))
        picks = rng.choice(len(pool), size=int(rng.integers(1, 4)),
                           replace=False)
        cells = {(i, j): tuple(pool[picks[rng.integers(len(picks))]])
                 for i in range(n) for j in range(i + 1, n)}
        g = hermitian_gram(n, order, cells[0, 1], cells)
        want = first_appearances(g)
        for rows in range(1, n + 1):
            assert offdiag_values(g, rows) == want


# ---------------------------------------------------------------------------
# the certifying pass against the whole Gram matrix
#
# The oracle is the certifier that forms the whole N x N Gram matrix, |G|^2
# and the frame operator, and reads every field off them: the pass must give
# the same certificate, field by field, whatever its tiles and primes.


def whole_gram_certificate(order, d, n, g, mods, fo) -> dict:
    """Every field of the certificate of a frame with Gram coefficients g,
    their |.|^2 mods (both (N, N, deg)) and frame operator fo (D, D, deg)."""
    def scalar(v):
        return CycScalar(order, [int(x) for x in v])

    diag = [scalar(g[i, i]) for i in range(n)]
    bad_norm = next((i for i in range(n) if diag[i] != diag[0]), None)
    s = diag[0].as_integer() if bad_norm is None else None
    off = ~np.eye(n, dtype=bool)
    t, bad = None, None
    if n > 1:
        differs = np.argwhere((mods != mods[0, 1]).any(axis=2) & off)
        bad = tuple(int(x) for x in differs[0]) if len(differs) else None
        t = scalar(mods[0, 1]).as_integer() if bad is None else None
    equiangular = n == 1 or t is not None
    c = scalar(fo[0, 0]).as_integer()
    scalar_fo = np.zeros_like(fo)
    scalar_fo[np.arange(d), np.arange(d), 0] = c if c is not None else 0
    tight = (c is not None and s is not None and d * c == n * s
             and np.array_equal(fo, scalar_fo))
    welch = s is not None and equiangular and tight
    # the distinct off-diagonal values, in row-major order of appearance
    values = []
    for i, j in np.argwhere(off):
        if all(not np.array_equal(g[i, j], v) for v in values):
            values.append(g[i, j])
            if len(values) == 3:
                break
    values = (None if len(values) == 3
              else tuple(scalar(v).coeffs for v in values))
    if welch:
        witness = None
    elif bad_norm is not None:
        witness = (f"Gram entry ({bad_norm}, {bad_norm}) = "
                   f"{diag[bad_norm].coeffs} breaks equal norms (entry "
                   f"(0, 0) = {diag[0].coeffs})")
    elif not diag[0].is_rational_integer:
        witness = f"Gram diagonal {diag[0].coeffs} is not a rational integer"
    elif bad is not None:
        witness = (f"Gram entry {bad} has |.|^2 = "
                   f"{scalar(mods[bad]).coeffs}, entry (0, 1) has "
                   f"{scalar(mods[0, 1]).coeffs}: equiangularity fails")
    elif n > 1 and not scalar(mods[0, 1]).is_rational_integer:
        witness = (f"Gram entry (0, 1) has |.|^2 = "
                   f"{scalar(mods[0, 1]).coeffs}, not a rational integer")
    else:
        witness = ("frame is equal-norm and equiangular but not tight: "
                   f"s^2 (N - D) = {s * s * (n - d)}, "
                   f"t D (N - 1) = {(t or 0) * d * (n - 1)}")
    two = values is not None
    return {"s": s, "t": t, "a": Fraction(n * s, d) if s is not None else None,
            "equal_norm": s is not None, "equiangular": equiangular,
            "tight": tight, "welch_equality": welch, "witness": witness,
            "tdtf_values": None if welch else values,
            "tdtf": None if welch else (tight, two, values if two else (),
                                        tight and two)}


def pass_certificate(frame) -> dict:
    cert = verify_etf(frame)

    def coeffs(vals):
        return None if vals is None else tuple(v.coeffs for v in vals)

    def report(rep):
        return None if rep is None else (rep.tight, rep.two_distance,
                                         coeffs(rep.values), rep.ok)

    return {"s": cert.s, "t": cert.t, "a": cert.a,
            "equal_norm": cert.equal_norm, "equiangular": cert.equiangular,
            "tight": cert.tight, "welch_equality": cert.welch_equality,
            "witness": cert.witness, "tdtf_values": coeffs(cert.tdtf_values),
            "tdtf": report(cert.tdtf)}


def whole_gram_oracle(frame) -> dict:
    """The fields from the whole Gram matrix and frame operator, each one
    product of the synthesis and its adjoint in the reference ring's
    arrays."""
    n, syn = frame.order, frame.synthesis.array
    g = oracle.matmul_array(n, oracle.adjoint_array(n, syn), syn)
    fo = oracle.matmul_array(n, syn, oracle.adjoint_array(n, syn))
    return whole_gram_certificate(n, frame.d, frame.n, g,
                                  oracle.abs2_array(n, g), fo)


def scalar_phi(frame) -> list[list[tuple[int, ...]]]:
    return oracle.entries(frame.synthesis.array)


def scalar_gram(frame, phi) -> list[list[tuple[int, ...]]]:
    """Phi* Phi summed in the reference ring."""
    n = frame.order
    cols = list(zip(*phi))
    return [[oracle.dot(n, [oracle.conj(n, x) for x in ci], cj)
             for cj in cols] for ci in cols]


def python_int_oracle(frame) -> dict:
    """The same fields from a Gram matrix and frame operator summed in the
    reference ring."""
    order, phi = frame.order, scalar_phi(frame)

    def table(rows):
        return np.array([[list(x) for x in row] for row in rows],
                        dtype=object)

    g = scalar_gram(frame, phi)
    fo = [[oracle.dot(order, rk, [oracle.conj(order, x) for x in rl])
           for rl in phi] for rk in phi]
    mods = [[oracle.abs2(order, x) for x in row] for row in g]
    return whole_gram_certificate(order, frame.d, frame.n, table(g),
                                  table(mods), table(fo))


@pytest.fixture
def tiles(monkeypatch):
    """Set the height of the pass's Gram row tiles; None keeps the
    kernel's blocks."""
    real = frames._row_blocks

    def height(h):
        monkeypatch.setattr(frames, "_row_blocks", real if h is None else (
            lambda rows, per_row, least: (slice(i, min(i + h, rows))
                                          for i in range(0, rows, h))))
    return height


def rooted(frame, rng) -> Frame:
    """The frame with each column times a random root of unity: the same
    Gram moduli, other coefficients."""
    n, order = frame.n, frame.order
    roots = np.array([[oracle.root(order, int(rng.integers(order)))
                       for _ in range(n)]], dtype=object)
    return Frame(CycMatrix(order, oracle.mul_array(
        order, frame.synthesis.array, roots)))


def corrupted(frame, cells, how) -> Frame:
    arr = frame.synthesis.array.astype(object)
    for r, c in cells:
        arr[r, c] = how(arr[r, c])
    return Frame(CycMatrix(frame.order, arr))


def pair_frame(order, n, pairs) -> Frame:
    """Columns e_2j + e_2j+1 in dimension 2N, norms 2, orthogonal; column
    j of each (j, i) in `pairs` takes e_2i in place of e_2j: G_ij = 1."""
    arr = np.zeros((2 * n, n, cyclo._ring(order).degree), dtype=np.int64)
    for j in range(n):
        arr[2 * j, j, 0] = arr[2 * j + 1, j, 0] = 1
    for j, i in pairs:
        arr[2 * j, j, 0] = 0
        arr[2 * i, j, 0] = 1
    return Frame(CycMatrix(order, arr))


DIFF_ORDERS = [1, 2, 3, 4, 5, 7, 8, 10, 12, 30]


def simplex_over(order) -> Frame:
    """A simplex ETF over Z[zeta_order]: Fourier for order >= 3, else
    Sylvester's over Z."""
    if order <= 2:
        arr = simplex_from_hadamard(sylvester(3)).array
        return Frame(CycMatrix(order, arr))
    return simplex_frame(order)


@pytest.mark.parametrize("order", DIFF_ORDERS)
@pytest.mark.parametrize("height", [None, 1, 2, 5])
def test_pass_matches_the_whole_gram_on_random_frames(order, height, tiles):
    tiles(height)
    rng = np.random.default_rng(order * 10 + (height or 0))
    deg = cyclo._ring(order).degree
    for mag in (1, 2, 5, 2**20, 2**40):
        for _ in range(4):
            d, n = (int(x) for x in rng.integers(1, 6, size=2))
            arr = rng.integers(-mag, mag + 1, size=(d, n, deg))
            arr[0, :, 0] = np.where(arr[0, :, 0] == 0, 1, arr[0, :, 0])
            frame = Frame(CycMatrix(order, arr))
            assert pass_certificate(frame) == whole_gram_oracle(frame)


@pytest.mark.parametrize("order", DIFF_ORDERS)
@pytest.mark.parametrize("height", [None, 1, 3])
def test_pass_matches_the_whole_gram_on_corrupted_etfs(order, height, tiles,
                                                       monkeypatch):
    # an ETF's tightness is its Welch identity, so the pass forms Phi Phi*
    # only for the equal-norm copies that are not equiangular
    from etfkit.constructions import mols_tdtf
    from etfkit.designs import gf_build, mols_from_field, td_from_mols
    tiles(height)
    calls = []
    real = frames._tight
    monkeypatch.setattr(frames, "_tight", lambda space, phi, c: (
        calls.append(c) or real(space, phi, c)))
    rng = np.random.default_rng(order)
    etf = simplex_over(order)
    d, n = etf.d, etf.n
    frames_ = [etf, rooted(etf, rng)]
    for cells in ([(0, 2)], [(d - 1, n - 1)], [(d // 2, n // 2)],
                  [(0, 0), (d - 1, n - 1)]):
        frames_.append(corrupted(etf, cells, lambda x: 2 * x))    # doubled
        frames_.append(corrupted(etf, cells, lambda x: -x))       # negated
    # a flat MOLS frame, 9 x 16 and dense, its entries +-1: a TDTF, equal
    # norms and two angles, while its Gram rows span several tiles
    td = td_from_mols(mols_from_field(gf_build(2, 2)), 3)
    flat = mols_tdtf(td, sylvester(2), "centered")[0].synthesis.array
    frames_.append(rooted(Frame(CycMatrix(1, flat).lift_to_order(order)), rng))
    for frame in frames_:
        assert frame.support.all()
        calls.clear()
        got = pass_certificate(frame)
        assert got == whole_gram_oracle(frame)
        want = (got["equal_norm"] and not got["equiangular"]
                and got["a"].denominator == 1)
        assert calls == ([got["a"]] if want else [])
    assert pass_certificate(etf)["welch_equality"]


@pytest.mark.parametrize("order", [1, 3, 10])
@pytest.mark.parametrize("height", [None, 1, 2])
def test_pass_finds_the_witness_in_the_first_and_the_last_tile(order, height,
                                                              tiles):
    tiles(height)
    n = 8
    first = pair_frame(order, n, [(1, 0)])          # G_01 = 1, others 0
    last = pair_frame(order, n, [(n - 1, n - 2)])   # only G_67 = 1
    for frame, witness in (
            (first, "Gram entry (0, 2) has |.|^2 = "),
            (last, f"Gram entry ({n - 2}, {n - 1}) has |.|^2 = ")):
        got = pass_certificate(frame)
        assert got == whole_gram_oracle(frame)
        assert got["witness"].startswith(witness)
        assert got["tdtf_values"] is not None and len(got["tdtf_values"]) == 2


def columns_frame(order, columns) -> Frame:
    """The frame whose columns list the coefficients of their entries."""
    return Frame(CycMatrix(order, np.array(columns, dtype=object)
                           .transpose(1, 0, 2)))


@pytest.mark.parametrize("height", [1, 2, 3, None])
def test_pass_orders_a_conjugate_first_seen_below_the_diagonal(height,
                                                               tiles):
    # over Z[zeta_3], columns of sixth roots of unity whose Gram holds
    # v = 1 + 2 zeta = (1, 2) in every entry of row 0 but the first, and
    # conj(v) = -v = (-1, -2) first at (1, 0), below the diagonal; the
    # 4-column frame is equiangular, so every tile is read
    tiles(height)
    one, z, z2, o = (1, 0), (0, 1), (-1, -1), (0, 0)
    neg = [(-a, -b) for a, b in (one, z, z2)]          # -1, -zeta, -zeta^2
    for columns in ([[one, one, one], [one, z, z], [neg[0], neg[2], neg[2]]],
                    [[o, one, one, one], [one, o, z, neg[2]],
                     [z, neg[2], o, z], [z2, z, neg[2], o]]):
        frame = columns_frame(3, columns)
        got = pass_certificate(frame)
        assert got == whole_gram_oracle(frame)
        assert got["tdtf_values"] == ((1, 2), (-1, -2))


@pytest.mark.parametrize("order", [1, 3, 10])
@pytest.mark.parametrize("height", [1, 2, 3, None])
def test_pass_finds_a_witness_whose_pair_spans_two_tiles(order, height,
                                                        tiles):
    # only G_16 = conj(G_61) is nonzero off the diagonal, so (1, 6) is the
    # first entry whose |.|^2 differs from that of (0, 1).  In tiles of 1,
    # 2 or 3 rows, rows 1 and 6 lie in different tiles, and no tile
    # computes (6, 1)
    tiles(height)
    frame = rooted(pair_frame(order, 8, [(6, 1)]),
                   np.random.default_rng(order))
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame)
    assert got["witness"].startswith("Gram entry (1, 6) has |.|^2 = (1,")


@pytest.mark.parametrize("height", [1, 2, 3, None])
def test_pass_multiplies_only_the_upper_block_triangle(height, tiles,
                                                       monkeypatch):
    # an ETF reads every tile: tile I is G[I, I.start:], whose products
    # are N - I.start columns wide; gram's tiles are N wide
    from etfkit.constructions import steiner_etf
    from etfkit.designs import affine_plane, gf_build
    tiles(height)
    etf, _ = steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))
    etf = rooted(Frame(etf.synthesis.lift_to_order(10)),
                 np.random.default_rng(3))
    n = etf.n
    seen = []
    real = frames._gram_tile

    def recorded(space, phi, rows, hit, start):
        tile = real(space, phi, rows, hit, start)
        seen.append((rows, start, [v.shape for v in tile]))
        return tile

    monkeypatch.setattr(frames, "_gram_tile", recorded)
    assert verify_etf(etf).welch_equality
    rows = [r for r, _, _ in seen]
    assert [r.start for r in rows] == sorted({r.start for r in rows})
    assert rows[0].start == 0 and rows[-1].stop == n
    assert all(start == r.start and all(
        shape[1:] == (r.stop - r.start, n - start) for shape in shapes)
        for r, start, shapes in seen)
    widths = sum(shapes[0][2] for _, _, shapes in seen)
    assert widths == sum(n - r.start for r in rows)
    if height == 1:
        assert widths == n * (n + 1) // 2
    seen.clear()
    assert_gram_exact(etf, scalar=False)
    assert seen and all(start == 0 and shapes[0][2] == n
                        for _, start, shapes in seen)


# At d = 1, a tile with no witness holds only +-G_01 off its diagonal, so
# once both are held the pass reads no more distinct values from such a
# tile; at d > 1 it reads them on.  Each frame below puts the edge of that
# rule in a different tile.


def gadget_frame(order, n, unit, cells=None) -> Frame:
    """N columns with G_rc = unit for r < c, each pair of columns through
    a coordinate of its own (column r holds 1 there, column c the unit),
    so every norm is N - 1.  `cells` maps a pair to another unit, or to
    None for G_rc = 0: then r and c hold 1 at two coordinates of their
    own, and the norms stay N - 1."""
    one, zero = oracle.const(order, 1), oracle.const(order, 0)
    columns = [[] for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            g = (cells or {}).get((r, c), unit)
            places = [(one, g)] if g is not None else [(one, zero),
                                                       (zero, one)]
            for a, b in places:
                for j, x in enumerate(columns):
                    x.append(a if j == r else b if j == c else zero)
    return columns_frame(order, columns)


def distinct_calls(monkeypatch) -> list:
    """The values that each call of `_distinct` returns, as it returns
    them: at d = 1 with no prime, a value's one value is its
    coefficient."""
    calls, real = [], frames._distinct

    def recorded(values, tile, off):
        out = real(values, tile, off)
        calls.append(None if out is None else [tuple(v[0]) for v in out])
        return out

    monkeypatch.setattr(frames, "_distinct", recorded)
    return calls


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_pass_at_d1_finds_a_third_value_after_both_signs(order, height,
                                                        tiles, monkeypatch):
    # G_01 = 1 and G_02 = -1 in the first tile; the only witness, G = 0, at
    # (n - 2, n - 1), in the last tile that holds an off-diagonal entry
    tiles(height)
    calls = distinct_calls(monkeypatch)
    n = 9
    frame = gadget_frame(order, n, (1,), {(0, 2): (-1,), (n - 2, n - 1): None})
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame)
    assert got["witness"].startswith(f"Gram entry ({n - 2}, {n - 1}) has "
                                     f"|.|^2 = (0,)")
    assert got["tdtf_values"] is None
    # one call for the first tile, one for the witness's
    assert calls == [[(1,), (-1,)], None]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_pass_at_d1_finds_the_other_sign_in_a_late_tile(order, height, tiles,
                                                        monkeypatch):
    # every G_rc is 1 but G = -1 at (n - 2, n - 1): no witness of
    # equiangularity, and one sign alone is not both, so every tile is read
    tiles(height)
    calls = distinct_calls(monkeypatch)
    n = 9
    frame = gadget_frame(order, n, (1,), {(n - 2, n - 1): (-1,)})
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame)
    assert got["equiangular"] and got["tdtf_values"] == ((1,), (-1,))
    assert len(calls) == len(range(0, n - 1, height))
    assert calls[-1] == [(1,), (-1,)] and all(c == [(1,)] for c in calls[:-1])


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_pass_at_d2_reads_a_third_value_of_the_same_modulus(order, height,
                                                            tiles):
    # G_rc = zeta for r < c, so the early tiles hold {zeta, conj(zeta)};
    # G = 1 at (n - 2, n - 1) has |1|^2 = t too, so no witness stops the
    # pass, and only reading that tile's values finds the third
    tiles(height)
    n = 9
    frame = gadget_frame(order, n, oracle.root(order, 1),
                         {(n - 2, n - 1): oracle.const(order, 1)})
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame)
    assert got["equiangular"] and got["tdtf_values"] is None


@pytest.mark.parametrize("height", [1, 2, 3])
def test_pass_reads_distinct_values_only_until_both_signs(height, tiles,
                                                          monkeypatch):
    # the Steiner ETF(6, 16) over Z, each column signed so that row 0 of
    # its Gram is +1 off the diagonal: -1 is first held in a later row
    from etfkit.constructions import steiner_etf
    from etfkit.designs import affine_plane, gf_build
    tiles(height)
    etf, _ = steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))
    syn, n = etf.synthesis.array, etf.n
    signs = np.where(oracle.matmul_array(
        2, oracle.adjoint_array(2, syn[:, :1]), syn)[0, :, 0] < 0, -1, 1)
    etf = Frame(CycMatrix(2, syn * signs[None, :, None]))
    g = oracle.matmul_array(2, oracle.adjoint_array(2, etf.synthesis.array),
                            etf.synthesis.array)[..., 0]
    first = min(r for r in range(n) if (g[r, r + 1:] == -1).any())
    assert first > 0
    calls = distinct_calls(monkeypatch)
    assert verify_etf(etf).welch_equality
    # a call per tile up to the one that holds row `first`, then none
    assert len(calls) == first // height + 1 < len(range(0, n, height))
    assert calls[-1] == [(1,), (-1,)] and all(c == [(1,)]
                                               for c in calls[:-1])


def random_sparse_frame(order, rng, density, equal_norms) -> Frame:
    """A D x N frame, each entry nonzero with probability `density` and
    every column nonzero somewhere.  With equal_norms, every column has the
    same number of nonzeros, each a root of unity, so the pass reaches the
    frame operator; else the coefficients are random in [-2, 2]."""
    ring = cyclo._ring(order)
    d, n = (int(x) for x in rng.integers(3, 13, size=2))
    if equal_norms:
        k = max(1, round(density * d))
        support = np.zeros((d, n), dtype=bool)
        for c in range(n):
            support[rng.choice(d, size=k, replace=False), c] = True
        arr = ring.powers(rng.integers(order, size=d * n)).reshape(d, n, -1)
    else:
        support = rng.random((d, n)) < density
        support[rng.integers(d, size=n), np.arange(n)] = True
        arr = rng.integers(-2, 3, size=(d, n, ring.degree))
        arr[..., 0] = np.where(arr.any(axis=2), arr[..., 0], 1)
    return Frame(CycMatrix(order, arr * support[..., None]))


@pytest.mark.parametrize("order", [2, 5, 10, 30])
@pytest.mark.parametrize("height", [None, 1, 3])
def test_pass_matches_the_whole_gram_on_random_sparse_frames(order, height,
                                                             tiles):
    tiles(height)
    rng = np.random.default_rng(100 + order * 10 + (height or 0))
    for density in (0.05, 0.1, 0.2, 0.3):
        for equal_norms in (False, True):
            for _ in range(2):
                frame = random_sparse_frame(order, rng, density, equal_norms)
                assert pass_certificate(frame) == whole_gram_oracle(frame)


def assert_gram_exact(frame, scalar=True) -> CycMatrix:
    """gram(frame) is Phi* Phi, bit for bit and in its storage dtype, as
    one product of the adjoint in the reference ring's arrays, and (with
    `scalar`) as summed in its lists."""
    got, n, syn = gram(frame), frame.order, frame.synthesis.array
    want = CycMatrix(n, oracle.matmul_array(
        n, oracle.adjoint_array(n, syn), syn)).array
    assert got.array.dtype == want.dtype and got.array.shape == want.shape
    assert np.array_equal(got.array, want)
    if want.dtype != object:
        assert got.array.tobytes() == want.tobytes()
    if scalar:
        assert oracle.entries(got.array) == scalar_gram(frame,
                                                        scalar_phi(frame))
    return got


@pytest.mark.parametrize("order", DIFF_ORDERS)
@pytest.mark.parametrize("height", [None, 1, 2])
def test_gram_is_the_adjoint_product_on_dense_frames(order, height, tiles,
                                                     kernel_paths):
    # d = 1 and d > 1; coefficients up to 2^30, whose bound needs two or
    # more primes, and one past 2^62, stored as Python ints
    tiles(height)
    rng = np.random.default_rng(order * 7 + (height or 0))
    deg = cyclo._ring(order).degree
    for mag in (1, 5, 2**30, 2**63):
        d, n = (int(x) for x in rng.integers(1, 6, size=2))
        arr = rng.integers(-min(mag, 2**62), min(mag, 2**62) + 1,
                           size=(d, n, deg)).astype(object)
        arr[..., 0] = np.where(arr[..., 0] == 0, 1, arr[..., 0])
        arr[0, :, 0] = mag
        frame = Frame(CycMatrix(order, arr))
        assert frame.support.all()
        with kernel_paths() as seen:
            got = gram(frame).array
        assert seen[0] >= (2 if mag >= 2**30 else 0)
        if mag == 2**63:
            assert got.dtype == object
        assert_gram_exact(frame)


@pytest.mark.parametrize("order", [2, 5, 10, 30])
@pytest.mark.parametrize("height", [1, 3])
def test_gram_is_the_adjoint_product_on_sparse_frames(order, height, tiles):
    # several row tiles, most of them gathering the rows they touch
    tiles(height)
    rng = np.random.default_rng(200 + order * 10 + height)
    deg = cyclo._ring(order).degree
    gathered = 0
    for density in (0.1, 0.2, 0.3):
        for equal_norms in (False, True):
            frame = random_sparse_frame(order, rng, density, equal_norms)
            gathered += sum(not isinstance(hit, slice)
                            for _, hit in frames._tiles(frame.support, deg))
            assert_gram_exact(frame)
    assert gathered


@pytest.mark.parametrize("order", [1, 3])
def test_gram_of_one_column(order):
    arr = np.zeros((3, 1, cyclo._ring(order).degree), dtype=np.int64)
    arr[:, 0, 0] = (1, 0, 2)
    assert_gram_exact(Frame(CycMatrix(order, arr)))


@pytest.mark.parametrize("indexed", [False, True], ids=["dense", "indexed"])
@pytest.mark.parametrize("offset", [None, -1, 1], ids=["1", "N-1", "N+1"])
def test_pass_evaluates_the_synthesis_in_chunks_of_entries(monkeypatch,
                                                           offset, indexed):
    # `_Space.values` evaluates _CHUNK // d entries at a time, the last
    # chunk shorter: chunks of 1, N - 1 and N + 1 entries end mid-row, and
    # give the certificates of the whole, over every entry (a slice) and
    # over the indices of the nonzeros, in a space of one prime and of two
    monkeypatch.setattr(frames, "_BLOCK", 1 if indexed else 2**62)
    rng = np.random.default_rng([(offset or 0) + 1, indexed])
    primes = set()
    for order in (3, 5, 10, 30):
        cases = [random_sparse_frame(order, rng, 0.3, equal)
                 for equal in (False, True)]
        if not indexed:
            cases += [simplex_over(order), rooted(simplex_over(order), rng)]
        for frame, scale in itertools.product(cases, (1, 2**13)):
            frame = Frame(CycMatrix(order, frame.synthesis.array * scale))
            space, _, entries = frames._frame_space(frame.synthesis,
                                                    frame.support)
            assert isinstance(entries, slice) != indexed
            primes.add(len(space.primes))
            per = 1 if offset is None else frame.n + offset
            monkeypatch.setattr(cyclo, "_CHUNK", per * space.degree)
            assert pass_certificate(frame) == whole_gram_oracle(frame)
    assert primes == {1, 2}


@pytest.mark.parametrize("order", [2, 10])
def test_pass_finds_witnesses_in_gathered_and_whole_tiles(order, tiles):
    # ETF(6, 16) from AG(2, 2): vertex v has columns 4v, ..., 4v + 3 on the
    # 3 lines through it.  In tiles of 12 rows, the first tile's columns
    # touch all 6 rows, so it takes them whole; the second's touch 3, which
    # it gathers.  Negating an entry of column j moves |G_ij|^2 only for
    # the columns i of j's vertex, so the witness lies in j's tile
    from etfkit.constructions import steiner_etf
    from etfkit.designs import affine_plane, gf_build
    tiles(12)
    etf, _ = steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))
    etf = rooted(Frame(etf.synthesis.lift_to_order(order)),
                 np.random.default_rng(order))
    deg = cyclo._ring(order).degree
    hits = [hit for _, hit in frames._tiles(etf.support, deg)]
    assert hits[0] == slice(None)
    assert list(hits[1]) == list(np.flatnonzero(etf.support[:, 12]))
    assert pass_certificate(etf) == whole_gram_oracle(etf)
    for col, rows in ((2, range(12)), (13, range(12, 16))):
        k = int(np.flatnonzero(etf.support[:, col])[0])
        frame = corrupted(etf, [(k, col)], lambda x: -x)
        got = pass_certificate(frame)
        assert got == whole_gram_oracle(frame)
        assert int(got["witness"].split("(")[1].split(",")[0]) in rows


def test_tightness_on_every_prefix_of_an_etf():
    # a column prefix of an ETF is equal-norm and equiangular, so its
    # tightness is the Welch identity s^2 (N' - D) = t D (N' - 1): the
    # prefixes take N' < D, N' = D, D < N' < N and N' = N, and only the
    # whole frame is tight.  ETF(15,36) is checked against the whole
    # Gram only, as its Python-int oracle is slow
    from etfkit.constructions import gdd_etf, regular_simplex, steiner_etf
    from etfkit.designs import (affine_plane, gf_build, mols_from_field,
                                td_from_mols)
    steiner, _ = steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))
    seed, _ = regular_simplex(3, fourier(3))
    td33 = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    etf_15_36, _ = gdd_etf(seed, EtfType(3, -1, 2), td33, fourier(1),
                           sylvester(2))
    for etf, small in ((steiner, True), (seed, True), (etf_15_36, False)):
        assert (etf.d, etf.n) in ((6, 16), (2, 3), (15, 36))
        for k in range(1, etf.n + 1):
            frame = Frame(CycMatrix(etf.order, etf.synthesis.array[:, :k]))
            got = pass_certificate(frame)
            assert got == whole_gram_oracle(frame)
            if small:
                assert got == python_int_oracle(frame)
            assert got["equal_norm"] and got["equiangular"]
            assert got["tight"] == (frame.n == etf.n)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tightness_of_one_column(order, d):
    # N = 1: tight exactly at D = 1, and t stays None
    arr = np.zeros((d, 1, cyclo._ring(order).degree), dtype=np.int64)
    arr[:, 0, 0] = (2, 0, 1)[:d]
    frame = Frame(CycMatrix(order, arr))
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame) == python_int_oracle(frame)
    assert got["tight"] == got["welch_equality"] == (d == 1)
    assert got["t"] is None


def test_pass_matches_the_whole_gram_on_an_equiangular_frame_not_tight():
    for order in (1, 3, 8):
        frame = Frame(CycMatrix.from_int_matrix([[1, 2], [2, 1]], order))
        got = pass_certificate(frame)
        assert got == whole_gram_oracle(frame)
        assert got["equiangular"] and not got["tight"]
        # s = 5, t = 16, D = N = 2
        assert got["witness"] == ("frame is equal-norm and equiangular but "
                                  "not tight: s^2 (N - D) = 0, "
                                  "t D (N - 1) = 32")


def test_pass_names_an_irrational_coherence():
    # columns (1, 1) and (1, zeta_5): equal norms 2, and |G_01|^2 =
    # |1 + zeta|^2 = 2 + zeta + zeta^4 is not a rational integer, so the
    # frame is neither equiangular nor tight
    one, z = oracle.const(5, 1), oracle.root(5, 1)
    frame = columns_frame(5, [[one, one], [one, z]])
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame) == python_int_oracle(frame)
    assert got["equal_norm"] and not got["equiangular"] and not got["tight"]
    mod = oracle.abs2(5, oracle.add(one, z))
    assert mod == (1, 0, -1, -1)         # 2 + zeta + zeta^4, reduced
    assert got["witness"] == (f"Gram entry (0, 1) has |.|^2 = {mod}, not a "
                              f"rational integer")


def test_pass_matches_the_whole_gram_on_a_tdtf():
    from etfkit.constructions import mols_tdtf
    from etfkit.designs import gf_build, mols_from_field, td_from_mols
    td = td_from_mols(mols_from_field(gf_build(2, 2)), 3)
    frame, _ = mols_tdtf(td, sylvester(2), "centered")
    got = pass_certificate(frame)
    assert got == whole_gram_oracle(frame)
    assert got["tdtf"][3] and not got["welch_equality"]


def test_pass_matches_the_whole_gram_across_many_tiles(tmp_path, tiles):
    # ETF(88, 320) over Z[zeta_10]: 32-row tiles, ten of them; a witness in
    # row 0, one found only past the first tile, and the frame itself
    from etfkit.cli import main
    from etfkit.fileio import parse_frame

    def path(name):
        return str(tmp_path / name)

    for argv in (("design", "affine", "2", "-o", path("affine-2.design")),
                 ("design", "td", "4", "8", "-o", path("td-4-8.design")),
                 ("build", "steiner", "--bibd", path("affine-2.design"),
                  "--hadamard", "sylvester:2", "-o", path("seed-6.frame")),
                 ("build", "gdd-etf", "--seed", path("seed-6.frame"),
                  "--gdd", path("td-4-8.design"), "--he", "sylvester:1",
                  "--hf", "fourier:5", "-o", path("gdd-88.frame"))):
        assert main(list(argv)) == 0
    etf = parse_frame((tmp_path / "gdd-88.frame").read_text())
    tiles(None)
    assert len(list(frames._row_blocks(etf.n, etf.n * 4, frames._TILE_ROWS))
               ) == 10
    d, n = etf.d, etf.n
    cases = [etf, corrupted(etf, [(0, 2)], lambda x: -x),
             corrupted(etf, [(d - 1, n - 1)], lambda x: -x),
             corrupted(etf, [(d - 1, n - 1)], lambda x: 2 * x)]
    # a row of the synthesis whose first column is past the first tile:
    # negating its last entry moves |G|^2 only in rows past it
    used = etf.synthesis.array.any(axis=-1)
    k = next(k for k in range(d) if np.flatnonzero(used[k])[0] >= 32)
    late = corrupted(etf, [(k, int(np.flatnonzero(used[k])[-1]))],
                     lambda x: -x)
    cases.append(late)
    for frame in cases:
        assert pass_certificate(frame) == whole_gram_oracle(frame)
    row = int(pass_certificate(late)["witness"].split("(")[1].split(",")[0])
    assert row >= 32
    # gram's tiles gather the rows they touch, and give the adjoint product
    assert sum(not isinstance(hit, slice)
               for _, hit in frames._tiles(etf.support, 4)) >= 5
    for frame in (etf, late):
        assert_gram_exact(frame, scalar=False)


# ---------------------------------------------------------------------------
# the pass's bounds at their edges
#
# A coefficient of the Gram matrix is a sum over the rows where both of its
# columns are nonzero, one of the frame operator over the columns where
# both of its rows are: at most `terms` = max(nonzeros of a column,
# nonzeros of a row) products, max(D, N) for a dense frame.  The pass runs
# modulo the fewest primes of the ladder of width max(terms, d) whose
# product P exceeds twice its bound, m^2 conj_l1 d fold_l1 terms for
# m = max|Phi|.  At d = 1 below 2^53 it runs on the float64 coefficients,
# with no prime.  A row tile's |G|^2 is formed at the pass's points when P
# (or 2^53) covers max|G|^2 conj_l1 d fold_l1, else at those of a space of
# its own.  Each is run at the largest bound the primes cover and one step
# above, against the Python-int oracle.


def prime_steps(ring, width: int) -> list[int]:
    """The first two bounds at which the pass's prime count steps up."""
    out, whole = [2**53] if ring.degree == 1 else [], 1
    for p in ring.primes(width, 2**200):
        whole *= p
        if (whole + 1) // 2 > (out[-1] if out else 0):
            out.append((whole + 1) // 2)
        if len(out) == 2:
            return out


def expected_primes(ring, width: int, bound: int) -> int:
    if ring.degree == 1 and bound < 2**53:
        return 0
    count, whole = 0, 1
    for p in ring.primes(width, 2**200):
        if whole > 2 * bound:
            return count
        whole *= p
        count += 1


def nonzero_terms(support: np.ndarray) -> int:
    """The most nonzero products in a coefficient of the Gram matrix (a
    column's nonzeros) or of the frame operator (a row's)."""
    return int(max(support.sum(axis=0).max(), support.sum(axis=1).max()))


def worst_frame(order: int, support: np.ndarray, mag: int, sign) -> Frame:
    """Every coefficient of an entry in `support` is +-mag, coefficient
    (r, c, i) of sign sign(r, c, i); every other entry is 0."""
    deg = cyclo._ring(order).degree
    d, n = support.shape
    arr = np.array([[[sign(r, c, i) * mag * int(support[r, c])
                      for i in range(deg)] for c in range(n)]
                    for r in range(d)], dtype=object)
    return Frame(CycMatrix(order, arr))


SIGNS = [lambda r, c, i: 1, lambda r, c, i: -1 if (r + c + i) % 3 == 1 else 1]

# block supports: two blocks of 3 x 2 (columns of 3 nonzeros, so the Gram's
# count decides), and of 2 x 3 (rows of 3, the frame operator's), each 3
# terms where a dense frame of their shape has 6
GRAM_BLOCKS = np.kron(np.eye(2, dtype=int), np.ones((3, 2), dtype=int)) > 0
FO_BLOCKS = GRAM_BLOCKS.T.copy()


def check_pass_bound(kernel_paths, order, support):
    ring = cyclo._ring(order)
    terms = nonzero_terms(support)
    width = max(terms, ring.degree)
    const = ring.conj_l1 * ring.degree * ring.fold_l1 * terms
    for step in prime_steps(ring, width):
        below = isqrt((step - 1) // const)
        for mag in (below, below + 1):
            bound = mag * mag * const
            assert (bound >= step) == (mag > below)
            for sign in SIGNS:
                frame = worst_frame(order, support, mag, sign)
                with kernel_paths() as seen:
                    verify_etf(frame)
                assert seen[0] == expected_primes(ring, width, bound)
                assert pass_certificate(frame) == python_int_oracle(frame)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12])
def test_gram_bound_at_each_prime_step(kernel_paths, order):
    check_pass_bound(kernel_paths, order, np.ones((3, 2), dtype=bool))


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12])
def test_frame_operator_bound_at_each_prime_step(kernel_paths, order):
    check_pass_bound(kernel_paths, order, np.ones((2, 3), dtype=bool))


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12])
@pytest.mark.parametrize("support", [GRAM_BLOCKS, FO_BLOCKS],
                         ids=["gram", "frame-operator"])
def test_sparse_bound_at_each_prime_step(kernel_paths, order, support):
    check_pass_bound(kernel_paths, order, support)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12])
@pytest.mark.parametrize("support", [GRAM_BLOCKS, FO_BLOCKS],
                         ids=["gram", "frame-operator"])
def test_sparse_and_dense_bounds_straddle_a_prime_step(kernel_paths, order,
                                                       support):
    # at the largest magnitude the fewest primes cover under the nonzero
    # count, the bound with max(D, N) terms needs one more prime; the pass
    # runs under the fewer, and is exact
    ring = cyclo._ring(order)
    growth = ring.conj_l1 * ring.degree * ring.fold_l1
    terms, dense = nonzero_terms(support), max(support.shape)
    width = max(terms, ring.degree)
    mag = isqrt((prime_steps(ring, width)[0] - 1) // (growth * terms))
    sparse_primes = expected_primes(ring, width, mag * mag * growth * terms)
    assert expected_primes(ring, max(dense, ring.degree),
                           mag * mag * growth * dense) > sparse_primes
    for sign in SIGNS:
        frame = worst_frame(order, support, mag, sign)
        with kernel_paths() as seen:
            verify_etf(frame)
        assert seen[0] == sparse_primes
        assert pass_certificate(frame) == python_int_oracle(frame)


def squares(x: int, parts: int) -> list[int]:
    """Greedy: integers whose squares sum to x."""
    out = []
    while x:
        out.append(isqrt(x))
        x -= out[-1] ** 2
    assert len(out) <= parts
    return out + [0] * (parts - len(out))


@pytest.mark.parametrize("order", [1, 2, 3, 5, 12])
def test_tile_abs_squared_bound_at_the_points_and_past_them(kernel_paths,
                                                            order, spaces):
    # column 0 has squared norm x, the largest, so m = x: every |G|^2 is
    # compared at the pass's points while its primes cover x^2 (2^53 at
    # d = 1, with no prime), and past that in one more pass, bounded by
    # max(B, x^2), where Phi is evaluated again; the pass's own bound B
    # stays below one prime.  x runs over the largest x^2 the primes cover
    # and one past it, and over the same edge for x^2 conj_l1 d fold_l1,
    # the bound of |G|^2 by its coefficients.  Column 3 has every entry 1,
    # so the pass's width is D = 10 whatever x is
    ring = cyclo._ring(order)
    d, n = 10, 4
    width = max(d, ring.degree)
    growth = ring.conj_l1 * ring.degree * ring.fold_l1
    step = prime_steps(ring, width)[0]
    top = isqrt(step - 1)
    by_coefficients = isqrt((step - 1) // growth)
    for x in sorted({by_coefficients, by_coefficients + 1, top, top + 1}):
        arr = np.zeros((d, n, ring.degree), dtype=np.int64)
        arr[:, 0, 0] = squares(x, d)
        arr[0, 1, 0] = arr[1, 2, 0] = 1
        arr[:, 3, 0] = 1
        frame = Frame(CycMatrix(order, arr))
        assert gram(frame).array.max() == x
        assert max(nonzero_terms(frame.support), ring.degree) == width
        spaces.clear()
        with kernel_paths() as seen:
            verify_etf(frame)
        assert seen[0] == expected_primes(ring, width, _pass_bound(frame))
        assert spaces[0].covers(x * x) == (x <= top)
        assert len(spaces) == (1 if x <= top else 2)
        if x > top:
            assert spaces[1].bound == max(spaces[0].bound, x * x)
        assert all(space.evaluated == 1 for space in spaces)
        assert pass_certificate(frame) == python_int_oracle(frame)


@pytest.mark.parametrize("order", [3, 5, 12])
def test_later_tile_compares_at_the_points_only_where_ref_is_covered(
        order, tiles, spaces):
    # column 0 is A e_0, column c > 0 is B e_0 + e_c: row 0 of G is
    # (A^2, A B, A B, A B), so ref = A^2 B^2, and row 1 of the upper
    # triangle is (B^2 + 1, B^2, B^2).  B is the largest that lets the
    # pass's primes cover that row's |G|^2 by its coefficients; they cover
    # neither ref nor m^2 = A^4, so Phi is evaluated once more, in a pass
    # bounded by A^4, and every one-row tile compares there
    tiles(1)
    ring = cyclo._ring(order)
    growth = ring.conj_l1 * ring.degree * ring.fold_l1
    big = 2**20

    def frame_with(b):
        arr = np.zeros((4, 4, ring.degree), dtype=np.int64)
        arr[0, 0, 0] = big
        for c in range(1, 4):
            arr[0, c, 0], arr[c, c, 0] = b, 1
        return Frame(CycMatrix(order, arr))

    first = frame_with(1)
    space = frames._frame_space(first.synthesis, first.support)[0]
    b = isqrt(isqrt(prod(space.primes) // (2 * growth))) - 1
    while not space.covers((b * b + 1) ** 2 * growth):
        b -= 1
    frame = frame_with(b)
    assert frames._frame_space(frame.synthesis, frame.support)[0].primes == (
        space.primes)
    assert not space.covers((big * b) ** 2) and not space.covers(big**4)
    spaces.clear()
    verify_etf(frame)
    assert len(spaces) == 2
    assert spaces[1].bound == max(spaces[0].bound, big**4)
    assert all(space.evaluated == 1 for space in spaces)
    got = pass_certificate(frame)
    assert got == python_int_oracle(frame)
    assert not got["equiangular"]


@pytest.fixture
def spaces(monkeypatch):
    """The spaces the certifier makes, in order, each with its bound and
    a count of the arrays it evaluates; the first is the pass's."""
    made = []

    class Counted(frames._Space):
        def __init__(self, ring, width, bound):
            super().__init__(ring, width, bound)
            self.bound, self.evaluated = bound, 0
            made.append(self)

        def values(self, arr, mag, entries=slice(None)):
            self.evaluated += 1
            return super().values(arr, mag, entries)

    monkeypatch.setattr(frames, "_Space", Counted)
    return made


def spread_frame(order: int, cols: list[dict]) -> Frame:
    """Column c has the integer cols[c][r] in row r, 0 elsewhere."""
    arr = np.zeros((1 + max(r for col in cols for r in col), len(cols),
                    cyclo._ring(order).degree), dtype=object)
    for c, col in enumerate(cols):
        for r, v in col.items():
            arr[r, c, 0] = v
    return Frame(CycMatrix(order, arr))


def largest_norm(frame) -> int:
    """m of a frame over Z: its largest squared column norm."""
    return int((frame.synthesis.array[..., 0].astype(object) ** 2)
               .sum(axis=0).max())


@pytest.mark.parametrize("order", [1, 3, 12])
@pytest.mark.parametrize("height", [1, 2, 3, None])
def test_tiles_compare_in_the_pass_space_and_in_their_own(order, height,
                                                          tiles, spaces):
    # big = 2^20 puts m^2 >= big^4 past the pass's primes (past 2^53 at
    # d = 1), though a tile of small columns alone would stay covered.
    # The big columns touch no row of the first three columns, so for
    # tiles of 1 to 3 rows:
    # - small first: columns e_0..e_3 (ref = 0), then B e_4, B e_4 + e_5,
    #   e_6: |G_45|^2 = B^4 breaks equiangularity;
    # - big first: B e_0, then e_1..e_4 and e_3 + e_5: |G_35|^2 = 1 breaks
    #   it.
    # Either way Phi is evaluated once more, in a pass bounded by
    # max(B, m^2), and every tile compares there.  Every field must be the
    # whole Gram's, on rotated copies too
    tiles(height)
    big = 2**20
    small_first = [{0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: big},
                   {4: big, 5: 1}, {6: 1}]
    big_first = [{0: big}, {1: 1}, {2: 1}, {3: 1}, {4: 1}, {3: 1, 5: 1}]
    rng = np.random.default_rng(order)
    for cols in (small_first, big_first):
        frame = spread_frame(order, cols)
        m = largest_norm(frame)
        spaces.clear()
        verify_etf(frame)
        assert not spaces[0].covers(m * m) and len(spaces) == 2
        assert spaces[1].bound == max(spaces[0].bound, m * m)
        assert all(space.evaluated == 1 for space in spaces)
        for copy in (frame, rooted(frame, rng)):
            assert pass_certificate(copy) == whole_gram_oracle(copy)


@pytest.mark.parametrize("order", [1, 3, 12])
@pytest.mark.parametrize("height", [1, 2, 3, None])
def test_a_later_tile_space_is_bounded_by_ref(order, height, tiles, spaces):
    # column 0 is a (e_0 + ... + e_3), column c = 1..4 is b e_(c-1) +
    # e_(3+c): G_0c = a b, so ref = a^2 b^2, past the pass's primes, and
    # row 1 of G is (b^2 + 1, 0, 0, 0), whose |G|^2 bound (b^2 + 1)^2
    # growth is below ref.  m = 4 a^2 bounds ref as every |G|^2: Phi is
    # evaluated once more, in a pass bounded by max(B, m^2), where
    # |G_12|^2 = 0 breaks equiangularity
    tiles(height)
    ring = cyclo._ring(order)
    growth = ring.conj_l1 * ring.degree * ring.fold_l1
    b = 2**24
    a = 2 * b * (isqrt(growth) + 1)
    frame = spread_frame(order, [{r: a for r in range(4)}] + [
        {c - 1: b, 3 + c: 1} for c in range(1, 5)])
    m = largest_norm(frame)
    assert m == 4 * a * a
    spaces.clear()
    verify_etf(frame)
    assert not spaces[0].covers((a * b) ** 2)
    assert (b * b + 1) ** 2 * growth < (a * b) ** 2 <= m * m
    assert len(spaces) == 2
    assert spaces[1].bound == max(spaces[0].bound, m * m)
    rng = np.random.default_rng(order)
    for copy in (frame, rooted(frame, rng)):
        assert pass_certificate(copy) == whole_gram_oracle(copy)


def _pass_bound(frame) -> int:
    ring = cyclo._ring(frame.order)
    mag = int(np.abs(frame.synthesis.array).max())
    return (mag * mag * ring.conj_l1 * ring.degree * ring.fold_l1
            * nonzero_terms(frame.support))


@pytest.mark.parametrize("order, n", [(2, 2000), (5, 1000)])
def test_certification_forms_no_whole_gram_matrix(order, n):
    # every column (1, 1): equal norms, equiangular, so every tile is read;
    # the N x N Gram's coefficients alone would take n^2 deg 8 bytes
    import tracemalloc
    deg = cyclo._ring(order).degree
    frame = Frame(CycMatrix.ones(2, n, order))
    verify_etf(frame)
    tracemalloc.start()
    try:
        cert = verify_etf(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.equiangular and cert.t == 4 and not cert.tight
    assert peak < n * n * deg * 8 / 4


# ---------------------------------------------------------------------------
# the norm rule at its edge
#
# Let m be the largest l1 norm of a column norm's coefficients (s once the
# norms are equal).  |G_ij|^2 and ref = |G_01|^2 lie in [0, m^2] at every
# complex embedding (Cauchy-Schwarz), so where their values agree modulo
# primes whose product P exceeds 2 m^2 they are equal: the pass compares
# them at its own points and interpolates single entries only (ref, the
# witness's |G|^2, their Gram entries, the values reported).  At
# P <= 2 m^2 Phi is evaluated once more, in a pass bounded by max(B, m^2).
# The real ladder's primes are far past 2 m^2 on these frames, so the
# ladder is patched to begin with small primes.


@pytest.fixture
def interpolated(monkeypatch):
    """The number of entries that each interpolation interpolates, in
    order."""
    counts, real = [], cyclo._Space.exact

    def exact(self, vals):
        counts.append(vals[0].size // self.degree)
        return real(self, vals)

    monkeypatch.setattr(cyclo._Space, "exact", exact)
    return counts


@pytest.fixture
def ladder(monkeypatch):
    """Make the prime ladder of every width begin with the given primes,
    then go on as it does; the ring cache is cleared at each call and after
    the test."""
    real = cyclo._ladder

    def begin_with(*primes):
        cyclo._ring.cache_clear()
        monkeypatch.setattr(cyclo, "_ladder", lambda n, width: (
            itertools.chain(primes, real(n, width))))

    yield begin_with
    cyclo._ring.cache_clear()


def one_prime_of(order: int, low: int, high: int, last: bool) -> int:
    """The last (else the first) prime p = 1 (mod order), low < p <= high."""
    from etfkit.designs import is_prime
    span = range(high, low, -1) if last else range(low + 1, high + 1)
    return next(p for p in span if p % order == 1 and is_prime(p))


@pytest.mark.parametrize("order, scale", [(3, 3), (4, 2), (5, 3)])
def test_norm_rule_fires_only_past_twice_s_squared(order, scale, ladder,
                                                   interpolated, spaces):
    # the Fourier simplex scaled by `scale`, whose norms are s = (order - 1)
    # scale^2 = m, and a copy with its last column doubled, whose norms
    # are s and m = 4 s; each pass's bound B = mag^2 growth order is below
    # m^2.  One prime, just below 2 m^2 and just above it, with the pass's
    # bound under each: above, the rule fires in the pass; below, Phi is
    # evaluated once more in a pass bounded by max(B, m^2).  Each frame, a
    # rotated copy and a corrupted copy give the oracle's fields, and past
    # the norms no more than one entry is interpolated at a time
    ring = cyclo._ring(order)
    growth = ring.conj_l1 * ring.degree * ring.fold_l1
    even = simplex_frame(order).synthesis.array * scale
    uneven = even.copy()
    uneven[:, -1] *= 2
    s = (order - 1) * scale ** 2
    rng = np.random.default_rng(order)
    for arr, m, mag in ((even, s, scale), (uneven, 4 * s, 2 * scale)):
        etf = Frame(CycMatrix(order, arr))
        bound = mag ** 2 * growth * order
        copies = [etf, rooted(etf, rng),
                  corrupted(etf, [(order // 2, order - 1)], lambda x: -x)]
        below = one_prime_of(order, 2 * bound, 2 * m * m, last=True)
        above = one_prime_of(order, 2 * m * m, 4 * m * m, last=False)
        for p, fires in ((below, False), (above, True)):
            ladder(p)
            for frame in copies:
                space = frames._frame_space(frame.synthesis, frame.support)[0]
                assert space.primes == (p,) and space.bound == bound
                assert space.covers(m * m) == fires
                spaces.clear()
                interpolated.clear()
                got = pass_certificate(frame)
                assert got == python_int_oracle(frame)
                assert len(spaces) == (1 if fires else 2)
                if not fires:
                    assert spaces[1].bound == max(bound, m * m)
                assert interpolated[0] == frame.n
                assert set(interpolated[1:]) == {1}


@pytest.mark.parametrize("height", [None, 1])
def test_norm_rule_does_not_accept_a_congruent_modulus(ladder, tiles,
                                                       height, spaces):
    # over Z[i], with the ladder at 17, 193, the pass runs mod P = 3281 =
    # 17 * 193, past its 2B but not past 2 m^2: values that agree mod P
    # need not be equal, and Phi is evaluated once more in a pass bounded
    # by m^2.  Two frames, whose columns are given:
    # - (10, -3, -2), (10, -3, 2), (10, 2, 3): m = s = 113, 2B = 2400,
    #   ref = 105^2 and |G_02|^2 = 88^2, which differ by P.  (0, 2) is the
    #   witness, as the oracle's is; a rule fired mod P would pass row 0
    #   in tiles of one row and name (1, 2);
    # - (-4, 4, -9), (-1, 3, -8), (-1, 5, -9): unequal norms 113, 74 and
    #   107, so m = 113, 2B = 1944, and G_01 = G_12 = 88, G_02 = 105.  The
    #   frame is not equiangular, as the oracle says, though every |G|^2
    #   agrees with ref mod P: a rule fired mod P would find t = 88^2
    tiles(height)
    cases = [
        ([(10, -3, -2), (10, -3, 2), (10, 2, 3)], 113,
         "Gram entry (0, 2) has |.|^2 = (7744, 0), entry (0, 1) has "
         "(11025, 0): equiangularity fails"),
        ([(-4, 4, -9), (-1, 3, -8), (-1, 5, -9)], 113,
         "Gram entry (1, 1) = (74, 0) breaks equal norms (entry (0, 0) = "
         "(113, 0))"),
    ]
    ladder(17, 193)
    rng = np.random.default_rng(4)
    for cols, m, witness in cases:
        arr = np.zeros((3, 3, 2), dtype=np.int64)
        arr[..., 0] = np.array(cols).T
        frame = Frame(CycMatrix(4, arr))
        space = frames._frame_space(frame.synthesis, frame.support)[0]
        assert space.primes == (17, 193) and not space.covers(m * m)
        assert (105 ** 2 - 88 ** 2) % 3281 == 0
        for copy in (frame, rooted(frame, rng)):
            spaces.clear()
            got = pass_certificate(copy)
            assert got == python_int_oracle(copy)
            assert len(spaces) == 2 and spaces[1].bound == m * m
            assert not got["equiangular"] and got["witness"] == witness


def gdd_88_320() -> Frame:
    """The GDD extension ETF(88,320) over Z[zeta_10]."""
    from etfkit.constructions import gdd_etf, steiner_etf
    from etfkit.designs import (affine_plane, gf_build, mols_from_field,
                                td_from_mols)
    seed, _ = steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))
    td = td_from_mols(mols_from_field(gf_build(2, 3)), 4)
    return gdd_etf(seed, EtfType(4, -1, 3), td, sylvester(1), fourier(5))[0]


def paley_frame(p: int) -> Frame:
    """The dense Paley ETF((p - 1)/2, p) over Z[zeta_p]: row q is
    zeta^(q k), k in Z_p, for the quadratic residues q mod p."""
    qr = sorted({x * x % p for x in range(1, p)})
    arr = cyclo._ring(p).powers(np.outer(qr, np.arange(p)).ravel())
    return Frame(CycMatrix(p, arr.reshape(len(qr), p, -1)))


@pytest.mark.parametrize("build, cert", [
    (gdd_88_320, "ETF D=88 N=320 s=11 t=1 A=40"),
    (functools.partial(paley_frame, 103), "ETF D=51 N=103 s=51 t=26 A=103"),
], ids=["etf-88-320", "paley-51-103"])
def test_pass_interpolates_no_gram_tile_of_an_etf(build, cert, interpolated):
    # the norms are interpolated, then G_01 and its |.|^2, one entry each,
    # and no Gram tile: on the ETF and on a rotated copy
    etf = build()
    for frame in (etf, rooted(etf, np.random.default_rng(1))):
        interpolated.clear()
        assert str(verify_etf(frame)) == cert
        assert interpolated[0] == frame.n and set(interpolated[1:]) == {1}


def test_pass_interpolates_only_the_witness_entry_of_a_corrupted_etf(
        interpolated):
    # ETF(88,320) with entry (40, 289) negated keeps equal norms; its
    # witness lies in a late tile, of which only the witness is
    # interpolated, then its |.|^2, one entry each, and every field is the
    # whole Gram's
    bad = corrupted(gdd_88_320(), [(40, 289)], lambda x: -x)
    got = pass_certificate(bad)
    assert got == whole_gram_oracle(bad)
    assert got["witness"] == ("Gram entry (280, 289) has |.|^2 = (3, 0, -2, "
                              "2), entry (0, 1) has (1, 0, 0, 0): "
                              "equiangularity fails")
    assert got["tdtf_values"] is None
    interpolated.clear()
    verify_etf(bad)
    # the norms; G_01 and ref; the witness and its |.|^2
    assert interpolated == [bad.n, 1, 1, 1, 1]


# ---------------------------------------------------------------------------
# naimark_gram through the frame a Gram was computed from


def steiner_frames(build, arg) -> list[Frame]:
    """The Steiner ETFs of a BIBD, one per Hadamard spec of size R + 1."""
    from etfkit.cli import CliError, hadamard_from_spec
    from etfkit.constructions import steiner_etf
    from etfkit.designs import (GroupDivisibleDesign, _field_for,
                                affine_plane, projective_plane,
                                steiner_triple_system)
    if build == "sts":
        bibd = steiner_triple_system(arg)
    elif build == "single":
        bibd = GroupDivisibleDesign(arg, 1, arg, [range(arg)])
    elif build == "pairs":
        bibd = GroupDivisibleDesign(2, 1, arg,
                                    list(itertools.combinations(range(arg),
                                                                2)))
    else:
        bibd = {"affine": affine_plane,
                "projective": projective_plane}[build](_field_for(arg))
    n, out = bibd.R + 1, []
    for spec in (f"fourier:{n}", f"paley1:{n - 1}", f"paley2:{n // 2 - 1}",
                 f"sylvester:{n.bit_length() - 1}"):
        try:
            h = hadamard_from_spec(spec)
        except CliError:
            continue
        if h.size == n:
            out.append(steiner_etf(bibd, h)[0])
    assert out
    return out


def extension_frames() -> list[Frame]:
    """ETF(15,36) from every inner and outer Hadamard of sizes 1 and 4,
    then ETF(88,320) and ETF(77,210)."""
    from etfkit.cli import hadamard_from_spec
    from etfkit.constructions import gdd_etf, regular_simplex
    from etfkit.designs import (gf_build, mols_from_field,
                                steiner_triple_system, td_from_mols,
                                wilson_product)
    seed = regular_simplex(3, fourier(3))[0]
    td33 = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    inner = [hadamard_from_spec(s) for s in ("fourier:1", "sylvester:0")]
    outer = [hadamard_from_spec(s)
             for s in ("fourier:4", "paley1:3", "sylvester:2")]
    out = [gdd_etf(seed, EtfType(3, -1, 2), td33, he, hf)[0]
           for he in inner for hf in outer]
    gdd = wilson_product(td33, steiner_triple_system(7))
    return out + [gdd_88_320(), gdd_etf(seed, EtfType(3, -1, 2), gdd,
                                        fourier(1), fourier(10))[0]]


def mols_frames() -> list[Frame]:
    """The MOLS frames of TD(K, M), centred and augmented: ETFs and tight
    two-distance frames."""
    from etfkit.constructions import mols_tdtf
    from etfkit.designs import _field_for, mols_from_field, td_from_mols
    return [mols_tdtf(td_from_mols(mols_from_field(_field_for(m)), k),
                      fourier(m), variant)[0]
            for m in (3, 4, 5) for k in range(2, m + 1)
            for variant in ("centered", "augmented")]


NAIMARK_FRAMES = {
    **{f"simplex-{order}": (lambda order=order: [simplex_over(order)])
       for order in (2, 3, 10)},
    **{f"steiner-{build}-{arg}": functools.partial(steiner_frames, build, arg)
       for build, args in (("sts", (7, 9, 13, 15)),
                           ("affine", (2, 3, 4, 5)),
                           ("projective", (2, 3, 4)), ("single", (2, 3, 5)),
                           ("pairs", (3, 5, 6)))
       for arg in args},
    "extensions": extension_frames,
    "mols": mols_frames,
}


def tight_constant(g: CycMatrix, d: int) -> Fraction:
    """A = trace(G) / D, the constant of a tight frame whose norms are
    rational integers."""
    diag = g.array[np.arange(g.rows), np.arange(g.rows)]
    assert not diag[:, 1:].any()
    return Fraction(int(diag[:, 0].sum()), d)


def naimark_fields(res) -> tuple:
    comp = res.complement
    return (type(comp), comp.order, comp.array.dtype, comp.array.tolist(),
            res.denominator, res.input_tight, res.transfer_ok)


@pytest.mark.parametrize("label", NAIMARK_FRAMES)
def test_naimark_through_the_frame_matches_the_gram_check(label):
    # a Gram that keeps its frame is certified by Phi Phi* = A I at den = 1,
    # a bare copy of it by den G G = num G: every field is the same, at A,
    # at A + 1, at 0 and at a non-integer
    for frame in NAIMARK_FRAMES[label]():
        g = gram(frame)
        bare = CycMatrix(g.order, g.array)
        a = tight_constant(g, frame.d)
        assert naimark_gram(g, a).input_tight
        for x in (a, a + 1, Fraction(0), a + Fraction(1, 2)):
            assert naimark_fields(naimark_gram(g, x)) == \
                naimark_fields(naimark_gram(bare, x)), (frame, x)


@pytest.fixture
def naimark_passes(monkeypatch):
    """What naimark_gram runs: each `_tight` result, and the shape of each
    array a pass evaluates."""
    seen = {"tight": [], "values": []}
    real_tight, real_values = frames._tight, cyclo._Space.values

    def tight(space, phi, c):
        seen["tight"].append(real_tight(space, phi, c))
        return seen["tight"][-1]

    def values(self, arr, mag, entries=slice(None)):
        seen["values"].append(arr.shape)
        return real_values(self, arr, mag, entries)

    monkeypatch.setattr(frames, "_tight", tight)
    monkeypatch.setattr(cyclo._Space, "values", values)
    return seen


@pytest.mark.parametrize("build", [
    functools.partial(simplex_over, 10), gdd_88_320,
    lambda: steiner_frames("sts", 9)[0],
], ids=["simplex-10", "etf-88-320", "steiner-12-45"])
def test_naimark_at_its_own_constant_checks_only_the_frame(build,
                                                           naimark_passes):
    # at A one D x D check, and G is not evaluated; at A + 1 that check
    # fails, and den G G = num G is checked on G's values
    frame = build()
    g = gram(frame)
    a = tight_constant(g, frame.d)
    whole = g.array.shape
    for x, tight in ((a, [True]), (a + 1, [False])):
        naimark_passes["tight"].clear()
        naimark_passes["values"].clear()
        assert naimark_gram(g, x).input_tight == (x == a)
        assert naimark_passes["tight"] == tight
        assert frame.synthesis.array.shape in naimark_passes["values"]
        assert (whole in naimark_passes["values"]) == (x != a)


def test_naimark_falls_back_where_the_frame_is_not_tight(naimark_passes):
    # Phi = [[1, 1], [0, 0]] has a zero row: Phi Phi* = diag(2, 0) is not
    # 2 I, yet G = J_2 has G G = 2 G
    frame = Frame(CycMatrix(1, np.array([[[1], [1]], [[0], [0]]])))
    g = gram(frame)
    res = naimark_gram(g, 2)
    assert naimark_passes["tight"] == [False]
    assert res.input_tight and res.transfer_ok
    assert res.complement.array[:, :, 0].tolist() == [[1, -1], [-1, 1]]


def test_naimark_frame_travels_only_with_the_gram_itself(naimark_passes):
    # a matrix made from the Gram keeps no frame, so it takes the N x N
    # check; the Gram itself stays read-only and immutable
    frame = simplex_over(3)
    g = gram(frame)
    a = tight_constant(g, frame.d)
    assert g.frame is frame
    assert not g.array.flags.writeable
    with pytest.raises(ValueError):
        g.array[0, 0, 0] = 0
    with pytest.raises(AttributeError):
        g.frame = simplex_over(10)
    comp = naimark_gram(g, a).complement
    others = [g.submatrix(slice(None), slice(None)), g.lift_to_order(6),
              CycMatrix(g.order, g.array), comp]
    assert g.lift_to_order(g.order) is g
    for other in others:
        assert type(other) is CycMatrix
        naimark_passes["tight"].clear()
        naimark_passes["values"].clear()
        assert naimark_gram(other, a).input_tight
        assert naimark_passes["tight"] == []
        assert naimark_passes["values"] == [other.array.shape]


def test_naimark_of_a_bare_gram_holds_two_whole_arrays():
    # at d = 1 with no prime, den G G = num G takes one whole float64
    # product beside G's values, compared a block of rows at a time: for
    # ETF(247,780), whose Gram is 4.64 MiB, the peak stays below 10.5 MiB
    # (14.51 MiB when the comparison made a third whole array)
    import tracemalloc
    from etfkit.constructions import steiner_etf
    from etfkit.designs import gf_build, steiner_triple_system
    from etfkit.hadamard import paley_i
    frame, cert = steiner_etf(steiner_triple_system(39),
                              paley_i(gf_build(19, 1)))
    g = gram(frame)
    bare = CycMatrix(g.order, g.array)
    want = naimark_fields(naimark_gram(g, cert.a))
    naimark_gram(bare, cert.a)
    tracemalloc.start()
    try:
        res = naimark_gram(bare, cert.a)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert naimark_fields(res) == want and res.input_tight
    assert peak < 10.5, f"peak {peak:.2f} MiB"


# ---------------------------------------------------------------------------
# sparse evaluation: where the zeros of a frame hold a block of values,
# `_Space.values` evaluates its nonzero entries only


def sparse_frame(order: int, zeros: int, mag: int, zero_row: bool,
                 seed: int) -> Frame:
    """A D x 2D frame over Z[zeta_order] with exactly `zeros` zero entries,
    every column nonzero, and row 0 zero if `zero_row`; its nonzero entries
    have coefficients in [-mag, mag], mag itself among them."""
    rng = np.random.default_rng(seed)
    deg = cyclo._ring(order).degree
    d = isqrt(zeros // 2) + 2
    n = 2 * d
    top = int(zero_row)
    support = np.zeros((d, n), dtype=bool)
    support[rng.integers(top, d, n), np.arange(n)] = True
    free = np.flatnonzero(~support[top:]) + top * n
    more = d * n - zeros - n
    support.reshape(-1)[rng.choice(free, more, replace=False)] = True
    arr = rng.integers(-mag, mag + 1, (d, n, deg)) * support[..., None]
    arr[..., 0][support & ~arr.any(axis=2)] = mag     # no nonzero entry is 0
    arr.reshape(-1, deg)[np.argmax(support), 0] = mag
    frame = Frame(CycMatrix(order, arr))
    assert int((~frame.support).sum()) == zeros
    assert frame.support[0].any() != zero_row
    return frame


def negative_zeros(x: np.ndarray) -> bool:
    return bool((np.signbit(x) & (x == 0)).any())


# (order, d); at each, the zeros skipped hold _BLOCK - d values (the slice)
# or _BLOCK (the indices), in a space of one prime or of two
SPARSE_ORDERS = [(3, 2), (5, 4), (15, 8)]
SPARSE_CASES = [(order, deg, cut, mag, primes)
                for order, deg in SPARSE_ORDERS
                for cut in (deg, 0)
                for mag, primes in ((3, 1), (2**13, 2))]


@pytest.mark.parametrize("order, deg, cut, mag, primes", SPARSE_CASES)
def test_sparse_values_are_the_dense_values_at_the_edge(order, deg, cut, mag,
                                                        primes):
    zeros = (cyclo._BLOCK - cut) // deg
    for zero_row in (False, True):
        frame = sparse_frame(order, zeros, mag, zero_row, seed=order + cut)
        arr = frame.synthesis.array
        space, got_mag, entries = frames._frame_space(frame.synthesis,
                                                      frame.support)
        assert cyclo._ring(order).degree == deg and got_mag == mag
        assert len(space.primes) == primes
        assert isinstance(entries, slice) == (cut > 0)
        dense = space.values(arr, mag)
        for picked in (entries, np.flatnonzero(frame.support)):
            sparse = space.values(arr, mag, picked)
            assert len(sparse) == len(dense) == primes
            for s, x in zip(sparse, dense):
                assert s.shape == x.shape == (deg,) + frame.support.shape
                assert s.dtype == x.dtype == np.float64
                assert np.array_equal(s, x)
                assert not negative_zeros(s) and not negative_zeros(x)


def dense_results(frame: Frame, a) -> tuple:
    """verify_etf, gram and naimark_gram of a frame, every field."""
    cert = verify_etf(frame)
    g = gram(frame)
    return (cert, str(cert), g.array.dtype, g.array.tolist(),
            naimark_fields(naimark_gram(g, a)))


@pytest.mark.parametrize("order, deg, cut, mag, primes", SPARSE_CASES)
def test_sparse_pass_matches_the_dense_pass(order, deg, cut, mag, primes,
                                           monkeypatch):
    # the same frame, once as selected and once with every evaluation
    # dense: the certificate, the Gram and the Naimark complement agree,
    # field for field, at A = 1 (the framed check runs, D <= N, and fails)
    # and at a non-integer A
    zeros = (cyclo._BLOCK - cut) // deg
    for zero_row in (False, True):
        frame = sparse_frame(order, zeros, mag, zero_row, seed=order + cut)
        for a in (1, Fraction(1, 2)):
            got = dense_results(frame, a)
            with monkeypatch.context() as m:
                m.setattr(frames, "_BLOCK", 2**62)
                want = dense_results(frame, a)
            assert got == want
            assert not got[0].welch_equality and got[0].witness


def workload_frames(tmp_path, monkeypatch, name: str) -> dict:
    """The frames that a perfbench workload builds, through the CLI, by
    file name."""
    import importlib
    from pathlib import Path
    from etfkit import cli, fileio
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    out = {}
    for job in workload.designs + workload.frames:
        argv = [str(tmp_path / a) if a.endswith((".design", ".frame")) else a
                for a in job.argv]
        assert cli.main(argv) == 0
        if argv[-1].endswith(".frame"):
            out[job.path] = fileio.parse_frame(
                (tmp_path / job.path).read_text())
    return out


@pytest.fixture
def evaluated(monkeypatch):
    """Each evaluation `_Space.values` makes: the shape it evaluates and
    whether it takes every entry (a slice) or indices."""
    seen, real = [], cyclo._Space.values

    def values(self, arr, mag, entries=slice(None)):
        seen.append((arr.shape, isinstance(entries, slice)))
        return real(self, arr, mag, entries)

    monkeypatch.setattr(cyclo._Space, "values", values)
    return seen


@pytest.mark.parametrize("workload, indexed", [
    ("gdd-multislot", {"gdd-88.frame", "gdd-77.frame"}),
    ("small-zoo", set()),
    ("steiner-247", set()),
])
def test_only_the_gdd_extensions_evaluate_by_index(workload, indexed,
                                                   tmp_path, monkeypatch,
                                                   evaluated):
    # verify_etf, gram and the framed Naimark check evaluate the frame
    # itself: by the indices of its nonzeros on ETF(88,320) and
    # ETF(77,210), every entry on every other frame of the benchmark
    built = workload_frames(tmp_path, monkeypatch, workload)
    if workload == "gdd-multislot":
        assert {(f.d, f.n) for f in built.values()} >= {(88, 320), (77, 210)}
    for path, frame in built.items():
        evaluated.clear()
        cert = verify_etf(frame)
        g = gram(frame)
        if cert.welch_equality:
            assert naimark_gram(g, cert.a).input_tight
        assert set(evaluated) == {(frame.synthesis.array.shape,
                                   path not in indexed)}, path
