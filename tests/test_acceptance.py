"""Acceptance suite: one test per criterion, exact identities only.

Each test prints a PASS line with its measured runtime; budgets are asserted.
Expensive frames are built once and shared through a module-level cache.
"""

import itertools
import time
from math import isqrt

import numpy as np
import pytest

import oracle
from etfkit.constructions import (
    KNOWN,
    UNKNOWN,
    ConstructionError,
    existence_status,
    gdd_etf,
    mols_tdtf,
    plan_gdd_etf,
    regular_simplex,
    steiner_etf,
)
from etfkit.designs import (
    GroupDivisibleDesign,
    affine_plane,
    embedding_operators,
    fill_holes,
    gf_build,
    mols_from_field,
    projective_plane,
    steiner_triple_system,
    td_from_mols,
    verify_gdd,
    wilson_product,
)
from etfkit.frames import (EtfType, classify_type, gram, naimark_gram,
                           verify_etf)
from etfkit.hadamard import dephase, fourier, paley_i, paley_ii, sylvester, verify_hadamard

_cache: dict[str, object] = {}


def _get(name, builder):
    if name not in _cache:
        _cache[name] = builder()
    return _cache[name]


def _report(num: int, label: str, elapsed: float, budget: float):
    print(f"PASS criterion {num}: {label} ({elapsed:.3f} s, budget {budget} s)",
          flush=True)
    assert elapsed < budget, f"criterion {num} exceeded {budget} s"


def td(k, m):
    p_k = {3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 32: (2, 5)}[m]
    return td_from_mols(mols_from_field(gf_build(*p_k)), k)


def build_6_16():
    return steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))


def build_15_36():
    seed, _ = regular_simplex(3, fourier(3))
    return gdd_etf(seed, EtfType(3, -1, 2), td(3, 3), fourier(1), sylvester(2))


def build_88_320():
    seed, _ = _get("etf_6_16", build_6_16)
    return gdd_etf(seed, EtfType(4, -1, 3), td(4, 8), sylvester(1), fourier(5))


def build_77_210():
    seed, _ = regular_simplex(3, fourier(3))
    gdd = wilson_product(td(3, 3), steiner_triple_system(7))
    return gdd_etf(seed, EtfType(3, -1, 2), gdd, fourier(1), fourier(10))


def test_criterion_1_classification_oracle():
    start = time.perf_counter()
    cases = {
        (6, 16): [EtfType(2, 1, 3), EtfType(4, -1, 3)],
        (3, 6): [],
        (2, 3): [EtfType(1, 1, 2), EtfType(3, -1, 2)],
        (11, 33): [EtfType(4, -1, 4)],
        (266, 1008): [EtfType(4, -1, 19)],
    }
    per_call = []
    for (d, n), expected in cases.items():
        t0 = time.perf_counter()
        for _ in range(100):
            got = classify_type(d, n)
        per_call.append((time.perf_counter() - t0) / 100)
        assert got == expected, (d, n)
    assert max(per_call) < 1e-3, f"slowest call {max(per_call):.2e} s"
    _report(1, "classification oracle, five pinned pairs",
            time.perf_counter() - start, 1.0)


def test_criterion_2_type_round_trip():
    start = time.perf_counter()
    checked = 0
    for s in range(2, 51):
        for k in range(1, 61):
            for ell in (1, -1):
                if (s * (s - ell)) % k != 0:
                    continue
                t = EtfType(k, ell, s)
                d, n = t.dimension, t.count
                if d <= 1 or n <= d:
                    continue
                types = classify_type(d, n)
                assert t in types, t
                assert all(x.S == s for x in types)
                checked += 1
    assert checked == 965    # the sweep is exhaustive, not sampled
    _report(2, f"type round-trip, {checked} admissible triples exhaustively",
            time.perf_counter() - start, 5.0)


def test_criterion_3_steiner_pipeline():
    start = time.perf_counter()
    frame, cert = _get("etf_6_16", build_6_16)
    assert (frame.d, frame.n) == (6, 16)
    assert (cert.s, cert.t, cert.a) == (3, 1, 8)
    frame2, cert2 = _get("etf_12_45",
                         lambda: steiner_etf(steiner_triple_system(9),
                                             fourier(5)))
    assert (frame2.d, frame2.n) == (12, 45)
    assert (cert2.s, cert2.t, cert2.a) == (4, 1, 15)
    r = steiner_triple_system(9).R
    assert (cert2.s, cert2.t, cert2.a) == (r, 1, 3 * (r + 1))
    _report(3, "Steiner ETF(6,16) and ETF(12,45), exact certificates",
            time.perf_counter() - start, 1.0)


def _same_cluster_offdiagonals(frame, ell: int, w1: int):
    # columns sharing (u, m, i) but differing in j have inner product -L
    g = oracle.entries(gram(frame).array)
    for base in range(0, frame.n, w1):
        for j1, j2 in itertools.combinations(range(w1), 2):
            assert g[base + j1][base + j2] == oracle.const(frame.order, -ell)


def test_criterion_4_gdd_extension_small():
    start = time.perf_counter()
    frame, cert = _get("etf_15_36", build_15_36)
    assert (frame.d, frame.n) == (15, 36)
    assert (cert.s, cert.t, cert.a) == (5, 1, 12)
    assert EtfType(3, -1, 5) in classify_type(15, 36)
    assert cert.a == 3 * (5 - 1)            # A = K(S' + L)
    _same_cluster_offdiagonals(frame, ell=-1, w1=4)
    _report(4, "GDD extension ETF(2,3) -> ETF(15,36), -L off-diagonals",
            time.perf_counter() - start, 1.0)


def test_criterion_5_gdd_extension_medium():
    start = time.perf_counter()
    frame, cert = _get("etf_88_320", build_88_320)
    assert (frame.d, frame.n) == (88, 320)
    assert (cert.s, cert.t) == (11, 1)
    assert frame.order == 10                # certified over Z[zeta_10]
    assert classify_type(88, 320) == [EtfType(4, -1, 11)]
    assert 11 % 8 == 3
    _same_cluster_offdiagonals(frame, ell=-1, w1=5)
    _report(5, "GDD extension ETF(6,16) -> ETF(88,320) over Z[zeta_10]",
            time.perf_counter() - start, 60.0)


def test_criterion_6_wilson_product_path():
    start = time.perf_counter()
    gdd = wilson_product(td(3, 3), steiner_triple_system(7))
    rep = verify_gdd(gdd)
    assert rep.ok and (rep.k, rep.m, rep.u, rep.r, rep.b) == (3, 3, 7, 9, 63)
    frame, cert = _get("etf_77_210", build_77_210)
    assert (frame.d, frame.n) == (77, 210)
    assert (cert.s, cert.t) == (11, 1)
    assert classify_type(77, 210) == [EtfType(3, -1, 11)]
    _same_cluster_offdiagonals(frame, ell=-1, w1=10)
    _report(6, "Wilson product 3-GDD 3^7, then ETF(77,210)",
            time.perf_counter() - start, 30.0)


def test_criterion_7_mols_flat_frames():
    budget_start = time.perf_counter()
    frame, cert = _get("mols_6_16",
                       lambda: mols_tdtf(td(2, 4), sylvester(2), "centered"))
    assert (frame.d, frame.n) == (6, 16)
    assert cert.welch_equality
    assert oracle.flat(2, frame.synthesis.array)
    assert oracle.centered(2, frame.synthesis.array)
    frame2, cert2 = _get("mols_10_16",
                         lambda: mols_tdtf(td(3, 4), sylvester(2),
                                           "augmented"))
    assert (frame2.d, frame2.n) == (10, 16)
    assert cert2.welch_equality and oracle.flat(2, frame2.synthesis.array)
    frame3, cert3 = mols_tdtf(td(3, 4), sylvester(2), "centered")
    assert not cert3.welch_equality and not cert3.equiangular
    rep = cert3.tdtf
    assert rep.ok and len(rep.values) == 2
    _report(7, "flat MOLS frames: ETF(6,16), ETF(10,16), strict TDTF",
            time.perf_counter() - budget_start, 3.0)


def _embedding_identities(design: GroupDivisibleDesign):
    ops = embedding_operators(design)
    sups = [[set(ops[u, m]) for m in range(design.M)]
            for u in range(design.U)]
    r = design.R
    for u in range(design.U):
        for m in range(design.M):
            assert len(sups[u][m]) == r
            for u2 in range(design.U):
                for m2 in range(design.M):
                    inter = len(sups[u][m] & sups[u2][m2])
                    if u == u2 and m == m2:
                        assert inter == r          # E*E = I
                    elif u == u2:
                        assert inter == 0          # E*E' = 0
                    else:
                        assert inter == 1          # single unit entry


def test_criterion_8_design_identity_suites():
    start = time.perf_counter()
    td48 = td(4, 8)
    fixtures = [
        td(3, 3),
        td48,
        steiner_triple_system(7),
        steiner_triple_system(9),
        affine_plane(gf_build(3, 1)),
        projective_plane(gf_build(2, 1)),
        wilson_product(td(3, 3), steiner_triple_system(7)),
        wilson_product(td(3, 3), steiner_triple_system(9)),
        fill_holes(td48, td(4, 32)),
    ]
    filled = fixtures[-1]
    assert (filled.K, filled.M, filled.U) == (4, 8, 16)
    for design in fixtures:
        rep = verify_gdd(design)    # includes X*X = R I + (J_U - I_U) x J_M
        assert rep.ok, rep.failure
        x = oracle.incidence(design)
        assert np.array_equal(x.sum(axis=1),
                              np.full(design.B, design.K, dtype=np.int64))
        if design.U == design.K:    # transversal designs
            xxt = x @ x.T
            rhs = design.M * xxt + design.K * (design.K - 1) * \
                np.ones_like(xxt)
            assert np.array_equal(xxt @ xxt, rhs)
            sel = np.kron(np.eye(design.K, dtype=np.int64),
                          np.ones((design.M, 1), dtype=np.int64))
            assert np.array_equal(
                x @ sel, np.ones((design.B, design.K), dtype=np.int64))
        _embedding_identities(design)
    _report(8, f"incidence and embedding identities on {len(fixtures)} "
               f"designs incl. type 8^16", time.perf_counter() - start, 120.0)


def test_criterion_9_naimark_suite():
    start = time.perf_counter()
    fixtures = [
        _get("etf_2_3", lambda: regular_simplex(3, fourier(3))),
        _get("etf_3_4", lambda: regular_simplex(4, sylvester(2))),
        _get("etf_6_16", build_6_16),
        _get("etf_12_45", lambda: steiner_etf(steiner_triple_system(9),
                                              fourier(5))),
        _get("etf_7_28", lambda: steiner_etf(steiner_triple_system(7),
                                             sylvester(2))),
        _get("etf_15_36", build_15_36),
        _get("etf_88_320", build_88_320),
        _get("etf_77_210", build_77_210),
        _get("mols_6_16", lambda: mols_tdtf(td(2, 4), sylvester(2),
                                            "centered")),
        _get("mols_10_16", lambda: mols_tdtf(td(3, 4), sylvester(2),
                                             "augmented")),
    ]
    for frame, cert in fixtures:
        assert cert.welch_equality
        res = naimark_gram(gram(frame), cert.a)
        assert res.denominator == 1
        assert res.input_tight and res.transfer_ok
        d, n = frame.d, frame.n
        if n > d > 1:
            assert n <= d * d                           # Gerzon guard
            if n - d > 1:                               # complement side
                assert n <= (n - d) ** 2
            scale = isqrt(cert.t)
            assert scale * scale == cert.t
            comp_diag = oracle.entries(res.complement.array[:1, :1])[0][0]
            for k, ell, s in classify_type(d, n):
                # the complement's squared norm at coherence 1
                assert comp_diag == oracle.const(
                    frame.order, scale * (s * (k - 1) + k * ell))
    _report(9, f"Naimark complement identities on {len(fixtures)} ETFs",
            time.perf_counter() - start, 10.0)


def test_etf_88_320_naimark_stays_int64_and_exact(kernel_paths):
    frame, cert = _get("etf_88_320", build_88_320)
    g = gram(frame)
    assert g.array.dtype == np.int64
    with kernel_paths() as seen:
        res = naimark_gram(g, cert.a)
    assert seen == [1]                  # G G, modulo one prime
    comp = res.complement
    assert comp.array.dtype == np.int64 and res.denominator == 1
    # A I - G on object-dtype operands, outside the kernel
    ref = -g.array.astype(object)
    ref[np.arange(g.rows), np.arange(g.rows), 0] += int(cert.a)
    assert np.array_equal(comp.array, ref)
    # the transfer identity G' G' = A G', which naimark_gram derives from
    # G G = A G instead of computing it
    assert res.input_tight and res.transfer_ok
    c = comp.array
    assert np.array_equal(oracle.matmul_array(comp.order, c, c),
                          int(cert.a) * c)


def test_criterion_10_hadamard_suite():
    start = time.perf_counter()
    count = 0
    for k in range(0, 6):
        assert verify_hadamard(sylvester(k)).ok
        count += 1
    for q in (3, 7, 11, 19, 23):
        assert verify_hadamard(paley_i(gf_build(q, 1))).ok
        count += 1
    for q in (5, 13):
        h = paley_ii(gf_build(q, 1))
        assert verify_hadamard(h).ok
        assert verify_hadamard(dephase(h)).ok
        count += 1
    for n in range(1, 13):
        assert verify_hadamard(fourier(n)).ok
        count += 1
    _report(10, f"{count} Hadamard matrices certified exactly",
            time.perf_counter() - start, 5.0)


def test_criterion_11_existence_predicates():
    start = time.perf_counter()
    known_4 = set()
    for s in range(2, 1001):
        if (s * (s + 1)) % 4 != 0:
            with pytest.raises(ConstructionError):
                existence_status(EtfType(4, -1, s))
            continue
        st = existence_status(EtfType(4, -1, s))
        if st.status == KNOWN:
            known_4.add(s)
    expected = {s for s in range(2, 1001) if s % 8 == 3 or s % 60 == 7}
    assert known_4 == expected
    assert {3, 7, 11, 19, 27, 35} <= known_4
    assert existence_status(EtfType(4, -1, 4)).status == UNKNOWN
    for s in range(2, 101):
        if (s * (s + 1)) % 14 == 0:
            assert existence_status(EtfType(14, -1, s)).status == UNKNOWN
    assert EtfType(4, -1, 3) in classify_type(*oracle.chen(2, 1))
    assert EtfType(3, -1, 5) in classify_type(*oracle.chen(3, 1))
    chen5 = classify_type(*oracle.chen(5, 1))
    assert not any(t.L == -1 and t.K >= 4 for t in chen5)
    _report(11, "existence statuses for K=4 up to S=1000, K=14, and the "
                "difference-set family checks", time.perf_counter() - start,
            1.0)
