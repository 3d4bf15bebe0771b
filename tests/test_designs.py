"""Design constructors and combinators, checked against brute-force oracles."""

import itertools
import random
import time
import tracemalloc
from collections import Counter
from math import isqrt

import numpy as np
import pytest

import oracle
from etfkit import cyclo, designs
from etfkit.designs import (
    DesignError,
    GddReport,
    GroupDivisibleDesign,
    LatinSquareSet,
    _gdd_report,
    affine_plane,
    embedding_operators,
    fill_holes,
    gf_build,
    is_prime,
    mols_from_field,
    prime_power_decomposition,
    projective_plane,
    steiner_triple_system,
    td_from_mols,
    verify_gdd,
    wilson_product,
)


def pair_coverage_oracle(d: GroupDivisibleDesign) -> None:
    """Cross-group pairs covered exactly once, in-group pairs never."""
    counts = Counter()
    for blk in d.blocks:
        for a, b in itertools.combinations(blk, 2):
            counts[(a, b)] += 1
    for v, w in itertools.combinations(range(d.M * d.U), 2):
        same_group = v // d.M == w // d.M
        expected = 0 if same_group else 1
        assert counts[(v, w)] == expected, (v, w)


# ---------------------------------------------------------------------------
# finite fields


def test_gf8_build():
    f = gf_build(2, 3)
    assert f.q == 8
    assert f.irreducible == (1, 1, 0, 1)          # x^3 + x + 1
    for v in range(1, 8):
        acc = 1
        for _ in range(7):
            acc = f._mul[acc, v]
        assert acc == 1


def test_gf5_prime_field():
    f = gf_build(5, 1)
    assert f.irreducible == (0, 1)                # the x - 0 convention
    assert f._add[3, 4] == 2 and f._mul[3, 4] == 2


def test_gf9_characteristic():
    f = gf_build(3, 2)
    assert f.q == 9
    one_plus_one = f._add[1, 1]
    assert f._add[one_plus_one, 1] == 0           # additive order of 1 is 3


@pytest.mark.parametrize("p, k", [(2, 1), (2, 3), (3, 1), (3, 2), (7, 1),
                                  (5, 3), (1021, 1)])
def test_gf_spot_check_refuses_a_corrupted_product(p, k):
    # x^(q-1) = 1 is checked by squaring through `_mul`: with 1 * 1 made
    # 0 after the build, the power of 1 is 0, so at least 1 fails
    field = gf_build(p, k)
    field._spot_check()
    bad = field._mul.copy()
    bad[1, 1] = 0
    field._mul = bad
    with pytest.raises(AssertionError,
                       match=rf"^element \d+ violates x\^\(q-1\) = 1 in "
                             rf"GF\({p**k}\)$"):
        field._spot_check()


def test_gf_rejects_composite_characteristic():
    with pytest.raises(DesignError):
        gf_build(6, 1)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None
    assert is_prime(23) and not is_prime(1)


def test_prime_power_decomposition_matches_brute_force():
    primes = [p for p in range(2, 3000) if all(p % f for f in range(2, p))]
    powers = {p**k: (p, k) for p in primes for k in range(1, 12)}
    for q in range(-2, 3000):
        assert prime_power_decomposition(q) == powers.get(q), q
        assert is_prime(q) == (q in primes), q


def trial_prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, from the factorisation of q by trial division."""
    factors = cyclo._prime_factors(q) if q > 1 else []
    if len(factors) != 1:
        return None
    p, k = factors[0], 0
    while q > 1:
        q, k = q // p, k + 1
    return p, k


def no_divisor(p: int, start: int, step: int) -> bool:
    """No start + i step up to sqrt(p) divides p: trial division in numpy
    blocks of int64 (p < 2^63)."""
    top = isqrt(p)
    for lo in range(start, top + 1, step * 2**20):
        block = np.arange(lo, min(lo + step * 2**20, top + 1), step)
        if (p % block == 0).any():
            return False
    return True


def test_prime_power_decomposition_matches_trial_division():
    # exact integer roots and Miller-Rabin against trial division: every
    # q < 10^5, then three large q whose p is divided up to sqrt(p)
    for q in range(10**5):
        assert prime_power_decomposition(q) == trial_prime_power(q), q
    p = 10**9 + 7
    assert prime_power_decomposition(p * p) == (p, 2)
    assert no_divisor(p, 2, 1)
    # a prime factor of 2^61 - 1 is 1 mod 2 * 61 (Fermat), so trial
    # division takes those candidates only
    m = 2**61 - 1
    assert prime_power_decomposition(m) == (m, 1)
    assert no_divisor(m, 2 * 61 + 1, 2 * 61)
    assert prime_power_decomposition(3**40) == (3, 40)
    assert trial_prime_power(3**40) == (3, 40)


def test_primality_past_the_exact_bound_raises():
    # the 13 bases prove no prime past 3.3 * 10^24 prime, but a witness
    # still proves a composite
    big = 2**89 - 1                       # a Mersenne prime, about 6 * 10^26
    assert big > designs._PRIME_EXACT
    with pytest.raises(DesignError, match="cannot decide"):
        is_prime(big)
    with pytest.raises(DesignError, match="cannot decide"):
        prime_power_decomposition(big)
    assert not is_prime(big * 3) and not is_prime((2**89 - 1) * (2**61 - 1))
    assert prime_power_decomposition(big + 1) == (2, 89)
    # the bound itself is composite, yet no base is its witness
    with pytest.raises(DesignError, match="cannot decide"):
        is_prime(designs._PRIME_EXACT)


def test_field_size_is_refused_before_primality():
    # is_prime(p) of a p near 2^61 used to trial-divide for longer than 5 s
    for p, k in ((2**61 - 1, 1), (2**61 - 1, 3), (2, 10**9)):
        start = time.perf_counter()
        with pytest.raises(DesignError, match="exceeds table limit"):
            gf_build(p, k)
        assert time.perf_counter() - start < 1
    with pytest.raises(DesignError, match="not prime"):
        gf_build(4, 1)
    with pytest.raises(DesignError, match="extension degree"):
        gf_build(2**61 - 1, 0)


def test_prime_power_decomposition_of_large_primes_is_fast():
    # a Miller-Rabin test, and an integer root for each exponent k
    start = time.perf_counter()
    p = 10**9 + 7
    assert prime_power_decomposition(p) == (p, 1) and is_prime(p)
    assert prime_power_decomposition(2 * p) is None
    assert prime_power_decomposition(3**19) == (3, 19)
    assert not is_prime(1_000_003 * 1_000_033)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# MOLS


def mols_oracle(ls) -> None:
    """Every square Latin and every pair orthogonal, by enumeration."""
    m = ls.size
    full = set(range(m))
    for s in ls.squares:
        for i in range(m):
            assert set(s[i, :].tolist()) == full
            assert set(s[:, i].tolist()) == full
    for a, b in itertools.combinations(ls.squares, 2):
        assert len({(int(x), int(y)) for x, y in zip(a.flat, b.flat)}) == m * m


def test_mols_gf3_orthogonal_by_enumeration():
    ls = mols_from_field(gf_build(3, 1))
    assert ls.count == 2 and ls.size == 3
    mols_oracle(ls)
    a, b = ls.squares
    pairs = {(int(x), int(y)) for x, y in zip(a.flat, b.flat)}
    assert len(pairs) == 9                        # all ordered symbol pairs


def test_mols_gf2_single_square():
    ls = mols_from_field(gf_build(2, 1))
    assert ls.count == 1
    mols_oracle(ls)


def test_mols_gf8_all_21_pairs():
    ls = mols_from_field(gf_build(2, 3))
    assert ls.count == 7
    mols_oracle(ls)
    # the squares a design reads are the first of the whole set
    assert np.array_equal(ls.first(3), ls.squares[:3])


def traced_peak(build):
    """What `build` returns, and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_td_forms_only_the_squares_it_reads():
    # TD(3, 256) reads one of the 255 squares of GF(256); forming all of
    # them took 255 MiB of tracemalloc for 1.5 MiB of blocks
    field = gf_build(2, 8)
    td, peak = traced_peak(lambda: td_from_mols(mols_from_field(field), 3))
    assert peak < 16 * 2**20
    assert td.B == 256 * 256 and verify_gdd(td).ok


# ---------------------------------------------------------------------------
# transversal designs


def test_td33():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    assert td.B == 9
    rep = verify_gdd(td)
    assert rep.ok and (rep.k, rep.m, rep.u, rep.r, rep.b) == (3, 3, 3, 3, 9)
    pair_coverage_oracle(td)


def test_td2m_complete_bipartite():
    td = td_from_mols(mols_from_field(gf_build(2, 2)), 2)
    assert td.B == 16
    assert verify_gdd(td).ok
    pair_coverage_oracle(td)


def test_latin_squares_refuse_a_size_below_1():
    # refused before the squares are shaped to (0, size, size)
    for size in (0, -3):
        with pytest.raises(DesignError, match="square size must be at least "
                                              f"1, got {size}"):
            LatinSquareSet(size, [])


def test_td48_parameters():
    td = td_from_mols(mols_from_field(gf_build(2, 3)), 4)
    rep = verify_gdd(td)
    assert rep.ok and (rep.k, rep.m, rep.u, rep.r, rep.b) == (4, 8, 4, 8, 64)


def test_td_too_few_squares():
    ls = mols_from_field(gf_build(3, 1))
    with pytest.raises(DesignError):
        td_from_mols(ls, 5)


@pytest.mark.parametrize("k", [1, 0, -2])
def test_td_block_size_below_two(k):
    for ls in (mols_from_field(gf_build(3, 1)), LatinSquareSet(3, [])):
        with pytest.raises(DesignError,
                           match=f"^block size must be at least 2, got {k}$"):
            td_from_mols(ls, k)


def test_td_identities():
    # X(I_K x 1_M) = 1 1* and (XX*)^2 = M XX* + K(K-1) J
    for q, k in ((3, 3), (2, 2), (4, 3)):
        f = gf_build(*prime_power_decomposition(q))
        td = td_from_mols(mols_from_field(f), k)
        x = oracle.incidence(td)
        m = td.M
        sel = np.kron(np.eye(k, dtype=np.int64),
                      np.ones((m, 1), dtype=np.int64))
        assert np.array_equal(x @ sel, np.ones((m * m, k), dtype=np.int64))
        xxt = x @ x.T
        lhs = xxt @ xxt
        rhs = m * xxt + k * (k - 1) * np.ones_like(xxt)
        assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Steiner triple systems and planes


def test_sts7():
    d = steiner_triple_system(7)
    assert d.B == 7
    rep = verify_gdd(d)
    assert rep.ok and rep.r == 3
    pair_coverage_oracle(d)


def test_sts9():
    d = steiner_triple_system(9)
    assert d.B == 12
    rep = verify_gdd(d)
    assert rep.ok and rep.r == 4
    pair_coverage_oracle(d)


@pytest.mark.parametrize("u", [13, 15, 19, 21, 25, 27])
def test_sts_structural(u):
    d = steiner_triple_system(u)
    assert verify_gdd(d).ok
    assert d.B == u * (u - 1) // 6


@pytest.mark.parametrize("u", [5, 6, 8, 11, 17])
def test_sts_infeasible(u):
    with pytest.raises(DesignError):
        steiner_triple_system(u)


def test_affine_gf3():
    d = affine_plane(gf_build(3, 1))
    assert d.B == 12 and d.U == 9 and d.K == 3
    assert verify_gdd(d).ok
    pair_coverage_oracle(d)


def test_projective_gf2():
    d = projective_plane(gf_build(2, 1))
    assert d.B == 7 and d.U == 7 and d.K == 3
    assert verify_gdd(d).ok
    pair_coverage_oracle(d)


def test_affine_gf2_all_pairs():
    d = affine_plane(gf_build(2, 1))
    assert d.B == 6 and d.K == 2
    assert set(map(tuple, d.blocks.tolist())) == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert verify_gdd(d).ok


def test_projective_gf3():
    d = projective_plane(gf_build(3, 1))
    assert d.B == 13 and d.K == 4
    assert verify_gdd(d).ok
    pair_coverage_oracle(d)


def test_projective_plane_forms_no_n_by_n_tables():
    # PG(2, 49) has n = 2451 points; its incidence from n x n tables took
    # 137.6 MiB of tracemalloc for 0.93 MiB of blocks
    field = gf_build(7, 2)
    d, peak = traced_peak(lambda: projective_plane(field))
    assert peak < 16 * 2**20
    assert (d.B, d.K) == (2451, 50) and verify_gdd(d).ok


# ---------------------------------------------------------------------------
# verify_gdd fault injection


def test_verify_gdd_detects_group_violation():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    bad = list(td.blocks)
    blk = list(bad[0])
    blk[1] = blk[0] + 1 if blk[0] + 1 != blk[1] else blk[0] + 2
    bad[0] = tuple(blk)
    rep = verify_gdd(GroupDivisibleDesign(3, 3, 3, bad))
    assert not rep.ok and rep.failure


def test_verify_gdd_detects_duplicate_block():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    bad = list(td.blocks)
    bad[3] = bad[0]
    rep = verify_gdd(GroupDivisibleDesign(3, 3, 3, bad))
    assert not rep.ok


def test_verify_gdd_detects_wrong_count():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    rep = verify_gdd(GroupDivisibleDesign(3, 3, 3, td.blocks[:-1]))
    assert not rep.ok and "count" in rep.failure


def test_verify_gdd_pins_the_incidence_witness():
    # the Fano plane with block (2, 4, 5) replaced by (2, 3, 5): every block
    # passes its own checks and none repeats, but pair (2, 3) is covered
    # twice (and pair (2, 4) never)
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
            (2, 3, 6), (2, 3, 5)]
    design = GroupDivisibleDesign(3, 1, 7, fano)
    rep = verify_gdd(design)
    assert not rep.ok
    assert rep.failure == ("incidence identity X*X = R I + (J_U - I_U) x "
                           "J_M fails at vertex pair (2, 3): got 2, "
                           "expected 1")


def test_design_is_immutable_and_keeps_its_report():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    with pytest.raises(AttributeError):
        td.blocks = td.blocks[:-1]
    assert verify_gdd(td) is verify_gdd(td)


# ---------------------------------------------------------------------------
# combinators


def triangle_bibd() -> GroupDivisibleDesign:
    # BIBD(3,2,1): all pairs on three points
    return GroupDivisibleDesign(2, 1, 3, [(0, 1), (0, 2), (1, 2)])


def test_wilson_td33_with_fano():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    fano = steiner_triple_system(7)
    prod = wilson_product(td, fano)
    rep = verify_gdd(prod)
    assert rep.ok and (rep.k, rep.m, rep.u, rep.r, rep.b) == (3, 3, 7, 9, 63)
    pair_coverage_oracle(prod)


def test_wilson_td22_with_triangle():
    td = td_from_mols(mols_from_field(gf_build(2, 1)), 2)
    prod = wilson_product(td, triangle_bibd())
    rep = verify_gdd(prod)
    assert rep.ok and (rep.k, rep.m, rep.u, rep.b) == (2, 2, 3, 12)


def test_wilson_degenerate_single_block():
    td = td_from_mols(mols_from_field(gf_build(2, 3)), 4)
    single = GroupDivisibleDesign(4, 1, 4, [(0, 1, 2, 3)])
    assert verify_gdd(single).ok
    prod = wilson_product(td, single)
    assert np.array_equal(prod.blocks, td.blocks)


def test_wilson_parameter_mismatch():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    with pytest.raises(DesignError):
        wilson_product(td, triangle_bibd())   # inner block size 2 != U 3


def test_fill_holes_td33_td39():
    inner = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    outer = td_from_mols(mols_from_field(gf_build(3, 2)), 3)
    filled = fill_holes(inner, outer)
    rep = verify_gdd(filled)
    assert rep.ok and (rep.k, rep.m, rep.u) == (3, 3, 9)
    pair_coverage_oracle(filled)


def test_fill_holes_parameter_mismatch():
    inner = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    with pytest.raises(DesignError):
        fill_holes(inner, inner)


def test_fill_holes_rejects_small_outer():
    inner = td_from_mols(mols_from_field(gf_build(2, 1)), 2)
    hole = GroupDivisibleDesign(2, 4, 1, [])
    with pytest.raises(DesignError):
        fill_holes(inner, hole)


def test_combinators_randomized_admissible_inputs():
    # structural postcondition: any admissible pairing passes verify_gdd
    rng = random.Random(20260810)
    pool = [
        td_from_mols(mols_from_field(gf_build(2, 1)), 2),
        td_from_mols(mols_from_field(gf_build(3, 1)), 2),
        td_from_mols(mols_from_field(gf_build(3, 1)), 3),
        td_from_mols(mols_from_field(gf_build(2, 2)), 3),
        td_from_mols(mols_from_field(gf_build(2, 2)), 4),
        td_from_mols(mols_from_field(gf_build(3, 2)), 3),
        steiner_triple_system(7),
        steiner_triple_system(9),
        steiner_triple_system(13),
        triangle_bibd(),
        affine_plane(gf_build(2, 1)),
        affine_plane(gf_build(3, 1)),
        projective_plane(gf_build(2, 1)),
    ]
    wilson_pairs = [(o, i) for o in pool for i in pool if i.K == o.U]
    fill_pairs = [(i, o) for i in pool for o in pool
                  if i.K == o.K and i.M * i.U == o.M and o.U >= i.K]
    assert wilson_pairs, "pool admits no product pairings"
    for outer, inner in rng.sample(wilson_pairs, min(8, len(wilson_pairs))):
        assert verify_gdd(wilson_product(outer, inner)).ok
    for inner, outer in fill_pairs:
        assert verify_gdd(fill_holes(inner, outer)).ok


def test_combinator_outputs_satisfy_necessary_conditions():
    td33 = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    fixtures = [
        td33,
        wilson_product(td33, steiner_triple_system(7)),
        fill_holes(td33, td_from_mols(mols_from_field(gf_build(3, 2)), 3)),
        steiner_triple_system(9),
        affine_plane(gf_build(3, 1)),
    ]
    for d in fixtures:
        assert d.U >= d.K
        assert (d.M * (d.U - 1)) % (d.K - 1) == 0
        assert (d.M * d.M * d.U * (d.U - 1)) % (d.K * (d.K - 1)) == 0
        assert verify_gdd(d).ok


# ---------------------------------------------------------------------------
# embedding operators


def selection_matrix(d: GroupDivisibleDesign, support) -> np.ndarray:
    """The B x R embedding operator whose r-th column is the standard basis
    vector at support[r]."""
    e = np.zeros((d.B, d.R), dtype=np.int64)
    e[list(support), np.arange(d.R)] = 1
    return e


def embedding_identities_oracle(d: GroupDivisibleDesign) -> None:
    """Exhaustive E*_{u,m} E_{u',m'} case analysis via the explicit matrices."""
    ops = embedding_operators(d)
    r = d.R
    eye = np.eye(r, dtype=np.int64)
    mats = [[selection_matrix(d, ops[u, m]) for m in range(d.M)]
            for u in range(d.U)]
    for u in range(d.U):
        for m in range(d.M):
            for u2 in range(d.U):
                for m2 in range(d.M):
                    prod = mats[u][m].T @ mats[u2][m2]
                    if u == u2 and m == m2:
                        assert np.array_equal(prod, eye)
                    elif u == u2:
                        assert not prod.any()
                    else:
                        nz = np.nonzero(prod)
                        assert len(nz[0]) == 1 and prod[nz][0] == 1


def test_embedding_td33_vertex0():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    ops = embedding_operators(td)
    # blocks are ordered lex by (x, y); vertex 0 is x = 0 in group 0
    assert ops[0, 0].tolist() == [0, 1, 2]
    assert ops.shape == (td.U, td.M, td.R) and not ops.flags.writeable
    x = oracle.incidence(td)
    for u in range(td.U):
        for m in range(td.M):
            col = selection_matrix(td, ops[u, m]).sum(axis=1)
            assert np.array_equal(col, x[:, u * td.M + m])


def test_embedding_counts_fano():
    ops = embedding_operators(steiner_triple_system(7))
    for u in range(7):
        assert len(ops[u, 0]) == 3


def test_embedding_identities_small_designs():
    embedding_identities_oracle(td_from_mols(
        mols_from_field(gf_build(3, 1)), 3))
    embedding_identities_oracle(steiner_triple_system(7))
    embedding_identities_oracle(affine_plane(gf_build(2, 1)))


def test_embedding_rejects_invalid_design():
    bad = GroupDivisibleDesign(3, 3, 3, [(0, 3, 6)] * 9)
    with pytest.raises(DesignError):
        embedding_operators(bad)


# ---------------------------------------------------------------------------
# differential oracles: the element-by-element and block-by-block code that
# the array code replaced


def gf_oracle(p: int, k: int):
    """The irreducible and the add, mul and neg tables of GF(p^k), one
    element pair at a time."""
    q = p**k

    def coeffs(v):
        return tuple(v // p**i % p for i in range(k))

    def index(cs):
        return sum(c * p**i for i, c in enumerate(cs))

    def poly_mod(num, den):
        rem = [c % p for c in num]
        dd = len(den) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                for j in range(dd + 1):
                    rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
        return rem[:dd]

    def irreducible(poly):
        for x in range(p):                        # no root
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
        for deg in range(2, k // 2 + 1):          # no factor of degree >= 2
            for low in range(p**deg):
                div = [low // p**i % p for i in range(deg)] + [1]
                if not any(poly_mod(poly, div)):
                    return False
        return True

    irr = (0, 1) if k == 1 else next(
        coeffs(low) + (1,) for low in range(q)
        if irreducible(coeffs(low) + (1,)))
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = index([(x + y) % p
                               for x, y in zip(coeffs(a), coeffs(b))])
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(coeffs(a)):
                for j, y in enumerate(coeffs(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            mul[a, b] = index(poly_mod(prod, irr))
    neg = [index([(-c) % p for c in coeffs(a)]) for a in range(q)]
    return irr, add, mul, neg


@pytest.mark.parametrize(
    "q", [q for q in range(2, 65) if prime_power_decomposition(q)])
def test_gf_tables_match_the_element_oracle(q):
    p, k = prime_power_decomposition(q)
    f = gf_build(p, k)
    irr, add, mul, neg = gf_oracle(p, k)
    assert f.irreducible == irr
    assert np.array_equal(f._add, add)
    assert np.array_equal(f._mul, mul)
    assert f._neg.tolist() == neg
    assert all(f._sub[a, b] == add[a, neg[b]]
               for a in range(q) for b in range(q))


def gdd_report_oracle(design: GroupDivisibleDesign) -> GddReport:
    """verify_gdd block by block, then X*X formed whole."""
    k, m, u = design.K, design.M, design.U
    blocks = [tuple(b) for b in design.blocks.tolist()]

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
    if len(blocks) != b:
        return fail(f"block count is {len(blocks)}, expected {b}")
    seen = set()
    for i, blk in enumerate(blocks):
        if len(blk) != k or len(set(blk)) != k:
            return fail(f"block {i} does not have {k} distinct vertices")
        if blk[0] < 0 or blk[-1] >= m * u:
            return fail(f"block {i} has a vertex outside 0..{m * u - 1}")
        if len({v // m for v in blk}) != k:
            return fail(f"block {i} meets a group more than once")
        if blk in seen:
            return fail(f"block {i} duplicates an earlier block; pair "
                        f"({blk[0]}, {blk[1]}) is covered more than once")
        seen.add(blk)
    x = np.zeros((b, m * u), dtype=np.int64)
    for i, blk in enumerate(blocks):
        x[i, list(blk)] = 1
    gram = x.T @ x
    expected = r * np.eye(u * m, dtype=np.int64) + np.kron(
        np.ones((u, u), dtype=np.int64) - np.eye(u, dtype=np.int64),
        np.ones((m, m), dtype=np.int64))
    if not np.array_equal(gram, expected):
        dv, dw = np.argwhere(gram != expected)[0]
        return fail(f"incidence identity X*X = R I + (J_U - I_U) x J_M "
                    f"fails at vertex pair ({dv}, {dw}): got "
                    f"{gram[dv, dw]}, expected {expected[dv, dw]}")
    return GddReport(True, k, m, u, r, b)


def _td(q, k):
    return td_from_mols(mols_from_field(
        gf_build(*prime_power_decomposition(q))), k)


FAULT_BASES = {
    "td33": lambda: _td(3, 3),
    "td48": lambda: _td(8, 4),
    "sts15": lambda: steiner_triple_system(15),
    "ag3": lambda: affine_plane(gf_build(3, 1)),
    "fill": lambda: fill_holes(_td(3, 3), _td(9, 3)),
}


def _edited(design, i, edit):
    """The design with block i rewritten by edit(block, design)."""
    rows = design.blocks.tolist()
    rows[i] = edit(list(rows[i]), design, rows)
    return GroupDivisibleDesign(design.K, design.M, design.U, rows)


def _doubled_pair(v):
    """An edit of a block through v: one other vertex x moves to a vertex
    outside the block, in a group that no other vertex of the block meets,
    so the block checks pass and the pair of v with it is covered twice."""
    def edit(blk, d, rows):
        x = next(w for w in blk if w != v)
        rest = [w for w in blk if w != x]
        groups = {w // d.M for w in rest}
        y = next(w for w in range(d.M * d.U)
                 if w not in blk and w // d.M not in groups)
        return rest + [y]
    return edit


FAULTS = {
    "repeat": lambda blk, d, rows: [blk[0]] + blk[:-1],
    "above": lambda blk, d, rows: blk[:-1] + [d.M * d.U],
    "below": lambda blk, d, rows: [-1] + blk[1:],
    # another vertex of the first vertex's group (M > 1)
    "group": lambda blk, d, rows: (
        [blk[0], blk[0] - blk[0] % d.M + (blk[0] + 1) % d.M] + blk[2:]),
    "duplicate": lambda blk, d, rows: rows[0],
}


def _fault_cases():
    for name, make in FAULT_BASES.items():
        d = make()
        for fault, edit in FAULTS.items():
            if fault == "group" and d.M == 1:
                continue
            for i in sorted({1, d.B // 2, d.B - 1}):   # block 0 for the rest
                yield f"{name}-{fault}-{i}", d, i, edit
                if fault != "duplicate" and i == 1:
                    yield f"{name}-{fault}-0", d, 0, edit
        # a doubled pair in the first and in the last vertex row
        for v in (0, d.M * d.U - 1):
            i = next(i for i, blk in enumerate(d.blocks.tolist()) if v in blk)
            yield f"{name}-pair-{v}", d, i, _doubled_pair(v)


@pytest.mark.parametrize("name, design, i, edit", [
    pytest.param(*case, id=case[0]) for case in _fault_cases()])
def test_gdd_report_matches_the_dense_oracle_on_faults(name, design, i,
                                                       edit):
    bad = _edited(design, i, edit)
    rep = verify_gdd(bad)
    assert not rep.ok
    assert rep == gdd_report_oracle(bad)
    kind = name.split("-")[1]
    prefix = {"repeat": "does not have", "above": "has a vertex outside",
              "below": "has a vertex outside", "group": "meets a group",
              "duplicate": "duplicates"}.get(kind, "incidence identity")
    assert prefix in rep.failure
    if name.endswith("-pair-0"):      # vertex 0's row holds the witness
        assert "vertex pair (0, " in rep.failure


def test_valid_designs_are_certified_without_a_block_sort(monkeypatch):
    # a repeated block repeats its pairs, so a design whose pair keys are
    # all distinct is never searched for a duplicate block
    built = [make() for make in FAULT_BASES.values()]

    def refuse(*args, **kwargs):
        raise AssertionError("np.lexsort called on a valid design")

    monkeypatch.setattr(np, "lexsort", refuse)
    for d in built:
        assert _gdd_report(d).ok
    with pytest.raises(AssertionError, match="np.lexsort"):
        _gdd_report(_edited(built[0], 1, FAULTS["duplicate"]))


def test_gdd_report_matches_the_dense_oracle_on_counts_and_shapes():
    td = _td(3, 3)
    rows = td.blocks.tolist()
    cases = [
        GroupDivisibleDesign(1, 3, 3, rows),               # K < 2
        GroupDivisibleDesign(3, 3, 1, rows),               # U < 2
        GroupDivisibleDesign(3, 1, 4, rows),               # R not integral
        GroupDivisibleDesign(3, 2, 4, rows),               # B not integral
        GroupDivisibleDesign(3, 3, 3, rows[:-1]),          # a block short
        GroupDivisibleDesign(3, 3, 3, [r[:2] for r in rows]),   # K - 1 wide
        GroupDivisibleDesign(2, 1, 3, [(0, 1), (0, 2), (1, 2)]),
        td,
    ]
    for d in cases:
        assert _gdd_report(d) == gdd_report_oracle(d)


def test_gdd_report_matches_the_dense_oracle_on_random_faults():
    rng = random.Random(20261018)
    for make in FAULT_BASES.values():
        d = make()
        for _ in range(40):
            rows = d.blocks.tolist()
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(d.B), rng.randrange(d.K)
                rows[i][j] = rng.randrange(-1, d.M * d.U + 1)
            bad = GroupDivisibleDesign(d.K, d.M, d.U, rows)
            assert _gdd_report(bad) == gdd_report_oracle(bad)


def test_verify_gdd_certifies_up_to_the_pair_limit(monkeypatch):
    td = _td(8, 4)                  # 64 blocks of 6 pairs
    monkeypatch.setattr(designs, "_PAIR_LIMIT", 384)
    assert _gdd_report(td).ok
    monkeypatch.setattr(designs, "_PAIR_LIMIT", 383)
    with pytest.raises(DesignError) as info:
        _gdd_report(td)
    assert str(info.value) == \
        "design has 384 vertex pairs to certify, more than 383"


def test_design_rows_must_share_one_size():
    with pytest.raises(DesignError):
        GroupDivisibleDesign(3, 1, 7, [(0, 1, 2), (0, 3)])
    with pytest.raises(DesignError):
        GroupDivisibleDesign(3, 1, 7, [(0, 1, 2**63)])
