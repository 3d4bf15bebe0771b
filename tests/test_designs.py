"""Design constructors and combinators, checked against brute-force oracles."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from etfkit.designs import (
    DesignError,
    GroupDivisibleDesign,
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
    for v, w in itertools.combinations(range(d.vertices), 2):
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
        assert f.pow(v, 7) == 1


def test_gf5_prime_field():
    f = gf_build(5, 1)
    assert f.irreducible == (0, 1)                # the x - 0 convention
    assert f.add(3, 4) == 2 and f.mul(3, 4) == 2


def test_gf9_characteristic():
    f = gf_build(3, 2)
    assert f.q == 9
    one_plus_one = f.add(1, 1)
    assert f.add(one_plus_one, 1) == 0            # additive order of 1 is 3


def test_gf_rejects_composite_characteristic():
    with pytest.raises(DesignError):
        gf_build(6, 1)


def test_prime_power_decomposition():
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(12) is None
    assert prime_power_decomposition(1) is None
    assert is_prime(23) and not is_prime(1)


# ---------------------------------------------------------------------------
# MOLS


def test_mols_gf3_orthogonal_by_enumeration():
    ls = mols_from_field(gf_build(3, 1))
    assert ls.count == 2 and ls.size == 3
    ls.validate()
    a, b = ls.squares
    pairs = {(int(x), int(y)) for x, y in zip(a.flat, b.flat)}
    assert len(pairs) == 9                        # all ordered symbol pairs


def test_mols_gf2_single_square():
    ls = mols_from_field(gf_build(2, 1))
    assert ls.count == 1
    ls.validate()


def test_mols_gf8_all_21_pairs():
    ls = mols_from_field(gf_build(2, 3))
    assert ls.count == 7
    ls.validate()


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


def test_td48_parameters():
    td = td_from_mols(mols_from_field(gf_build(2, 3)), 4)
    rep = verify_gdd(td)
    assert rep.ok and (rep.k, rep.m, rep.u, rep.r, rep.b) == (4, 8, 4, 8, 64)


def test_td_too_few_squares():
    ls = mols_from_field(gf_build(3, 1))
    with pytest.raises(DesignError):
        td_from_mols(ls, 5)


def test_td_identities():
    # X(I_K x 1_M) = 1 1* and (XX*)^2 = M XX* + K(K-1) J
    for q, k in ((3, 3), (2, 2), (4, 3)):
        f = gf_build(*prime_power_decomposition(q))
        td = td_from_mols(mols_from_field(f), k)
        x = td.incidence()
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
    assert set(d.blocks) == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    assert verify_gdd(d).ok


def test_projective_gf3():
    d = projective_plane(gf_build(3, 1))
    assert d.B == 13 and d.K == 4
    assert verify_gdd(d).ok
    pair_coverage_oracle(d)


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
    expected = np.zeros((7, 7), dtype=np.int64)
    for i, blk in enumerate(fano):
        expected[i, list(blk)] = 1
    assert np.array_equal(design.incidence(), expected)
    rep = verify_gdd(design)
    assert not rep.ok
    assert rep.failure == ("incidence identity X*X = R I + (J_U - I_U) x "
                           "J_M fails at vertex pair (2, 3): got 2, "
                           "expected 1")


def test_design_is_immutable_and_keeps_its_report():
    td = td_from_mols(mols_from_field(gf_build(3, 1)), 3)
    with pytest.raises(AttributeError):
        td.blocks = td.blocks[:-1]
    with pytest.raises(ValueError):
        td.incidence()[0, 0] = 0
    assert verify_gdd(td) is verify_gdd(td)
    assert td.incidence() is td.incidence()


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
    assert prod.blocks == td.blocks


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
    mats = [[selection_matrix(d, ops.support(u, m)) for m in range(d.M)]
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
    assert ops.support(0, 0) == (0, 1, 2)
    x = td.incidence()
    for u in range(td.U):
        for m in range(td.M):
            col = selection_matrix(td, ops.support(u, m)).sum(axis=1)
            assert np.array_equal(col, x[:, u * td.M + m])


def test_embedding_counts_fano():
    ops = embedding_operators(steiner_triple_system(7))
    for u in range(7):
        assert len(ops.support(u, 0)) == 3


def test_embedding_identities_small_designs():
    embedding_identities_oracle(td_from_mols(
        mols_from_field(gf_build(3, 1)), 3))
    embedding_identities_oracle(steiner_triple_system(7))
    embedding_identities_oracle(affine_plane(gf_build(2, 1)))


def test_embedding_rejects_invalid_design():
    bad = GroupDivisibleDesign(3, 3, 3, [(0, 3, 6)] * 9)
    with pytest.raises(DesignError):
        embedding_operators(bad)
