"""Frame factories and existence predicates at desk scale."""

import random

import numpy as np
import pytest

import oracle
from etfkit import constructions as construction_module
from etfkit import designs as design_module
from etfkit.cli import CliError, hadamard_from_spec
from etfkit.constructions import (
    ASYMPTOTIC,
    CONSTRUCTIBLE,
    KNOWN,
    UNKNOWN,
    AdmissibilityError,
    ConstructionError,
    existence_status,
    gdd_etf,
    mols_tdtf,
    plan_gdd_etf,
    regular_simplex,
    steiner_etf,
)
from etfkit.cyclo import CycMatrix
from etfkit.designs import (
    DesignError,
    _field_for,
    affine_plane,
    embedding_operators,
    gf_build,
    mols_from_field,
    projective_plane,
    steiner_triple_system,
    td_from_mols,
)
from etfkit.frames import EtfType, Frame, classify_type, gram, verify_etf
from etfkit.hadamard import fourier, simplex_from_hadamard, sylvester


def td(k, m):
    p_k = {3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}[m]
    return td_from_mols(mols_from_field(gf_build(*p_k)), k)


# ---------------------------------------------------------------------------
# regular simplices


def test_simplex_mercedes_benz():
    frame, cert = regular_simplex(3, fourier(3))
    assert (frame.d, frame.n) == (2, 3)
    assert cert.welch_equality and (cert.s, cert.t) == (2, 1)
    assert EtfType(3, -1, 2) in classify_type(2, 3)


def test_simplex_trivial_pair():
    frame, cert = regular_simplex(2, sylvester(1))
    assert (frame.d, frame.n) == (1, 2)
    assert cert.welch_equality and (cert.s, cert.t) == (1, 1)


def test_simplex_sylvester4():
    frame, _ = regular_simplex(4, sylvester(2))
    assert EtfType(2, -1, 3) in classify_type(frame.d, frame.n)


def test_simplex_size_mismatch():
    with pytest.raises(ConstructionError):
        regular_simplex(3, sylvester(2))


# ---------------------------------------------------------------------------
# Steiner ETFs


def test_steiner_6_16():
    frame, cert = steiner_etf(affine_plane(gf_build(2, 1)), sylvester(2))
    assert (frame.d, frame.n) == (6, 16)
    assert (cert.s, cert.t) == (3, 1) and cert.a == 8
    assert classify_type(6, 16) == [EtfType(2, 1, 3), EtfType(4, -1, 3)]


def test_steiner_12_45():
    frame, cert = steiner_etf(steiner_triple_system(9), fourier(5))
    assert (frame.d, frame.n) == (12, 45)
    assert (cert.s, cert.t) == (4, 1) and cert.a == 15
    types = classify_type(12, 45)
    assert EtfType(3, 1, 4) in types and EtfType(5, -1, 4) in types


def test_steiner_7_28():
    frame, cert = steiner_etf(steiner_triple_system(7), sylvester(2))
    assert (frame.d, frame.n) == (7, 28)
    assert (cert.s, cert.t) == (3, 1)
    types = classify_type(7, 28)
    assert EtfType(3, 1, 3) in types and EtfType(6, -1, 3) in types


def test_steiner_rejects_bad_inputs():
    with pytest.raises(ConstructionError):
        steiner_etf(td(3, 3), sylvester(2))            # group size 3, not 1
    with pytest.raises(ConstructionError):
        steiner_etf(steiner_triple_system(7), sylvester(3))   # needs size 4


# ---------------------------------------------------------------------------
# MOLS flat frames


def test_mols_centered_etf_6_16():
    frame, cert = mols_tdtf(td(2, 4), sylvester(2), "centered")
    assert (frame.d, frame.n) == (6, 16)
    assert cert.welch_equality and cert.flat and cert.centered


def test_mols_augmented_etf_10_16():
    frame, cert = mols_tdtf(td(3, 4), sylvester(2), "augmented")
    assert (frame.d, frame.n) == (10, 16)
    assert cert.welch_equality and cert.flat and not cert.centered
    assert classify_type(10, 16) == [EtfType(2, -1, 5)]


def test_mols_centered_tdtf_not_etf():
    frame, cert = mols_tdtf(td(3, 4), sylvester(2), "centered")
    assert not cert.welch_equality
    rep = cert.tdtf
    assert rep.ok
    vals = {v.as_integer() for v in rep.values}
    assert vals == {1, -3}          # M XX* - K J with M=4, K=3


def test_mols_rejects_non_td():
    with pytest.raises(ConstructionError):
        mols_tdtf(steiner_triple_system(7), sylvester(2), "centered")
    with pytest.raises(ConstructionError):
        mols_tdtf(td(2, 4), sylvester(2), "sideways")


# ---------------------------------------------------------------------------
# differential: the factories against the assemblies they replaced


def _specs_of_size(n):
    """Every Hadamard spec of size n that `hadamard_from_spec` builds."""
    specs = []
    for spec in (f"fourier:{n}", f"paley1:{n - 1}", f"paley2:{n // 2 - 1}",
                 f"sylvester:{n.bit_length() - 1}"):
        try:
            if hadamard_from_spec(spec).size == n:
                specs.append(spec)
        except CliError:
            pass
    return specs


def _steiner_scatter(bibd, h):
    """The Steiner synthesis as a per-vertex scatter of Hadamard tails."""
    sup = embedding_operators(bibd)[:, 0, :]    # (V, R)
    tails = simplex_from_hadamard(h).array
    cols = bibd.U * (bibd.R + 1)
    arr = np.zeros((bibd.B, cols, tails.shape[2]), dtype=tails.dtype)
    arr[sup[:, :, None], np.arange(cols).reshape(bibd.U, 1, -1)] = tails
    return CycMatrix(h.mat.order, arr, _copy=False)


def _mols_product(tdes, h, variant):
    """The MOLS synthesis as the product (I_K x F) X*, after a row of ones
    when augmented.  X is a {0,1} matrix, so the product is one integer
    matrix product per coefficient slot."""
    tails = simplex_from_hadamard(h)
    blocks = np.einsum("kl,rcs->krlcs", np.eye(tdes.K, dtype=np.int64),
                       tails.array)
    r, c, d = tails.array.shape
    phi = np.einsum("rvs,bv->rbs", blocks.reshape(tdes.K * r, tdes.K * c, d),
                    oracle.incidence(tdes))
    if variant == "augmented":
        phi = np.concatenate([oracle.full(tails.order, (1, tdes.B)), phi])
    return CycMatrix(tails.order, phi)


def _assert_same_synthesis(got, want):
    assert got.order == want.order
    assert got.array.dtype == want.array.dtype
    assert got.array.shape == want.array.shape
    assert np.array_equal(got.array, want.array)


@pytest.mark.parametrize("build, arg", [
    *(("sts", v) for v in (7, 9, 13, 15)),
    *(("affine", q) for q in (2, 3, 4, 5)),
    *(("projective", q) for q in (2, 3, 4)),
])
def test_steiner_matches_the_per_vertex_scatter(build, arg):
    bibd = (steiner_triple_system(arg) if build == "sts" else
            {"affine": affine_plane,
             "projective": projective_plane}[build](_field_for(arg)))
    specs = _specs_of_size(bibd.R + 1)
    assert specs
    for spec in specs:
        h = hadamard_from_spec(spec)
        frame, cert = steiner_etf(bibd, h)
        want = _steiner_scatter(bibd, h)
        _assert_same_synthesis(frame.synthesis, want)
        assert cert == verify_etf(Frame(want))


@pytest.mark.parametrize("m, k", [(m, k) for m in (3, 4, 5, 7, 8, 9)
                                  for k in range(2, min(5, m + 1) + 1)])
def test_mols_matches_the_kronecker_product(monkeypatch, m, k):
    tdes = td_from_mols(mols_from_field(_field_for(m)), k)
    seen = []                   # each frame the factory certifies
    monkeypatch.setattr(construction_module, "verify_etf",
                        lambda f: seen.append(f) or verify_etf(f))
    specs = [f"fourier:{m}"] + ([f"sylvester:{m.bit_length() - 1}"]
                                if m & (m - 1) == 0 else [])
    for spec in specs:
        h = hadamard_from_spec(spec)
        for variant in ("centered", "augmented"):
            want = _mols_product(tdes, h, variant)
            want_cert = verify_etf(Frame(want))
            try:
                cert = mols_tdtf(tdes, h, variant)[1]
            except ConstructionError as exc:
                # K = M + 1: the frame is a basis, an ETF outside the regime
                assert k == m + 1 and str(want_cert) in str(exc)
            else:
                assert cert == want_cert
            _assert_same_synthesis(seen.pop().synthesis, want)


# ---------------------------------------------------------------------------
# GDD extension planning


def test_plan_small_seed():
    plan = plan_gdd_etf(EtfType(3, -1, 2), 3)
    assert (plan.m, plan.r, plan.w, plan.s_out) == (3, 3, 3, 5)
    assert (plan.d_out, plan.n_out) == (15, 36)
    assert plan.hadamard_e_size == 1 and plan.hadamard_f_size == 4


def test_plan_medium_seed():
    plan = plan_gdd_etf(EtfType(4, -1, 3), 4)
    assert (plan.m, plan.r, plan.w, plan.s_out) == (8, 8, 4, 11)
    assert (plan.d_out, plan.n_out) == (88, 320)
    assert plan.s_out % 8 == 3


def test_plan_rejects_bad_u():
    with pytest.raises(AdmissibilityError) as exc:
        plan_gdd_etf(EtfType(4, -1, 3), 5)
    assert exc.value.condition == "(K-1) divides (U-1)"
    with pytest.raises(AdmissibilityError):
        plan_gdd_etf(EtfType(4, -1, 3), 2)     # U < K
    with pytest.raises(AdmissibilityError):
        plan_gdd_etf(EtfType(1, 1, 4), 5)      # K < 2


def test_plan_accepts_canonical_residue_class():
    # U = 1 (mod (S+L)K(K-1)) always satisfies every divisibility condition
    for seed in (EtfType(3, -1, 2), EtfType(4, -1, 3), EtfType(5, -1, 4),
                 EtfType(3, -1, 3), EtfType(2, 1, 3)):
        step = (seed.S + seed.L) * seed.K * (seed.K - 1)
        for j in (1, 2, 3):
            u = 1 + j * step
            if u < seed.K:
                continue
            plan = plan_gdd_etf(seed, u)
            assert plan.s_out == seed.S + plan.r


def test_every_admissible_plan_classifies_as_its_output_type():
    # gdd_etf does not re-classify its output of type (K, L, S'):
    # plan_gdd_etf refuses a plan whose D' is not that type's dimension,
    # and N' is its count, so D'(N' - 1)/(N' - D') = S'^2 makes it one of
    # the types of (D', N')
    plans = []
    for k in range(1, 9):
        for ell in (1, -1):
            for s in range(1, 60):
                for u in range(1, 80):
                    try:
                        plans.append(plan_gdd_etf(EtfType(k, ell, s), u))
                    except AdmissibilityError:
                        pass
    assert len(plans) == 9473
    for plan in plans:
        out = EtfType(plan.seed.K, plan.seed.L, plan.s_out)
        assert out in classify_type(plan.d_out, plan.n_out), plan


# ---------------------------------------------------------------------------
# the GDD extension, small instance


def build_etf_15_36():
    seed, _ = regular_simplex(3, fourier(3))
    return gdd_etf(seed, EtfType(3, -1, 2), td(3, 3), fourier(1), sylvester(2))


def test_gdd_etf_15_36():
    frame, cert = build_etf_15_36()
    assert (frame.d, frame.n) == (15, 36)
    assert cert.welch_equality and (cert.s, cert.t) == (5, 1)
    assert cert.a == 12
    assert classify_type(15, 36) == [EtfType(2, 1, 5), EtfType(3, -1, 5)]


def test_gdd_etf_15_36_same_block_offdiagonals():
    # columns sharing (u, m, i) but differing in j have inner product -L = 1
    frame, _ = build_etf_15_36()
    g = oracle.entries(gram(frame).array)
    w1 = 4                     # W + 1 columns per (u, m, i) cluster
    for base in range(0, 36, w1):
        for j1 in range(w1):
            for j2 in range(j1 + 1, w1):
                assert g[base + j1][base + j2] == oracle.const(frame.order, 1)


def test_gdd_etf_random_regrouping_certifies():
    rng = random.Random(97)
    seed, _ = regular_simplex(3, fourier(3))
    perm = list(range(3))
    rng.shuffle(perm)
    arr = seed.synthesis.array[:, perm, :]
    shuffled = Frame(CycMatrix(seed.synthesis.order, arr))
    frame, cert = gdd_etf(shuffled, EtfType(3, -1, 2), td(3, 3),
                          fourier(1), sylvester(2))
    assert cert.welch_equality and cert.s == 5


def test_gdd_etf_rejects_wrong_hadamard_sizes():
    seed, _ = regular_simplex(3, fourier(3))
    with pytest.raises(ConstructionError):
        gdd_etf(seed, EtfType(3, -1, 2), td(3, 3), fourier(2), sylvester(2))
    with pytest.raises(ConstructionError):
        gdd_etf(seed, EtfType(3, -1, 2), td(3, 3), fourier(1), sylvester(3))


def test_gdd_etf_rejects_wrong_seed():
    seed, _ = regular_simplex(4, sylvester(2))
    with pytest.raises(ConstructionError):
        gdd_etf(seed, EtfType(3, -1, 2), td(3, 3), fourier(1), sylvester(2))


def test_gdd_etf_rejects_mismatched_gdd():
    seed, _ = regular_simplex(3, fourier(3))
    with pytest.raises(ConstructionError):
        gdd_etf(seed, EtfType(3, -1, 2), td(3, 9), fourier(1), sylvester(2))


# ---------------------------------------------------------------------------
# existence predicates


def test_existence_pinned_negative_cases():
    st = existence_status(EtfType(4, -1, 19))
    assert st.status == KNOWN and "3 (mod 8)" in st.witness
    assert existence_status(EtfType(4, -1, 4)).status == UNKNOWN
    assert existence_status(EtfType(3, -1, 5)).status == KNOWN
    for s in (6, 7, 13, 14):
        assert existence_status(EtfType(14, -1, s)).status == UNKNOWN


def test_existence_negative_families():
    assert existence_status(EtfType(2, -1, 9)).status == KNOWN
    st = existence_status(EtfType(5, -1, 9))
    assert st.status == KNOWN and "280" in st.witness
    assert existence_status(EtfType(7, -1, 6)).status == KNOWN
    assert existence_status(EtfType(10, -1, 5)).status == KNOWN   # sporadic
    assert existence_status(EtfType(6, -1, 11)).status == KNOWN   # sporadic
    assert existence_status(EtfType(6, -1, 2)).status == KNOWN    # SIC
    st = existence_status(EtfType(12, -1, 35))
    assert st.status == KNOWN and "TD-extension" in st.witness
    assert existence_status(EtfType(9, -1, 9)).status == KNOWN    # hyperoval
    assert existence_status(EtfType(11, -1, 21)).status == UNKNOWN


def test_existence_positive_families():
    assert existence_status(EtfType(1, 1, 7)).status == CONSTRUCTIBLE
    assert existence_status(EtfType(3, 1, 4)).status == CONSTRUCTIBLE
    assert existence_status(EtfType(4, 1, 5)).status == CONSTRUCTIBLE
    assert existence_status(EtfType(5, 1, 5)).status == CONSTRUCTIBLE
    assert existence_status(EtfType(2, 1, 7)).status == KNOWN
    assert existence_status(EtfType(7, 1, 7)).status == KNOWN
    assert existence_status(EtfType(7, 1, 8)).status == CONSTRUCTIBLE
    assert existence_status(EtfType(7, 1, 57)).status == KNOWN    # geometry
    assert existence_status(EtfType(6, 1, 3)).status == KNOWN     # SIC S^2-1
    assert existence_status(EtfType(7, 1, 14)).status == ASYMPTOTIC


@pytest.mark.parametrize("k, s, built, witness", [
    # PG(2, 89) has 32,084,055 vertex pairs, PG(2, 97) 45,186,771
    (90, 90, True, "Steiner ETF from the projective plane of order 89"),
    (98, 98, False, "Steiner ETF from the projective plane of order 97"),
    # AG(2, 89) has 31,367,160 vertex pairs, AG(2, 97) 44,259,936
    (89, 90, True, "Steiner ETF from the affine plane of order 89"),
    (97, 98, False, "Steiner ETF from the affine plane of order 97"),
    # 33,542,145 and 33,558,528 vertex pairs, either side of 2^25
    (3, 4095, True, "Steiner ETF from a Steiner triple system on 8191 points"),
    (3, 4096, False,
     "Steiner ETF from a Steiner triple system on 8193 points"),
    # GF(8192) is past the field table limit of 4096
    (8192, 8193, False, "Steiner ETF from the affine plane of order 8192"),
])
def test_constructible_only_within_the_design_limits(k, s, built, witness):
    st = existence_status(EtfType(k, 1, s))
    assert (st.status, st.witness) == (CONSTRUCTIBLE if built else KNOWN,
                                       witness)


@pytest.mark.parametrize("k, s, build, pairs", [
    (3, 4, lambda: steiner_triple_system(9), 36),
    (4, 5, lambda: affine_plane(gf_build(2, 2)), 120),
    (5, 5, lambda: projective_plane(gf_build(2, 2)), 210),
])
def test_status_and_builder_share_the_pair_limit(monkeypatch, k, s, build,
                                                 pairs):
    # at the limit the builder makes the design and the status says so;
    # one below, the builder refuses it before it allocates the blocks
    monkeypatch.setattr(design_module, "_PAIR_LIMIT", pairs)
    assert build().B > 0
    assert existence_status(EtfType(k, 1, s)).status == CONSTRUCTIBLE
    monkeypatch.setattr(design_module, "_PAIR_LIMIT", pairs - 1)
    with pytest.raises(DesignError) as info:
        build()
    assert str(info.value) == (f"design has {pairs} vertex pairs to "
                               f"certify, more than {pairs - 1}")
    assert existence_status(EtfType(k, 1, s)).status == KNOWN


def test_existence_precondition():
    with pytest.raises(ConstructionError):
        existence_status(EtfType(4, -1, 5))     # 4 does not divide 30
    with pytest.raises(ConstructionError):
        existence_status(EtfType(3, -1, 1))     # S < 2


# ---------------------------------------------------------------------------
# two-parameter difference-set family classification


def test_chen_pinned():
    assert EtfType(4, -1, 3) in classify_type(*oracle.chen(2, 1))
    assert EtfType(3, -1, 5) in classify_type(*oracle.chen(3, 1))
    types = classify_type(*oracle.chen(5, 1))
    assert types == [EtfType(2, 1, 9)]
    assert not any(t.L == -1 and t.K >= 4 for t in types)


def test_chen_larger():
    # J=2, Q=2 gives the next member of the K=4 geometric family
    types = classify_type(*oracle.chen(2, 2))
    assert EtfType(4, -1, 11) in types
