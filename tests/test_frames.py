"""Gram computation, ETF certification, type classification, Naimark."""

import random
from fractions import Fraction

import numpy as np
import pytest

from etfkit.cyclo import CycMatrix, CycScalar, root_of_unity
from etfkit.frames import (
    EtfType,
    Frame,
    FrameError,
    classify_type,
    frame_operator,
    gram,
    naimark_gram,
    verify_etf,
    verify_tdtf,
    _offdiag_values,
)
from etfkit.hadamard import fourier, simplex_from_hadamard, sylvester


def simplex_frame(n: int) -> Frame:
    return Frame(simplex_from_hadamard(fourier(n)).mat)


# ---------------------------------------------------------------------------
# gram


def test_gram_simplex3():
    g = gram(simplex_frame(3))
    assert g.entry(0, 0) == 2 and g.entry(1, 1) == 2
    for r, c in ((0, 1), (0, 2), (1, 2)):
        assert g.entry(r, c).abs_squared() == 1


def test_gram_single_column():
    col = CycMatrix.from_scalars([[CycScalar.one(3)],
                                  [root_of_unity(3, 1)]])
    g = gram(Frame(col))
    assert g.shape == (1, 1) and g.entry(0, 0) == 2


def test_gram_orthonormal_basis():
    f = Frame(CycMatrix.identity(4))
    assert gram(f) == CycMatrix.identity(4)
    cert = verify_etf(f)
    assert cert.welch_equality and cert.s == 1 and cert.t == 0


# ---------------------------------------------------------------------------
# verify_etf


def test_verify_etf_simplex():
    cert = verify_etf(simplex_frame(3))
    assert cert.welch_equality
    assert (cert.s, cert.t) == (2, 1)
    assert cert.a == Fraction(3)
    assert cert.flat and cert.centered


def test_flat_and_centered_are_computed_when_read(monkeypatch):
    frame = simplex_frame(4)
    shapes = []
    real = CycMatrix.abs_squared_entries

    def counted(self):
        shapes.append(self.shape)
        return real(self)

    monkeypatch.setattr(CycMatrix, "abs_squared_entries", counted)
    cert = verify_etf(frame)
    assert shapes == [(4, 4)]                   # |G|^2 only
    assert cert.flat and cert.centered
    assert shapes == [(4, 4), (3, 4)]           # then |Phi|^2, once
    assert cert.flat
    assert len(shapes) == 2


@pytest.mark.parametrize("h", [fourier(3), sylvester(2)])   # d = 2 and 1
def test_certification_forms_one_adjoint_and_keeps_none(monkeypatch, h):
    frame = Frame(simplex_from_hadamard(h).mat)
    calls = []
    real = CycMatrix.adjoint

    def counted(self):
        calls.append(self.shape)
        return real(self)

    monkeypatch.setattr(CycMatrix, "adjoint", counted)
    assert verify_etf(frame).welch_equality
    assert calls == [frame.synthesis.shape]   # for both products
    gram(frame)
    assert len(calls) == 2             # none was kept past the certification


def test_verify_etf_two_equal_columns():
    one = CycScalar.one(2)
    m = CycMatrix.from_scalars([[one, one], [one, one]])
    cert = verify_etf(Frame(m))
    assert cert.equal_norm and cert.s == 2
    assert cert.equiangular and cert.t == 4       # t = s^2
    assert not cert.tight and not cert.welch_equality


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


def test_frame_grouping():
    syn = simplex_frame(4).synthesis
    assert Frame(syn, groups=2).groups == 2
    with pytest.raises(FrameError):
        Frame(syn, groups=3)


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
    assert t.complement_norm == 7
    assert str(EtfType(2, 1, 3)) == "(2,+1,3)"


# ---------------------------------------------------------------------------
# naimark_gram


def test_naimark_simplex23():
    f = simplex_frame(3)
    res = naimark_gram(gram(f), 3)
    assert res.denominator == 1
    assert res.input_tight and res.transfer_ok
    comp = res.complement
    for i in range(3):
        assert comp.entry(i, i) == 1
    for i in range(3):
        for j in range(3):
            if i != j:
                assert comp.entry(i, j).abs_squared() == 1


def test_naimark_orthogonal_case():
    g = CycMatrix.identity(3).scalar_mul(5)
    res = naimark_gram(g, 5)
    assert res.complement.is_zero
    assert res.input_tight and res.transfer_ok


def test_naimark_fractional_constant():
    # a 1x2 frame [1, zeta4]: Gram has A = N s / D = 2
    m = CycMatrix.from_scalars([[CycScalar.one(4), root_of_unity(4, 1)]])
    res = naimark_gram(gram(Frame(m)), Fraction(2))
    assert res.input_tight and res.transfer_ok
    assert res.complement.entry(0, 0) == 1


def test_naimark_not_tight_input():
    # columns (1,0), (0,1), (1,1): not a tight frame, G^2 != A G for any A
    m = CycMatrix.from_int_matrix([[1, 0, 1], [0, 1, 1]])
    res = naimark_gram(gram(Frame(m)), 2)
    assert not res.input_tight
    # the transfer identity G' G' = num G', computed directly, fails too
    comp = res.complement
    assert not res.transfer_ok
    assert comp @ comp != comp.scalar_mul(2)


# ---------------------------------------------------------------------------
# verify_tdtf


def test_tdtf_on_etf():
    rep = verify_tdtf(simplex_frame(4))
    assert rep.ok and rep.tight and rep.two_distance
    assert len(rep.values) <= 2
    mods = {v.abs_squared().as_integer() for v in rep.values}
    assert mods == {1}


def test_tdtf_random_frame_fails():
    rng = random.Random(43)
    m = CycMatrix.from_scalars(
        [[root_of_unity(7, rng.randrange(7)) + root_of_unity(7, rng.randrange(7))
          + CycScalar.from_int(rng.randint(0, 2), 7)
          for _ in range(6)] for _ in range(3)])
    rep = verify_tdtf(Frame(m))
    assert not rep.ok


def test_tdtf_needs_equal_norms():
    # frame operator 5I and off-diagonal values 0, 2, but norms 1, 1, 4, 4
    m = CycMatrix.from_int_matrix([[1, 0, 2, 0], [0, 1, 0, 2]])
    rep = verify_tdtf(Frame(m))
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


def test_frame_operator_shape():
    f = simplex_frame(5)
    assert frame_operator(f).shape == (4, 4)


def test_offdiag_values_reads_the_distinct_values_in_order():
    # a 4x4 Gram over Z[zeta_3]: every off-diagonal entry is u, then v takes
    # (1, 0) and w the last off-diagonal entry, (3, 2); the diagonal holds
    # other values, which are never read
    u, v, w = (1, 0), (0, 1), (-1, -1)

    def gram_with(cells):
        arr = np.full((4, 4, 2), 0, dtype=np.int64)
        arr[:, :] = u
        arr[np.arange(4), np.arange(4)] = (7, 7)
        for (i, j), value in cells.items():
            arr[i, j] = value
        return CycMatrix(3, arr)

    assert _offdiag_values(gram_with({})) == (CycScalar(3, u),)
    assert _offdiag_values(gram_with({(1, 0): v, (2, 3): v})) == (
        CycScalar(3, u), CycScalar(3, v))
    assert _offdiag_values(gram_with({(1, 0): v, (3, 2): w})) is None
    # the first value comes from entry (0, 1), the second from the first
    # entry that differs from it
    assert _offdiag_values(gram_with({(0, 1): v, (3, 2): v})) == (
        CycScalar(3, v), CycScalar(3, u))
    assert _offdiag_values(CycMatrix.identity(1, 3)) == ()
