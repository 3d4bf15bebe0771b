"""Hadamard generators, certification, dephasing, simplex extraction."""

import random

import pytest

from etfkit.cli import hadamard_from_spec
from etfkit.cyclo import CycMatrix, CycScalar, root_of_unity
from etfkit.designs import gf_build
from etfkit.hadamard import (
    HadamardError,
    HadamardMatrix,
    dephase,
    fourier,
    paley_i,
    paley_ii,
    simplex_from_hadamard,
    sylvester,
    verify_hadamard,
)


def test_sylvester_small():
    h = sylvester(2)
    assert h.size == 4 and h.dephased
    target = CycMatrix.identity(4, 2).scalar_mul(4)
    assert h.mat.adjoint() @ h.mat == target
    assert sylvester(0).size == 1
    assert verify_hadamard(sylvester(0)).ok


def test_fourier3_exact():
    h = fourier(3)
    assert h.size == 3 and h.dephased
    assert h.mat.entry(1, 2) == root_of_unity(3, 2)
    assert verify_hadamard(h).ok


def test_fourier_range():
    for n in range(1, 13):
        assert verify_hadamard(fourier(n)).ok


def test_paley_i_gf7():
    h = paley_i(gf_build(7, 1))
    assert h.size == 8
    assert verify_hadamard(h).ok
    assert h.dephased


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
def test_paley_i_family(q):
    assert verify_hadamard(paley_i(gf_build(q, 1))).ok


@pytest.mark.parametrize("q", [5, 13])
def test_paley_ii_family(q):
    h = paley_ii(gf_build(q, 1))
    assert h.size == 2 * (q + 1)
    assert verify_hadamard(h).ok


def test_paley_i_prime_power_field():
    h = paley_i(gf_build(3, 3))           # GF(27), 27 = 3 (mod 4)
    assert h.size == 28
    assert verify_hadamard(h).ok


def test_dephase_complex_phases():
    # scramble fourier(5) with a unimodular column scaling, then restore
    from etfkit.hadamard import HadamardMatrix

    h = fourier(5)
    scales = CycMatrix.diagonal([root_of_unity(5, 2 * c) for c in range(5)])
    scrambled = HadamardMatrix(h.mat @ scales)
    assert not scrambled.dephased
    fixed = dephase(scrambled)
    assert fixed.dephased and verify_hadamard(fixed).ok
    assert fixed.mat == h.mat


def test_paley_residue_preconditions():
    with pytest.raises(HadamardError):
        paley_i(gf_build(5, 1))
    with pytest.raises(HadamardError):
        paley_ii(gf_build(7, 1))


def test_verify_rejects_identity():
    rep = verify_hadamard(CycMatrix.identity(2))
    assert not rep.ok


def test_hadamard_matrix_refuses_a_failed_certificate():
    with pytest.raises(HadamardError, match=r"H\*H differs from nI"):
        HadamardMatrix(CycMatrix.ones(2, 2, 2))


def test_verify_rejects_nonunimodular():
    m = CycMatrix.from_int_matrix([[1, 1], [1, -2]], order=2)
    rep = verify_hadamard(m)
    assert not rep.ok and "(1, 1)" in rep.failure


def test_dephase():
    h = fourier(4)
    assert dephase(h) is h                         # already dephased
    neg = sylvester(1).mat.scalar_mul(-1)          # both columns negated
    fixed = dephase(__import__("etfkit.hadamard", fromlist=["x"])
                    .HadamardMatrix(neg))
    assert fixed.dephased
    assert fixed.mat == sylvester(1).mat


def test_dephase_paley_ii():
    h = paley_ii(gf_build(5, 1))
    assert not h.dephased
    d = dephase(h)
    assert d.dephased and verify_hadamard(d).ok


# every Hadamard spec whose simplex a perfbench workload builds, dephased
WORKLOAD_SPECS = ([f"sylvester:{k}" for k in range(1, 6)]
                  + [f"paley1:{q}" for q in (3, 7, 11, 19, 23)]
                  + [f"paley2:{q}" for q in (5, 13)]
                  + [f"fourier:{n}" for n in range(2, 13)])


@pytest.mark.parametrize("spec", WORKLOAD_SPECS)
def test_simplex_from_hadamard_spec(spec):
    # the simplex carries no certificate: its identities must follow from H's
    h = hadamard_from_spec(spec)
    s = simplex_from_hadamard(h)
    n, order = h.size, h.mat.order
    assert s.shape == (n - 1, n)
    assert s.abs_squared_entries() == CycMatrix.ones(n - 1, n, order)
    n_eye = CycMatrix.identity(n, order).scalar_mul(n)
    assert s.adjoint() @ s == n_eye - CycMatrix.ones(n, n, order)
    assert s @ s.adjoint() == CycMatrix.identity(n - 1, order).scalar_mul(n)


def test_simplex_from_sylvester1():
    s = simplex_from_hadamard(sylvester(1))
    assert s.shape == (1, 2)
    assert s.entry(0, 0) == 1
    assert s.entry(0, 1) == CycScalar.from_int(-1, 2)


def test_simplex_fourier10():
    h = fourier(10)
    s = simplex_from_hadamard(h)
    # the tail rows of H, untouched: H's certificate covers them
    assert s.shape == (9, 10)
    assert s == h.mat.submatrix(slice(1, 10), slice(None))


def test_simplex_requires_dephased():
    h = paley_ii(gf_build(5, 1))
    with pytest.raises(HadamardError):
        simplex_from_hadamard(h)


def test_simplex_requires_size_two():
    with pytest.raises(HadamardError, match="size >= 2"):
        simplex_from_hadamard(sylvester(0))


def test_kron_randomized():
    rng = random.Random(31)
    pool = [sylvester(1), sylvester(2), fourier(2), fourier(3), fourier(4),
            paley_i(gf_build(3, 1))]
    for _ in range(8):
        a, b = rng.choice(pool), rng.choice(pool)
        if a.size * b.size > 16:
            continue
        assert verify_hadamard(a.mat.kron(b.mat)).ok
