"""Hadamard generators, certification, dephasing, simplex extraction."""

import random

import numpy as np
import pytest

import oracle
from etfkit import cyclo
from etfkit.cli import hadamard_from_spec
from etfkit.cyclo import CycMatrix
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
    order, arr = h.mat.order, h.mat.array
    hh = oracle.matmul_array(order, oracle.adjoint_array(order, arr), arr)
    assert np.array_equal(hh, oracle.eye(order, 4, 4))
    assert sylvester(0).size == 1
    assert verify_hadamard(sylvester(0)).ok


def test_fourier3_exact():
    h = fourier(3)
    assert h.size == 3 and h.dephased
    assert oracle.entries(h.mat.array)[1][2] == oracle.root(3, 2)
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
    h = fourier(5)
    scales = np.array([[oracle.root(5, 2 * c) for c in range(5)]],
                      dtype=object)
    scrambled = HadamardMatrix(
        CycMatrix(5, oracle.mul_array(5, h.mat.array, scales)))
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
    rep = verify_hadamard(CycMatrix(1, oracle.eye(1, 2)))
    assert not rep.ok


def test_verify_hadamard_of_a_zero_matrix(kernel_paths):
    # a pass bounded by 0 runs at no prime, and reads |0|^2 = 0, not 1: the
    # first entry fails, with the oracle's |H_00|^2
    zero = np.zeros((3, 3, 2), dtype=np.int64)
    with kernel_paths() as seen:
        rep = verify_hadamard(CycMatrix(3, zero))
    assert seen == [0]
    mod = tuple(int(x) for x in oracle.abs2_array(3, zero)[0, 0])
    assert not rep.ok
    assert rep.failure == f"entry (0, 0) is not unimodular: |.|^2 = {mod}"


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
    syl = sylvester(1).mat
    neg = CycMatrix(syl.order, -syl.array)         # both columns negated
    fixed = dephase(HadamardMatrix(neg))
    assert fixed.dephased
    assert fixed.mat == syl


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
    n, order, arr = h.size, h.mat.order, s.array
    assert s.shape == (n - 1, n)
    assert np.array_equal(oracle.abs2_array(order, arr),
                          oracle.full(order, (n - 1, n)))
    adj = oracle.adjoint_array(order, arr)
    assert np.array_equal(oracle.matmul_array(order, adj, arr),
                          oracle.eye(order, n, n) - oracle.full(order, (n, n)))
    assert np.array_equal(oracle.matmul_array(order, arr, adj),
                          oracle.eye(order, n - 1, n))


def test_simplex_from_sylvester1():
    s = simplex_from_hadamard(sylvester(1))
    assert s.shape == (1, 2)
    assert oracle.entries(s.array) == [[(1,), (-1,)]]


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


# ---------------------------------------------------------------------------
# reports and dephasing, against strings and products recorded before
# verify_hadamard compared |H_ij|^2 at the points and dephase became one
# entrywise product


def edited(mat: CycMatrix, cells: dict) -> CycMatrix:
    """A copy of `mat` with entry (r, c) replaced by how(entry), its
    coefficient row, for each (r, c): how of `cells`."""
    arr = mat.array.astype(object)
    for (r, c), how in cells.items():
        arr[r, c] = how(arr[r, c])
    return CycMatrix(mat.order, arr)


def doubled(v):
    return 2 * v


def negated(v):
    return -v


def times_zeta5(v):
    return np.array(oracle.mul(5, v, oracle.root(5, 1)), dtype=object)


def spec_matrix(spec):
    return lambda: hadamard_from_spec(spec).mat


# (matrix, edits, report), each report as it read before: d = 1
# (sylvester, paley2) and d > 1 (fourier)
NOT_HADAMARD = "Hadamard fail: H*H differs from nI"
REPORTS = [
    (spec_matrix("sylvester:3"), {}, "Hadamard pass: size 8"),
    (spec_matrix("sylvester:3"), {(5, 2): doubled},
     "Hadamard fail: entry (5, 2) is not unimodular: |.|^2 = (4,)"),
    (spec_matrix("sylvester:3"), {(5, 2): negated}, NOT_HADAMARD),
    (spec_matrix("paley2:5"), {}, "Hadamard pass: size 12"),
    (spec_matrix("paley2:5"), {(11, 0): doubled},
     "Hadamard fail: entry (11, 0) is not unimodular: |.|^2 = (4,)"),
    (spec_matrix("paley2:5"), {(0, 7): negated}, NOT_HADAMARD),
    (spec_matrix("fourier:5"), {}, "Hadamard pass: size 5"),
    (spec_matrix("fourier:5"), {(2, 3): doubled},
     "Hadamard fail: entry (2, 3) is not unimodular: |.|^2 = (4, 0, 0, 0)"),
    (spec_matrix("fourier:5"), {(4, 1): negated}, NOT_HADAMARD),
    (spec_matrix("fourier:12"), {}, "Hadamard pass: size 12"),
    (spec_matrix("fourier:12"), {(7, 11): doubled},
     "Hadamard fail: entry (7, 11) is not unimodular: |.|^2 = (4, 0, 0, 0)"),
    (spec_matrix("fourier:12"), {(3, 3): negated}, NOT_HADAMARD),
    (spec_matrix("fourier:30"), {}, "Hadamard pass: size 30"),
    (spec_matrix("fourier:30"), {(29, 17): doubled},
     "Hadamard fail: entry (29, 17) is not unimodular: "
     "|.|^2 = (4, 0, 0, 0, 0, 0, 0, 0)"),
    (spec_matrix("fourier:30"), {(12, 5): negated}, NOT_HADAMARD),
    # the first entry in row-major order is reported
    (spec_matrix("fourier:5"), {(2, 0): lambda v: 3 * v,
                                (1, 3): lambda v: -2 * v},
     "Hadamard fail: entry (1, 3) is not unimodular: |.|^2 = (4, 0, 0, 0)"),
    # |1 + zeta|^2 is not rational; zeta H_44 is unimodular
    (spec_matrix("fourier:5"),
     {(3, 4): lambda v: np.array([1, 1, 0, 0], dtype=object)},
     "Hadamard fail: entry (3, 4) is not unimodular: "
     "|.|^2 = (1, 0, -1, -1)"),
    (spec_matrix("fourier:5"), {(4, 4): times_zeta5}, NOT_HADAMARD),
    # a coefficient at 2^62: object storage
    (spec_matrix("fourier:3"), {(1, 1): lambda v: v * 2**62},
     "Hadamard fail: entry (1, 1) is not unimodular: "
     "|.|^2 = (21267647932558653966460912964485513216, 0)"),
    (spec_matrix("sylvester:0"), {}, "Hadamard pass: size 1"),
    (spec_matrix("sylvester:0"), {(0, 0): doubled},
     "Hadamard fail: entry (0, 0) is not unimodular: |.|^2 = (4,)"),
    (lambda: CycMatrix.ones(1, 1, 5), {}, "Hadamard pass: size 1"),
    (lambda: CycMatrix.zeros(0, 0), {}, "Hadamard pass: size 0"),
    (lambda: CycMatrix.zeros(0, 0, 3), {}, "Hadamard pass: size 0"),
    (lambda: CycMatrix.zeros(2, 2, 3), {},
     "Hadamard fail: entry (0, 0) is not unimodular: |.|^2 = (0, 0)"),
    (lambda: CycMatrix.ones(2, 3, 5), {}, "Hadamard fail: matrix is 2x3"),
]


@pytest.fixture
def forbid(monkeypatch):
    """Make CycMatrix.ones raise, which verify_hadamard and dephase do not
    call (conftest's guard refuses the algebra members); return a list of
    the shapes cyclo._Space.values evaluates from then on."""
    def ones(*args, **kwargs):
        raise AssertionError("CycMatrix.ones called")

    def install():
        monkeypatch.setattr(CycMatrix, "ones", ones)
        evaluated = []
        real = cyclo._Space.values

        def values(self, arr, mag):
            evaluated.append(arr.shape)
            return real(self, arr, mag)

        monkeypatch.setattr(cyclo._Space, "values", values)
        return evaluated
    return install


@pytest.mark.parametrize("index", range(len(REPORTS)))
def test_reports_match_the_recorded_strings(forbid, index):
    make, cells, want = REPORTS[index]
    mat = edited(make(), cells)
    evaluated = forbid()
    assert str(verify_hadamard(mat)) == want
    # H is evaluated once, for |H_ij|^2 and H H* both
    assert evaluated == ([mat.array.shape] if mat.rows == mat.cols else [])


def dephase_oracle(h: HadamardMatrix) -> np.ndarray:
    """H times the diagonal of the conjugates of its first row."""
    n, arr = h.mat.order, h.mat.array
    return CycMatrix(n, oracle.mul_array(
        n, arr, oracle.conj_array(n, arr[:1]))).array


@pytest.mark.parametrize("make", [
    lambda: paley_ii(gf_build(5, 1)), lambda: paley_ii(gf_build(13, 1)),
    lambda: fourier(5), lambda: fourier(7), lambda: fourier(12),
    lambda: fourier(30)])
def test_dephase_matches_the_diagonal_product(forbid, make):
    rng = random.Random(5)
    h = make()
    n, order = h.size, h.mat.order
    roots = np.array([[oracle.root(order, rng.randrange(order))
                       for _ in range(n)]], dtype=object)
    h = HadamardMatrix(
        CycMatrix(order, oracle.mul_array(order, h.mat.array, roots)))
    assert not h.dephased
    want = dephase_oracle(h)
    forbid()
    got = dephase(h)
    assert got.dephased
    assert got.mat.array.dtype == want.dtype
    assert np.array_equal(got.mat.array, want)
