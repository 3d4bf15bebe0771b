"""CLI subcommands, text formats, and exit-code contract."""

import errno
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from math import prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etfkit import cli, cyclo, fileio, frames
from etfkit import constructions as construction_module
from etfkit import designs as design_module
from etfkit.cli import hadamard_from_spec, main
from etfkit.constructions import regular_simplex, steiner_etf
from etfkit.cyclo import CycMatrix, cyclotomic_polynomial
from etfkit.fileio import (
    DesignVerifyError,
    FileFormatError,
    parse_design,
    parse_frame,
    serialize_design,
    serialize_frame,
)
from etfkit.frames import Frame
from etfkit.hadamard import fourier, sylvester


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


# ---------------------------------------------------------------------------
# classify


def test_classify_6_16(capsys):
    code, out, _ = run(capsys, "classify", "6", "16")
    assert code == 0 and out == "(2,+1,3) (4,-1,3)"


def test_classify_none(capsys):
    code, out, _ = run(capsys, "classify", "3", "6")
    assert code == 0 and out == "none"


def test_classify_large(capsys):
    code, out, _ = run(capsys, "classify", "266", "1008")
    assert code == 0 and out == "(4,-1,19)"


def test_classify_domain_error(capsys):
    code, _, err = run(capsys, "classify", "1", "5")
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# design


def test_design_td(tmp_path, capsys):
    out_file = tmp_path / "td33.design"
    code, out, _ = run(capsys, "design", "td", "3", "3", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "GDD 3 3 3 9"
    assert out == "GDD 3 3 3 9"


def test_design_sts_infeasible(tmp_path, capsys):
    code, _, err = run(capsys, "design", "sts", "5", "-o",
                       str(tmp_path / "x.design"))
    assert code == 2 and "error" in err


def test_design_product(tmp_path, capsys):
    td = tmp_path / "td33.design"
    sts = tmp_path / "sts7.design"
    out = tmp_path / "g37.design"
    assert run(capsys, "design", "td", "3", "3", "-o", str(td))[0] == 0
    assert run(capsys, "design", "sts", "7", "-o", str(sts))[0] == 0
    code, line, _ = run(capsys, "design", "product", str(td), str(sts),
                        "-o", str(out))
    assert code == 0 and line == "GDD 3 7 3 63"


def test_design_fill(tmp_path, capsys):
    inner = tmp_path / "td33.design"
    outer = tmp_path / "td39.design"
    out = tmp_path / "filled.design"
    run(capsys, "design", "td", "3", "3", "-o", str(inner))
    run(capsys, "design", "td", "3", "9", "-o", str(outer))
    code, line, _ = run(capsys, "design", "fill", str(inner), str(outer),
                        "-o", str(out))
    assert code == 0 and line == "GDD 3 9 3 108"


def test_design_affine_projective(tmp_path, capsys):
    code, line, _ = run(capsys, "design", "affine", "3", "-o",
                        str(tmp_path / "ag23.design"))
    assert code == 0 and line == "GDD 3 9 1 12"
    code, line, _ = run(capsys, "design", "projective", "2", "-o",
                        str(tmp_path / "pg22.design"))
    assert code == 0 and line == "GDD 3 7 1 7"


def test_design_td_non_prime_power(tmp_path, capsys):
    out = str(tmp_path / "x.design")
    code, _, err = run(capsys, "design", "td", "3", "6", "-o", out)
    assert code == 2 and "prime power" in err
    assert run(capsys, "design", "td", "3", "-4", "-o", out) == (
        2, "", "error: -4 is not a prime power")
    # K = 2 reads no field: the square size is refused before any array
    for m in ("-3", "0"):
        assert run(capsys, "design", "td", "2", m, "-o", out) == (
            2, "", f"error: square size must be at least 1, got {m}")


@pytest.mark.parametrize("k", ["1", "0", "-2"])
@pytest.mark.parametrize("m", ["3", "6"])
def test_design_td_block_size_below_two(tmp_path, capsys, k, m):
    # K < 2 is refused before GF(M) is built, so M = 6 is not reached
    out = tmp_path / "x.design"
    assert run(capsys, "design", "td", k, m, "-o", str(out)) == (
        2, "", f"error: block size must be at least 2, got {k}")
    assert not out.exists()


def test_file_errors_exit_2_with_one_error_line(tmp_path, capsys):
    # a directory, bytes that are not UTF-8 or a missing file to read, and
    # a directory to write, each refused as a resource error
    folder = tmp_path / "folder"
    folder.mkdir()
    binary = tmp_path / "binary.frame"
    binary.write_bytes(b"\xff\n")
    missing = tmp_path / "missing.frame"
    is_dir = (f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
              f"{str(folder)!r}")
    assert run(capsys, "verify", str(folder), "--kind", "frame") == (
        2, "", is_dir)
    assert run(capsys, "verify", str(binary), "--kind", "frame") == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte")
    assert run(capsys, "verify", str(missing), "--kind", "design") == (
        2, "", f"error: [Errno 2] No such file or directory: "
               f"{str(missing)!r}")
    assert run(capsys, "design", "sts", "7", "-o", str(folder)) == (
        2, "", is_dir)
    assert run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
               "-o", str(folder)) == (2, "", is_dir)


# ---------------------------------------------------------------------------
# build


def test_build_simplex(tmp_path, capsys):
    out = tmp_path / "mb3.frame"
    code, line, _ = run(capsys, "build", "simplex", "3",
                        "--hadamard", "fourier:3", "-o", str(out))
    assert code == 0
    assert line == "ETF D=2 N=3 s=2 t=1 A=3 types=(1,+1,2),(3,-1,2)"


def test_build_steiner_6_16(tmp_path, capsys):
    bibd = tmp_path / "pairs4.design"
    out = tmp_path / "etf6x16.frame"
    run(capsys, "design", "affine", "2", "-o", str(bibd))
    code, line, _ = run(capsys, "build", "steiner", "--bibd", str(bibd),
                        "--hadamard", "sylvester:2", "-o", str(out))
    assert code == 0
    assert line == "ETF D=6 N=16 s=3 t=1 A=8 types=(2,+1,3),(4,-1,3)"


def test_build_mols_centered(tmp_path, capsys):
    td = tmp_path / "td24.design"
    out = tmp_path / "flat.frame"
    run(capsys, "design", "td", "2", "4", "-o", str(td))
    code, line, _ = run(capsys, "build", "mols-etf", "--td", str(td),
                        "--hadamard", "sylvester:2", "--variant", "centered",
                        "-o", str(out))
    assert code == 0 and line.startswith("ETF D=6 N=16")
    assert run(capsys, "verify", str(out), "--kind", "frame")[0] == 0


def test_build_mols_tdtf_regime(tmp_path, capsys):
    td = tmp_path / "td34.design"
    out = tmp_path / "tdtf.frame"
    run(capsys, "design", "td", "3", "4", "-o", str(td))
    code, line, _ = run(capsys, "build", "mols-etf", "--td", str(td),
                        "--hadamard", "sylvester:2", "--variant", "centered",
                        "-o", str(out))
    assert code == 0 and line.startswith("TDTF D=9 N=16")
    # every written build output re-verifies with exit 0
    code, line, _ = run(capsys, "verify", str(out), "--kind", "frame")
    assert code == 0 and line.startswith("TDTF")


def test_build_gdd_etf_pipeline(tmp_path, capsys):
    seed = tmp_path / "mb3.frame"
    td = tmp_path / "td33.design"
    out = tmp_path / "etf15x36.frame"
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
        "-o", str(seed))
    run(capsys, "design", "td", "3", "3", "-o", str(td))
    code, line, _ = run(capsys, "build", "gdd-etf", "--seed", str(seed),
                        "--gdd", str(td), "--he", "fourier:1",
                        "--hf", "sylvester:2", "-o", str(out))
    assert code == 0
    assert line == "ETF D=15 N=36 s=5 t=1 A=12 types=(2,+1,5),(3,-1,5)"
    assert run(capsys, "verify", str(out), "--kind", "frame")[0] == 0
    built = out.read_bytes()
    # the simplex ETF(3, 4) has no type of block size 3 and group size 3
    run(capsys, "build", "simplex", "4", "--hadamard", "sylvester:2",
        "-o", str(seed))
    assert run(capsys, "build", "gdd-etf", "--seed", str(seed), "--gdd",
               str(td), "--he", "sylvester:1", "--hf", "sylvester:2", "-o",
               str(out)) == (
        2, "", "error: seed (3, 4) has no type matching a K=3 design of "
               "type 3^3")
    # a seed of a matching type that is no ETF fails its certification
    seed.write_text("FRAME 1 2 3\n1 | 1 | 1\n1 | -1 | 0\n")
    assert run(capsys, "build", "gdd-etf", "--seed", str(seed), "--gdd",
               str(td), "--he", "fourier:1", "--hf", "sylvester:2", "-o",
               str(out)) == (2, "", "error: seed frame is not a certified ETF")
    assert out.read_bytes() == built        # neither refusal touched it


def test_extension_builds_print_the_line_verify_prints(tmp_path, capsys,
                                                      monkeypatch):
    # a Steiner build runs no certifying pass and a GDD build one, on its
    # seed; the certificate each prints, read off its theorem, is the line
    # the full pass prints on the file it wrote
    def path(name):
        return str(tmp_path / name)

    for argv in (("design", "affine", "2", "-o", path("affine-2.design")),
                 ("design", "sts", "15", "-o", path("sts-15.design")),
                 ("design", "td", "3", "3", "-o", path("td-3-3.design")),
                 ("design", "td", "4", "8", "-o", path("td-4-8.design")),
                 ("build", "simplex", "3", "--hadamard", "fourier:3",
                  "-o", path("mb3.frame"))):
        assert run(capsys, *argv)[0] == 0
    passes = []
    real = frames.verify_etf
    for module in (cli, construction_module):
        monkeypatch.setattr(module, "verify_etf",
                            lambda f: passes.append(f) or real(f))
    # each build, with the shape of each frame it certifies
    for argv, certified in (
            (("build", "steiner", "--bibd", path("affine-2.design"),
              "--hadamard", "sylvester:2", "-o", path("seed-6.frame")), []),
            (("build", "steiner", "--bibd", path("sts-15.design"),
              "--hadamard", "sylvester:3", "-o", path("steiner-35.frame")),
             []),
            (("build", "gdd-etf", "--seed", path("mb3.frame"), "--gdd",
              path("td-3-3.design"), "--he", "fourier:1", "--hf",
              "sylvester:2", "-o", path("gdd-15.frame")), [(2, 3)]),
            (("build", "gdd-etf", "--seed", path("seed-6.frame"), "--gdd",
              path("td-4-8.design"), "--he", "sylvester:1", "--hf",
              "fourier:5", "-o", path("gdd-88.frame")), [(6, 16)])):
        passes.clear()
        code, line, _ = run(capsys, *argv)
        assert code == 0 and [(f.d, f.n) for f in passes] == certified
        assert run(capsys, "verify", argv[-1], "--kind", "frame") == (
            0, line, "")


@pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [[1, 0], [0, 1], [1, 1]]])
def test_build_gdd_etf_refuses_a_seed_with_no_more_vectors_than_rows(
        tmp_path, capsys, rows):
    # N <= D has no type: the build says so itself, as the classifier
    # needs 1 < D < N
    seed, td = tmp_path / "seed.frame", tmp_path / "td33.design"
    seed.write_text(serialize_frame(Frame(CycMatrix.from_int_matrix(rows))))
    run(capsys, "design", "td", "3", "3", "-o", str(td))
    d, n = len(rows), len(rows[0])
    assert run(capsys, "build", "gdd-etf", "--seed", str(seed), "--gdd",
               str(td), "--he", "sylvester:1", "--hf", "sylvester:2", "-o",
               str(tmp_path / "out.frame")) == (
        2, "", f"error: seed ({d}, {n}) has no type matching a K=3 design "
               f"of type 3^3")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process: after a usage error, a design,
    # a build and a verify call each print and exit as in a fresh process
    td, frame = str(tmp_path / "td33.design"), str(tmp_path / "mb3.frame")
    calls = [("design", "td", "3", "3", "-o", td),
             ("build", "simplex", "3", "--hadamard", "fourier:3", "-o", frame),
             ("verify", frame, "--kind", "frame")]
    with pytest.raises(SystemExit) as info:
        main(["build", "simplex"])
    assert info.value.code == 2
    capsys.readouterr()
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "etfkit.cli", *argv],
                              capture_output=True, text=True, env=env,
                              check=False)
        fresh.append((proc.returncode, proc.stdout.strip()))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, 0]
    assert cli._make_parser.cache_info().currsize == 1


# sha256 of the two multi-slot GDD frames, ETF(88,320) over Z[zeta_10] and
# ETF(77,210) over Z[zeta_30], as the product kernel before evaluation space
# wrote them
GDD_FRAME_SHA256 = {
    "gdd-88": "5678aeda3c64a4611f9fed200886a2db"
              "3b4937e0effa75886ee6f950a825cc2f",
    "gdd-77": "e74f524662d6ae1ac0bcddc628160142"
              "d3916b4ea0eaf8575aab7958a36f0edf",
}


def test_multislot_gdd_frames_are_byte_identical(tmp_path, capsys):
    def path(name):
        return str(tmp_path / name)

    for argv in (("design", "affine", "2", "-o", path("affine-2.design")),
                 ("design", "td", "4", "8", "-o", path("td-4-8.design")),
                 ("design", "td", "3", "3", "-o", path("td-3-3.design")),
                 ("design", "sts", "7", "-o", path("sts-7.design")),
                 ("design", "product", path("td-3-3.design"),
                  path("sts-7.design"), "-o", path("product.design")),
                 ("build", "steiner", "--bibd", path("affine-2.design"),
                  "--hadamard", "sylvester:2", "-o", path("seed-6.frame")),
                 ("build", "simplex", "3", "--hadamard", "fourier:3",
                  "-o", path("simplex-fourier3.frame")),
                 ("build", "gdd-etf", "--seed", path("seed-6.frame"),
                  "--gdd", path("td-4-8.design"), "--he", "sylvester:1",
                  "--hf", "fourier:5", "-o", path("gdd-88.frame")),
                 ("build", "gdd-etf", "--seed", path("simplex-fourier3.frame"),
                  "--gdd", path("product.design"), "--he", "fourier:1",
                  "--hf", "fourier:10", "-o", path("gdd-77.frame"))):
        assert run(capsys, *argv)[0] == 0
    for name, want in GDD_FRAME_SHA256.items():
        data = (tmp_path / f"{name}.frame").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want


def test_each_command_certifies_each_design_once(tmp_path, capsys,
                                                 monkeypatch):
    # every certificate a command computes, by design; a second one for
    # the same design would mean a second certification
    computed: dict[int, list] = {}
    real = design_module._gdd_report

    def recorded(design):
        report = real(design)
        computed.setdefault(id(design), [design]).append(report)  # keeps
        return report                                             # it alive

    monkeypatch.setattr(design_module, "_gdd_report", recorded)

    def path(name):
        return str(tmp_path / name)

    commands = [
        (["design", "td", "3", "3", "-o", path("td33.design")], 1),
        (["design", "td", "3", "9", "-o", path("td39.design")], 1),
        (["design", "td", "2", "4", "-o", path("td24.design")], 1),
        (["design", "sts", "7", "-o", path("sts7.design")], 1),
        (["design", "affine", "2", "-o", path("ag2.design")], 1),
        (["design", "product", path("td33.design"), path("sts7.design"),
          "-o", path("prod.design")], 3),
        (["design", "fill", path("td33.design"), path("td39.design"),
          "-o", path("fill.design")], 3),
        (["verify", path("fill.design"), "--kind", "design"], 1),
        (["build", "steiner", "--bibd", path("ag2.design"), "--hadamard",
          "sylvester:2", "-o", path("steiner.frame")], 1),
        (["build", "mols-etf", "--td", path("td24.design"), "--hadamard",
          "sylvester:2", "-o", path("mols.frame")], 1),
        (["build", "simplex", "3", "--hadamard", "fourier:3",
          "-o", path("seed.frame")], 0),
        (["build", "gdd-etf", "--seed", path("seed.frame"), "--gdd",
          path("td33.design"), "--he", "fourier:1", "--hf", "sylvester:2",
          "-o", path("gdd.frame")], 1),
    ]
    for argv, designs in commands:
        computed.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(computed) == designs, argv
        assert all(len(seen) == 2 for seen in computed.values()), argv


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_frame(tmp_path, capsys):
    out = tmp_path / "mb3.frame"
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
        "-o", str(out))
    code, line, _ = run(capsys, "verify", str(out), "--kind", "frame")
    assert code == 0 and line.startswith("ETF D=2 N=3")


def test_verify_perturbed_frame(tmp_path, capsys):
    out = tmp_path / "mb3.frame"
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
        "-o", str(out))
    lines = out.read_text().splitlines()
    cells = lines[1].split(" | ")
    cells[1] = "5,0"                       # perturb one entry
    lines[1] = " | ".join(cells)
    out.write_text("\n".join(lines) + "\n")
    code, line, _ = run(capsys, "verify", str(out), "--kind", "frame")
    assert code == 1 and "Gram entry" in line


def _edit_cell(path, r, c, cell):
    """A copy of a frame file with entry (r, c) rewritten by `cell`."""
    lines = path.read_text().splitlines()
    cells = lines[1 + r].split(" | ")
    cells[c] = cell(cells[c])
    lines[1 + r] = " | ".join(cells)
    out = path.with_suffix(".bad.frame")
    out.write_text("\n".join(lines) + "\n")
    return out


def _negate(cell):
    return ",".join(str(-int(x)) for x in cell.split(","))


@pytest.fixture
def gram_calls(monkeypatch):
    """Count Gram computations and CycMatrix.entry calls."""
    calls = {"gram": 0, "entry": 0}
    gram, entry = frames.gram, CycMatrix.entry

    def counted_gram(frame):
        calls["gram"] += 1
        return gram(frame)

    def counted_entry(self, r, c):
        calls["entry"] += 1
        return entry(self, r, c)

    monkeypatch.setattr(frames, "gram", counted_gram)
    monkeypatch.setattr(CycMatrix, "entry", counted_entry)
    return calls


def test_verify_failure_lines_pinned(tmp_path, capsys, gram_calls):
    s3, s8 = tmp_path / "s3.frame", tmp_path / "s8.frame"
    sts, st = tmp_path / "sts7.design", tmp_path / "st.frame"
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
        "-o", str(s3))
    run(capsys, "build", "simplex", "8", "--hadamard", "sylvester:3",
        "-o", str(s8))
    run(capsys, "design", "sts", "7", "-o", str(sts))
    run(capsys, "build", "steiner", "--bibd", str(sts), "--hadamard",
        "sylvester:2", "-o", str(st))                     # ETF(7, 28)
    not_tight = tmp_path / "nt.frame"
    not_tight.write_text("FRAME 1 2 2\n1 | 2\n2 | 1\n")    # s = 5, t = 16
    # columns (1, 1) and (1, zeta_5): |G_01|^2 = 2 + zeta + zeta^4
    irrational = tmp_path / "irr.frame"
    irrational.write_text("FRAME 5 2 2\n1,0,0,0 | 1,0,0,0\n"
                          "1,0,0,0 | 0,1,0,0\n")
    cases = [
        (_edit_cell(s3, 0, 1, lambda _: "5,0"),
         "fail: Gram entry (1, 1) = (26, 0) breaks equal norms "
         "(entry (0, 0) = (2, 0))"),
        (_edit_cell(s8, 0, 2, _negate),
         "fail: Gram entry (0, 2) has |.|^2 = (9,), entry (0, 1) has (1,): "
         "equiangularity fails"),
        (_edit_cell(st, 6, 27, _negate),
         "fail: Gram entry (24, 27) has |.|^2 = (9,), entry (0, 1) has "
         "(1,): equiangularity fails"),
        (not_tight,
         "fail: frame is equal-norm and equiangular but not tight: "
         "s^2 (N - D) = 0, t D (N - 1) = 32"),
        (irrational,
         "fail: Gram entry (0, 1) has |.|^2 = (1, 0, -1, -1), not a rational "
         "integer"),
    ]
    for path, want in cases:
        gram_calls.update(gram=0, entry=0)
        assert run(capsys, "verify", str(path), "--kind", "frame") \
            == (1, want, "")
        # the witness comes from the certifying pass itself, which forms
        # no Gram matrix
        assert gram_calls == {"gram": 0, "entry": 0}

    td = tmp_path / "td34.design"
    run(capsys, "design", "td", "3", "4", "-o", str(td))
    gram_calls.update(gram=0)
    code, line, _ = run(capsys, "build", "mols-etf", "--td", str(td),
                        "--hadamard", "sylvester:2", "--variant",
                        "centered", "-o", str(tmp_path / "tdtf.frame"))
    assert (code, line) == (0, "TDTF D=9 N=16 s=9 values=1,-3")
    assert gram_calls["gram"] == 0


def test_verify_tdtf_needs_equal_norms(tmp_path, capsys):
    # tight (frame operator 5I) and two-distance, but the norms differ
    path = tmp_path / "unequal.frame"
    path.write_text("FRAME 1 2 4\n1 | 0 | 2 | 0\n0 | 1 | 0 | 2\n")
    code, line, _ = run(capsys, "verify", str(path), "--kind", "frame")
    assert code == 1
    assert line == ("fail: Gram entry (2, 2) = (4,) breaks equal norms "
                    "(entry (0, 0) = (1,))")


def test_verify_duplicated_block(tmp_path, capsys):
    td = tmp_path / "td33.design"
    run(capsys, "design", "td", "3", "3", "-o", str(td))
    lines = td.read_text().splitlines()
    lines[2] = lines[1]
    td.write_text("\n".join(lines) + "\n")
    code, line, _ = run(capsys, "verify", str(td), "--kind", "design")
    assert code == 1 and "covered more than once" in line


@pytest.mark.parametrize("later_fault", [False, True])
def test_verify_pins_the_duplicated_block(tmp_path, capsys, later_fault):
    # block 5 of TD(3,3) replaced by block 2; with block 7 meeting a group
    # twice, the duplicate before it is still the first failure
    td = tmp_path / "td33.design"
    run(capsys, "design", "td", "3", "3", "-o", str(td))
    lines = td.read_text().splitlines()
    lines[1 + 5] = lines[1 + 2]
    if later_fault:
        lines[1 + 7] = "0 1 6"
    td.write_text("\n".join(lines) + "\n")
    assert run(capsys, "verify", str(td), "--kind", "design") == (
        1, "fail: block 5 duplicates an earlier block; pair (0, 5) is "
           "covered more than once", "")



@pytest.mark.parametrize("base", [("td", "3", "3"), ("sts", "7")])
@pytest.mark.parametrize("command", ["steiner", "gdd-etf", "product-outer",
                                     "product-inner", "fill-inner",
                                     "fill-outer"])
def test_commands_refuse_a_duplicated_block(tmp_path, capsys, base,
                                            command):
    # block 5 replaced by block 2, read where a command takes a design: it
    # fails as `verify` does, on stderr, and writes no output, also over
    # an output that exists
    bad, good = tmp_path / "bad.design", tmp_path / "good.design"
    run(capsys, "design", *base, "-o", str(bad))
    run(capsys, "design", "sts", "7", "-o", str(good))
    lines = bad.read_text().splitlines()
    lines[1 + 5] = lines[1 + 2]
    bad.write_text("\n".join(lines) + "\n")
    seed = tmp_path / "seed.frame"
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
        "-o", str(seed))
    argv = {
        "steiner": ["build", "steiner", "--bibd", bad, "--hadamard",
                    "sylvester:2"],
        "gdd-etf": ["build", "gdd-etf", "--seed", seed, "--gdd", bad,
                    "--he", "fourier:1", "--hf", "sylvester:2"],
        "product-outer": ["design", "product", bad, good],
        "product-inner": ["design", "product", good, bad],
        "fill-inner": ["design", "fill", bad, good],
        "fill-outer": ["design", "fill", good, bad],
    }[command]
    out = tmp_path / "out"
    argv = [str(x) for x in argv] + ["-o", str(out)]
    want = (1, "", "fail: block 5 duplicates an earlier block; pair (0, 5) "
                   "is covered more than once")
    assert run(capsys, *argv) == want
    assert not out.exists()
    out.write_bytes(b"kept\n")
    assert run(capsys, *argv) == want
    assert out.read_bytes() == b"kept\n"

def test_verify_hadamard_kind(tmp_path, capsys):
    # store a Hadamard matrix in the frame format and certify it
    from etfkit.fileio import serialize_frame
    from etfkit.frames import Frame
    from etfkit.hadamard import fourier

    path = tmp_path / "f5.frame"
    path.write_text(serialize_frame(Frame(fourier(5).mat)))
    code, line, _ = run(capsys, "verify", str(path), "--kind", "hadamard")
    assert code == 0 and "pass" in line
    ident = tmp_path / "i2.frame"
    ident.write_text(serialize_frame(
        Frame(CycMatrix.from_int_matrix([[1, 0], [0, 1]]))))
    code, line, _ = run(capsys, "verify", str(ident), "--kind", "hadamard")
    assert code == 1
    # a Frame refuses a zero column, so the Hadamard certifier reads the
    # matrix before any Frame is made, and names the entry
    path = tmp_path / "zero.frame"
    path.write_text("FRAME 2 2 2\n1 | 0\n1 | 0\n")
    assert run(capsys, "verify", str(path), "--kind", "hadamard") == (
        1, "Hadamard fail: entry (0, 1) is not unimodular: |.|^2 = (0,)", "")
    assert run(capsys, "verify", str(path), "--kind", "frame") == (
        2, "", "error: column 1 is zero")
    path.write_text("FRAME 2 2 2\n1 | 1\n1 | 1\n")
    assert run(capsys, "verify", str(path), "--kind", "hadamard") == (
        1, "Hadamard fail: H*H differs from nI", "")
    path.write_text("FRAME 2 2 3\n1 | 1 | -1\n1 | -1 | 1\n")
    assert run(capsys, "verify", str(path), "--kind", "hadamard") == (
        1, "Hadamard fail: matrix is 2x3", "")


# ---------------------------------------------------------------------------
# status


def test_status_lines(capsys):
    code, line, _ = run(capsys, "status", "4", "-1", "19")
    assert code == 0 and line.startswith("known-per-paper")
    code, line, _ = run(capsys, "status", "4", "-1", "4")
    assert code == 0 and line == "unknown"
    code, line, _ = run(capsys, "status", "14", "-1", "13")
    assert code == 0 and line == "unknown"
    code, _, err = run(capsys, "status", "4", "-1", "5")
    assert code == 2 and "error" in err
    assert run(capsys, "status", "3", "0", "5") == (
        2, "", "error: L must be +1 or -1")


# ---------------------------------------------------------------------------
# format round-trips


def test_design_round_trip(tmp_path, capsys):
    td = tmp_path / "td33.design"
    run(capsys, "design", "td", "3", "3", "-o", str(td))
    text = td.read_text()
    again = serialize_design(parse_design(text))
    assert again == text


def test_frame_round_trip(tmp_path, capsys):
    f = tmp_path / "mb3.frame"
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
        "-o", str(f))
    text = f.read_text()
    again = serialize_frame(parse_frame(text))
    assert again == text


def test_parse_design_rejects_garbage():
    with pytest.raises(FileFormatError):
        parse_design("nonsense\n")
    with pytest.raises(FileFormatError):
        parse_design("GDD 3 3 3 2\n0 3 6\n")
    with pytest.raises(DesignVerifyError):
        parse_design("GDD 3 3 3 2\n0 3 6\n0 3 6\n")


def test_parse_frame_rejects_garbage():
    with pytest.raises(FileFormatError):
        parse_frame("FRAME x 2 2\n")
    with pytest.raises(FileFormatError):
        parse_frame("FRAME 3 1 2\n1,0\n")


def test_parse_frame_checks_row_widths_before_allocating():
    # files of a few bytes whose headers promise 10^7 to 2 * 10^11
    # coefficients, read from bytes or from text: the block reader bounds
    # D N deg by the body's length before it allocates its int64 output,
    # and the line reader counts rows and entries before it allocates
    for text, message in [
        ("FRAME 1 1 10000000\n0\n", "row 0 has 1 entries, expected 10000000"),
        ("FRAME 2 2 100000000000\n1\n1\n",
         "row 0 has 1 entries, expected 100000000000"),
        ("FRAME 2 100000 1000\n1\n",
         "header promises 100000 rows, file has 1"),
        ("FRAME 2 1 100000000000\n1\n",
         "row 0 has 1 entries, expected 100000000000"),
    ]:
        for data in (text, text.encode()):
            tracemalloc.start()
            try:
                with pytest.raises(FileFormatError) as info:
                    parse_frame(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value) == message
            assert peak < 2**20


def test_parse_frame_counts_each_bar_as_one_separator():
    # "1 | 1 0| 1 | 1" has the separator bytes and the spaces of
    # "1 | 10 | 1 | 1": only the pairs " |" and "| " show that its second
    # "|" is not within a " | ", and the line reader then names the row
    bad = "FRAME 2 1 4\n1 | 1 0| 1 | 1\n"
    good = "FRAME 2 1 4\n1 | 10 | 1 | 1\n"
    for data in (bad, bad.encode()):
        with pytest.raises(FileFormatError) as info:
            parse_frame(data)
        assert str(info.value) == "row 0 has 3 entries, expected 4"
    for data in (good, good.encode()):
        assert parse_frame(data).synthesis.array.ravel().tolist() == \
            [1, 10, 1, 1]


def test_parse_frame_of_a_large_order_builds_no_ring_tables():
    # 4 KB: a 1x1 frame over Z[zeta_2003], whose degree is 2002
    text = "FRAME 2003 1 1\n" + ",".join(["1"] + ["0"] * 2001) + "\n"
    cyclo._ring.cache_clear()
    tracemalloc.start()
    try:
        frame = parse_frame(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.synthesis.array.tolist() == [[[1] + [0] * 2001]]
    assert peak < 64 * 2**20


@pytest.mark.parametrize("order", [2, 10, 30])         # deg 1, 4 and 8
def test_parse_frame_reads_the_files_etfkit_writes_block_by_block(
        order, monkeypatch):
    # a silent return to the line reader would keep every result and lose
    # the speed: the files etfkit writes never reach it, in one block or
    # in several, while a CRLF copy and a coefficient of 2^62 do
    real, calls = fileio._coefficients_by_line, []
    monkeypatch.setattr(fileio, "_coefficients_by_line",
                        lambda *args: calls.append(args) or real(*args))

    def read(data):
        calls.clear()
        return fileio._parse_matrix(data), len(calls)

    # int64 coefficients of up to 18 digits, most of them small
    rng = np.random.default_rng(order)
    shape = (7, 5, cyclo._ring(order).degree)
    arr = np.where(rng.random(shape) < 0.05,
                   rng.integers(-(10**18) + 1, 10**18, size=shape),
                   rng.integers(-3, 4, size=shape))
    arr[:, :, 0] += arr[:, :, 0] == 0               # no zero column
    frame = Frame(CycMatrix(order, arr))
    data = serialize_frame(frame).encode()
    # a line a block, about three lines a block, and one block
    for budget in (1, len(data) // 3, fileio._BLOCK_BYTES):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", budget)
        matrix, lines = read(data)
        assert lines == 0 and matrix.array.dtype == np.int64
        assert matrix == frame.synthesis
        matrix, lines = read(data.replace(b"\n", b"\r\n"))
        assert lines == 1 and matrix == frame.synthesis
    arr = arr.astype(object)
    arr[3, 2, 0] = 2**62
    frame = Frame(CycMatrix(order, arr))
    matrix, lines = read(serialize_frame(frame).encode())
    assert lines == 1 and matrix.array.dtype == object
    assert matrix == frame.synthesis


def test_a_refused_plain_body_is_not_read_by_the_block_reader_again(
        monkeypatch):
    # the lines of a plain file that join to the body the block reader has
    # just refused (less its last line end) go straight to the Python-int
    # path; lines that join to another body are read by it once more
    real, calls = fileio._int64_coefficients, []
    monkeypatch.setattr(fileio, "_int64_coefficients",
                        lambda *args: calls.append(args) or real(*args))
    frame = steiner_etf(design_module.steiner_triple_system(39),
                        hadamard_from_spec("paley1:19"))[0]
    assert (frame.d, frame.n) == (247, 780)
    arr = frame.synthesis.array.astype(object)
    arr[-1, -1, -1] = 2**62
    big = Frame(CycMatrix(frame.order, arr))
    text = serialize_frame(big)
    for data in (text, text.encode()):
        calls.clear()
        matrix = fileio._parse_matrix(data)
        assert len(calls) == 1 and matrix.array.dtype == object
        assert matrix == big.synthesis
    head, first, rest = serialize_frame(frame).split("\n", 2)
    for data in (f"{head}\n{first}\n\n{rest}", f"{head}\n{first}\n\n{rest}\n"):
        calls.clear()
        matrix = fileio._parse_matrix(data.encode())
        assert len(calls) == 2 and matrix.array.dtype == np.int64
        assert matrix == frame.synthesis


# Every FileFormatError of parse_frame, word for word; each check comes in
# this order, and within the body the first bad entry in row-major order
# wins, its coefficient count checked before its integers.
FRAME_ERRORS = [
    ("", "empty frame file"),
    ("FRAMES 2 1 1\n1\n", "bad frame header: 'FRAMES 2 1 1'"),
    ("FRAME 2 1\n1\n", "bad frame header: 'FRAME 2 1'"),
    ("FRAME 2 1 1 1\n1\n", "bad frame header: 'FRAME 2 1 1 1'"),
    ("FRAME x 2 2\n", "non-integer frame header: 'FRAME x 2 2'"),
    ("FRAME 2 1.0 1\n1\n", "non-integer frame header: 'FRAME 2 1.0 1'"),
    ("FRAME 0 1 1\n1\n", "frame dimensions must be positive"),
    ("FRAME 2 -1 1\n1\n", "frame dimensions must be positive"),
    ("FRAME 2 1 0\n1\n", "frame dimensions must be positive"),
    ("FRAME 2 2 1\n1\n", "header promises 2 rows, file has 1"),
    ("FRAME 2 1 1\n1\n \n2\n", "header promises 1 rows, file has 2"),
    ("FRAME 2 1 2\n1\n", "row 0 has 1 entries, expected 2"),
    ("FRAME 2 2 2\n1 | 1\n1 | 1 | 1\n", "row 1 has 3 entries, expected 2"),
    ("FRAME 2 2 2\n1 | 1,2,3\n1 | 1 | 1\n",
     "row 1 has 3 entries, expected 2"),
    ("FRAME 3 1 2\n1,0\n", "row 0 has 1 entries, expected 2"),
    ("FRAME 3 1 2\n1,0 | 1\n", "entry (0, 1) has 1 coefficients, expected 2"),
    ("FRAME 3 2 1\n1,0\n1,0,0\n",
     "entry (1, 0) has 3 coefficients, expected 2"),
    # as many commas as the entries need, in the wrong entries
    ("FRAME 3 1 2\n1,0,0 | 1\n",
     "entry (0, 0) has 3 coefficients, expected 2"),
    ("FRAME 3 2 1\n1\n1,0,0\n",
     "entry (0, 0) has 1 coefficients, expected 2"),
    ("FRAME 3 1 2\n1,0 | 1,x\n", "entry (0, 1) is not an integer vector"),
    ("FRAME 3 1 1\n1,\n", "entry (0, 0) is not an integer vector"),
    ("FRAME 2 1 1\n1.0\n", "entry (0, 0) is not an integer vector"),
    # a bare "|" inside an entry is not a separator
    ("FRAME 2 1 2\n1 | 2|3\n", "entry (0, 1) is not an integer vector"),
    ("FRAME 2 1 2\n1 | | 3\n", "entry (0, 1) is not an integer vector"),
    ("FRAME 3 1 2\n1|0 | 1,0\n", "entry (0, 0) has 1 coefficients, "
                                 "expected 2"),
    # the first bad entry wins, whichever check it fails
    ("FRAME 3 2 1\n1,x\n1\n", "entry (0, 0) is not an integer vector"),
    ("FRAME 3 2 1\n1\n1,x\n", "entry (0, 0) has 1 coefficients, expected 2"),
    ("FRAME 3 1 2\n1,x | 1,0,0\n", "entry (0, 0) is not an integer vector"),
    ("FRAME 2 1 2\n99999999999999999999 | x\n",
     "entry (0, 1) is not an integer vector"),
    # every line break of str.splitlines() ends a line, not only "\n"
    *((f"FRAME 2 2 2\n1 | 2{c}3\n5 | 6\n",
       "header promises 2 rows, file has 3")
      for c in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
]


@pytest.mark.parametrize("text, message", FRAME_ERRORS)
def test_parse_frame_error_messages_pinned(text, message):
    with pytest.raises(FileFormatError) as info:
        parse_frame(text)
    assert str(info.value) == message
    # and the same error from the text's bytes
    got, want = _from_bytes(_outcome, parse_frame, text)
    assert got == want == (FileFormatError, message)


# The frame parser and writer as they were when every entry was read and
# written one at a time: the oracles of the two properties below.

def _parse_frame_per_entry(text: str) -> Frame:
    lines = text.splitlines()
    if not lines:
        raise FileFormatError("empty frame file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "FRAME":
        raise FileFormatError(f"bad frame header: {lines[0]!r}")
    try:
        order, d, n = (int(x) for x in head[1:])
    except ValueError as exc:
        raise FileFormatError(f"non-integer frame header: {lines[0]!r}") \
            from exc
    if order < 1 or d < 1 or n < 1:
        raise FileFormatError("frame dimensions must be positive")
    deg = len(cyclotomic_polynomial(order)) - 1
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != d:
        raise FileFormatError(f"header promises {d} rows, file has {len(body)}")
    rows = [ln.split(" | ") for ln in body]
    for r, cells in enumerate(rows):
        if len(cells) != n:
            raise FileFormatError(
                f"row {r} has {len(cells)} entries, expected {n}")
    coeffs: list[int] = []
    for r, cells in enumerate(rows):
        for c, cell in enumerate(cells):
            parts = cell.split(",")
            if len(parts) != deg:
                raise FileFormatError(
                    f"entry ({r}, {c}) has {len(parts)} coefficients, "
                    f"expected {deg}")
            try:
                coeffs.extend(map(int, parts))
            except ValueError as exc:
                raise FileFormatError(
                    f"entry ({r}, {c}) is not an integer vector") from exc
    arr = np.array(coeffs, dtype=object).reshape(d, n, deg)
    return Frame(CycMatrix(order, arr, _copy=False))


def _serialize_frame_per_entry(frame: Frame) -> str:
    syn = frame.synthesis
    lines = [f"FRAME {syn.order} {frame.d} {frame.n}"]
    for row in syn.array.tolist():
        lines.append(" | ".join(",".join(map(str, cell)) for cell in row))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    """What parsing `text` gives: the exception's class and message, or the
    synthesis as its order, storage dtype and coefficients."""
    try:
        syn = parse(text).synthesis
    except Exception as exc:          # every exception is compared
        return type(exc), str(exc)
    return syn.order, syn.array.dtype, syn.array.tolist()


def _from_bytes(outcome, parse, text):
    """The outcome of parsing the UTF-8 bytes of `text`, and the outcome it
    must equal: that of parsing the text, or, for text that no UTF-8 file
    holds (a lone surrogate), the UnicodeDecodeError of reading them."""
    data = text.encode("utf-8", "surrogatepass")
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return outcome(parse, data), (UnicodeDecodeError, str(exc))
    return outcome(parse, data), outcome(parse, text)


def _matrix(order, rows):
    return CycMatrix(order, np.array(rows, dtype=object))


BIG = 2**63
VALID_FRAMES = [
    _serialize_frame_per_entry(Frame(m)) for m in (
        fourier(3).mat,                                   # deg 2
        fourier(5).mat,                                   # deg 4
        sylvester(2).mat,                                 # deg 1
        _matrix(16, [[[1, -2, 0, 3, 0, 0, 7, -1], [0] * 7 + [12]],
                     [[5] * 8, [-40, 0, 0, 0, 0, 0, 0, 1]]]),       # deg 8
        _matrix(2, [[[BIG], [-3]], [[5], [-BIG - 1]], [[BIG - 1], [0]]]),
        # 18 and 19 digits: the last tokens the byte path reads, the first
        # it leaves to Python ints
        _matrix(3, [[[10**18 - 1, -(10**17)], [-(10**18), 10**19 - 1]]]),
    )
]
MUTATION = settings(max_examples=400, deadline=None, derandomize=True,
                    database=None)


@MUTATION
@given(st.data())
def test_parse_frame_agrees_with_the_per_entry_parser(data):
    text = data.draw(st.sampled_from(VALID_FRAMES), label="frame")
    _, order, _, n = text.split("\n", 1)[0].split()
    width = int(n) * cyclo._ring(int(order)).degree
    # blocks of one line, of a few lines, or the whole frame, so that each
    # check of the block reader also runs in a block after the first
    block = data.draw(st.sampled_from([1, 8 * width, fileio._BLOCK_BYTES]),
                      label="block")
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        edit = data.draw(st.sampled_from(["insert", "delete", "replace",
                                          "move"]), label="edit")
        bars = [i for i in range(len(text)) if text.startswith(" | ", i)]
        if edit == "move" and bars:
            # one space of a " | " moves by one byte: "1 |2  | 3"
            at = data.draw(st.sampled_from(bars)) + data.draw(
                st.sampled_from([0, 2]))
            to = max(0, at + data.draw(st.sampled_from([-1, 1])))
            chars = list(text)
            chars.insert(to, chars.pop(at))
            text = "".join(chars)
            continue
        at = data.draw(st.sampled_from(range(len(text) + 1)), label="at")
        char = data.draw(st.sampled_from("0123456789,|-+ \nx\r\t"))
        tail = text[at + 1:] if edit != "insert" else text[at:]
        text = text[:at] + ("" if edit == "delete" else char) + tail
    with mock.patch.object(fileio, "_BLOCK_BYTES", block):
        assert _outcome(parse_frame, text) == \
            _outcome(_parse_frame_per_entry, text)
        got, want = _from_bytes(_outcome, parse_frame, text)
    assert got == want


COEFFICIENT = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([BIG - 1, -(BIG - 1), BIG, -BIG, 2**62, -(2**62)]),
    st.integers(-(10**19), 10**19))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_serialize_frame_writes_each_entry_as_before(data):
    order = data.draw(st.sampled_from([2, 3, 5, 15, 21]))  # deg 1 ... 12
    deg = cyclo._ring(order).degree
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    coeffs = data.draw(st.lists(COEFFICIENT, min_size=rows * cols * deg,
                                max_size=rows * cols * deg))
    arr = np.array(coeffs, dtype=object).reshape(rows, cols, deg)
    assume(arr.any(axis=(0, 2)).all())
    frame = Frame(CycMatrix(order, arr))
    # blocks of one row, of a few rows, or the whole frame
    block = data.draw(st.sampled_from([1, 2 * cols * deg, fileio._BLOCK]))
    with mock.patch.object(fileio, "_BLOCK", block):
        text = serialize_frame(frame)
        again = parse_frame(text).synthesis
    assert text == _serialize_frame_per_entry(frame)
    assert again == frame.synthesis
    assert again.array.dtype == frame.synthesis.array.dtype


# Tokens at the edges of the byte path: 18 digits at most, a "-" only in
# front, nothing but ASCII digits; everything else goes to int() or fails.
EDGE_TOKENS = [
    *(sign + lead + "0" * (k - 1) for k in (17, 18, 19, 20)
      for sign in ("", "-") for lead in ("1", "9")),
    *(str(sign * v) for v in (2**62 - 1, 2**62, 2**63 - 1, 2**63)
      for sign in (1, -1)),
    "-0", "007", "-", "--1", "1-2", "+5", " 5", "5 ", "1 2", "", "1_0",
    "\u0663", "1\u0663", "\u00b9", "\ud800",
]


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_parse_frame_reads_edge_tokens_as_the_per_entry_parser(token):
    for text in (f"FRAME 3 1 2\n1,0 | {token},1\n",
                 f"FRAME 2 2 1\n{token}\n1\n"):
        assert _outcome(parse_frame, text) == \
            _outcome(_parse_frame_per_entry, text)
        got, want = _from_bytes(_outcome, parse_frame, text)
        assert got == want


# Every FileFormatError of parse_design, word for word; each check comes in
# this order, and the first bad line wins, whichever check it fails.
DESIGN_ERRORS = [
    ("", "empty design file"),
    ("\n \n\t\n", "empty design file"),
    ("nonsense\n", "bad design header: 'nonsense'"),
    ("GDD 3 3 3\n", "bad design header: 'GDD 3 3 3'"),
    ("GDD 3 3 3 1 1\n0 3 6\n", "bad design header: 'GDD 3 3 3 1 1'"),
    ("GDD 3 3 3 x\n", "non-integer design header: 'GDD 3 3 3 x'"),
    ("GDD 3 3 3 1.0\n0 3 6\n", "non-integer design header: 'GDD 3 3 3 1.0'"),
    ("GDD 3 3 3 2\n0 3 6\n", "header promises 2 blocks, file has 1"),
    ("GDD 3 3 3 1\n0 3 6\n1 4 7\n", "header promises 1 blocks, file has 2"),
    ("GDD 3 3 3 1\n0 3 x\n", "non-integer block line: '0 3 x'"),
    ("GDD 3 3 3 1\n0 3 --6\n", "non-integer block line: '0 3 --6'"),
    ("GDD 3 3 3 1\n0 3\n", "block '0 3' has 2 vertices, expected 3"),
    ("GDD 3 3 3 1\n0  3 6 7\n", "block '0  3 6 7' has 4 vertices, expected 3"),
    ("GDD 3 3 3 1\n0 6 3\n", "block '0 6 3' is not sorted"),
    ("GDD 3 3 3 2\n0 6 3\n0 x 3\n", "block '0 6 3' is not sorted"),
    ("GDD 3 3 3 2\n0 3 6\n0 6 3\n", "block '0 6 3' is not sorted"),
    ("GDD 3 3 3 2\n0 3 6\n0 3\n", "block '0 3' has 2 vertices, expected 3"),
    # blank lines, other line breaks and non-ASCII text take the line reader
    ("\nGDD 3 3 3 1\n\n0 6 3\n", "block '0 6 3' is not sorted"),
    ("GDD 3 3 3 1\r\n0 6 3\r\n", "block '0 6 3' is not sorted"),
    ("GDD 3 3 3 1\n0 3 6\x0b1 4 7\n", "header promises 1 blocks, file has 2"),
    ("GDD 3 3 3 1\n0 \u0665 3\n", "block '0 \u0665 3' is not sorted"),
    ("GDD 3 3 3 1\n\u00e9 3 6\n", "non-integer block line: '\u00e9 3 6'"),
]


@pytest.mark.parametrize("text, message", DESIGN_ERRORS)
def test_parse_design_error_messages_pinned(text, message):
    with pytest.raises(FileFormatError) as info:
        parse_design(text)
    assert str(info.value) == message
    # and the same error from the text's bytes
    got, want = _from_bytes(_design_outcome, parse_design, text)
    assert got == want == (FileFormatError, message)


def _parse_design_per_line(text: str):
    """The design parser as it was when every line was read on its own:
    the oracle of the property below."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FileFormatError("empty design file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "GDD":
        raise FileFormatError(f"bad design header: {lines[0]!r}")
    try:
        k, u, m, b = (int(x) for x in head[1:])
    except ValueError as exc:
        raise FileFormatError(f"non-integer design header: {lines[0]!r}") \
            from exc
    if len(lines) - 1 != b:
        raise FileFormatError(
            f"header promises {b} blocks, file has {len(lines) - 1}")
    blocks = []
    for ln in lines[1:]:
        try:
            blk = tuple(int(x) for x in ln.split())
        except ValueError as exc:
            raise FileFormatError(f"non-integer block line: {ln!r}") from exc
        if len(blk) != k:
            raise FileFormatError(
                f"block {ln!r} has {len(blk)} vertices, expected {k}")
        if list(blk) != sorted(blk):
            raise FileFormatError(f"block {ln!r} is not sorted")
        blocks.append(blk)
    design = design_module.GroupDivisibleDesign(k, m, u, blocks)
    report = design_module.verify_gdd(design)
    if not report.ok:
        raise DesignVerifyError(report)
    return design


def _design_outcome(parse, text):
    """The exception's class and message, or the design's K, M, U and
    blocks."""
    try:
        d = parse(text)
    except Exception as exc:          # every exception is compared
        return type(exc), str(exc)
    return d.K, d.M, d.U, d.blocks.tolist()


VALID_DESIGNS = [
    "GDD 3 3 3 9\n0 3 6\n0 4 7\n0 5 8\n1 3 8\n1 4 6\n1 5 7\n2 3 7\n"
    "2 4 8\n2 5 6\n",
    "GDD 3 7 1 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n",
    "GDD 2 3 1 3\n0 1\n0 2\n1 2",                       # no final newline
]


@MUTATION
@given(st.data())
def test_parse_design_agrees_with_the_per_line_parser(data):
    text = data.draw(st.sampled_from(VALID_DESIGNS), label="design")
    # blocks of one line, of a few lines, or the whole design
    block = data.draw(st.sampled_from([1, 16, fileio._BLOCK_BYTES]),
                      label="block")
    for _ in range(data.draw(st.integers(1, 2), label="edits")):
        at = data.draw(st.sampled_from(range(len(text) + 1)), label="at")
        edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        char = data.draw(st.sampled_from("0123456789- \nx+\r\t"))
        tail = text[at + 1:] if edit != "insert" else text[at:]
        text = text[:at] + ("" if edit == "delete" else char) + tail
    with mock.patch.object(fileio, "_BLOCK_BYTES", block):
        assert _design_outcome(parse_design, text) == \
            _design_outcome(_parse_design_per_line, text)
        got, want = _from_bytes(_design_outcome, parse_design, text)
    assert got == want


@pytest.mark.parametrize("token", EDGE_TOKENS)
def test_parse_design_reads_edge_tokens_as_the_per_line_parser(token):
    for text in (f"GDD 2 3 1 3\n0 1\n0 2\n1 {token}\n",
                 f"GDD 2 3 1 3\n{token} 1\n0 2\n1 2\n"):
        assert _design_outcome(parse_design, text) == \
            _design_outcome(_parse_design_per_line, text)
        got, want = _from_bytes(_design_outcome, parse_design, text)
        assert got == want


def _read_text_outcome(outcome, parse, path):
    """The outcome of parsing what read_text reads from path."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return UnicodeDecodeError, str(exc)
    return outcome(parse, text)


@pytest.mark.parametrize("kind", ["frame", "design"])
def test_parse_reads_file_bytes_as_read_text_reads_them(tmp_path, kind):
    # CRLF and lone-CR line ends, a BOM, non-ASCII UTF-8 and bytes that are
    # not UTF-8: the parse of a file's bytes is the parse of the text
    # read_text gives, its error or the UnicodeDecodeError read_text raises
    outcome, parse, text = {
        "frame": (_outcome, parse_frame, VALID_FRAMES[1]),
        "design": (_design_outcome, parse_design, VALID_DESIGNS[0])}[kind]
    lf = text.encode()
    crlf, cr = lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r")
    head, body = lf.split(b"\n", 1)        # CRLF, then CR, then LF
    mixed = head + b"\r\n" + body.replace(b"\n", b"\r", 1)
    cases = {
        "crlf": crlf, "cr": cr, "mixed": mixed,
        "bom": b"\xef\xbb\xbf" + lf,
        "arabic-indic 0": text.replace("0", "\u0660", 1).encode(),
        "e acute": lf.replace(b"0", "\u00e9".encode(), 1),
        "0xff": lf[:20] + b"\xff" + lf[20:],
        "crlf 0xff": crlf[:-3] + b"\xff" + crlf[-3:],
        "cut short": lf + "\u20ac".encode()[:2],
    }
    want_lf = outcome(parse, text)
    assert want_lf[0] is not FileFormatError
    for name, data in cases.items():
        path = tmp_path / f"{name}.{kind}"
        path.write_bytes(data)
        got = outcome(parse, path.read_bytes())
        assert got == _read_text_outcome(outcome, parse, path), name
        if name in ("crlf", "cr", "mixed"):
            assert got == want_lf, name
        if "ff" in name or name == "cut short":
            assert got[0] is UnicodeDecodeError, name


def test_parse_design_peaks_below_the_dense_certificate(tmp_path, capsys):
    # the filled design of type 8^16: its (B, MU) incidence in int64 and
    # float64 made the parse peak at 3.41 MiB
    def path(name):
        return str(tmp_path / name)

    for argv in (("design", "td", "4", "8", "-o", path("td-4-8.design")),
                 ("design", "td", "4", "32", "-o", path("td-4-32.design")),
                 ("design", "fill", path("td-4-8.design"),
                  path("td-4-32.design"), "-o", path("fill.design"))):
        assert run(capsys, *argv)[0] == 0
    text = Path(path("fill.design")).read_text()
    tracemalloc.start()
    try:
        design = parse_design(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert serialize_design(design) == text
    assert peak < 1 * 2**20


@pytest.mark.parametrize("argv, code, line", [
    (("design", "affine", "1000000007", "-o"), 2,
     "error: field size 1000000007 exceeds table limit"),
    (("build", "simplex", "4", "--hadamard", "paley1:1000000007", "-o"), 2,
     "error: field size 1000000007 exceeds table limit"),
    (("status", "1000000008", "1", "1000000009"), 0,
     "asymptotic (Steiner family, block size 1000000008, at sufficiently "
     "large S)"),
    # K = (10^9 + 7)^2 + 1: K - 1 is a square of a prime, which trial
    # division to its square root took more than 5 s to find
    (("status", "1000000014000000050", "1", "1000000014000000051"), 0,
     "asymptotic (Steiner family, block size 1000000014000000050, at "
     "sufficiently large S)"),
    # K = 2^89 - 1 is past where Miller-Rabin with 13 bases is exact
    (("status", str(2**89 - 1), "1", str(2**89)), 2,
     f"error: cannot decide whether {2**89 - 1} is prime: past "
     f"3317044064679887385961981, where the test is exact"),
])
def test_large_prime_parameters_answer_in_under_a_second(
        tmp_path, capsys, argv, code, line):
    # a field is bounded before its size is factored, and a prime power is
    # found by integer roots and Miller-Rabin, not by trial division
    if argv[-1] == "-o":
        argv += (str(tmp_path / "out"),)
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert got == code
    assert (out if code == 0 else err).splitlines() == [line]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("status, design, error", [
    (("98", "1", "98"), ("projective", "97"),
     "design has 45186771 vertex pairs to certify, more than 33554432"),
    (("97", "1", "98"), ("affine", "97"),
     "design has 44259936 vertex pairs to certify, more than 33554432"),
    (("3", "1", "4096"), ("sts", "8193"),
     "design has 33558528 vertex pairs to certify, more than 33554432"),
    (("8192", "1", "8193"), ("affine", "8192"),
     "field size 8192 exceeds table limit"),
])
def test_status_does_not_claim_a_design_the_builders_refuse(
        tmp_path, capsys, status, design, error):
    # the design is refused before its blocks are built: PG(2, 97) and the
    # Steiner triple system on 8193 points took 5 s and 2 GiB to build
    code, out, _ = run(capsys, "status", *status)
    assert code == 0 and out.startswith("known-per-paper (")
    start = time.perf_counter()
    code, out, err = run(capsys, "design", *design, "-o",
                         str(tmp_path / "out"))
    assert time.perf_counter() - start < 1
    assert (code, out, err.splitlines()) == (2, "", [f"error: {error}"])
    assert not (tmp_path / "out").exists()


def test_design_td_is_refused_before_its_field_is_built(tmp_path, capsys):
    # TD(4, 4096) has more than 2^25 vertex pairs; building GF(4096) first
    # took 6 s and 548 MiB before anything refused it
    start = time.perf_counter()
    code, out, err = run(capsys, "design", "td", "4", "4096", "-o",
                         str(tmp_path / "out"))
    assert time.perf_counter() - start < 1
    assert (code, out, err.splitlines()) == (2, "", [
        "error: design has 100663296 vertex pairs to certify, "
        "more than 33554432"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, error", [
    (("simplex", "4", "--hadamard", "paley2:4093"),
     "Hadamard matrix must have size 4, got 8188"),
    (("simplex", "4", "--hadamard", "fourier:400"),
     "Hadamard matrix must have size 4, got 400"),
    (("simplex", "4", "--hadamard", "paley1:4091"),
     "Hadamard matrix must have size 4, got 4092"),
    (("simplex", "4", "--hadamard", "sylvester:12"),
     "Hadamard matrix must have size 4, got 4096"),
    (("simplex", "4", "--hadamard", f"sylvester:{10**12}"),
     f"Hadamard matrix must have size 4, got 2^{10**12}"),
    (("steiner", "--bibd", "affine-2.design", "--hadamard", "fourier:5"),
     "Hadamard matrix must have size 4, got 5"),
    (("mols-etf", "--td", "td-3-4.design", "--hadamard", "fourier:3"),
     "Hadamard matrix must have size 4, got 3"),
    (("gdd-etf", "--seed", "seed.frame", "--gdd", "td-3-3.design",
      "--he", "sylvester:1", "--hf", "sylvester:2"),
     "inner Hadamard matrix must have size 1, got 2"),
    (("gdd-etf", "--seed", "seed.frame", "--gdd", "td-3-3.design",
      "--he", "fourier:1", "--hf", "fourier:5"),
     "outer Hadamard matrix must have size 4, got 5"),
])
def test_hadamard_size_is_refused_before_the_matrix_is_built(
        tmp_path, capsys, monkeypatch, argv, error):
    # each simplex spec built and certified its whole matrix before the
    # size was compared: sylvester:12 took 3.3 s at 1084 MiB peak RSS
    for argv_in in (("design", "affine", "2"), ("design", "td", "3", "4"),
                    ("design", "td", "3", "3")):
        name = "-".join(argv_in[1:]) + ".design"
        run(capsys, *argv_in, "-o", str(tmp_path / name))
    run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3", "-o",
        str(tmp_path / "seed.frame"))

    def called(*args):
        raise AssertionError("a Hadamard generator ran")

    for name in ("_field_for", "sylvester", "paley_i", "paley_ii", "fourier",
                 "dephase"):
        monkeypatch.setattr(cli, name, called)
    argv = tuple(str(tmp_path / a) if a.endswith((".design", ".frame"))
                 else a for a in argv)
    out = tmp_path / "out.frame"
    for old in (None, b"an earlier output\n" * 1000):  # none, then one
        if old is not None:
            out.write_bytes(old)
        assert run(capsys, "build", *argv, "-o", str(out)) == (
            2, "", f"error: {error}")
        assert (out.read_bytes() if out.exists() else None) == old


def test_hadamard_spec_faults_keep_their_messages(tmp_path, capsys):
    # a spec of the right size, or none, that is at fault by itself is
    # refused as before the size check, and the output is left as it was
    out = tmp_path / "out.frame"
    out.write_bytes(b"an earlier output\n" * 1000)
    for n, spec, error in (
            (4, "sylvester:-1", "exponent must be nonnegative"),
            (4, "fourier", "Hadamard spec needs a parameter: 'fourier'"),
            (4, "fourier:x", "non-integer Hadamard parameter: 'fourier:x'"),
            (4, "hadamard:4", "unknown Hadamard family 'hadamard'"),
            (6, "paley1:5", "Paley type I needs q = 3 (mod 4), got 5"),
            (4, "paley2:1", "1 is not a prime power"),
            (0, "fourier:0", "size must be positive")):
        assert run(capsys, "build", "simplex", str(n), "--hadamard", spec,
                   "-o", str(out)) == (2, "", f"error: {error}")
        assert out.read_bytes() == b"an earlier output\n" * 1000


def test_totient_matches_the_cyclotomic_degree():
    for n in range(1, 400):
        assert fileio._totient(n) == len(cyclotomic_polynomial(n)) - 1, n
    assert fileio._totient(2**40 - 87) == 2**40 - 88


def test_verify_rejects_a_design_of_too_many_pairs(tmp_path, capsys):
    # 109 KB: one block of 20000 vertices, whose X*X was 3.2 GB of int64
    path = tmp_path / "hostile.design"
    path.write_text("GDD 20000 20000 1 1\n"
                    + " ".join(map(str, range(20000))) + "\n")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", str(path), "--kind", "design")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: design has 199990000 vertex pairs "
                                "to certify, more than 33554432"]
    assert peak < 16 * 2**20


def _random_matrix(rng, order, d, n):
    """int64 coefficients of every length from 1 to 18 digits, the most the
    block reader takes, both signs, no zero column."""
    shape = (d, n, cyclo._ring(order).degree)
    mag = rng.integers(1, 10**18, size=shape) >> rng.integers(0, 60, shape)
    sign = rng.choice([-1, 1], size=shape)
    return CycMatrix(order, np.maximum(mag, 1) * sign)


def _with_token(text, r, c, token):
    lines = text.splitlines()
    cells = lines[1 + r].split(" | ")
    cells[c] = ",".join([token] + cells[c].split(",")[1:])
    lines[1 + r] = " | ".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d, n, order", [
    (150, 500, 3),               # lines of about 11 KB, several a block
    (3, fileio._BLOCK + 7, 2),   # each line longer than a block
])
def test_parse_frame_reads_rows_across_blocks(monkeypatch, d, n, order):
    width = n * cyclo._ring(order).degree
    frame = Frame(_random_matrix(np.random.default_rng(d), order, d, n))
    text = _serialize_frame_per_entry(frame)
    assert serialize_frame(frame) == text
    real, tokens = fileio._int64_tokens, []

    def spy(buf, end, out):
        tokens.append(out.size)
        return real(buf, end, out)

    monkeypatch.setattr(fileio, "_int64_tokens", spy)
    assert parse_frame(text).synthesis == frame.synthesis
    # read by the block reader, in blocks of whole rows
    assert len(tokens) > 1 and sum(tokens) == d * width
    assert all(t % width == 0 for t in tokens)
    if 4 * n - 3 > fileio._BLOCK_BYTES:     # no line fits in a block
        assert tokens == [width] * d
    # one bad token in the last block: 19 digits, or not an integer
    for token in ("-" + "9" * 19, "0" * 19, "x"):
        bad = _with_token(text, d - 1, n - 1, token)
        assert _outcome(parse_frame, bad) == \
            _outcome(_parse_frame_per_entry, bad)


def test_serialize_frame_writes_every_digit_count_as_before(monkeypatch):
    values = [sign * v for k in range(1, 19)
              for v in (10**(k - 1), 10**k - 1) for sign in (1, -1)]
    values += [10**18, -(10**18), 2**62 - 1, -(2**62 - 1)]   # 19 digits
    values += [0, 0, -1, 1]
    for order, shape in ((2, (8, 10, 1)), (5, (4, 5, 4)), (21, (2, 4, 12))):
        arr = np.resize(np.array(values), prod(shape)).reshape(shape)
        frame = Frame(CycMatrix(order, arr))
        assert frame.synthesis.array.dtype == np.int64
        want = _serialize_frame_per_entry(frame)
        for block in (fileio._BLOCK, 1, 2 * shape[1] * shape[2]):
            monkeypatch.setattr(fileio, "_BLOCK", block)
            assert serialize_frame(frame) == want
        monkeypatch.undo()
    for k in range(19):                  # the largest coefficient is 10^k
        frame = Frame(CycMatrix(2, np.array([[[10**k], [-3]]])))
        assert serialize_frame(frame) == _serialize_frame_per_entry(frame)


def _serialize_design_per_line(design) -> str:
    return "".join([f"GDD {design.K} {design.U} {design.M} {design.B}\n"]
                   + [" ".join(map(str, blk)) + "\n"
                      for blk in design.blocks.tolist()])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_serialize_design_writes_each_line_as_before(data):
    # the writer takes any int64 rows; serialize_design does not certify
    k, b = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 6))
    label = st.one_of(st.integers(0, 40), st.integers(-40, 2**62 - 1))
    blocks = data.draw(st.lists(st.lists(label, min_size=k, max_size=k),
                                min_size=b, max_size=b))
    design = design_module.GroupDivisibleDesign(k, 3, 7, blocks)
    block = data.draw(st.sampled_from([1, 2 * k, fileio._BLOCK]))
    with mock.patch.object(fileio, "_BLOCK", block):
        text = serialize_design(design)
    assert text == _serialize_design_per_line(design)


def _streamed(tmp_path, capsys):
    """The design and frames etfkit writes, each beside what the library's
    serializer gives for the same object."""
    sts7, etf, simplex = (tmp_path / name for name in
                          ("sts7.design", "etf7x28.frame", "mb3.frame"))
    assert run(capsys, "design", "sts", "7", "-o", str(sts7))[0] == 0
    assert run(capsys, "build", "steiner", "--bibd", str(sts7),
               "--hadamard", "sylvester:2", "-o", str(etf))[0] == 0
    assert run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
               "-o", str(simplex))[0] == 0
    design = design_module.steiner_triple_system(7)
    return [
        (sts7, serialize_design(design)),
        (etf, serialize_frame(
            steiner_etf(design, hadamard_from_spec("sylvester:2"))[0])),
        (simplex, serialize_frame(
            regular_simplex(3, hadamard_from_spec("fourier:3"))[0])),
    ]


def test_cli_writes_the_bytes_of_the_serializers(tmp_path, capsys,
                                                 monkeypatch):
    # whole files, and files streamed a row at a time
    for block in (fileio._BLOCK, 1):
        monkeypatch.setattr(fileio, "_BLOCK", block)
        for path, text in _streamed(tmp_path, capsys):
            assert path.read_bytes() == text.encode(), (block, path.name)


_OUTPUTS = [
    ("design", "sts", "7"),                               # 7 rows
    ("build", "simplex", "5", "--hadamard", "fourier:5"),  # 4 rows
]


@pytest.mark.parametrize("argv", _OUTPUTS)
def test_memory_error_while_writing_leaves_no_file(tmp_path, capsys,
                                                   monkeypatch, argv):
    # a row a block: two blocks are made, and making the third runs out of
    # memory while the file is open
    out = tmp_path / "out"
    real, made = fileio._cells, []

    def cells(*args):
        if len(made) == 2:
            assert out.exists()
            raise MemoryError
        made.append(args)
        return real(*args)

    monkeypatch.setattr(fileio, "_BLOCK", 1)
    monkeypatch.setattr(fileio, "_cells", cells)
    # no output yet, and an output longer than the new file
    for old in (None, b"9 9 9\n" * 1000):
        if old is not None:
            out.write_bytes(old)
        made.clear()
        assert run(capsys, *argv, "-o", str(out)) == (
            2, "", "error: out of memory")
        assert len(made) == 2 and not out.exists()


@pytest.mark.parametrize("argv", _OUTPUTS, ids=["design", "frame"])
def test_an_existing_output_holds_exactly_the_new_bytes(tmp_path, capsys,
                                                        argv):
    # rewritten in place, then cut: an old file longer than the new one (by
    # more than a write buffer), one as long, and one shorter
    fresh, out = tmp_path / "fresh", tmp_path / "out"
    first = run(capsys, *argv, "-o", str(fresh))
    want = fresh.read_bytes()
    assert first[0] == 0 and first[1]
    for old in (want + b"9" * 2**17, b"#" * len(want), want[:len(want) // 2]):
        out.write_bytes(old)
        assert run(capsys, *argv, "-o", str(out)) == first
        assert out.read_bytes() == want, len(old)


@pytest.mark.parametrize("argv", _OUTPUTS, ids=["design", "frame"])
def test_dev_null_takes_an_output(tmp_path, capsys, argv):
    # a character device is written, not cut
    first = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert first[0] == 0 and first[1]
    assert run(capsys, *argv, "-o", os.devnull) == first


@pytest.mark.parametrize("argv", _OUTPUTS, ids=["design", "frame"])
def test_a_dangling_symlink_output_is_followed(tmp_path, capsys, argv):
    # the link's target is made; a link into a missing directory and a
    # path in one are refused with one error line
    fresh = tmp_path / "fresh"
    first = run(capsys, *argv, "-o", str(fresh))
    link, target = tmp_path / "out", tmp_path / "target"
    link.symlink_to(target)
    assert run(capsys, *argv, "-o", str(link)) == first
    assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()
    lost = tmp_path / "lost"
    lost.symlink_to(tmp_path / "nodir" / "target")
    for path in (lost, tmp_path / "nodir" / "out"):
        assert run(capsys, *argv, "-o", str(path)) == (
            2, "", f"error: [Errno {errno.ENOENT}] "
                   f"{os.strerror(errno.ENOENT)}: {str(path)!r}")
    assert not (tmp_path / "nodir").exists()


def test_verify_reads_a_crlf_copy_as_the_file(tmp_path, capsys):
    # the CRLF copy of a frame and of a design certify as the LF files do
    for path, _ in _streamed(tmp_path, capsys):
        kind = path.suffix[1:]
        copy = tmp_path / f"crlf-{path.name}"
        copy.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        lf = run(capsys, "verify", str(path), "--kind", kind)
        assert lf[0] == 0 and lf[1]
        assert run(capsys, "verify", str(copy), "--kind", kind) == lf


def test_frame_text_peaks_within_the_text_output_and_a_block():
    # an order-2 frame of 300,000 entries of +-1 (4.5 bytes each); the
    # budget is 64 bytes for each coefficient of one block
    rng = np.random.default_rng(7)
    frame = Frame(CycMatrix(2, rng.choice([-1, 1], size=(300, 1000, 1))))
    text = serialize_frame(frame)
    budget = 64 * fileio._BLOCK
    # a parse holds the lines (the text again) and the int64 output; a write
    # holds its blocks and their join (twice the text, below text + int64
    # at under 8 bytes a token)
    bound = len(text) + 8 * frame.synthesis.array.size + budget
    tracemalloc.start()
    try:
        again = parse_frame(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]        # the parsed frame
        assert serialize_frame(again) == text
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert again.synthesis == frame.synthesis
    assert parse_peak < bound
    assert write_peak < bound


def test_parse_frame_checks_widths_before_building_the_ring():
    # 18 bytes over Z[zeta_30030]: building Phi_30030 took 75 s
    cyclotomic_polynomial.cache_clear()
    start = time.perf_counter()
    with pytest.raises(FileFormatError) as info:
        parse_frame("FRAME 30030 1 1\n0\n")
    assert time.perf_counter() - start < 1
    assert str(info.value) == "entry (0, 0) has 1 coefficients, expected 5760"
    assert cyclotomic_polynomial.cache_info().currsize == 0


def test_parse_frame_bounds_the_order_by_the_file_size():
    # phi(n) >= sqrt(n / 2), so an entry of this file cannot hold phi(n)
    # coefficients; a prime order this large is not factored
    start = time.perf_counter()
    with pytest.raises(FileFormatError) as info:
        parse_frame(f"FRAME {10**40 + 1} 1 1\n0\n")
    assert str(info.value) == (f"order {10**40 + 1} needs more coefficients "
                               f"per entry than the file has characters")
    # below 2^40 the order is factored, at most 2^19 trial divisions
    p = 2**40 - 87                                  # the largest such prime
    with pytest.raises(FileFormatError) as info:
        parse_frame(f"FRAME {p} 1 1\n0\n")
    assert str(info.value) == \
        f"entry (0, 0) has 1 coefficients, expected {p - 1}"
    assert time.perf_counter() - start < 2


def test_memory_error_exits_2_with_one_error_line(capsys, monkeypatch):
    def exhausted(d, n):
        raise MemoryError

    monkeypatch.setattr(cli, "classify_type", exhausted)
    code, out, err = run(capsys, "classify", "6", "16")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: out of memory"]


def test_an_order_past_the_prime_ladder_exits_2(tmp_path, capsys,
                                                monkeypatch):
    # with no prime = 1 (mod n) on the ladder, the certifier's products
    # cannot run: one `error:` line and exit 2, not exit 1, the status of a
    # failed identity
    path = tmp_path / "mb3.frame"
    assert run(capsys, "build", "simplex", "3", "--hadamard", "fourier:3",
               "-o", str(path))[0] == 0
    cyclo._ring.cache_clear()
    monkeypatch.setattr(cyclo, "_ladder", lambda n, width: iter(()))
    try:
        code, out, err = run(capsys, "verify", str(path), "--kind", "frame")
    finally:
        cyclo._ring.cache_clear()
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: too few primes = 1 (mod 3) for an exact product of width 4"]


def test_an_order_past_the_prime_ladder_is_refused_before_its_constants(
        tmp_path, capsys):
    # n = 262147 is prime, so a 1 x 1 frame is 512 KB of coefficients; the
    # ladder of width 2^19 is empty there.  The certifier refuses it before
    # the ring's growth factors, which cost O(n d), are computed
    path = tmp_path / "one262147.frame"
    path.write_text("FRAME 262147 1 1\n1" + ",0" * 262145 + "\n")
    try:
        code, out, err = run(capsys, "verify", str(path), "--kind", "frame")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: too few primes = 1 (mod 262147) for an exact product of "
            "width 524288"]
        assert "conj_l1" not in vars(cyclo._ring(262147))
        assert "fold_l1" not in vars(cyclo._ring(262147))
    finally:
        cyclo._ring.cache_clear()
        cyclotomic_polynomial.cache_clear()


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
@pytest.mark.parametrize("kind", ["frame", "design"])
def test_other_line_breaks_read_as_the_line_reader_reads_them(brk, kind):
    # a line break other than "\n" in the header line, or in the body, where
    # the block readers refuse it: each file, as text and as bytes, gives
    # what it gives read line by line, the design or frame or the error.
    # Put in place of a line's "\n", the break gives the file itself
    if kind == "frame":
        text = _serialize_frame_per_entry(Frame(fourier(3).mat))
        parse, outcome = parse_frame, _outcome
    else:
        text, parse, outcome = VALID_DESIGNS[0], parse_design, _design_outcome
    want = outcome(parse, text)
    for line in (0, 1):                     # the header, the first row
        end = [i for i, c in enumerate(text) if c == "\n"][line]
        start = text.rfind("\n", 0, end) + 1
        for edited, same in ((text[:end] + brk + text[end + 1:], True),
                             (text[:end] + brk + text[end:], False),
                             (text[:start + 1] + brk + text[start + 1:],
                              False)):
            for data in (edited, edited.encode("ascii")):
                got = outcome(parse, data)
                with mock.patch.object(fileio, "_plain", return_value=None):
                    assert got == outcome(parse, data)
                if same:
                    assert got == want


def test_a_crlf_body_bounds_the_order_by_its_text():
    # read from bytes, each "\r\n" is one character: this file has 800,015
    # bytes but 400,015 characters, so an order past 2^40 and below 2 x
    # 800,015^2 is refused as the text bounds it, before it is factored
    order = 2**40 + 15
    data = b"FRAME %d 1 1\n0" % order + b"\r\n" * 400_000
    assert 2 * (len(data) - 400_000) ** 2 < 2**40 < order < 2 * len(data) ** 2
    with pytest.raises(FileFormatError) as info:
        parse_frame(data)
    assert str(info.value) == (f"order {order} needs more coefficients per "
                               f"entry than the file has characters")
