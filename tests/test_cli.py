"""CLI subcommands, text formats, and exit-code contract."""

import tracemalloc

import pytest

from etfkit import cyclo, frames
from etfkit.cli import main
from etfkit.cyclo import CycMatrix, CycScalar
from etfkit.designs import GroupDivisibleDesign
from etfkit.fileio import (
    DesignVerifyError,
    FileFormatError,
    parse_design,
    parse_frame,
    serialize_design,
    serialize_frame,
)


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
    code, _, err = run(capsys, "design", "td", "3", "6", "-o",
                       str(tmp_path / "x.design"))
    assert code == 2 and "prime power" in err


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


def test_each_command_certifies_each_design_once(tmp_path, capsys,
                                                 monkeypatch):
    # every incidence matrix a command computes, by design; a second one
    # for the same design would mean a second certification
    computed: dict[int, list] = {}
    real = GroupDivisibleDesign.incidence

    def recorded(self):
        x = real(self)
        arrays = computed.setdefault(id(self), [self])   # keeps self alive
        if all(x is not y for y in arrays[1:]):
            arrays.append(x)
        return x

    monkeypatch.setattr(GroupDivisibleDesign, "incidence", recorded)

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
        assert all(len(arrays) == 2 for arrays in computed.values()), argv


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
    not_tight.write_text("FRAME 1 2 2\n1 | 2\n2 | 1\n")
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
         "fail: frame is equal-norm and equiangular but not tight"),
    ]
    for path, want in cases:
        gram_calls.update(gram=0, entry=0)
        assert run(capsys, "verify", str(path), "--kind", "frame") \
            == (1, want, "")
        # the witness comes from the certifying pass itself
        assert gram_calls == {"gram": 1, "entry": 0}

    td = tmp_path / "td34.design"
    run(capsys, "design", "td", "3", "4", "-o", str(td))
    gram_calls.update(gram=0)
    code, line, _ = run(capsys, "build", "mols-etf", "--td", str(td),
                        "--hadamard", "sylvester:2", "--variant",
                        "centered", "-o", str(tmp_path / "tdtf.frame"))
    assert (code, line) == (0, "TDTF D=9 N=16 s=9 values=1,-3")
    assert gram_calls["gram"] == 1


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
    from etfkit.cyclo import CycMatrix
    ident.write_text(serialize_frame(Frame(CycMatrix.identity(2))))
    code, line, _ = run(capsys, "verify", str(ident), "--kind", "hadamard")
    assert code == 1


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
    # 21 bytes whose header promises ten million columns
    text = "FRAME 1 1 10000000\n0\n"
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="row 0 has 1 entries"):
            parse_frame(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    assert frame.synthesis.entry(0, 0) == CycScalar.one(2003)
    assert peak < 64 * 2**20
