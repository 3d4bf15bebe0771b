"""The one block reader of frame and design bodies: the outcomes of
a table of bodies as they were before the two formats shared it, the
blocks it cuts at line ends, its memory on a large design, and its
layout read of one-digit blocks against the token reader and the
line-by-line reader."""

import tracemalloc

import numpy as np
import pytest

from etfkit import designs, fileio
from etfkit.fileio import parse_design, parse_frame

STS7 = "GDD 3 7 1 7\n0 1 2\n0 3 4\n0 5 6\n1 3 6\n1 4 5\n2 3 5\n2 4 6\n"
K3 = "GDD 2 3 1 3\n0 1\n0 2\n1 2\n"
SIMPLEX3 = ("FRAME 3 3 3\n1,0 | 1,0 | 1,0\n1,0 | 0,1 | -1,-1\n"
            "1,0 | -1,-1 | 0,1\n")
SYLVESTER2 = ("FRAME 2 4 4\n1 | 1 | 1 | 1\n1 | -1 | 1 | -1\n1 | 1 | -1 | -1\n"
              "1 | -1 | -1 | 1\n")
ORDER5 = "FRAME 5 2 2\n1,-2,0,3 | 0,0,0,12\n0,1,0,0 | 5,0,0,-1\n"


def sub(text, old, new):
    """text with the first `old` replaced by `new`."""
    assert old in text
    return text.replace(old, new, 1)


DESIGNS = [
    ("valid", STS7), ("valid K=2", K3), ("valid K=1", "GDD 1 2 1 2\n0\n1\n"),
    ("no final newline", STS7[:-1]),
    ("comma", sub(STS7, "0 1 2", "0,1 2")),
    ("bar", sub(STS7, "1 3 6", "1 3|6")),
    ("bar spaced", sub(STS7, "1 3 6", "1 | 3 6")),
    ("tab", sub(STS7, "0 3 4", "0\t3 4")),
    ("two spaces", sub(STS7, "0 3 4", "0  3 4")),
    ("leading space", sub(STS7, "0 3 4", " 0 3 4")),
    ("trailing space", sub(STS7, "0 3 4", "0 3 4 ")),
    ("trailing space, last line", STS7[:-1] + " \n"),
    ("plus", sub(STS7, "2 4 6", "2 4 +6")),
    ("18 digits", sub(STS7, "2 4 6", "2 4 100000000000000000")),
    ("19 digits", sub(STS7, "2 4 6", "2 4 1000000000000000000")),
    ("past int64", sub(STS7, "2 4 6", "2 4 " + "9" * 19)),
    ("non-ASCII digit", sub(STS7, "0 5 6", "0 \u0665 6")),
    ("negative", sub(STS7, "0 1 2", "-1 1 2")),
    ("descending", sub(STS7, "1 4 5", "1 5 4")),
    ("CRLF", STS7.replace("\n", "\r\n")),
    ("blank line", sub(STS7, "0 3 4\n", "0 3 4\n\n")),
    ("blank line at the end", STS7 + "\n"),
    ("blank line after the header", sub(STS7, "7\n", "7\n\n")),
    ("spaces line", sub(STS7, "0 3 4\n", "0 3 4\n  \n")),
    ("header of 0 blocks, then lines", sub(STS7, "1 7\n", "1 0\n")),
    ("header of 0 blocks", "GDD 3 7 1 0\n"),
    ("header of 0 vertices a block", sub(STS7, "GDD 3", "GDD 0")),
    ("header promises more", sub(STS7, "1 7\n", "1 8\n")),
    ("header promises fewer", sub(STS7, "1 7\n", "1 6\n")),
    ("wrong width", sub(STS7, "1 3 6", "1 3 6 7")),
    ("header only, no newline", "GDD 3 7 1 7"),
    ("empty token", sub(STS7, "0 1 2", "0 1 -")),
]

FRAMES = [
    ("valid deg 2", SIMPLEX3), ("valid deg 1", SYLVESTER2),
    ("valid deg 4", ORDER5),
    ("no final newline", SIMPLEX3[:-1]),
    ("extra comma", sub(SIMPLEX3, "0,1 |", "0,,1 |")),
    ("comma for a bar", sub(SIMPLEX3, "1,0 | 0,1", "1,0 , 0,1")),
    ("bar in an entry", sub(SIMPLEX3, "-1,-1 | 0,1", "-1|-1 | 0,1")),
    ("bar unspaced", sub(SYLVESTER2, "1 | -1 | 1 | -1", "1 |-1 | 1 | -1")),
    ("tab", sub(SIMPLEX3, "1,0 | 0,1", "1,0\t| 0,1")),
    ("two spaces", sub(SIMPLEX3, "1,0 | 0,1", "1,0  | 0,1")),
    ("leading space", sub(SIMPLEX3, "\n1,0 | 0,1", "\n 1,0 | 0,1")),
    ("trailing space", sub(SIMPLEX3, "-1,-1\n", "-1,-1 \n")),
    ("space in a token", sub(ORDER5, "12", "1 2")),
    ("plus", sub(ORDER5, "5,0", "+5,0")),
    ("18 digits", sub(ORDER5, "12", "1" + "0" * 17)),
    ("19 digits", sub(ORDER5, "12", "1" + "0" * 18)),
    ("past int64", sub(ORDER5, "12", "9" * 19)),
    ("non-ASCII digit", sub(ORDER5, "12", "1\u0662")),
    ("CRLF", SIMPLEX3.replace("\n", "\r\n")),
    ("blank line", sub(SIMPLEX3, "1,0 | 1,0 | 1,0\n", "1,0 | 1,0 | 1,0\n\n")),
    ("blank line at the end", SIMPLEX3 + "\n"),
    ("spaces line",
     sub(SIMPLEX3, "1,0 | 1,0 | 1,0\n", "1,0 | 1,0 | 1,0\n \n")),
    ("too few coefficients", sub(ORDER5, "0,0,0,12", "0,0,12")),
    ("too few entries", sub(SIMPLEX3, "1,0 | -1,-1 | 0,1", "1,0 | -1,-1")),
    ("header promises more rows", sub(SIMPLEX3, "FRAME 3 3", "FRAME 3 4")),
    ("header promises fewer rows", sub(SIMPLEX3, "FRAME 3 3", "FRAME 3 2")),
    ("empty token", sub(ORDER5, "5,0", "-,0")),
    ("zero column", "FRAME 2 2 2\n1 | 0\n1 | 0\n"),
]

# the blocks and coefficients of the valid bodies above
STS7_OUT = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 6], [1, 4, 5], [2, 3, 5],
            [2, 4, 6]]
K3_OUT = [[0, 1], [0, 2], [1, 2]]
SIMPLEX3_OUT = [[[1, 0], [1, 0], [1, 0]], [[1, 0], [0, 1], [-1, -1]],
                [[1, 0], [-1, -1], [0, 1]]]
SYLVESTER2_OUT = [[[1], [1], [1], [1]], [[1], [-1], [1], [-1]],
                  [[1], [1], [-1], [-1]], [[1], [-1], [-1], [1]]]
ORDER5_OUT = [[[1, -2, 0, 3], [0, 0, 0, 12]], [[0, 1, 0, 0], [5, 0, 0, -1]]]

# What each body gave when designs were read by a reader of their own and
# frames by the block reader cut a row count at a time: the dtype and
# values of the blocks or the synthesis, or the exception's class and
# message.
RECORDED = {
    ('design', 'valid'): ('int64', STS7_OUT),
    ('design', 'valid K=2'): ('int64', K3_OUT),
    ('design', 'valid K=1'):
        ('DesignVerifyError',
         'design fails verification: parameters out of range: K=1, '
         'M=1, U=2'),
    ('design', 'no final newline'): ('int64', STS7_OUT),
    ('design', 'comma'):
        ('FileFormatError', "non-integer block line: '0,1 2'"),
    ('design', 'bar'): ('FileFormatError', "non-integer block line: '1 3|6'"),
    ('design', 'bar spaced'):
        ('FileFormatError', "non-integer block line: '1 | 3 6'"),
    ('design', 'tab'): ('int64', STS7_OUT),
    ('design', 'two spaces'): ('int64', STS7_OUT),
    ('design', 'leading space'): ('int64', STS7_OUT),
    ('design', 'trailing space'): ('int64', STS7_OUT),
    ('design', 'trailing space, last line'): ('int64', STS7_OUT),
    ('design', 'plus'): ('int64', STS7_OUT),
    ('design', '18 digits'):
        ('DesignVerifyError',
         'design fails verification: block 6 has a vertex outside 0..6'),
    ('design', '19 digits'):
        ('DesignVerifyError',
         'design fails verification: block 6 has a vertex outside 0..6'),
    ('design', 'past int64'):
        ('DesignError', 'blocks must be int64 rows of one size'),
    ('design', 'non-ASCII digit'): ('int64', STS7_OUT),
    ('design', 'negative'):
        ('DesignVerifyError',
         'design fails verification: block 0 has a vertex outside 0..6'),
    ('design', 'descending'):
        ('FileFormatError', "block '1 5 4' is not sorted"),
    ('design', 'CRLF'): ('int64', STS7_OUT),
    ('design', 'blank line'): ('int64', STS7_OUT),
    ('design', 'blank line at the end'): ('int64', STS7_OUT),
    ('design', 'blank line after the header'): ('int64', STS7_OUT),
    ('design', 'spaces line'): ('int64', STS7_OUT),
    ('design', 'header of 0 blocks, then lines'):
        ('FileFormatError', 'header promises 0 blocks, file has 7'),
    ('design', 'header of 0 blocks'):
        ('DesignVerifyError',
         'design fails verification: block count is 0, expected 7'),
    ('design', 'header of 0 vertices a block'):
        ('FileFormatError', "block '0 1 2' has 3 vertices, expected 0"),
    ('design', 'header promises more'):
        ('FileFormatError', 'header promises 8 blocks, file has 7'),
    ('design', 'header promises fewer'):
        ('FileFormatError', 'header promises 6 blocks, file has 7'),
    ('design', 'wrong width'):
        ('FileFormatError', "block '1 3 6 7' has 4 vertices, expected 3"),
    ('design', 'header only, no newline'):
        ('FileFormatError', 'header promises 7 blocks, file has 0'),
    ('design', 'empty token'):
        ('FileFormatError', "non-integer block line: '0 1 -'"),
    ('frame', 'valid deg 2'): ('int64', SIMPLEX3_OUT),
    ('frame', 'valid deg 1'): ('int64', SYLVESTER2_OUT),
    ('frame', 'valid deg 4'): ('int64', ORDER5_OUT),
    ('frame', 'no final newline'): ('int64', SIMPLEX3_OUT),
    ('frame', 'extra comma'):
        ('FileFormatError', 'entry (1, 1) has 3 coefficients, expected 2'),
    ('frame', 'comma for a bar'):
        ('FileFormatError', 'row 1 has 2 entries, expected 3'),
    ('frame', 'bar in an entry'):
        ('FileFormatError', 'entry (2, 1) has 1 coefficients, expected 2'),
    ('frame', 'bar unspaced'):
        ('FileFormatError', 'row 1 has 3 entries, expected 4'),
    ('frame', 'tab'): ('FileFormatError', 'row 1 has 2 entries, expected 3'),
    ('frame', 'two spaces'): ('int64', SIMPLEX3_OUT),
    ('frame', 'leading space'): ('int64', SIMPLEX3_OUT),
    ('frame', 'trailing space'): ('int64', SIMPLEX3_OUT),
    ('frame', 'space in a token'):
        ('FileFormatError', 'entry (0, 1) is not an integer vector'),
    ('frame', 'plus'): ('int64', ORDER5_OUT),
    ('frame', '18 digits'):
        ('int64', [[[1, -2, 0, 3], [0, 0, 0, 100000000000000000]], [[0, 1, 0,
         0], [5, 0, 0, -1]]]),
    ('frame', '19 digits'):
        ('int64', [[[1, -2, 0, 3], [0, 0, 0, 1000000000000000000]], [[0, 1, 0,
         0], [5, 0, 0, -1]]]),
    ('frame', 'past int64'):
        ('object', [[[1, -2, 0, 3], [0, 0, 0, 9999999999999999999]], [[0, 1, 0,
         0], [5, 0, 0, -1]]]),
    ('frame', 'non-ASCII digit'): ('int64', ORDER5_OUT),
    ('frame', 'CRLF'): ('int64', SIMPLEX3_OUT),
    ('frame', 'blank line'): ('int64', SIMPLEX3_OUT),
    ('frame', 'blank line at the end'): ('int64', SIMPLEX3_OUT),
    ('frame', 'spaces line'): ('int64', SIMPLEX3_OUT),
    ('frame', 'too few coefficients'):
        ('FileFormatError', 'entry (0, 1) has 3 coefficients, expected 4'),
    ('frame', 'too few entries'):
        ('FileFormatError', 'row 2 has 2 entries, expected 3'),
    ('frame', 'header promises more rows'):
        ('FileFormatError', 'header promises 4 rows, file has 3'),
    ('frame', 'header promises fewer rows'):
        ('FileFormatError', 'header promises 2 rows, file has 3'),
    ('frame', 'empty token'):
        ('FileFormatError', 'entry (1, 1) is not an integer vector'),
    ('frame', 'zero column'): ('FrameError', 'column 1 is zero'),
}


def _outcome(kind, data):
    parse = parse_design if kind == "design" else parse_frame
    try:
        got = parse(data)
    except Exception as exc:          # every exception is compared
        return type(exc).__name__, str(exc)
    arr = got.blocks if kind == "design" else got.synthesis.array
    return str(arr.dtype), arr.tolist()


@pytest.mark.parametrize("kind, name, text", [
    ("design", name, text) for name, text in DESIGNS] + [
    ("frame", name, text) for name, text in FRAMES])
def test_each_body_reads_as_it_did_before_the_reader_was_shared(
        kind, name, text, monkeypatch):
    # a line a block, a few lines a block, and the whole body in one
    want = RECORDED[kind, name]
    for budget in (1, 16, fileio._BLOCK_BYTES):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", budget)
        assert _outcome(kind, text) == want, budget
        assert _outcome(kind, text.encode()) == want, budget


# bodies the block reader refuses, read entry by entry, and their outcomes
WALKED = [
    ("count before integer", "FRAME 3 2 2\n1,0 | 1,2,3\nx,0 | 1,0\n",
     ("FileFormatError", "entry (0, 1) has 3 coefficients, expected 2")),
    ("bar in an entry", "FRAME 3 1 2\n1,0 | 1|2,0\n",
     ("FileFormatError", "entry (0, 1) is not an integer vector")),
    ("bar splits an entry", "FRAME 3 1 2\n1,0 | 2|3\n",
     ("FileFormatError", "entry (0, 1) has 1 coefficients, expected 2")),
    ("plus", "FRAME 3 1 2\n+5,0 | 1,2\n", ("int64", [[[5, 0], [1, 2]]])),
    ("non-ASCII digit", "FRAME 3 1 2\n\u0661,0 | 1,\u0662\n",
     ("int64", [[[1, 0], [1, 2]]])),
    ("19 digits", "FRAME 3 2 2\n1000000000000000000,0 | 1,2\n0,1 | -1,0\n",
     ("int64", [[[10**18, 0], [1, 2]], [[0, 1], [-1, 0]]])),
    ("past int64", "FRAME 3 2 2\n-" + "9" * 19 + ",0 | 1,2\n0,1 | -1,0\n",
     ("object", [[[-(10**19 - 1), 0], [1, 2]], [[0, 1], [-1, 0]]])),
    ("19 digits, blank lines",
     "FRAME 3 2 2\n\n1000000000000000000,0 | 1,2\n\n0,1 | -1,0\n\n",
     ("int64", [[[10**18, 0], [1, 2]], [[0, 1], [-1, 0]]])),
]


@pytest.mark.parametrize("name, text, want", WALKED,
                         ids=[name for name, _, _ in WALKED])
def test_a_refused_body_is_walked_entry_by_entry(name, text, want,
                                                 monkeypatch):
    # as bytes and as text, every block read of the body refuses it
    real, refusals = fileio._int64_coefficients, []

    def reader(*args):
        out = real(*args)
        refusals.append(out is None)
        return out

    monkeypatch.setattr(fileio, "_int64_coefficients", reader)
    for data in (text, text.encode()):
        refusals.clear()
        assert _outcome("frame", data) == want
        assert refusals and all(refusals)


def _cuts(monkeypatch, raw, d, n, deg, table, budget):
    """The coefficients of the body raw, d lines of n entries of deg
    tokens, read in blocks of `budget` bytes, and the lines of each block,
    by either reader; None and the blocks read up to the refusal when the
    body is refused."""
    real, real_one_digit, lines = (fileio._int64_tokens,
                                   fileio._one_digit_tokens, [])

    def tokens(buf, end, out):
        lines.append(end.size // (n * deg))
        return real(buf, end, out)

    def one_digit(block, comma, out):
        rows = real_one_digit(block, comma, out)
        if rows:
            lines.append(rows)
        return rows

    monkeypatch.setattr(fileio, "_int64_tokens", tokens)
    monkeypatch.setattr(fileio, "_one_digit_tokens", one_digit)
    monkeypatch.setattr(fileio, "_BLOCK_BYTES", budget)
    return fileio._int64_coefficients(raw, 0, d, n, deg, table), lines


def test_a_block_ends_at_the_last_line_end_within_the_budget(monkeypatch):
    # six design lines of 9 bytes each
    raw = b"".join(b"%d %d %d\n" % (i, i + 10, i + 20) for i in range(10, 16))
    want = [[i, i + 10, i + 20] for i in range(10, 16)]
    for budget, lines in [
            (8, [1] * 6),           # each line longer than the budget
            (9, [1] * 6),           # each block ends exactly at the budget
            (17, [1] * 6),
            (18, [2, 2, 2]),        # again exactly at the budget
            (19, [2, 2, 2]),
            (53, [5, 1]),
            (54, [6]), (1000, [6])]:
        out, cuts = _cuts(monkeypatch, raw, 6, 1, 3, fileio._DESIGN_TABLE,
                          budget)
        assert out.reshape(6, 3).tolist() == want
        assert cuts == lines, budget


def test_a_line_longer_than_the_budget_is_a_block_of_its_own(monkeypatch):
    raw = b"1 2 3\n" + b"100000 200000 300000\n" + b"4 5 6\n7 8 9\n"
    out, cuts = _cuts(monkeypatch, raw, 4, 1, 3, fileio._DESIGN_TABLE, 12)
    assert out.tolist() == [1, 2, 3, 100000, 200000, 300000, 4, 5, 6, 7, 8, 9]
    assert cuts == [1, 1, 2]
    # a frame row of 2 entries of 2 coefficients past the budget
    raw = b"1,2 | 3,4\n" + b"-500,600 | 700,-800\n" + b"9,0 | 0,9\n"
    out, cuts = _cuts(monkeypatch, raw, 3, 2, 2, fileio._FRAME_TABLE, 11)
    assert out.tolist() == [1, 2, 3, 4, -500, 600, 700, -800, 9, 0, 0, 9]
    assert cuts == [1, 1, 1]


@pytest.mark.parametrize("kind", ["design", "frame"])
def test_every_budget_reads_a_body_as_one_block_does(kind, monkeypatch):
    # every budget from a byte to the whole body, with and without the
    # last line end, and with a bad token in the last line: the blocks cut
    # are whole lines, and a refusal is one at every budget
    text, (d, n, deg), table = {
        "design": (STS7, (7, 1, 3), fileio._DESIGN_TABLE),
        "frame": (SIMPLEX3, (3, 3, 2), fileio._FRAME_TABLE)}[kind]
    body = text.split("\n", 1)[1].encode()
    want = RECORDED[kind, "valid" if kind == "design" else "valid deg 2"][1]
    want = np.array(want).ravel().tolist()
    bad = body[:-2] + b"x\n"
    for budget in range(1, len(body) + 2):
        for raw in (body, body[:-1]):
            out, cuts = _cuts(monkeypatch, raw, d, n, deg, table, budget)
            assert out.tolist() == want, budget
            assert sum(cuts) == d and min(cuts) >= 1
        out, cuts = _cuts(monkeypatch, bad, d, n, deg, table, budget)
        assert out is None


def test_reading_a_design_body_holds_its_blocks_and_one_block_of_bytes():
    # STS(1023), 174,251 blocks of 2 MB of text: the reader that read a
    # design body whole peaked at 31.3 MiB for these 3.99 MiB of blocks.
    # One block of _BLOCK_BYTES bytes holds at most _BLOCK_BYTES / 2
    # tokens, each with a few int64 temporaries; parse_design also holds
    # the design's own copy and the sorted pair keys of verify_gdd
    design = designs.steiner_triple_system(1023)
    data = fileio.serialize_design(design).encode()
    lo = data.find(b"\n") + 1
    size = design.blocks.nbytes
    tracemalloc.start()
    try:
        blocks = fileio._int64_coefficients(data, lo, design.B, 1, 3,
                                            fileio._DESIGN_TABLE)
        read_peak = tracemalloc.get_traced_memory()[1]
        del blocks
        tracemalloc.reset_peak()
        again = parse_design(data)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.blocks, design.blocks)
    assert read_peak < size + 32 * fileio._BLOCK_BYTES
    assert parse_peak < 3 * size


# A one-digit line of each format: the line's (1, n, deg), the byte table,
# the line, the kinds of its 2-byte units, each the offset of one unit in
# the line and the unit's two bytes, and the file's text before and after
# the line
ONE_DIGIT = {
    "frame": ((1, 2, 2), fileio._FRAME_TABLE, b"1,0 | 0,1\n",
              {"in an entry": (0, b"1,"), "before a bar": (2, b"0 "),
               "bar": (4, b"| "), "line end": (8, b"1\n")},
              b"FRAME 3 1 2\n", b""),
    "design": ((1, 1, 3), fileio._DESIGN_TABLE, b"0 1 2\n",
               {"in an entry": (0, b"0 "), "line end": (4, b"2\n")},
               b"GDD 3 7 1 7\n", STS7.encode().split(b"\n", 2)[2]),
}
# bytes that a body holds, or that its readers treat apart
NOTABLE = b"0123456789-,| \n\r\t\v+x\0\x7f\x80\xff"


def _no_one_digit(monkeypatch):
    """Read every block token by token from here on."""
    monkeypatch.setattr(fileio, "_one_digit_tokens", lambda *args: 0)


def _readers(monkeypatch, kind, text):
    """The outcome of a file read as it is, with the one-digit layout read
    off, and read line by line, the block reader off."""
    with monkeypatch.context() as m:
        got = [_outcome(kind, text)]
        _no_one_digit(m)
        got.append(_outcome(kind, text))
        m.setattr(fileio, "_int64_coefficients", lambda *args: None)
        got.append(_outcome(kind, text))
    return got


@pytest.mark.parametrize("kind, unit", [
    (kind, unit) for kind, (_, _, _, units, _, _) in ONE_DIGIT.items()
    for unit in units])
def test_each_unit_value_is_read_as_the_token_reader_reads_it(
        kind, unit, monkeypatch):
    # every 16-bit value at one unit of a one-digit line: the layout read
    # takes just those of a digit and the unit's own second byte (a bar:
    # just "| "; the line end: also "-" and a digit), and reads them as the
    # token reader does
    (d, n, deg), table, line, units, _, _ = ONE_DIGIT[kind]
    at, own = units[unit]
    comma = bytes([table[0].index(b",")])
    out = np.empty((d, n, deg), dtype=np.int64)
    body = bytearray(line)
    taken = []
    for value in range(2**16):
        body[at:at + 2] = value.to_bytes(2, "little")
        if fileio._one_digit_tokens(bytes(body), comma, out):
            taken.append(bytes(body[at:at + 2]))
            with monkeypatch.context() as m:
                _no_one_digit(m)
                want = fileio._int64_coefficients(bytes(body), 0, d, n, deg,
                                                  table)
            assert out.ravel().tolist() == want.tolist()
    want = ([own] if own[0] == ord("|") else
            [bytes([c, own[1]]) for c in b"0123456789"])
    if own[1] == ord("\n"):      # a negative last token, no last line end
        want += [bytes([ord("-"), c]) for c in b"0123456789"]
    assert sorted(taken) == sorted(want)


@pytest.mark.parametrize("kind", ["design", "frame"])
def test_notable_unit_values_read_alike_by_every_reader(kind, monkeypatch):
    # the unit's bytes drawn from those a body holds or that a reader
    # treats apart: the file reads the same, to the error's message, with
    # the layout read, without it, and line by line
    _, _, line, units, head, tail = ONE_DIGIT[kind]
    for at, _ in units.values():
        for a in NOTABLE:
            for b in NOTABLE:
                text = head + line[:at] + bytes([a, b]) + line[at + 2:] + tail
                got = _readers(monkeypatch, kind, text)
                assert got[0] == got[1] == got[2], text


# "-" at each place a token reader tells apart: before a 0, two before a
# digit, after one, alone before a ",", a " " or a line end, before a "|",
# and first or last in the body
MINUS_FRAMES = [
    sub(SIMPLEX3, "1,0 | 0,1", "-0,0 | 0,1"),
    sub(SIMPLEX3, "1,0 | 0,1", "1,0 | --0,1"),
    sub(SIMPLEX3, "1,0 | 0,1", "1-,0 | 0,1"),
    sub(SIMPLEX3, "1,0 | 0,1", "1,0- | 0,1"),
    sub(SIMPLEX3, "-1,-1\n1,0", "-1,-1-\n1,0"),
    sub(SIMPLEX3, "1,0 | 0,1", "1,0 | -,1"),
    sub(SIMPLEX3, "1,0 | 0,1", "1,- | 0,1"),
    sub(SIMPLEX3, "-1,-1\n1,0", "-1,-\n1,0"),
    sub(SIMPLEX3, "1,0 | 0,1", "1,0 -| 0,1"),
    SIMPLEX3 + "-", SIMPLEX3[:-1] + "-", SIMPLEX3[:-1] + "-\n",
    "-" + SIMPLEX3[SIMPLEX3.index("\n") + 1:],
    sub(SYLVESTER2, "1 | -1 | -1 | 1", "-1 | -1 | -0 | -1"),
    sub(SYLVESTER2, "1 | -1 | -1 | 1", "-1 | -1 | --0 | -1"),
]
MINUS_DESIGNS = [
    sub(STS7, "0 1 2", "-0 1 2"),
    sub(STS7, "0 1 2", "0 --1 2"),
    sub(STS7, "0 1 2", "0 1- 2"),
    sub(STS7, "0 1 2", "0 - 2"),
    sub(STS7, "0 1 2\n", "0 1 -\n"),
    sub(STS7, "0 1 2", "0 1 2-"),
    STS7 + "-", STS7[:-1] + "-",
]


@pytest.mark.parametrize("kind, text", [
    ("frame", text) for text in MINUS_FRAMES] + [
    ("design", text) for text in MINUS_DESIGNS])
def test_each_minus_reads_alike_by_every_reader(kind, text, monkeypatch):
    # at every block budget, a line a block up to the whole body
    for budget in range(1, len(text) + 2):
        monkeypatch.setattr(fileio, "_BLOCK_BYTES", budget)
        for data in (text, text.encode()):
            got = _readers(monkeypatch, kind, data)
            assert got[0] == got[1] == got[2], budget

