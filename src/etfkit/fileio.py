"""Line-based UTF-8 text formats for designs and frames.

Design files:
    GDD K U M B
    <B lines, each the K sorted vertex indices of one block>

Frame files:
    FRAME n D N
    <D lines of N entries separated by " | ", each entry the comma-separated
     canonical coefficient vector of length deg(Phi_n)>

Both formats round-trip losslessly; design files must additionally pass
verify_gdd to parse at all.

The parsers take a file's bytes or its text.  A plain file, ASCII with
the newline as its only line break, is read from its bytes as they are
(text is encoded once).  Bytes of any other file are decoded as
Path.read_text(encoding="utf-8") decodes them: strict UTF-8, so that a
file that is not UTF-8 raises the same UnicodeDecodeError, with "\r\n"
and a lone "\r" read as "\n".  Such a file is read line by line.

A design body is read as one (B, K) int64 array when the file is plain
and its body is B lines of K tokens -?[0-9]{1,18}, one space apart, each
line ascending.  Any other file, and a body that fails these checks, is
read line by line, so that an error names its first bad line.

A frame body is read whole, not entry by entry.  The header, the row
count and every row's width are checked before anything of the header's
size is allocated.  deg = phi(n) comes from the factorisation of n, so
Phi_n is built only by the CycMatrix that receives the coefficients, after
every check.  In a plain file the line ends are found by memchr, one pass
deletes every byte but the separators, which must be exactly those of D
lines of N entries of deg tokens (the expected separators are built only
after their count matches), and one count of " | " shows that each "|" is
a separator: "1 | 1 0| 1" has the separator bytes of "1 | 10 | 1".  Any
other file, and any that fails these checks, is split by str.splitlines()
and checked line by line, so that an error names the first line or entry
that breaks it whichever way the file was read.

The coefficients are then read as bytes, in blocks of whole rows of about
2^15 coefficients, so that no Python object is made per coefficient and
the temporaries are those of one block.  In a block, "|" and the line ends
become commas and the spaces of " | " are deleted; only the bytes 0-9, "-"
and "," may remain, and every token must match -?[0-9]{1,18}.  Such a
token is below 10^18 < 2^62, so it fits a CycMatrix's int64 storage; its
digits are summed column by column, one masked pass per digit of the
longest token.  When any token fails these checks (more digits, a "+", a
space, a non-ASCII digit, or no integer at all), the whole body is read
again as Python ints with int(), and CycMatrix narrows them to int64 where
they fit.  Only when int() fails too is the body walked entry by entry, to
name the first bad entry (r, c) in row-major order, its count checked
before its integers.

A file is written as ASCII bytes in the same blocks of whole rows, each
made only when the one before has been taken: serialize_frame and
serialize_design join them into a str, while the CLI writes each block to
its file as it is made.  In an int64 block every coefficient is written
right-aligned into a uint8 cell of one width, its "-", its digits (one
pass per digit of the longest token) and its separator slots ("," or " "
within a row, " | " between entries, the newline after the last), NUL
elsewhere; one bytes.translate deletes the NULs.  Python-int storage (a
coefficient at or above 2^62) is written one row at a time, each row
formatted from one list of Python ints.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .cyclo import CycMatrix, _prime_factors
from .designs import GddReport, GroupDivisibleDesign, verify_gdd
from .frames import Frame

__all__ = [
    "FileFormatError",
    "DesignVerifyError",
    "serialize_design",
    "parse_design",
    "serialize_frame",
    "parse_frame",
]


_TRIAL_DIVISION_LIMIT = 2**40     # at most 2^19 trial divisions
_BLOCK = 2**15                    # coefficients per block of whole rows
_MAX_DIGITS = 18                  # 10^18 < 2^62: such a token is stored int64
_POW10 = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)
# "|" and the line end become ",", and a byte no token holds becomes "x"
_SEPARATORS = bytes(c if c in b"0123456789-," else b","[0] if c in b"|\n"
                    else b"x"[0] for c in range(256))
# every byte but the separators ",", "|" and the line end
_TOKEN_BYTES = bytes(sorted(set(range(256)) - set(b",|\n")))
# the ASCII line breaks of str.splitlines() besides "\n"
_LINE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


class FileFormatError(ValueError):
    """Malformed design or frame text."""


class DesignVerifyError(ValueError):
    """A syntactically valid design file that fails certification."""

    def __init__(self, report: GddReport):
        super().__init__(f"design fails verification: {report.failure}")
        self.report = report


def serialize_design(design: GroupDivisibleDesign) -> str:
    return b"".join(_design_bytes(design)).decode("ascii")


def _design_header(design: GroupDivisibleDesign) -> str:
    return f"GDD {design.K} {design.U} {design.M} {design.B}"


def _design_bytes(design: GroupDivisibleDesign) -> Iterator[bytes]:
    """The design file in blocks of whole lines, each made when asked."""
    yield f"{_design_header(design)}\n".encode("ascii")
    blocks = design.blocks
    if blocks.size == 0:
        yield b"\n" * design.B
    else:
        yield from _int64_lines(blocks, blocks.shape[1], " ")


def parse_design(data: str | bytes) -> GroupDivisibleDesign:
    raw, lines = _plain(data), None
    if raw is not None:
        cut = raw.find(b"\n") % (len(raw) + 1)
        first = raw[:cut].decode("ascii")
    # any other file, and a plain one whose first line is blank, is read
    # line by line
    if raw is None or not first.strip():
        raw = None
        lines = [ln for ln in _text(data).splitlines() if ln.strip()]
        if not lines:
            raise FileFormatError("empty design file")
        first = lines[0]
    head = first.split()
    if len(head) != 5 or head[0] != "GDD":
        raise FileFormatError(f"bad design header: {first!r}")
    try:
        k, u, m, b = (int(x) for x in head[1:])
    except ValueError as exc:
        raise FileFormatError(f"non-integer design header: {first!r}") \
            from exc
    blocks = None if raw is None else _plain_blocks(raw[cut + 1:], k, b)
    if blocks is None:      # line by line, naming the first bad line
        if lines is None:
            lines = [ln for ln in _text(data).splitlines() if ln.strip()]
        if len(lines) - 1 != b:
            raise FileFormatError(
                f"header promises {b} blocks, file has {len(lines) - 1}")
        blocks = []
        for ln in lines[1:]:
            try:
                blk = tuple(int(x) for x in ln.split())
            except ValueError as exc:
                raise FileFormatError(f"non-integer block line: {ln!r}") \
                    from exc
            if len(blk) != k:
                raise FileFormatError(
                    f"block {ln!r} has {len(blk)} vertices, expected {k}")
            if list(blk) != sorted(blk):
                raise FileFormatError(f"block {ln!r} is not sorted")
            blocks.append(blk)
    design = GroupDivisibleDesign(k, m, u, blocks)
    report = verify_gdd(design)
    if not report.ok:
        raise DesignVerifyError(report)
    return design


def _plain(data: str | bytes) -> bytes | None:
    """The bytes of a plain file, which are read as they are: ASCII, with
    no line break but the newline.  None for any other file."""
    if not data.isascii():
        return None
    raw = data.encode("ascii") if isinstance(data, str) else data
    return None if any(b in raw for b in _LINE_BREAKS) else raw


def _text(data: str | bytes) -> str:
    """The text of a file as read_text(encoding="utf-8") reads it: strict
    UTF-8, with "\r\n" and "\r" read as "\n"."""
    if isinstance(data, str):
        return data
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _plain_blocks(body: bytes, k: int, b: int) -> np.ndarray | None:
    """The blocks of a plain body of b lines of k tokens -?[0-9]{1,18},
    one space apart, each line ascending; else None."""
    body += b"" if body.endswith(b"\n") else b"\n"
    seps = body.translate(None, b"0123456789-")
    if (k < 1 or b < 1 or len(seps) != b * k
            or seps != (b" " * (k - 1) + b"\n") * b):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    out = np.empty((b, k), dtype=np.int64)
    if not _int64_tokens(buf, np.flatnonzero(buf <= ord(" ")), out.ravel()):
        return None
    return None if (np.diff(out, axis=1) < 0).any() else out


def serialize_frame(frame: Frame) -> str:
    return b"".join(_frame_bytes(frame)).decode("ascii")


def _frame_bytes(frame: Frame) -> Iterator[bytes]:
    """The frame file in blocks of whole lines, each made when asked."""
    syn = frame.synthesis
    deg = syn.array.shape[2]
    rows = syn.array.reshape(frame.d, -1)
    yield f"FRAME {syn.order} {frame.d} {frame.n}\n".encode("ascii")
    if rows.dtype == np.int64:
        yield from _int64_lines(rows, deg, ",")
        return
    for row in rows:             # Python ints: formatted one row at a time
        tokens = map(str, row.tolist())
        if deg > 1:                      # each run of deg tokens is one entry
            tokens = map(",".join, zip(*[tokens] * deg))
        yield (" | ".join(tokens) + "\n").encode("ascii")


def _int64_lines(rows: np.ndarray, deg: int, comma: str) -> Iterator[bytes]:
    """The lines of int64 rows, each row's entries of deg coefficients
    joined by comma and the entries by " | ", in blocks of whole rows of
    about _BLOCK coefficients.

    Each coefficient is written right-aligned in a cell of one width, its
    sign and digits followed by the separator slots; the padding is NUL,
    and one translate per block deletes it."""
    width = rows.shape[1]
    # the separator after each coefficient of a row is comma within an
    # entry, " | " between entries and the line end after the last
    seps = np.zeros((width, 1 if deg == width else 3), dtype=np.uint8)
    seps[:, 0] = ord(comma)
    if deg < width:
        seps[deg - 1::deg] = np.frombuffer(b" | ", dtype=np.uint8)
    seps[-1] = 0
    seps[-1, 0] = ord("\n")
    step = max(1, _BLOCK // width)
    for r in range(0, rows.shape[0], step):
        yield _cells(rows[r:r + step], seps).tobytes().translate(None, b"\0")


def _cells(rows: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """A (rows, width, cell) uint8 array: each coefficient right-aligned,
    "-" before its digits when negative, then the separator slots seps;
    NUL elsewhere."""
    mag = np.abs(rows)                     # |coefficient| < 2^62
    neg = rows < 0
    ndig = len(str(int(mag.max())))
    tok = ndig + bool(neg.any())           # the widest token
    line = np.zeros((rows.shape[1], tok + seps.shape[1]), dtype=np.uint8)
    line[:, tok:] = seps
    cells = np.empty(rows.shape + line.shape[1:], dtype=np.uint8)
    cells[:] = line                        # one contiguous copy per row
    q, digit = np.divmod(mag, 10) if ndig > 1 else (None, mag)
    np.add(digit, ord("0"), out=cells[..., tok - 1], casting="unsafe")
    sign = neg                             # no "-" written yet
    for j in range(1, tok):                # one pass per digit or sign
        at = cells[..., tok - 1 - j]
        if j < ndig:
            more = q > 0                   # those with a digit j
            q, digit = np.divmod(q, 10)
            np.add(digit, ord("0"), out=at, where=more, casting="unsafe")
            at[sign & ~more] = ord("-")
            sign = sign & more
        else:
            at[sign] = ord("-")
    return cells


def _totient(n: int) -> int:
    """Euler's phi(n), the degree of Phi_n, by trial division."""
    phi = n
    for p in _prime_factors(n):
        phi -= phi // p
    return phi


def _first_bad_entry(body: str, deg: int) -> FileFormatError:
    """The error of the first entry, in row-major order, that does not hold
    deg integers; the coefficient count is checked before the integers."""
    for r, ln in enumerate(body.split("\n")):
        for c, cell in enumerate(ln.split(" | ")):
            parts = cell.split(",")
            if len(parts) != deg:
                return FileFormatError(
                    f"entry ({r}, {c}) has {len(parts)} coefficients, "
                    f"expected {deg}")
            try:
                for part in parts:
                    int(part)
            except ValueError:
                return FileFormatError(
                    f"entry ({r}, {c}) is not an integer vector")
    raise AssertionError("every entry holds deg integers")


def _separators_ok(raw: bytes, lo: int, hi: int, d: int, n: int,
                   deg: int) -> bool:
    """Whether the body raw[lo:hi], d lines after a header line holding no
    "," or "|", has the separators of lines of n entries of deg
    comma-separated tokens, in order; a "|" inside an entry is one too
    many.  One pass over the bytes: every other byte is deleted."""
    seps = raw.translate(None, _TOKEN_BYTES)
    tail = raw[hi:]                     # the last line's newline, if any
    if len(seps) != d * n * deg + len(tail):
        return False
    row = b"|".join([b"," * (deg - 1)] * n)
    return seps == b"\n".join([b""] + [row] * d) + tail


def _coefficients(raw: bytes, lo: int, ends: np.ndarray, n: int,
                  deg: int) -> np.ndarray:
    """Every coefficient of the body raw[lo:ends[-1]], whose line r ends at
    ends[r] and whose separators are those of n entries per line:
    int64, or Python ints when a token is not -?[0-9]{1,18}."""
    out = _int64_coefficients(raw, lo, ends, n, deg)
    if out is not None:
        return out
    body = raw[lo:ends[-1]].decode("utf-8", "surrogatepass")
    tokens = body.replace(" | ", ",").replace("\n", ",")
    try:
        return np.array([int(t) for t in tokens.split(",")], dtype=object)
    except ValueError:
        raise _first_bad_entry(body, deg) from None


def _int64_coefficients(raw: bytes, lo: int, ends: np.ndarray, n: int,
                        deg: int) -> np.ndarray | None:
    """The body's coefficients as int64, read in blocks of whole lines;
    None when a token is not -?[0-9]{1,18}.  Each line holds n - 1 " | "."""
    width = n * deg
    out = np.empty(ends.size * width, dtype=np.int64)
    step = max(1, _BLOCK // width)
    for r in range(0, ends.size, step):
        rows = min(step, ends.size - r)
        block = raw[lo if r == 0 else ends[r - 1] + 1:ends[r + rows - 1]]
        # each row holds n - 1 "|", each inside its own " | ": with no other
        # " ", deleting every " " leaves one separator per "|"
        kept = block.translate(_SEPARATORS, b" ")
        spaces = len(block) - len(kept)         # those the translate deleted
        block = kept + b","
        if spaces != 2 * rows * (n - 1) or b"x" in block:
            return None
        buf = np.frombuffer(block, dtype=np.uint8)
        if not _int64_tokens(buf, np.flatnonzero(buf == ord(",")),
                             out[r * width:(r + rows) * width]):
            return None
    return out


def _int64_tokens(buf: np.ndarray, end: np.ndarray, out: np.ndarray) -> bool:
    """Read into out the tokens of buf, which end at the separators at
    `end`, the first starting at 0, and whose other bytes are 0-9 and "-";
    False when a token is not -?[0-9]{1,18}."""
    start = np.empty_like(end)
    start[0] = 0
    np.add(end[:-1], 1, out=start[1:])
    neg = buf[start] == ord("-")
    ndig = end - start - neg
    if (np.count_nonzero(buf == ord("-")) != np.count_nonzero(neg)
            or ndig.min() < 1 or ndig.max() > _MAX_DIGITS):
        return False
    np.subtract(buf[end - 1], ord("0"), out=out)
    for j in range(1, int(ndig.max())):        # one masked pass per digit
        at = np.flatnonzero(ndig > j)
        out[at] += (buf[end[at] - 1 - j] - ord("0")) * _POW10[j - 1]
    np.negative(out, out=out, where=neg)
    return True


def _plain_lines(raw: bytes, lo: int, d: int, n: int,
                 deg: int) -> np.ndarray | None:
    """The line ends of a plain body raw[lo:], read as it is: ASCII, with
    no line break but the newline.  None unless it has d lines, each with
    the separators of n entries of deg tokens (n deg > 1, so no line is
    blank) and n - 1 " | ": then str.splitlines() gives the same lines, and
    each passes the width check."""
    hi = max(lo, len(raw) - raw.endswith(b"\n"))
    if n * deg == 1 or d > hi - lo + 1:
        return None
    ends = np.empty(d, dtype=np.int64)
    pos = lo
    for r in range(d - 1):                 # each newline, by memchr
        ends[r] = end = raw.find(b"\n", pos, hi)
        if end < 0:
            return None
        pos = end + 1
    ends[d - 1] = hi
    if not _separators_ok(raw, lo, hi, d, n, deg):   # a newline too many
        return None
    # the d (n - 1) "|" are those of the d (n - 1) " | ", which do not
    # overlap: each line holds n - 1 " | ", as it holds n - 1 "|"
    if raw.count(b" | ", lo, hi) != d * (n - 1):
        return None
    return ends


def parse_frame(data: str | bytes) -> Frame:
    return Frame(_parse_matrix(data))


def _parse_matrix(data: str | bytes) -> CycMatrix:
    """The matrix of a frame file, read before `Frame` checks its columns,
    so that a Hadamard file with a zero entry reaches its certifier."""
    if not data:
        raise FileFormatError("empty frame file")
    raw = _plain(data)
    lines = None
    if raw is None:
        text = _text(data)
        lines = text.splitlines()
        head_line = lines[0] if lines else ""
        size = len(text)
    else:
        head_line = raw[:raw.find(b"\n") % (len(raw) + 1)].decode("ascii")
        size = len(raw)
    head = head_line.split()
    if len(head) != 4 or head[0] != "FRAME":
        raise FileFormatError(f"bad frame header: {head_line!r}")
    try:
        order, d, n = (int(x) for x in head[1:])
    except ValueError as exc:
        raise FileFormatError(f"non-integer frame header: {head_line!r}") \
            from exc
    if order < 1 or d < 1 or n < 1:
        raise FileFormatError("frame dimensions must be positive")
    # phi(n) >= sqrt(n / 2), so past 2 size^2 no entry of a file of `size`
    # characters holds phi(n) coefficients; below it, trial division takes
    # about as many steps as the file has characters
    if order > max(2 * size ** 2, _TRIAL_DIVISION_LIMIT):
        raise FileFormatError(
            f"order {order} needs more coefficients per entry than the "
            f"file has characters")
    deg = _totient(order)
    lo = len(head_line) + 1
    ends = None if raw is None else _plain_lines(raw, lo, d, n, deg)
    if ends is None:
        # any other file is split into lines; each check, in order, names
        # the first line or entry that fails it
        if lines is None:
            lines = _text(data).splitlines()
        body = [ln for ln in lines[1:] if ln.strip()]
        if len(body) != d:
            raise FileFormatError(
                f"header promises {d} rows, file has {len(body)}")
        for r, ln in enumerate(body):        # before allocating anything
            width = ln.count(" | ") + 1
            if width != n:
                raise FileFormatError(
                    f"row {r} has {width} entries, expected {n}")
        raw = "\n".join([""] + body).encode("utf-8", "surrogatepass")
        lo = 1
        if not _separators_ok(raw, lo, len(raw), d, n, deg):
            raise _first_bad_entry(raw[lo:].decode("utf-8", "surrogatepass"),
                                   deg)
        ends = np.cumsum([len(ln.encode("utf-8", "surrogatepass")) + 1
                          for ln in body], dtype=np.int64)
    arr = _coefficients(raw, lo, ends, n, deg).reshape(d, n, deg)
    return CycMatrix(order, arr, _copy=False)
