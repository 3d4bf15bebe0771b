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
(text is encoded once).  Only its header line is searched for the other
line breaks but "\r": the block reader refuses one in a body, and the
file is then read as any other file is.  Bytes of any other file are
decoded as Path.read_text(encoding="utf-8") decodes them: strict UTF-8,
so that a file that is not UTF-8 raises the same UnicodeDecodeError, with
"\r\n" and a lone "\r" read as "\n".  Such a file is read line by line.

One block reader reads the body of a plain file of either format into
int64: a design body is a frame body of one entry of K tokens a line.  It
takes the format's byte table and the bytes that table deletes.  A
frame's spaces are deleted and its "|" read as "!", so that each " | " is
one separator; a design's space separates its tokens, and "," and "|" are
bytes that no token holds.  deg = phi(n) comes from the factorisation of
n, so Phi_n is built only by the CycMatrix that receives the
coefficients, after every check.

Before it allocates its int64 output, the body must hold a byte for each
of the D N deg tokens and one for each separator but the last, so that a
header promising more allocates nothing.  Then it is read in blocks of
whole lines of about 2^17 bytes, so that no Python object is made per
token and the temporaries are those of one block.  A block ends at the
last line end within that budget, found by one bytes.rfind; a longer line
is a block of its own.

Each block is first read by its layout, when every token has one digit,
as the coefficients of the paper's GDD extensions and Steiner ETFs and
the vertices of a design below 10 do.  With its "-" deleted, such a
block is whole lines of U = N (deg + 1) - 1 two-byte units: a digit and
"," within an entry (a design's " "), a digit and " " before a bar, "| "
for a bar and a digit and the line end last.  The block, viewed as
(rows, U) little-endian uint16, less these units with "0" as each digit,
must be at most 9 at each digit unit and 0 at each bar unit: one
comparison checks every byte (see _one_digit_tokens), and the digit
units' differences are the digits, cast into the int64 output by one
copy.  Each "-", found by one comparison, must be followed by a digit,
and negates that digit's token.  The temporaries are a uint16 a unit, a
bool a byte and an int64 a "-", so an int64 for each negative token and
none for another.  A block so read is one that the token reader below
reads to the same coefficients.

A block that does not fit the layout (a token of two or more digits, or
any byte out of place) is read token by token, as it would be without
the layout read, so that it is read, or refused, the same way:
  - one bytes.translate deletes the format's deleted bytes, writes its
    separators as bytes below "-" and every byte no token holds as "x";
  - the token scan's separators, the bytes below "-" ("," "!" and the line
    end), must be those of whole lines of N entries of deg tokens, no more
    lines than the header has left: their count, then their bytes;
  - the spaces deleted must be those of the " | ".  The block holds
    2 rows (N - 1) spaces, and the byte pairs " |" and "| " each occur
    rows (N - 1) times.  The separators have shown that the block holds
    rows (N - 1) "|", so each has a space on either side; no space sits
    beside two, since the token between two "|" is not empty; so these
    are 2 rows (N - 1) spaces, and there is no other.  Deleting the spaces
    made each " | " one separator and changed nothing else;
  - every token must match -?[0-9]{1,18}, so that it is below
    10^18 < 2^62 and fits a CycMatrix's int64 storage.  Its digits are
    summed column by column, one masked pass per digit of the longest
    token, and each byte read as a digit must be one: an "x", a "-" after
    the first byte and a token with no digit fail there.

Any other file, a body the block reader refuses and a design whose rows
do not ascend are read line by line, so that an error names the first
line or entry that breaks it whichever way the file was read.  A frame's
lines, from str.splitlines(), are checked before anything of the
header's size is allocated: the row count, then each row's width.  Its
lines, joined, go to the same block reader, unless they are the plain
body it has just refused (less its last line end).  When it refuses them
too (more digits, a "+", a stray space, a non-ASCII digit, or no integer
at all), they are walked entry by entry in row-major order: each entry's
coefficient count is checked, then its tokens are read with int() into
one list of Python ints, which CycMatrix narrows to int64 where they fit.
The first entry (r, c) that fails either names the error.  No token that
int() accepts holds a ",", a "|" or a line end, so a stray separator
fails its entry there.

A file is written as ASCII bytes in blocks of whole rows of about 2^15
coefficients, each made only when the one before has been taken:
serialize_frame and serialize_design join them into a str, while the CLI
writes each block to its file as it is made.  In an int64 block every
coefficient is written right-aligned into a uint8 cell of one width, its
"-", its digits (one pass per digit of the longest token) and its
separator slots ("," or " " within a row, " | " between entries, the
newline after the last), NUL elsewhere; one bytes.translate deletes the
NULs.  Python-int storage (a coefficient at or above 2^62) is written one
row at a time, each row formatted from one list of Python ints.
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
_BLOCK = 2**15                    # coefficients per block of written rows
_BLOCK_BYTES = 2**17              # bytes per block of read lines
_MAX_DIGITS = 18                  # 10^18 < 2^62: such a token is stored int64
_POW10 = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.int64)


def _table(seps: dict[bytes, bytes]) -> bytes:
    """A translate table that keeps digits, "-" and the line end, maps each
    separator of `seps` to its byte below "-" and every other byte, which no
    token holds, to "x"."""
    return bytes(c if c in b"0123456789-\n" else seps.get(bytes([c]), b"x")[0]
                 for c in range(256))


# each format's byte table and the bytes it deletes.  A frame's spaces are
# deleted and its "|" read as "!", so that each " | " is one separator; a
# design's space is the separator of the tokens of its one entry a line
_FRAME_TABLE = (_table({b",": b",", b"|": b"!"}), b" ")
_DESIGN_TABLE = (_table({b" ": b","}), b"")
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
    blocks = None if raw is None else _int64_coefficients(
        raw, cut + 1, b, 1, k, _DESIGN_TABLE)
    if blocks is not None:
        blocks = blocks.reshape(b, k)
        if (blocks[:, 1:] < blocks[:, :-1]).any():      # a row descends
            blocks = None
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
    del blocks              # the design holds its own copy: free this one
    report = verify_gdd(design)
    if not report.ok:
        raise DesignVerifyError(report)
    return design


def _plain(data: str | bytes) -> bytes | None:
    """The bytes of a plain file, which are read as they are: ASCII, with
    no line break but the newline.  None for any other file.

    Only the header line is searched for the breaks other than "\r": in a
    body, each is a byte that no token or separator holds, which the block
    reader refuses, and the file is then read line by line, as any other
    file is.  A "\r" is searched for in the whole file, as a "\r\n" read
    from bytes is one character, and a frame's order is bounded by the
    characters."""
    if not data.isascii():
        return None
    raw = data.encode("ascii") if isinstance(data, str) else data
    head = raw[:raw.find(b"\n") % (len(raw) + 1)]
    return (None if b"\r" in raw or any(b in head for b in _LINE_BREAKS)
            else raw)


def _text(data: str | bytes) -> str:
    """The text of a file as read_text(encoding="utf-8") reads it: strict
    UTF-8, with "\r\n" and "\r" read as "\n"."""
    if isinstance(data, str):
        return data
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


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


def _int64_coefficients(raw: bytes, lo: int, d: int, n: int, deg: int,
                        table: tuple[bytes, bytes]) -> np.ndarray | None:
    """The tokens of the body raw[lo:] as int64, read in blocks of whole
    lines of about _BLOCK_BYTES bytes; None unless the body is d lines of
    n entries joined by " | ", each entry deg tokens -?[0-9]{1,18}, the
    last line end optional.  `table`, the format's byte table and the bytes
    it deletes, names the separator of an entry's tokens: "," in a frame,
    " " in a design."""
    width = n * deg
    # a coefficient takes a digit and a separator, but the last line end
    # may be missing: a header promising more allocates nothing
    if min(d, width) < 1 or 2 * d * width - 1 > len(raw) - lo:
        return None
    out = np.empty(d * width, dtype=np.int64)
    line = b"!".join([b"," * (deg - 1)] * n) + b"\n"   # its separators
    # the byte that the table reads as "," separates an entry's tokens
    comma = bytes([table[0].index(b",")])
    start, r = lo, 0
    while start < len(raw):
        # the block ends at its last line end within the budget; a line
        # longer than the budget is a block of its own
        cut = start + _BLOCK_BYTES
        stop = len(raw) if cut >= len(raw) else (
            raw.rfind(b"\n", start, cut) + 1 or raw.find(b"\n", cut) + 1
            or len(raw))
        block = raw[start:stop]
        start = stop
        rows = _one_digit_tokens(block, comma,
                                 out[r * width:].reshape(d - r, n, deg))
        if not rows:                      # read token by token
            kept = block.translate(*table)                 # the one pass
            spaces = len(block) - len(kept)
            if not kept.endswith(b"\n"):
                kept += b"\n"
            buf = np.frombuffer(kept, dtype=np.uint8)
            end = np.flatnonzero(buf < ord("-"))          # every separator
            rows, rest = divmod(end.size, width)
            if rest or r + rows > d or spaces != 2 * rows * (n - 1):
                return None
            # with its separators in place, and each "|" spaced, the spaces
            # deleted were those of the " | " (see the module docstring)
            if not (buf[end].tobytes() == line * rows
                    and (n == 1 or _bars_spaced(block, rows * (n - 1)))
                    and _int64_tokens(buf, end,
                                      out[r * width:(r + rows) * width])):
                return None
        r += rows
    return out if r == d else None


def _one_digit_tokens(block: bytes, comma: bytes, out: np.ndarray) -> int:
    """Read the block's lines into the first rows of out, (rows, n, deg),
    when every token is -?[0-9] and every line n entries of deg tokens, a
    token followed by `comma` within an entry; the lines read, or 0, and
    nothing read, when the block is not so.

    With its "-" deleted, such a block is whole lines of U = n (deg + 1) - 1
    two-byte units: a digit and `comma`, a digit and " " before a bar, "| "
    for a bar, and a digit and the line end last.  It is read as a
    (rows, U) array of little-endian uint16, less the units of a line with
    "0" as each digit.  In each difference the low byte is the unit's
    first byte less its expected one, mod 256, and the high byte its
    second byte less its expected one, less 1 when the low byte borrowed,
    mod 256.  A digit unit's difference is at most 9 just when its first
    byte is a digit ("0" plus 0..9, with no borrow) and its second the
    expected one; a bar unit's is 0 just when both bytes are the expected
    ones.  So one comparison checks every byte, and the digit units'
    differences are the tokens' digits.

    Each "-" must be followed by a digit (the block ends with a line end),
    so that no "-" follows another and each token holds at most one, right
    before its digit.  What is left has its digits only at the first bytes
    of digit units, and the digit after the k-th "-", at byte i, is byte
    i - k of it.  The temporaries are a uint16 a unit, a bool a byte and
    an int64 a "-": an int64 for each negative token, none for another."""
    _, n, deg = out.shape
    if not block.endswith(b"\n"):        # as the token reader reads it
        block += b"\n"
    kept = block.replace(b"-", b"")
    rows, rest = divmod(len(kept), 2 * (n * (deg + 1) - 1))
    if rest or not 0 < rows <= len(out):
        return 0
    # a line's units, and the most that each may exceed them by: 9 at a
    # digit unit, 0 at a bar unit
    entry = (b"0" + comma) * (deg - 1) + b"0 "
    want = np.frombuffer(b"| ".join([entry] * n)[:-1] + b"\n", "<u2")
    top = np.frombuffer(b"\0\0".join([b"\x09\0" * deg] * n), "<u2")
    diff = np.frombuffer(kept, "<u2").reshape(rows, -1) - want
    if (diff > top).any():
        return 0
    digits = diff.view(np.int16)
    if len(kept) < len(block):
        buf = np.frombuffer(block, np.uint8)
        at = np.flatnonzero(buf == ord("-"))
        if (buf[1:][at] - ord("0") > 9).any():    # uint8: a digit follows
            return 0
        at -= np.arange(at.size)                  # that digit's byte in kept
        flat = digits.reshape(-1)
        at >>= 1
        flat[at] = -flat[at]
    # each line's n entries start deg + 1 units apart, the last ending at
    # the line's last unit
    two = digits.itemsize
    np.copyto(out[:rows], np.ndarray((rows, n, deg), np.int16, digits, 0,
                                     (digits.strides[0], (deg + 1) * two, two)))
    return rows


def _bars_spaced(block: bytes, bars: int) -> bool:
    """Whether each of the `bars` "|" of block has a space on either side:
    the byte pairs " |" and "| " each occur `bars` times.  Each pair of
    adjacent bytes is one uint16 of the block's pairs from offset 0 joined
    to those from offset 1."""
    k = len(block)
    pairs = np.frombuffer(block[:k & ~1] + block[1:(k - 1 & ~1) + 1], "<u2")
    return (np.count_nonzero(pairs == 0x7C20) == bars          # " |"
            == np.count_nonzero(pairs == 0x207C))               # "| "


def _int64_tokens(buf: np.ndarray, end: np.ndarray, out: np.ndarray) -> bool:
    """Read into out the tokens of buf, which end at the separators at
    `end`, the first starting at 0, and the last byte of buf a separator;
    False when a token is not -?[0-9]{1,18}.

    Every byte of a token but its "-" is read as a digit, and a byte that
    is not one reads past 9.  A token with no digit ("" or "-") reads the
    byte before it, a separator or its "-", as its last digit."""
    start = np.empty_like(end)
    start[0] = 0
    np.add(end[:-1], 1, out=start[1:])
    neg = buf[start] == ord("-")
    ndig = np.subtract(end, start, out=start)
    ndig -= neg
    top = int(ndig.max())
    if top > _MAX_DIGITS:
        return False
    last = end - 1
    # in uint8, a byte that is no digit ("-", "x", a separator) reads past 9
    np.subtract(buf[last], ord("0"), out=out, dtype=np.uint8)
    if out.max() > 9:
        return False
    for j in range(1, top):                    # one masked pass per digit
        at = np.flatnonzero(ndig > j)
        digit = buf[last[at] - j] - ord("0")
        if digit.max() > 9:
            return False
        out[at] += digit * _POW10[j - 1]
    np.negative(out, out=out, where=neg)
    return True


def _coefficients_by_line(data: str | bytes, lines: list[str] | None,
                          d: int, n: int, deg: int,
                          refused: bytes | None) -> np.ndarray:
    """Every coefficient of a file's body, d lines of n entries of deg
    tokens, read from its lines: int64, or Python ints when a token is not
    -?[0-9]{1,18}.  Each check, in order, names the first line or entry
    that fails it.  Lines that join to `refused`, a plain body that the
    block reader has refused, less its last line end, skip that reader."""
    if lines is None:
        lines = _text(data).splitlines()
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != d:
        raise FileFormatError(
            f"header promises {d} rows, file has {len(body)}")
    for r, ln in enumerate(body):            # before allocating anything
        width = ln.count(" | ") + 1
        if width != n:
            raise FileFormatError(
                f"row {r} has {width} entries, expected {n}")
    raw = "\n".join(body).encode("utf-8", "surrogatepass")
    if refused is None or raw != refused.removesuffix(b"\n"):
        out = _int64_coefficients(raw, 0, d, n, deg, _FRAME_TABLE)
        if out is not None:
            return out
    out = []
    for r, ln in enumerate(body):
        for c, cell in enumerate(ln.split(" | ")):
            parts = cell.split(",")
            if len(parts) != deg:
                raise FileFormatError(
                    f"entry ({r}, {c}) has {len(parts)} coefficients, "
                    f"expected {deg}")
            try:
                out.extend(map(int, parts))
            except ValueError:
                raise FileFormatError(
                    f"entry ({r}, {c}) is not an integer vector") from None
    return np.array(out, dtype=object)


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
    out = None
    if raw is not None:
        out = _int64_coefficients(raw, len(head_line) + 1, d, n, deg,
                                   _FRAME_TABLE)
    if out is None:          # any other file, and any the blocks refuse
        out = _coefficients_by_line(data, lines, d, n, deg,
                                    raw and raw[len(head_line) + 1:])
    return CycMatrix(order, out.reshape(d, n, deg), _copy=False)
