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

A frame body is read whole, not entry by entry.  The header, the row
count and every row's width are checked before anything is allocated.
deg = phi(n) comes from the factorisation of n, so Phi_n is built only by
the CycMatrix that receives the coefficients, after every check.  One pass
over the body's bytes checks every entry's coefficient count: with every
other byte deleted, the separators must be exactly those of D rows of N
entries of deg tokens.  One np.array call then converts every coefficient
to int64; it accepts exactly the tokens int() accepts.  Only when a
coefficient does not fit in int64 is the body read again as Python ints.
Only when a check fails is the body walked entry by entry, to name the
first bad entry (r, c) in row-major order, its count checked before its
integers.  A frame is written one row at a time, each row formatted from
one list of Python ints.
"""

from __future__ import annotations

import numpy as np

from .cyclo import CycMatrix
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
# every byte but the separators ",", "|" and the line end
_TOKEN_BYTES = bytes(sorted(set(range(256)) - set(b",|\n")))


class FileFormatError(ValueError):
    """Malformed design or frame text."""


class DesignVerifyError(ValueError):
    """A syntactically valid design file that fails certification."""

    def __init__(self, report: GddReport):
        super().__init__(f"design fails verification: {report.failure}")
        self.report = report


def serialize_design(design: GroupDivisibleDesign) -> str:
    lines = [f"GDD {design.K} {design.U} {design.M} {design.B}"]
    for blk in design.blocks:
        lines.append(" ".join(str(v) for v in blk))
    return "\n".join(lines) + "\n"


def parse_design(text: str) -> GroupDivisibleDesign:
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
    design = GroupDivisibleDesign(k, m, u, blocks)
    report = verify_gdd(design)
    if not report.ok:
        raise DesignVerifyError(report)
    return design


def serialize_frame(frame: Frame) -> str:
    syn = frame.synthesis
    deg = syn.array.shape[2]
    lines = [f"FRAME {syn.order} {frame.d} {frame.n}"]
    for row in syn.array.reshape(frame.d, -1):
        tokens = map(str, row.tolist())
        if deg > 1:                      # each run of deg tokens is one entry
            tokens = map(",".join, zip(*[tokens] * deg))
        lines.append(" | ".join(tokens))
    return "\n".join(lines) + "\n"


def _totient(n: int) -> int:
    """Euler's phi(n), the degree of Phi_n, by trial division."""
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return phi - phi // n if n > 1 else phi


def _first_bad_entry(body: list[str], deg: int) -> FileFormatError:
    """The error of the first entry, in row-major order, that does not hold
    deg integers; the coefficient count is checked before the integers."""
    for r, ln in enumerate(body):
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


def _counts_ok(text: str, d: int, n: int, deg: int) -> bool:
    """Whether the body `text` holds d rows of n entries of deg
    comma-separated tokens: whether its separators, in order, are those of
    such a body.  A "|" inside an entry is one separator too many."""
    seps = text.encode("utf-8", "surrogatepass").translate(None, _TOKEN_BYTES)
    if len(seps) != d * n * deg - 1:
        return False
    row = b"|".join([b"," * (deg - 1)] * n)
    return seps == b"\n".join([row] * d)


def _coefficients(body: list[str], n: int, deg: int) -> np.ndarray:
    """Every coefficient of the body, row-major: int64, or Python ints when
    one does not fit.  Each row holds n entries."""
    text = "\n".join(body)
    if _counts_ok(text, len(body), n, deg):
        tokens = text.replace(" | ", ",").replace("\n", ",").split(",")
        try:
            return np.array(tokens, dtype=np.int64)
        except (OverflowError, ValueError):
            try:
                return np.array([int(t) for t in tokens], dtype=object)
            except ValueError:
                pass
    raise _first_bad_entry(body, deg)


def parse_frame(text: str) -> Frame:
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
    # phi(n) >= sqrt(n / 2), so past 2 len(text)^2 no entry of the file
    # holds phi(n) coefficients; below it, trial division takes about as
    # many steps as the file has characters
    if order > max(2 * len(text) ** 2, _TRIAL_DIVISION_LIMIT):
        raise FileFormatError(
            f"order {order} needs more coefficients per entry than the "
            f"file has characters")
    deg = _totient(order)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != d:
        raise FileFormatError(f"header promises {d} rows, file has {len(body)}")
    for r, ln in enumerate(body):        # before allocating anything
        width = ln.count(" | ") + 1
        if width != n:
            raise FileFormatError(
                f"row {r} has {width} entries, expected {n}")
    arr = _coefficients(body, n, deg).reshape(d, n, deg)
    return Frame(CycMatrix(order, arr, _copy=False))
