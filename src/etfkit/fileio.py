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
"""

from __future__ import annotations

import numpy as np

from .cyclo import CycMatrix, cyclotomic_polynomial
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
    lines = [f"FRAME {syn.order} {frame.d} {frame.n}"]
    for row in syn.array.tolist():
        lines.append(" | ".join(",".join(map(str, cell)) for cell in row))
    return "\n".join(lines) + "\n"


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
    deg = len(cyclotomic_polynomial(order)) - 1
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != d:
        raise FileFormatError(f"header promises {d} rows, file has {len(body)}")
    rows = [ln.split(" | ") for ln in body]
    for r, cells in enumerate(rows):     # before allocating (D, N, deg)
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
