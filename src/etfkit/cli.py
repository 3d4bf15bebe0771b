"""Command-line front end: build pipelines, verify artifacts, classify
parameters, and read/write the design and frame text formats.

Input files are read as bytes and parsed from them (fileio); `verify`
holds no reference to a file's bytes while it certifies what they held.
`design` and `build` write their file block by block as fileio makes the
blocks, so the whole text is never held.  An existing output is rewritten
in place and then cut to its new length, rather than truncated before it
is refilled; a failure part way, such as running out of memory, removes
the partial file.  A process killed between its last write and that cut
leaves the new bytes followed by the old file's tail (a truncating open
left a prefix of the new bytes instead); the readers' row-count check
refuses both.

Exit codes: 0 success/pass, 1 verification failure, 2 usage, parameter,
file or resource error (such as running out of memory).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import lru_cache

from .constructions import (
    ConstructionError,
    existence_status,
    gdd_etf,
    mols_tdtf,
    plan_gdd_etf,
    regular_simplex,
    steiner_etf,
)
from .designs import (
    DesignError,
    LatinSquareSet,
    _field_for,
    _refuse,
    affine_plane,
    fill_holes,
    mols_from_field,
    projective_plane,
    steiner_triple_system,
    td_from_mols,
    verify_gdd,
    wilson_product,
)
from .fileio import (
    DesignVerifyError,
    FileFormatError,
    _design_bytes,
    _design_header,
    _frame_bytes,
    _parse_matrix,
    parse_design,
)
from .frames import (
    EtfType,
    Frame,
    FrameError,
    classify_type,
    verify_etf,
)
from .hadamard import HadamardError, dephase, fourier, paley_i, paley_ii, \
    sylvester, verify_hadamard

USAGE_ERROR = 2
VERIFY_ERROR = 1


class CliError(Exception):
    """Parameter error surfaced to the user with exit code 2."""


def _parse_spec(spec: str) -> tuple[str, int]:
    """The family and the integer parameter of a Hadamard spec."""
    name, _, arg = spec.partition(":")
    if not arg:
        raise CliError(f"Hadamard spec needs a parameter: {spec!r}")
    try:
        value = int(arg)
    except ValueError:
        raise CliError(f"non-integer Hadamard parameter: {spec!r}") from None
    if name not in ("sylvester", "paley1", "paley2", "fourier"):
        raise CliError(f"unknown Hadamard family {name!r}")
    return name, value


def hadamard_from_spec(spec: str):
    """Build a dephased Hadamard matrix from sylvester:k | paley1:q |
    paley2:q | fourier:n."""
    name, value = _parse_spec(spec)
    try:
        if name == "sylvester":
            return dephase(sylvester(value))
        if name == "paley1":
            return dephase(paley_i(_field_for(value)))
        if name == "paley2":
            return dephase(paley_ii(_field_for(value)))
        return dephase(fourier(value))
    except (HadamardError, DesignError) as exc:
        raise CliError(str(exc)) from exc


def _require_size(spec: str, size: int, label: str = "Hadamard matrix"):
    """Refuse a spec whose matrix is not of the size a build needs, before
    the matrix is built: sylvester:k has size 2^k, paley1:q q+1, paley2:q
    2(q+1) and fourier:n n.  A negative k is left to sylvester to refuse."""
    name, value = _parse_spec(spec)
    if name == "sylvester":
        if value < 0:
            return
        # no array has 2^63 rows, so a larger 2^k is not formed
        got = 2 ** value if value < 63 else f"2^{value}"
    elif name == "fourier":
        got = value
    else:
        _refuse(0, 0, value)            # GF(q) past the table limit first
        got = (value + 1) * (1 if name == "paley1" else 2)
    if got != size:
        raise CliError(f"{label} must have size {size}, got {got}")


def _types_field(d: int, n: int) -> str:
    if d <= 1 or n <= d:
        return "none"
    types = classify_type(d, n)
    return ",".join(str(t) for t in types) if types else "none"


def certificate_line(cert) -> str:
    return f"{cert} types={_types_field(cert.d, cert.n)}"


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_frame(path: str) -> Frame:
    # not parse_frame, which perfbench/tracing.py wraps with a hook that
    # encodes its argument as text
    return Frame(_parse_matrix(_read(path)))


def _write(path: str, blocks) -> None:
    """Write the blocks to path as they are made, after one open and one
    fstat whether or not it exists.  An existing output is rewritten in
    place, not truncated first, and then cut to the bytes written:
    truncating it would have the filesystem free its blocks only to
    allocate them again.  A non-regular output such as /dev/null is never
    cut.  A failure part way, such as running out of memory, leaves
    no partial file behind.  A process killed between its last write and
    the cut leaves the new bytes followed by the old file's tail, where a
    truncating open left a prefix of the new bytes; the readers' row count
    refuses both."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        st = os.fstat(fh.fileno())
        regular = stat.S_ISREG(st.st_mode)
        old = st.st_size if regular else 0
        try:
            for block in blocks:
                fh.write(block)
            fh.flush()
            if old and fh.tell() < old:
                fh.truncate()
        except BaseException:
            if regular:
                os.unlink(path)
            raise


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    try:
        types = classify_type(args.D, args.N)
    except FrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(" ".join(str(t) for t in types) if types else "none")
    return 0


def _build_design(args):
    if args.kind == "td":
        k, m = args.a, args.b
        if k <= 2:          # reads no square: refused or built, no field
            return td_from_mols(LatinSquareSet(m, []), k)
        _refuse(m, k, m)                # before the field is built
        return td_from_mols(mols_from_field(_field_for(m)), k)
    if args.kind == "sts":
        return steiner_triple_system(args.a)
    if args.kind == "affine":
        return affine_plane(_field_for(args.a))
    if args.kind == "projective":
        return projective_plane(_field_for(args.a))
    if args.kind == "product":
        return wilson_product(parse_design(_read(args.first)),
                              parse_design(_read(args.second)))
    if args.kind == "fill":
        return fill_holes(parse_design(_read(args.first)),
                          parse_design(_read(args.second)))
    raise CliError(f"unknown design kind {args.kind!r}")


def cmd_design(args) -> int:
    design = _build_design(args)
    report = verify_gdd(design)
    if not report.ok:
        print(f"verification failed: {report.failure}", file=sys.stderr)
        return VERIFY_ERROR
    _write(args.output, _design_bytes(design))
    print(_design_header(design))
    return 0


def cmd_build(args) -> int:
    if args.kind == "simplex":
        _require_size(args.hadamard, args.n)
        frame, cert = regular_simplex(args.n, hadamard_from_spec(args.hadamard))
    elif args.kind == "steiner":
        bibd = parse_design(_read(args.bibd))
        _require_size(args.hadamard, bibd.R + 1)
        frame, cert = steiner_etf(bibd, hadamard_from_spec(args.hadamard))
    elif args.kind == "mols-etf":
        td = parse_design(_read(args.td))
        _require_size(args.hadamard, td.M)
        frame, cert = mols_tdtf(td, hadamard_from_spec(args.hadamard),
                                args.variant)
    else:
        frame, cert = _build_gdd_etf(args)
    _write(args.output, _frame_bytes(frame))
    if cert.welch_equality:
        print(certificate_line(cert))
    else:
        vals = ",".join(str(v.coeffs if not v.is_rational_integer
                            else v.as_integer()) for v in cert.tdtf.values)
        print(f"TDTF D={cert.d} N={cert.n} s={cert.s} values={vals}")
    return 0


def _build_gdd_etf(args):
    seed = _read_frame(args.seed)
    gdd = parse_design(_read(args.gdd))
    types = classify_type(seed.d, seed.n) if 1 < seed.d < seed.n else []
    matches = [t for t in types
               if t.K == gdd.K and t.seed_group_size == gdd.M]
    if not matches:
        raise CliError(
            f"seed ({seed.d}, {seed.n}) has no type matching a K={gdd.K} "
            f"design of type {gdd.M}^{gdd.U}")
    plan = plan_gdd_etf(matches[0], gdd.U)
    _require_size(args.he, plan.hadamard_e_size, "inner Hadamard matrix")
    _require_size(args.hf, plan.hadamard_f_size, "outer Hadamard matrix")
    return gdd_etf(seed, matches[0], gdd, hadamard_from_spec(args.he),
                   hadamard_from_spec(args.hf))


def cmd_verify(args) -> int:
    # no reference to the file's bytes outlives its parse
    if args.kind == "design":
        try:
            design = parse_design(_read(args.path))
        except DesignVerifyError as exc:
            print(f"fail: {exc.report.failure}")
            return VERIFY_ERROR
        print(str(verify_gdd(design)))
        return 0
    if args.kind == "hadamard":         # a zero entry fails here, not in Frame
        report = verify_hadamard(_parse_matrix(_read(args.path)))
        print(str(report))
        return 0 if report.ok else VERIFY_ERROR
    cert = verify_etf(_read_frame(args.path))
    if cert.welch_equality:
        print(certificate_line(cert))
        return 0
    if cert.tdtf.ok:            # a frame file may hold a non-ETF TDTF
        print(f"TDTF D={cert.d} N={cert.n} s={cert.s}")
        return 0
    print(f"fail: {cert.witness}")
    return VERIFY_ERROR


def cmd_status(args) -> int:
    ell = args.L
    if ell not in (1, -1):
        raise CliError("L must be +1 or -1")
    status = existence_status(EtfType(args.K, ell, args.S))
    print(str(status))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in
    it."""
    p = argparse.ArgumentParser(
        prog="etfkit",
        description="Construct and certify equiangular tight frames from "
                    "combinatorial designs, exactly.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="list the (K,L,S) types of (D, N)")
    c.add_argument("D", type=int)
    c.add_argument("N", type=int)
    c.set_defaults(func=cmd_classify)

    d = sub.add_parser("design", help="construct and write a design file")
    dsub = d.add_subparsers(dest="kind", required=True)
    dtd = dsub.add_parser("td", help="transversal design TD(K, M)")
    dtd.add_argument("a", type=int, metavar="K")
    dtd.add_argument("b", type=int, metavar="M")
    dsts = dsub.add_parser("sts", help="Steiner triple system on U points")
    dsts.add_argument("a", type=int, metavar="U")
    daff = dsub.add_parser("affine", help="affine plane of prime-power order")
    daff.add_argument("a", type=int, metavar="Q")
    dproj = dsub.add_parser("projective",
                            help="projective plane of prime-power order")
    dproj.add_argument("a", type=int, metavar="Q")
    dprod = dsub.add_parser("product", help="group-substitution product")
    dprod.add_argument("first", metavar="OUTER.design")
    dprod.add_argument("second", metavar="INNER.design")
    dfill = dsub.add_parser("fill", help="fill the holes of a larger design")
    dfill.add_argument("first", metavar="INNER.design")
    dfill.add_argument("second", metavar="OUTER.design")
    for sp in (dtd, dsts, daff, dproj, dprod, dfill):
        sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(func=cmd_design)

    b = sub.add_parser("build", help="construct, certify and write a frame")
    bsub = b.add_subparsers(dest="kind", required=True)
    bs = bsub.add_parser("simplex", help="flat regular simplex ETF(N-1, N)")
    bs.add_argument("n", type=int, metavar="N")
    bs.add_argument("--hadamard", required=True,
                    help="sylvester:k|paley1:q|paley2:q|fourier:n")
    bst = bsub.add_parser("steiner", help="ETF from a BIBD(V, K, 1)")
    bst.add_argument("--bibd", required=True)
    bst.add_argument("--hadamard", required=True)
    bm = bsub.add_parser("mols-etf", help="flat frame from a TD(K, M)")
    bm.add_argument("--td", required=True)
    bm.add_argument("--hadamard", required=True)
    bm.add_argument("--variant", choices=("centered", "augmented"),
                    default="centered")
    bg = bsub.add_parser("gdd-etf", help="extend a seed ETF by a K-GDD")
    bg.add_argument("--seed", required=True)
    bg.add_argument("--gdd", required=True)
    bg.add_argument("--he", required=True,
                    help="Hadamard of size S+L for the seed columns")
    bg.add_argument("--hf", required=True,
                    help="Hadamard of size W+1 for the replicate slots")
    for sp in (bs, bst, bm, bg):
        sp.add_argument("-o", "--output", required=True)
        sp.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="verify a frame/design/Hadamard file")
    v.add_argument("path")
    v.add_argument("--kind", choices=("frame", "design", "hadamard"),
                   required=True)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("status", help="existence status of type (K, L, S)")
    s.add_argument("K", type=int)
    s.add_argument("L", type=int)
    s.add_argument("S", type=int)
    s.set_defaults(func=cmd_status)
    return p


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DesignError, ConstructionError, FrameError,
            HadamardError, FileFormatError, OSError,
            UnicodeDecodeError,       # a file that cannot be read/written
            OverflowError) as exc:    # an order past the prime ladder
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except DesignVerifyError as exc:
        print(f"fail: {exc.report.failure}", file=sys.stderr)
        return VERIFY_ERROR
    except MemoryError as exc:     # exit 1 stays "an identity failed"
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
