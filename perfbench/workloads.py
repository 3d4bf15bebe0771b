"""The three workloads: which designs and frames each builds through the
etfkit CLI, which frames it corrupts and complements, and the closed-form
expectations every output is checked against.

Arguments ending in `.design` or `.frame` name files in the run's work
directory.
"""

from __future__ import annotations

from dataclasses import dataclass

from reference import (
    DesignExpect,
    FrameExpect,
    gdd_expect,
    mols_expect,
    simplex_expect,
    steiner_expect,
)


@dataclass(frozen=True)
class DesignJob:
    argv: tuple[str, ...]      # `etfkit design ...`, the output file last
    expect: DesignExpect

    @property
    def path(self) -> str:
        return self.argv[-1]


@dataclass(frozen=True)
class FrameJob:
    argv: tuple[str, ...]      # `etfkit build ...`, the output file last
    expect: FrameExpect
    reject: bool = False       # verify four corrupted copies
    naimark: bool = False      # complement its Gram

    @property
    def path(self) -> str:
        return self.argv[-1]


@dataclass(frozen=True)
class Workload:
    designs: tuple[DesignJob, ...]
    frames: tuple[FrameJob, ...]
    verify_designs: bool       # round-trip every design through `verify`


def _design(kind: str, *args: str, expect: tuple[int, int, int]) -> DesignJob:
    name = "-".join((kind,) + tuple(a.removesuffix(".design") for a in args))
    return DesignJob(("design", kind) + args + ("-o", f"{name}.design"),
                     DesignExpect(*expect))


def _simplex(spec: str, n: int) -> FrameJob:
    name = spec.replace(":", "")
    return FrameJob(("build", "simplex", str(n), "--hadamard", spec,
                     "-o", f"simplex-{name}.frame"),
                    simplex_expect(n), reject=n > 2, naimark=True)


def _steiner(bibd: str, spec: str, expect: FrameExpect, name: str,
             **flags) -> FrameJob:
    return FrameJob(("build", "steiner", "--bibd", bibd, "--hadamard", spec,
                     "-o", f"{name}.frame"), expect, **flags)


def _gdd(seed: str, gdd: str, he: str, hf: str, expect: FrameExpect,
         name: str, **flags) -> FrameJob:
    return FrameJob(("build", "gdd-etf", "--seed", seed, "--gdd", gdd,
                     "--he", he, "--hf", hf, "-o", f"{name}.frame"),
                    expect, **flags)


def _mols(td: str, spec: str, variant: str, k: int, m: int,
          name: str) -> FrameJob:
    expect = mols_expect(k, m, variant)
    return FrameJob(("build", "mols-etf", "--td", td, "--hadamard", spec,
                     "--variant", variant, "-o", f"{name}.frame"),
                    expect, reject=expect.is_etf, naimark=True)


# One coefficient slot (order 2).
STEINER = Workload(
    designs=(
        _design("sts", "39", expect=(3, 1, 39)),
        _design("sts", "31", expect=(3, 1, 31)),
    ),
    frames=(
        _steiner("sts-39.design", "paley1:19", steiner_expect(39, 3),
                 "steiner-247"),
        _steiner("sts-31.design", "sylvester:4", steiner_expect(31, 3),
                 "steiner-155", reject=True, naimark=True),
    ),
    verify_designs=False,
)

# 4 and 8 coefficient slots (orders 10 and 30).
GDD_MULTISLOT = Workload(
    designs=(
        _design("affine", "2", expect=(2, 1, 4)),
        _design("td", "4", "8", expect=(4, 8, 4)),
        _design("td", "3", "3", expect=(3, 3, 3)),
        _design("sts", "7", expect=(3, 1, 7)),
        _design("product", "td-3-3.design", "sts-7.design",
                expect=(3, 3, 7)),
    ),
    frames=(
        _steiner("affine-2.design", "sylvester:2", steiner_expect(4, 2),
                 "seed-6"),
        _simplex("fourier:3", 3),
        _gdd("seed-6.frame", "td-4-8.design", "sylvester:1", "fourier:5",
             gdd_expect(4, -1, 3, 8, 4), "gdd-88", reject=True,
             naimark=True),
        _gdd("simplex-fourier3.frame", "product-td-3-3-sts-7.design",
             "fourier:1", "fourier:10", gdd_expect(3, -1, 2, 3, 7),
             "gdd-77", reject=True, naimark=True),
    ),
    verify_designs=False,
)

# Every small artifact of the acceptance suite.
_HADAMARD_SIMPLICES = (
    [(f"sylvester:{k}", 2 ** k) for k in range(1, 6)]
    + [(f"paley1:{q}", q + 1) for q in (3, 7, 11, 19, 23)]
    + [(f"paley2:{q}", 2 * (q + 1)) for q in (5, 13)]
    + [(f"fourier:{n}", n) for n in range(2, 13)]
)

SMALL_ZOO = Workload(
    designs=(
        _design("td", "3", "3", expect=(3, 3, 3)),
        _design("td", "2", "4", expect=(2, 4, 2)),
        _design("td", "3", "4", expect=(3, 4, 3)),
        _design("td", "4", "8", expect=(4, 8, 4)),
        _design("td", "4", "32", expect=(4, 32, 4)),
        _design("sts", "7", expect=(3, 1, 7)),
        _design("sts", "9", expect=(3, 1, 9)),
        _design("affine", "2", expect=(2, 1, 4)),
        _design("affine", "3", expect=(3, 1, 9)),
        _design("projective", "2", expect=(3, 1, 7)),
        _design("projective", "3", expect=(4, 1, 13)),
        _design("product", "td-3-3.design", "sts-7.design",
                expect=(3, 3, 7)),
        _design("product", "td-3-3.design", "sts-9.design",
                expect=(3, 3, 9)),
        _design("fill", "td-4-8.design", "td-4-32.design",
                expect=(4, 8, 16)),
    ),
    frames=tuple(_simplex(spec, n) for spec, n in _HADAMARD_SIMPLICES) + (
        _steiner("affine-2.design", "sylvester:2", steiner_expect(4, 2),
                 "steiner-6", reject=True, naimark=True),
        _steiner("sts-7.design", "sylvester:2", steiner_expect(7, 3),
                 "steiner-7", reject=True, naimark=True),
        _steiner("projective-2.design", "paley1:3", steiner_expect(7, 3),
                 "steiner-7p", reject=True, naimark=True),
        _steiner("sts-9.design", "fourier:5", steiner_expect(9, 3),
                 "steiner-12", reject=True, naimark=True),
        _steiner("affine-3.design", "fourier:5", steiner_expect(9, 3),
                 "steiner-12a", reject=True, naimark=True),
        _steiner("projective-3.design", "fourier:5", steiner_expect(13, 4),
                 "steiner-13", reject=True, naimark=True),
        _mols("td-2-4.design", "sylvester:2", "centered", 2, 4, "mols-6"),
        _mols("td-3-4.design", "sylvester:2", "augmented", 3, 4, "mols-10"),
        _mols("td-3-4.design", "sylvester:2", "centered", 3, 4, "tdtf-9"),
        _gdd("simplex-fourier3.frame", "td-3-3.design", "fourier:1",
             "sylvester:2", gdd_expect(3, -1, 2, 3, 3), "gdd-15",
             reject=True, naimark=True),
        _gdd("simplex-fourier3.frame", "td-3-3.design", "sylvester:0",
             "fourier:4", gdd_expect(3, -1, 2, 3, 3), "gdd-15b",
             reject=True, naimark=True),
    ),
    verify_designs=True,
)

WORKLOADS = {
    "steiner-247": STEINER,
    "gdd-multislot": GDD_MULTISLOT,
    "small-zoo": SMALL_ZOO,
}
