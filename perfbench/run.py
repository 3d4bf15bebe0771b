"""Benchmark of etfkit: one workload, one seed, one process.

    python3 perfbench/run.py --workload small-zoo --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout; etfkit is imported from its `src`.  One
caller runs one operation at a time (a closed loop).  Set-up is repeated
SETUP_REPEATS times.  Then whole rounds run until `--seconds` have passed,
at least one.  A round has four phases, each timed as the sum of its
operations in reference seconds (clock.py):

  build    `etfkit design` and `etfkit build` for every design and frame
  verify   `etfkit verify` on every intact frame, and on a copy with one
           column multiplied by a root of unity
  reject   `etfkit verify` on four corrupted copies of each chosen frame
  naimark  `frames.naimark_gram(frames.gram(F), A)` on each chosen frame

A garbage collection runs before each phase, outside its timing, so that
each phase starts from the same collector state in every round.  Every
output is checked against reference.py, which does not use etfkit.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, each metric the median over rounds
(over set-ups for `setup_s`).  With `--trace 1` the metrics are the
per-layer ones of tracing.py, and spans go to perfbench/out/.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
from clock import RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MARK_EVERY_S = 0.5     # longest stretch of operations between calibrations
MODULES = ("cyclo", "designs", "hadamard", "frames", "constructions",
           "fileio", "cli")


def _import_etfkit(src: Path) -> dict:
    """Import etfkit afresh from `src`, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "etfkit" or m.startswith("etfkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("etfkit")
    if Path(pkg.__file__).resolve().parent != (src / "etfkit").resolve():
        raise SystemExit(f"etfkit imported from {pkg.__file__}, not {src}")
    mods = {m: importlib.import_module(f"etfkit.{m}") for m in MODULES}
    mods["etfkit"] = pkg
    return mods


class Run:
    """One workload's inputs, operations and results in this process."""

    def __init__(self, workload, seed: int, work: Path, mods: dict,
                 clock: RefClock):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.mods = mods
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []      # outputs that fail a check
        self.failures: list[str] = []    # operations that did not complete
        self.corruptions: dict[str, list] = {}
        # rotation of each frame: a column and a root exponent, from the seed
        self.rotations = {}
        for job in workload.frames:
            rng = random.Random(f"{seed}:{job.path}:rotate")
            self.rotations[job.path] = (rng.randrange(job.expect.n),
                                        rng.randrange(1 << 30))

    def path(self, name: str) -> str:
        return str(self.work / name)

    def argv(self, args) -> list[str]:
        return [self.path(a) if a.endswith((".design", ".frame")) else a
                for a in args]

    # -- operations --------------------------------------------------------

    def _phase(self) -> list:
        """Start a phase: collect garbage, calibrate; return its intervals."""
        gc.collect()
        self.clock.mark()
        return []

    def _timed(self, intervals: list, t0: float) -> None:
        intervals.append((t0, perf_counter()))
        if self.clock.since_mark() > MARK_EVERY_S:
            self.clock.mark()

    def cli(self, intervals: list, args, expect_code: int):
        """Run `etfkit <args>` in-process; return (ok, first output line)."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.mods["cli"].main(list(args))
        except SystemExit as exc:
            code = exc.code
        except Exception:        # an operation's crash is a failed operation
            code = None
            traceback.print_exc(file=sys.stderr)
        self._timed(intervals, t0)
        lines = out.getvalue().splitlines()
        line = lines[0] if lines else ""
        if code != expect_code:
            self.failed += 1
            self.failures.append(f"etfkit {' '.join(args)}: exit {code}, "
                                 f"expected {expect_code}: {line!r} "
                                 f"{err.getvalue().strip()!r}")
            return False, line
        return True, line

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except reference.CheckError as exc:
            self.errors.append(str(exc))

    # -- one round ---------------------------------------------------------

    def round(self) -> dict:
        """Run every operation once; return each phase's wall intervals."""
        wl = self.workload
        start = perf_counter()

        build = self._phase()
        designs, certs = {}, {}
        for job in wl.designs:
            ok, line = self.cli(build, self.argv(job.argv), 0)
            if ok:
                designs[job.path] = line
        for job in wl.frames:
            ok, line = self.cli(build, self.argv(job.argv), 0)
            if ok:
                certs[job.path] = line
        self.clock.mark()

        for job in wl.designs:
            if job.path in designs:
                self.check(_require_equal, designs[job.path],
                           job.expect.header(), job.path)
                self.check(reference.check_design,
                           Path(self.path(job.path)).read_text(),
                           job.expect, job.path)
        texts, files = {}, {}
        for job in wl.frames:
            if job.path not in certs:
                continue
            texts[job.path] = Path(self.path(job.path)).read_text()
            files[job.path] = reference.read_frame(texts[job.path])
            self.check(reference.check_cert_line, certs[job.path],
                       job.expect, job.path)
            self.check(reference.check_frame, files[job.path], job.expect,
                       job.path)
        self._write_copies(texts, files)

        verify = self._phase()
        for job in wl.frames:
            if job.path not in files:
                continue
            ok, line = self.cli(
                verify, ["verify", self.path(job.path), "--kind", "frame"], 0)
            if ok:
                self.check(reference.check_cert_line, line, job.expect,
                           f"verify {job.path}")
            if job.expect.is_etf:
                ok2, line2 = self.cli(
                    verify, ["verify", self.path(_rotated(job.path)),
                             "--kind", "frame"], 0)
                if ok and ok2:
                    self.check(_require_equal, line2, line,
                               f"rotated copy of {job.path}")
        if wl.verify_designs:
            for job in wl.designs:
                ok, line = self.cli(
                    verify, ["verify", self.path(job.path), "--kind",
                             "design"], 0)
                if ok:
                    self.check(_require_equal, line, job.expect.verify_line(),
                               f"verify {job.path}")
        self.clock.mark()

        reject = self._phase()
        for job in wl.frames:
            if not job.reject or job.path not in files:
                continue
            for i, c in enumerate(self.corruptions[job.path]):
                ok, line = self.cli(
                    reject, ["verify", self.path(_corrupted(job.path, i)),
                             "--kind", "frame"], 1)
                if ok:
                    self.check(reference.check_reject, files[job.path], c,
                               line, job.expect,
                               f"{c.kind} {c.corner} of {job.path}")
        self.clock.mark()

        frames_mod = self.mods["frames"]
        inputs = [(job, self.mods["fileio"].parse_frame(texts[job.path]))
                  for job in wl.frames if job.naimark and job.path in texts]
        naimark = self._phase()
        for job, frame in inputs:
            self.attempted += 1
            t0 = perf_counter()
            try:
                result = frames_mod.naimark_gram(frames_mod.gram(frame),
                                                 job.expect.a)
            except Exception:    # a crash is a failed operation
                self.failed += 1
                self.failures.append(f"Naimark complement of {job.path}")
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                self._timed(naimark, t0)
            self.check(reference.check_naimark, result, job.expect,
                       f"Naimark complement of {job.path}")
        self.clock.mark()

        return {"build_s": build, "verify_s": verify, "reject_s": reject,
                "naimark_s": naimark, "total_s": [(start, perf_counter())]}

    def _write_copies(self, texts: dict, files: dict) -> None:
        """Write the rotated and corrupted copies of this round's frames."""
        for job in self.workload.frames:
            if job.path not in files:
                continue
            f = files[job.path]
            if job.expect.is_etf:
                col, k = self.rotations[job.path]
                k = 1 + k % (f.order - 1)
                edits = {(r, col): reference.rotate(f.coeffs[r, col], f.order,
                                                    k)
                         for r in range(f.d)}
                Path(self.path(_rotated(job.path))).write_text(
                    _edit_cells(texts[job.path], edits))
            if job.reject:
                if job.path not in self.corruptions:
                    rng = random.Random(f"{self.seed}:{job.path}:corrupt")
                    self.corruptions[job.path] = reference.pick_corruptions(
                        f, job.expect, rng)
                for i, c in enumerate(self.corruptions[job.path]):
                    cell = c.apply(f).coeffs[c.row, c.col]
                    Path(self.path(_corrupted(job.path, i))).write_text(
                        _edit_cells(texts[job.path], {(c.row, c.col): cell}))


def _rotated(path: str) -> str:
    return path.replace(".frame", ".rotated.frame")


def _corrupted(path: str, i: int) -> str:
    return path.replace(".frame", f".corrupt{i}.frame")


def _edit_cells(text: str, edits: dict) -> str:
    """Frame text with the given (row, col) cells replaced."""
    lines = text.split("\n")
    by_row: dict[int, list] = {}
    for (r, c), value in edits.items():
        by_row.setdefault(r, []).append((c, value))
    for r, cells in by_row.items():
        parts = lines[1 + r].split(" | ")
        for c, value in cells:
            parts[c] = ",".join(str(int(v)) for v in value)
        lines[1 + r] = " | ".join(parts)
    return "\n".join(lines)


def _require_equal(got: str, want: str, where: str) -> None:
    reference.require(got == want, f"{where}: {got!r} != {want!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "etfkit" / "__init__.py").is_file():
        print(f"error: no etfkit sources under {src}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    clock = RefClock()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup = []
        start = _PROCESS_START
        for _ in range(SETUP_REPEATS):
            mods = _import_etfkit(src)
            run = Run(workload, args.seed, work, mods, clock)
            setup.append((start, perf_counter()))
            clock.mark()
            start = perf_counter()

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, mods)

        rounds = []
        begin = perf_counter()
        while not rounds or perf_counter() - begin < args.seconds:
            if tracer is not None:
                tracer.mark_round()
            rounds.append(run.round())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def scaled(intervals) -> float:
        return sum(clock.scaled(t0, t1) for t0, t1 in intervals)

    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = tracing.summarize(tracer.round_metrics(clock.scaled),
                                    tracer,
                                    [scaled(r["total_s"]) for r in rounds])
    else:
        metrics = {key: {"value": statistics.median(scaled(r[key])
                                                    for r in rounds),
                         "unit": "s"}
                   for key in rounds[0]}
        metrics["setup_s"] = {
            "value": statistics.median(scaled([i]) for i in setup),
            "unit": "s"}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}

    for msg in run.failures[:20]:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in run.errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{run.attempted} operations, {run.failed} failed, "
          f"{len(run.errors)} check failures", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
