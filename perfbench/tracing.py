"""Per-layer tracing from outside etfkit.

The layers are etfkit's modules.  `install` wraps each module's public
functions, and the public methods of `CycMatrix`, so that every call
records a span (name, start, end, parent) in memory.  A wrapped name is
replaced in every etfkit module that binds it: `verify_etf` is also bound in
`constructions` and `cli`, `verify_gdd` in `fileio` and `cli`, and so on.
`CycMatrix.entry` runs once per Gram entry in the CLI's diagnosis loop, so
it is counted, not timed.

A layer's self time is the time of its spans minus the time of their child
spans.  A function metric is the time of its outermost spans, so a call
nested in another call of the same group counts once.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("cyclo", "designs", "hadamard", "frames", "constructions",
          "fileio", "cli")

# metric group -> wrapped names (layer.function) whose spans it sums
GROUPS = {
    "cyclo.matmul": ("cyclo.CycMatrix.__matmul__",),
    # every slot-wise product that is not a matrix product; `kron` runs only
    # on the GDD and MOLS constructions, so it has no time metric of its own
    "cyclo.entrywise": ("cyclo.CycMatrix.entrywise_mul",
                        "cyclo.CycMatrix.scalar_mul", "cyclo.CycMatrix.kron"),
    "cyclo.linear_map": ("cyclo.CycMatrix.adjoint",
                         "cyclo.CycMatrix.conjugate_entries",
                         "cyclo.CycMatrix.lift_to_order"),
    "frames.verify_etf": ("frames.verify_etf",),
    "frames.gram": ("frames.gram",),
    "frames.frame_operator": ("frames.frame_operator",),
    "frames.verify_tdtf": ("frames.verify_tdtf",),
    "frames.naimark_gram": ("frames.naimark_gram",),
    "designs.construct": tuple(f"designs.{f}" for f in (
        "gf_build", "mols_from_field", "td_from_mols",
        "steiner_triple_system", "affine_plane", "projective_plane",
        "wilson_product", "fill_holes")),
    "designs.verify_gdd": ("designs.verify_gdd",),
    "designs.embedding": ("designs.embedding_operators",),
    "hadamard.construct": tuple(f"hadamard.{f}" for f in (
        "sylvester", "paley_i", "paley_ii", "fourier", "kron_had")),
    "hadamard.verify": ("hadamard.verify_hadamard",),
    "hadamard.dephase": ("hadamard.dephase",),
    "hadamard.simplex": ("hadamard.simplex_from_hadamard",),
    "constructions.factory": tuple(f"constructions.{f}" for f in (
        "regular_simplex", "steiner_etf", "mols_tdtf", "gdd_etf")),
    "fileio.serialize_frame": ("fileio.serialize_frame",),
    "fileio.parse_frame": ("fileio.parse_frame",),
    "fileio.design_io": ("fileio.parse_design", "fileio.serialize_design"),
    "cli.main": ("cli.main",),
}

# per round, "<group>_s" sums the time of a group's outermost spans and a
# "_calls" metric counts all spans of its group
TIMED = ("cyclo.matmul", "cyclo.entrywise", "cyclo.linear_map",
         "frames.verify_etf", "frames.gram", "frames.frame_operator",
         "frames.verify_tdtf", "frames.naimark_gram", "designs.construct",
         "designs.verify_gdd", "designs.embedding", "hadamard.construct",
         "hadamard.verify", "hadamard.dephase", "hadamard.simplex",
         "fileio.serialize_frame", "fileio.parse_frame", "fileio.design_io")
COUNTED = {
    "cyclo.matmul_calls": "cyclo.matmul",
    "frames.verify_etf_calls": "frames.verify_etf",
    "frames.gram_calls": "frames.gram",
    "frames.frame_operator_calls": "frames.frame_operator",
    "frames.verify_tdtf_calls": "frames.verify_tdtf",
    "designs.verify_gdd_calls": "designs.verify_gdd",
    "hadamard.verify_calls": "hadamard.verify",
    "hadamard.simplex_calls": "hadamard.simplex",
    "constructions.calls": "constructions.factory",
    "cli.main_calls": "cli.main",
}

_CYCMATRIX_METHODS = (
    "__matmul__", "__add__", "__sub__", "__neg__", "__eq__", "scalar_mul",
    "entrywise_mul", "kron", "conjugate_entries", "adjoint", "transpose",
    "lift_to_order", "abs_squared_entries", "submatrix", "zeros", "identity",
    "ones", "from_int_matrix", "diagonal", "from_scalars", "vstack",
    "hstack", "block_diag")


class Tracer:
    """Spans and counters of one run, kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []    # span name by span index
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.entry_calls = 0
        self.kron_calls = 0
        self.macs = 0
        self.largest_bytes = 0
        self.frame_bytes = 0
        self._rounds: list[tuple[int, dict]] = []

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, out)
            return out
        return traced

    # -- counters taken from arguments and results -------------------------

    def _product(self, args, out) -> None:
        arr = out.array
        self.largest_bytes = max(self.largest_bytes, arr.nbytes)

    def _matmul(self, args, out) -> None:
        self._product(args, out)
        rows, cols, deg = out.array.shape
        self.macs += rows * args[0].cols * cols * deg * deg

    def _kron(self, args, out) -> None:
        self._product(args, out)
        self.kron_calls += 1

    def _serialized(self, args, out) -> None:
        self.frame_bytes += len(out.encode("utf-8"))

    def _parsed(self, args, out) -> None:
        self.frame_bytes += len(args[0].encode("utf-8"))

    def _entry(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.entry_calls += 1
            return fn(*args, **kwargs)
        return counted

    # -- rounds ------------------------------------------------------------

    def mark_round(self) -> None:
        """Start a round: remember where its spans and counters begin."""
        self._rounds.append((len(self.names), self._counters()))

    def _counters(self) -> dict:
        return {"cyclo.entry_calls": self.entry_calls,
                "cyclo.kron_calls": self.kron_calls,
                "cyclo.matmul_macs": self.macs,
                "fileio.frame_bytes": self.frame_bytes}

    def round_metrics(self, scaled) -> list[dict]:
        """Per-layer metrics of every round, in round order; `scaled` maps
        a wall interval to the seconds reported for it."""
        n = len(self.names)
        durs = [scaled(self.starts[i], self.ends[i]) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += durs[i]
        group_of = {name: g for g, names in GROUPS.items() for name in names}
        bounds = [start for start, _ in self._rounds] + [n]
        counters = [c for _, c in self._rounds] + [self._counters()]
        out = []
        for r in range(len(self._rounds)):
            self_s = defaultdict(float)
            group_s = defaultdict(float)
            group_calls = defaultdict(int)
            for i in range(bounds[r], bounds[r + 1]):
                name = self.names[i]
                dur = durs[i]
                self_s[name.split(".", 1)[0]] += dur - child[i]
                g = group_of.get(name)
                if g is None:
                    continue
                group_calls[g] += 1
                p = self.parents[i]
                while p >= 0 and group_of.get(self.names[p]) != g:
                    p = self.parents[p]
                if p < 0:
                    group_s[g] += dur
            m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
            m.update({f"{g}_s": group_s[g] for g in TIMED})
            m.update({k: group_calls[g] for k, g in COUNTED.items()})
            m.update({k: counters[r + 1][k] - counters[r][k]
                      for k in counters[r]})
            m["trace.spans"] = bounds[r + 1] - bounds[r]
            out.append(m)
        return out

    def largest_array_mib(self) -> float:
        return self.largest_bytes / 2**20

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i],
                                     self.parents[i]]) + "\n")


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the public functions of the seven etfkit modules in place.

    `modules` maps a layer name to its imported module; the package module
    itself is under "etfkit".
    """
    originals = {}
    for layer in LAYERS:
        mod = modules[layer]
        names = getattr(mod, "__all__", None) or ["main"]
        for name in names:
            fn = getattr(mod, name)
            # cached helpers such as cyclotomic_polynomial are left bare:
            # their recursive calls would add spans to the first round only
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                originals[id(fn)] = (fn, f"{layer}.{name}")
    hooks = {"fileio.serialize_frame": tracer._serialized,
             "fileio.parse_frame": tracer._parsed}
    wrapped = {key: tracer.wrap(name, fn, hooks.get(name))
               for key, (fn, name) in originals.items()}
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    cls = modules["cyclo"].CycMatrix
    after = {"__matmul__": tracer._matmul, "kron": tracer._kron,
             "scalar_mul": tracer._product, "entrywise_mul": tracer._product}
    for meth in _CYCMATRIX_METHODS:
        raw = cls.__dict__[meth]
        name = f"cyclo.CycMatrix.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(name, raw, after.get(meth)))
    cls.entry = tracer._entry(cls.__dict__["entry"])


def summarize(rounds: list[dict], tracer: Tracer, total_s: list[float]) -> dict:
    """Median over rounds of each per-layer metric, with its unit."""
    out = {}
    for key in rounds[0]:
        value = statistics.median(r[key] for r in rounds)
        unit = "s" if key.endswith("_s") else "count"
        if key == "fileio.frame_bytes":
            unit = "bytes"
        out[key] = {"value": value, "unit": unit}
    out["cyclo.largest_array_mib"] = {"value": tracer.largest_array_mib(),
                                      "unit": "MiB"}
    out["trace.total_s"] = {"value": statistics.median(total_s), "unit": "s"}
    return out
