"""Span tracing of the bipoisson layers from outside the library.

Run as a script, this module stands in for the ``bipoisson`` console
command: it wraps the public functions of each traced module in every
``bipoisson`` namespace that binds them, runs ``bipoisson.cli.main`` on the
remaining arguments, and writes the spans to a JSON file when the command
ends::

    python3 perfbench/tracer.py SPANS.json -- fock verify --lambda 0.5 ...

A span is (parent span, name, start ns, end ns); some spans also carry
counts read from the call's arguments or return value. Spans are kept in
memory until the command ends. Imported, the module turns a span file into
per-layer metrics. A traced function that no longer exists makes the
metrics built on it absent instead of failing the run, so the benchmark
keeps running across refactors of the library's internals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import time

MODULES = ("partitions", "cumulants", "poisson", "matrix_models", "fock", "cli")

# Methods wrapped besides module-level functions: basis construction is a
# layer of its own but lives in a constructor.
METHODS = {"fock": ("FockBasis.__init__",)}


def _estimate_counts(a, result):
    """Words and distinct (left-subword, right-subword) keys, over all sizes,
    computed from the spec's word list."""
    spec = a["spec"]
    left = set(spec.alphabet.left)
    names = spec.alphabet.left + spec.alphabet.right
    words = [w for n in range(1, spec.max_word_len + 1)
             for w in itertools.product(names, repeat=n)]
    keys = {(tuple(x for x in w if x in left), tuple(x for x in w if x not in left))
            for w in words}
    return {"words": len(words) * len(spec.sizes),
            "keys": len(keys) * len(spec.sizes)}


# Counts read at a span's boundary: fn(bound arguments, return value).
COUNTS = {
    "partitions.enumerate_nc": lambda a, r: {"partitions": len(r)},
    "cumulants.kappa_from_moments": lambda a, r: {"words": len(r.values)},
    "cumulants.moments_from_kappa": lambda a, r: {"words": len(r.values)},
    "matrix_models.estimate_empirical_cumulants": _estimate_counts,
    "fock.FockBasis.__init__": lambda a, r: {"states": a["self"].size,
                                             "dim": a["self"].dim},
    "fock.build_w_operators": lambda a, r: {"nnz": r[0].nnz + r[1].nnz},
    "fock.verify_fock_cumulants": lambda a, r: {"max_m": a["max_m"]},
    "cli.write_output": lambda a, r: {"bytes": len(a["text"].encode())},
}


class Tracer:
    """Wraps functions so that each call records a span in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [parent, name index, start, end]
        self.counts: dict[int, dict] = {}
        self.count_errors: dict[str, str] = {}
        self._stack: list[int] = [-1]

    def wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        counter = COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1], name_idx, clock(), 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                self._count(idx, name, counter, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, idx, name, counter, signature, args, kwargs, result):
        try:
            bound = signature.bind(*args, **kwargs).arguments
            self.counts[idx] = counter(bound, result)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            self.count_errors[name] = f"{type(exc).__name__}: {exc}"

    def install(self) -> None:
        """Wrap every public function of MODULES, and the METHODS, in each
        loaded bipoisson namespace that binds them."""
        wrapped = {}  # id(original) -> wrapper
        for short in MODULES:
            modname = f"bipoisson.{short}"
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != modname
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for path in METHODS.get(short, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                setattr(cls, meth, self.wrap(f"{short}.{path}", vars(cls)[meth]))
        for modname, mod in list(sys.modules.items()):
            if modname != "bipoisson" and not modname.startswith("bipoisson."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": {str(k): v for k, v in self.counts.items()},
            "count_errors": self.count_errors,
        }


# ------------------------------------------------------------ span analysis


class Trace:
    """Spans read back from a span file, indexed for per-layer queries."""

    def __init__(self, data: dict):
        self.names = data["names"]
        self.spans = data["spans"]
        self.counts = {int(k): v for k, v in data["counts"].items()}
        self.count_errors = data["count_errors"]
        self.child_ns = [0] * len(self.spans)
        self.by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for i, (parent, n, t0, t1) in enumerate(self.spans):
            self.by_name[self.names[n]].append(i)
            if parent >= 0:
                self.child_ns[parent] += t1 - t0

    def known(self, name: str) -> bool:
        return name in self.by_name

    def _under(self, idx: int, name_ids: set[int]) -> bool:
        parent = self.spans[idx][0]
        while parent >= 0:
            if self.spans[parent][1] in name_ids:
                return True
            parent = self.spans[parent][0]
        return False

    def _duration(self, idx: int) -> int:
        return self.spans[idx][3] - self.spans[idx][2]

    def inclusive_s(self, *names: str) -> float:
        """Time covered by spans of these names, each interval counted once;
        names that were never wrapped cover nothing."""
        names = [n for n in names if self.known(n)]
        ids = {self.names.index(n) for n in names}
        ns = sum(self._duration(i) for n in names for i in self.by_name[n]
                 if not self._under(i, ids))
        return ns / 1e9

    def self_s(self, predicate) -> float:
        """Span time minus child-span time, summed over spans whose name
        matches."""
        ns = sum(self._duration(i) - self.child_ns[i]
                 for name, idxs in self.by_name.items() if predicate(name)
                 for i in idxs)
        return ns / 1e9

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def count_rows(self, name: str) -> list[dict]:
        if name in self.count_errors:
            raise KeyError(f"{name}: {self.count_errors[name]}")
        return [self.counts[i] for i in self.by_name[name] if i in self.counts]

    def count(self, name: str, key: str) -> int:
        return sum(c[key] for c in self.count_rows(name))

    def profile(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name."""
        return {
            name: {"calls": len(idxs),
                   "inclusive_s": self.inclusive_s(name),
                   "self_s": self.self_s(lambda n: n == name)}
            for name, idxs in sorted(self.by_name.items()) if idxs
        }


def _useful_state_ratio(t: Trace) -> float:
    """Fock states of length <= max_m over states built."""
    states = t.count("fock.FockBasis.__init__", "states")
    if states == 0:
        return 0.0
    dims = {c["dim"] for c in t.count_rows("fock.FockBasis.__init__")}
    max_m = t.count("fock.verify_fock_cumulants", "max_m")
    (dim,) = dims
    useful = max_m + 1 if dim == 1 else (dim ** (max_m + 1) - 1) // (dim - 1)
    return min(useful, states) / states


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, spans it needs, fn(Trace) -> value)
LAYER_METRICS = {
    "partitions.enumerate_nc_s": (
        "s", ["partitions.enumerate_nc"],
        lambda t: t.inclusive_s("partitions.enumerate_nc")),
    "partitions.nc_count": (
        "count", ["partitions.enumerate_nc"],
        lambda t: t.count("partitions.enumerate_nc", "partitions")),
    "partitions.mobius_nc_one_s": (
        "s", ["partitions.mobius_nc_one"],
        lambda t: t.inclusive_s("partitions.mobius_nc_one")),
    "partitions.mobius_nc_one_calls": (
        "count", ["partitions.mobius_nc_one"],
        lambda t: t.calls("partitions.mobius_nc_one")),
    "cumulants.kappa_from_moments_s": (
        "s", ["cumulants.kappa_from_moments"],
        lambda t: t.inclusive_s("cumulants.kappa_from_moments")),
    "cumulants.kappa_from_moments_calls": (
        "count", ["cumulants.kappa_from_moments"],
        lambda t: t.calls("cumulants.kappa_from_moments")),
    "cumulants.moments_from_kappa_s": (
        "s", ["cumulants.moments_from_kappa"],
        lambda t: t.inclusive_s("cumulants.moments_from_kappa")),
    "cumulants.moments_from_kappa_calls": (
        "count", ["cumulants.moments_from_kappa"],
        lambda t: t.calls("cumulants.moments_from_kappa")),
    "cumulants.words": (
        "count", ["cumulants.kappa_from_moments", "cumulants.moments_from_kappa"],
        lambda t: t.count("cumulants.kappa_from_moments", "words")
        + t.count("cumulants.moments_from_kappa", "words")),
    "poisson.self_s": (
        "s", ["poisson.limit_theorem_moments", "poisson.cbp_moments"],
        lambda t: t.self_s(lambda name: name.startswith("poisson."))),
    "matrix_models.sample_s": (
        "s", ["matrix_models.build_wishart_model"],
        lambda t: t.inclusive_s("matrix_models.build_wishart_model")),
    "matrix_models.trials": (
        "count", ["matrix_models.build_wishart_model"],
        lambda t: t.calls("matrix_models.build_wishart_model")),
    "matrix_models.eval_s": (
        "s", ["matrix_models.evaluate_bimatrix_word"],
        lambda t: t.inclusive_s("matrix_models.evaluate_bimatrix_word")),
    "matrix_models.words_evaluated": (
        "count", ["matrix_models.evaluate_bimatrix_word"],
        lambda t: t.calls("matrix_models.evaluate_bimatrix_word")),
    "matrix_models.estimate_self_s": (
        "s", ["matrix_models.estimate_empirical_cumulants"],
        lambda t: t.self_s(
            lambda name: name == "matrix_models.estimate_empirical_cumulants")),
    "matrix_models.distinct_key_ratio": (
        "ratio", ["matrix_models.estimate_empirical_cumulants"],
        lambda t: _ratio(
            t.count("matrix_models.estimate_empirical_cumulants", "keys"),
            t.count("matrix_models.estimate_empirical_cumulants", "words"))),
    "fock.basis_s": (
        "s", ["fock.FockBasis.__init__"],
        lambda t: t.inclusive_s("fock.FockBasis.__init__")),
    "fock.basis_states": (
        "count", ["fock.FockBasis.__init__"],
        lambda t: t.count("fock.FockBasis.__init__", "states")),
    "fock.operators_s": (
        "s", ["fock.build_w_operators"],
        lambda t: t.inclusive_s("fock.build_w_operators")),
    "fock.w_nnz": (
        "count", ["fock.build_w_operators"],
        lambda t: t.count("fock.build_w_operators", "nnz")),
    "fock.moments_s": (
        "s", ["fock.fock_moments"],
        lambda t: t.inclusive_s("fock.fock_moments")),
    "fock.vacuum_moment_calls": (
        "count", ["fock.vacuum_moment"],
        lambda t: t.calls("fock.vacuum_moment")),
    "fock.useful_state_ratio": (
        "ratio", ["fock.FockBasis.__init__", "fock.verify_fock_cumulants"],
        _useful_state_ratio),
    "cli.render_s": (
        "s", ["cli.write_output"],
        lambda t: t.inclusive_s("cli.json_text", "cli.csv_text",
                                "cli.write_output")),
    "cli.output_bytes": (
        "bytes", ["cli.write_output"],
        lambda t: t.count("cli.write_output", "bytes")),
}


def layer_metrics(trace: Trace) -> tuple[dict[str, float], dict[str, str]]:
    """(values, absent): each layer metric's value, or why it is absent."""
    values, absent = {}, {}
    for name, (_, needs, fn) in LAYER_METRICS.items():
        gone = [s for s in needs if not trace.known(s)]
        if gone:
            absent[name] = "no such function: " + ", ".join(gone)
            continue
        try:
            value = fn(trace)
        except (KeyError, ValueError) as exc:
            absent[name] = f"count unavailable: {exc}"
            continue
        if not math.isfinite(value):
            absent[name] = f"not finite: {value}"
            continue
        values[name] = value
    return values, absent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <bipoisson arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    cli = sys.modules.get("bipoisson.cli")
    if cli is None:
        print("bipoisson.cli cannot be imported", file=sys.stderr)
        return 2
    try:
        return cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        with open(argv[0], "w") as f:
            json.dump(tracer.dump(), f, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
