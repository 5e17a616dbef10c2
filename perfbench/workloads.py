"""The benchmark's workloads: the bipoisson command each runs, and a check of
its output against an oracle that does not use the library.

Each workload builder takes the command's size parameters, so that tests
can run the same command and check at small sizes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from math import comb
from typing import Callable


class CheckFailed(Exception):
    """The command's output is wrong."""


@dataclass(frozen=True)
class Workload:
    """One bipoisson command; BENCHMARK.json says why each was chosen."""

    name: str
    argv: Callable[[int], list[str]]  # seed -> bipoisson arguments
    check: Callable[[str], None]      # output text -> None, or CheckFailed


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _csv_rows(text: str, header: list[str]) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    _require(reader.fieldnames == header, f"header {reader.fieldnames} != {header}")
    return list(reader)


def _float(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{key}={row[key]!r} is not a number") from exc
    _require(math.isfinite(value), f"{key}={value} is not finite in {row}")
    return value


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _words(letters: tuple[str, ...], max_len: int) -> list[str]:
    """'.'-joined words over letters, length 1..max_len."""
    out, layer = [], [""]
    for _ in range(max_len):
        layer = [f"{w}.{x}" if w else x for w in layer for x in letters]
        out.extend(layer)
    return out


# ---------------------------------------------------------------- bimatrix


def check_bimatrix(text: str, rate: float, sizes: tuple[int, ...],
                   max_word: int) -> None:
    """Every (size, word) row present once and finite; each target equals
    rate * E[a^|w|] for the shared jump law a uniform on {1, 2}."""
    rows = _csv_rows(text, ["n", "word", "empirical", "target", "abs_err",
                            "std_err"])
    expected = {(n, w) for n in sizes for w in _words(("zl", "zr"), max_word)}
    seen = [(int(r["n"]), r["word"]) for r in rows]
    _require(len(seen) == len(set(seen)), "duplicate (n, word) rows")
    _require(set(seen) == expected,
             f"{len(seen)} rows do not match the {len(expected)} expected")
    for r in rows:
        for key in ("empirical", "abs_err", "std_err"):
            _float(r, key)
        m = len(r["word"].split("."))
        target = rate * (1 + 2**m) / 2
        _require(_close(_float(r, "target"), target),
                 f"target {r['target']} != {target} for {r['word']}")


def bimatrix(rate: float = 2.5, sizes: tuple[int, ...] = (32, 64, 128),
             trials: int = 20, max_word: int = 4) -> Workload:
    return Workload(
        "bimatrix",
        lambda seed: ["--seed", str(seed), "simulate", "bimatrix",
                      "--lambda", str(rate), "--atoms", "1:0.5,2:0.5",
                      "--shared", "--sizes", ",".join(map(str, sizes)),
                      "--trials", str(trials), "--max-word", str(max_word)],
        lambda text: check_bimatrix(text, rate, sizes, max_word),
    )


# ------------------------------------------------------------------- limit


def check_limit(text: str, deg: int, sizes: tuple[int, ...]) -> None:
    """At lambda = alpha = beta = 1 every cumulant is 1, so every reference
    moment is Catalan(|w|); the error decays like 1/N (slope near -1)."""
    rows = _csv_rows(text, ["N", "word", "value", "reference", "abs_err",
                            "slope", "flag"])
    expected = [(n, w) for n in sizes for w in _words(("zl", "zr"), deg)]
    seen = [(int(r["N"]), r["word"]) for r in rows]
    _require(sorted(seen) == sorted(expected),
             f"{len(seen)} rows do not match the {len(expected)} expected")
    slopes = {r["slope"] for r in rows}
    _require(len(slopes) == 1, f"several slopes {slopes}")
    slope = _float(rows[0], "slope")
    _require(-1.15 <= slope <= -0.85, f"slope {slope} outside [-1.15, -0.85]")
    for r in rows:
        ref = catalan(len(r["word"].split(".")))
        _require(_float(r, "reference") == ref,
                 f"reference {r['reference']} != Catalan = {ref} for {r['word']}")
        err = abs(_float(r, "value") - ref)
        _require(_close(_float(r, "abs_err"), err),
                 f"abs_err {r['abs_err']} != |value - reference| = {err}")


def limit(deg: int = 7, sizes: tuple[int, ...] = (16, 64)) -> Workload:
    return Workload(
        "limit",
        lambda seed: ["cbp", "limit", "--deg", str(deg),
                      "--sizes", ",".join(map(str, sizes))],
        lambda text: check_limit(text, deg, sizes),
    )


# -------------------------------------------------------------------- fock


def check_fock(text: str, rate: float, left: float, right: float, N: int,
               max_m: int) -> None:
    """One row per W-word to length max_m; each empirical cumulant is within
    1e-10 of rate * left^p * right^q for length <= N and of 0 beyond."""
    rows = _csv_rows(text, ["word", "chi", "omega_moment", "kappa_empirical",
                            "kappa_target", "abs_err"])
    words = [r["word"] for r in rows]
    _require(sorted(words) == sorted(_words(("wl", "wr"), max_m)),
             f"{len(words)} rows do not match the W-words to length {max_m}")
    for r in rows:
        letters = r["word"].split(".")
        p = letters.count("wl")
        target = rate * left**p * right ** (len(letters) - p) \
            if len(letters) <= N else 0.0
        _float(r, "omega_moment")
        kappa = _float(r, "kappa_empirical")
        _require(abs(kappa - target) < 1e-10,
                 f"kappa {kappa} != target {target} for {r['word']}")
        _require(_float(r, "abs_err") < 1e-10, f"abs_err {r['abs_err']} >= 1e-10")


def fock(rate: float = 0.5, left: float = 0.7, right: float = 0.3, N: int = 2,
         max_m: int = 6, depth: int = 17) -> Workload:
    return Workload(
        "fock",
        lambda seed: ["fock", "verify", "--lambda", str(rate),
                      "--atoms", f"{left}:1", "--right-atoms", f"{right}:1",
                      "--N", str(N), "--max-m", str(max_m), "--depth", str(depth)],
        lambda text: check_fock(text, rate, left, right, N, max_m),
    )


# --------------------------------------------------------------- enumerate


def _noncrossing(blocks: list[list[int]], n: int) -> bool:
    """Scan 1..n keeping open blocks on a stack: a block seen again must be
    the most recently opened one still open."""
    label, last = {}, {}
    for b, block in enumerate(blocks):
        for x in block:
            label[x] = b
        last[b] = max(block)
    stack, opened = [], set()
    for x in range(1, n + 1):
        b = label[x]
        if b not in opened:
            opened.add(b)
            stack.append(b)
        elif stack[-1] != b:
            return False
        if x == last[b]:
            stack.pop()
    return True


def check_enumerate(text: str, n: int) -> None:
    """Catalan(n) distinct non-crossing partitions of {1..n};
    mu(0, 1) = (-1)^(n-1) Catalan(n-1); the Mobius values sum to 0."""
    try:
        rows = json.loads(text)
        parts = [(tuple(tuple(b) for b in r["blocks"]), r["mobius"]) for r in rows]
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckFailed(f"malformed output: {exc}") from exc
    _require(len(parts) == catalan(n), f"{len(parts)} partitions != Catalan({n})")
    _require(len({b for b, _ in parts}) == len(parts), "duplicate partitions")
    full = list(range(1, n + 1))
    for blocks, _ in parts:
        _require(sorted(x for b in blocks for x in b) == full,
                 f"{blocks} does not partition 1..{n}")
        _require(_noncrossing([list(b) for b in blocks], n),
                 f"{blocks} is crossing")
    mobius = dict(parts)
    zero = tuple((i,) for i in full)
    _require(mobius.get(zero) == (-1) ** (n - 1) * catalan(n - 1),
             f"mu(0, 1) = {mobius.get(zero)}")
    _require(mobius.get((tuple(full),)) == 1, "mu(1, 1) != 1")
    _require(sum(mobius.values()) == 0, "Mobius values do not sum to 0")


def enumerate_nc(n: int = 10) -> Workload:
    return Workload(
        "enumerate",
        lambda seed: ["nc", "mobius", "--n", str(n)],
        lambda text: check_enumerate(text, n),
    )


WORKLOADS = {w.name: w for w in (bimatrix(), limit(), fock(), enumerate_nc())}
