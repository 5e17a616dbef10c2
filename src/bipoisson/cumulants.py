"""Moment and cumulant functionals on words over a two-faced alphabet.

Words are tuples of variable names; the side of each letter is fixed by the
alphabet, so the side pattern of a word (its chi) is implicit. Tables are
dense up to a degree cap: a missing entry is an error, never a silent zero.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from types import MappingProxyType

# numpy is imported where it runs, so that a pair's grid commands never load it
from .errors import (
    DEFAULT_CAP,
    LEFT,
    RIGHT,
    CapExceededError,
    MissingEntryError,
    ShapeMismatchError,
)

Word = tuple[str, ...]

# Largest transform plan compiled: terms times words at the top length
PLAN_BUDGET = 10_000_000


class Alphabet(namedtuple("Alphabet", "left right")):
    """Ordered left and right variable names; names unique across sides."""

    __slots__ = ()

    def __new__(cls, left: tuple[str, ...], right: tuple[str, ...] = ()):
        names = left + right
        if len(set(names)) != len(names):
            raise ShapeMismatchError(f"duplicate variable names in {names}")
        return super().__new__(cls, left, right)

    @property
    def names(self) -> tuple[str, ...]:
        return self.left + self.right

    def side_of(self, name: str) -> str:
        if name in self.left:
            return LEFT
        if name in self.right:
            return RIGHT
        raise MissingEntryError(f"unknown variable {name!r}")

    def sides_of(self, word: Word) -> tuple[str, ...]:
        return tuple(self.side_of(x) for x in word)


def all_words(alphabet: Alphabet, max_len: int):
    """Every nonempty word of length <= max_len, by (length, position)."""
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet.names, repeat=n)


def _check_cap(degree_cap: int) -> None:
    """Reject a cap past DEFAULT_CAP before any of its |A|**cap words is listed."""
    if degree_cap > DEFAULT_CAP:
        raise CapExceededError(f"degree cap {degree_cap} exceeds {DEFAULT_CAP}")


class _WordTable:
    """A dense table: one read-only float row in `all_words` order, the row
    `transform_rows` reads and writes."""

    def __init__(self, alphabet: Alphabet, degree_cap: int, row):
        import numpy as np

        _check_cap(degree_cap)
        self.alphabet = alphabet
        self.degree_cap = degree_cap
        self.row = np.array(row, dtype=float)
        self.row.flags.writeable = False
        count = word_offset(len(alphabet.names), max(degree_cap, 0) + 1) - 1
        if self.row.shape != (count,):
            raise ShapeMismatchError(f"need {count} values, got {self.row.shape}")
        if not np.isfinite(self.row).all():
            w = list(all_words(alphabet, degree_cap))[np.isfinite(self.row).argmin()]
            raise ValueError(f"non-finite value for word {w!r}")

    @property
    def values(self) -> MappingProxyType:
        """A read-only word -> value view, in `all_words` order."""
        words = all_words(self.alphabet, self.degree_cap)
        return MappingProxyType(dict(zip(words, self.row.tolist())))

    def __call__(self, word: Word) -> float:
        word = tuple(word)
        if not word:
            return 1.0
        if len(word) > self.degree_cap:
            raise CapExceededError(
                f"word length {len(word)} exceeds cap {self.degree_cap}"
            )
        names = self.alphabet.names
        if not set(word) <= set(names):
            raise MissingEntryError(f"no entry for word {word!r}")
        rank = sum(names.index(x) * len(names) ** i for i, x in enumerate(word[::-1]))
        return float(self.row[word_offset(len(names), len(word)) - 1 + rank])

    @classmethod
    def from_function(cls, alphabet: Alphabet, degree_cap: int, fn):
        _check_cap(degree_cap)
        words = all_words(alphabet, degree_cap)
        return cls(alphabet, degree_cap, [float(fn(w)) for w in words])


class MomentFunctional(_WordTable):
    """phi: words -> reals, unit on the empty word."""


class CumulantTable(_WordTable):
    """kappa_chi: words -> reals (chi implicit in the word's side tags)."""


def word_offset(size: int, n):
    """The number of words shorter than n over `size` letters, the empty
    word included. A word's index is this offset of its length plus its
    base-`size` rank: its `all_words` position plus one, the empty word 0."""
    return n if size == 1 else (size**n - 1) // (size - 1)


def _length_plan(n_left: int, size: int, n: int):
    """The first-block recursion for every word of length n, as index arrays.

    Under s_chi (left positions ascending, then right positions descending)
    BNC(n, chi) is NC(n) (Charlesworth-Nelson-Skoufranis 2015), so phi(w) is
    the sum, over the blocks V holding the first reordered letter, of
    kappa(w|V) times the product over the gaps of V of phi(w|gap): the free
    moment-cumulant relation (Nica-Speicher 2006). Terms are cut sets of
    reordered positions by size, then lexicographically; the whole word last.
    Returns (blocks, runs, gaps): blocks[t, w]
    indexes term t's block in the w-th word of length n, runs[r, w] its run
    r of reordered positions (run 0 is empty), and gaps[g, t] is the run of
    term t's g-th gap, 0 past its last.
    """
    import numpy as np

    digits = np.arange(size**n)[:, None] // size ** np.arange(n - 1, -1, -1) % size
    right = digits >= n_left
    # reordered position of each letter: lefts ascending, then rights descending
    slot = np.where(right, n - right.cumsum(1), (~right).cumsum(1) - 1)
    sets, runs, gaps = [], {(): 0}, []
    for k in range(n):
        for chosen in itertools.combinations(range(1, n), k):
            cuts = (0,) + chosen + (n,)
            sets.append(cuts[:-1])
            gap = [runs.setdefault(tuple(range(a + 1, b)), len(runs))
                   for a, b in zip(cuts, cuts[1:]) if b > a + 1]
            gaps.append(gap + [0] * (n // 2 - len(gap)))
    members = np.array([[x in s for x in range(n)] for s in sets + list(runs)])
    # Horner over each word's letters, taking those whose slot is in the set
    rank = np.zeros((len(members), len(digits)), dtype=np.intp)
    for i in range(n):
        rank = np.where(members[:, slot[:, i]], rank * size + digits[:, i], rank)
    index = word_offset(size, members.sum(1))[:, None] + rank
    return index[: len(sets)], index[len(sets):], np.array(gaps, dtype=np.intp).T


def transform_rows(alphabet: Alphabet, degree_cap: int, rows, to_cumulants: bool):
    """Cumulants from rows of moments (to_cumulants) or moments from rows of
    cumulants, each row over `all_words` order. Terms multiply left to right
    and add in order from 0.0, so each value is the per-word recursion's."""
    import numpy as np

    _check_cap(degree_cap)
    size = len(alphabet.names)
    if degree_cap >= 1 and 2 ** (degree_cap - 1) * size**degree_cap > PLAN_BUDGET:
        raise CapExceededError(
            f"transform plan of {2 ** (degree_cap - 1)} terms x {size**degree_cap} "
            f"words exceeds budget {PLAN_BUDGET}"
        )
    rows = np.asarray(rows, dtype=float)
    count = word_offset(size, max(degree_cap, 0) + 1) - 1
    if rows.ndim != 2 or rows.shape[1] != count:
        raise ShapeMismatchError(f"need rows of {count} values, got {rows.shape}")
    given = np.insert(rows, 0, 1.0, axis=1)  # the empty word
    out = given.copy()
    kappa, phi = (out, given) if to_cumulants else (given, out)
    for n in range(1, degree_cap + 1):
        blocks, runs, gaps = _length_plan(len(alphabet.left), size, n)
        lo, hi = word_offset(size, n), word_offset(size, n + 1)
        terms = len(blocks) - to_cumulants  # a cumulant drops the whole word
        step = max(1, PLAN_BUDGET // blocks.size)  # rows whose products fit the budget
        for top in range(0, len(out), step):
            part = slice(top, top + step)
            prod = kappa[part, blocks[:terms]]
            for gap in gaps[:, :terms]:
                prod *= phi[part, runs[gap]]
            acc = sum(prod.swapaxes(0, 1), 0.0)  # term by term, in plan order
            out[part, lo:hi] = phi[part, lo:hi] - acc if to_cumulants else acc
    return out[:, 1:]


def kappa_from_moments(phi: MomentFunctional) -> CumulantTable:
    """Every word's bi-free cumulant from its moments."""
    rows = transform_rows(phi.alphabet, phi.degree_cap, [phi.row], True)
    return CumulantTable(phi.alphabet, phi.degree_cap, rows[0])


def moments_from_kappa(kappa: CumulantTable) -> MomentFunctional:
    """The inverse transform: every word's moment from the cumulants."""
    rows = transform_rows(kappa.alphabet, kappa.degree_cap, [kappa.row], False)
    return MomentFunctional(kappa.alphabet, kappa.degree_cap, rows[0])
