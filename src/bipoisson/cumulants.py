"""Moment and cumulant functionals on words over a two-faced alphabet.

Words are tuples of variable names; the side of each letter is fixed by the
alphabet, so the side pattern of a word (its chi) is implicit. Tables are
dense up to a degree cap: a missing entry is an error, never a silent zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DEFAULT_CAP,
    CapExceededError,
    MissingEntryError,
    ShapeMismatchError,
)
from .partitions import LEFT, RIGHT

Word = tuple[str, ...]


@dataclass(frozen=True)
class Alphabet:
    """Ordered left and right variable names; names unique across sides."""

    left: tuple[str, ...]
    right: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.left + self.right
        if len(set(names)) != len(names):
            raise ShapeMismatchError(f"duplicate variable names in {names}")

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


class _WordTable:
    def __init__(self, alphabet: Alphabet, degree_cap: int, values: dict[Word, float]):
        self.alphabet = alphabet
        self.degree_cap = degree_cap
        self.values = dict(values)
        for w in all_words(alphabet, degree_cap):
            if w not in self.values:
                raise MissingEntryError(
                    f"dense table missing entry for word {w!r}"
                )

    def __call__(self, word: Word) -> float:
        word = tuple(word)
        if not word:
            return 1.0
        if len(word) > self.degree_cap:
            raise CapExceededError(
                f"word length {len(word)} exceeds cap {self.degree_cap}"
            )
        try:
            return self.values[word]
        except KeyError:
            raise MissingEntryError(f"no entry for word {word!r}") from None

    @classmethod
    def from_function(cls, alphabet: Alphabet, degree_cap: int, fn):
        return cls(
            alphabet,
            degree_cap,
            {w: float(fn(w)) for w in all_words(alphabet, degree_cap)},
        )


class MomentFunctional(_WordTable):
    """phi: words -> reals, unit on the empty word."""


class CumulantTable(_WordTable):
    """kappa_chi: words -> reals (chi implicit in the word's side tags)."""

    def add(self, other: "CumulantTable") -> "CumulantTable":
        if other.alphabet != self.alphabet or other.degree_cap != self.degree_cap:
            raise ShapeMismatchError("cumulant tables on different alphabets/caps")
        return CumulantTable(
            self.alphabet,
            self.degree_cap,
            {w: v + other.values[w] for w, v in self.values.items()},
        )

    def scale(self, t: float) -> "CumulantTable":
        return CumulantTable(
            self.alphabet, self.degree_cap, {w: t * v for w, v in self.values.items()}
        )


@lru_cache(maxsize=None)
def _plan(sides: tuple[str, ...]):
    """The first-block recursion for words with side pattern `sides`.

    Under s_chi (left positions ascending, then right positions descending)
    BNC(n, chi) is NC(n) (Charlesworth-Nelson-Skoufranis 2015), so phi(w) is
    the sum, over the blocks V holding the first reordered letter, of
    kappa(w|V) times the product over the gaps of V of phi(w|gap): the free
    moment-cumulant relation (Nica-Speicher 2006). Each of the 2**(n-1)
    terms is a (block, gaps) pair of ascending 0-based positions in the
    original word; the whole-word block comes last.
    """
    n = len(sides)
    if not 1 <= n <= DEFAULT_CAP:
        raise CapExceededError(f"n={n} outside [1, {DEFAULT_CAP}]")
    bad = set(sides) - {LEFT, RIGHT}
    if bad:
        raise ShapeMismatchError(f"unknown side tags {bad}")
    order = [i for i, s in enumerate(sides) if s == LEFT]
    order += [i for i, s in reversed(list(enumerate(sides))) if s == RIGHT]
    terms = []
    for k in range(n):
        for chosen in itertools.combinations(range(1, n), k):
            cuts = (0,) + chosen + (n,)
            block = tuple(sorted(order[c] for c in cuts[:-1]))
            gaps = tuple(
                tuple(sorted(order[a + 1:b]))
                for a, b in zip(cuts, cuts[1:]) if b > a + 1
            )
            terms.append((block, gaps))
    return tuple(terms)


def _expand(kappa_fn, phi_fn, word: Word, terms) -> float:
    total = 0.0
    for block, gaps in terms:
        term = kappa_fn(tuple(word[i] for i in block))
        for gap in gaps:
            if term == 0.0:
                break
            term *= phi_fn(tuple(word[i] for i in gap))
        total += term
    return total


def moment_of_word(kappa_fn, phi_fn, sides: tuple[str, ...], word: Word) -> float:
    """phi(word) from kappa on its subwords and phi on its proper subwords,
    both given as callables."""
    return _expand(kappa_fn, phi_fn, word, _plan(sides))


def cumulant_of_word(kappa_fn, phi_fn, sides: tuple[str, ...], word: Word) -> float:
    """kappa(word) from phi on its subwords and kappa on its proper
    subwords: the moment relation solved for its whole-word term."""
    return phi_fn(word) - _expand(kappa_fn, phi_fn, word, _plan(sides)[:-1])


def kappa_from_moments(phi: MomentFunctional) -> CumulantTable:
    """Every word's bi-free cumulant from its moments, shortest words first."""
    alphabet = phi.alphabet
    values = {}
    for w in all_words(alphabet, phi.degree_cap):
        values[w] = cumulant_of_word(
            values.__getitem__, phi, alphabet.sides_of(w), w
        )
    return CumulantTable(alphabet, phi.degree_cap, values)


def moments_from_kappa(kappa: CumulantTable) -> MomentFunctional:
    """The inverse transform: every word's moment, shortest words first."""
    alphabet = kappa.alphabet
    values = {}
    for w in all_words(alphabet, kappa.degree_cap):
        values[w] = moment_of_word(
            kappa, values.__getitem__, alphabet.sides_of(w), w
        )
    return MomentFunctional(alphabet, kappa.degree_cap, values)
