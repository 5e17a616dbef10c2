"""Set partitions, non-crossing and bi-non-crossing lattices, Mobius functions.

Partitions are kept in a canonical form (blocks sorted ascending, blocks
ordered by their minimum) so equality and hashing are structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from .errors import DEFAULT_CAP, CapExceededError, ShapeMismatchError

LEFT = "l"
RIGHT = "r"


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks, canonical form."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(n: int, blocks) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [x for b in canon for x in b]
        if sorted(seen) != list(range(1, n + 1)):
            raise ShapeMismatchError(
                f"blocks {blocks!r} do not partition {{1..{n}}}"
            )
        return SetPartition(n, canon)


def is_noncrossing(p: SetPartition) -> bool:
    """No a < b < c < d with {a,c} and {b,d} in different blocks.

    One scan of 1..n keeps a stack of the blocks opened and not yet closed:
    an element of an already open block must belong to the innermost one.
    """
    owner = [0] * (p.n + 1)
    for i, b in enumerate(p.blocks):
        for x in b:
            owner[x] = i
    open_blocks = []
    for x in range(1, p.n + 1):
        i = owner[x]
        b = p.blocks[i]
        if x == b[0]:
            open_blocks.append(i)
        elif open_blocks[-1] != i:
            return False
        if x == b[-1]:
            open_blocks.pop()
    return True


@lru_cache(maxsize=None)
def _nc_range(lo: int, hi: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Non-crossing partitions of lo..hi-1 as canonical block tuples.

    First-block recursion: the block of lo, taken in order of size and then
    lexicographically, followed by the partitions of each gap it leaves.
    The gaps are ascending ranges, so the concatenation is already ordered
    by block minimum.
    """
    if lo >= hi:
        return ((),)
    out = []
    rest = range(lo + 1, hi)
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            block = (lo,) + chosen
            gaps = [_nc_range(a + 1, b) for a, b in zip(block, chosen + (hi,))]
            for pick in itertools.product(*gaps):
                out.append((block,) + tuple(itertools.chain.from_iterable(pick)))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_nc(n: int) -> tuple[SetPartition, ...]:
    """All non-crossing partitions of {1..n}; |result| = Catalan(n)."""
    if not 1 <= n <= DEFAULT_CAP:
        raise CapExceededError(f"n={n} outside [1, {DEFAULT_CAP}]")
    return tuple(SetPartition(n, blocks) for blocks in _nc_range(1, n + 1))


def _kreweras_cycles(p: SetPartition) -> list[list[int]]:
    """Cycles of s -> P^{-1}(c(s)), where P has a cycle per block (traversed
    in increasing order) and c is the long cycle (1 2 ... n). Each cycle
    starts at its least element, and cycles come in order of it."""
    n = p.n
    prev = [0] * (n + 1)
    for b in p.blocks:
        prev[b[0]] = b[-1]
        for a, nxt in zip(b, b[1:]):
            prev[nxt] = a
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = prev[x % n + 1]
        cycles.append(cyc)
    return cycles


def kreweras_complement(p: SetPartition) -> SetPartition:
    """Kreweras complement of a non-crossing partition: its blocks are the
    cycles of s -> P^{-1}(c(s))."""
    return SetPartition(p.n, tuple(tuple(sorted(c)) for c in _kreweras_cycles(p)))


@lru_cache(maxsize=None)
def _mobius_zero_one(m: int) -> int:
    return (-1) ** (m - 1) * catalan(m - 1)


def mobius_nc_one(pi: SetPartition) -> int:
    """Mobius value of the interval [pi, 1_n] in NC(n).

    Uses [pi, 1_n] ~ prod over Kreweras-complement blocks of full NC lattices.
    """
    if not is_noncrossing(pi):
        raise ShapeMismatchError(f"{pi} is not non-crossing")
    out = 1
    for cyc in _kreweras_cycles(pi):
        out *= _mobius_zero_one(len(cyc))
    return out


@dataclass(frozen=True)
class ChiShape:
    """A side map chi: {1..n} -> {l, r} and its induced permutation s_chi."""

    sides: tuple[str, ...]

    def __post_init__(self):
        bad = set(self.sides) - {LEFT, RIGHT}
        if bad:
            raise ShapeMismatchError(f"unknown side tags {bad}")

    @property
    def n(self) -> int:
        return len(self.sides)

    @cached_property
    def s_chi(self) -> tuple[int, ...]:
        """s_chi(k) listed for k = 1..n: left positions ascending, then
        right positions descending."""
        lefts = [i for i, s in enumerate(self.sides, 1) if s == LEFT]
        rights = [i for i, s in enumerate(self.sides, 1) if s == RIGHT]
        return tuple(lefts + rights[::-1])

    def apply(self, pi: SetPartition) -> SetPartition:
        """s_chi o pi: push a partition of positions through s_chi. s_chi is
        a bijection, so the mapped blocks are disjoint and sorting them as
        tuples orders them by their minimum: the result is canonical."""
        s = (0,) + self.s_chi  # s[x] = s_chi(x)
        blocks = sorted([tuple(sorted(map(s.__getitem__, b))) for b in pi.blocks])
        return SetPartition(self.n, tuple(blocks))


def enumerate_bnc(shape: ChiShape) -> list[SetPartition]:
    """BNC(n, chi): the image of NC(n) under pi -> s_chi o pi."""
    return [shape.apply(pi) for pi in enumerate_nc(shape.n)]
