"""Set partitions, non-crossing and bi-non-crossing lattices, Mobius functions.

Partitions are kept in a canonical form (blocks sorted ascending, blocks
ordered by their minimum) so equality and hashing are structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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

    @staticmethod
    def zero(n: int) -> "SetPartition":
        return SetPartition(n, tuple((i,) for i in range(1, n + 1)))

    @staticmethod
    def one(n: int) -> "SetPartition":
        return SetPartition(n, (tuple(range(1, n + 1)),))

    def num_blocks(self) -> int:
        return len(self.blocks)

    def refines(self, other: "SetPartition") -> bool:
        """True if every block of self is contained in a block of other."""
        if self.n != other.n:
            raise ShapeMismatchError(f"n mismatch: {self.n} vs {other.n}")
        owner = {}
        for idx, b in enumerate(other.blocks):
            for x in b:
                owner[x] = idx
        return all(len({owner[x] for x in b}) == 1 for b in self.blocks)

    def relabel(self, mapping) -> "SetPartition":
        """Apply a bijection {1..n} -> {1..n} elementwise."""
        return SetPartition.from_blocks(
            self.n, [[mapping[x] for x in b] for b in self.blocks]
        )


def is_noncrossing(p: SetPartition) -> bool:
    """No a < b < c < d with {a,c} and {b,d} in different blocks."""
    for b1, b2 in itertools.combinations(p.blocks, 2):
        merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
        alternations = 1
        last = merged[0][1]
        for _, tag in merged[1:]:
            if tag != last:
                alternations += 1
                last = tag
        if alternations >= 4:
            return False
    return True


def _nc_blocks(elems: tuple[int, ...]):
    """Yield non-crossing partitions of an ordered tuple, as block lists."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            block = (first,) + chosen
            # split the leftover elements into the gaps of `block`
            segments = []
            seg = []
            for x in rest:
                if x in chosen:
                    segments.append(seg)
                    seg = []
                else:
                    seg.append(x)
            segments.append(seg)
            combos = [list(_nc_blocks(tuple(s))) for s in segments]
            for pick in itertools.product(*combos):
                yield [block] + [b for part in pick for b in part]


@lru_cache(maxsize=None)
def enumerate_nc(n: int, cap: int = DEFAULT_CAP) -> tuple[SetPartition, ...]:
    """All non-crossing partitions of {1..n}; |result| = Catalan(n)."""
    if not 1 <= n <= cap:
        raise CapExceededError(f"n={n} outside [1, {cap}]")
    return tuple(
        SetPartition.from_blocks(n, blocks)
        for blocks in _nc_blocks(tuple(range(1, n + 1)))
    )


def kreweras_complement(p: SetPartition) -> SetPartition:
    """Kreweras complement of a non-crossing partition.

    Blocks are the cycles of s -> P^{-1}(c(s)) where P has a cycle per block
    (traversed in increasing order) and c is the long cycle (1 2 ... n).
    """
    n = p.n
    perm = {}
    for b in p.blocks:
        for a, nxt in zip(b, b[1:]):
            perm[a] = nxt
        perm[b[-1]] = b[0]
    inv = {v: k for k, v in perm.items()}
    nxt = {i: inv[i % n + 1] for i in range(1, n + 1)}
    seen = set()
    blocks = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = nxt[x]
        blocks.append(cyc)
    return SetPartition.from_blocks(n, blocks)


def _mobius_zero_one(m: int) -> int:
    return (-1) ** (m - 1) * catalan(m - 1)


@lru_cache(maxsize=None)
def mobius_nc_one(pi: SetPartition) -> int:
    """Mobius value of the interval [pi, 1_n] in NC(n).

    Uses [pi, 1_n] ~ prod over Kreweras-complement blocks of full NC lattices.
    """
    if not is_noncrossing(pi):
        raise ShapeMismatchError(f"{pi} is not non-crossing")
    out = 1
    for b in kreweras_complement(pi).blocks:
        out *= _mobius_zero_one(len(b))
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

    @property
    def s_chi(self) -> tuple[int, ...]:
        """s_chi(k) listed for k = 1..n: left positions ascending, then
        right positions descending."""
        lefts = [i for i, s in enumerate(self.sides, 1) if s == LEFT]
        rights = [i for i, s in enumerate(self.sides, 1) if s == RIGHT]
        return tuple(lefts + rights[::-1])

    def apply(self, pi: SetPartition) -> SetPartition:
        """s_chi o pi: push a partition of positions through s_chi."""
        s = self.s_chi
        return pi.relabel({k: s[k - 1] for k in range(1, self.n + 1)})

    def unapply(self, sigma: SetPartition) -> SetPartition:
        """s_chi^{-1} o sigma."""
        s = self.s_chi
        inv = {s[k - 1]: k for k in range(1, self.n + 1)}
        return sigma.relabel(inv)


def s_chi_of(chi) -> ChiShape:
    """Build a ChiShape from any iterable of 'l'/'r' tags."""
    return ChiShape(tuple(chi))


@dataclass(frozen=True)
class BNCPartition:
    """A bi-non-crossing partition: s_chi o pi for some pi in NC(n)."""

    shape: ChiShape
    partition: SetPartition

    def nc_preimage(self) -> SetPartition:
        return self.shape.unapply(self.partition)


def enumerate_bnc(shape: ChiShape, cap: int = DEFAULT_CAP) -> list[BNCPartition]:
    """The image of NC(n) under pi -> s_chi o pi."""
    return [
        BNCPartition(shape, shape.apply(pi)) for pi in enumerate_nc(shape.n, cap)
    ]
