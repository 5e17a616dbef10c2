"""Set partitions, non-crossing and bi-non-crossing lattices, Mobius functions.

Partitions are kept in a canonical form (blocks sorted ascending, blocks
ordered by their minimum) so equality and hashing are structural.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import comb

from .errors import DEFAULT_CAP, CapExceededError, ShapeMismatchError

LEFT = "l"
RIGHT = "r"


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# A partition of {1..n} into disjoint nonempty blocks, in canonical form
SetPartition = namedtuple("SetPartition", "n blocks")


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
def _mobius_zero_one(m: int) -> int:
    """mu(0_m, 1_m) in NC(m)."""
    return (-1) ** (m - 1) * catalan(m - 1)


def _heads(lo: int, hi: int, piece, first) -> Iterator[tuple]:
    """The first-block recursion over the non-crossing partitions pi of
    lo..hi-1 (lo < hi), a head at a time: each head as (head, share, tail_lo),
    where the partitions with that head are head + tail for each tail, a
    partition of tail_lo..hi-1. head + tail is `first(b_0)` and then
    `piece(b)` for pi's other blocks b, in canonical order.

    A head is the block b_0 = lo < ... < b_k, in order of size and then
    lexicographically, and a partition sigma_j of each gap
    b_j < x < b_{j+1} for j < k; the tail is a partition sigma_k of
    b_k < x < hi. K(pi), the Kreweras complement, has the blocks of each
    K(sigma_j) off sigma_j's outer face, one block of size outer(sigma_j) + 1
    per gap j < k, and the outer-face block, of size
    outer(pi) = outer(sigma_k) + 1. inner(pi) is the product of
    mu(0_|b|, 1_|b|) over the other blocks b of K(pi), so it is the head's
    share, the gaps' part of it, times inner(sigma_k), and
    mu(pi, 1) = inner(pi) * mu(0_outer, 1_outer).
    """
    rest = range(lo + 1, hi)
    for k in range(len(rest) + 1):
        for chosen in itertools.combinations(rest, k):
            block = (lo,) + chosen
            head = first(block)
            heads, gap = [(head, 1)], [(head[:0], 1)]  # no gap yet: empty, weighing 1
            for a, b in zip(block, chosen):
                if b > a + 1:  # an empty gap adds nothing and weighs 1
                    heads = [(p + g, w * v) for p, w in heads for g, v in gap]
                    gap = [*zip(_nc_range(a + 1, b, piece)[0], _gap_shares(a + 1, b, piece))]
            # the last gap is joined as the heads are read, not held in a list
            tail_lo = block[-1] + 1
            for p, w in heads:
                for g, v in gap:
                    yield p + g, w * v, tail_lo


@lru_cache(maxsize=None)
def _nc_range(lo: int, hi: int, piece) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """The rows of lo..hi-1 with `piece` for every block, joined, as three
    aligned tuples (text, inner, outer). A piece is anything `+` joins and
    `[:0]` empties: `(block,)` gives block tuples."""
    if lo >= hi:  # one partition, with no blocks
        return (piece((lo,))[:0],), (1,), (0,)
    texts, inners, outers = [], [], []
    for head, share, tail_lo in _heads(lo, hi, piece, piece):
        tails, tail_inners, tail_outers = _nc_range(tail_lo, hi, piece)
        texts += [head + t for t in tails]
        inners += [share * i for i in tail_inners]
        outers += [o + 1 for o in tail_outers]
    return tuple(texts), tuple(inners), tuple(outers)


@lru_cache(maxsize=None)
def _gap_shares(lo: int, hi: int, piece) -> tuple[int, ...]:
    """Each partition sigma of `_nc_range(lo, hi, piece)` as a gap of a first
    block: its share of inner, inner(sigma) * mu(0_m, 1_m) with
    m = outer(sigma) + 1, the size of its Kreweras block."""
    _, inners, outers = _nc_range(lo, hi, piece)
    return tuple([i * _mobius_zero_one(o + 1) for i, o in zip(inners, outers)])


def nc_heads(n: int, piece, first) -> Iterator[tuple]:
    """`_heads` of {1..n}, which are streamed and not memoized; a head's
    tails are `_nc_range(tail_lo, n + 1, piece)`. The cap is checked at the
    call, before the first head."""
    if not 1 <= n <= DEFAULT_CAP:
        raise CapExceededError(f"n={n} outside [1, {DEFAULT_CAP}]")
    return _heads(1, n + 1, piece, first)


def nc_rows(n: int, piece, first) -> Iterator[tuple]:
    """Each partition pi of {1..n} as (head, tail, inner(pi), outer(pi)): the
    heads of `nc_heads(n, piece, first)`, each with its tails. The cap is
    checked at the call."""
    return ((head, t, share * i, o + 1) for head, share, lo in nc_heads(n, piece, first)
            for t, i, o in zip(*_nc_range(lo, n + 1, piece)))


def _block(b: tuple[int, ...]) -> tuple[tuple[int, ...]]:
    return (b,)


@lru_cache(maxsize=None)
def enumerate_nc(n: int) -> tuple[SetPartition, ...]:
    """All non-crossing partitions of {1..n}; |result| = Catalan(n)."""
    return tuple(SetPartition(n, p + t) for p, t, _, _ in nc_rows(n, _block, _block))


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


def mobius_nc_one(pi: SetPartition) -> int:
    """Mobius value of the interval [pi, 1_n] in NC(n), for any one pi.

    Uses [pi, 1_n] ~ prod over Kreweras-complement blocks of full NC lattices.
    """
    if not is_noncrossing(pi):
        raise ShapeMismatchError(f"{pi} is not non-crossing")
    out = 1
    for cyc in _kreweras_cycles(pi):
        out *= _mobius_zero_one(len(cyc))
    return out


class ChiShape:
    """A side map chi: {1..n} -> {l, r} and its induced permutation s_chi,
    listed as s_chi(k) for k = 1..n: left positions ascending, then right
    positions descending."""

    def __init__(self, sides: tuple[str, ...]):
        bad = set(sides) - {LEFT, RIGHT}
        if bad:  # sorted, so that the message does not depend on the hash seed
            tags = ", ".join(sorted(map(repr, bad)))
            raise ShapeMismatchError(f"unknown side tags {{{tags}}}")
        self.sides = sides
        self.n = len(sides)
        lefts = [i for i, s in enumerate(sides, 1) if s == LEFT]
        rights = [i for i, s in enumerate(sides, 1) if s == RIGHT]
        self.s_chi = s_chi = tuple(lefts + rights[::-1])
        # block of positions -> its sorted image under s_chi; at most 2^n entries
        self._image = lru_cache(maxsize=None)(
            lambda b: tuple(sorted(s_chi[x - 1] for x in b)))

    def apply(self, pi: SetPartition) -> SetPartition:
        """s_chi o pi: push a partition of positions through s_chi. s_chi is
        a bijection, so the mapped blocks are disjoint and sorting them as
        tuples orders them by their minimum: the result is canonical. Each
        block's sorted image is kept in this shape's own memo."""
        return SetPartition(self.n, tuple(sorted(map(self._image, pi.blocks))))

