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


class _Ranges(dict):
    """One call's memo, filled on first use. (lo, hi): the rows of lo..hi-1
    with `piece` for every block, joined, as three aligned tuples (text,
    inner, outer). ("gap", lo, hi): each row's share as a gap,
    `tail_mobius(1, ...)`, made only for the ranges that serve as gaps. A
    piece is anything `+` joins and `[:0]` empties: `(block,)` gives block
    tuples."""

    def __init__(self, piece):
        self.piece = piece

    def __missing__(self, key):
        if key[0] == "gap":
            _, inners, outers = self[key[1:]]
            rows = tuple(tail_mobius(1, inners, outers))
        elif key[0] == key[1]:  # an empty range: one partition, with no blocks
            rows = (self.piece(key[:1])[:0],), (1,), (0,)
        else:
            texts, inners, outers = [], [], []
            for head, share, (tails, tail_inners, tail_outers) in _heads(
                    self, *key, self.piece):
                texts += [head + t for t in tails]
                inners += [share * i for i in tail_inners]
                outers += [o + 1 for o in tail_outers]
            rows = tuple(texts), tuple(inners), tuple(outers)
        self[key] = rows
        return rows


def _heads(memo: _Ranges, lo: int, hi: int, first) -> Iterator[tuple]:
    """The first-block recursion over the non-crossing partitions pi of
    lo..hi-1 (lo < hi), a head at a time: each head as (head, share, tail),
    the partitions with that head being head + t for each text t of `tail`,
    the rows of the range after the first block. head + t is `first(b_0)`
    and then `memo.piece(b)` for pi's other blocks b, in canonical order. The
    memo is an argument, not a closure's cell, so no reference cycle keeps it.

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
            # no gap yet: one empty partition, weighing 1
            heads, texts, shares = [(head, 1)], (head[:0],), (1,)
            for a, b in zip(block, chosen):
                if b > a + 1:  # an empty gap adds nothing and weighs 1
                    heads = [(p + g, w * v) for p, w in heads for g, v in zip(texts, shares)]
                    texts, shares = memo[a + 1, b][0], memo["gap", a + 1, b]
            # the last gap is joined as the heads are read, not held in a list
            tail = memo[block[-1] + 1, hi]
            for p, w in heads:
                for g, v in zip(texts, shares):
                    yield p + g, w * v, tail


def tail_mobius(share: int, inners, outers) -> list[int]:
    """mu(pi, 1) of each pi = head + sigma, from the head's share and the
    tails' inner and outer: share * inner(sigma) * mu(0_m, 1_m) with m =
    outer(pi) = outer(sigma) + 1. With share 1 it is sigma's share as a gap."""
    return [share * i * _mobius_zero_one(o + 1) for i, o in zip(inners, outers)]


def nc_heads(n: int, piece, first) -> Iterator[tuple]:
    """`_heads` of {1..n}, with one memo that lives as long as the heads are
    read; {1..n} itself is streamed, not kept. The cap is checked at the
    call, before the first head."""
    if not 1 <= n <= DEFAULT_CAP:
        raise CapExceededError(f"n={n} outside [1, {DEFAULT_CAP}]")
    return _heads(_Ranges(piece), 1, n + 1, first)


def _block(b: tuple[int, ...]) -> tuple[tuple[int, ...]]:
    return (b,)


def enumerate_nc(n: int) -> tuple[SetPartition, ...]:
    """All non-crossing partitions of {1..n}; |result| = Catalan(n)."""
    return tuple(SetPartition(n, head + t) for head, _, tail in nc_heads(n, _block, _block)
                 for t in tail[0])


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

