"""Test-only oracles: brute-force partition helpers and the literal
Mobius sums over NC(n) and BNC(n, chi), kept independent of the
first-block recursion that the library's transforms use."""

from bipoisson.errors import ShapeMismatchError
from bipoisson.partitions import (
    BNCPartition,
    ChiShape,
    SetPartition,
    enumerate_bnc,
    enumerate_nc,
    mobius_nc_one,
)


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All partitions of {1..n}; brute-force oracle, small n only."""
    out = []

    def rec(x, blocks):
        if x > n:
            out.append(SetPartition.from_blocks(n, blocks))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    rec(1, [])
    return out


def mobius_nc(pi: SetPartition, sigma: SetPartition) -> int:
    """Mobius function of the interval [pi, sigma] in NC(n); 0 if pi !<= sigma."""
    if pi.n != sigma.n:
        raise ShapeMismatchError(f"n mismatch: {pi.n} vs {sigma.n}")
    if not pi.refines(sigma):
        return 0
    out = 1
    for b in sigma.blocks:
        relabel = {x: k + 1 for k, x in enumerate(b)}
        inner = [
            [relabel[x] for x in blk] for blk in pi.blocks if blk[0] in relabel
        ]
        out *= mobius_nc_one(SetPartition.from_blocks(len(b), inner))
    return out


def ker_map(alpha) -> SetPartition:
    """Level-set partition of a map on {1..n}."""
    alpha = list(alpha)
    levels = {}
    for pos, val in enumerate(alpha, 1):
        levels.setdefault(val, []).append(pos)
    return SetPartition.from_blocks(len(alpha), levels.values())


def phi_pi(phi, word, pi) -> float:
    """Product over blocks of phi applied to the block subword (positions
    ascending). `pi` may be a SetPartition or a BNCPartition."""
    word = tuple(word)
    blocks = pi.partition.blocks if isinstance(pi, BNCPartition) else pi.blocks
    if sum(len(b) for b in blocks) != len(word):
        raise ShapeMismatchError(
            f"partition of {sum(len(b) for b in blocks)} vs word length {len(word)}"
        )
    out = 1.0
    for b in blocks:
        out *= phi(tuple(word[i - 1] for i in b))
    return out


def reorder_by_s_chi(phi, word) -> float:
    """Single-face cumulant kappa_n of the s_chi-reordered word, by the
    Mobius sum over NC(n).

    Cross-check oracle: on families where left and right letters commute this
    equals the bi-free cumulant of the original word.
    """
    word = tuple(word)
    s = ChiShape(phi.alphabet.sides_of(word)).s_chi
    reordered = tuple(word[k - 1] for k in s)
    return sum(
        mobius_nc_one(pi) * phi_pi(phi, reordered, pi)
        for pi in enumerate_nc(len(word))
    )


def bnc_cumulant(phi, word) -> float:
    """kappa_chi(word) by Mobius inversion over BNC(n, chi):
    sum of mu(s_chi^{-1} o sigma, 1_n) * phi_sigma(word)."""
    shape = ChiShape(phi.alphabet.sides_of(word))
    return sum(
        mobius_nc_one(sigma.nc_preimage()) * phi_pi(phi, word, sigma)
        for sigma in enumerate_bnc(shape)
    )


def bnc_moment(kappa, word) -> float:
    """phi(word) as the sum over BNC(n, chi) of kappa block products."""
    shape = ChiShape(kappa.alphabet.sides_of(word))
    return sum(phi_pi(kappa, word, sigma) for sigma in enumerate_bnc(shape))
