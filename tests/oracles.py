"""Test-only oracles: brute-force partition helpers, the literal
Mobius sums over NC(n) and BNC(n, chi), kept independent of the
first-block recursion that the library's transforms use, the explicit
bimodule operators that check the bi-matrix word evaluation, and the Fock
creation operators built by enumerating words as tuples."""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from bipoisson.errors import ShapeMismatchError
from bipoisson.matrix_models import build_wishart_model, evaluate_bimatrix_word
from bipoisson.partitions import (
    LEFT,
    RIGHT,
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


def bimodule_operators(letters) -> list:
    """The n^2 x n^2 operator of each (matrix, side) letter of one size n.

    On the column-stacked vec(M) of M in M_n, left multiplication by A is
    L_A = I (x) A and right multiplication by B is R_B = B^T (x) I, since
    vec(A M B) = (B^T (x) A) vec(M).
    """
    eye = np.eye(letters[0][0].shape[0])
    return [np.kron(eye, m) if side == LEFT else np.kron(m.T, eye)
            for m, side in letters]


def operator_word_value(ops, word) -> complex:
    """<T_w vec(I), vec(I)>/n, with T_w the product of the operators
    `ops[i]` for i in `word`, in word order."""
    n = math.isqrt(ops[0].shape[0])
    vec_eye = np.eye(n).reshape(-1).astype(complex)
    v = vec_eye
    for i in reversed(word):
        v = ops[i] @ v
    return np.vdot(vec_eye, v) / n


def bimodule_residue(letters, rng, num_words: int = 20, max_len: int = 6) -> float:
    """Check the bi-matrix word evaluation against explicit operators.

    `letters` is a list of (matrix, side) pairs of one size n, acting as
    `bimodule_operators`. Returns the larger of the max |[L_A, R_B]| over
    left/right letter pairs and, over `num_words` sampled mixed words of
    length 2..max_len, the max of
    |operator_word_value(w) - evaluate_bimatrix_word(w)|.
    """
    ops = bimodule_operators(letters)
    lefts = [i for i, (_, side) in enumerate(letters) if side == LEFT]
    rights = [i for i, (_, side) in enumerate(letters) if side == RIGHT]
    if not lefts or not rights:
        raise ShapeMismatchError("mixed words need left and right letters")
    worst = max(
        np.abs(ops[a] @ ops[b] - ops[b] @ ops[a]).max() for a in lefts for b in rights
    )
    for _ in range(num_words):
        m = int(rng.integers(2, max_len + 1))
        word = list(rng.integers(0, len(letters), size=m))
        first, second = rng.permutation(m)[:2]
        word[first] = lefts[int(rng.integers(0, len(lefts)))]
        word[second] = rights[int(rng.integers(0, len(rights)))]
        expected = operator_word_value(ops, word)
        got = evaluate_bimatrix_word([letters[i] for i in word])
        worst = max(worst, abs(got - expected))
    return float(worst)


def model_letters(spec, n: int, rng, trials: int = 3) -> list:
    """(matrix, side) letters of every variable over independent trials of
    the model at size n. Over one trial of a shared-slot spec every letter
    is one matrix, and over two the trace of a short word equals that of its
    reversal; three trials give words whose value changes when a product's
    order does."""
    return [
        (mats[v.name], v.side)
        for mats in (build_wishart_model(spec, n, rng) for _ in range(trials))
        for v in spec.variables
    ]


def creation_by_words(basis, side: str, i: int) -> sp.csr_matrix:
    """The creation operator of `basis` built from the explicit list of its
    words (by length, then lexicographic) and a word -> index dict: left
    creation prepends generator i, right creation appends it, and words
    already at full depth are annihilated."""
    words: list[tuple[int, ...]] = []
    for n in range(basis.depth + 1):
        words.extend(itertools.product(range(1, basis.dim + 1), repeat=n))
    index = {w: k for k, w in enumerate(words)}
    rows, cols = [], []
    for col, w in enumerate(words):
        if len(w) >= basis.depth:
            continue
        target = (i,) + w if side == LEFT else w + (i,)
        rows.append(index[target])
        cols.append(col)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(len(words), len(words)))
